#!/usr/bin/env python3
"""Benchmark of the unexpect scorer: CLI pipeline, Engine API and layers.

Run from the root of a source checkout; the package is run from ./src,
not from an installed copy:

    python3 bench/run.py --workload shift4-iir --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics: throughput of the CLI
stages, each a subprocess reading and writing files, throughput of
``Engine.step`` in-process, set-up time, peak RSS and snapshot size.
``--trace 1`` measures the per-layer metrics instead, timing calls into
each module's public functions and wrapping the engine's stack,
estimator and detector in timing proxies (see layers.py).

Both modes check every output: CLI traces, snapshots and divergence
reports must equal what the library computes in-process, the traced
run must reproduce the untraced records, and a prefix of each stream
must match the naive reference in oracle.py. Measurement repeats in
rounds until ``--seconds`` have passed. End-to-end times are rescaled
to a fixed host speed (see hostspeed.py) and are medians over rounds;
per-layer times are the fastest over rounds.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import monotonic, perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

# The checkout's own package, never an installed copy; main() checks.
sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import unexpect  # noqa: E402
from unexpect import (  # noqa: E402
    CodeLengthTable,
    DiscreteDistribution,
    Engine,
    EngineConfig,
    MachinePair,
    divergences,
    read_events,
    run_stream,
)
from unexpect.engine import TRACE_CSV_HEADER, trace_to_csv, trace_to_jsonl  # noqa: E402
from unexpect.simgen import SourceSpec, generate  # noqa: E402

MIN_ROUNDS = 3
ENGINE_PASSES_PER_ROUND = 2
SETUP_SAMPLES_PER_ROUND = 2
HARD_LIMIT_S = 170.0  # every subprocess is killed past this point of the run
DIVERGENCE_TAU = 2.0


@dataclass(frozen=True)
class Workload:
    spec: dict            # simgen source spec, without its seed
    config: dict          # EngineConfig fields; passed to `track` as flags
    emit: str             # trace format
    split: bool           # `track` the first half, `replay` the second
    oracle_prefix: int    # events checked against oracle.reference_scores

    def track_flags(self) -> list[str]:
        flags = []
        for key, value in self.config.items():
            flags += [f"--{key.replace('_', '-')}", str(value)]
        return flags + ["--emit", self.emit]


# Why each workload exists is recorded in BENCHMARK.json; the layer each
# per-layer metric belongs to, and the end-to-end metric it should move,
# in bench/README.md.
WORKLOADS = {
    "shift4-iir": Workload(
        spec={"kind": "changepoint", "length": 25_000,
              "symbols": ["a", "b", "c", "d"],
              "mass": [0.7, 0.2, 0.05, 0.05],
              "mass_after": [0.05, 0.05, 0.2, 0.7], "t_star": 12_500},
        config={}, emit="jsonl", split=False, oracle_prefix=5_000,
    ),
    "zipf10k-iir": Workload(
        spec={"kind": "zipf", "length": 10_000, "alphabet": 10_000},
        config={}, emit="jsonl", split=False, oracle_prefix=2_000,
    ),
    # The prefix passes the 10,000-event window, so FIR slides are checked.
    "zipf1k-fir-bounded": Workload(
        spec={"kind": "zipf", "length": 30_000, "alphabet": 1_000},
        config={"estimator": "fir", "window": 10_000, "capacity": 256},
        emit="csv", split=True, oracle_prefix=12_000,
    ),
}

END_TO_END_UNITS = {
    "track_eps": "events/s",
    "pipeline_eps": "events/s",
    "engine_eps": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "snapshot_bytes": "bytes",
}

PER_LAYER_UNITS = {
    "memory.parse.busy_s": "s",
    "memory.parse.ns_per_event": "ns",
    "memory.parse.bytes": "bytes",
    "memory.stack.busy_s": "s",
    "memory.stack.ns_per_event": "ns",
    "memory.stack.hits": "count",
    "memory.stack.novelties": "count",
    "memory.stack.evictions": "count",
    "memory.stack.size": "count",
    "memory.stack.depth_sum": "count",
    "estimators.w.busy_s": "s",
    "estimators.update.busy_s": "s",
    "estimators.calls": "count",
    "estimators.entries": "count",
    "engine.detector.busy_s": "s",
    "engine.detector.updates": "count",
    "engine.detector.flagged_events": "count",
    "engine.detector.first_flag_t": "t",
    "engine.step.busy_s": "s",
    "engine.step.self_s": "s",
    "engine.step.p50_us": "us",
    "engine.step.p99_us": "us",
    "engine.serialize.busy_s": "s",
    "engine.serialize.ns_per_event": "ns",
    "engine.serialize.bytes": "bytes",
    "engine.snapshot.write_s": "s",
    "engine.snapshot.restore_s": "s",
    "engine.snapshot.bytes": "bytes",
    "simgen.busy_s": "s",
    "simgen.ns_per_event": "ns",
    "divergence.busy_s": "s",
    "divergence.support": "count",
    "cli.simulate_s": "s",
    "cli.track_s": "s",
    "cli.replay_s": "s",
    "cli.divergence_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead": "ratio",
}

# What the installed `unexpect` console script runs.
CLI_ENTRY = "import sys; from unexpect.cli import main; sys.exit(main())"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


@dataclass
class Reference:
    """Expected outputs, computed in-process once per run."""

    observations: list
    records: list
    events: bytes
    trace: bytes
    snapshot: bytes
    report: bytes


@dataclass
class Bench:
    workload: Workload
    seed: int
    tmp: str
    deadline: float
    attempted: int = 0
    failures: list = field(default_factory=list)
    speed: hostspeed.HostSpeed | None = None  # rescales times when set

    def rescaled(self, elapsed: float) -> float:
        return self.speed.rescale(elapsed) if self.speed else elapsed

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def cli(self, *args: str) -> tuple[int, float, float]:
        """Run one `unexpect` subcommand; return (exit code, wall s, peak RSS MB)."""
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self.path("stderr.txt"), "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *args],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, env=env, cwd=ROOT,
            )
            killer = threading.Timer(max(self.deadline - monotonic(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            elapsed = self.rescaled(perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                message = err.read().decode(errors="replace").strip()
                print(f"unexpect {args[0]} exited {proc.returncode}: {message}",
                      file=sys.stderr)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    # -- reference ---------------------------------------------------

    def build_reference(self) -> Reference:
        w = self.workload
        spec = SourceSpec.from_dict({**w.spec, "seed": self.seed})
        _write(self.path("spec.json"), json.dumps(spec.to_dict()).encode())
        observations = list(generate(spec))

        code, _, _ = self.cli("simulate", "--spec", self.path("spec.json"),
                              "--out", self.path("events.jsonl"))
        events = _read(self.path("events.jsonl"))
        with open(self.path("events.jsonl"), encoding="utf-8") as fh:
            parsed = [obs for _, obs in read_events(fh)]
        self.check(code == 0 and parsed == observations,
                   "simulate output parses back to simgen.generate(spec)")
        if w.split:
            lines = events.splitlines(keepends=True)
            half = len(lines) // 2
            _write(self.path("head.jsonl"), b"".join(lines[:half]))
            _write(self.path("tail.jsonl"), b"".join(lines[half:]))
        _write(self.path("empty.jsonl"), b"")

        config = EngineConfig(**w.config)
        records = list(run_stream(observations, config))
        engine = Engine(config)
        self.check([engine.step(obs) for obs in observations] == records,
                   "Engine.step records equal run_stream records")

        problems = oracle.mismatches(records[:w.oracle_prefix], config)
        for problem in problems:
            print(f"oracle: {problem}", file=sys.stderr)
        self.check(not problems,
                   f"first {w.oracle_prefix} records match the naive reference")

        report = b""
        if w.emit == "jsonl":
            report = _report_bytes(divergences(
                trace_pair(records), tau=DIVERGENCE_TAU, normalize_mind=True))
        return Reference(
            observations=observations,
            records=records,
            events=events,
            trace=serialize(records, w.emit).encode(),
            snapshot=(engine.snapshot_json() + "\n").encode(),
            report=report,
        )

    # -- measured operations ------------------------------------------

    def setup_sample(self) -> float:
        """`track` on empty input, start to exit."""
        code, elapsed, _ = self.cli("track", "-i", self.path("empty.jsonl"),
                                    "-o", self.path("empty.out"),
                                    *self.workload.track_flags())
        expected = serialize([], self.workload.emit).encode()
        self.check(code == 0 and _read(self.path("empty.out")) == expected,
                   "track on empty input")
        return elapsed

    def pipeline_pass(self, ref: Reference) -> dict:
        """simulate -> track [-> replay] [-> divergence]; each stage checked."""
        w, p = self.workload, self.path
        code, simulate_s, _ = self.cli("simulate", "--spec", p("spec.json"),
                                       "--out", p("events.jsonl"))
        self.check(code == 0 and _read(p("events.jsonl")) == ref.events,
                   "simulate output repeats")
        replay_s, replay_rss = 0.0, 0.0
        if w.split:
            code, track_s, track_rss = self.cli(
                "track", "-i", p("head.jsonl"), "-o", p("head.trace"),
                *w.track_flags(), "--snapshot-out", p("head.snap"))
            self.check(code == 0, "track of the first half")
            code, replay_s, replay_rss = self.cli(
                "replay", "--snapshot", p("head.snap"), "-i", p("tail.jsonl"),
                "-o", p("tail.trace"), "--emit", w.emit,
                "--snapshot-out", p("final.snap"))
            # The second half's CSV header is dropped.
            trace = _read(p("head.trace")) + _read(p("tail.trace")).partition(b"\n")[2]
            self.check(code == 0 and trace == ref.trace
                       and _read(p("final.snap")) == ref.snapshot,
                       "track + replay trace and snapshot equal the whole-stream run")
        else:
            code, track_s, track_rss = self.cli(
                "track", "-i", p("events.jsonl"), "-o", p("trace"),
                *w.track_flags(), "--snapshot-out", p("final.snap"))
            self.check(code == 0 and _read(p("trace")) == ref.trace
                       and _read(p("final.snap")) == ref.snapshot,
                       "track trace and snapshot equal the in-process run")
        divergence_s = 0.0
        if w.emit == "jsonl":
            code, divergence_s, _ = self.cli(
                "divergence", "--from-trace", "--normalize-mind",
                "-i", p("trace"), "-o", p("report.json"))
            self.check(code == 0 and _read(p("report.json")) == ref.report,
                       "divergence report equals the in-process report")
        return {
            "simulate": simulate_s, "track": track_s, "replay": replay_s,
            "divergence": divergence_s, "rss": max(track_rss, replay_rss),
        }

    def engine_pass(self, ref: Reference) -> float:
        """Engine.step over pre-generated observations, no I/O."""
        engine = Engine(EngineConfig(**self.workload.config))
        step = engine.step
        observations = ref.observations
        gc.collect()
        start = perf_counter()
        records = [step(obs) for obs in observations]
        elapsed = self.rescaled(perf_counter() - start)
        self.check(records == ref.records, "Engine.step records repeat")
        return elapsed

    def layer_round(self, ref: Reference) -> dict:
        """One traced round: every layer timed on its own, outputs checked."""
        w = self.workload
        spec = SourceSpec.from_dict({**w.spec, "seed": self.seed})
        config = EngineConfig(**w.config)
        out = {}

        gc.collect()
        start = perf_counter()
        observations = list(generate(spec))
        out["simgen.busy_s"] = perf_counter() - start
        self.check(observations == ref.observations, "simgen.generate repeats")

        gc.collect()
        start = perf_counter()
        with open(self.path("events.jsonl"), encoding="utf-8") as fh:
            parsed = [obs for _, obs in read_events(fh)]
        out["memory.parse.busy_s"] = perf_counter() - start
        out["memory.parse.bytes"] = os.path.getsize(self.path("events.jsonl"))
        self.check(parsed == ref.observations, "read_events parses the events file")

        gc.collect()
        records, durations = layers.timed_steps(Engine(config), observations)
        self.check(records == ref.records, "untimed-layer records repeat")
        out["untraced_step_s"] = sum(durations)
        quantiles = statistics.quantiles(durations, n=100)
        out["engine.step.p50_us"] = quantiles[49] * 1e6
        out["engine.step.p99_us"] = quantiles[98] * 1e6

        engine = Engine(config)
        gc.collect()
        records, traced = layers.traced_pass(engine, observations)
        self.check(records == ref.records,
                   "traced records equal the untraced records")
        out.update(traced)

        gc.collect()
        start = perf_counter()
        text = serialize(records, w.emit)
        out["engine.serialize.busy_s"] = perf_counter() - start
        encoded = text.encode()
        out["engine.serialize.bytes"] = len(encoded)
        self.check(encoded == ref.trace, "serialized trace repeats")

        start = perf_counter()
        snapshot = engine.snapshot_json()
        out["engine.snapshot.write_s"] = perf_counter() - start
        start = perf_counter()
        restored = Engine.restore_json(snapshot)
        out["engine.snapshot.restore_s"] = perf_counter() - start
        out["engine.snapshot.bytes"] = len((snapshot + "\n").encode())
        self.check((snapshot + "\n").encode() == ref.snapshot
                   and restored.snapshot_json() == snapshot,
                   "snapshot repeats and survives a restore")

        pair = trace_pair(records)
        start = perf_counter()
        report = divergences(pair, tau=DIVERGENCE_TAU, normalize_mind=True)
        out["divergence.busy_s"] = perf_counter() - start
        out["divergence.support"] = len(pair.world.support)
        if w.emit == "jsonl":
            self.check(_report_bytes(report) == ref.report,
                       "divergences() repeats")

        stages = self.pipeline_pass(ref)
        out["cli.simulate_s"] = stages["simulate"]
        out["cli.track_s"] = stages["track"]
        out["cli.replay_s"] = stages["replay"]
        out["cli.divergence_s"] = stages["divergence"]
        return out


def serialize(records, emit: str) -> str:
    """The trace text `unexpect track --emit <emit>` writes for these records."""
    if emit == "csv":
        return TRACE_CSV_HEADER + "\n" + "".join(trace_to_csv(r) + "\n" for r in records)
    return "".join(trace_to_jsonl(r) + "\n" for r in records)


def trace_pair(records):
    """The world/mind pair `divergence --from-trace` reads from a trace.

    World: empirical symbol frequencies. Mind: each symbol's last c_ltm,
    at the six decimals the trace carries.
    """
    counts = Counter(r.symbol for r in records)
    last_c_ltm = {r.symbol: float(f"{r.c_ltm:.6f}")
                  for r in records if math.isfinite(r.c_ltm)}
    support = tuple(sorted(counts))
    world = DiscreteDistribution(
        support, tuple(counts[s] / len(records) for s in support))
    mind = CodeLengthTable(support, tuple(last_c_ltm[s] for s in support))
    return MachinePair(world, mind)


def _report_bytes(report) -> bytes:
    """The report `unexpect divergence` writes as JSON."""
    return (json.dumps(report.to_dict()) + "\n").encode()


def _git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _src_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "unexpect")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + _read(os.path.join(package, name)))
    return digest.hexdigest()


def measure_end_to_end(bench: Bench, ref: Reference, seconds: float) -> dict:
    samples = defaultdict(list)
    bench.speed = hostspeed.HostSpeed()
    end = monotonic() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or monotonic() < end:
        for _ in range(ENGINE_PASSES_PER_ROUND):
            samples["engine"].append(bench.engine_pass(ref))
        for stage, value in bench.pipeline_pass(ref).items():
            samples[stage].append(value)
        for _ in range(SETUP_SAMPLES_PER_ROUND):
            samples["setup"].append(bench.setup_sample())
        rounds += 1
    loops = bench.speed.loops
    bench.speed = None
    print(f"# rounds={rounds} host_loop_s: median={statistics.median(loops):.4f} "
          f"min={min(loops):.4f} max={max(loops):.4f} "
          f"reference={hostspeed.REFERENCE_S}")
    mid = {name: statistics.median(values) for name, values in samples.items()}
    scoring_s = mid["track"] + mid["replay"]
    n = len(ref.observations)
    return {
        "track_eps": n / scoring_s,
        "pipeline_eps": n / (mid["simulate"] + scoring_s + mid["divergence"]),
        "engine_eps": n / mid["engine"],
        "setup_s": mid["setup"],
        "peak_rss_mb": mid["rss"],
        "snapshot_bytes": len(ref.snapshot),
    }


def measure_layers(bench: Bench, ref: Reference, seconds: float) -> dict:
    rounds = []
    end = monotonic() + seconds
    while len(rounds) < MIN_ROUNDS or monotonic() < end:
        rounds.append(bench.layer_round(ref))
    print(f"# rounds={len(rounds)}")
    m = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if isinstance(values[0], int):  # exact counts must repeat
            bench.check(len(set(values)) == 1, f"{name} repeats: {values}")
            m[name] = values[0]
        else:
            m[name] = min(values)
    n = len(ref.observations)
    for layer in ("memory.parse", "memory.stack", "engine.serialize", "simgen"):
        m[f"{layer}.ns_per_event"] = m[f"{layer}.busy_s"] / n * 1e9
    m["cli.overhead_s"] = m["cli.track_s"] + m["cli.replay_s"] - (
        m["memory.parse.busy_s"] + m["untraced_step_s"] + m["engine.serialize.busy_s"])
    m["trace.overhead"] = m["engine.step.busy_s"] / m["untraced_step_s"]
    return {name: m[name] for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(unexpect.__file__)) != os.path.join(SRC, "unexpect"):
        print(f"error: imported unexpect from {unexpect.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so that the running subprocess
    # is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for this process and every subprocess, so that the
    # reference loop of hostspeed.py runs where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = monotonic()
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp,
                      deadline=started + HARD_LIMIT_S)
        print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
              f"seconds={args.seconds:g}")
        print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
              f"git_rev={_git_rev()} src_sha256={_src_digest()}")
        ref = bench.build_reference()
        novelties = sum(r.novelty for r in ref.records)
        flagged = sum(r.change_flag for r in ref.records)
        print(f"# events={len(ref.records)} novelties={novelties} "
              f"flagged_events={flagged} snapshot_bytes={len(ref.snapshot)} "
              f"trace_sha256={_sha256(ref.trace)}")
        if args.trace:
            metrics = measure_layers(bench, ref, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics = measure_end_to_end(bench, ref, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run still uses it

    failed = len(bench.failures)
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:32} {shown:>16} {units[name]}")
    print(f"{'failed_share':32} {failed / bench.attempted:>16.6g} ratio")
    print(f"# elapsed={monotonic() - started:.1f}s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
