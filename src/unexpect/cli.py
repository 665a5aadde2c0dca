"""Command-line entry point.

One binary, five subcommands, all composable through pipes:

    unexpect simulate   spec.json -> events.jsonl
    unexpect track      events.jsonl -> trace (jsonl or csv)
    unexpect replay     snapshot + remaining events -> trace
    unexpect explain    causal graph or Bayes model -> explanation
    unexpect divergence world + mind tables (or a trace) -> report

Every subcommand reads standard input when no path is given and writes
standard output; diagnostics go to standard error only. Exit codes:
0 success, 1 invalid flags (the message names the flag), 2 bad data
(the message names the line). Output files are written to a temp file
and renamed into place so failures never leave partial files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import stat
import sys
import tempfile
from collections import Counter, deque
from json.encoder import encode_basestring_ascii
from typing import IO, Iterator, Optional, Sequence

from . import estimators
from .core import (
    CodeLengthTable,
    DiscreteDistribution,
    UnexpectError,
    ValidationError,
)
from .engine import (
    TRACE_CSV_HEADER,
    _JSONL_PATTERN,
    Engine,
    EngineConfig,
    _csv_field,
    trace_to_csv,
    trace_to_jsonl,
)
from .estimators import is_stable
from .memory import _decode_json_line, read_events


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail_flag(message: str) -> "_Exit":
    return _Exit(1, message)


def _fail_data(message: str) -> "_Exit":
    return _Exit(2, message)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; the contract here is 1."""

    def error(self, message):
        raise _fail_flag(message)


@contextlib.contextmanager
def _open_output(path: Optional[str], flag: str) -> Iterator[IO[str]]:
    """Stdout passthrough; in-place writes to an existing FIFO or device;
    atomic write-then-rename for regular files and new paths. A path that
    cannot be opened or replaced exits 1 naming `flag`."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()
        return

    def unwritable(exc: OSError) -> _Exit:
        return _fail_flag(f"{flag}: cannot write {path}: {exc.strerror}")

    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # a new path
        in_place = False
    if in_place:
        # Renaming over a FIFO or a device would replace it with a file.
        try:
            fh = open(path, "w", encoding="utf-8")
        except OSError as exc:  # e.g. a directory
            raise unwritable(exc) from None
        with fh:
            yield fh
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".unexpect-",
                                   suffix=".tmp")
    except OSError as exc:  # e.g. a missing directory
        raise unwritable(exc) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise unwritable(exc) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _open_input(path: Optional[str]) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdin
        return
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise _fail_data(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _read_json_file(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _decode_json_line(fh.read())
    except OSError as exc:
        raise _fail_data(f"cannot read {what} {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise _fail_data(f"{what} {path}: invalid JSON at line {exc.lineno}") from None
    except ValidationError as exc:  # an integer int() refuses
        raise _fail_data(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise _fail_data(f"{what} {path}: expected a JSON object")
    return obj


# -- track / replay ----------------------------------------------------

_FLAG_RANGES = {
    "alpha": ("--alpha", "(0, 1) exclusive"),
    "window": ("--window", "a positive integer"),
    "beta": ("--beta", "(0, 1) exclusive"),
    "theta": ("--theta", "a finite positive number"),
    "min_hits": ("--min-hits", "a positive integer"),
    "capacity": ("--capacity", "a positive integer"),
    "epsilon": ("--epsilon", "'auto', 'off', or a float in [0, 1)"),
    "estimator": ("--estimator", "'iir' or 'fir'"),
    "warmup": ("--warmup", "'auto' or a nonnegative integer"),
}


def _build_config(args: argparse.Namespace) -> EngineConfig:
    """Merge config file values under explicit flags, then validate."""
    merged = EngineConfig().to_dict()
    if args.config is not None:
        file_cfg = _read_json_file(args.config, "config file")
        unknown = set(file_cfg) - set(merged)
        if unknown:
            raise _fail_flag(f"--config: unknown key(s) {sorted(unknown)}")
        merged.update(file_cfg)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    def bad(key):
        flag, rng = _FLAG_RANGES[key]
        return _fail_flag(f"{flag} must be {rng}, got {merged[key]!r}")

    def typed(key, kind):
        """merged[key] if it is a `kind`; a bool never counts as a number."""
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise bad(key)
        return value

    real = (int, float)
    if merged["estimator"] not in ("iir", "fir"):
        raise bad("estimator")
    alpha, window = typed("alpha", real), typed("window", int)
    if merged["estimator"] == "iir" and not 0.0 < alpha < 1.0:
        raise bad("alpha")
    if merged["estimator"] == "fir" and window < 1:
        raise bad("window")
    if merged["epsilon"] not in (estimators.EPSILON_AUTO, estimators.EPSILON_OFF):
        if isinstance(merged["epsilon"], bool):
            raise bad("epsilon")
        try:
            merged["epsilon"] = float(merged["epsilon"])
        except (TypeError, ValueError):
            raise bad("epsilon") from None
        if not 0.0 <= merged["epsilon"] < 1.0:
            raise bad("epsilon")
    if not 0.0 < typed("beta", real) < 1.0:
        raise bad("beta")
    if not 0.0 < typed("theta", real) < math.inf:  # also rejects NaN
        raise bad("theta")
    if typed("min_hits", int) < 1:
        raise bad("min_hits")
    if merged["warmup"] != "auto":
        if isinstance(merged["warmup"], (bool, float)):
            raise bad("warmup")
        try:
            merged["warmup"] = int(merged["warmup"])
        except (TypeError, ValueError):
            raise bad("warmup") from None
        if merged["warmup"] < 0:
            raise bad("warmup")
    if merged["capacity"] is not None and typed("capacity", int) < 1:
        raise bad("capacity")
    if not isinstance(merged["prune"], bool):
        raise _fail_flag(f"--config: prune must be true or false, got {merged['prune']!r}")
    return EngineConfig.from_dict(merged)


def _explicit_config_flags(args: argparse.Namespace) -> list[str]:
    given = []
    for key, (flag, _) in _FLAG_RANGES.items():
        if getattr(args, key, None) is not None:
            given.append(flag)
    if getattr(args, "config", None) is not None:
        given.append("--config")
    return given


def _run_engine_over(
    engine: Engine,
    lines: IO[str],
    emit: str,
    out: IO[str],
    stability: Optional[tuple[int, float]] = None,
) -> None:
    """Read, score and write one event at a time."""
    write = out.write
    if emit == "csv":
        write(TRACE_CSV_HEADER + "\n")
        to_line = trace_to_csv
    else:
        to_line = trace_to_jsonl
    step = engine.step
    histories: dict[str, deque] = {}
    try:
        for lineno, obs in read_events(lines):
            try:
                record = step(obs)
            except UnexpectError as exc:
                raise _fail_data(f"line {lineno}: {exc}") from None
            if stability is not None:
                histories.setdefault(obs.symbol, deque(maxlen=stability[0])).append(
                    engine.estimator.w(obs.symbol)
                )
            try:
                write(to_line(record) + "\n")
            except UnicodeEncodeError as exc:  # e.g. a lone surrogate in CSV
                raise _fail_data(f"line {lineno}: cannot write symbol "
                                 f"{obs.symbol!r}: {exc.reason}") from None
    except ValidationError as exc:
        raise _fail_data(str(exc)) from None
    if stability is not None:
        window, delta = stability
        unstable = sorted(
            sym for sym, hist in histories.items()
            if len(hist) >= window and not is_stable(list(hist), window, delta)
        )
        print(
            f"ltm stability over last {window} updates (delta={delta}): "
            + (f"unstable symbols: {', '.join(unstable)}" if unstable else "all stable"),
            file=sys.stderr,
        )


def _save_snapshot(engine: Engine, path: str) -> None:
    with _open_output(path, "--snapshot-out") as fh:
        fh.write(engine.snapshot_json() + "\n")


def _load_snapshot(path: str) -> Engine:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _fail_data(f"cannot read snapshot {path}: {exc.strerror}") from None
    try:
        return Engine.restore_json(text)
    except UnexpectError as exc:
        raise _fail_data(f"snapshot {path}: {exc}") from None


def _cmd_track(args: argparse.Namespace) -> int:
    stability = None
    if (args.stability_m is None) != (args.stability_delta is None):
        raise _fail_flag("--stability-m and --stability-delta go together")
    if args.stability_m is not None:
        if args.stability_m < 1:
            raise _fail_flag(f"--stability-m must be >= 1, got {args.stability_m}")
        if not 0.0 <= args.stability_delta < math.inf:  # also rejects NaN
            raise _fail_flag(
                f"--stability-delta must be finite and >= 0, got {args.stability_delta}"
            )
        stability = (args.stability_m, args.stability_delta)

    if args.snapshot_in is not None:
        engine = _load_snapshot(args.snapshot_in)
        conflicting = _explicit_config_flags(args)
        if conflicting:
            raise _fail_flag(
                f"{', '.join(conflicting)}: configuration is baked into the "
                "snapshot; use plain `track --snapshot-in` or `replay`"
            )
    else:
        engine = Engine(_build_config(args))

    with _open_input(args.input) as lines, _open_output(args.output, "--output") as out:
        _run_engine_over(engine, lines, args.emit, out, stability)
    if args.snapshot_out is not None:
        _save_snapshot(engine, args.snapshot_out)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    engine = _load_snapshot(args.snapshot)
    with _open_input(args.input) as lines, _open_output(args.output, "--output") as out:
        _run_engine_over(engine, lines, args.emit, out)
    if args.snapshot_out is not None:
        _save_snapshot(engine, args.snapshot_out)
    return 0


# -- explain -----------------------------------------------------------

def _cmd_explain(args: argparse.Namespace) -> int:
    from . import causal

    if (args.graph is None) == (args.bayes is None):
        raise _fail_flag("exactly one of --graph or --bayes is required")
    if args.graph is not None:
        if args.cd is None:
            raise _fail_flag("--cd is required with --graph")
        obj = _read_json_file(args.graph, "graph file")
        try:
            graph = causal.CausalGraph.from_dict(obj)
        except UnexpectError as exc:
            raise _fail_data(f"graph file {args.graph}: {exc}") from None
        c_d = args.cd
    else:
        obj = _read_json_file(args.bayes, "model file")
        try:
            causes = obj["causes"]
            priors = {k: float(v["prior"]) for k, v in causes.items()}
            likelihoods = {k: float(v["likelihood"]) for k, v in causes.items()}
            evidence = float(obj["evidence"])
            observation = obj.get("observation", args.target)
        except (KeyError, TypeError, ValueError) as exc:
            raise _fail_data(f"model file {args.bayes}: malformed: {exc}") from None
        try:
            graph, c_d = causal.from_probabilities(
                priors, likelihoods, evidence, observation
            )
        except UnexpectError as exc:
            raise _fail_data(f"model file {args.bayes}: {exc}") from None

    try:
        explanation = graph.explain(args.target, c_d)
    except UnexpectError as exc:
        raise _fail_data(str(exc)) from None
    result = {
        "target": explanation.target,
        "best_cause": explanation.best_cause,
        "chain": list(explanation.chain),
        "generation_cost_bits": explanation.generation_cost,
        "c_d_bits": explanation.c_d,
        "u_raw_bits": explanation.u_raw,
        "u_clamped_bits": explanation.u_clamped,
        "posterior": 2.0 ** -explanation.u_raw,
    }
    with _open_output(args.output, "--output") as out:
        out.write(json.dumps(result) + "\n")
    return 0


# -- divergence --------------------------------------------------------

def _pair_from_trace(lines: IO[str], world: Optional[DiscreteDistribution]):
    """World = empirical symbol frequencies, mind = last seen c_ltm."""
    counts: Counter[str] = Counter()
    last_c_ltm: dict[str, float] = {}
    total = 0
    # A line as trace_to_jsonl writes it is one match; any other takes
    # the JSON path. Compiled here, so that no other command pays for it.
    canonical = re.compile(_JSONL_PATTERN).fullmatch
    for lineno, line in enumerate(lines, 1):
        match = canonical(line)
        if match is not None:
            symbol, c_ltm = match.groups()
            if c_ltm is not None:
                c_ltm = float(c_ltm)
        elif not line.strip():
            continue
        else:
            try:
                obj = _decode_json_line(line)
                symbol = obj["symbol"]
                c_ltm = obj["c_ltm"]
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValidationError) as exc:
                raise _fail_data(
                    f"line {lineno}: not a trace record: {exc}") from None
        if not isinstance(symbol, str):
            raise _fail_data(f'line {lineno}: "symbol" must be a string, got {symbol!r}')
        if c_ltm is not None and (
            isinstance(c_ltm, bool) or not isinstance(c_ltm, (int, float))
            or not 0.0 <= c_ltm <= sys.float_info.max  # also rejects NaN
        ):
            raise _fail_data(
                f'line {lineno}: "c_ltm" must be null or a finite number >= 0, '
                f"got {c_ltm!r}"
            )
        counts[symbol] += 1
        total += 1
        if c_ltm is not None:
            last_c_ltm[symbol] = float(c_ltm)
    if not total:
        raise _fail_data("empty trace: nothing to report on")
    if world is None:
        support = tuple(sorted(counts))
        world = DiscreteDistribution(
            support, tuple(counts[s] / total for s in support)
        )
    missing = [s for s in world.support if s not in last_c_ltm]
    if missing:
        raise _fail_data(
            f"trace carries no description cost for symbol(s): {missing}"
        )
    mind = CodeLengthTable(
        world.support, tuple(last_c_ltm[s] for s in world.support)
    )
    from .divergence import MachinePair

    return MachinePair(world, mind)


def _cmd_divergence(args: argparse.Namespace) -> int:
    from .divergence import MachinePair, divergences

    if not 0.0 < args.tau < math.inf:  # also rejects NaN
        raise _fail_flag(f"--tau must be finite and > 0, got {args.tau}")
    if args.from_trace:
        if args.mind is not None:
            raise _fail_flag("--mind cannot be combined with --from-trace")
        world = None
        if args.world is not None:
            world = _load_table(args.world, "world file", DiscreteDistribution,
                                "mass")
        with _open_input(args.input) as lines:
            pair = _pair_from_trace(lines, world)
    else:
        if args.world is None or args.mind is None:
            raise _fail_flag("--world and --mind are required (or use --from-trace)")
        world = _load_table(args.world, "world file", DiscreteDistribution, "mass")
        mind = _load_table(args.mind, "mind file", CodeLengthTable, "bits")
        try:
            pair = MachinePair(world, mind)
        except UnexpectError as exc:
            raise _fail_data(str(exc)) from None

    try:
        report = divergences(pair, tau=args.tau, normalize_mind=args.normalize_mind)
    except UnexpectError as exc:
        raise _fail_data(str(exc)) from None

    with _open_output(args.output, "--output") as out:
        payload = report.to_dict()
        if args.emit == "csv":
            def render(v):
                if v is None:
                    return "inf"
                if isinstance(v, float):
                    return repr(v)
                return str(v)

            out.write("field,value\n")
            for key in ("h", "v", "v_hat", "v_star", "d", "d_wrel", "d_abs", "d_drel"):
                out.write(f"{key},{render(payload[key])}\n")
            for sym, u in zip(payload["symbols"], payload["u"]):
                try:
                    out.write(f"{_csv_field(f'u.{sym}')},{render(u)}\n")
                except UnicodeEncodeError as exc:  # e.g. a lone surrogate
                    raise _fail_data(
                        f"cannot write symbol {sym!r}: {exc.reason}") from None
            for key in ("unsound", "incomplete"):
                out.write(f"{key},{_csv_field(';'.join(payload[key]))}\n")
        else:
            out.write(json.dumps(payload) + "\n")
    return 0


def _load_table(path: str, what: str, cls, values: str):
    """A {"symbols": [str, ...], values: [number, ...]} file as `cls`;
    anything else exits 2 naming the file."""
    obj = _read_json_file(path, what)
    try:
        symbols = tuple(obj["symbols"])
        for symbol in symbols:
            if not isinstance(symbol, str):
                raise _fail_data(
                    f'{what} {path}: "symbols" must be strings, got {symbol!r}')
        return cls(symbols, tuple(obj[values]))
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail_data(f"{what} {path}: malformed: {exc}") from None
    except UnexpectError as exc:
        raise _fail_data(f"{what} {path}: {exc}") from None


# -- simulate ----------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simgen

    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = simgen.SourceSpec.from_json(fh.read())
    except OSError as exc:
        raise _fail_data(f"cannot read spec {args.spec}: {exc.strerror}") from None
    except UnexpectError as exc:
        raise _fail_data(f"spec {args.spec}: {exc}") from None
    if args.dist_out is not None:
        try:
            dist = simgen.stationary_distribution(spec)
        except UnexpectError as exc:
            raise _fail_flag(f"--dist-out: {exc}") from None
        with _open_output(args.dist_out, "--dist-out") as fh:
            fh.write(dist.to_json() + "\n")
    with _open_output(args.out, "--out") as out:
        for obs in simgen.generate(spec):
            # encode_basestring_ascii is what json.dumps does with a str.
            out.write('{"t": %d, "s": %s}\n'
                      % (obs.t, encode_basestring_ascii(obs.symbol)))
    return 0


# -- parser ------------------------------------------------------------

def _make_parser() -> _Parser:
    parser = _Parser(prog="unexpect", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, emit_choices=("jsonl", "csv")):
        p.add_argument("--input", "-i", default=None, help="input path (default stdin)")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        if emit_choices:
            p.add_argument("--emit", choices=emit_choices, default=emit_choices[0])

    track = sub.add_parser("track", help="score an event stream")
    add_io(track)
    track.add_argument("--estimator", choices=("iir", "fir"), default=None)
    track.add_argument("--alpha", type=float, default=None)
    track.add_argument("--window", type=int, default=None)
    track.add_argument("--epsilon", default=None, help="'auto', 'off', or a float")
    track.add_argument("--beta", type=float, default=None)
    track.add_argument("--theta", type=float, default=None)
    track.add_argument("--min-hits", dest="min_hits", type=int, default=None)
    track.add_argument("--warmup", default=None, help="'auto' or an event count")
    track.add_argument("--capacity", type=int, default=None)
    track.add_argument("--config", default=None, help="JSON config merged under flags")
    track.add_argument("--snapshot-out", default=None)
    track.add_argument("--snapshot-in", default=None)
    track.add_argument("--stability-m", type=int, default=None)
    track.add_argument("--stability-delta", type=float, default=None)
    track.set_defaults(func=_cmd_track)

    replay = sub.add_parser("replay", help="continue a run from a snapshot")
    add_io(replay)
    replay.add_argument("--snapshot", required=True)
    replay.add_argument("--snapshot-out", default=None)
    replay.set_defaults(func=_cmd_replay)

    explain = sub.add_parser("explain", help="best-cause explanation of a situation")
    explain.add_argument("--graph", default=None, help="causal graph JSON file")
    explain.add_argument("--bayes", default=None, help="probabilistic model JSON file")
    explain.add_argument("--target", required=True)
    explain.add_argument("--cd", type=float, default=None,
                         help="description cost of the target, in bits")
    explain.add_argument("--output", "-o", default=None)
    explain.set_defaults(func=_cmd_explain)

    div = sub.add_parser("divergence", help="world-vs-mind divergence report")
    add_io(div, emit_choices=("json", "csv"))
    div.add_argument("--world", default=None, help="distribution JSON file")
    div.add_argument("--mind", default=None, help="code-length JSON file")
    div.add_argument("--from-trace", action="store_true",
                     help="build the pair from a trace on input")
    div.add_argument("--normalize-mind", action="store_true")
    div.add_argument("--tau", type=float, default=2.0)
    div.set_defaults(func=_cmd_divergence)

    sim = sub.add_parser("simulate", help="generate a synthetic event stream")
    sim.add_argument("--spec", required=True, help="source spec JSON file")
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.add_argument("--dist-out", default=None,
                     help="also write the generating distribution (stationary/zipf)")
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0
    except UnexpectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
