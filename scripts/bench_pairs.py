#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised per metric.

Example:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workload shift4-iir --pairs 10 --seconds 35 --first-seed 9801

PARENT_DIR and CHANGE_DIR are two source checkouts. Pair i runs the
benchmark command of BENCHMARK.json (``bench/run.py``) with ``--trace 0``
once in each checkout on seed K + i, the parent first in even pairs and
the change first in odd ones. For every end-to-end metric of
BENCHMARK.json it then prints each side's median and quartiles and the
pairs each side won under the metric's ``better`` direction; a tie
counts for neither. The claim column says whether a gain may be claimed:
over at least ten pairs the change wins at least nine tenths of them,
and its median is better than the parent's by more than the parent's
interquartile range. The verdict column says whether the metric stayed
within the ``bound`` BENCHMARK.json gives it, as a share of the parent's
median: ``unresolved`` when the parent's interquartile range is wider
than that, unless every change run beats every parent run (``ok``);
else ``worse`` when the change's median is worse than the parent's by
more than that; else ``ok``. Every run's metrics are printed as it ends.

Each run has PYTHONDONTWRITEBYTECODE=1 in its environment, so that no
run leaves a bytecode cache for the next; a checkout that already holds
one (src/unexpect/__pycache__) would skip compiling the package, which
moves setup_s and track_eps, so it is refused.

Exits 1 if any run exits non-zero, prints no result or reports failed
checks, and 2 if the two checkouts define different benchmarks or either
holds a bytecode cache of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), interpolated between
    the values as spreadsheets do."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric over pairs: parent[i] and change[i] ran on one seed;
    bound is the share of the parent's median it may worsen by."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    pairs = len(parent)
    gain = sign * (c_median - p_median)
    allowed = bound * abs(p_median)
    if p_q3 - p_q1 > allowed:
        beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
        verdict = "ok" if beats_all else "unresolved"
    else:
        verdict = "worse" if -gain > allowed else "ok"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "pairs": pairs,
        "wins": wins,
        "losses": losses,
        "gain": gain,
        "parent_iqr": p_q3 - p_q1,
        "claim": (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
                  and gain > p_q3 - p_q1),
        "verdict": verdict,
    }


def run_once(checkout: str, command: list, workload: str, seed: int,
             seconds: float) -> tuple:
    """(metrics, failed) of one benchmark run; failed is None when the
    run exited non-zero or printed no result."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {}, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stderr)
        return {}, None
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, result["failed"]


def refuse_bytecode_cache(checkouts) -> bool:
    """True, with a message, if a checkout holds a bytecode cache of the
    package: a run would then skip compiling it, which a start without one
    pays."""
    for checkout in checkouts:
        cache = os.path.join(checkout, "src", "unexpect", "__pycache__")
        if os.path.isdir(cache):
            print(f"error: {cache} exists; the benchmark runs with no "
                  "bytecode cache, so delete it", file=sys.stderr)
            return True
    return False


def _load_benchmark(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    benchmark = _load_benchmark(args.parent_dir)
    if _load_benchmark(args.change_dir) != benchmark:
        print("error: the two checkouts have different BENCHMARK.json files",
              file=sys.stderr)
        return 2
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    if refuse_bytecode_cache(sides.values()):
        return 2
    values = {side: [] for side in sides}
    any_failed = False
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, failed = run_once(sides[side], benchmark["command"],
                                       args.workload, seed, args.seconds)
            shown = " ".join(f"{name}={_fmt(value)}"
                             for name, value in metrics.items())
            print(f"# pair {i + 1} seed {seed} {side}: failed={failed} {shown}",
                  flush=True)
            any_failed |= failed != 0
            values[side].append(metrics)

    print(f"# workload={args.workload} pairs={args.pairs} "
          f"seconds={args.seconds:g} seeds={args.first_seed}.."
          f"{args.first_seed + args.pairs - 1}")
    print(f"{'metric':16} {'better':6} {'parent q1/median/q3':34} "
          f"{'change q1/median/q3':34} {'won':>7} {'lost':>7} "
          f"{'gain':>10} {'parent_iqr':>10} claim verdict")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [m.get(name) for m in values["parent"]]
        change = [m.get(name) for m in values["change"]]
        if None in parent or None in change:
            print(f"{name:16} missing from a run")
            any_failed = True
            continue
        s = summarize(parent, change, metric["better"], metric["bound"])
        print(f"{name:16} {metric['better']:6} "
              f"{'/'.join(map(_fmt, s['parent'])):34} "
              f"{'/'.join(map(_fmt, s['change'])):34} "
              f"{s['wins']:>3}/{s['pairs']:<3} {s['losses']:>3}/{s['pairs']:<3} "
              f"{_fmt(s['gain']):>10} {_fmt(s['parent_iqr']):>10} "
              f"{'yes' if s['claim'] else 'no':5} {s['verdict']}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
