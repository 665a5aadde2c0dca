#!/usr/bin/env python3
"""Wall time of one `unexpect` process, split into four phases.

Example:

    python3 scripts/cli_phases.py PARENT_DIR CHANGE_DIR 20 \\
        track --input /dev/null --output /dev/null

Runs the command RUNS times on the package in each checkout's src,
alternating which checkout runs first, and prints per phase each side's
first quartile, median and third quartile in ms:

* start: from the spawn to the first line of the entry, which is the
  interpreter and its `site`;
* import: ``from unexpect.cli import main``;
* main: the call of ``main()``;
* exit: from main's return to ``os.wait4`` in this script, which is the
  interpreter's teardown;
* total: from the spawn to ``os.wait4``.

The entry is what ``bench/run.py`` runs as `unexpect`,
``sys.exit(main())``, with the clock read between its lines. The child
and this script read one clock, ``time.monotonic``, which on Linux is
system-wide. The child reports its readings on a pipe as main returns.

The command runs in the current directory with /dev/null as its
standard input and output (name files with --input and --output); its
standard error is this script's. Each run has PYTHONDONTWRITEBYTECODE=1
in its environment, so every start compiles the package, as in
``scripts/bench_pairs.py``; a checkout that holds a bytecode cache is
refused.

Exits 1 if a run exits non-zero, and 2 if a checkout holds a bytecode
cache of the package.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from bench_pairs import quartiles, refuse_bytecode_cache

PHASES = ("start", "import", "main", "exit", "total")

# bench/run.py's `unexpect`, with the clock read between its lines. The
# readings go to the file descriptor given as {fd}.
CLI_ENTRY = """\
import os, sys, time
started = time.monotonic()
from unexpect.cli import main
imported = time.monotonic()
try:
    sys.exit(main())
finally:
    os.write({fd}, b"%r %r %r" % (started, imported, time.monotonic()))
"""


def run_once(src: str, command: list) -> tuple:
    """(exit code, {phase: seconds}) of one run of the command."""
    read, write = os.pipe()
    os.set_inheritable(write, True)
    null = os.open(os.devnull, os.O_RDWR)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", CLI_ENTRY.format(fd=write), *command]
    try:
        spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, null, 0), (os.POSIX_SPAWN_DUP2, null, 1)])
        _, status, _ = os.wait4(pid, 0)
        reaped = time.monotonic()
    finally:
        os.close(write)
        os.close(null)
    with os.fdopen(read, "rb") as fh:
        report = fh.read().split()
    code = os.waitstatus_to_exitcode(status)
    if len(report) != 3:  # the child ended before main returned
        return code or 1, {}
    started, imported, returned = map(float, report)
    return code, {
        "start": started - spawned,
        "import": imported - started,
        "main": returned - imported,
        "exit": reaped - returned,
        "total": reaped - spawned,
    }


def _fmt(values: list) -> str:
    return "/".join(f"{1000 * v:.2f}" for v in quartiles(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("runs", type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="an unexpect command line, e.g. track --input F")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("runs must be >= 1")
    if not args.command:
        parser.error("give an unexpect command line")
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    if refuse_bytecode_cache(sides.values()):
        return 2
    times = {side: {phase: [] for phase in PHASES} for side in sides}
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            src = os.path.join(os.path.abspath(sides[side]), "src")
            code, phases = run_once(src, args.command)
            if code != 0:
                print(f"error: unexpect {args.command[0]} exited {code} "
                      f"in {sides[side]}", file=sys.stderr)
                return 1
            for phase, seconds in phases.items():
                times[side][phase].append(seconds)
    print(f"unexpect {' '.join(args.command)}: ms per phase over "
          f"{args.runs} alternating runs, q1/median/q3")
    print(f"{'phase':8} {'parent':24} change")
    for phase in PHASES:
        print(f"{phase:8} {_fmt(times['parent'][phase]):24} "
              f"{_fmt(times['change'][phase])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
