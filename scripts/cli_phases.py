#!/usr/bin/env python3
"""Wall time per phase and peak RSS of one `unexpect` process.

Example:

    python3 scripts/cli_phases.py PARENT_DIR CHANGE_DIR 20 \\
        track --input /dev/null --output /dev/null

Runs the command RUNS times on the package in each checkout's src,
alternating which checkout runs first, and prints per row each side's
first quartile, median and third quartile; to measure one checkout,
give it as both. The time rows are in ms:

* start: from the fork to the first line of the entry, which is the
  exec, the interpreter and its `site`;
* import: ``from unexpect.cli import main``;
* main: the call of ``main()``;
* exit: from main's return to ``os.wait4``, which is the interpreter's
  teardown;
* total: from the fork to ``os.wait4``;

peak_mb is the process's ``ru_maxrss`` from ``os.wait4``, in KB,
over 1024, as ``bench/run.py`` reports ``peak_rss_mb``; and lines is
the count of source lines (newlines) of the package's modules that the
run had loaded when main returned, counted in the checkout's src: what
the start compiled.

The entry is what ``bench/run.py`` runs as `unexpect`,
``sys.exit(main())``, with the clock, ``time.monotonic``, read between
its lines and reported on a pipe as main returns, together with the
names of the loaded modules. A child's peak starts at the RSS of the
process that forked it, so each run is forked and timed not by this
script but by a small launcher, ``python3 -S`` importing only os, sys
and time. Before each run it forks a child that exits at once; the
largest peak of these is the floor.

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
import subprocess
import sys

from bench_pairs import quartiles, refuse_bytecode_cache

ROWS = ("start", "import", "main", "exit", "total", "peak_mb", "lines")

# bench/run.py's `unexpect`, with the clock read between its lines. The
# readings, then the names of the package's modules loaded, go to the
# file descriptor given as {fd}.
CLI_ENTRY = """\
import os, sys, time
started = time.monotonic()
from unexpect.cli import main
imported = time.monotonic()
try:
    sys.exit(main())
finally:
    returned = time.monotonic()
    loaded = [m for m in sys.modules if m.split(".")[0] == "unexpect"]
    os.write({fd}, " ".join([*map(repr, (started, imported, returned)), *loaded]).encode())
"""

# Forks a child that exits at once, then the command; prints the command's
# exit code, the clock at its fork and reaping, and both peaks in KB.
LAUNCHER = """\
import os, sys, time
null = os.open(os.devnull, os.O_RDWR)
def run(argv):
    pid = os.fork()
    if pid == 0:
        try:
            if argv:
                os.dup2(null, 0)
                os.dup2(null, 1)
                os.execv(sys.executable, [sys.executable, "-c", *argv])
        finally:
            os._exit(127 if argv else 0)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss
floor = run(None)[1]
forked = time.monotonic()
code, peak = run(sys.argv[1:])
print(code, repr(forked), repr(time.monotonic()), peak, floor)
"""


def source_lines(src: str, modules: list) -> int:
    """The lines of the source files under `src` of the named modules."""
    total = 0
    for module in modules:
        path = os.path.join(src, *module.split("."))
        if os.path.isdir(path):
            path = os.path.join(path, "__init__")
        with open(path + ".py", "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(src: str, command: list) -> tuple:
    """(exit code, {row: ms, MB or lines}, the launcher's floor in MB) of
    one run of the command."""
    read, write = os.pipe()
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    with os.fdopen(read, "rb") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, "-S", "-c", LAUNCHER,
                 CLI_ENTRY.format(fd=write), *command], env=env,
                pass_fds=(write,), stdout=subprocess.PIPE, text=True,
                check=True)
        finally:
            os.close(write)
        report = fh.read().decode().split()
    code, forked, reaped, peak, floor = map(float, proc.stdout.split())
    if len(report) < 3:  # the child ended before main returned
        return int(code) or 1, {}, floor / 1024
    started, imported, returned = map(float, report[:3])
    return int(code), {
        "start": 1000 * (started - forked),
        "import": 1000 * (imported - started),
        "main": 1000 * (returned - imported),
        "exit": 1000 * (reaped - returned),
        "total": 1000 * (reaped - forked),
        "peak_mb": peak / 1024,
        "lines": source_lines(src, report[3:]),
    }, floor / 1024


def _fmt(values: list, row: str) -> str:
    digits = 0 if row == "lines" else 2
    return "/".join(f"{v:.{digits}f}" for v in quartiles(values))


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
    values = {side: {row: [] for row in ROWS} for side in sides}
    floor = 0.0
    for i in range(args.runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            src = os.path.join(os.path.abspath(sides[side]), "src")
            code, rows, launcher = run_once(src, args.command)
            if code != 0:
                print(f"error: unexpect {args.command[0]} exited {code} "
                      f"in {sides[side]}", file=sys.stderr)
                return 1
            for row, value in rows.items():
                values[side][row].append(value)
            floor = max(floor, launcher)
    print(f"unexpect {' '.join(args.command)}: ms per phase, peak_mb and lines over "
          f"{args.runs} alternating runs, q1/median/q3")
    print(f"{'row':8} {'parent':24} change")
    for row in ROWS:
        print(f"{row:8} {_fmt(values['parent'][row], row):24} "
              f"{_fmt(values['change'][row], row)}")
    print(f"launcher floor {floor:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
