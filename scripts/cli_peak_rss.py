#!/usr/bin/env python3
"""Peak resident memory of one `unexpect` command, the CLI's own.

Example:

    python3 scripts/cli_peak_rss.py CHECKOUT 5 \\
        track --input events.jsonl --output trace.jsonl

Runs the command RUNS times on the package in CHECKOUT/src and prints the
first quartile, median and third quartile of its peak RSS in MB: the
child's ``ru_maxrss`` from ``os.wait4``, in KB, over 1024, as
``bench/run.py`` reports ``peak_rss_mb``. A child's peak starts at the
RSS of the process that forked it, so each run is forked from a small
launcher, ``python3 -S``, and not from this script; the launcher's RSS
at a fork is printed too, as the floor under every figure. The command
runs in the current directory with /dev/null as its standard input and
output (name files with --input and --output); its standard error is
this script's.

Exits 1 if a run exits non-zero.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from bench_pairs import quartiles

# What bench/run.py runs as `unexpect`.
CLI_ENTRY = "import sys; from unexpect.cli import main; sys.exit(main())"

# Imports nothing but os and sys, which are built in. It forks twice:
# a child that exits at once, whose peak is the launcher's RSS at a fork
# (the floor under any child's peak), then the command's.
LAUNCHER = """\
import os, sys
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
code, peak = run(sys.argv[1:])
print(code, peak, floor)
"""


def run_once(src: str, command: list) -> tuple:
    """(exit code, the command's peak KB, the launcher's floor KB)."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, CLI_ENTRY, *command],
        env=env, stdout=subprocess.PIPE, text=True, check=True)
    return tuple(map(int, proc.stdout.split()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("runs", type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="an unexpect command line, e.g. track --input F")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("runs must be >= 1")
    if not args.command:
        parser.error("give an unexpect command line")
    src = os.path.join(os.path.abspath(args.checkout), "src")
    peaks, floor = [], 0
    for _ in range(args.runs):
        code, peak, launcher = run_once(src, args.command)
        if code != 0:
            print(f"error: unexpect {args.command[0]} exited {code}",
                  file=sys.stderr)
            return 1
        peaks.append(peak / 1024.0)
        floor = max(floor, launcher)
    q1, median, q3 = quartiles(peaks)
    print(f"unexpect {' '.join(args.command)}: peak RSS over {args.runs} "
          f"runs, q1/median/q3 {q1:.2f}/{median:.2f}/{q3:.2f} MB "
          f"(launcher floor {floor / 1024.0:.2f} MB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
