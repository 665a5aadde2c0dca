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
import gc
import json
import os
import stat
import sys
import tempfile
from typing import IO, Iterator, Optional, Sequence

from .core import UnexpectError, ValidationError, _decode_json_line

# This module holds the parser and what every command shares. The
# handlers live in `cli_track` (track, replay) and `cli_tools` (explain,
# divergence, simulate); main imports only the one a command runs, so
# that `simulate` and `divergence` start without the engine.


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
    cannot be opened or replaced exits 1 naming `flag`, as does a closed
    standard output."""
    if path is None or path == "-":
        if sys.stdout is None:  # started with fd 1 closed
            raise _fail_flag(f"{flag}: cannot write standard output: it is closed")
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
    """The lines of the file at path, or of standard input, read as UTF-8
    whatever the locale and with universal newlines. A byte that is not
    UTF-8 reads as its surrogate escape, which the line readers reject
    naming the line. A closed standard input exits 2, as a missing file
    does."""
    if path is None or path == "-":
        if sys.stdin is None:  # started with fd 0 closed
            raise _fail_data("cannot read standard input: it is closed")
        reconfigure = getattr(sys.stdin, "reconfigure", None)
        if reconfigure is not None:  # io.StringIO and the like hold text
            # Universal newlines, as open() reads a file with.
            reconfigure(encoding="utf-8", errors="surrogateescape", newline=None)
        yield sys.stdin
        return
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise _fail_data(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _read_json_file(path: str, what: str, build=None):
    """The one way a command reads a file: one JSON object, returned as
    `build(obj)` (or as is). Every fault exits 2 naming `what` and `path`;
    a KeyError, TypeError, ValueError or OverflowError from `build` reads
    as malformed, an UnexpectError as its own message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _decode_json_line(fh.read())
        if not isinstance(obj, dict):
            raise ValidationError("expected a JSON object")
        return obj if build is None else build(obj)
    except OSError as exc:
        raise _fail_data(f"cannot read {what} {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        problem = f"invalid JSON at line {exc.lineno}"
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problem = f"malformed: {exc}"  # also a file that is not UTF-8
    except UnexpectError as exc:
        problem = str(exc)
    raise _fail_data(f"{what} {path}: {problem}")


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
    track.add_argument("--stability-m", type=int, default=None)
    track.add_argument("--stability-delta", type=float, default=None)

    replay = sub.add_parser("replay", help="continue a run from a snapshot")
    add_io(replay)
    replay.add_argument("--snapshot", required=True)
    replay.add_argument("--snapshot-out", default=None)

    explain = sub.add_parser("explain", help="best-cause explanation of a situation")
    explain.add_argument("--graph", default=None, help="causal graph JSON file")
    explain.add_argument("--bayes", default=None, help="probabilistic model JSON file")
    explain.add_argument("--target", required=True)
    explain.add_argument("--cd", type=float, default=None,
                         help="description cost of the target, in bits")
    explain.add_argument("--output", "-o", default=None)

    div = sub.add_parser("divergence", help="world-vs-mind divergence report")
    add_io(div, emit_choices=("json", "csv"))
    div.add_argument("--world", default=None, help="distribution JSON file")
    div.add_argument("--mind", default=None, help="code-length JSON file")
    div.add_argument("--from-trace", action="store_true",
                     help="build the pair from a trace on input")
    div.add_argument("--normalize-mind", action="store_true")
    div.add_argument("--tau", type=float, default=2.0)

    sim = sub.add_parser("simulate", help="generate a synthetic event stream")
    sim.add_argument("--spec", required=True, help="source spec JSON file")
    sim.add_argument("--out", default=None, help="output path (default stdout)")
    sim.add_argument("--dist-out", default=None,
                     help="also write the generating distribution (stationary/zipf)")

    return parser


def _handler(command: str):
    """The function that runs `command`, imported only now."""
    if command in ("track", "replay"):
        from . import cli_track as handlers
    else:
        from . import cli_tools as handlers
    return getattr(handlers, f"_cmd_{command}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """`main()` is the program and freezes the collector before it returns;
    `main(argv)` is an in-process call and leaves the collector alone."""
    try:
        args = _make_parser().parse_args(argv)
        return _handler(args.command)(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return 0
    except UnexpectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    # Under `python -m`, run the main of the module the handlers import,
    # so that the _Exit they raise is the one main catches.
    from unexpect.cli import main as _main

    sys.exit(_main())
