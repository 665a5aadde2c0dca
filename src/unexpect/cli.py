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

import contextlib
import gc
import json
import os
import stat
import sys
import tempfile
from types import SimpleNamespace
from typing import IO, Iterator, Optional, Sequence

from .core import UnexpectError, ValidationError, _decode_json_line

# This module holds the flags and what every command shares. The
# handlers live in `cli_track` (track, replay) and `cli_tools` (explain,
# divergence, simulate); main imports only the one a command runs, so
# that `simulate` and `divergence` start without the engine. A plain
# command line is read without argparse, which is imported only for the
# others (help, abbreviations, errors).


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fail_flag(message: str) -> "_Exit":
    return _Exit(1, message)


def _fail_data(message: str) -> "_Exit":
    return _Exit(2, message)


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


# -- flags -------------------------------------------------------------

def _flag(*names, type=str, choices=None, default=None, required=False,
          help=None):
    """One row of _COMMANDS: (names, dest, type, choices, default,
    required, help), where dest is the first name's, as argparse derives
    it. `type` is str, int or float for a flag that takes a value, and
    bool for one that takes none and sets True."""
    return names, names[0][2:].replace("-", "_"), type, choices, default, required, help


def _io(emit_choices=("jsonl", "csv")):
    """--input, --output and --emit, as the stream commands share them."""
    return (_flag("--input", "-i", help="input path (default stdin)"),
            _flag("--output", "-o", help="output path (default stdout)"),
            _flag("--emit", choices=emit_choices, default=emit_choices[0]))


# The one place a flag is defined: command -> (its help, its flags), in
# the order `--help` lists them. _make_parser builds argparse's parser
# from it, and _read_plain reads a plain command line with it.
_COMMANDS = {
    "track": ("score an event stream", _io() + (
        _flag("--estimator", choices=("iir", "fir")),
        _flag("--alpha", type=float),
        _flag("--window", type=int),
        _flag("--epsilon", help="'auto', 'off', or a float"),
        _flag("--beta", type=float),
        _flag("--theta", type=float),
        _flag("--min-hits", type=int),
        _flag("--warmup", help="'auto' or an event count"),
        _flag("--capacity", type=int),
        _flag("--config", help="JSON config merged under flags"),
        _flag("--snapshot-out"),
        _flag("--stability-m", type=int),
        _flag("--stability-delta", type=float),
    )),
    "replay": ("continue a run from a snapshot", _io() + (
        _flag("--snapshot", required=True),
        _flag("--snapshot-out"),
    )),
    "explain": ("best-cause explanation of a situation", (
        _flag("--graph", help="causal graph JSON file"),
        _flag("--bayes", help="probabilistic model JSON file"),
        _flag("--target", required=True),
        _flag("--cd", type=float, help="description cost of the target, in bits"),
        _flag("--output", "-o"),
    )),
    "divergence": ("world-vs-mind divergence report", _io(("json", "csv")) + (
        _flag("--world", help="distribution JSON file"),
        _flag("--mind", help="code-length JSON file"),
        _flag("--from-trace", type=bool, default=False,
              help="build the pair from a trace on input"),
        _flag("--normalize-mind", type=bool, default=False),
        _flag("--tau", type=float, default=2.0),
    )),
    "simulate": ("generate a synthetic event stream", (
        _flag("--spec", required=True, help="source spec JSON file"),
        _flag("--out", help="output path (default stdout)"),
        _flag("--dist-out",
              help="also write the generating distribution (stationary/zipf)"),
    )),
}


def _read_plain(argv: Sequence[str]) -> Optional[dict]:
    """vars() of the namespace argparse gives for a plain command line:
    a command, then flags of _COMMANDS by their exact names, a flag that
    takes a value followed by one that does not start with "-" (or is
    "-"). None for any other argv, such as help, an abbreviation,
    `--flag=value`, a negative number, an unknown token, a value that
    does not convert or is not a choice, or a missing required flag:
    those are argparse's to read."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][1]
    by_name = {name: row for row in flags for name in row[0]}
    args = {"command": argv[0], **{row[1]: row[4] for row in flags}}
    missing = {row[1] for row in flags if row[5]}
    tokens = iter(argv[1:])
    for token in tokens:
        row = by_name.get(token)
        if row is None:
            return None
        _, dest, kind, choices, _, _, _ = row
        missing.discard(dest)
        if kind is bool:
            args[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return None if missing else args


def _make_parser():
    """argparse's parser for the flags of _COMMANDS: it reads the command
    lines _read_plain leaves, and prints help and flag errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse exits 2 on bad flags by default; the contract here is 1."""

        def error(self, message):
            raise _fail_flag(message)

    parser = Parser(prog="unexpect", description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for names, dest, kind, choices, default, required, text in flags:
            if kind is bool:
                p.add_argument(*names, dest=dest, action="store_true", help=text)
            else:
                p.add_argument(*names, dest=dest, type=kind, choices=choices,
                               default=default, required=required, help=text)
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
        args = _read_plain(sys.argv[1:] if argv is None else argv)
        if args is None:
            args = vars(_make_parser().parse_args(argv))
        return _handler(args["command"])(SimpleNamespace(**args))
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
