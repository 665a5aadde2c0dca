"""The scoring commands, `track` and `replay`: the only ones that load
the engine and the estimators."""

from __future__ import annotations

import contextlib
import math
import sys
from collections import deque
from types import SimpleNamespace
from typing import IO, Optional

from .cli import _fail_data, _fail_flag, _open_input, _open_output, _read_json_file
from .core import UnexpectError, ValidationError
from .engine import Engine, EngineConfig
from .estimators import EPSILON_AUTO, EPSILON_OFF
from .memory import _event_blocks
from .traceio import TRACE_CSV_HEADER

# EngineConfig field -> the flag that sets it and its range, for the
# message of a bad value; a ValidationError's field picks the row.
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
    # Only a config file sets prune.
    "prune": ("--config: prune", "true or false"),
}


def _build_config(args: SimpleNamespace) -> EngineConfig:
    """Merge config file values under explicit flags; EngineConfig checks
    them, and a fault exits 1 naming the flag."""
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
    # --epsilon and --warmup are strings; a config file's epsilon may be
    # an int or a string, its warmup a string. A value that does not
    # convert is left for EngineConfig to reject.
    epsilon, warmup = merged["epsilon"], merged["warmup"]
    if epsilon not in (EPSILON_AUTO, EPSILON_OFF) and not isinstance(epsilon, bool):
        with contextlib.suppress(TypeError, ValueError):
            merged["epsilon"] = float(epsilon)
    if warmup != "auto" and not isinstance(warmup, (bool, float)):
        with contextlib.suppress(TypeError, ValueError):
            merged["warmup"] = int(warmup)
    try:
        return EngineConfig.from_dict(merged)
    except ValidationError as exc:
        flag, rng = _FLAG_RANGES[exc.field]
        raise _fail_flag(f"{flag} must be {rng}, got {merged[exc.field]!r}") from None


def _write_lines(write, texts: list[str], line_numbers, symbols) -> None:
    """Write the trace lines in one call. If a symbol cannot be encoded,
    write them again one at a time, up to the line that names it;
    `line_numbers` and `symbols` give each text's line and symbol."""
    try:
        write("\n".join(texts) + "\n")
    except UnicodeEncodeError:  # e.g. a lone surrogate in CSV
        for text, lineno, symbol in zip(texts, line_numbers, symbols):
            try:
                write(text + "\n")
            except UnicodeEncodeError as exc:
                raise _fail_data(f"line {lineno}: cannot write symbol "
                                 f"{symbol!r}: {exc.reason}") from None
        raise


def _run_engine_over(
    engine: Engine,
    lines: IO[str],
    emit: str,
    out: IO[str],
    stability: Optional[tuple[int, float]] = None,
) -> None:
    """Read, score and write the events a block of lines at a time."""
    write = out.write
    if emit == "csv":
        write(TRACE_CSV_HEADER + "\n")
    histories: dict[str, deque] = {}
    if stability is None:
        score = engine.step_block
    else:
        # The rate after each event, so one event per step_block call.
        def score(times, symbols, texts, emit):
            step_block, rate, window = engine.step_block, engine.estimator.w, stability[0]
            for t, symbol in zip(times, symbols):
                step_block((t,), (symbol,), texts, emit)
                history = histories.get(symbol)
                if history is None:
                    history = histories[symbol] = deque(maxlen=window)
                history.append(rate(symbol))
    texts: list[str] = []
    for line_numbers, times, symbols in _event_blocks(lines):
        # The lines scored before a fault are written before it exits,
        # as one line at a time would have.
        try:
            score(times, symbols, texts, emit)
        except UnexpectError as exc:
            raise _fail_data(f"line {line_numbers[len(texts)]}: {exc}") from None
        finally:
            if texts:
                _write_lines(write, texts, line_numbers, symbols)
                texts.clear()
    if stability is not None:
        window, delta = stability
        # Each history holds at most the last `window` rates.
        unstable = sorted(
            sym for sym, hist in histories.items()
            if len(hist) == window and max(hist) - min(hist) > delta
        )
        print(
            f"ltm stability over last {window} updates (delta={delta}): "
            + (f"unstable symbols: {', '.join(unstable)}" if unstable else "all stable"),
            file=sys.stderr,
        )


def _cmd_track(args: SimpleNamespace) -> int:
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
    return _score(Engine(_build_config(args)), args, stability)


def _cmd_replay(args: SimpleNamespace) -> int:
    return _score(_read_json_file(args.snapshot, "snapshot", Engine.restore), args)


def _score(engine: Engine, args: SimpleNamespace,
           stability: Optional[tuple[int, float]] = None) -> int:
    """Score the input into the output, then write the snapshot if asked."""
    with _open_input(args.input) as lines, _open_output(args.output, "--output") as out:
        _run_engine_over(engine, lines, args.emit, out, stability)
    if args.snapshot_out is not None:
        with _open_output(args.snapshot_out, "--snapshot-out") as fh:
            fh.write(engine.snapshot_json() + "\n")
    return 0
