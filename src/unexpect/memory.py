"""Short-term memory as a move-to-front stack.

Retrieval cost is the base-2 log of a symbol's 1-based stack position
*before* it is moved to the top, so a symbol observed twice in a row
costs 0 bits the second time, and a symbol never seen costs infinity.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Iterable, Iterator, Optional

from .core import (SymbolId, ValidationError, _PLAIN_STRING, _T, _Value,
                   _decode_json_line, _line_blocks, _require, _require_utf8, _symbols)


class Observation(_Value):
    """One stream event: symbol seen at integer time t."""

    __slots__ = ("t", "symbol")

    def __init__(self, t: int, symbol: SymbolId):
        # A float or bool t, or a symbol that is no str, would be scored,
        # then written to a snapshot that Engine.restore rejects.
        if type(t) is not int or t < 0:
            raise ValidationError(f"time index must be a nonnegative integer, got {t!r}")
        if type(symbol) is not str:
            raise ValidationError(f"symbol must be a string, got {symbol!r}")
        self._fill(t, symbol)


class StmStack:
    """Move-to-front stack of distinct symbols, position 1 = top.

    A symbol's position is its LRU stack distance: one plus the number of
    distinct symbols touched since its last access. Each access takes a
    stamp from a counter that only goes up; the live stamps are kept in
    ascending order beside their symbols, so the position of a symbol is
    the count of live stamps at or above its own, found by bisection.
    A hit at depth d > 1 costs O(log n) in Python plus one O(d) pointer
    move in C; a top hit changes nothing; a bounded stack evicts the
    oldest stamp, which is the bottom.
    """

    def __init__(self, capacity: Optional[int] = None,
                 items: Iterable[SymbolId] = ()):
        if capacity is not None:
            _require("capacity", capacity, int, "an integer >= 1", lambda n: n >= 1)
        self.capacity = capacity
        top_first = _symbols("items", list(dict.fromkeys(items)))  # as items() gives
        if capacity is not None and len(top_first) > capacity:
            raise ValidationError("initial items exceed capacity")
        self._symbols: list[SymbolId] = top_first[::-1]  # oldest first
        self._stamps: list[int] = list(range(len(top_first)))
        self._stamp_of: dict[SymbolId, int] = dict(
            zip(self._symbols, self._stamps))
        self._clock = len(top_first) - 1  # latest stamp handed out

    def __len__(self) -> int:
        return len(self._stamps)

    def items(self) -> list[SymbolId]:
        """Stack contents, top first."""
        return self._symbols[::-1]

    def observe(self, symbol: SymbolId) -> Optional[int]:
        """Move symbol to the top; return its pre-move position (None if new).

        When a capacity is set, inserting a new symbol into a full stack
        evicts the bottom element.
        """
        stamp_of = self._stamp_of
        stamp = stamp_of.get(symbol)
        clock = self._clock
        if stamp == clock:
            return 1
        clock = self._clock = clock + 1
        stamp_of[symbol] = clock
        stamps = self._stamps
        symbols = self._symbols
        if stamp is None:
            pre = None
            if self.capacity is not None and len(stamps) >= self.capacity:
                del stamps[0]
                del stamp_of[symbols.pop(0)]
        else:
            index = bisect_left(stamps, stamp)
            pre = len(stamps) - index
            del stamps[index]
            del symbols[index]
        stamps.append(clock)
        symbols.append(symbol)
        return pre


def _parse_stripped(stripped: str, lineno: int) -> Observation:
    """One event line, stripped of surrounding whitespace:
    {"t": int, "s": str} or a bare token, which gets t = lineno (its
    0-based physical line index)."""
    if stripped.startswith("{"):
        try:
            obj = _decode_json_line(stripped)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON event: {exc}") from None
        if "t" not in obj or "s" not in obj:
            raise ValidationError('event object must have "t" and "s" fields')
        return Observation(_require('"t"', obj["t"], int, "an integer"),
                           _require('"s"', obj["s"], str, "a string"))
    if stripped.startswith("\ufeff"):
        # str.strip() keeps a byte order mark, so a marked JSON line
        # would otherwise be scored as one bare token.
        raise ValidationError("event starts with a byte order mark (U+FEFF)")
    return Observation(lineno, stripped)


# The line `simulate` writes, for _line_blocks: JSON decodes a line this
# matches to the same t and s.
_CANONICAL_EVENT = r'\{"t": (' + _T + r'), "s": ' + _PLAIN_STRING + r'\}'

# Event lines read ahead and checked at a time by _event_blocks.
_EVENT_BLOCK_LINES = 256


def _event_blocks(lines: Iterable[str]) -> Iterator[tuple]:
    """read_events' events as columns, one (line numbers, times, symbols)
    triple per block of _EVENT_BLOCK_LINES lines. A faulty line ends the
    run: its block's columns before it come first, then ValidationError."""
    for first, block, found in _line_blocks(lines, _CANONICAL_EVENT, _EVENT_BLOCK_LINES):
        if found is not None:
            times, symbols = zip(*found)
            yield range(first, first + len(block)), list(map(int, times)), symbols
            continue
        # Any other block goes a line at a time, where an item of two
        # lines fails as invalid JSON.
        line_numbers, times, symbols = [], [], []
        for lineno, line in enumerate(block, first):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                if not stripped.isascii():
                    _require_utf8(stripped)
                obs = _parse_stripped(stripped, lineno - 1)
            except ValidationError as exc:
                yield line_numbers, times, symbols
                raise ValidationError(f"line {lineno}: {exc}") from None
            line_numbers.append(lineno)
            times.append(obs.t)
            symbols.append(obs.symbol)
        yield line_numbers, times, symbols


def read_events(lines: Iterable[str]) -> Iterator[tuple[int, Observation]]:
    """Yield (1-based line number, Observation) pairs; blank lines skipped.

    Each item of `lines` is one line, with at most one newline, at its
    end, as iterating a file or splitlines(keepends=True) gives; up to
    _EVENT_BLOCK_LINES lines are read ahead.

    A line that holds a surrogate escape of a byte that is not UTF-8
    (U+DC80-U+DCFF) is rejected, naming the byte.
    """
    for line_numbers, times, symbols in _event_blocks(lines):
        yield from zip(line_numbers, map(Observation, times, symbols))
