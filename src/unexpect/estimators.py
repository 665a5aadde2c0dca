"""Online occurrence-rate estimators.

Two low-pass filters over per-symbol match indicators:

* FIR: w(x) = (matches in the last N events) / N
* IIR: w(x) <- (1 - alpha) * indicator + alpha * w(x), one pole

Both approximate the occurrence probability P(x) on stationary streams
(estimator consistency). `Engine.step` takes log2(1 / w(x)) as a
symbol's long-term cost, optionally floored by a smoothing epsilon so
that rare or unseen symbols stay finite.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Optional, Sequence, Union

from .core import SymbolId, ValidationError, _require, _symbols
from .memory import Observation

# Sentinel config values for the smoothing floor.
EPSILON_AUTO = "auto"
EPSILON_OFF = "off"

EpsilonSpec = Union[float, str]


def resolve_epsilon(spec: EpsilonSpec, events_seen: int, alphabet_size: int) -> float:
    """Concrete smoothing floor after events_seen events of alphabet_size symbols.

    "auto" is additive-smoothing flavored: 1 / (events seen + distinct
    symbols seen so far). "off" (or 0) disables the floor.
    """
    if spec == EPSILON_AUTO:
        return 1.0 / max(events_seen + alphabet_size, 1)
    if spec == EPSILON_OFF:
        return 0.0
    value = float(spec)
    if not 0.0 <= value < 1.0:  # also rejects NaN
        raise ValidationError(f"epsilon must be in [0, 1), got {value}",
                              "epsilon")
    return value


class FirEstimator:
    """Sliding-window average of match indicators over the last N events.

    w(x) is exactly count(x in window) / N, so before the window fills
    the rates sum to (events so far) / N, and to 1 afterwards. A restored
    estimator starts from the `buffer` of its `state_dict`, oldest first.
    """

    def __init__(self, window: int, buffer: Sequence[SymbolId] = ()):
        self.window = _require("window", window, int, "an integer >= 1", lambda n: n >= 1)
        # Strings only: no event could match anything else.
        self._buffer: deque[SymbolId] = deque(_symbols("buffer", buffer))
        if len(self._buffer) > window:  # it would never shrink
            raise ValidationError(f"buffer holds {len(self._buffer)} symbols, "
                                  f"more than the window of {window}")
        # The count of each symbol in the window.
        self._counts: dict[SymbolId, int] = dict(Counter(self._buffer))

    def update(self, obs: Observation) -> None:
        buffer = self._buffer
        counts = self._counts
        if len(buffer) == self.window:
            old = buffer.popleft()
            left = counts[old] - 1
            if left:
                counts[old] = left
            else:
                del counts[old]
        symbol = obs.symbol
        buffer.append(symbol)
        counts[symbol] = counts.get(symbol, 0) + 1

    def w(self, symbol: SymbolId) -> float:
        return self._counts.get(symbol, 0) / self.window

    def tracked_symbols(self) -> list[SymbolId]:
        return list(self._counts)

    def state_dict(self) -> dict:
        return {"buffer": list(self._buffer)}


# IirEstimator's kept symbol when w() has kept nothing: equal to no symbol.
_NOTHING = object()


class IirEstimator:
    """One-pole low-pass filter with decay alpha.

    Updates are lazy: an unobserved symbol's rate only decays, so its
    stored value plus the step of last materialization reconstruct the
    current value as stored * alpha^(steps since). This keeps updates
    O(1) per event regardless of alphabet size, and is preserved
    exactly by snapshots so replay stays bit-identical. A restored
    estimator starts from the `step`, `w` and `w_step` of its `state_dict`.

    Each symbol has one entry, [stored rate, step stored at]. `w()` keeps
    the entry it read and the rate it computed, and the `update()` of the
    same symbol that follows (as in `Engine.step`) writes both slots of
    that entry in place, so an event costs one dict lookup.
    """

    def __init__(self, alpha: float, step: int = 0,
                 w: Optional[dict[SymbolId, float]] = None,
                 w_step: Optional[dict[SymbolId, int]] = None):
        _require("alpha", alpha, (int, float), "in (0, 1)", lambda a: 0.0 < a < 1.0)
        _require("step", step, int, "a nonnegative integer", lambda n: n >= 0)
        self.alpha = alpha
        self._step = step
        w = {} if w is None else _require("w", w, dict, "an object")
        _symbols("w", list(w))  # strings only, as in FirEstimator's buffer
        for symbol, rate in w.items():
            # Its own message, which names the symbol.
            if (isinstance(rate, bool) or not isinstance(rate, (int, float))
                    or not 0.0 <= rate <= 1.0):  # also rejects NaN
                raise ValidationError(
                    f"w must hold rates in [0, 1], got {rate!r} for {symbol!r}")
        w_step = {} if w_step is None else _require("w_step", w_step, dict,
                                                     "an object")
        if w_step.keys() != w.keys():
            odd = sorted(w_step.keys() ^ w.keys())[0]
            raise ValidationError(
                f"w_step must hold the symbols of w, and only those; {odd!r} "
                f"is in {'w_step' if odd in w_step else 'w'} only")
        for symbol, when in w_step.items():
            # Its own message, which names the symbol and the bound.
            if type(when) is not int or not 0 <= when <= step:
                raise ValidationError(
                    f"w_step must hold steps in [0, {step}], got {when!r} for {symbol!r}")
        # Each update adds 1 - alpha to the rates and scales them by alpha,
        # so no run can make the decayed rates sum to more than 1.
        total = math.fsum(rate * alpha ** (step - w_step[symbol])
                          for symbol, rate in w.items())
        if total > 1.0 + 1e-9:
            raise ValidationError(
                f"w must hold rates that sum to at most 1 after decay, got {total!r}")
        self._entries: dict[SymbolId, list] = {
            symbol: [rate, w_step[symbol]] for symbol, rate in w.items()}
        # The symbol of the last w(), its entry (None if it has none) and
        # the rate w() returned; not state. update() and sweep() set the
        # symbol to _NOTHING, so a kept rate never outlives its step.
        self._kept_symbol = _NOTHING
        self._kept_entry: Optional[list] = None
        self._kept_rate = 0.0

    def w(self, symbol: SymbolId) -> float:
        entry = self._kept_entry = self._entries.get(symbol)
        self._kept_symbol = symbol
        if entry is None:
            rate = 0.0  # new symbols start at 0 before their update
        else:
            rate = entry[0] * self.alpha ** (self._step - entry[1])
        self._kept_rate = rate
        return rate

    def update(self, obs: Observation) -> None:
        sym = obs.symbol
        if sym != self._kept_symbol:  # else the engine asked w(sym) just now
            self.w(sym)
        entry = self._kept_entry
        self._kept_symbol = _NOTHING  # the step moves on
        alpha = self.alpha
        self._step = step = self._step + 1
        rate = (1.0 - alpha) + alpha * self._kept_rate
        if entry is None:
            self._entries[sym] = [rate, step]
        else:
            entry[0] = rate
            entry[1] = step

    def sweep(self, floor: float) -> None:
        """Forget every symbol whose rate is under floor / 2; a forgotten
        symbol's rate restarts from 0. A floor of 0 keeps everything."""
        self._kept_symbol = _NOTHING  # its entry may be one dropped here
        if floor <= 0.0:
            return
        entries, alpha, step = self._entries, self.alpha, self._step
        for sym in [s for s, (stored, stored_step) in entries.items()
                    if stored * alpha ** (step - stored_step) < floor / 2.0]:
            del entries[sym]

    def tracked_symbols(self) -> list[SymbolId]:
        return list(self._entries)

    def state_dict(self) -> dict:
        entries = self._entries
        return {"step": self._step,
                "w": {symbol: entry[0] for symbol, entry in entries.items()},
                "w_step": {symbol: entry[1] for symbol, entry in entries.items()}}


Estimator = Union[FirEstimator, IirEstimator]
