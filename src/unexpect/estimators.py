"""Online occurrence-rate estimators.

Two low-pass filters over per-symbol match indicators:

* FIR: w(x) = (matches in the last N events) / N
* IIR: w(x) <- (1 - alpha) * indicator + alpha * w(x), one pole

Both approximate the occurrence probability P(x) on stationary streams
(estimator consistency). The long-term description cost of a symbol is
log2(1 / w(x)), optionally floored by a smoothing epsilon so that rare
or unseen symbols stay finite.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Optional, Sequence, Union

from .core import (
    BitLength,
    InsufficientHistoryError,
    NonMonotonicTimeError,
    SymbolId,
    ValidationError,
)
from .memory import Observation

# Sentinel config values for the smoothing floor.
EPSILON_AUTO = "auto"
EPSILON_OFF = "off"

EpsilonSpec = Union[float, str]


def expected_position(p: float) -> float:
    """Expected 0-based stack depth 1/p - 1 of a symbol with probability p.

    This is the idealized model where every intervening observation
    pushes the symbol down one slot; it is exact when the rest of the
    mass is spread over many distinct symbols.
    """
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"probability must be in (0, 1], got {p}")
    return 1.0 / p - 1.0


def ltm_complexity(w: float, epsilon: float = 0.0) -> BitLength:
    """Retrieval cost log2(1 / max(w, epsilon)) from an occurrence rate.

    epsilon = 0 disables smoothing, so w = 0 costs infinity.
    """
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"rate must be in [0, 1], got {w}")
    if epsilon < 0.0:
        raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
    return _ltm_bits(w, epsilon)


def _ltm_bits(w: float, epsilon: float) -> BitLength:
    """ltm_complexity without the range checks, for a rate and a floor
    the engine computed itself."""
    floored = epsilon if epsilon > w else w  # max(w, epsilon) without a call
    if floored == 0.0:
        return math.inf
    return math.log2(1.0 / floored)


def is_stable(history: Sequence[float], window: int, delta: float) -> bool:
    """True iff the last `window` values span a range of at most delta."""
    if window < 1:
        raise ValidationError(f"window must be >= 1, got {window}")
    if len(history) < window:
        raise InsufficientHistoryError(
            f"need {window} values, have {len(history)}"
        )
    tail = history[-window:]
    return max(tail) - min(tail) <= delta


def _auto_epsilon(events_seen: int, alphabet_size: int) -> float:
    """The "auto" smoothing floor: 1 / (events seen + distinct symbols seen)."""
    seen = events_seen + alphabet_size
    return 1.0 / (seen if seen > 1 else 1)


def resolve_epsilon(spec: EpsilonSpec, events_seen: int, alphabet_size: int) -> float:
    """Concrete smoothing floor for a given estimator state.

    "auto" is additive-smoothing flavored: 1 / (events seen + distinct
    symbols seen so far). "off" (or 0) disables the floor.
    """
    if spec == EPSILON_AUTO:
        return _auto_epsilon(events_seen, alphabet_size)
    if spec == EPSILON_OFF:
        return 0.0
    value = float(spec)
    if value < 0.0 or value >= 1.0:
        raise ValidationError(f"epsilon must be in [0, 1), got {value}")
    return value


class _EstimatorBase:
    """Shared time bookkeeping; subclasses implement the filter."""

    def __init__(self):
        self.last_t: Optional[int] = None
        self.events_seen = 0
        self._ever_seen: set[SymbolId] = set()

    @property
    def alphabet_size(self) -> int:
        """Distinct symbols ever observed (survives pruning/window slide)."""
        return len(self._ever_seen)

    def _check_time(self, obs: Observation) -> None:
        if self.last_t is not None and obs.t <= self.last_t:
            raise NonMonotonicTimeError(
                f"time {obs.t} does not increase past {self.last_t}"
            )

    def _note(self, obs: Observation) -> None:
        self.last_t = obs.t
        self.events_seen += 1
        self._ever_seen.add(obs.symbol)


class FirEstimator(_EstimatorBase):
    """Sliding-window average of match indicators over the last N events.

    w(x) is exactly count(x in window) / N, so before the window fills
    the rates sum to events_seen / N, and to 1 afterwards.
    """

    def __init__(self, window: int):
        super().__init__()
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        self.window = window
        self._buffer: deque[SymbolId] = deque()
        self._counts: Counter[SymbolId] = Counter()
        self._registered: set[SymbolId] = set()

    def register(self, symbol: SymbolId) -> None:
        """Track a symbol even while it is absent from the window."""
        self._registered.add(symbol)

    def update(self, obs: Observation) -> None:
        self._check_time(obs)
        self._note(obs)
        if len(self._buffer) == self.window:
            old = self._buffer.popleft()
            self._counts[old] -= 1
            if self._counts[old] == 0:
                del self._counts[old]
        self._buffer.append(obs.symbol)
        self._counts[obs.symbol] += 1

    def w(self, symbol: SymbolId) -> float:
        return self._counts.get(symbol, 0) / self.window

    def tracked_symbols(self) -> list[SymbolId]:
        extra = sorted(self._registered - self._counts.keys())
        return list(self._counts) + extra

    def state_dict(self) -> dict:
        return {
            "kind": "fir",
            "window": self.window,
            "last_t": self.last_t,
            "events_seen": self.events_seen,
            "alphabet": sorted(self._ever_seen),
            "buffer": list(self._buffer),
            "registered": sorted(self._registered),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "FirEstimator":
        est = cls(state["window"])
        est.last_t = state["last_t"]
        est.events_seen = state["events_seen"]
        est._ever_seen = set(state["alphabet"])
        est._buffer = deque(state["buffer"])
        est._counts = Counter(state["buffer"])
        est._registered = set(state.get("registered", ()))
        return est


class IirEstimator(_EstimatorBase):
    """One-pole low-pass filter with decay alpha.

    Updates are lazy: an unobserved symbol's rate only decays, so its
    stored value plus the step of last materialization reconstruct the
    current value as stored * alpha^(steps since). This keeps updates
    O(1) per event regardless of alphabet size, and is preserved
    exactly by snapshots so replay stays bit-identical.
    """

    def __init__(self, alpha: float, prune: bool = False,
                 epsilon: EpsilonSpec = EPSILON_AUTO):
        super().__init__()
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self.prune = prune
        self.epsilon_spec = epsilon
        self._w: dict[SymbolId, float] = {}
        self._w_step: dict[SymbolId, int] = {}
        self._counts: Counter[SymbolId] = Counter()
        self._step = 0
        # (symbol, step, rate) of the last materialized w(); not state.
        self._decayed: tuple = (None, -1, 0.0)

    _PRUNE_EVERY = 1024

    def w(self, symbol: SymbolId) -> float:
        stored = self._w.get(symbol)
        if stored is None:
            return 0.0
        rate = stored * self.alpha ** (self._step - self._w_step[symbol])
        self._decayed = (symbol, self._step, rate)
        return rate

    def update(self, obs: Observation) -> None:
        self._check_time(obs)
        self._note(obs)
        sym = obs.symbol
        # The engine asks w(sym) just before update(sym); reuse that rate
        # while no update has moved the step since.
        decayed_sym, decayed_step, current = self._decayed
        if decayed_step != self._step or decayed_sym != sym:
            current = self.w(sym)  # new symbols start at 0 before their update
        self._w[sym] = (1.0 - self.alpha) + self.alpha * current
        self._w_step[sym] = self._step + 1
        self._counts[sym] += 1
        self._step += 1
        if self.prune and self._step % self._PRUNE_EVERY == 0:
            self._sweep()

    def _sweep(self) -> None:
        floor = resolve_epsilon(self.epsilon_spec, self.events_seen,
                                self.alphabet_size)
        if floor <= 0.0:
            return
        for sym in [s for s in self._w if self.w(s) < floor / 2.0]:
            del self._w[sym]
            del self._w_step[sym]
        self._decayed = (None, -1, 0.0)  # may name a symbol just dropped

    def tracked_symbols(self) -> list[SymbolId]:
        return list(self._w)

    def state_dict(self) -> dict:
        return {
            "kind": "iir",
            "alpha": self.alpha,
            "prune": self.prune,
            "epsilon": self.epsilon_spec,
            "last_t": self.last_t,
            "events_seen": self.events_seen,
            "alphabet": sorted(self._ever_seen),
            "step": self._step,
            "w": dict(self._w),
            "w_step": dict(self._w_step),
            "counts": dict(self._counts),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "IirEstimator":
        est = cls(state["alpha"], prune=state.get("prune", False),
                  epsilon=state.get("epsilon", EPSILON_AUTO))
        est.last_t = state["last_t"]
        est.events_seen = state["events_seen"]
        est._ever_seen = set(state["alphabet"])
        est._step = state["step"]
        est._w = dict(state["w"])
        est._w_step = {k: int(v) for k, v in state["w_step"].items()}
        est._counts = Counter({k: int(v) for k, v in state["counts"].items()})
        return est


Estimator = Union[FirEstimator, IirEstimator]


def estimator_from_state(state: dict) -> Estimator:
    kind = state.get("kind")
    if kind == "fir":
        return FirEstimator.from_state_dict(state)
    if kind == "iir":
        return IirEstimator.from_state_dict(state)
    raise ValidationError(f"unknown estimator kind {kind!r}")
