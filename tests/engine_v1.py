"""The scoring engine as it was at snapshot format version 1.

A verbatim copy of that version's ``Engine`` and ``ChangeDetector``
(from ``engine.py``), its estimators and smoothing helpers (from
``estimators.py``) and its ``StmStack`` and ``_stm_bits`` (from
``memory.py``). There each estimator checked time and kept its own
count of events and of the symbols seen, ``IirEstimator`` kept per
symbol counts, and ``FirEstimator`` could register symbols; the
snapshot carried all of it. Two lines differ from the original: the
engine builds its estimator with ``build_estimator`` below instead of
``EngineConfig.build_estimator``, and ``restore`` calls
``estimator_from_state`` directly. ``EngineConfig``, ``TraceRecord``
and ``Observation`` come from the package; their fields and checks are
the same in both versions.

The differential tests in ``test_engine.py`` step this engine and the
package's side by side and resume the package's engine from this one's
state, converted to the current snapshot format.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter, deque
from typing import Iterable, Optional, Union

from unexpect.core import (
    BitLength,
    NonMonotonicTimeError,
    SymbolId,
    ValidationError,
    VersionMismatchError,
    _Value,
)
from unexpect.engine import EngineConfig, TraceRecord
from unexpect.memory import Observation

SNAPSHOT_VERSION = 1
EPSILON_AUTO = "auto"
EPSILON_OFF = "off"

EpsilonSpec = Union[float, str]


def _ltm_bits(w: float, epsilon: float) -> BitLength:
    """log2(1 / max(w, epsilon)), without range checks, for a rate and a
    floor the engine computed itself."""
    floored = epsilon if epsilon > w else w  # max(w, epsilon) without a call
    if floored == 0.0:
        return math.inf
    return math.log2(1.0 / floored)


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


def build_estimator(config: EngineConfig) -> Estimator:
    if config.estimator == "fir":
        return FirEstimator(config.window)
    return IirEstimator(config.alpha, prune=config.prune, epsilon=config.epsilon)


def _stm_bits(pre_position: Optional[int]) -> float:
    """log2 of the pre-move position (None costs infinity), without a
    range check, for a position the stack itself returned."""
    if pre_position is None:
        return math.inf
    return math.log2(pre_position)


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
        if capacity is not None and capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        top_first = list(dict.fromkeys(items))  # as produced by items()
        if capacity is not None and len(top_first) > capacity:
            raise ValidationError("initial items exceed capacity")
        self._symbols: list[SymbolId] = top_first[::-1]  # oldest first
        self._stamps: list[int] = list(range(len(top_first)))
        self._stamp_of: dict[SymbolId, int] = dict(
            zip(self._symbols, self._stamps))
        self._clock = len(top_first) - 1  # latest stamp handed out

    def __len__(self) -> int:
        return len(self._stamps)

    def __contains__(self, symbol: SymbolId) -> bool:
        return symbol in self._stamp_of

    def items(self) -> list[SymbolId]:
        """Stack contents, top first."""
        return self._symbols[::-1]

    def position(self, symbol: SymbolId) -> Optional[int]:
        """Current 1-based position, or None if absent. Does not move."""
        stamp = self._stamp_of.get(symbol)
        if stamp is None:
            return None
        return len(self._stamps) - bisect_left(self._stamps, stamp)

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


class ChangeDetector(_Value):
    """EWMA of u_clamped with an m-consecutive-hits threshold rule.

    The one mutable value type: update() moves ewma and hits, so it has
    plain attribute writes and no hash.
    """

    __slots__ = ("beta", "theta", "min_hits", "ewma", "hits")
    # Both object's own, so that writes take the generic fast path.
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, beta: float = 0.95, theta: float = 1.0,
                 min_hits: int = 20, ewma: float = 0.0, hits: int = 0):
        if not 0.0 < beta < 1.0:
            raise ValidationError(f"beta must be in (0, 1), got {beta}")
        if not 0.0 < theta < math.inf:  # also rejects NaN
            raise ValidationError(f"theta must be finite and > 0, got {theta}")
        if min_hits < 1:
            raise ValidationError(f"min hits must be >= 1, got {min_hits}")
        self.beta = beta
        self.theta = theta
        self.min_hits = min_hits
        self.ewma = ewma
        self.hits = hits

    @property
    def flag(self) -> bool:
        return self.hits >= self.min_hits

    def update(self, u_clamped: float) -> bool:
        if u_clamped < 0.0:
            raise ValidationError(f"u_clamped must be >= 0, got {u_clamped}")
        self.ewma = (1.0 - self.beta) * u_clamped + self.beta * self.ewma
        self.hits = self.hits + 1 if self.ewma > self.theta else 0
        return self.flag

    def state_dict(self) -> dict:
        return {"beta": self.beta, "theta": self.theta,
                "min_hits": self.min_hits, "ewma": self.ewma, "hits": self.hits}

    @classmethod
    def from_state_dict(cls, state: dict) -> "ChangeDetector":
        return cls(**state)


class Engine:
    """Single-stream scorer: one stack, one estimator, one detector."""

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.stack = StmStack(capacity=self.config.capacity)
        self.estimator = build_estimator(self.config)
        self.detector = ChangeDetector(
            self.config.beta, self.config.theta, self.config.min_hits
        )
        self.warmup = self.config.resolved_warmup()
        self.last_t: Optional[int] = None
        # "auto" follows the estimator's state; "off" and numbers are fixed.
        epsilon = self.config.epsilon
        self._fixed_floor: Optional[float] = (
            None if epsilon == EPSILON_AUTO else resolve_epsilon(epsilon, 0, 0))

    def step(self, obs: Observation) -> TraceRecord:
        """Score one event, then let the memory and estimator learn it."""
        t = obs.t
        symbol = obs.symbol
        if self.last_t is not None and t <= self.last_t:
            raise NonMonotonicTimeError(
                f"time {t} does not increase past {self.last_t}"
            )
        # Measure against the state *before* this event.
        estimator = self.estimator
        w = estimator.w(symbol)
        floor = self._fixed_floor
        if floor is None:
            floor = _auto_epsilon(estimator.events_seen, estimator.alphabet_size)
        c_ltm = _ltm_bits(w, floor)
        pre_position = self.stack.observe(symbol)
        c_stm = _stm_bits(pre_position)

        novelty = pre_position is None
        if novelty:
            u_raw: Optional[float] = None
            u_clamped: Optional[float] = None
            flag = self.detector.flag  # detector not updated by novelties
        else:
            u_raw = c_ltm - c_stm
            u_clamped = 0.0 if u_raw < 0.0 else u_raw  # max(u_raw, 0.0) without a call
            if math.isfinite(u_clamped) and estimator.events_seen >= self.warmup:
                flag = self.detector.update(u_clamped)
            else:
                # Detector is still arming, or ltm cost is infinite with
                # smoothing disabled; keep the EWMA clean either way.
                flag = self.detector.flag

        estimator.update(obs)
        self.last_t = t
        return TraceRecord(t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, flag)

    # -- snapshots ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state; restoring replays bit-identically."""
        return {
            "format_version": SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "last_t": self.last_t,
            "stack": self.stack.items(),
            "estimator": self.estimator.state_dict(),
            "detector": self.detector.state_dict(),
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "Engine":
        if not isinstance(snapshot, dict) or "format_version" not in snapshot:
            raise VersionMismatchError("not an engine snapshot")
        if snapshot["format_version"] != SNAPSHOT_VERSION:
            raise VersionMismatchError(
                f"snapshot version {snapshot['format_version']!r}, "
                f"expected {SNAPSHOT_VERSION}"
            )
        try:
            config = EngineConfig.from_dict(snapshot["config"])
            engine = cls(config)
            engine.stack = StmStack(capacity=config.capacity,
                                    items=snapshot["stack"])
            engine.estimator = estimator_from_state(snapshot["estimator"])
            engine.detector = ChangeDetector.from_state_dict(snapshot["detector"])
            engine.last_t = snapshot["last_t"]
        except (KeyError, TypeError) as exc:
            raise VersionMismatchError(f"malformed snapshot: {exc}") from None
        return engine

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def restore_json(cls, text: str) -> "Engine":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise VersionMismatchError(f"unreadable snapshot: {exc}") from None
        return cls.restore(obj)
