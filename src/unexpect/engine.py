"""Per-event unexpectedness and ergodicity-break detection.

Each event is scored before anything learns from it. The fixed order
(measure, then update stack, estimator, detector) is part of the
replay contract:

    u_raw = c_ltm - c_stm

where c_ltm = log2(1/w) from the occurrence-rate estimator and c_stm =
log2(stack position before the move). On a stationary stream the two
costs track each other and u_raw hovers near zero; a sustained positive
u means the learned rates no longer describe what is being observed.
The detector raises change_flag when an EWMA of u_clamped stays above a
threshold for m consecutive events.

A first-ever symbol has no stack position; it is flagged as a novelty
event and carries no u value instead of poisoning the averages with
infinities.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from math import ceil, inf, isfinite, log2
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .core import (
    NonMonotonicTimeError,
    SymbolId,
    ValidationError,
    _Value,
    _require,
)
from .estimators import (
    EPSILON_AUTO,
    EPSILON_OFF,
    EpsilonSpec,
    Estimator,
    FirEstimator,
    IirEstimator,
    _NOTHING,
    resolve_epsilon,
)
from .memory import Observation, StmStack
from .traceio import _TRACE_LINES
# Re-exported: the trace format's owner is traceio.
from .traceio import TRACE_CSV_HEADER, trace_to_csv, trace_to_jsonl  # noqa: F401

SNAPSHOT_VERSION = 4


class TraceRecord(NamedTuple):
    """One scored event; an immutable tuple with named fields."""

    t: int
    symbol: SymbolId
    c_stm: float
    c_ltm: float
    u_raw: Optional[float]
    u_clamped: Optional[float]
    novelty: bool
    change_flag: bool


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
        _require("beta", beta, (int, float), "a number")
        _require("theta", theta, (int, float), "a number")
        _require("min_hits", min_hits, int, "an integer")
        if not 0.0 < beta < 1.0:
            raise ValidationError(f"beta must be in (0, 1), got {beta}", "beta")
        if not 0.0 < theta < inf:  # also rejects NaN
            raise ValidationError(f"theta must be finite and > 0, got {theta}", "theta")
        if min_hits < 1:
            raise ValidationError(f"min hits must be >= 1, got {min_hits}", "min_hits")
        # update() keeps ewma finite and >= 0: it averages finite u >= 0.
        _require("ewma", ewma, (int, float), "a finite number >= 0",
                 lambda v: 0.0 <= v < inf)  # also rejects NaN
        _require("hits", hits, int, "a nonnegative integer", lambda n: n >= 0)
        self.beta = beta
        self.theta = theta
        self.min_hits = min_hits
        self.ewma = ewma
        self.hits = hits

    @property
    def flag(self) -> bool:
        # update() returns this same rule, computed from its own locals.
        return self.hits >= self.min_hits

    def update(self, u_clamped: float) -> bool:
        # A NaN or infinite input would stick in the EWMA for good. Inline,
        # not _require: this runs on every scored event.
        if not 0.0 <= u_clamped < inf:  # also rejects NaN
            raise ValidationError(
                f"u_clamped must be finite and >= 0, got {u_clamped}")
        beta = self.beta
        self.ewma = ewma = (1.0 - beta) * u_clamped + beta * self.ewma
        self.hits = hits = self.hits + 1 if ewma > self.theta else 0
        return hits >= self.min_hits  # the rule of flag, without its call


class EngineConfig(_Value):
    __slots__ = ("estimator", "alpha", "window", "epsilon", "beta", "theta",
                 "min_hits", "warmup", "capacity", "prune")

    def __init__(
        self,
        estimator: str = "iir",          # "iir" | "fir"
        alpha: float = 0.999,            # IIR decay
        window: int = 10000,             # FIR window
        epsilon: EpsilonSpec = EPSILON_AUTO,
        beta: float = 0.95,
        theta: float = 1.0,
        min_hits: int = 20,
        warmup: Union[int, str] = "auto",  # events before the detector arms
        capacity: Optional[int] = None,  # STM stack bound; None = unbounded
        prune: bool = False,
    ):
        self._fill(estimator, alpha, window, epsilon, beta, theta, min_hits,
                   warmup, capacity, prune)

        def fail(name, rule, shown):
            raise ValidationError(f"{name} must be {rule}, got {shown}", name)

        def require(name, kind, what):
            _require(name, getattr(self, name), kind, what)

        if self.estimator not in ("iir", "fir"):
            fail("estimator", "'iir' or 'fir'", repr(self.estimator))
        for name in ("alpha", "beta", "theta"):
            require(name, (int, float), "a number")
        for name in ("window", "min_hits"):
            require(name, int, "an integer")
        if not 0.0 < self.alpha < 1.0:
            fail("alpha", "in (0, 1)", self.alpha)
        if self.window < 1:
            fail("window", ">= 1", self.window)
        if self.epsilon not in (EPSILON_AUTO, EPSILON_OFF):
            require("epsilon", (int, float), "a number")
            resolve_epsilon(self.epsilon, 0, 0)  # validates the range
        # Its own message: it shows a string without quotes.
        if self.warmup != "auto" and (
            isinstance(self.warmup, bool) or not isinstance(self.warmup, int)
            or self.warmup < 0
        ):
            fail("warmup", "'auto' or >= 0", self.warmup)
        if self.capacity is not None:
            require("capacity", int, "an integer")
            if self.capacity < 1:
                fail("capacity", ">= 1", self.capacity)
        if not isinstance(self.prune, bool):
            fail("prune", "true or false", repr(self.prune))
        ChangeDetector(self.beta, self.theta, self.min_hits)  # validates

    def build_estimator(self) -> Estimator:
        if self.estimator == "fir":
            return FirEstimator(self.window)
        return IirEstimator(self.alpha)

    def resolved_warmup(self) -> int:
        """Events the detector waits out while the estimator converges.

        Until the occurrence rates have had one settling time, every
        symbol's rate is underestimated and u is inflated for a benign
        reason; flagging during that stretch would be noise.
        """
        if self.warmup != "auto":
            return self.warmup
        if self.estimator == "fir":
            return self.window
        return ceil(3.0 / (1.0 - self.alpha) - 1e-9)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    @classmethod
    def from_dict(cls, obj: dict) -> "EngineConfig":
        """The config of `to_dict`; a missing field raises KeyError."""
        return cls(**{f: obj[f] for f in cls._fields})


class Engine:
    """Single-stream scorer: one stack, one estimator, one detector.

    The engine alone keeps the stream's clock (last_t), the count of
    events scored (events_seen) and the set of symbols ever seen, from
    which the "auto" smoothing floor and the IIR prune sweep's floor
    are computed.
    """

    _PRUNE_EVERY = 1024  # events between IIR prune sweeps

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.stack = StmStack(capacity=self.config.capacity)
        self.estimator = self.config.build_estimator()
        self.detector = ChangeDetector(
            self.config.beta, self.config.theta, self.config.min_hits
        )
        self.warmup = self.config.resolved_warmup()
        self.last_t: Optional[int] = None
        self.events_seen = 0
        # A superset of the stack's symbols: a bounded stack forgets.
        self._seen: set[SymbolId] = set()
        # "auto" follows the counts above; "off" and numbers are fixed.
        epsilon = self.config.epsilon
        self._fixed_floor: Optional[float] = (
            None if epsilon == EPSILON_AUTO else resolve_epsilon(epsilon, 0, 0))
        self._prune = self.config.prune and self.config.estimator == "iir"

    def step(self, obs: Observation) -> TraceRecord:
        """Score one event, then let the memory and estimator learn it."""
        t = obs.t
        symbol = obs.symbol
        last_t = self.last_t
        if last_t is not None and t <= last_t:
            raise NonMonotonicTimeError(f"time {t} does not increase past {last_t}")
        # Measure against the state *before* this event.
        estimator = self.estimator
        events_seen = self.events_seen
        w = estimator.w(symbol)
        # c_ltm = log2(1 / max(w, floor)), and inf where both are 0.
        floor = self._fixed_floor
        if floor is None:  # resolve_epsilon("auto", ...), inline
            seen = events_seen + len(self._seen)
            floor = 1.0 / (seen if seen > 1 else 1)
        if w > floor:
            floor = w
        c_ltm = log2(1.0 / floor) if floor != 0.0 else inf
        pre_position = self.stack.observe(symbol)

        novelty = pre_position is None
        if novelty:
            self._seen.add(symbol)  # only a novelty can be a new symbol
            c_stm = inf
            u_raw = u_clamped = None
            flag = self.detector.flag  # detector not updated by novelties
        else:
            c_stm = log2(pre_position)
            u_raw = c_ltm - c_stm
            u_clamped = 0.0 if u_raw < 0.0 else u_raw  # max(u_raw, 0.0) without a call
            if isfinite(u_clamped) and events_seen >= self.warmup:
                flag = self.detector.update(u_clamped)
            else:
                # Detector is still arming, or ltm cost is infinite with
                # smoothing disabled; keep the EWMA clean either way.
                flag = self.detector.flag

        estimator.update(obs)
        self.last_t = t
        self.events_seen = events_seen = events_seen + 1
        if self._prune and events_seen % self._PRUNE_EVERY == 0:
            estimator.sweep(resolve_epsilon(self.config.epsilon, events_seen,
                                            len(self._seen)))
        # One C call: the constructor NamedTuple generates is Python code
        # that costs more than twice as much; fields and values are the same.
        return tuple.__new__(
            TraceRecord, (t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty, flag))

    def step_block(self, times: Iterable[int], symbols: Iterable[SymbolId],
                   lines: list, emit: str) -> None:
        """Score the events zip(times, symbols) as `step` scores their
        Observations and append each record's trace_to_jsonl or trace_to_csv
        line (`emit` "jsonl" or "csv") to `lines`, in one loop with the state
        in locals, written back on every exit. If event k raises
        ValidationError (Observation's message, or a column that ends first)
        or NonMonotonicTimeError, `lines` has gained the k - 1 lines before
        it and the engine is as after k - 1 `step` calls.

        Every line comes from the emit's line function in traceio, given
        the texts of the record's fields: a cost that is absent or infinite
        (c_stm of a novelty; c_ltm, u_raw and u_clamped when c_ltm is inf,
        as with epsilon "off") as the emit's absent text, and a common
        record's costs each formatted only where no equal text can be
        reused."""
        _require("emit", emit, str, "'jsonl' or 'csv'", _TRACE_LINES.__contains__)
        line, encode, absent = _TRACE_LINES[emit]
        # "%.6f" % log2(p) at index p, up to the deepest position met; not state.
        stm_texts = self.__dict__.setdefault("_stm_texts", [None, "0.000000"])
        stack, estimator, detector = self.stack, self.estimator, self.detector
        # The state held in locals; the containers change in place.
        seen = self._seen
        last_t, events_seen, n_seen = self.last_t, self.events_seen, len(seen)
        stamp_of, stamps, stacked = stack._stamp_of, stack._stamps, stack._symbols
        clock, capacity = stack._clock, stack.capacity
        ewma, hits = detector.ewma, detector.hits
        beta, theta, min_hits = detector.beta, detector.theta, detector.min_hits
        keep = 1.0 - beta
        fir = self.config.estimator == "fir"
        if fir:
            buffer, counts, window = estimator._buffer, estimator._counts, estimator.window
            pop_oldest = buffer.popleft
            add_newest = buffer.append
        else:
            entries, step, alpha = estimator._entries, estimator._step, estimator.alpha
            gain = 1.0 - alpha
        fixed_floor, warmup = self._fixed_floor, self.warmup
        prune, prune_every = self._prune, self._PRUNE_EVERY
        get_stamp, add = stamp_of.get, lines.append
        try:
            for t, symbol in zip(times, symbols, strict=True):
                if type(t) is not int or type(symbol) is not str or t < 0:
                    Observation(t, symbol)  # raises the one message for it
                if last_t is not None and t <= last_t:
                    raise NonMonotonicTimeError(
                        f"time {t} does not increase past {last_t}")
                # Measure against the state before this event, as step does.
                if fir:
                    w = counts.get(symbol, 0) / window
                else:
                    entry = entries.get(symbol)
                    w = 0.0 if entry is None else entry[0] * alpha ** (step - entry[1])
                floor = fixed_floor
                if floor is None:
                    floor = events_seen + n_seen
                    floor = 1.0 / (floor if floor > 1 else 1)
                if w > floor:
                    floor = w
                c_ltm = log2(1.0 / floor) if floor != 0.0 else inf
                # StmStack.observe
                stamp = get_stamp(symbol)
                if stamp == clock:
                    position = 1
                else:
                    clock += 1
                    stamp_of[symbol] = clock
                    if stamp is None:
                        position = None
                        if capacity is not None and len(stamps) >= capacity:
                            del stamps[0]
                            del stamp_of[stacked.pop(0)]
                    else:
                        index = bisect_left(stamps, stamp)
                        position = len(stamps) - index
                        del stamps[index]
                        del stacked[index]
                    stamps.append(clock)
                    stacked.append(symbol)
                if position is None:
                    seen.add(symbol)
                    n_seen = len(seen)
                    add(line(t, encode(symbol), absent,
                             ("%.6f" % c_ltm) if c_ltm < inf else absent, absent,
                             absent, "true", "true" if hits >= min_hits else "false"))
                else:
                    c_stm = log2(position)
                    u_raw = c_ltm - c_stm
                    u_clamped = 0.0 if u_raw < 0.0 else u_raw
                    if not isfinite(u_clamped):  # c_ltm is inf: no update
                        add(line(t, encode(symbol), "%.6f" % c_stm, absent, absent,
                                 absent, "false", "true" if hits >= min_hits else "false"))
                    else:
                        if events_seen >= warmup:  # ChangeDetector.update
                            ewma = keep * u_clamped + beta * ewma
                            hits = hits + 1 if ewma > theta else 0
                        # The texts are exact: c_stm is log2(position), whose
                        # text stm_texts keeps; at position 1 it is +0.0, and
                        # x - +0.0 is x for every float, so u_raw is c_ltm to
                        # the bit; u_clamped is u_raw itself if u_raw >= 0.
                        u_text = ltm_text = "%.6f" % c_ltm
                        if position != 1:
                            u_text = "%.6f" % u_raw
                            while len(stm_texts) <= position:  # deepest yet
                                stm_texts.append("%.6f" % log2(len(stm_texts)))
                        add(line(t, encode(symbol), stm_texts[position], ltm_text,
                                 u_text, u_text if u_raw >= 0.0 else "0.000000",
                                 "false", "true" if hits >= min_hits else "false"))
                if fir:  # FirEstimator.update
                    if len(buffer) == window:
                        old = pop_oldest()
                        left = counts[old] - 1
                        if left:
                            counts[old] = left
                        else:
                            del counts[old]
                    add_newest(symbol)
                    counts[symbol] = counts.get(symbol, 0) + 1
                else:  # IirEstimator.update, with the rate w above
                    step += 1
                    if entry is None:
                        entries[symbol] = [gain + alpha * w, step]
                    else:
                        entry[0] = gain + alpha * w
                        entry[1] = step
                last_t = t
                events_seen += 1
                if prune and events_seen % prune_every == 0:
                    estimator._step = step
                    estimator.sweep(resolve_epsilon(self.config.epsilon, events_seen,
                                                    n_seen))
        except ValueError as exc:  # zip's strict check, or a caller's iterator
            if not str(exc).startswith("zip() argument"):
                raise
            raise ValidationError(f"times and symbols differ in length: {exc}") from None
        finally:
            self.last_t, self.events_seen = last_t, events_seen
            stack._clock = clock
            detector.ewma, detector.hits = ewma, hits
            if not fir:
                estimator._step = step
                estimator._kept_symbol = _NOTHING  # its kept rate is stale

    # -- snapshots ---------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable state; restoring replays bit-identically. Only
        `stack` and `seen_off_stack` name a symbol; the estimator's state
        gives each by its position in their concatenation, `order`. The one
        writer of the format: `restore` takes each part's keys from it."""
        stack = self.stack.items()
        # Empty unless a bounded stack has evicted symbols.
        off_stack = sorted(self._seen.difference(stack))
        order = stack + off_stack
        if self.config.estimator == "fir":
            position = dict(zip(order, range(len(order))))
            state = {"buffer": [position[symbol] for symbol in self.estimator._buffer]}
        else:  # null where a prune sweep forgot the rate; step is events_seen
            get = self.estimator._entries.get
            entries = [get(symbol, (None, None)) for symbol in order]
            state = {"w": [rate for rate, _ in entries],
                     "w_step": [step for _, step in entries]}
        return {
            "format_version": SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "last_t": self.last_t,
            "events_seen": self.events_seen,
            "seen_off_stack": off_stack,
            "stack": stack,
            "estimator": state,
            "detector": {"ewma": self.detector.ewma, "hits": self.detector.hits},
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "Engine":
        """Rebuild an engine from `snapshot()`'s state; every fault is a
        VersionMismatchError. The checks live in `unexpect.restore`,
        loaded on the first call, so that `track` never compiles them."""
        from .restore import restore

        return restore(cls, snapshot)

    def snapshot_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def restore_json(cls, text: str) -> "Engine":
        """`restore` of a `snapshot_json()` text."""
        from .restore import restore_json

        return restore_json(cls, text)


def run_stream(
    events: Iterable[Observation], config: Optional[EngineConfig] = None
) -> Iterator[TraceRecord]:
    """Fold an engine over time-ordered events; deterministic."""
    engine = Engine(config)
    for i, obs in enumerate(events):
        try:
            yield engine.step(obs)
        except NonMonotonicTimeError as exc:
            raise NonMonotonicTimeError(f"event {i + 1}: {exc}") from None
