"""A naive reference scorer, exact in the current snapshot format.

The differential tests in ``test_engine.py`` step it beside the
package's ``Engine`` and compare records to the bit, trace lines,
refusals and snapshot JSON. It is written for reading, not speed: a
Python list for the move-to-front stack, a dict of ``[stored rate,
step]`` per symbol for the IIR, a deque for the FIR window, and the
smoothing floor, the detector and the prune sweep written out once
each. Its IIR rates use the engine's expressions, lazy decay
``stored * alpha ** (events_seen - step)`` and the update ``(1 - alpha)
+ alpha * w``, so they match the engine's with no tolerance.

``RefTraceRecord`` and ``ref_trace_to_jsonl``/``ref_trace_to_csv``
are the record and serializers from before the engine was made lean:
a frozen dataclass, its fields rendered one by one.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from unexpect.core import NonMonotonicTimeError
from unexpect.engine import EngineConfig
from unexpect.traceio import _csv_field

SNAPSHOT_VERSION = 4


@dataclass(frozen=True, slots=True)
class RefTraceRecord:
    t: int
    symbol: str
    c_stm: float
    c_ltm: float
    u_raw: Optional[float]
    u_clamped: Optional[float]
    novelty: bool
    change_flag: bool


def ref_num(value: Optional[float]) -> Optional[str]:
    if value is None or not math.isfinite(value):
        return None
    return f"{value:.6f}"


def ref_trace_to_jsonl(record) -> str:
    parts = [f'"t": {record.t}', f'"symbol": {json.dumps(record.symbol)}']
    for name in ("c_stm", "c_ltm", "u_raw", "u_clamped"):
        rendered = ref_num(getattr(record, name))
        parts.append(f'"{name}": {rendered if rendered is not None else "null"}')
    parts.append(f'"novelty": {"true" if record.novelty else "false"}')
    parts.append(f'"change_flag": {"true" if record.change_flag else "false"}')
    return "{" + ", ".join(parts) + "}"


def ref_trace_to_csv(record) -> str:
    cells = [str(record.t), _csv_field(record.symbol)]
    for name in ("c_stm", "c_ltm", "u_raw", "u_clamped"):
        cells.append(ref_num(getattr(record, name)) or "")
    cells.append("true" if record.novelty else "false")
    cells.append("true" if record.change_flag else "false")
    return ",".join(cells)


class Reference:
    """One stream scored event by event, as ``Engine.step`` scores it,
    with an IIR prune sweep every ``prune_every`` events."""

    def __init__(self, config: EngineConfig, prune_every: int = 1024):
        self.config = config
        self.prune_every = prune_every
        self.last_t: Optional[int] = None
        self.events_seen = 0
        self.seen: set[str] = set()  # every symbol ever scored
        self.stack: list[str] = []  # top first
        self.rates: dict[str, list] = {}  # IIR: symbol -> [stored rate, step]
        self.window: deque[str] = deque(maxlen=config.window)  # FIR, oldest first
        self.ewma, self.hits = 0.0, 0

    def floor(self) -> float:
        """The smoothing floor after the events scored so far."""
        epsilon = self.config.epsilon
        if epsilon == "auto":
            return 1.0 / max(self.events_seen + len(self.seen), 1)
        return 0.0 if epsilon == "off" else float(epsilon)

    def w(self, symbol: str) -> float:
        """The estimator's rate of `symbol` after the events scored so far."""
        if self.config.estimator == "fir":
            return self.window.count(symbol) / self.config.window
        if symbol not in self.rates:
            return 0.0
        stored, step = self.rates[symbol]
        return stored * self.config.alpha ** (self.events_seen - step)

    def update(self, symbol: str) -> None:
        """The estimator learns `symbol`; the event count moves on."""
        if self.config.estimator == "fir":
            self.window.append(symbol)  # drops the oldest from a full window
        else:
            alpha = self.config.alpha
            self.rates[symbol] = [(1.0 - alpha) + alpha * self.w(symbol),
                                  self.events_seen + 1]
        self.events_seen += 1

    def sweep(self, floor: float) -> None:
        """Forget each IIR rate under floor / 2; a floor of 0 keeps all."""
        if floor > 0.0:
            for symbol in [s for s in self.rates if self.w(s) < floor / 2.0]:
                del self.rates[symbol]

    def step(self, t: int, symbol: str) -> RefTraceRecord:
        """Score one event against the state before it, then learn it."""
        if self.last_t is not None and t <= self.last_t:
            raise NonMonotonicTimeError(
                f"time {t} does not increase past {self.last_t}")
        floored = max(self.w(symbol), self.floor())
        c_ltm = math.log2(1.0 / floored) if floored != 0.0 else math.inf
        novelty = symbol not in self.stack
        if novelty:
            self.stack.insert(0, symbol)
            capacity = self.config.capacity
            if capacity is not None and len(self.stack) > capacity:
                self.stack.pop()  # evict the bottom
            c_stm, u_raw, u_clamped = math.inf, None, None
        else:
            position = self.stack.index(symbol) + 1
            self.stack.remove(symbol)
            self.stack.insert(0, symbol)
            c_stm = math.log2(position)
            u_raw = c_ltm - c_stm
            u_clamped = max(u_raw, 0.0)
            # The detector is armed after the warm-up, and skips an
            # infinite u (epsilon off and a rate of 0).
            if (math.isfinite(u_clamped)
                    and self.events_seen >= self.config.resolved_warmup()):
                beta = self.config.beta
                self.ewma = (1.0 - beta) * u_clamped + beta * self.ewma
                self.hits = self.hits + 1 if self.ewma > self.config.theta else 0
        self.seen.add(symbol)
        self.update(symbol)
        self.last_t = t
        if (self.config.prune and self.config.estimator == "iir"
                and self.events_seen % self.prune_every == 0):
            self.sweep(self.floor())
        return RefTraceRecord(t, symbol, c_stm, c_ltm, u_raw, u_clamped, novelty,
                              self.hits >= self.config.min_hits)

    def snapshot_json(self) -> str:
        """The state as ``Engine.snapshot_json`` writes it. Only `stack`
        and `seen_off_stack` name a symbol; the estimator gives each by
        its position in their concatenation."""
        off_stack = sorted(self.seen.difference(self.stack))
        order = self.stack + off_stack
        if self.config.estimator == "fir":
            estimator = {"buffer": [order.index(s) for s in self.window]}
        else:  # null where a prune sweep forgot the rate
            entries = [self.rates.get(s, (None, None)) for s in order]
            estimator = {"w": [rate for rate, _ in entries],
                         "w_step": [step for _, step in entries]}
        return json.dumps({
            "format_version": SNAPSHOT_VERSION,
            "config": self.config.to_dict(),
            "last_t": self.last_t,
            "events_seen": self.events_seen,
            "seen_off_stack": off_stack,
            "stack": self.stack,
            "estimator": estimator,
            "detector": {"ewma": self.ewma, "hits": self.hits},
        }, sort_keys=True, separators=(",", ":"))
