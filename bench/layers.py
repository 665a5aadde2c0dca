"""Forwarding timing proxies for the layers behind ``Engine.step``.

The traced pass swaps an engine's stack, estimator and detector for
these proxies, so ``Engine.step`` runs its own code and each call into
a layer is timed and counted here, in the benchmark's files. Every
attribute the proxies do not define is forwarded to the wrapped object.
The per-call ``perf_counter`` pairs cost time of their own; the run
reports that cost as ``trace.overhead``.
"""

from __future__ import annotations

from time import perf_counter


class _Proxy:
    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedStack(_Proxy):
    """Times ``observe``; counts hits, novelties and the depths of hits."""

    def __init__(self, inner):
        super().__init__(inner)
        self.busy_s = 0.0
        self.hits = 0
        self.novelties = 0
        self.depth_sum = 0

    def observe(self, symbol):
        start = perf_counter()
        position = self._inner.observe(symbol)
        self.busy_s += perf_counter() - start
        if position is None:
            self.novelties += 1
        else:
            self.hits += 1
            self.depth_sum += position
        return position


class TimedEstimator(_Proxy):
    """Times ``w`` and ``update`` separately; counts calls to both."""

    def __init__(self, inner):
        super().__init__(inner)
        self.w_busy_s = 0.0
        self.update_busy_s = 0.0
        self.calls = 0

    # Engine.step reads these on every event; plain properties keep them
    # off the slow __getattr__ path.
    @property
    def events_seen(self):
        return self._inner.events_seen

    @property
    def alphabet_size(self):
        return self._inner.alphabet_size

    def w(self, symbol):
        start = perf_counter()
        rate = self._inner.w(symbol)
        self.w_busy_s += perf_counter() - start
        self.calls += 1
        return rate

    def update(self, obs):
        start = perf_counter()
        self._inner.update(obs)
        self.update_busy_s += perf_counter() - start
        self.calls += 1


class TimedDetector(_Proxy):
    """Times ``update``; counts the EWMA updates that reach it."""

    def __init__(self, inner):
        super().__init__(inner)
        self.busy_s = 0.0
        self.updates = 0

    @property
    def flag(self):
        return self._inner.flag

    def update(self, u_clamped):
        start = perf_counter()
        flag = self._inner.update(u_clamped)
        self.busy_s += perf_counter() - start
        self.updates += 1
        return flag


def timed_steps(engine, observations):
    """Step the engine over observations, timing each step on its own.

    Returns (records, per-step seconds).
    """
    step = engine.step
    records = []
    durations = []
    for obs in observations:
        start = perf_counter()
        record = step(obs)
        durations.append(perf_counter() - start)
        records.append(record)
    return records, durations


def traced_pass(engine, observations) -> tuple[list, dict]:
    """Run ``timed_steps`` with every layer proxied; return records and metrics."""
    size_before = len(engine.stack)
    stack = engine.stack = TimedStack(engine.stack)
    estimator = engine.estimator = TimedEstimator(engine.estimator)
    detector = engine.detector = TimedDetector(engine.detector)
    try:
        records, durations = timed_steps(engine, observations)
    finally:
        engine.stack = stack._inner
        engine.estimator = estimator._inner
        engine.detector = detector._inner
    step_s = sum(durations)
    children_s = (stack.busy_s + estimator.w_busy_s + estimator.update_busy_s
                  + detector.busy_s)
    flagged = [r.t for r in records if r.change_flag]
    metrics = {
        "memory.stack.busy_s": stack.busy_s,
        "memory.stack.hits": stack.hits,
        "memory.stack.novelties": stack.novelties,
        # Each novelty adds one symbol unless it evicts the bottom one.
        "memory.stack.evictions":
            stack.novelties - (len(engine.stack) - size_before),
        "memory.stack.size": len(engine.stack),
        "memory.stack.depth_sum": stack.depth_sum,
        "estimators.w.busy_s": estimator.w_busy_s,
        "estimators.update.busy_s": estimator.update_busy_s,
        "estimators.calls": estimator.calls,
        "estimators.entries": len(engine.estimator.tracked_symbols()),
        "engine.detector.busy_s": detector.busy_s,
        "engine.detector.updates": detector.updates,
        "engine.detector.flagged_events": len(flagged),
        "engine.detector.first_flag_t": flagged[0] if flagged else -1,
        "engine.step.busy_s": step_s,
        "engine.step.self_s": step_s - children_s,
    }
    return records, metrics
