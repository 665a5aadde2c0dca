"""The benchmark's timing proxies (bench/layers.py) against the engine.

``bench/run.py --trace 1`` swaps an engine's stack, estimator and
detector for forwarding proxies that time each call. This checks that
the engine still talks to its layers through the calls the proxies
wrap, so a traced pass scores exactly what a plain one does.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from unexpect.engine import Engine, EngineConfig, TraceRecord
from unexpect.simgen import SourceSpec, generate
from unexpect.tables import DiscreteDistribution

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

SHIFT4 = SourceSpec(
    kind="changepoint", length=600, seed=3, t_star=300,
    distribution=DiscreteDistribution("abcd", (0.7, 0.2, 0.05, 0.05)),
    distribution_after=DiscreteDistribution("abcd", (0.05, 0.05, 0.2, 0.7)),
)
ZIPF = SourceSpec(kind="zipf", length=600, seed=3, alphabet=40)


@pytest.mark.parametrize("spec, config, prune_every", [
    (SHIFT4, EngineConfig(alpha=0.9), None),
    (ZIPF, EngineConfig(estimator="fir", window=50, capacity=8), None),
    (ZIPF, EngineConfig(alpha=0.5, prune=True), 16),
], ids=["iir", "fir-capacity", "iir-prune"])
def test_traced_pass_scores_like_plain_steps(spec, config, prune_every):
    observations = list(generate(spec))
    plain, traced = Engine(config), Engine(config)
    if prune_every is not None:
        plain._PRUNE_EVERY = traced._PRUNE_EVERY = prune_every
    expected = [plain.step(obs) for obs in observations]

    records, metrics = layers.traced_pass(traced, observations)

    assert records == expected
    assert all(type(record) is TraceRecord for record in records + expected)
    assert traced.snapshot_json() == plain.snapshot_json()
    n = len(observations)
    assert metrics["estimators.calls"] == 2 * n  # one w and one update per event
    assert metrics["memory.stack.hits"] + metrics["memory.stack.novelties"] == n
    assert metrics["memory.stack.size"] == len(plain.stack)
    assert metrics["engine.detector.flagged_events"] == sum(
        r.change_flag for r in expected)
    # Every EWMA update goes through the detector proxy.
    warmup = config.resolved_warmup()
    assert metrics["engine.detector.updates"] == sum(
        not r.novelty and math.isfinite(r.u_clamped)
        for r in expected[warmup:])
    if config.capacity is not None:
        assert metrics["memory.stack.evictions"] > 0
