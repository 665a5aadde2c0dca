import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unexpect.core import ValidationError
from unexpect.engine import Engine, EngineConfig
from unexpect.estimators import FirEstimator, IirEstimator, resolve_epsilon
from unexpect.memory import Observation

symbols = st.sampled_from(["A", "B", "C"])


def feed(estimator, stream):
    for t, sym in enumerate(stream):
        estimator.update(Observation(t, sym))


def last_c_ltm(stream, **config):
    """The c_ltm of the last event of stream, from Engine.step: the one
    place that turns a rate into a cost."""
    engine = Engine(EngineConfig(**config))
    for t, sym in enumerate(stream):
        record = engine.step(Observation(t, sym))
    return record.c_ltm


class TestLtmComplexity:
    """c_ltm = log2(1 / max(w, floor)), with w read before the update."""

    def test_certain_symbol_is_free(self):
        # Window 2 over A, A: w(A) = 1 at the third A.
        assert last_c_ltm("AAA", estimator="fir", window=2, epsilon="off") == 0.0

    def test_quarter(self):
        assert last_c_ltm("ABCDA", estimator="fir", window=4, epsilon="off") == 2.0

    def test_floor_caps_unseen_cost(self):
        assert last_c_ltm("AB", epsilon=2.0 ** -20) == 20.0

    def test_unsmoothed_zero_is_infinite(self):
        assert last_c_ltm("AB", epsilon="off") == math.inf


class TestResolveEpsilon:
    def test_auto_shrinks_with_history(self):
        assert resolve_epsilon("auto", 0, 0) == 1.0
        assert resolve_epsilon("auto", 99, 1) == 0.01

    def test_off_disables(self):
        assert resolve_epsilon("off", 100, 5) == 0.0

    def test_explicit_float(self):
        assert resolve_epsilon(0.125, 100, 5) == 0.125


class TestFirEstimator:
    def test_window_average(self):
        fir = FirEstimator(4)
        feed(fir, ["A", "B", "A", "B"])
        assert fir.w("A") == 0.5
        assert fir.w("B") == 0.5

    def test_rates_partition_full_window_exactly(self):
        fir = FirEstimator(8)
        feed(fir, ["A", "B", "A", "C", "A", "B", "C", "A", "B", "C"])
        total = sum(fir.w(sym) for sym in fir.tracked_symbols())
        assert total == 1.0  # dyadic window keeps the division exact

    def test_partial_window_sums_to_fraction_seen(self):
        fir = FirEstimator(10)
        feed(fir, ["A", "B"])
        total = math.fsum(fir.w(s) for s in fir.tracked_symbols())
        assert total == pytest.approx(0.2, abs=1e-12)

    def test_symbol_slides_out_of_window(self):
        fir = FirEstimator(2)
        feed(fir, ["A", "B", "C"])
        assert fir.w("A") == 0.0
        assert "A" not in fir.tracked_symbols()

    @pytest.mark.parametrize("window", [2.5, 2.0, True, "4", None, 0, -1])
    def test_rejects_a_window_that_is_no_positive_integer(self, window):
        # A float window of 2.5 never fills (len(buffer) == 2.5 never holds),
        # so the buffer grew without end.
        with pytest.raises(ValidationError) as info:
            FirEstimator(window)
        assert info.value.field == "window"

    @given(st.lists(symbols, max_size=50), st.integers(min_value=1, max_value=8))
    def test_matches_recount_oracle(self, stream, window):
        fir = FirEstimator(window)
        feed(fir, stream)
        tail = stream[-window:]
        for sym in "ABC":
            assert fir.w(sym) == tail.count(sym) / window


class TestIirEstimator:
    def test_first_update_from_zero(self):
        iir = IirEstimator(0.9)
        iir.update(Observation(0, "A"))
        assert iir.w("A") == pytest.approx(0.1, abs=1e-12)

    def test_run_of_matches_has_closed_form(self):
        iir = IirEstimator(0.9)
        feed(iir, ["A"] * 7)
        assert iir.w("A") == pytest.approx(1 - 0.9 ** 7, rel=1e-12)

    def test_unobserved_symbol_decays(self):
        iir = IirEstimator(0.5)
        feed(iir, ["A", "B", "B"])
        # w(A) = (1-alpha) decayed twice
        assert iir.w("A") == pytest.approx(0.5 ** 3, rel=1e-12)

    def test_rates_approach_one(self):
        iir = IirEstimator(0.9)
        feed(iir, ["A", "B", "C"] * 30)
        total = math.fsum(iir.w(s) for s in iir.tracked_symbols())
        assert total == pytest.approx(1 - 0.9 ** 90, rel=1e-9)

    def test_rejects_bad_alpha(self):
        # The type is checked first: a str or None is no TypeError.
        for bad in (0.0, 1.0, -0.2, 0, 1, math.nan, "0.5", None, True):
            with pytest.raises(ValidationError) as info:
                IirEstimator(bad)
            assert info.value.field == "alpha"
        with pytest.raises(ValidationError, match=r"^alpha must be in \(0, 1\), got 1.5$"):
            IirEstimator(1.5)

    def test_pruning_drops_faded_symbols(self):
        iir = IirEstimator(0.5)
        feed(iir, ["A"] + ["B"] * 7)
        iir.sweep(0.01)  # w(A) = 0.5 ** 8 < 0.005
        assert "A" not in iir.tracked_symbols()
        assert iir.w("A") == 0.0
        assert "B" in iir.tracked_symbols()
        iir.sweep(0.0)  # a zero floor keeps every rate
        assert iir.tracked_symbols() == ["B"]

    @given(
        st.lists(symbols, max_size=60),
        st.sampled_from([0.5, 0.9, 0.99]),
    )
    def test_lazy_decay_matches_dense_recurrence(self, stream, alpha):
        iir = IirEstimator(alpha)
        dense: dict[str, float] = {}
        for t, sym in enumerate(stream):
            iir.update(Observation(t, sym))
            for tracked in set(dense) | {sym}:
                indicator = 1.0 if tracked == sym else 0.0
                dense[tracked] = (1 - alpha) * indicator + alpha * dense.get(tracked, 0.0)
        for sym in "ABC":
            assert iir.w(sym) == pytest.approx(dense.get(sym, 0.0), abs=1e-12)


class TestJensenGap:
    def test_log_of_mean_depth_bounds_mean_log_depth_tightly(self):
        # on a stationary source the average retrieval cost sits under
        # log2(1 + mean depth) by Jensen, and within half a bit of it
        # for symbols with p >= 0.05 (positions concentrate); this is
        # why u stays near zero once the rates converge
        import math
        import statistics

        from unexpect.tables import DiscreteDistribution
        from unexpect.memory import StmStack
        from unexpect.simgen import SourceSpec, generate

        mass = (0.4, 0.25, 0.15, 0.1, 0.05, 0.05)
        support = tuple("ABCDEF")
        spec = SourceSpec(kind="stationary", length=60_000, seed=3,
                          distribution=DiscreteDistribution(support, mass))
        stack = StmStack()
        log_costs = {s: [] for s in support}
        depths = {s: [] for s in support}
        for obs in generate(spec):
            pre = stack.observe(obs.symbol)
            if pre is not None:
                log_costs[obs.symbol].append(math.log2(pre))
                depths[obs.symbol].append(pre - 1)
        for sym in support:
            mean_log = statistics.fmean(log_costs[sym])
            bound = math.log2(1.0 + statistics.fmean(depths[sym]))
            assert mean_log <= bound + 1e-9
            assert bound - mean_log < 0.5

