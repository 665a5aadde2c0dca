import json
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from unexpect.core import DiscreteDistribution, InvalidSpecError
from unexpect.simgen import (
    SourceSpec,
    SplitMix64,
    _stream,
    generate,
    stationary_distribution,
    zipf_distribution,
)


def spec_stationary(mass, seed=0, length=1000, symbols=None):
    symbols = symbols or tuple(chr(ord("A") + i) for i in range(len(mass)))
    return SourceSpec(
        kind="stationary", length=length, seed=seed,
        distribution=DiscreteDistribution(symbols, mass),
    )


class TestSplitMix64:
    def test_known_sequence_from_zero_seed(self):
        # published test vector for the 64-bit golden-gamma mixer
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(123)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)


class TestDeterminism:
    def test_identical_specs_identical_streams(self):
        spec = spec_stationary((0.5, 0.3, 0.2), seed=42)
        a = [(o.t, o.symbol) for o in generate(spec)]
        b = [(o.t, o.symbol) for o in generate(spec)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [o.symbol for o in generate(spec_stationary((0.5, 0.5), seed=1))]
        b = [o.symbol for o in generate(spec_stationary((0.5, 0.5), seed=2))]
        assert a != b


class TestStationary:
    def test_single_symbol_is_constant(self):
        stream = list(generate(spec_stationary((1.0,), length=50)))
        assert {o.symbol for o in stream} == {"A"}
        assert [o.t for o in stream] == list(range(50))

    def test_frequencies_pass_chi_square(self):
        mass = (0.5, 0.3, 0.15, 0.05)
        spec = spec_stationary(mass, seed=7, length=100_000)
        counts = Counter(o.symbol for o in generate(spec))
        observed = [counts[s] for s in spec.distribution.support]
        expected = [m * spec.length for m in mass]
        assert chisquare(observed, expected).pvalue > 0.001


class TestChangepoint:
    def test_distribution_switches_at_t_star(self):
        spec = SourceSpec(
            kind="changepoint", length=4000, seed=3, t_star=2000,
            distribution=DiscreteDistribution(("A", "B"), (1.0, 0.0)),
            distribution_after=DiscreteDistribution(("A", "B"), (0.0, 1.0)),
        )
        stream = list(generate(spec))
        assert all(o.symbol == "A" for o in stream[:2000])
        assert all(o.symbol == "B" for o in stream[2000:])


class TestBifurcation:
    def test_each_run_stays_in_one_block(self):
        seen_blocks = set()
        for seed in range(20):
            spec = SourceSpec(
                kind="bifurcation", length=400, seed=seed, base_labels=10,
                offset_values=(0, 100), offset_mass=(0.5, 0.5),
            )
            support = {int(o.symbol) for o in generate(spec)}
            low = {v for v in support if v < 100}
            high = {v for v in support if v >= 100}
            # time average disagrees with the ensemble: one block per run
            assert not (low and high)
            assert support <= set(range(10)) or support <= set(range(100, 110))
            seen_blocks.add("low" if low else "high")
        assert seen_blocks == {"low", "high"}  # the ensemble uses both


class TestBifurcationIsInvisibleWithinARun:
    def test_engine_stays_calm_inside_each_run(self):
        # a once-drawn offset breaks ergodicity across runs, but each
        # single run is stationary, so surprise tracking (which only
        # ever sees one run) has nothing to flag: a documented negative
        # result, not a detector gap to engineer around
        import statistics

        from unexpect.engine import Engine, EngineConfig

        for seed in range(6):
            spec = SourceSpec(
                kind="bifurcation", length=12_000, seed=seed,
                base_labels=2, base_mass=(0.75, 0.25),
                offset_values=(0, 100), offset_mass=(0.5, 0.5),
            )
            engine = Engine(EngineConfig())
            tail = []
            for obs in generate(spec):
                record = engine.step(obs)
                assert not record.change_flag
                if record.u_raw is not None and obs.t >= 4_000:
                    tail.append(record.u_raw)
            assert 0.0 <= statistics.fmean(tail) < 0.7


class TestZipf:
    def test_four_symbol_masses(self):
        dist = zipf_distribution(4, 1.0)
        assert dist.mass == pytest.approx((0.48, 0.24, 0.16, 0.12), abs=1e-12)

    def test_exponent_sharpens_head(self):
        flat = zipf_distribution(8, 0.5).mass[0]
        sharp = zipf_distribution(8, 2.0).mass[0]
        assert sharp > flat

    def test_generate_uses_rank_labels(self):
        spec = SourceSpec(kind="zipf", length=200, seed=5, alphabet=4)
        assert {o.symbol for o in generate(spec)} <= {"0", "1", "2", "3"}


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            SourceSpec(kind="markov", length=10, seed=0)

    def test_changepoint_needs_t_star_before_end(self):
        with pytest.raises(InvalidSpecError):
            SourceSpec(
                kind="changepoint", length=10, seed=0, t_star=10,
                distribution=DiscreteDistribution(("A",), (1.0,)),
                distribution_after=DiscreteDistribution(("A",), (1.0,)),
            )

    def test_bifurcation_needs_offsets(self):
        with pytest.raises(InvalidSpecError):
            SourceSpec(kind="bifurcation", length=10, seed=0, base_labels=4)

    @pytest.mark.parametrize("spec", [
        spec_stationary((0.5, 0.3, 0.2), seed=4, length=100),
        SourceSpec(
            kind="changepoint", length=100, seed=9, t_star=50,
            distribution=DiscreteDistribution(("x", "y"), (0.75, 0.25)),
            distribution_after=DiscreteDistribution(("x", "y"), (0.25, 0.75)),
        ),
        SourceSpec(kind="bifurcation", length=100, seed=3, base_labels=3,
                   offset_values=(0, 10), offset_mass=(0.5, 0.5)),
        SourceSpec(kind="bifurcation", length=100, seed=3, base_labels=3,
                   base_mass=(0.5, 0.25, 0.25), offset_values=(0, 10),
                   offset_mass=(0.75, 0.25)),
        SourceSpec(kind="zipf", length=100, seed=6, alphabet=50, exponent=1.5),
    ], ids=["stationary", "changepoint", "bifurcation", "bifurcation-base-mass",
            "zipf"])
    def test_json_round_trip(self, spec):
        again = SourceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert [o.symbol for o in generate(again)] == [
            o.symbol for o in generate(spec)
        ]

    def test_stationary_distribution_helper(self):
        spec = spec_stationary((0.5, 0.5))
        assert stationary_distribution(spec) == spec.distribution
        bif = SourceSpec(
            kind="bifurcation", length=10, seed=0, base_labels=2,
            offset_values=(0,), offset_mass=(1.0,),
        )
        with pytest.raises(InvalidSpecError):
            stationary_distribution(bif)


def ref_generate(spec):
    """The stream as (t, symbol) pairs, one sampler call per event: the
    inverse CDF `bisect_right(cum, rng.next_float())`, clamped by
    `min(idx, n - 1)`, with the top of `cum` set to 1.0."""
    rng = SplitMix64(spec.seed)

    def sampler(dist):
        cum = list(accumulate(dist.mass))
        cum[-1] = 1.0
        return lambda: dist.support[min(bisect_right(cum, rng.next_float()),
                                         len(cum) - 1)]

    n = spec.length
    if spec.kind == "changepoint":
        before, after = sampler(spec.distribution), sampler(spec.distribution_after)
        symbols = [(before if t < spec.t_star else after)() for t in range(n)]
    elif spec.kind == "bifurcation":
        offset = int(sampler(spec._offset_distribution())())
        base = sampler(spec._base_distribution())
        symbols = [str(int(base()) + offset) for _ in range(n)]
    else:
        draw = sampler(stationary_distribution(spec))
        symbols = [draw() for _ in range(n)]
    return list(enumerate(symbols))


@st.composite
def masses(draw, n):
    """n masses summing to 1 within the tolerance: zeros allowed, and the
    running sum may fall short of 1 at the top."""
    weights = draw(st.lists(st.sampled_from([0.0, 1e-12, 0.1, 0.3, 1.0, 7.0]),
                            min_size=n, max_size=n).filter(any))
    total = sum(weights)
    short = draw(st.sampled_from([1.0, 1.0 - 5e-10]))
    return tuple(w / total * short for w in weights)


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(["stationary", "changepoint", "bifurcation", "zipf"]))
    length = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**64 - 1))
    if kind == "zipf":
        return SourceSpec(kind, length, seed, alphabet=draw(st.integers(1, 40)),
                          exponent=draw(st.sampled_from([0.5, 1.0, 2.5])))
    if kind == "bifurcation":
        labels = draw(st.integers(1, 6))
        values = draw(st.lists(st.integers(-50, 1000), min_size=1, max_size=4,
                               unique=True))
        return SourceSpec(
            kind, length, seed, base_labels=labels,
            base_mass=draw(st.none() | masses(labels)),
            offset_values=tuple(values), offset_mass=draw(masses(len(values))))
    n = draw(st.integers(1, 6))
    symbols = tuple("abcdef"[:n])
    if kind == "stationary":
        return SourceSpec(kind, length, seed,
                          distribution=DiscreteDistribution(symbols, draw(masses(n))))
    return SourceSpec(
        kind, length, seed, t_star=draw(st.integers(0, max(length - 1, 0))),
        distribution=DiscreteDistribution(symbols, draw(masses(n))),
        distribution_after=DiscreteDistribution(symbols, draw(masses(n))))


ONE = DiscreteDistribution(("a",), (1.0,))
SHORT = DiscreteDistribution(("a", "b", "c"), (0.1, 0.2, 0.7 - 5e-10))


@settings(max_examples=300, deadline=None)
@given(specs())
@example(SourceSpec("stationary", 0, 3, distribution=SHORT))
@example(SourceSpec("stationary", 1, 3, distribution=ONE))
@example(SourceSpec("changepoint", 0, 1, distribution=ONE, distribution_after=ONE,
                    t_star=0))
@example(SourceSpec("changepoint", 1, 1, distribution=SHORT, distribution_after=ONE,
                    t_star=0))
@example(SourceSpec("changepoint", 50, 2, distribution=ONE, distribution_after=SHORT,
                    t_star=0))
@example(SourceSpec("bifurcation", 1, 4, base_labels=1, offset_values=(7,),
                    offset_mass=(1.0,)))
@example(SourceSpec("bifurcation", 0, 4, base_labels=3, offset_values=(0, 9),
                    offset_mass=(0.5, 0.5)))
@example(SourceSpec("zipf", 1, 5, alphabet=1))
@example(SourceSpec("zipf", 0, 5, alphabet=10))
def test_stream_matches_one_draw_per_call(spec):
    """The draw loop of `_stream`, and `generate` over it, give the stream
    of a per-draw sampler, for every kind."""
    expected = ref_generate(spec)
    assert [(o.t, o.symbol) for o in generate(spec)] == expected
    assert list(_stream(spec)) == [symbol for _, symbol in expected]
