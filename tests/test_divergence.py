import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unexpect.core import (
    ImproperDistributionError,
    KraftViolationError,
    SupportMismatchError,
    ValidationError,
)
from unexpect.divergence import (
    MachinePair,
    cross_entropy,
    divergences,
    entropy,
    kl,
    memory_cost_ordered,
    memory_cost_unordered,
    normalized_mind,
    soundness_completeness,
    variety,
    variety_hat,
    variety_star,
)
from unexpect.simgen import SplitMix64
from unexpect.tables import (
    CodeLengthTable,
    DiscreteDistribution,
    bits_from_probability,
)


def dist(*mass, prefix="s"):
    return DiscreteDistribution(
        tuple(f"{prefix}{i}" for i in range(len(mass))), mass
    )


def optimal_mind(world):
    return CodeLengthTable(
        world.support, tuple(bits_from_probability(m) for m in world.mass)
    )


def random_pair(rng, max_size=64):
    n = 2 + rng.next_u64() % (max_size - 1)
    support = tuple(f"s{i}" for i in range(n))

    def masses():
        raw = [-math.log(1.0 - rng.next_float()) + 1e-12 for _ in range(n)]
        total = math.fsum(raw)
        return tuple(v / total for v in raw)

    world = DiscreteDistribution(support, masses())
    mind = CodeLengthTable(
        support, tuple(bits_from_probability(m) for m in masses())
    )
    return MachinePair(world, mind)


class TestEntropyFamily:
    def test_uniform_eight(self):
        assert entropy(dist(*[0.125] * 8)) == pytest.approx(3.0, abs=1e-12)

    def test_zero_mass_contributes_nothing(self):
        assert entropy(dist(1.0, 0.0)) == 0.0

    def test_kl_of_self_is_zero(self):
        p = dist(0.6, 0.3, 0.1)
        assert kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_example(self):
        p, q = dist(0.75, 0.25), dist(0.5, 0.5)
        assert kl(p, q) == pytest.approx(0.18872187554086717, abs=1e-9)

    def test_kl_is_cross_entropy_minus_entropy(self):
        p, q = dist(0.6, 0.3, 0.1), dist(0.2, 0.5, 0.3)
        assert kl(p, q) == pytest.approx(
            cross_entropy(p, q) - entropy(p), abs=1e-12
        )

    def test_missing_model_mass_is_infinite_with_warning(self):
        p, q = dist(0.5, 0.5), dist(1.0, 0.0)
        with pytest.warns(UserWarning):
            assert cross_entropy(p, q) == math.inf

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            cross_entropy(dist(1.0), dist(1.0, prefix="t"))

    def test_alignment_is_by_symbol_not_position(self):
        p = DiscreteDistribution(("a", "b"), (0.75, 0.25))
        q = DiscreteDistribution(("b", "a"), (0.25, 0.75))
        assert kl(p, q) == pytest.approx(0.0, abs=1e-12)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_gibbs_inequality(self, seed):
        rng = SplitMix64(seed)
        pair = random_pair(rng, max_size=16)
        q = DiscreteDistribution(
            pair.world.support,
            tuple(2.0 ** -b for b in pair.mind.length),
        )
        assert kl(pair.world, q) >= -1e-12


class TestVariety:
    def test_classic(self):
        assert variety(8) == 3.0
        with pytest.raises(ValidationError):
            variety(0)

    def test_uniform_average_of_lengths(self):
        table = CodeLengthTable(("a", "b", "c"), (1.0, 2.0, 2.0))
        assert variety_hat(table) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_description_weighted_average(self):
        table = CodeLengthTable(("a", "b", "c"), (1.0, 2.0, 2.0))
        assert variety_star(table) == pytest.approx(1.5, abs=1e-12)

    def test_entropy_never_exceeds_variety(self):
        rng = SplitMix64(5)
        for _ in range(200):
            pair = random_pair(rng, max_size=32)
            assert entropy(pair.world) <= variety(len(pair.world)) + 1e-12

    def test_entropy_equals_variety_iff_uniform(self):
        uniform = dist(*[0.25] * 4)
        assert entropy(uniform) == pytest.approx(variety(4), abs=1e-12)
        skewed = dist(0.7, 0.1, 0.1, 0.1)
        assert entropy(skewed) < variety(4) - 0.1


class TestMemoryCost:
    def test_unordered_four(self):
        assert memory_cost_unordered(4) == 8.0

    def test_ordered_four_exact(self):
        assert memory_cost_ordered(4) == pytest.approx(
            math.log2(24) + 2.0, abs=1e-9
        )

    def test_ordered_tracks_factorial_exactly_for_small_n(self):
        for n in range(1, 20):
            exact = math.log2(math.factorial(n)) + math.log2(n)
            assert memory_cost_ordered(n) == pytest.approx(exact, rel=1e-12)

    def test_ratio_at_desk_scale(self):
        # the ordered/unordered ratio converges to 1 only like
        # 1 - log2(e)/log2(N); at N = 2**20 it sits near 0.928
        n = 2 ** 20
        ratio = memory_cost_ordered(n) / memory_cost_unordered(n)
        assert ratio == pytest.approx(1.0 - math.log2(math.e) / 20.0, abs=1e-4)


class TestSoundnessCompleteness:
    def test_optimal_pair_is_clean(self):
        world = dist(0.5, 0.3, 0.2)
        pair = MachinePair(world, optimal_mind(world))
        for tau in (0.5, 1.0, 2.0, 5.0):
            assert soundness_completeness(pair, tau) == ([], [])

    def test_unicorn_is_unsound(self):
        world = DiscreteDistribution(("common", "unicorn"), (1 - 1e-6, 1e-6))
        mind = CodeLengthTable(("common", "unicorn"), (1.0, 1.0))
        unsound, incomplete = soundness_completeness(MachinePair(world, mind), 2.0)
        assert unsound == ["unicorn"]
        assert incomplete == []

    def test_malinois_is_incomplete(self):
        # common but conceptually heavy: world mass 0.3 behind a 12-bit code
        filler = bits_from_probability(1.0 - 2.0 ** -12)
        world = DiscreteDistribution(("dog", "malinois"), (0.7, 0.3))
        mind = CodeLengthTable(("dog", "malinois"), (filler, 12.0))
        unsound, incomplete = soundness_completeness(MachinePair(world, mind), 2.0)
        assert incomplete == ["malinois"]
        assert unsound == []

    def test_rejects_nonpositive_tau(self):
        world = dist(1.0)
        with pytest.raises(ValidationError):
            soundness_completeness(MachinePair(world, optimal_mind(world)), 0.0)


class TestDivergences:
    def test_optimal_mind_zeroes_everything(self):
        world = dist(0.5, 0.25, 0.125, 0.125)
        report = divergences(MachinePair(world, optimal_mind(world)))
        assert report.d_wrel == pytest.approx(0.0, abs=1e-9)
        assert report.d_abs == pytest.approx(0.0, abs=1e-9)
        assert report.d_drel == pytest.approx(0.0, abs=1e-9)
        assert all(abs(u) < 1e-9 for u in report.per_symbol_u)

    def test_two_point_case_oracle_values(self):
        # direct summation: KL is asymmetric, so the mind-relative and
        # absolute divergences agree here (mind is uniform) but differ
        # from the world-relative magnitude
        world = dist(0.75, 0.25)
        mind = CodeLengthTable(world.support, (1.0, 1.0))
        report = divergences(MachinePair(world, mind))
        assert report.d_wrel == pytest.approx(-0.18872187554086717, abs=1e-9)
        assert report.d_abs == pytest.approx(0.20751874963942185, abs=1e-9)
        assert report.d_drel == pytest.approx(0.20751874963942185, abs=1e-9)

    def test_unicorn_case_oracle_values(self):
        world = DiscreteDistribution(("common", "unicorn"), (1 - 1e-6, 1e-6))
        mind = CodeLengthTable(("common", "unicorn"), (1.0, 1.0))
        report = divergences(MachinePair(world, mind), tau=2.0)
        assert report.d_drel == pytest.approx(8.965785006009968, abs=1e-6)
        assert report.d_wrel == pytest.approx(-0.999978625737111, abs=1e-6)
        assert report.unsound_symbols == ("unicorn",)
        assert report.incomplete_symbols == ()

    def test_report_fields_cohere(self):
        world = dist(0.5, 0.3, 0.2)
        mind = CodeLengthTable(world.support, (1.0, 2.0, 2.0))
        report = divergences(MachinePair(world, mind))
        assert report.h == pytest.approx(entropy(world), abs=1e-12)
        assert report.v == pytest.approx(variety(3), abs=1e-12)
        assert report.v_hat == pytest.approx(variety_hat(mind), abs=1e-12)
        assert report.v_star == pytest.approx(variety_star(mind), abs=1e-12)
        assert report.d == pytest.approx(report.h - report.v, abs=1e-12)
        assert report.d <= 1e-12

    def test_zero_world_mass_blows_up_mind_relative_only(self):
        world = dist(1.0, 0.0)
        mind = CodeLengthTable(world.support, (1.0, 1.0))
        report = divergences(MachinePair(world, mind))
        # the only generated symbol costs 0 to make and 1 bit to describe
        assert report.d_wrel == pytest.approx(-1.0, abs=1e-9)
        assert report.d_drel == math.inf
        assert report.d_abs == math.inf
        assert report.zero_mass_symbols == ("s1",)

    def test_incomplete_mind_needs_explicit_normalize(self):
        world = dist(0.5, 0.5)
        sparse = CodeLengthTable(world.support, (2.0, 2.0))
        with pytest.raises(ImproperDistributionError):
            divergences(MachinePair(world, sparse))
        report = divergences(MachinePair(world, sparse), normalize_mind=True)
        assert report.d_drel == pytest.approx(0.0, abs=1e-9)

    def test_overfull_mind_rejected_without_normalize(self):
        world = dist(0.5, 0.5)
        heavy = CodeLengthTable(world.support, (0.5, 0.5))
        with pytest.raises(KraftViolationError):
            divergences(MachinePair(world, heavy))
        report = divergences(MachinePair(world, heavy), normalize_mind=True)
        assert report.d_drel == pytest.approx(0.0, abs=1e-9)

    def test_normalized_mind_shifts_lengths_uniformly(self):
        table = CodeLengthTable(("a", "b"), (2.0, 2.0))
        fixed = normalized_mind(table)
        assert fixed.kraft_sum() == pytest.approx(1.0, abs=1e-12)
        assert fixed.length == (1.0, 1.0)

    def test_support_order_must_match(self):
        world = DiscreteDistribution(("a", "b"), (0.5, 0.5))
        mind = CodeLengthTable(("b", "a"), (1.0, 1.0))
        with pytest.raises(SupportMismatchError):
            MachinePair(world, mind)


class TestDivergenceIdentities:
    def test_identities_and_signs_on_random_pairs(self):
        rng = SplitMix64(99)
        abs_positive = abs_negative = 0
        for _ in range(300):
            pair = random_pair(rng)
            report = divergences(pair)
            world, mind = pair.world, pair.mind
            d = DiscreteDistribution(
                world.support, tuple(2.0 ** -b for b in mind.length)
            )
            uniform = DiscreteDistribution(
                world.support, (1.0 / len(world),) * len(world)
            )
            assert report.d_wrel == pytest.approx(-kl(world, d), abs=1e-9)
            assert report.d_drel == pytest.approx(kl(d, world), abs=1e-9)
            assert report.d_abs == pytest.approx(
                kl(uniform, world) - kl(uniform, d), abs=1e-9
            )
            assert report.d_wrel <= 1e-9
            assert report.d_drel >= -1e-9
            abs_positive += report.d_abs > 0
            abs_negative += report.d_abs < 0
        assert abs_positive > 0 and abs_negative > 0

    def test_interpolating_toward_optimal_code_shrinks_everything(self):
        # walk the mind lengths linearly onto the optimal code: the
        # combined divergence magnitude must fall monotonically to zero
        rng = SplitMix64(31)
        for _ in range(40):
            pair = random_pair(rng, max_size=12)
            start = pair.mind.length
            goal = tuple(bits_from_probability(m) for m in pair.world.mass)
            previous = None
            for k in range(11):
                t = k / 10.0
                lengths = tuple(
                    (1 - t) * a + t * b for a, b in zip(start, goal)
                )
                report = divergences(
                    MachinePair(pair.world,
                                CodeLengthTable(pair.world.support, lengths)),
                    normalize_mind=True,
                )
                total = abs(report.d_wrel) + abs(report.d_abs) + abs(report.d_drel)
                if previous is not None:
                    assert total <= previous + 1e-9
                previous = total
            assert previous == pytest.approx(0.0, abs=1e-9)
