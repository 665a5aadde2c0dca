import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unexpect.cli_tools import _load_table
from unexpect.core import (
    ImproperDistributionError,
    KraftViolationError,
    ValidationError,
    _require,
    _symbols,
)
from unexpect.tables import (
    CodeLengthTable,
    DiscreteDistribution,
    bits_from_probability,
    distribution_from_code,
)


class TestRequire:
    @pytest.mark.parametrize("value", [True, "1", None, 1.5, [1]])
    def test_rejects_other_types_and_bools(self, value):
        with pytest.raises(ValidationError) as raised:
            _require("n", value, int, "an integer")
        assert str(raised.value) == f"n must be an integer, got {value!r}"
        assert raised.value.field == "n"

    def test_checks_the_range_after_the_type(self):
        def positive(n):
            return n > 0

        assert _require("n", 3, int, "a positive integer", positive) == 3
        for value in (0, "3"):  # a str never reaches the comparison
            with pytest.raises(ValidationError, match="n must be a positive"):
                _require("n", value, int, "a positive integer", positive)


class TestSymbols:
    def test_returns_a_list_of_strings(self):
        assert _symbols("s", ["a", "b", "a"]) == ["a", "b", "a"]

    @pytest.mark.parametrize("value, message", [
        ("ab", "s must be a list, got 'ab'"),  # not its letters
        ({"a": 1}, "s must be a list, got {'a': 1}"),  # not its keys
        (["a", 1], "s holds a non-string symbol 1"),
    ])
    def test_rejects_anything_else(self, value, message):
        with pytest.raises(ValidationError) as raised:
            _symbols("s", value)
        assert str(raised.value) == message

    def test_distinct_only_when_asked(self):
        with pytest.raises(ValidationError, match="^s repeats a symbol$"):
            _symbols("s", ["a", "a"], distinct=True)


class TestBitsFromProbability:
    def test_certainty_is_free(self):
        assert bits_from_probability(1.0) == 0.0

    def test_fair_coin_is_one_bit(self):
        assert bits_from_probability(0.5) == 1.0

    def test_one_percent(self):
        # log2(100), checked against an arbitrary-precision oracle
        assert bits_from_probability(0.01) == pytest.approx(
            6.643856189774724, abs=1e-12
        )

    def test_zero_probability_is_infinite(self):
        assert bits_from_probability(0.0) == math.inf

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            bits_from_probability(bad)

    @pytest.mark.parametrize("length", range(0, 61))
    def test_round_trip_is_exact_for_integer_lengths(self, length):
        assert bits_from_probability(2.0 ** -length) == float(length)

    @given(st.floats(min_value=1e-300, max_value=1.0))
    def test_never_negative_or_nan(self, p):
        bits = bits_from_probability(p)
        assert bits >= 0.0
        assert not math.isnan(bits)


class TestDiscreteDistribution:
    def test_rejects_duplicate_support(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a", "a"), (0.5, 0.5))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(("a", "b"), (1.5, -0.5))

    def test_rejects_bad_total(self):
        with pytest.raises(ImproperDistributionError):
            DiscreteDistribution(("a", "b"), (0.5, 0.4))

    def test_allows_zero_mass(self):
        dist = DiscreteDistribution(("a", "b"), (1.0, 0.0))
        assert dist.mass == (1.0, 0.0)

    def test_json_round_trip_preserves_order(self, tmp_path):
        # Read back as divergence --world reads what simulate --dist-out wrote.
        dist = DiscreteDistribution(("z", "a"), (0.25, 0.75))
        path = tmp_path / "world.json"
        path.write_text(dist.to_json() + "\n", encoding="utf-8")
        again = _load_table(str(path), "world file", DiscreteDistribution, "mass")
        assert again.support == ("z", "a")
        assert again.mass == dist.mass


class TestCodeLengthTable:
    def test_rejects_infinite_length(self):
        with pytest.raises(ValidationError):
            CodeLengthTable(("a",), (math.inf,))

    def test_kraft_sum(self):
        table = CodeLengthTable(("a", "b", "c"), (1.0, 2.0, 2.0))
        assert table.kraft_sum() == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trip(self, tmp_path):
        table = CodeLengthTable(("a", "b"), (1.0, 3.5))
        path = tmp_path / "mind.json"
        path.write_text(table.to_json() + "\n", encoding="utf-8")
        again = _load_table(str(path), "mind file", CodeLengthTable, "bits")
        assert again == table


class TestDistributionFromCode:
    def test_two_one_bit_codes(self):
        dist = distribution_from_code(CodeLengthTable(("a", "b"), (1.0, 1.0)))
        assert dist.mass == (0.5, 0.5)

    def test_complete_binary_code(self):
        dist = distribution_from_code(
            CodeLengthTable(("a", "b", "c"), (1.0, 2.0, 2.0))
        )
        assert dist.mass == (0.5, 0.25, 0.25)

    def test_kraft_violation_requires_normalize(self):
        table = CodeLengthTable(("a", "b", "c"), (1.0, 1.0, 1.0))
        with pytest.raises(KraftViolationError):
            distribution_from_code(table)
        dist = distribution_from_code(table, normalize=True)
        assert dist.mass == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_incomplete_code_requires_normalize(self):
        table = CodeLengthTable(("a", "b"), (2.0, 2.0))
        with pytest.raises(ImproperDistributionError):
            distribution_from_code(table)
        dist = distribution_from_code(table, normalize=True)
        assert dist.mass == (0.5, 0.5)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=1,
            max_size=32,
        )
    )
    def test_complete_code_round_trips_lengths(self, weights):
        total = math.fsum(weights)
        masses = [w / total for w in weights]
        support = tuple(f"s{i}" for i in range(len(masses)))
        lengths = tuple(bits_from_probability(m) for m in masses)
        dist = distribution_from_code(CodeLengthTable(support, lengths))
        for mass, bits in zip(dist.mass, lengths):
            assert bits_from_probability(mass) == pytest.approx(bits, abs=1e-9)
