import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unexpect.core import ValidationError
from unexpect.memory import (
    Observation,
    StmStack,
    matches,
    parse_event,
    read_events,
    stm_complexity,
)

symbols = st.sampled_from(["A", "B", "C", "D", "E", "F"])


class TestMatches:
    def test_identity_matches(self):
        assert matches(Observation(3, "A"), "A")

    def test_mismatch(self):
        assert not matches(Observation(3, "A"), "B")

    @given(st.integers(min_value=0, max_value=10**9))
    def test_time_independent(self, t):
        assert matches(Observation(t, "A"), "A")


class TestStmComplexity:
    def test_top_is_free(self):
        assert stm_complexity(1) == 0.0

    def test_position_eight(self):
        assert stm_complexity(8) == 3.0

    def test_unseen_is_infinite(self):
        assert stm_complexity(None) == math.inf

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_positions(self, bad):
        with pytest.raises(ValidationError):
            stm_complexity(bad)


class TestStmStack:
    def test_insert_unseen_on_top(self):
        stack = StmStack(items=["B", "C"])
        assert stack.observe("A") is None
        assert stack.items() == ["A", "B", "C"]

    def test_move_to_front(self):
        stack = StmStack(items=["A", "B", "C"])
        assert stack.observe("C") == 3
        assert stack.items() == ["C", "A", "B"]

    def test_top_is_fixed_point(self):
        stack = StmStack(items=["A", "B"])
        assert stack.observe("A") == 1
        assert stack.items() == ["A", "B"]

    def test_repeat_observation_returns_one(self):
        stack = StmStack()
        stack.observe("X")
        assert stack.observe("X") == 1
        assert stack.observe("X") == 1

    def test_capacity_evicts_bottom_only(self):
        stack = StmStack(capacity=2)
        stack.observe("A")
        stack.observe("B")
        stack.observe("C")
        assert stack.items() == ["C", "B"]
        # A was evicted, so it reads as never-seen again
        assert stack.observe("A") is None

    def test_position_does_not_move(self):
        stack = StmStack(items=["A", "B", "C"])
        assert stack.position("B") == 2
        assert stack.items() == ["A", "B", "C"]
        assert stack.position("missing") is None

    @given(
        st.lists(symbols, max_size=60),
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        st.integers(min_value=0, max_value=60),
    )
    def test_matches_naive_list_model(self, stream, capacity, restore_at):
        stack = StmStack(capacity)
        model: list[str] = []  # reference: plain list, top first
        for i, sym in enumerate(stream):
            if i == restore_at:
                stack = StmStack(capacity, items=stack.items())
            expected = model.index(sym) + 1 if sym in model else None
            if sym in model:
                model.remove(sym)
            model.insert(0, sym)
            if capacity is not None and len(model) > capacity:
                model.pop()
            assert stack.observe(sym) == expected
            assert len(stack) == len(model)
            assert stack.items() == model
            for probe in "ABCDEF":
                assert (probe in stack) == (probe in model)
                assert stack.position(probe) == (
                    model.index(probe) + 1 if probe in model else None)

    @given(st.lists(symbols, max_size=60))
    def test_no_duplicates_and_bounded_length(self, stream):
        stack = StmStack()
        for sym in stream:
            stack.observe(sym)
        items = stack.items()
        assert len(items) == len(set(items))
        assert len(items) <= len(set(stream))


class TestEventParsing:
    def test_json_event(self):
        obs = parse_event('{"t": 5, "s": "A"}', 0)
        assert obs == Observation(5, "A")

    def test_bare_token_uses_line_number(self):
        obs = parse_event("hello", 7)
        assert obs == Observation(7, "hello")

    def test_rejects_bad_json(self):
        with pytest.raises(ValidationError):
            parse_event('{"t": }', 0)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValidationError):
            parse_event('{"t": 1}', 0)

    def test_rejects_non_integer_time(self):
        with pytest.raises(ValidationError):
            parse_event('{"t": 1.5, "s": "A"}', 0)

    def test_read_events_skips_blanks_and_numbers_lines(self):
        lines = ["A", "", '{"t": 9, "s": "B"}', "C"]
        parsed = list(read_events(lines))
        assert parsed == [
            (1, Observation(0, "A")),
            (3, Observation(9, "B")),
            (4, Observation(3, "C")),
        ]
