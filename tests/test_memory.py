import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unexpect.core import ValidationError
from unexpect.engine import Engine
from unexpect.memory import (
    _EVENT_BLOCK_LINES,
    Observation,
    StmStack,
    _decode_json_line,
    _event_blocks,
    _parse_stripped,
    read_events,
)

symbols = st.sampled_from(["A", "B", "C", "D", "E", "F"])


def last_c_stm(stream):
    """The c_stm of the last event of stream, from Engine.step: the one
    place that turns a stack position into a cost."""
    engine = Engine()
    for t, sym in enumerate(stream):
        record = engine.step(Observation(t, sym))
    return record.c_stm


class TestStmComplexity:
    """c_stm = log2 of the position before the move to the top."""

    def test_top_is_free(self):
        assert last_c_stm("AA") == 0.0

    def test_position_eight(self):
        assert last_c_stm("ABCDEFGHA") == 3.0

    def test_unseen_is_infinite(self):
        assert last_c_stm("A") == math.inf


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

    def test_rejects_an_item_that_is_no_string(self):
        # Any iterable of strings still serves, a generator too.
        assert StmStack(items=(s for s in "AB")).items() == ["A", "B"]
        with pytest.raises(ValidationError, match="items holds a non-string symbol 3"):
            StmStack(items=["a", 3])

    @pytest.mark.parametrize("capacity", [2.5, 2.0, True, "2", 0, -1])
    def test_rejects_a_capacity_that_is_no_positive_integer(self, capacity):
        # A capacity of 2.5 held 3 symbols: len(stamps) >= 2.5 only at 3.
        with pytest.raises(ValidationError) as info:
            StmStack(capacity=capacity)
        assert info.value.field == "capacity"

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

    @given(st.lists(symbols, max_size=60))
    def test_no_duplicates_and_bounded_length(self, stream):
        stack = StmStack()
        for sym in stream:
            stack.observe(sym)
        items = stack.items()
        assert len(items) == len(set(items))
        assert len(items) <= len(set(stream))


def parse_event(line, lineno):
    """One event line as read_events parses it, surrounding whitespace
    and all, without the line number in a message."""
    return _parse_stripped(line.strip(), lineno)


class TestObservation:
    @pytest.mark.parametrize("t, symbol, message", [
        (1.5, "b", "time index must be a nonnegative integer, got 1.5"),
        (2.0, "b", "time index must be a nonnegative integer, got 2.0"),
        (True, "b", "time index must be a nonnegative integer, got True"),
        ("1", "b", "time index must be a nonnegative integer, got '1'"),
        (-1, "b", "time index must be a nonnegative integer, got -1"),
        (0, 7, "symbol must be a string, got 7"),
        (0, None, "symbol must be a string, got None"),
        (0, b"a", "symbol must be a string, got b'a'"),
    ])
    def test_rejects_what_a_snapshot_cannot_hold(self, t, symbol, message):
        # The engine would score it, then write a snapshot that
        # Engine.restore rejects.
        with pytest.raises(ValidationError) as info:
            Observation(t, symbol)
        assert str(info.value) == message

    def test_what_it_accepts_survives_a_snapshot(self):
        engine = Engine()
        for obs in [Observation(0, ""), Observation(2 ** 70, "é")]:
            engine.step(obs)
        assert Engine.restore_json(engine.snapshot_json()).snapshot() == engine.snapshot()


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
        with pytest.raises(ValidationError, match="^line 2: invalid JSON"):
            list(read_events(["", "{"]))

    @pytest.mark.parametrize("items", [
        ['{"t": 0, "s": "a"}\n{"t": 1, "s": "b"}\n', "junk"],
        ['{"t": 0, "s": "a"}\n{"t": 1, "s": "b"}\n', ""],
        ['{"t": 0, "s": "a"}\n{"t": 1, ', '"s": "b"}\n'],
        ['{"t": 0, "s": "a"}\n\x00{"t": 1, "s": "b"}\n', ""],
    ], ids=["junk", "empty", "split", "nul"])
    def test_item_of_two_lines_is_not_read_as_one(self, items):
        # Two canonical lines in one item matched as two events, the count
        # of items, and the other item was dropped without an error.
        with pytest.raises(ValidationError, match="^line 1: invalid JSON event: Extra data"):
            list(read_events(items))

    def test_event_after_other_text_is_a_bare_token(self):
        # A match must start its item: the tail of line 1 is not an event.
        items = ['x{"t": 5, "s": "a"}\n', '{"t": 6, "s": "b"}\n']
        assert list(read_events(items)) == [
            (1, Observation(0, 'x{"t": 5, "s": "a"}')), (2, Observation(6, "b"))]


# -- reference: event parsing through json.loads -----------------------
#
# parse_event and read_events as they were before the line decoder:
# json.loads on every event line, and a second strip per line; plus the
# later rules that a line starting with a byte order mark is rejected,
# and that read_events rejects a line holding the surrogate escape of a
# byte that is not UTF-8.


def ref_parse_event(line, lineno):
    stripped = line.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON event: {exc}") from None
        except ValueError:  # int() refuses this many digits
            raise ValidationError("an integer has more than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
        if "t" not in obj or "s" not in obj:
            raise ValidationError('event object must have "t" and "s" fields')
        t, s = obj["t"], obj["s"]
        if not isinstance(t, int) or isinstance(t, bool):
            raise ValidationError(f'"t" must be an integer, got {t!r}')
        if not isinstance(s, str):
            raise ValidationError(f'"s" must be a string, got {s!r}')
        return Observation(t, s)
    if stripped.startswith("\ufeff"):
        raise ValidationError("event starts with a byte order mark (U+FEFF)")
    return Observation(lineno, stripped)


def ref_read_events(lines):
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        escapes = [c for c in line if "\udc80" <= c <= "\udcff"]
        if escapes:
            raise ValidationError(f"line {i + 1}: byte "
                                  f"0x{ord(escapes[0]) - 0xdc00:02x} is not UTF-8")
        try:
            yield i + 1, ref_parse_event(line, i)
        except ValidationError as exc:
            raise ValidationError(f"line {i + 1}: {exc}") from None


def outcome(fn, *args):
    """("ok", repr of the value) or (exception type, message, details)."""
    try:
        value = fn(*args)
    except json.JSONDecodeError as exc:
        return ("JSONDecodeError", str(exc), exc.msg, exc.pos, exc.lineno, exc.colno)
    except ValidationError as exc:
        return ("ValidationError", str(exc))
    # repr, so that NaN equals NaN and -0.0 differs from 0.0
    return ("ok", repr(value))


# Whitespace JSON allows around a value, and whitespace that str.strip
# removes but JSON rejects.
JSON_SPACE = st.sampled_from([" ", "\t", "\n", "\r"])
OTHER_SPACE = st.sampled_from(["\x0c", "\x0b", "\xa0", "\u2028", "\u3000", "\x1c"])
padding = st.lists(st.one_of(JSON_SPACE, OTHER_SPACE), max_size=3).map("".join)

texts = st.text(st.characters(codec=None, exclude_categories=()), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | texts
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=6,
)
events = st.fixed_dictionaries(
    {"t": st.integers(-2, 2**70) | json_values, "s": texts | json_values},
    optional={"x": json_values},
)
# Fragments that make or break a line: bad escapes, escaped and raw lone
# surrogates, literals JSON does not have, stray and missing brackets.
FRAGMENTS = ['\\q', '\\ud800', '\\udfff', '\ud800', '\\u12', 'NaN', '-Infinity',
             '"', '{', '}', ',', ':', '[]', 'x', '0', '\ufeff']


@st.composite
def json_lines(draw):
    value = draw(events | json_values)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()),
                      separators=draw(st.sampled_from([None, (",", ":")])))
    edit = draw(st.sampled_from(["none", "none", "insert", "cut", "extra"]))
    if edit == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[at:]
    elif edit == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif edit == "extra":
        text += draw(padding) + draw(st.sampled_from(FRAGMENTS + ["{}", "1"]))
    return draw(padding) + text + draw(padding)


class TestLineDecoderMatchesJsonLoads:
    @given(json_lines())
    @example("")
    @example(" \n")
    @example('{"t": 1, "s": "a"}')
    @example('{"t": 1, "s": "a"}\r\n')
    @example(' {"t": 1, "s": "a"}')
    @example('{"t": 1, "s": "a"}\x0c')
    @example('{"t": 1, "s": "a"}\xa0')
    @example('{"t": 1, "s": "a"} {}')
    @example('{"t": 1, "s": "a"}x')
    @example('\ufeff{"t": 1}')
    @example('{"s": "\\q"}')
    @example('{"s": "\\ud800"}')
    @example('{"s": "\ud800"}')
    @example("[1, 2]\n")
    @example("NaN")
    def test_decoder_returns_what_json_loads_returns(self, line):
        assert outcome(_decode_json_line, line) == outcome(json.loads, line)

    @given(json_lines(), st.integers(0, 5))
    @example('{"t": 3, "s": "a"}\x0c', 0)
    @example('{"t": 3, "s": "a"} x', 0)
    @example('{"t": -1, "s": "a"}', 0)
    @example('{"t": true, "s": "a"}', 0)
    @example('{"t": 3, "s": 4}', 0)
    @example('{"t": 3}', 0)
    @example("\xa0token\n", 2)
    @example('\ufeff{"t": 1, "s": "a"}', 0)
    @example(" \ufefftoken", 0)
    def test_parse_event_matches_reference(self, line, lineno):
        assert outcome(parse_event, line, lineno) == outcome(
            ref_parse_event, line, lineno)

    @given(st.lists(json_lines() | texts, max_size=5))
    # Edges of the canonical-line fast path: what it must leave to JSON.
    @example(['{"t": 0, "s": ""}\n', '{"t": 10, "s": "a"}\n'])
    @example(['{"t": 01, "s": "a"}'])
    @example(['{"t": -0, "s": "a"}'])
    @example(['{"t": 1.0, "s": "a"}'])
    @example(['{"t": true, "s": "a"}'])
    @example(['{"t": 1, "s": "a\\"b"}', '{"t": 2, "s": "\\u0041"}'])
    @example(['{"t": 1, "s": "\x1f"}'])
    @example(['{"t": 1, "s": "\x7f"}'])
    @example(['{"t": 1, "s": "é字😀"}', '{"t": 2, "s": "\ud800"}'])
    # Surrogate escapes of bytes that are not UTF-8: raw ones end the run,
    # a JSON escape of one is a symbol.
    @example(['{"t": 1, "s": "a"}', '{"t": 2, "s": "a\udcffb"}'])
    @example(['a', 'b\udc80\udcff', '\udcfe'])
    @example(['{"t": 1, "s": "\\udcff"}'])
    @example(['{"t":  1, "s": "a"}', '{"t": 2,  "s": "a"}', '{"t": 3, "s":  "a"}'])
    @example(['{"t": 1, "s": "a"}\n\n', '{"t": 2, "s": "a"}\r\n'])
    @example(['{"t": %s, "s": "a"}' % ("9" * n) for n in (19, 20)])
    @example(['{"t": %s, "s": "a"}' % ("1" * 5000)])
    def test_read_events_matches_reference(self, lines):
        assert outcome(lambda: list(read_events(lines))) == outcome(
            lambda: list(ref_read_events(lines)))


def run_until_fault(events):
    """The pairs an event iterator yields, and the message of the
    ValidationError that ends it (None if none does)."""
    got = []
    try:
        for pair in events:
            got.append(pair)
    except ValidationError as exc:
        return got, str(exc)
    return got, None


def canonical_lines(n):
    """n lines as `simulate` writes them, each with its index as t."""
    return ['{"t": %d, "s": "%s"}\n' % (i, "AB"[i % 2]) for i in range(n)]


# Lines as a file gives them: one newline each, at the end.
file_lines = st.lists((json_lines() | texts).map(
    lambda line: line.replace("\n", "") + "\n"), max_size=5)


class TestReadEventsAcrossBlocks:
    """read_events checks _EVENT_BLOCK_LINES lines per regex pass; the drawn
    lines sit before and after `pad` canonical lines, so that they
    straddle the ends of the first and second block. A faulty line must
    come after every event before it, as one line at a time gives."""

    @settings(deadline=None, max_examples=150)
    @given(file_lines, st.integers(0, 5),
           st.one_of(st.integers(0, 4),
                     st.integers(_EVENT_BLOCK_LINES - 4, _EVENT_BLOCK_LINES + 1),
                     st.integers(2 * _EVENT_BLOCK_LINES - 4, 2 * _EVENT_BLOCK_LINES + 8)))
    # A bad line as the first line of the second block and in its middle.
    @example(['{"t": 1\n'], 0, _EVENT_BLOCK_LINES)
    @example(['{"t": 1\n'], 0, _EVENT_BLOCK_LINES + _EVENT_BLOCK_LINES // 2)
    @example(['a\udcffb\n', "A\n"], 1, _EVENT_BLOCK_LINES + 1)
    @example(["\n", "A\n"], 0, _EVENT_BLOCK_LINES - 1)
    def test_blocks_match_reference(self, drawn, at, pad):
        lines = drawn[:at] + canonical_lines(pad) + drawn[at:]
        expected = run_until_fault(ref_read_events(lines))
        assert run_until_fault(read_events(lines)) == expected
        assert run_until_fault(
            read_events(io.StringIO("".join(lines)))) == expected
        # The columns track scores, zipped, up to the same fault.
        assert run_until_fault(
            event for columns in _event_blocks(lines) for event in zip(*columns)
        ) == ([(i, obs.t, obs.symbol) for i, obs in expected[0]], expected[1])
