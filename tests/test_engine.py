import json
import math
import struct
from dataclasses import dataclass, fields
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unexpect.core import (
    DiscreteDistribution,
    NonMonotonicTimeError,
    ValidationError,
    VersionMismatchError,
)
from unexpect.engine import (
    ChangeDetector,
    Engine,
    EngineConfig,
    TRACE_CSV_HEADER,
    TraceRecord,
    run_stream,
    trace_to_csv,
    trace_to_jsonl,
)
from unexpect.estimators import EPSILON_AUTO, EPSILON_OFF, IirEstimator
from unexpect.memory import Observation
from unexpect.simgen import SourceSpec, generate
from unexpect.traceio import _csv_field

import engine_v1 as v1

symbols = st.sampled_from(["A", "B", "C", "D"])


def observations(stream):
    return [Observation(t, sym) for t, sym in enumerate(stream)]


def small_config(**overrides):
    defaults = dict(estimator="iir", alpha=0.9, warmup=0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


# Snapshot format 1, as the engine of that format wrote them after the
# events A, B, C, A at t = 0..3 (capacity 2, so "B" was evicted).
V1_IIR_SNAPSHOT = (
    '{"config": {"alpha": 0.5, "beta": 0.95, "capacity": 2, "epsilon": "auto", '
    '"estimator": "iir", "min_hits": 20, "prune": false, "theta": 1.0, '
    '"warmup": 0, "window": 10000}, "detector": {"beta": 0.95, "ewma": 0.0, '
    '"hits": 0, "min_hits": 20, "theta": 1.0}, "estimator": {"alpha": 0.5, '
    '"alphabet": ["A", "B", "C"], "counts": {"A": 2, "B": 1, "C": 1}, '
    '"epsilon": "auto", "events_seen": 4, "kind": "iir", "last_t": 3, '
    '"prune": false, "step": 4, "w": {"A": 0.5625, "B": 0.5, "C": 0.5}, '
    '"w_step": {"A": 4, "B": 2, "C": 3}}, "format_version": 1, "last_t": 3, '
    '"stack": ["A", "C"]}')
V1_FIR_SNAPSHOT = (
    '{"config": {"alpha": 0.999, "beta": 0.95, "capacity": 2, '
    '"epsilon": "auto", "estimator": "fir", "min_hits": 20, "prune": false, '
    '"theta": 1.0, "warmup": 0, "window": 3}, "detector": {"beta": 0.95, '
    '"ewma": 0.0, "hits": 0, "min_hits": 20, "theta": 1.0}, "estimator": '
    '{"alphabet": ["A", "B", "C"], "buffer": ["B", "C", "A"], "events_seen": 4, '
    '"kind": "fir", "last_t": 3, "registered": [], "window": 3}, '
    '"format_version": 1, "last_t": 3, "stack": ["A", "C"]}')


class TestChangeDetector:
    def test_zero_stream_never_flags(self):
        det = ChangeDetector()
        assert not any(det.update(0.0) for _ in range(1000))
        assert det.ewma == 0.0

    def test_constant_three_crosses_then_flags_at_eight(self):
        # ewma_t = 3(1 - 0.9^t) crosses theta=1 at t=4; five consecutive
        # hits means the flag first raises at t=8
        det = ChangeDetector(beta=0.9, theta=1.0, min_hits=5)
        flags = [det.update(3.0) for _ in range(12)]
        assert flags.index(True) == 7  # 0-based index of step t=8

    def test_single_spike_decays_before_enough_hits(self):
        det = ChangeDetector(beta=0.9, theta=1.0, min_hits=5)
        flags = [det.update(10.0)] + [det.update(0.0) for _ in range(50)]
        assert not any(flags)

    def test_hits_reset_on_dip(self):
        det = ChangeDetector(beta=0.5, theta=1.0, min_hits=5)
        for u in (10.0, 10.0, 0.0, 0.0):
            assert not det.update(u)  # ewma 5, 7.5, 3.75, 1.875: four hits
        assert det.hits == 4
        assert not det.update(0.0)  # ewma 0.9375 dips under theta
        assert det.hits == 0

    def test_rejects_negative_input(self):
        # NaN and +/-inf too: either would stick in the EWMA for good.
        det = ChangeDetector(beta=0.5, theta=1.0, min_hits=5)
        det.update(4.0)
        for u in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                det.update(u)
            assert (det.ewma, det.hits) == (2.0, 1)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"beta": 1.0}, {"theta": 0.0}, {"min_hits": 0},
        {"theta": math.nan}, {"theta": math.inf},
        {"beta": "x"}, {"beta": True}, {"theta": "1"}, {"theta": None},
        {"min_hits": 2.5}, {"min_hits": True}, {"min_hits": "20"},
        # A NaN ewma would never flag, and an infinite one would always flag.
        {"ewma": math.nan}, {"ewma": math.inf}, {"ewma": -0.5},
        {"ewma": "0"}, {"ewma": None}, {"ewma": True},
        {"hits": -1}, {"hits": 2.0}, {"hits": "2"}, {"hits": True},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError) as info:
            ChangeDetector(**kwargs)
        assert info.value.field == next(iter(kwargs))


class TestStep:
    def test_first_sighting_is_novelty(self):
        engine = Engine(small_config())
        record = engine.step(Observation(0, "A"))
        assert record.novelty
        assert record.c_stm == math.inf
        assert record.u_raw is None and record.u_clamped is None
        assert not record.change_flag

    def test_top_position_with_half_rate(self):
        # c_stm = log2(1) = 0, c_ltm = log2(2) = 1 -> u_raw = 1
        engine = Engine(small_config(alpha=0.5, epsilon="off"))
        engine.step(Observation(0, "A"))  # novelty; w(A) becomes 0.5
        record = engine.step(Observation(1, "A"))
        assert record.c_stm == 0.0
        assert record.c_ltm == 1.0
        assert record.u_raw == 1.0
        assert record.u_clamped == 1.0

    def test_calibrated_case_gives_zero_u(self):
        # symbol at stack position 4 with w = 0.25: both costs are 2 bits
        config = small_config(epsilon="off")
        engine = Engine(config)
        engine.estimator = IirEstimator(config.alpha, 0, {"D": 0.25}, {"D": 0})
        for t, sym in enumerate(["D", "C", "B", "A"]):
            engine.stack.observe(sym)
        record = engine.step(Observation(0, "D"))
        assert record.c_stm == 2.0
        assert record.c_ltm == 2.0
        assert record.u_raw == 0.0

    def test_measure_before_learn_fixed_point(self):
        # repeating one symbol: c_stm = 0 from the second sighting on,
        # so u_raw equals c_ltm exactly
        engine = Engine(small_config())
        engine.step(Observation(0, "A"))
        for t in range(1, 30):
            record = engine.step(Observation(t, "A"))
            assert record.c_stm == 0.0
            assert record.u_raw == record.c_ltm

    def test_rejects_non_increasing_time(self):
        engine = Engine(small_config())
        engine.step(Observation(5, "A"))
        with pytest.raises(NonMonotonicTimeError):
            engine.step(Observation(5, "B"))

    @pytest.mark.parametrize("estimator", ["iir", "fir"])
    def test_time_check_comes_before_any_layer_learns(self, estimator):
        # The engine is the one owner of time: a rejected event leaves
        # the stack, the estimator, the detector and the counts as they were.
        engine = Engine(small_config(estimator=estimator, window=4))
        engine.step(Observation(5, "A"))
        before = engine.snapshot_json()
        for t in (5, 4):
            with pytest.raises(NonMonotonicTimeError, match="past 5"):
                engine.step(Observation(t, "B"))
            assert engine.snapshot_json() == before
        assert engine.step(Observation(6, "B")).novelty

    def test_auto_floor_counts_events_and_every_symbol_ever_seen(self):
        # With a 1-slot stack "A" is a novelty twice but one symbol: after
        # A, B, A the floor is 1 / (3 events + 2 symbols).
        engine = Engine(small_config(capacity=1))
        records = [engine.step(o) for o in observations(["A", "B", "A"])]
        assert [r.novelty for r in records] == [True, True, True]
        assert engine.events_seen == 3
        assert engine.snapshot()["seen_off_stack"] == ["B"]
        assert engine.step(Observation(3, "C")).c_ltm == math.log2(5)

    def test_prune_sweeps_every_prune_every_events(self):
        engine = Engine(small_config(alpha=0.5, prune=True, epsilon=0.01))
        engine._PRUNE_EVERY = 8
        for t, symbol in enumerate(["A"] + ["B"] * 6):
            engine.step(Observation(t, symbol))
        assert "A" in engine.estimator.tracked_symbols()  # 7 events, no sweep
        engine.step(Observation(7, "B"))  # w(A) = 0.5 ** 8 < 0.01 / 2
        assert engine.estimator.tracked_symbols() == ["B"]

    def test_infinite_ltm_skips_detector(self):
        # smoothing off: a symbol still on the stack but faded from the
        # estimator has infinite generation cost; the EWMA must survive
        engine = Engine(EngineConfig(estimator="fir", window=2,
                                     epsilon="off", warmup=0))
        engine.step(Observation(0, "A"))
        engine.step(Observation(1, "B"))
        engine.step(Observation(2, "C"))  # A now outside the FIR window
        record = engine.step(Observation(3, "A"))
        assert record.u_raw == math.inf
        assert math.isfinite(engine.detector.ewma)

    def test_novelty_keeps_detector_state(self):
        engine = Engine(small_config(theta=0.001, min_hits=1))
        engine.step(Observation(0, "A"))
        engine.step(Observation(1, "A"))
        flagged = engine.step(Observation(2, "A")).change_flag
        assert flagged
        record = engine.step(Observation(3, "NEW"))
        assert record.novelty and record.change_flag  # unchanged, not reset

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("t, symbol", [(1.0, "A"), (True, "A"), (-1, "A"),
                                           (10, 5), (10, None)])
    def test_step_block_checks_columns_as_observation(self, k, t, symbol):
        # Event k of the block is bad; Observation owns the rule and its
        # message, and the k - 1 events before it are scored as by step.
        times, symbols = [0, 1, 2][:k - 1] + [t], ["A", "B", "A"][:k - 1] + [symbol]
        with pytest.raises(ValidationError) as expected:
            Observation(t, symbol)
        engine, reference = Engine(small_config()), Engine(small_config())
        lines = []
        with pytest.raises(ValidationError) as raised:
            engine.step_block(times + [11], symbols + ["C"], lines, "jsonl")
        assert str(raised.value) == str(expected.value)
        assert lines == [trace_to_jsonl(reference.step(Observation(*event)))
                         for event in zip(times[:k - 1], symbols[:k - 1])]
        assert engine.snapshot_json() == reference.snapshot_json()

    @pytest.mark.parametrize("times, symbols, scored", [
        ([1, 2, 3], ["A"], 1), ([1], ["A", "B"], 1), ([], ["A"], 0),
        (iter([1, 2]), iter("AB!"), 2)])
    def test_step_block_refuses_columns_of_two_lengths(self, times, symbols, scored):
        # The events of the shorter column are scored, then the fault.
        engine, reference = Engine(small_config()), Engine(small_config())
        lines = []
        with pytest.raises(ValidationError, match="times and symbols differ in length"):
            engine.step_block(times, symbols, lines, "jsonl")
        assert lines == [trace_to_jsonl(reference.step(Observation(t, symbol)))
                         for t, symbol in zip([1, 2][:scored], "AB")]
        assert engine.snapshot_json() == reference.snapshot_json()

    def test_step_block_passes_on_a_value_error_of_a_column(self):
        def times():
            yield 1
            raise ValueError("no second time")
        with pytest.raises(ValueError, match="no second time"):
            Engine(small_config()).step_block(times(), ["A", "B"], [], "jsonl")

    def test_step_block_refuses_an_unknown_emit(self):
        engine = Engine(small_config())
        with pytest.raises(ValidationError, match="emit must be 'jsonl' or 'csv'"):
            engine.step_block([1], ["A"], [], "json")
        assert engine.events_seen == 0

    # The last event of each stream hits one text identity of step_block
    # or one fallback to the serializer, as `last` checks.
    @pytest.mark.parametrize("emit", ["jsonl", "csv"])
    @pytest.mark.parametrize("overrides, stream, last", [
        # FIR rate 50/100 (c_ltm 1) at position 4 (c_stm 2): u_clamped is 0.
        (dict(estimator="fir", window=100), ["A"] * 50 + ["B", "C", "D", "A"],
         lambda r: r.u_raw == -1.0 and r.u_clamped == 0.0),
        # A top-of-stack hit: u_raw is c_ltm. The symbol needs quoting.
        ({}, ['a,"b', 'a,"b'], lambda r: r.c_stm == 0.0 and r.u_raw == r.c_ltm),
        # "A" has left the FIR window and the floor is off: c_ltm is inf.
        (dict(estimator="fir", window=1, epsilon="off"), ["A", "B", "A"],
         lambda r: r.c_ltm == math.inf and not r.novelty),
        ({}, ["A", "B"], lambda r: r.novelty),
        # Position 3 on a stack of capacity 3, in a block after hits at 2
        # at most: the texts of the positions grow to it.
        (dict(capacity=3), ["A", "B", "A", "C", "B"], lambda r: r.c_stm == math.log2(3)),
    ], ids=["negative u_raw", "top hit", "infinite c_ltm", "novelty", "deepest hit"])
    def test_step_block_lines_at_each_identity(self, emit, overrides, stream, last):
        config = small_config(**overrides)
        engine, reference = Engine(config), Engine(config)
        to_line = trace_to_csv if emit == "csv" else trace_to_jsonl
        records = [reference.step(Observation(t, s)) for t, s in enumerate(stream)]
        assert last(records[-1])
        # All but the last event, then the last in a block of its own.
        lines = []
        engine.step_block(range(len(stream) - 1), stream[:-1], lines, emit)
        engine.step_block([len(stream) - 1], stream[-1:], lines, emit)
        assert lines == list(map(to_line, records))
        assert engine.snapshot_json() == reference.snapshot_json()


class TestWarmup:
    def test_auto_warmup_scales_with_alpha(self):
        assert EngineConfig(alpha=0.9).resolved_warmup() == 30
        assert EngineConfig(alpha=0.999).resolved_warmup() == 3000
        assert EngineConfig(estimator="fir", window=500).resolved_warmup() == 500

    def test_detector_silent_during_warmup(self):
        config = EngineConfig(estimator="iir", alpha=0.9, warmup=50,
                              theta=0.001, min_hits=1)
        engine = Engine(config)
        records = [engine.step(o) for o in observations(["A", "B"] * 50)]
        assert not any(r.change_flag for r in records[:50])
        assert any(r.change_flag for r in records[50:])


class TestRunStream:
    def test_empty_stream(self):
        assert list(run_stream([], small_config())) == []

    def test_error_carries_event_ordinal(self):
        events = [Observation(0, "A"), Observation(0, "B")]
        with pytest.raises(NonMonotonicTimeError, match="event 2"):
            list(run_stream(events, small_config()))

    def test_fault_in_second_block_yields_the_records_before_it(self):
        # Event 300 repeats the time of event 299; the 299 records
        # before it are yielded first.
        events = observations(["A", "B", "C"] * 100)
        events[299] = Observation(298, "C")
        engine, got = Engine(small_config()), []
        with pytest.raises(NonMonotonicTimeError,
                           match=r"^event 300: time 298 does not increase past 298$"):
            for record in run_stream(events, small_config()):
                got.append(record)
        assert got == [engine.step(obs) for obs in events[:299]]

    def test_fault_of_the_events_comes_after_the_records_before_it(self):
        # The events raise at event 300, after 299 good ones.
        head = observations(["A", "B", "C"] * 100)[:299]

        def events():
            yield from head
            raise ValueError("bad event 300")

        engine, got = Engine(small_config()), []
        with pytest.raises(ValueError, match="^bad event 300$"):
            for record in run_stream(events(), small_config()):
                got.append(record)
        assert got == [engine.step(obs) for obs in head]

    def test_reads_one_event_per_record(self):
        # The fold is lazy: the first record draws only the first event.
        drawn = []

        def events():
            for obs in observations(["A", "B", "C"] * 100):
                drawn.append(obs)
                yield obs

        first = next(run_stream(events(), small_config()))
        assert first == Engine(small_config()).step(Observation(0, "A"))
        assert len(drawn) == 1

    def test_bad_item_comes_after_the_records_before_it(self):
        events = [Observation(0, "a"), Observation(1, "b"), ("x",)]
        engine, got = Engine(small_config()), []
        with pytest.raises(AttributeError):
            for record in run_stream(events, small_config()):
                got.append(record)
        assert got == [engine.step(obs) for obs in events[:2]]

    def test_deterministic(self):
        spec = SourceSpec(
            kind="stationary", length=500, seed=11,
            distribution=DiscreteDistribution(("A", "B", "C"), (0.6, 0.3, 0.1)),
        )
        a = list(run_stream(generate(spec), EngineConfig()))
        b = list(run_stream(generate(spec), EngineConfig()))
        assert a == b

    def test_stationary_stream_keeps_u_small(self):
        spec = SourceSpec(
            kind="stationary", length=8000, seed=2,
            distribution=DiscreteDistribution(("A", "B"), (0.7, 0.3)),
        )
        config = EngineConfig(alpha=0.99)
        tail = [r.u_clamped for r in run_stream(generate(spec), config)
                if r.u_clamped is not None and r.t >= 2000]
        # clamping floors the negative half, so the honest ceiling is
        # higher than for the raw signal (true mean is near 0.56 here)
        assert sum(tail) / len(tail) < 0.7


class TestSnapshots:
    def test_snapshot_at_zero_restores_empty_engine(self):
        engine = Engine(small_config())
        clone = Engine.restore(engine.snapshot())
        assert clone.stack.items() == []
        assert clone.last_t is None
        assert clone.config == engine.config

    def test_round_trip_through_json(self):
        engine = Engine(small_config())
        for obs in observations(["A", "B", "A", "C"]):
            engine.step(obs)
        clone = Engine.restore_json(engine.snapshot_json())
        assert clone.snapshot() == engine.snapshot()

    @settings(deadline=None)
    @given(st.lists(symbols, min_size=1, max_size=80), st.data())
    def test_split_replay_is_bit_identical(self, stream, data):
        split = data.draw(st.integers(min_value=0, max_value=len(stream)))
        events = observations(stream)
        config = small_config(alpha=0.7)

        full_engine = Engine(config)
        full = [full_engine.step(o) for o in events]

        prefix_engine = Engine(config)
        prefix = [prefix_engine.step(o) for o in events[:split]]
        resumed = Engine.restore_json(prefix_engine.snapshot_json())
        suffix = [resumed.step(o) for o in events[split:]]

        assert prefix + suffix == full
        assert resumed.snapshot() == full_engine.snapshot()

    def test_snapshot_holds_each_fact_once(self):
        engine = Engine(small_config())
        for obs in observations(["A", "B", "A", "C"]):
            engine.step(obs)
        snap = engine.snapshot()
        assert snap["format_version"] == 4
        assert (snap["last_t"], snap["events_seen"]) == (3, 4)
        assert snap["stack"] == ["C", "A", "B"]
        assert snap["seen_off_stack"] == []  # an unbounded stack holds them all
        # The rates' and the detector's parameters are config's alone, and
        # the IIR step is events_seen.
        assert sorted(snap["estimator"]) == ["w", "w_step"]
        assert snap["estimator"]["w_step"] == [4, 3, 2]
        assert sorted(snap["detector"]) == ["ewma", "hits"]
        # Only stack and seen_off_stack name a symbol; each seen symbol's
        # JSON string occurs once in the text, whatever the estimator holds.
        for config, nulls in [
            (small_config(), 0),
            (small_config(alpha=0.5, prune=True, epsilon=0.2), 3),
            (small_config(capacity=2), 0),
            (small_config(estimator="fir", window=5, capacity=2), 0),
        ]:
            engine = sweeping_every(Engine(config), 8)
            for obs in observations("ABCADAAAAAAA"):
                engine.step(obs)
            snap, text = engine.snapshot(), engine.snapshot_json()
            order = snap["stack"] + snap["seen_off_stack"]
            assert sorted(order) == ["A", "B", "C", "D"]
            for symbol in order:
                assert text.count(json.dumps(symbol)) == 1
            assert (config.capacity is None) == (snap["seen_off_stack"] == [])
            # A prune sweep forgot three rates: null in both lists.
            state = snap["estimator"]
            assert state.get("w", []).count(None) == nulls
            assert [i for i, v in enumerate(state.get("w", [])) if v is None] == [
                i for i, v in enumerate(state.get("w_step", [])) if v is None]
            assert Engine.restore_json(text).snapshot_json() == text

    @pytest.mark.parametrize("snapshot, config", [
        (V1_IIR_SNAPSHOT, small_config(alpha=0.5, capacity=2)),
        (V1_FIR_SNAPSHOT, EngineConfig(estimator="fir", window=3, capacity=2,
                                       warmup=0)),
    ], ids=["iir", "fir"])
    def test_version_1_snapshot_resumes_byte_identically(self, snapshot, config):
        # Written at format 1 after the events A, B, C, A at t = 0..3. The
        # engine restores only the current format; as_v4, which the
        # differential test uses, carries the state over.
        with pytest.raises(VersionMismatchError,
                           match="^snapshot version 1, expected 4$"):
            Engine.restore_json(snapshot)
        stream = observations("ABCADBEA")
        whole = Engine(config)
        expected = [whole.step(obs) for obs in stream]
        resumed = Engine.restore_json(as_v4(json.loads(snapshot)))
        assert resumed.events_seen == 4
        assert resumed.snapshot()["seen_off_stack"] == ["B"]
        assert [resumed.step(obs) for obs in stream[4:]] == expected[4:]
        assert resumed.snapshot_json() == whole.snapshot_json()

    def test_version_mismatch(self):
        engine = Engine(small_config())
        snap = engine.snapshot()
        snap["format_version"] = 99
        with pytest.raises(VersionMismatchError):
            Engine.restore(snap)

    def test_corrupted_snapshot_never_partially_restores(self):
        with pytest.raises(VersionMismatchError):
            Engine.restore_json('{"format_version": 4, "config"')
        with pytest.raises(VersionMismatchError):
            Engine.restore({"format_version": 4})  # missing everything else

    @pytest.mark.parametrize("text, fault", [
        ('{"format_version": 4, "format_version": 4}',
         "JSON object repeats key 'format_version'"),
        ('{"format_version": %s}' % ("1" * 5000), "an integer has more than"),
    ], ids=["repeated-key", "huge-integer"])
    def test_undecodable_snapshot_text_is_a_version_mismatch(self, text, fault):
        # Engine.restore turns every fault into a VersionMismatchError;
        # the text's decoder raised a bare ValidationError for these two.
        with pytest.raises(VersionMismatchError, match="^unreadable snapshot: " + fault):
            Engine.restore_json(text)

    @pytest.mark.parametrize("alpha", [5, math.nan])
    def test_fir_snapshot_with_alpha_out_of_range_is_rejected(self, alpha):
        # A FIR never reads alpha; it was not checked, and a NaN one made
        # a snapshot that is not JSON.
        engine = Engine(small_config(estimator="fir", window=5))
        for obs in observations("ABA"):
            engine.step(obs)
        snap = engine.snapshot()
        snap["config"]["alpha"] = alpha
        with pytest.raises(VersionMismatchError, match="^alpha must be in"):
            Engine.restore(snap)

    @pytest.mark.parametrize("part, key, value", [
        ("estimator", "w_step", [9, 9]),  # the estimator's own check
        ("detector", "hits", -1),  # the detector's own check
        (None, "events_seen", 5),  # a fact that spans the parts
    ])
    def test_every_snapshot_fault_is_a_version_mismatch(self, part, key, value):
        # The parts raise ValidationError; restore reports one class.
        engine = Engine(small_config())
        for obs in observations("ABA"):
            engine.step(obs)
        snap = engine.snapshot()
        (snap[part] if part else snap)[key] = value
        with pytest.raises(VersionMismatchError, match=key):
            Engine.restore(snap)


class TestTraceSerialization:
    def test_jsonl_line_is_valid_json_with_six_decimals(self):
        engine = Engine(small_config(alpha=0.5, epsilon="off"))
        engine.step(Observation(0, "A"))
        line = trace_to_jsonl(engine.step(Observation(1, "A")))
        obj = json.loads(line)
        assert obj == {
            "t": 1, "symbol": "A", "c_stm": 0.0, "c_ltm": 1.0,
            "u_raw": 1.0, "u_clamped": 1.0, "novelty": False,
            "change_flag": False,
        }
        assert '"c_ltm": 1.000000' in line

    def test_novelty_serializes_nulls(self):
        engine = Engine(small_config())
        record = engine.step(Observation(0, "A"))
        obj = json.loads(trace_to_jsonl(record))
        assert obj["novelty"] is True
        assert obj["c_stm"] is None and obj["u_raw"] is None
        csv_line = trace_to_csv(record)
        assert csv_line.startswith("0,A,,")

    def test_csv_header_matches_cells(self):
        engine = Engine(small_config())
        record = engine.step(Observation(0, "A"))
        assert len(trace_to_csv(record).split(",")) == len(
            TRACE_CSV_HEADER.split(",")
        )


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"estimator": "kalman"},
        {"alpha": 1.0},
        {"estimator": "fir", "window": 0},
        {"epsilon": 1.5},
        {"warmup": -1},
        {"capacity": 0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValidationError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"estimator": "fir", "window": 2.5}, "window"),
        ({"estimator": "fir", "window": True}, "window"),
        ({"capacity": True}, "capacity"),
        ({"capacity": 2.0}, "capacity"),
        ({"capacity": "8"}, "capacity"),
        ({"min_hits": 3.0}, "min_hits"),
        ({"min_hits": False}, "min_hits"),
        ({"warmup": 2.0}, "warmup"),
        ({"warmup": True}, "warmup"),
        ({"theta": "x"}, "theta"),
        ({"theta": True}, "theta"),
        ({"beta": "0.5"}, "beta"),
        ({"alpha": None}, "alpha"),
        ({"estimator": "fir", "alpha": "x"}, "alpha"),
        ({"epsilon": "0.1"}, "epsilon"),
        ({"epsilon": False}, "epsilon"),
        ({"prune": 1}, "prune"),
        ({"prune": "yes"}, "prune"),
    ])
    def test_rejects_wrong_types(self, kwargs, field):
        with pytest.raises(ValidationError, match=field) as raised:
            EngineConfig(**kwargs)
        assert raised.value.field == field

    @pytest.mark.parametrize("kwargs, field", [
        ({"estimator": "kalman"}, "estimator"),
        ({"alpha": 1.0}, "alpha"),
        ({"estimator": "fir", "window": 0}, "window"),
        ({"epsilon": 1.5}, "epsilon"),
        ({"epsilon": math.nan}, "epsilon"),
        ({"warmup": -1}, "warmup"),
        ({"capacity": 0}, "capacity"),
        ({"beta": 1.0}, "beta"),
        ({"theta": math.inf}, "theta"),
        ({"min_hits": 0}, "min_hits"),
        # Each of these was checked only under its own estimator.
        ({"estimator": "fir", "alpha": 5}, "alpha"),
        ({"estimator": "fir", "alpha": math.nan}, "alpha"),
        ({"estimator": "iir", "window": 0}, "window"),
    ])
    def test_range_errors_name_the_field(self, kwargs, field):
        # `track` names the flag from the field; a NaN epsilon used to
        # pass and score every event with a c_ltm of NaN.
        with pytest.raises(ValidationError) as raised:
            EngineConfig(**kwargs)
        assert raised.value.field == field

    def test_accepts_ints_for_numbers(self):
        config = EngineConfig(theta=2, beta=0.5, epsilon=0, warmup=0,
                              capacity=3, prune=True)
        assert Engine(config).step(Observation(0, "A")).novelty

    def test_dict_round_trip(self):
        config = EngineConfig(estimator="fir", window=64, epsilon=0.01,
                              theta=2.0, capacity=100)
        assert EngineConfig.from_dict(config.to_dict()) == config


# -- references ---------------------------------------------------------
#
# engine_v1 is the engine of snapshot format 1, copied verbatim (see its
# docstring). The serializers and RefIirEstimator below are the per-event
# path from before that engine was made lean, copied verbatim with a ref_
# or Ref prefix: a frozen-dataclass record, fields rendered one by one,
# and an IIR update that recomputes the rate instead of reusing it.


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


class RefIirEstimator(v1.IirEstimator):
    def w(self, symbol):
        stored = self._w.get(symbol)
        if stored is None:
            return 0.0
        return stored * self.alpha ** (self._step - self._w_step[symbol])

    def update(self, obs):
        self._check_time(obs)
        self._note(obs)
        sym = obs.symbol
        current = self.w(sym)  # new symbols start at 0 before their update
        self._w[sym] = (1.0 - self.alpha) + self.alpha * current
        self._w_step[sym] = self._step + 1
        self._counts[sym] += 1
        self._step += 1
        if self.prune and self._step % self._PRUNE_EVERY == 0:
            self._sweep()


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


def exact(values) -> tuple:
    """Field values with floats as their IEEE-754 bits, so -0.0 != 0.0
    and NaN == NaN; other values with their type."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else (type(v), v)
                 for v in values)


def sweeping_every(engine, events: int):
    """The engine, with its IIR prune sweep every `events` events."""
    if isinstance(engine, v1.Engine):
        engine.estimator._PRUNE_EVERY = events
    else:
        engine._PRUNE_EVERY = events
    return engine


def as_v4(old: dict) -> str:
    """A format-1 snapshot in the current format: the event count and
    the seen set move out of the estimator, each part keeps only what
    config does not hold, the IIR step (the event count) goes, and the
    estimator gives each symbol by its position in stack + seen_off_stack."""
    estimator, stack = old["estimator"], old["stack"]
    order = stack + sorted(set(estimator["alphabet"]) - set(stack))
    if estimator["kind"] == "iir":
        state = {key: [estimator[key].get(symbol) for symbol in order]
                 for key in ("w", "w_step")}
    else:
        state = {"buffer": [order.index(symbol) for symbol in estimator["buffer"]]}
    return json.dumps({
        "format_version": 4,
        "config": old["config"],
        "last_t": old["last_t"],
        "events_seen": estimator["events_seen"],
        "stack": stack,
        "seen_off_stack": order[len(stack):],
        "estimator": state,
        "detector": {key: old["detector"][key] for key in ("ewma", "hits")},
    }, sort_keys=True, separators=(",", ":"))


diff_configs = st.builds(
    EngineConfig,
    estimator=st.sampled_from(["iir", "fir"]),
    alpha=st.sampled_from([0.5, 0.9, 0.99]),
    window=st.integers(min_value=1, max_value=6),
    epsilon=st.one_of(
        st.sampled_from([EPSILON_AUTO, EPSILON_OFF]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    ),
    theta=st.sampled_from([0.05, 0.5, 1.0]),
    min_hits=st.integers(min_value=1, max_value=3),
    warmup=st.sampled_from([0, 3]),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    prune=st.booleans(),
)

# Symbols that need escaping in JSON or quoting in CSV, plus any text.
awkward_symbols = st.one_of(
    st.sampled_from(['a', '"', "\\", ",", "a,b", "\r", "\n", "\r\n", "\x00",
                     "\x1f\x7f", "é", "字", "😀", "\ud800", '"q"\\,']),
    st.text(st.characters(exclude_categories=()), max_size=6),
)

any_float = st.one_of(
    st.none(), st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)


# Calls on an IirEstimator: w and update of a symbol, a sweep with a
# floor, or a round trip through state_dict.
iir_calls = st.one_of(
    st.tuples(st.sampled_from(["w", "update"]), st.sampled_from("ABC")),
    st.tuples(st.just("sweep"), st.one_of(
        st.sampled_from([0.0, 0.01, 0.1, 0.25, 0.5]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True))),
    st.tuples(st.just("round trip"), st.none()),
)


def iir_state_bits(state: dict) -> tuple:
    """The step, w and w_step of an IIR state_dict, rates as their bits."""
    return (state["step"], {s: exact([rate]) for s, rate in state["w"].items()},
            state["w_step"])


class TestLeanPathMatchesReference:
    """The engine against the format-1 engine and the older per-event
    path: the same records to the bit, the same serialized lines, and
    the same state after a resume from its own snapshot or from the
    reference's state converted to the current format."""

    @settings(deadline=None, max_examples=300)
    @given(diff_configs,
           st.sampled_from([1, 2, 3, 5, 1024]),
           st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.sampled_from("ABCDEFGHIJ")), max_size=60),
           st.integers(min_value=0, max_value=2 ** 70),
           st.data())
    def test_step_and_serializers(self, config, prune_every, gaps, t0, data):
        # The reference runs uninterrupted. At the split the engine goes
        # on as two: one restored from its own snapshot, one from the
        # reference's snapshot converted by as_v4. A gap of 0 repeats a
        # time, which every engine must reject without learning the event.
        # Two more engines score the same events through step_block, one
        # per emit. The letters of `gaps` name symbols of a drawn alphabet.
        split = data.draw(st.integers(min_value=0, max_value=len(gaps)))
        alphabet = data.draw(st.lists(awkward_symbols, min_size=10, max_size=10,
                                      unique=True))
        reference = sweeping_every(v1.Engine(config), prune_every)
        engines = [sweeping_every(Engine(config), prune_every)]
        # The reference's lines per emit (None where it refused the event)
        # and, at each refused event, its message and its state before it.
        stream, refused = [], {}
        expected_lines = {"jsonl": [], "csv": []}

        def resume():
            return [sweeping_every(Engine.restore_json(text), prune_every)
                    for text in (engines[0].snapshot_json(),
                                 as_v4(reference.snapshot()))]

        t = t0
        for i, (gap, letter) in enumerate(gaps):
            if i == split:
                engines = resume()
            obs = Observation(t, alphabet["ABCDEFGHIJ".index(letter)])
            stream.append(obs)
            try:
                expected = reference.step(obs)
            except NonMonotonicTimeError as exc:
                refused[i] = (str(exc), as_v4(reference.snapshot()))
                for lines in expected_lines.values():
                    lines.append(None)
                for engine in engines:
                    with pytest.raises(NonMonotonicTimeError) as raised:
                        engine.step(obs)
                    assert str(raised.value) == str(exc)
            else:
                expected_lines["jsonl"].append(ref_trace_to_jsonl(expected))
                expected_lines["csv"].append(ref_trace_to_csv(expected))
                for engine in engines:
                    record = engine.step(obs)
                    assert exact(record) == exact(expected)
                    assert trace_to_jsonl(record) == ref_trace_to_jsonl(expected)
                    assert trace_to_csv(record) == ref_trace_to_csv(expected)
            t += gap
        if split == len(gaps):
            engines = resume()
        for engine in engines:
            assert engine.snapshot_json() == as_v4(reference.snapshot())

        # Blocks end where hypothesis draws and at the split, where each
        # block engine is restored from its own snapshot. A refused event
        # ends its call; the rest of its block goes in the next one.
        ends = data.draw(st.sets(st.integers(min_value=0, max_value=len(gaps))))
        times = [obs.t for obs in stream]
        symbols = [obs.symbol for obs in stream]
        for emit, expected in expected_lines.items():
            blocked = sweeping_every(Engine(config), prune_every)
            start = 0
            for end in sorted(ends | {split, len(gaps)}):
                if start == split:
                    blocked = sweeping_every(
                        Engine.restore_json(blocked.snapshot_json()), prune_every)
                while start <= end:
                    lines = []
                    try:
                        blocked.step_block(times[start:end], symbols[start:end],
                                           lines, emit)
                    except NonMonotonicTimeError as exc:
                        at = start + len(lines)  # the refused event
                        assert (str(exc), blocked.snapshot_json()) == refused[at]
                    else:
                        at = end
                    assert lines == expected[start:at]
                    start = at + 1
                start = end
            assert blocked.snapshot_json() == as_v4(reference.snapshot())

    @pytest.mark.parametrize("emit", ["jsonl", "csv"])
    @pytest.mark.parametrize("config, stream", [
        # Novelties with a finite c_ltm, whose symbols need escaping in
        # JSON or quoting in CSV, then hits of each.
        (EngineConfig(warmup=0), ["a,b", '"', "\ud800", "a,b", '"', "\ud800", "a,b"]),
        # A bounded stack forgets "a" while the FIR window still holds it:
        # its return is a novelty with a finite c_ltm, even with epsilon off.
        (EngineConfig(estimator="fir", window=4, capacity=1, epsilon=EPSILON_OFF,
                      warmup=0), ["a", "b", "a", '"', '"']),
        # epsilon off with a window of 1: each first occurrence, and the
        # first hits of "a" and "b", have an infinite c_ltm; the last
        # event is a hit with a finite one.
        (EngineConfig(estimator="fir", window=1, epsilon=EPSILON_OFF, warmup=0),
         ["a", "b", "a", "b", "b"]),
        (EngineConfig(epsilon=EPSILON_OFF, warmup=0), ["a,b", "a,b", "\ud800"]),
    ], ids=["finite-novelties", "forgotten-symbol", "infinite-hits", "iir-off"])
    def test_step_block_branches(self, config, stream, emit):
        reference = v1.Engine(config)
        to_line = {"jsonl": ref_trace_to_jsonl, "csv": ref_trace_to_csv}[emit]
        expected = [to_line(reference.step(Observation(t, symbol)))
                    for t, symbol in enumerate(stream)]
        lines = []
        Engine(config).step_block(range(len(stream)), stream, lines, emit)
        assert lines == expected

    def test_step_block_leaves_no_stale_rate_behind(self):
        # A rate that w() kept before a block must not serve an update
        # after it, as it would not after the same events through step.
        engines = [Engine(small_config()), Engine(small_config())]
        for engine in engines:
            engine.step(Observation(0, "A"))
            engine.estimator.w("A")
        engines[0].step_block([1, 2], ["B", "B"], [], "jsonl")
        for t in (1, 2):
            engines[1].step(Observation(t, "B"))
        for engine in engines:
            engine.estimator.update(Observation(3, "A"))
        assert engines[0].snapshot_json() == engines[1].snapshot_json()

    def test_prune_sweep_then_the_dropped_symbol_returns(self):
        # The sweep at step 1024 drops "b", the last symbol it reads; the
        # next event is "b", whose rate must restart from zero.
        config = EngineConfig(alpha=0.99, prune=True, warmup=0)
        engine, reference = Engine(config), v1.Engine(config)
        stream = ["a", "b"] + ["a"] * 1022 + ["b", "a", "b"]
        for t, symbol in enumerate(stream):
            obs = Observation(t, symbol)
            assert exact(engine.step(obs)) == exact(reference.step(obs))
        assert "b" in engine.estimator.tracked_symbols()
        assert engine.snapshot_json() == as_v4(reference.snapshot())

    @settings(max_examples=300)
    @given(st.sampled_from([0.5, 0.9, 0.99]), st.lists(iir_calls, max_size=50))
    # The engine's order, then w of another symbol before the update.
    @example(0.5, [("w", "A"), ("update", "A"), ("w", "A"), ("w", "B"),
                   ("update", "A"), ("update", "B")])
    # A sweep between w and update that drops the symbol w read.
    @example(0.5, [("update", "A"), ("update", "B"), ("update", "B"),
                   ("update", "B"), ("w", "A"), ("sweep", 0.25), ("update", "A")])
    # A sweep that keeps it, and a round trip between w and update.
    @example(0.9, [("update", "A"), ("w", "A"), ("sweep", 0.01), ("update", "A"),
                   ("w", "A"), ("round trip", None), ("update", "A")])
    def test_iir_rate_reuse_under_any_call_order(self, alpha, calls):
        # The engine calls w(s) right before update(s); other callers
        # may call w, update and sweep in any order, and update must not
        # reuse a rate that no longer holds. Against the format-1
        # estimator, which keeps a (symbol, step, rate) tuple, and
        # RefIirEstimator, which keeps nothing: the same rates and the
        # same state, to the bit, after any interleaving of w, update,
        # sweep and a state_dict round trip.
        estimator = IirEstimator(alpha)
        references = [v1.IirEstimator(alpha), RefIirEstimator(alpha)]
        for t, (call, arg) in enumerate(calls):
            if call == "w":
                rate = exact([estimator.w(arg)])
                assert [exact([ref.w(arg)]) for ref in references] == [rate] * 2
            elif call == "update":
                for est in [estimator, *references]:
                    est.update(Observation(t, arg))
            elif call == "sweep":
                estimator.sweep(arg)
                for ref in references:
                    ref.epsilon_spec = arg  # the format-1 sweep's floor
                    ref._sweep()
            else:
                estimator = IirEstimator(alpha, **estimator.state_dict())
                references = [type(ref).from_state_dict(ref.state_dict())
                              for ref in references]
            state = iir_state_bits(estimator.state_dict())
            assert [iir_state_bits(ref.state_dict()) for ref in references] == [state] * 2

    @settings(max_examples=500)
    @given(st.tuples(st.integers(min_value=0, max_value=2 ** 80), awkward_symbols,
                     *[any_float] * 4, st.booleans(), st.booleans()))
    @example((0, "a", math.inf, 1.5, None, None, True, False))
    @example((2 ** 64, "a,b", -0.0, 1e300, -1e-7, 5e-7, False, True))
    # Records that pin the one template of each format against the
    # reference: finite costs whose sum overflows, a novelty with finite
    # costs, one NaN or None among finite costs, and -0.0.
    @example((1, "a", 1e308, 1.7e308, 1e308, 1.7e308, False, False))
    @example((1, "a", 1.0, 2.0, 1.0, 1.0, True, False))
    @example((1, "a", 1.0, math.nan, 1.0, 1.0, False, True))
    @example((1, "a", 1.0, 2.0, None, 1.0, False, False))
    @example((1, "a", -0.0, -0.0, -0.0, -0.0, False, False))
    def test_serializers_on_any_record(self, values):
        record, expected = TraceRecord(*values), RefTraceRecord(*values)
        assert trace_to_jsonl(record) == ref_trace_to_jsonl(expected)
        assert trace_to_csv(record) == ref_trace_to_csv(expected)

    def test_record_is_an_immutable_named_tuple(self):
        record = TraceRecord(0, "a", math.inf, 1.0, None, None, True, False)
        assert record._fields == tuple(f.name for f in fields(RefTraceRecord))
        assert record == TraceRecord(0, "a", math.inf, 1.0, None, None, True, False)
        with pytest.raises(AttributeError):
            record.t = 1
