import json
import math

import pytest
from hypothesis import given, settings
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
    detect,
    run_stream,
    trace_to_csv,
    trace_to_jsonl,
)
from unexpect.memory import Observation
from unexpect.simgen import SourceSpec, generate

symbols = st.sampled_from(["A", "B", "C", "D"])


def observations(stream):
    return [Observation(t, sym) for t, sym in enumerate(stream)]


def small_config(**overrides):
    defaults = dict(estimator="iir", alpha=0.9, warmup=0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


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

    def test_detect_wrapper(self):
        det = ChangeDetector(beta=0.5, theta=0.1, min_hits=1)
        flag, same = detect(det, 5.0)
        assert flag and same is det

    def test_rejects_negative_input(self):
        with pytest.raises(ValidationError):
            ChangeDetector().update(-0.1)

    @pytest.mark.parametrize("kwargs", [
        {"beta": 0.0}, {"beta": 1.0}, {"theta": 0.0}, {"min_hits": 0},
        {"theta": math.nan}, {"theta": math.inf},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            ChangeDetector(**kwargs)


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
        engine = Engine(small_config(epsilon="off"))
        engine.estimator._w["D"] = 0.25
        engine.estimator._w_step["D"] = 0
        for t, sym in enumerate(["D", "C", "B", "A"]):
            engine.stack.observe(sym)
        engine.estimator._step = 0
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

    def test_version_mismatch(self):
        engine = Engine(small_config())
        snap = engine.snapshot()
        snap["format_version"] = 99
        with pytest.raises(VersionMismatchError):
            Engine.restore(snap)

    def test_corrupted_snapshot_never_partially_restores(self):
        with pytest.raises(VersionMismatchError):
            Engine.restore_json('{"format_version": 1, "config"')
        with pytest.raises(VersionMismatchError):
            Engine.restore({"format_version": 1})  # missing everything else


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

    def test_dict_round_trip(self):
        config = EngineConfig(estimator="fir", window=64, epsilon=0.01,
                              theta=2.0, capacity=100)
        assert EngineConfig.from_dict(config.to_dict()) == config
