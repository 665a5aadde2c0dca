import contextlib
import csv
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unexpect
from unexpect.cli import _Exit, _fail_data, main
from unexpect.cli_tools import _BLOCK_LINES, _pair_from_trace
from unexpect.cli_track import _run_engine_over
from unexpect.core import (
    CodeLengthTable,
    DiscreteDistribution,
    UnexpectError,
    ValidationError,
)
from unexpect.divergence import MachinePair, divergences
from unexpect.engine import (Engine, EngineConfig, TraceRecord, run_stream,
                             trace_to_jsonl)
from unexpect.memory import _BLOCK_LINES as _EVENT_BLOCK_LINES
from unexpect.memory import (
    _CANONICAL_EVENT,
    Observation,
    _decode_json_line,
    read_events,
)
from unexpect.simgen import SourceSpec, generate
from unexpect.traceio import TRACE_CSV_HEADER, trace_to_csv


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def child_env(**settings):
    """The environment of a CLI child process: it imports the same package
    as this test, with or without PYTHONPATH set by the caller, and takes
    its text encoding settings from `settings` alone."""
    src = os.path.dirname(os.path.dirname(unexpect.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items()
           if key not in ("LC_ALL", "PYTHONIOENCODING", "PYTHONUTF8")}
    return {**env, "PYTHONPATH": path, **settings}


EVENTS = "\n".join(f'{{"t": {t}, "s": "{s}"}}'
                   for t, s in enumerate("ABAACABAA")) + "\n"


class TestTrack:
    def test_empty_input_empty_trace(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["track"], stdin_text="",
                                 monkeypatch=monkeypatch)
        assert code == 0
        assert out == ""

    def test_jsonl_trace_on_stdout(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["track", "--alpha", "0.9"],
                               stdin_text=EVENTS, monkeypatch=monkeypatch)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 9
        first = json.loads(lines[0])
        assert first["novelty"] is True and first["u_raw"] is None

    def test_csv_trace_has_header(self, tmp_path, capsys):
        events = write(tmp_path / "e.jsonl", EVENTS)
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            ["track", "--emit", "csv", "--input", events,
             "--output", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,symbol,c_stm,c_ltm,u_raw,u_clamped,novelty,change_flag"
        assert len(lines) == 10

    @pytest.mark.parametrize("symbol", ["a,b", 'say "hi"', "x\ny", "x\r\ny"])
    def test_csv_quotes_special_symbols(self, tmp_path, capsys, symbol):
        events = write(tmp_path / "e.jsonl",
                       json.dumps({"t": 0, "s": symbol}) + "\n")
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            ["track", "--emit", "csv", "--input", events,
             "--output", str(out_path)],
        )
        assert code == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            header, row = list(csv.reader(fh))
        assert len(header) == len(row) == 8
        assert row[1] == symbol

    def test_bare_token_input(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["track"], stdin_text="A\nB\nA\n",
                               monkeypatch=monkeypatch)
        assert code == 0
        assert [json.loads(l)["t"] for l in out.strip().split("\n")] == [0, 1, 2]

    def test_bad_alpha_names_the_flag(self, capsys):
        code, _, err = run_cli(capsys, ["track", "--alpha", "1.5"])
        assert code == 1
        assert "--alpha" in err and "(0, 1)" in err

    @pytest.mark.parametrize("argv, flag, shown", [
        (["--estimator", "fir", "--window", "3", "--alpha", "nan"], "--alpha",
         "nan"),
        (["--window", "0"], "--window", "0"),
    ], ids=["fir-alpha-nan", "iir-window-0"])
    def test_alpha_and_window_are_checked_whatever_the_estimator(
            self, tmp_path, capsys, argv, flag, shown):
        # Each was checked only under its own estimator: both exited 0,
        # and a NaN alpha went into the snapshot as NaN, which is not JSON.
        snap = tmp_path / "s.json"
        code, out, err = run_cli(capsys, ["track", "-i", os.devnull, *argv,
                                          "--snapshot-out", str(snap)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} must be ") and err.endswith(
            f", got {shown}\n")
        assert not snap.exists()

    @pytest.mark.parametrize("source", ["nan", "inf", "config NaN"])
    def test_non_finite_theta_names_the_flag(self, tmp_path, capsys, source):
        if source.startswith("config"):
            config = write(tmp_path / "cfg.json", '{"theta": NaN}')
            argv = ["track", "--config", config]
        else:
            argv = ["track", "--theta", source]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "--theta" in err

    @pytest.mark.parametrize("values, flag", [
        ({"theta": "x"}, "--theta"),
        ({"theta": True}, "--theta"),
        ({"beta": None}, "--beta"),
        ({"estimator": "fir", "window": 1.5}, "--window"),
        ({"min_hits": "3"}, "--min-hits"),
        ({"capacity": True}, "--capacity"),
        ({"capacity": 2.5}, "--capacity"),
        ({"epsilon": False}, "--epsilon"),
        ({"warmup": 2.5}, "--warmup"),
        ({"warmup": True}, "--warmup"),
        ({"prune": "yes"}, "--config"),
    ])
    def test_wrong_typed_config_value_names_the_flag(self, tmp_path, capsys,
                                                     values, flag):
        config = write(tmp_path / "cfg.json", json.dumps(values))
        code, _, err = run_cli(capsys, ["track", "--config", config])
        assert code == 1
        assert flag in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["track", "--nonsense"])
        assert code == 1

    def test_non_monotonic_time_exits_two_with_line(self, capsys, monkeypatch):
        bad = '{"t": 3, "s": "A"}\n{"t": 3, "s": "B"}\n'
        code, _, err = run_cli(capsys, ["track"], stdin_text=bad,
                               monkeypatch=monkeypatch)
        assert code == 2
        assert "line 2" in err

    def test_invalid_json_event_exits_two_with_line(self, capsys, monkeypatch):
        bad = '{"t": 0, "s": "A"}\n{"t": 1 "s"}\n'
        code, _, err = run_cli(capsys, ["track"], stdin_text=bad,
                               monkeypatch=monkeypatch)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("line", [
        '{"t": %s, "s": "A"}' % ("1" * 5000),   # the canonical spacing
        '{"t":%s,"s":"A"}' % ("1" * 5000),      # any other
        '{"t": 2, "s": "A", "x": %s}' % ("1" * 5000),
    ], ids=["canonical", "compact", "extra-key"])
    def test_huge_integer_exits_two_with_line(self, capsys, monkeypatch, line):
        # int() converts at most sys.get_int_max_str_digits() digits.
        text = '{"t": 0, "s": "A"}\n' + line + "\n"
        code, _, err = run_cli(capsys, ["track"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 2
        assert err == ("error: line 2: an integer has more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_repeated_key_exits_two_with_line(self, capsys, monkeypatch):
        # json.loads keeps the last value, so this line was scored at t = 5.
        text = '{"t": 0, "s": "A"}\n{"t": 1, "s": "a", "t": 5}\n'
        code, out, err = run_cli(capsys, ["track"], stdin_text=text,
                                 monkeypatch=monkeypatch)
        assert code == 2 and len(out.splitlines()) == 1
        assert err == "error: line 2: JSON object repeats key 't'\n"

    def test_failed_run_leaves_no_output_file(self, tmp_path, capsys):
        events = write(tmp_path / "bad.jsonl",
                       '{"t": 3, "s": "A"}\n{"t": 1, "s": "B"}\n')
        out_path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(
            capsys, ["track", "--input", events, "--output", str(out_path)]
        )
        assert code == 2
        assert not out_path.exists()
        assert not list(tmp_path.glob(".unexpect-*"))  # temp cleaned up

    @pytest.mark.parametrize("text, lineno", [
        ('\ufeff{"t": 1, "s": "a"}\n', 1),
        ("a\n\ufeffb\n", 2),
    ])
    def test_byte_order_mark_line_is_a_data_error(self, capsys, monkeypatch,
                                                  text, lineno):
        code, _, err = run_cli(capsys, ["track"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 2
        assert f"line {lineno}:" in err and "byte order mark" in err

    def test_unwritable_symbol_in_csv_is_a_data_error(self, tmp_path, capsys):
        # A lone surrogate is valid JSON; JSONL escapes it, CSV cannot.
        head = write(tmp_path / "head.jsonl", '{"t": 0, "s": "a"}\n')
        tail = write(tmp_path / "tail.jsonl",
                     '{"t": 1, "s": "a"}\n{"t": 2, "s": "\\ud800"}\n')
        snap = str(tmp_path / "snap.json")
        assert run_cli(capsys, ["track", "-i", head, "--snapshot-out", snap,
                                "-o", str(tmp_path / "head.trace")])[0] == 0
        code, _, _ = run_cli(capsys, ["replay", "--snapshot", snap, "-i", tail,
                                      "-o", str(tmp_path / "tail.trace")])
        assert code == 0
        for argv in (["track", "-i", tail], ["replay", "--snapshot", snap, "-i", tail]):
            out = tmp_path / "trace.csv"
            code, _, err = run_cli(capsys, [*argv, "--emit", "csv", "-o", str(out)])
            assert code == 2
            assert "line 2:" in err and "'\\ud800'" in err
            assert not out.exists()
            assert not list(tmp_path.glob(".unexpect-*"))

    def test_config_file_merges_under_flags(self, tmp_path, capsys):
        config = write(tmp_path / "cfg.json",
                       json.dumps({"alpha": 0.5, "theta": 9.0}))
        events = write(tmp_path / "e.jsonl", EVENTS)
        out_path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(
            capsys,
            ["track", "--config", config, "--alpha", "0.9",
             "--input", events, "--output", str(out_path),
             "--snapshot-out", str(tmp_path / "snap.json")],
        )
        assert code == 0
        snap = json.loads((tmp_path / "snap.json").read_text())
        assert snap["config"]["alpha"] == 0.9   # explicit flag wins
        assert snap["config"]["theta"] == 9.0   # file fills the rest

    def test_config_file_rejects_unknown_keys(self, tmp_path, capsys):
        config = write(tmp_path / "cfg.json", json.dumps({"alhpa": 0.5}))
        code, _, err = run_cli(capsys, ["track", "--config", config])
        assert code == 1
        assert "alhpa" in err

    def test_stability_diagnostic_on_stderr(self, tmp_path, capsys):
        events = write(tmp_path / "e.jsonl",
                       "\n".join(["A"] * 200) + "\n")
        code, out, err = run_cli(
            capsys,
            ["track", "--alpha", "0.5", "--input", events,
             "--stability-m", "50", "--stability-delta", "0.01"],
        )
        assert code == 0
        assert "all stable" in err
        assert "stable" not in out

    def test_stability_lists_what_still_moves(self, tmp_path, capsys):
        # alpha 0.5: A's last three rates are 0.875, 0.9375 and 0.96875; C
        # moved as much early on but not over its last three; B has fewer
        # than three updates.
        events = write(tmp_path / "e.jsonl",
                       "\n".join(["B", *"AAAAA", *"C" * 40]) + "\n")
        code, _, err = run_cli(
            capsys,
            ["track", "--alpha", "0.5", "--input", events, "--output", os.devnull,
             "--stability-m", "3", "--stability-delta", "0.01"],
        )
        assert code == 0
        assert err == ("ltm stability over last 3 updates (delta=0.01): "
                       "unstable symbols: A\n")

    @pytest.mark.parametrize("delta", ["-1", "nan", "inf"])
    def test_stability_delta_must_be_finite(self, capsys, delta):
        code, _, err = run_cli(
            capsys, ["track", "--stability-m", "10", "--stability-delta", delta])
        assert code == 1
        assert "--stability-delta" in err

    def test_stability_flags_must_pair(self, capsys):
        code, _, err = run_cli(capsys, ["track", "--stability-m", "10"])
        assert code == 1
        assert "--stability-delta" in err


class TestOutputPaths:
    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    def test_fifo_output_is_written_in_place(self, tmp_path, capsys):
        events = write(tmp_path / "events.jsonl", EVENTS)
        code, expected, _ = run_cli(capsys, ["track", "--input", events])
        assert code == 0
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        received = []

        def reader():
            with open(fifo, encoding="utf-8") as fh:
                received.append(fh.read())

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        code, _, _ = run_cli(capsys, ["track", "--input", events,
                                      "--output", str(fifo)])
        thread.join(timeout=10)
        assert not thread.is_alive(), "the reader never saw the writer close"
        assert code == 0
        assert received == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["events.jsonl", "trace.fifo"]

    def test_regular_file_is_replaced_whole_or_not_at_all(self, tmp_path, capsys):
        events = write(tmp_path / "events.jsonl", EVENTS)
        bad = write(tmp_path / "bad.jsonl", EVENTS + "{\n")
        out = write(tmp_path / "trace.jsonl", "stale\n" * 100)
        assert run_cli(capsys, ["track", "--input", bad, "--output", out])[0] == 2
        assert (tmp_path / "trace.jsonl").read_text() == "stale\n" * 100
        code, expected, _ = run_cli(capsys, ["track", "--input", events])
        assert run_cli(capsys, ["track", "--input", events, "--output", out])[0] == 0
        assert (tmp_path / "trace.jsonl").read_text() == expected
        assert sorted(os.listdir(tmp_path)) == ["bad.jsonl", "events.jsonl",
                                                "trace.jsonl"]


    @pytest.mark.parametrize("missing_dir", [False, True],
                             ids=["directory", "missing-directory"])
    @pytest.mark.parametrize("argv, flag", [
        (["track", "-i", "{events}", "-o", "{out}"], "--output"),
        (["track", "-i", "{events}", "--snapshot-out", "{out}"], "--snapshot-out"),
        (["simulate", "--spec", "{spec}", "--out", "{out}"], "--out"),
        (["simulate", "--spec", "{spec}", "--dist-out", "{out}"], "--dist-out"),
    ], ids=["track-output", "track-snapshot-out", "simulate-out",
            "simulate-dist-out"])
    def test_unwritable_path_names_the_flag(self, tmp_path, capsys, argv, flag,
                                            missing_dir):
        paths = {
            "events": write(tmp_path / "events.jsonl", EVENTS),
            "spec": write(tmp_path / "spec.json", json.dumps(
                {"kind": "zipf", "length": 5, "alphabet": 3})),
            "out": str(tmp_path / ("missing/out" if missing_dir else "adir")),
        }
        (tmp_path / "adir").mkdir()
        code, _, err = run_cli(capsys, [a.format(**paths) for a in argv])
        assert code == 1
        assert err.startswith(f"error: {flag}: cannot write {paths['out']}: ")
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["adir", "events.jsonl", "spec.json"]
        assert os.listdir(tmp_path / "adir") == []


class TestSnapshotReplay:
    def make_stream(self, tmp_path, n=40, split=25, symbols=None):
        symbols = symbols or ["AB"[t % 2] for t in range(n)]
        rows = [f'{{"t": {t}, "s": "{s}"}}' for t, s in enumerate(symbols)]
        full = write(tmp_path / "full.jsonl", "\n".join(rows) + "\n")
        head = write(tmp_path / "head.jsonl", "\n".join(rows[:split]) + "\n")
        tail = write(tmp_path / "tail.jsonl", "\n".join(rows[split:]) + "\n")
        return full, head, tail

    @pytest.mark.parametrize("kind", ["iir", "fir-capacity", "iir-prune"])
    def test_snapshot_then_replay_matches_uninterrupted(self, tmp_path, capsys,
                                                        kind):
        # The split run's trace and final snapshot are the whole run's.
        if kind == "iir-prune":
            # The sweeps at events 1,024 and 2,048 fall one in each half,
            # and each forgets the 100 symbols seen once 900-1,000 events
            # before it.
            cfg = write(tmp_path / "cfg.json",
                        json.dumps({"alpha": 0.99, "prune": True}))
            args = ["--config", cfg]
            once = {t: f"x{t}" for t in [*range(24, 124), *range(1124, 1224)]}
            symbols = [once.get(t, "AB"[t % 2]) for t in range(2100)]
            full, head, tail = self.make_stream(tmp_path, split=1050,
                                                symbols=symbols)
        elif kind == "fir-capacity":
            # A 3-symbol stack evicts in each half; G first comes in the tail.
            args = ["--estimator", "fir", "--window", "8", "--capacity", "3"]
            full, head, tail = self.make_stream(
                tmp_path, symbols=list("ABACBDABEACB" * 2 + "FAFBGAFB" * 2))
        else:
            args = ["--alpha", "0.9"]
            full, head, tail = self.make_stream(tmp_path)
        parts = ("full", "head", "tail")
        out = {part: tmp_path / f"{part}_trace.jsonl" for part in parts}
        snap = {part: tmp_path / f"{part}.json" for part in parts}
        for part, argv in [("full", ["track", *args, "--input", full]),
                           ("head", ["track", *args, "--input", head]),
                           ("tail", ["replay", "--snapshot", str(snap["head"]),
                                     "--input", tail])]:
            code, _, err = run_cli(capsys, [*argv, "--output", str(out[part]),
                                            "--snapshot-out", str(snap[part])])
            assert (code, err) == (0, "")
        assert (out["head"].read_text() + out["tail"].read_text()
                == out["full"].read_text())
        state = {part: json.loads(path.read_text()) for part, path in snap.items()}
        assert state["tail"] == state["full"]
        if kind == "fir-capacity":
            assert state["head"]["seen_off_stack"] == ["A", "D", "E"]
            assert state["full"]["seen_off_stack"] == ["C", "D", "E", "G"]
        elif kind == "iir-prune":
            # A null rate is a symbol a sweep forgot.
            assert state["head"]["estimator"]["w"].count(None) == 100
            assert state["full"]["estimator"]["w"].count(None) == 200

    def test_track_snapshot_in_rejects_config_flags(self, tmp_path, capsys):
        # replay is the one way to resume, and it takes no config flags:
        # the configuration is the snapshot's.
        full, head, _ = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, "--snapshot-out", str(snap),
                         "--output", os.devnull])
        code, out, err = run_cli(
            capsys,
            ["track", "--snapshot-in", str(snap), "--estimator", "fir",
             "--input", full],
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --snapshot-in" in err
        code, out, err = run_cli(
            capsys,
            ["replay", "--snapshot", str(snap), "--estimator", "fir",
             "--input", full],
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --estimator fir" in err

    def test_replay_rejects_stale_events(self, tmp_path, capsys):
        full, head, _ = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, "--snapshot-out", str(snap),
                         "--output", os.devnull])
        code, _, err = run_cli(
            capsys, ["replay", "--snapshot", str(snap), "--input", head]
        )
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("field, value, message", [
        ("events_seen", -1, "events_seen must be a nonnegative integer, got -1"),
        ("events_seen", 2.5, "events_seen must be a nonnegative integer, got 2.5"),
        ("events_seen", True, "events_seen must be a nonnegative integer, got True"),
        ("last_t", "24", "last_t must be a nonnegative integer, got '24'"),
        ("seen_off_stack", [1], "seen_off_stack holds a non-string symbol 1"),
        ("seen_off_stack", ["B", "A"], "seen_off_stack repeats stack symbol 'A'"),
        ("seen_off_stack", ["B", "B"], "seen_off_stack repeats a symbol"),
        ("config", {"capacity": None},
         "seen_off_stack must be empty for an unbounded stack"),
        ("stack", [None], "stack holds a non-string symbol None"),
        ("stack", "A", "stack must be a list, got 'A'"),
        # Each seen symbol came from an event: with no event scored, a
        # stack of B and A scored the next A as a hit at depth 2.
        ("events_seen", 1, "stack and seen_off_stack hold 2 symbols, more "
         "than events_seen (1)"),
        # After events, a null last_t would let the next one skip the time
        # check.
        ("last_t", None, "last_t must be a nonnegative integer, got None"),
        # A clock ahead of the count: last_t 24 with no event scored
        # restored, and the next event, at t = 0, failed as not after 24.
        ("events_seen", 0, "last_t must be null while events_seen is 0, got 24"),
        # A count ahead of the clock: 25 events end at t >= 24. Restored,
        # 2**70 events decayed every IIR rate to 0 and replayed.
        pytest.param("events_seen", 26, "events_seen must be at most last_t + 1 "
                     "(25), got 26", id="events_seen-past-clock"),
        pytest.param("events_seen", 2**70, "events_seen must be at most "
                     f"last_t + 1 (25), got {2**70}", id="events_seen-huge"),
        *[(field, None, f"{field} is missing")
          for field in ("config", "last_t", "events_seen", "seen_off_stack",
                        "stack", "estimator", "detector")],
        # No field has a default: a missing one would take it silently.
        *[(f"{part}.{field}", None, f"{field} is missing")
          for part, fields in (("config", EngineConfig._fields),
                               ("estimator", ("w", "w_step")),
                               ("detector", ("ewma", "hits")))
          for field in fields],
    ])
    def test_hand_edited_snapshot_names_the_field(self, tmp_path, capsys, field,
                                                  value, message):
        # Capacity 1: after A, B, ..., A the stack holds A and B is off it.
        _, head, tail = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, "--capacity", "1",
                         "--snapshot-out", str(snap), "--output", os.devnull])
        state = json.loads(snap.read_text())
        assert (state["stack"], state["seen_off_stack"]) == (["A"], ["B"])
        # A field "part.name" is inside a part; a dict value edits a part.
        *parts, name = field.split(".")
        owner = state[parts[0]] if parts else state
        if message.endswith("is missing"):
            del owner[name]
        elif isinstance(value, dict):
            owner[name].update(value)
        else:
            owner[name] = value
        snap.write_text(json.dumps(state))
        code, out, err = run_cli(
            capsys, ["replay", "--snapshot", str(snap), "--input", tail])
        assert code == 2
        assert out == ""
        assert err == f"error: snapshot {snap}: {message}\n"

    # Each row replaces the named fields of the estimator state. After the
    # 25 events, A (last at step 25) tops the stack and B (24) is under
    # it, so position 0 is A and position 1 is B.
    @pytest.mark.parametrize("flags, edits, message", [
        (["--alpha", "0.9"], {"w": ["x", 0.5]},
         "w must hold rates in [0, 1], got 'x' for 'A'"),
        (["--alpha", "0.9"], {"w": [0.5, 1.5]},
         "w must hold rates in [0, 1], got 1.5 for 'B'"),
        (["--alpha", "0.9"], {"w": [True, 0.5]},
         "w must hold rates in [0, 1], got True for 'A'"),
        (["--estimator", "fir", "--window", "2"], {"buffer": [0] * 4},
         "buffer holds 4 symbols, more than the window of 2"),
        # A null in one list only: a symbol with a rate and no step, or
        # a step and no rate.
        (["--alpha", "0.9"], {"w_step": [None, 24]},
         "w_step must hold the symbols of w, and only those; 'A' is in w only"),
        (["--alpha", "0.9"], {"w": [0.5, None]},
         "w_step must hold the symbols of w, and only those; 'B' is in "
         "w_step only"),
        (["--alpha", "0.9"], {"w_step": [1.5, 24]},
         "w_step must hold steps in [0, 25], got 1.5 for 'A'"),
        (["--alpha", "0.9"], {"w_step": [26, 24]},
         "w_step must hold steps in [0, 25], got 26 for 'A'"),
        (["--estimator", "fir", "--window", "2"], {"buffer": ["A", 1]},
         "buffer must hold positions in [0, 2), got 'A'"),
        (["--estimator", "fir", "--window", "2"], {"buffer": None},
         "buffer is missing"),
        # An entry past the stack and seen_off_stack stands for a symbol
        # on neither list.
        (["--alpha", "0.9"], {"w": [0.5, 0.4, 0.01], "w_step": [25, 24, 25]},
         "w must be a list of 2 entries, got [0.5, 0.4, 0.01]"),
        (["--estimator", "fir", "--window", "50"], {"buffer": [0, 2, 1]},
         "buffer must hold positions in [0, 2), got 2"),
        # 0.9 + 0.9 * 0.9: B decays for one step.
        (["--alpha", "0.9"], {"w": [0.9, 0.9]},
         "w must hold rates that sum to at most 1 after decay, got 1.71"),
        # A rate no run could give a third symbol, which was scored as a
        # novelty with c_ltm 0.152 while it was restored as given.
        (["--alpha", "0.9"], {"w": [0.5, 0.4, 0.9], "w_step": [25, 24, 25]},
         "w must be a list of 2 entries, got [0.5, 0.4, 0.9]"),
        # A string read as its letters, an object as its keys, and pair
        # lists as objects all replayed with exit 0.
        (["--estimator", "fir", "--window", "50"], {"buffer": "ABAB"},
         "buffer must be a list, got 'ABAB'"),
        (["--estimator", "fir", "--window", "50"], {"buffer": {"A": 1}},
         "buffer must be a list, got {'A': 1}"),
        (["--estimator", "fir", "--window", "50"], {"buffer": {}},
         "buffer must be a list, got {}"),
        (["--alpha", "0.9"], {"w": [["A", 0.5], ["B", 0.4]]},
         "w must hold rates in [0, 1], got ['A', 0.5] for 'A'"),
        (["--alpha", "0.9"], {"w_step": [["A", 25], ["B", 24]]},
         "w_step must hold steps in [0, 25], got ['A', 25] for 'A'"),
        # A short buffer silently reset the window.
        (["--estimator", "fir", "--window", "50"], {"buffer": [0, 1]},
         "buffer holds 2 symbols, not min(events_seen, window) = 25"),
        (["--estimator", "fir", "--window", "50"], {"buffer": []},
         "buffer holds 0 symbols, not min(events_seen, window) = 25"),
        (["--estimator", "fir", "--window", "6"], {"buffer": [0, 1] * 2},
         "buffer holds 4 symbols, not min(events_seen, window) = 6"),
        # Read as an index, -1 named the last symbol and True the second.
        (["--estimator", "fir", "--window", "50"], {"buffer": [-1]},
         "buffer must hold positions in [0, 2), got -1"),
        (["--estimator", "fir", "--window", "50"], {"buffer": [True]},
         "buffer must hold positions in [0, 2), got True"),
        # The state of format 3, which named each symbol.
        (["--alpha", "0.9"], {"w": {"A": 0.5, "B": 0.4}},
         "w must be a list of 2 entries, got {'A': 0.5, 'B': 0.4}"),
        (["--alpha", "0.9"], {"w_step": [25, 24, 25]},
         "w_step must be a list of 2 entries, got [25, 24, 25]"),
    ], ids=["w-string", "w-above-one", "w-bool", "fir-buffer",
            "w_step-lacks-a-symbol", "w_step-extra-symbol", "w_step-float",
            "w_step-past-step", "fir-buffer-int", "fir-buffer-missing",
            "w-unseen-symbol", "fir-buffer-unseen-symbol", "w-sum-above-one",
            "w-unseen-symbol-high-rate", "fir-buffer-string",
            "fir-buffer-object", "fir-buffer-empty-object", "w-pair-list",
            "w_step-pair-list", "fir-buffer-short", "fir-buffer-empty",
            "fir-buffer-short-of-window", "fir-buffer-negative",
            "fir-buffer-bool", "w-object", "w_step-too-long"])
    def test_hand_edited_estimator_state_names_the_field(
            self, tmp_path, capsys, flags, edits, message):
        # Restored as given, a rate of "x" failed at the first A, a
        # buffer past its window never shrank (rates went above 1), and
        # a w_step without A failed with a KeyError at the first A.
        _, head, tail = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, *flags,
                         "--snapshot-out", str(snap), "--output", os.devnull])
        state = json.loads(snap.read_text())
        for key, value in edits.items():
            if message.endswith("is missing"):
                del state["estimator"][key]
            else:
                state["estimator"][key] = value
        snap.write_text(json.dumps(state))
        code, out, err = run_cli(
            capsys, ["replay", "--snapshot", str(snap), "--input", tail])
        assert (code, out) == (2, "")
        assert err == f"error: snapshot {snap}: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("ewma", float("nan"), "ewma must be a finite number >= 0, got nan"),
        ("ewma", "x", "ewma must be a finite number >= 0, got 'x'"),
        ("ewma", -1.0, "ewma must be a finite number >= 0, got -1.0"),
        ("hits", "x", "hits must be a nonnegative integer, got 'x'"),
        ("hits", -5, "hits must be a nonnegative integer, got -5"),
        ("hits", 2.0, "hits must be a nonnegative integer, got 2.0"),
    ], ids=["ewma-nan", "ewma-string", "ewma-negative", "hits-string",
            "hits-negative", "hits-float"])
    def test_hand_edited_detector_state_names_the_field(
            self, tmp_path, capsys, field, value, message):
        # Restored as given, hits of "x" failed at the first flag test
        # and an ewma of NaN, or hits of -5, replayed with exit 0.
        _, head, tail = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, "--warmup", "0",
                         "--snapshot-out", str(snap), "--output", os.devnull])
        state = json.loads(snap.read_text())
        state["detector"][field] = value
        snap.write_text(json.dumps(state))
        code, out, err = run_cli(
            capsys, ["replay", "--snapshot", str(snap), "--input", tail])
        assert (code, out) == (2, "")
        assert err == f"error: snapshot {snap}: {message}\n"

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_format_exits_two_naming_the_version(self, tmp_path, capsys,
                                                       version):
        # Formats 1 and 2 kept config values again in the parts, and format
        # 3 named a symbol up to three times; a run resumes only from a
        # snapshot of the current format.
        _, head, tail = self.make_stream(tmp_path)
        snap = tmp_path / "snap.json"
        run_cli(capsys, ["track", "--input", head, "--snapshot-out", str(snap),
                         "--output", os.devnull])
        state = json.loads(snap.read_text())
        state["format_version"] = version
        snap.write_text(json.dumps(state))
        code, out, err = run_cli(
            capsys, ["replay", "--snapshot", str(snap), "--input", tail])
        assert (code, out) == (2, "")
        assert err == (f"error: snapshot {snap}: snapshot version {version}, "
                       "expected 4\n")

    def test_corrupt_snapshot_exits_two(self, tmp_path, capsys):
        snap = write(tmp_path / "snap.json", '{"format_version": 7}')
        code, _, err = run_cli(capsys, ["replay", "--snapshot", snap])
        assert code == 2
        assert "version" in err


# The configs of the track runs whose snapshots the one-edit test
# edits, with their events: IIR, FIR with evictions (so seen_off_stack
# is not empty), and IIR with prune (so w holds fewer symbols than the
# stack). Warm-up 0 arms the detector.
EDITED_RUNS = {
    "iir": ({"alpha": 0.9, "warmup": 0}, "ABACBDAB" * 5),
    "fir-capacity": ({"estimator": "fir", "window": 6, "capacity": 2,
                      "warmup": 0}, "ABCADBEA" * 5),
    "iir-prune": ({"alpha": 0.9, "prune": True, "warmup": 0},
                  "ABCDE" * 10 + "AB" * 525),
}
EDIT_VALUES = [None, True, -1, 2 ** 70, 1.5, math.nan, math.inf, "x", [],
               ["A", "A"], [1], {}]
DELETE = object()


def json_paths(value, path=()):
    """(path, is a dict key) of every value nested in value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,), isinstance(value, dict)
        yield from json_paths(inner, path + (key,))


@pytest.fixture(scope="module")
def real_snapshots(tmp_path_factory):
    """Each run's snapshot as a JSON value, the tail to replay after it,
    and a path to write an edited copy to."""
    root = tmp_path_factory.mktemp("one-edit")
    # Far past any last_t an edit writes, so only the snapshot can fail.
    tail = write(root / "tail.jsonl", "".join(
        f'{{"t": {2 ** 71 + i}, "s": "{s}"}}\n' for i, s in enumerate("ABZCA")))
    snapshots = {}
    for name, (config, stream) in EDITED_RUNS.items():
        events = write(root / f"{name}.jsonl", "".join(
            f'{{"t": {t}, "s": "{s}"}}\n' for t, s in enumerate(stream)))
        snap = root / f"{name}.snap"
        assert main(["track", "--config", write(root / f"{name}.json",
                                                json.dumps(config)),
                     "--input", events, "--output", os.devnull,
                     "--snapshot-out", str(snap)]) == 0
        snapshots[name] = json.loads(snap.read_text())
    return snapshots, tail, str(root / "edited.snap")


@st.composite
def one_edit(draw, snapshots):
    """A snapshot's name, the path to one of its values, and DELETE (for
    a dict key) or the value to put there."""
    name = draw(st.sampled_from(sorted(snapshots)))
    path, is_key = draw(st.sampled_from(list(json_paths(snapshots[name]))))
    edits = [DELETE, *EDIT_VALUES] if is_key else EDIT_VALUES
    return name, path, draw(st.sampled_from(edits))


def test_one_edit_snapshot_replays_or_exits_two(real_snapshots):
    # One deletion, or one odd value anywhere in a real snapshot: replay
    # either accepts it or exits 2 naming the snapshot, with no traceback.
    snapshots, tail, path = real_snapshots

    @settings(max_examples=500, deadline=None)
    @given(one_edit(snapshots))
    def check(edit):
        name, keys, value = edit
        state = json.loads(json.dumps(snapshots[name]))
        owner = state
        for key in keys[:-1]:
            owner = owner[key]
        if value is DELETE:
            del owner[keys[-1]]
        else:
            owner[keys[-1]] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["replay", "--snapshot", path, "--input", tail])
        assert code in (0, 2), err.getvalue()
        if code == 2 or value is DELETE:
            assert code == 2
            assert out.getvalue() == ""
            assert err.getvalue().startswith(f"error: snapshot {path}: ")

    check()


# How standard input decodes before `_open_input` reconfigures it: with
# surrogate escapes (UTF-8 mode), strictly (a UTF-8 locale), and with a
# character for every byte (Latin-1).
STDIN_ENCODINGS = {
    "utf8-mode": {"PYTHONUTF8": "1"},
    "utf8-locale": {"PYTHONUTF8": "0", "LC_ALL": "C.UTF-8"},
    "latin-1": {"PYTHONUTF8": "0", "PYTHONIOENCODING": "latin-1"},
}


class TestInputNotUtf8:
    """A byte that is not UTF-8 exits 2 naming its line, in a file or on
    standard input, whatever the locale. Each case holds one such byte in
    line 2: (arguments, input, the error line)."""

    EVENTS = b'{"t": 0, "s": "a"}\n{"t": 1, "s": "b\xffc"}\n{"t": 2, "s": "a"}\n'
    CASES = {
        "track": (["track"], EVENTS, "line 2: byte 0xff is not UTF-8"),
        "track-token": (["track"], b"a\n\xfe\n", "line 2: byte 0xfe is not UTF-8"),
        "track-split": (["track"], b"a\n\xe2\x82\n",
                        "line 2: byte 0xe2 is not UTF-8"),
        "replay": (["replay", "--snapshot", "{snapshot}"], EVENTS,
                   "line 2: byte 0xff is not UTF-8"),
        "divergence": (["divergence", "--from-trace"],
                       b'{"symbol": "a", "c_ltm": 1.0}\n'
                       b'{"symbol": "\xff", "c_ltm": 1.0}\n',
                       "line 2: not a trace record: byte 0xff is not UTF-8"),
    }

    def argv(self, tmp_path, capsys, case):
        """The case's arguments, with the snapshot of an empty stream."""
        snapshot = str(tmp_path / "empty.json")
        assert run_cli(capsys, ["track", "--input", os.devnull,
                                "--snapshot-out", snapshot])[0] == 0
        argv, data, message = self.CASES[case]
        return [a.format(snapshot=snapshot) for a in argv], data, message

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_file(self, tmp_path, capsys, case):
        argv, data, message = self.argv(tmp_path, capsys, case)
        (tmp_path / "input").write_bytes(data)
        code, _, err = run_cli(capsys, [*argv, "--input", str(tmp_path / "input"),
                                        "--output", os.devnull])
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("encoding", sorted(STDIN_ENCODINGS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stdin(self, tmp_path, capsys, case, encoding):
        argv, data, message = self.argv(tmp_path, capsys, case)
        child = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", *argv, "--output", os.devnull],
            input=data, capture_output=True,
            env=child_env(**STDIN_ENCODINGS[encoding]))
        assert (child.returncode, child.stderr) == (2, f"error: {message}\n".encode())

    def test_lines_simulate_writes_keep_the_fast_path(self, tmp_path, capsys):
        """simulate's lines match the canonical-event regex, except for a
        non-ASCII symbol, which it writes as a \\uXXXX escape as
        json.dumps does; those lines take the JSON path, and every line
        reads back to the observation generate gives."""
        ascii_spec = {"kind": "zipf", "length": 50, "seed": 1, "alphabet": 20}
        wide_spec = {"kind": "stationary", "length": 200, "seed": 4,
                     "symbols": ["a", "é", "字", "😀"], "mass": [0.25] * 4}
        for spec in (ascii_spec, wide_spec):
            path = write(tmp_path / "spec.json", json.dumps(spec))
            events = tmp_path / "events.jsonl"
            assert run_cli(capsys, ["simulate", "--spec", path,
                                    "--out", str(events)])[0] == 0
            text = events.read_text(encoding="utf-8")
            assert text.isascii()
            lines = text.splitlines(keepends=True)
            expected = list(generate(SourceSpec.from_dict(spec)))
            assert len(lines) == len(expected) == spec["length"]
            for line, obs in zip(lines, expected):
                assert (bool(_CANONICAL_EVENT.fullmatch(line))
                        == obs.symbol.isascii())
            assert [obs for _, obs in read_events(lines)] == expected
        assert {obs.symbol for obs in expected} == set(wide_spec["symbols"])
        escaped = self.EVENTS.decode("utf-8", "surrogateescape").splitlines()
        assert _CANONICAL_EVENT.fullmatch(escaped[1]) is None


class TestClosedStandardStreams:
    """A closed standard input exits 2, as a missing --input file does; a
    closed standard output exits 1 naming the flag that would write it, as
    an unwritable path does."""

    def snapshot(self, tmp_path, capsys):
        """The snapshot of an empty stream."""
        path = str(tmp_path / "empty.json")
        assert run_cli(capsys, ["track", "--input", os.devnull,
                                "--snapshot-out", path])[0] == 0
        return path

    @pytest.mark.parametrize("argv", [
        ["track"], ["replay", "--snapshot", "{snapshot}"],
        ["divergence", "--from-trace"]], ids=lambda argv: argv[0])
    def test_closed_stdin_is_a_data_error(self, tmp_path, capsys, monkeypatch,
                                          argv):
        snapshot = self.snapshot(tmp_path, capsys)
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(capsys, [a.format(snapshot=snapshot) for a in argv]
                                 + ["--output", os.devnull])
        assert (code, out, err) == (
            2, "", "error: cannot read standard input: it is closed\n")

    @pytest.mark.parametrize("argv, flag", [
        (["track", "-i", os.devnull], "--output"),
        (["replay", "--snapshot", "{snapshot}", "-i", os.devnull], "--output"),
        (["track", "-i", os.devnull, "-o", os.devnull, "--snapshot-out", "-"],
         "--snapshot-out"),
        (["simulate", "--spec", "{spec}"], "--out"),
        (["simulate", "--spec", "{spec}", "--out", os.devnull, "--dist-out", "-"],
         "--dist-out"),
        (["divergence", "--from-trace", "--normalize-mind", "-i", "{trace}"],
         "--output"),
        (["explain", "--graph", "{graph}", "--target", "s", "--cd", "1"],
         "--output"),
    ], ids=["track", "replay", "track-snapshot-out", "simulate",
            "simulate-dist-out", "divergence", "explain"])
    def test_closed_stdout_names_the_flag(self, tmp_path, capsys, monkeypatch,
                                          argv, flag):
        names = {
            "snapshot": self.snapshot(tmp_path, capsys),
            "spec": write(tmp_path / "spec.json", json.dumps(
                {"kind": "zipf", "length": 5, "alphabet": 3})),
            "graph": write(tmp_path / "graph.json", json.dumps(
                {"nodes": [{"id": "c", "prior_bits": 1.0}, {"id": "s"}],
                 "edges": [{"from": "c", "to": "s", "bits": 2.0}]})),
            "trace": write(tmp_path / "trace.jsonl",
                           '{"symbol": "a", "c_ltm": 1.0}\n'),
        }
        monkeypatch.setattr("sys.stdout", None)
        code, out, err = run_cli(capsys, [a.format(**names) for a in argv])
        assert (code, out, err) == (
            1, "", f"error: {flag}: cannot write standard output: it is closed\n")

    @pytest.mark.parametrize("redirect, argv, code, message", [
        ("<&-", ["track", "-o", os.devnull], 2,
         "cannot read standard input: it is closed"),
        (">&-", ["track", "-i", os.devnull], 1,
         "--output: cannot write standard output: it is closed"),
    ], ids=["stdin", "stdout"])
    def test_closed_descriptor_in_a_child(self, redirect, argv, code, message):
        child = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh",
             sys.executable, "-m", "unexpect.cli", *argv],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert (child.returncode, child.stderr) == (code, f"error: {message}\n")

    def test_reader_that_closes_the_pipe_early(self, tmp_path):
        # About 0.5 MB of events, more than a pipe holds, so that simulate
        # is still writing when the reader goes.
        spec = write(tmp_path / "spec.json", json.dumps(
            {"kind": "zipf", "length": 20_000, "seed": 1, "alphabet": 100}))
        child = subprocess.Popen(
            [sys.executable, "-m", "unexpect.cli", "simulate", "--spec", spec],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert child.stdout.readline() == b'{"t": 0, "s": "10"}\n'
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (0, b"")


class TestExplain:
    GRAPH = {
        "nodes": [{"id": "c1", "prior_bits": 2.0},
                  {"id": "c2", "prior_bits": 4.0},
                  {"id": "s"}],
        "edges": [{"from": "c1", "to": "s", "bits": 3.0},
                  {"from": "c2", "to": "s", "bits": 0.5}],
    }

    def test_graph_mode(self, tmp_path, capsys):
        graph = write(tmp_path / "g.json", json.dumps(self.GRAPH))
        code, out, _ = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "s",
                     "--cd", "3.0"]
        )
        assert code == 0
        result = json.loads(out)
        assert result["best_cause"] == "c2"
        assert result["chain"] == ["c2", "s"]
        assert result["generation_cost_bits"] == 4.5
        assert result["u_raw_bits"] == 1.5

    def test_bayes_mode_reproduces_posterior(self, tmp_path, capsys):
        model = write(tmp_path / "m.json", json.dumps({
            "observation": "O",
            "evidence": 0.1,
            "causes": {"M": {"prior": 0.01, "likelihood": 0.9}},
        }))
        code, out, _ = run_cli(
            capsys, ["explain", "--bayes", model, "--target", "O"]
        )
        assert code == 0
        result = json.loads(out)
        assert result["posterior"] == pytest.approx(0.09, abs=1e-9)
        assert result["u_raw_bits"] == pytest.approx(3.4739311883324127, abs=1e-9)

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, ["explain", "--target", "s"])
        assert code == 1
        graph = write(tmp_path / "g.json", json.dumps(self.GRAPH))
        code, _, err = run_cli(
            capsys,
            ["explain", "--graph", graph, "--bayes", graph, "--target", "s"],
        )
        assert code == 1

    @pytest.mark.parametrize("c_d, u_raw", [("5000", -4998.0), ("1026", -1024.0),
                                            ("10", -8.0), ("2.5", -0.5)])
    def test_posterior_past_the_float_range_exits_two(self, tmp_path, capsys,
                                                      c_d, u_raw):
        # A --cd above the chain's cost, u_raw < 0, printed a "posterior"
        # 2 ** -u_raw above 1 (256 at --cd 10); past 1,024 bits it
        # overflowed. The chain itself describes the target, so C_d <= C_w.
        graph = write(tmp_path / "g.json", json.dumps({
            "nodes": [{"id": "C", "prior_bits": 1.0}, {"id": "O"}],
            "edges": [{"from": "C", "to": "O", "bits": 1.0}]}))
        code, out, err = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "O", "--cd", c_d])
        assert (code, out) == (2, "")
        assert err == (f"error: --cd {float(c_d)} is above 2.0 bits, the cost "
                       f"of the cheapest chain to 'O': u_raw = {u_raw} < 0\n")

    def test_cd_at_the_chain_cost_gives_posterior_one(self, tmp_path, capsys):
        graph = write(tmp_path / "g.json", json.dumps(self.GRAPH))
        code, out, _ = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "s", "--cd", "4.5"])
        assert code == 0
        assert json.loads(out)["posterior"] == 1.0

    @pytest.mark.parametrize("source, cd, message", [
        ("--graph", "-5", "--cd must be finite and >= 0, got -5.0"),
        ("--graph", "nan", "--cd must be finite and >= 0, got nan"),
        ("--graph", "inf", "--cd must be finite and >= 0, got inf"),
        ("--bayes", "1", "--cd cannot be combined with --bayes"),
        ("--graph", None, "--cd is required with --graph"),
    ], ids=["negative", "nan", "inf", "bayes", "missing"])
    def test_cd_faults_name_the_flag(self, tmp_path, capsys, source, cd,
                                     message):
        # -5 printed "c_d_bits": -5.0 with exit 0; nan and inf exited 2
        # without naming the flag; --bayes used the model's cost silently.
        path = write(tmp_path / "f.json", json.dumps(
            self.GRAPH if source == "--graph" else
            {"evidence": 0.1, "causes": {"M": {"prior": 0.01, "likelihood": 0.9}}}))
        cd_args = [] if cd is None else ["--cd", cd]
        code, out, err = run_cli(
            capsys, ["explain", source, path, "--target", "s", *cd_args])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_unknown_target_is_data_error(self, tmp_path, capsys):
        graph = write(tmp_path / "g.json", json.dumps(self.GRAPH))
        code, _, err = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "nope",
                     "--cd", "1.0"]
        )
        assert code == 2
        assert "nope" in err

    @pytest.mark.parametrize("edit, message", [
        (("nodes", 0, "prior_bits", "2"),
         "prior of 'c1' must be a finite number >= 0, got '2'"),
        (("nodes", 0, "prior_bits", True),
         "prior of 'c1' must be a finite number >= 0, got True"),
        (("edges", 1, "bits", True),
         "edge 'c2'->'s' cost must be a finite number >= 0, got True"),
        (("edges", 0, "bits", [3.0]),
         "edge 'c1'->'s' cost must be a finite number >= 0, got [3.0]"),
    ])
    def test_graph_costs_must_be_numbers(self, tmp_path, capsys, edit, message):
        # A true or a "2" was read as 1.0 or 2.0 bits.
        part, index, key, value = edit
        obj = json.loads(json.dumps(self.GRAPH))
        obj[part][index][key] = value
        graph = write(tmp_path / "g.json", json.dumps(obj))
        code, out, err = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "s", "--cd", "3.0"])
        assert (code, out) == (2, "")
        assert err == f"error: graph file {graph}: {message}\n"

    @pytest.mark.parametrize("node, message", [
        ({"id": 1, "prior_bits": 1.0}, "node ids holds a non-string symbol 1"),
        ({"id": "s", "prior_bits": 1.0}, "node ids repeats a symbol"),
    ])
    def test_node_ids_must_be_distinct_strings(self, tmp_path, capsys, node,
                                               message):
        # An integer id ended in a TypeError traceback when sorted with
        # the others; a repeated id merged its node silently.
        obj = json.loads(json.dumps(self.GRAPH))
        obj["nodes"].append(node)
        graph = write(tmp_path / "g.json", json.dumps(obj))
        code, out, err = run_cli(
            capsys, ["explain", "--graph", graph, "--target", "s", "--cd", "3.0"])
        assert (code, out) == (2, "")
        assert err == f"error: graph file {graph}: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        ({"causes": [1]}, "causes must be an object, got [1]"),
        ({"causes": "M"}, "causes must be an object, got 'M'"),
        ({"observation": ["O"]}, "observation must be a string, got ['O']"),
        ({"evidence": "0.1"}, "evidence must be a number, got '0.1'"),
        ({"evidence": True}, "evidence must be a number, got True"),
        ({"causes": {"M": {"prior": True, "likelihood": 0.9}}},
         "prior of 'M' must be a number, got True"),
        ({"causes": {"M": {"prior": 0.01, "likelihood": "0.9"}}},
         "likelihood of 'M' must be a number, got '0.9'"),
        # P(O) below P(M) P(O|M) printed a "posterior" of 25.
        ({"evidence": 0.01, "causes": {"M": {"prior": 0.5, "likelihood": 0.5}}},
         "evidence 0.01 is below the sum of prior * likelihood, 0.25"),
    ])
    def test_model_values_must_have_their_types(self, tmp_path, capsys, edit,
                                                message):
        # A list of causes and a list observation ended in tracebacks; a
        # true or a "0.1" was read as a number.
        model = write(tmp_path / "m.json", json.dumps({
            "observation": "O", "evidence": 0.1,
            "causes": {"M": {"prior": 0.01, "likelihood": 0.9}}, **edit}))
        code, out, err = run_cli(
            capsys, ["explain", "--bayes", model, "--target", "O"])
        assert (code, out) == (2, "")
        assert err == f"error: model file {model}: {message}\n"


class TestDivergenceCommand:
    def test_file_pair_report(self, tmp_path, capsys):
        world = write(tmp_path / "w.json",
                      json.dumps({"symbols": ["a", "b"], "mass": [0.75, 0.25]}))
        mind = write(tmp_path / "m.json",
                     json.dumps({"symbols": ["a", "b"], "bits": [1.0, 1.0]}))
        code, out, _ = run_cli(
            capsys, ["divergence", "--world", world, "--mind", mind]
        )
        assert code == 0
        report = json.loads(out)
        assert report["d_wrel"] == pytest.approx(-0.18872187554086717, abs=1e-9)
        assert report["d_drel"] == pytest.approx(0.20751874963942185, abs=1e-9)

    def test_csv_emit(self, tmp_path, capsys):
        world = write(tmp_path / "w.json",
                      json.dumps({"symbols": ["a", "b"], "mass": [0.5, 0.5]}))
        mind = write(tmp_path / "m.json",
                     json.dumps({"symbols": ["a", "b"], "bits": [1.0, 1.0]}))
        code, out, _ = run_cli(
            capsys,
            ["divergence", "--world", world, "--mind", mind, "--emit", "csv"],
        )
        assert code == 0
        assert out.startswith("field,value\n")
        assert "u.a," in out

    def test_incomplete_mind_needs_flag(self, tmp_path, capsys):
        world = write(tmp_path / "w.json",
                      json.dumps({"symbols": ["a", "b"], "mass": [0.5, 0.5]}))
        mind = write(tmp_path / "m.json",
                     json.dumps({"symbols": ["a", "b"], "bits": [2.0, 2.0]}))
        code, _, err = run_cli(
            capsys, ["divergence", "--world", world, "--mind", mind]
        )
        assert code == 2
        assert "normalize" in err
        code, out, _ = run_cli(
            capsys,
            ["divergence", "--world", world, "--mind", mind, "--normalize-mind"],
        )
        assert code == 0

    @pytest.mark.parametrize("mass, bits", [
        ([0.5, 0.5], [0, 1023]), ([0.5, 0.5], [0, 1030]),
        ([0.5, 0.5], [0, 1075]), ([0.5, 0.5], [0, 1100]),
        ([1.0, 5e-324], [1, 1]), ([0.5, 0.5], [0, 1022]),
    ], ids=["1023-bits", "1030-bits", "1075-bits", "1100-bits", "mass-5e-324",
            "1022-bits"])
    def test_past_the_normal_floats_is_a_data_error(self, tmp_path, capsys,
                                                     mass, bits):
        # 1,030 bits failed the report's own KL cross-check, 1,075 bits
        # ended in a ZeroDivisionError, and a mass of 5e-324 failed the
        # cross-check; 2^-1022 is the least normal float.
        world = write(tmp_path / "w.json",
                      json.dumps({"symbols": ["a", "b"], "mass": mass}))
        mind = write(tmp_path / "m.json",
                     json.dumps({"symbols": ["a", "b"], "bits": bits}))
        code, out, err = run_cli(
            capsys, ["divergence", "--world", world, "--mind", mind])
        if bits[1] == 1022:
            assert (code, err) == (0, "")
            assert json.loads(out)["u"] == [1.0, -1021.0]
        elif mass[1] < 1e-300:
            assert (code, out) == (2, "")
            assert err == "error: world mass of 'b' is 5e-324, below 2**-1022\n"
        else:
            assert (code, out) == (2, "")
            assert err == (f"error: mind length of 'b' is {float(bits[1])} bits, "
                           "above 1022\n")

    def test_from_trace_builds_pair(self, tmp_path, capsys):
        events = write(
            tmp_path / "events.jsonl",
            "\n".join(f'{{"t": {t}, "s": "{"AAAB"[t % 4]}"}}'
                      for t in range(2000)) + "\n",
        )
        trace = tmp_path / "trace.jsonl"
        run_cli(capsys, ["track", "--alpha", "0.99", "--input", events,
                         "--output", str(trace)])
        code, out, _ = run_cli(
            capsys,
            ["divergence", "--from-trace", "--input", str(trace),
             "--normalize-mind"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["symbols"] == ["A", "B"]
        # empirical world is (0.75, 0.25) and the learned code is close
        assert abs(report["d_wrel"]) < 0.15

    def test_from_trace_symbol_outside_the_world_is_data_error(
            self, tmp_path, capsys, monkeypatch):
        # Every symbol has a cost: the ones outside the world are named,
        # sorted, before any cost is looked for.
        world = write(tmp_path / "w.json",
                      json.dumps({"symbols": ["a"], "mass": [1.0]}))
        trace = "".join(
            trace_to_jsonl(TraceRecord(t, s, 1.0, 1.0, 0.0, 0.0, False, False))
            + "\n" for t, s in enumerate("adba"))
        code, out, err = run_cli(
            capsys, ["divergence", "--from-trace", "--world", world],
            stdin_text=trace, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == ("error: trace symbol(s) not in the world's support: "
                       "['b', 'd']\n")

    def test_from_trace_rejects_mind_flag(self, capsys):
        code, _, err = run_cli(
            capsys, ["divergence", "--from-trace", "--mind", "m.json"]
        )
        assert code == 1
        assert "--mind" in err

    @pytest.mark.parametrize("argv", [
        [], ["--world", "w.json"], ["--mind", "m.json"],
    ], ids=["neither", "world-only", "mind-only"])
    def test_world_and_mind_are_required_without_from_trace(self, capsys, argv):
        code, out, err = run_cli(capsys, ["divergence", *argv])
        assert (code, out, err) == (
            1, "", "error: --world and --mind are required (or use --from-trace)\n")

    def test_tau_must_be_positive(self, capsys):
        for tau in ("0", "-1", "nan", "inf"):
            code, _, err = run_cli(capsys, ["divergence", "--tau", tau])
            assert code == 1
            assert "--tau" in err

    def test_csv_emit_quotes_symbols(self, tmp_path, capsys):
        # Both "a,b" and 'c"d' are cheap to generate yet costly to
        # describe at tau 1.2, so the incomplete cell joins them.
        world = write(tmp_path / "w.json", json.dumps(
            {"symbols": ["a,b", 'c"d', "e"], "mass": [0.45, 0.45, 0.1]}))
        mind = write(tmp_path / "m.json", json.dumps(
            {"symbols": ["a,b", 'c"d', "e"], "bits": [2.5, 2.5, 0.63]}))
        code, out, _ = run_cli(
            capsys,
            ["divergence", "--world", world, "--mind", mind, "--tau", "1.2",
             "--normalize-mind", "--emit", "csv"],
        )
        assert code == 0
        rows = {row[0]: row[1:] for row in csv.reader(out.splitlines())}
        assert all(len(cells) == 1 for cells in rows.values())
        assert {"u.a,b", 'u.c"d', "u.e"} <= rows.keys()
        assert rows["incomplete"] == ['a,b;c"d']

    def test_csv_emit_unwritable_symbol_is_a_data_error(self, tmp_path, capsys,
                                                        monkeypatch):
        trace = "".join(json.dumps({"symbol": s, "c_ltm": 1.0}) + "\n"
                        for s in ("a", "\ud800"))
        out = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys, ["divergence", "--from-trace", "--normalize-mind",
                     "--emit", "csv", "-o", str(out)],
            stdin_text=trace, monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "cannot write symbol '\\ud800'" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("emit", ["json", "csv"])
    @pytest.mark.parametrize("bad", ["world", "mind"])
    def test_non_string_symbols_are_a_data_error(self, tmp_path, capsys, bad,
                                                 emit):
        # Masses and bits that land symbol 2 in both the unsound and the
        # incomplete lists, which the CSV emit joins as text.
        symbols = {"world": ["1", "2"], "mind": ["1", "2"]}
        symbols[bad] = [1, 2]
        world = write(tmp_path / "world.json", json.dumps(
            {"symbols": symbols["world"], "mass": [0.999, 0.001]}))
        mind = write(tmp_path / "mind.json", json.dumps(
            {"symbols": symbols["mind"], "bits": [5.0, 0.0014]}))
        code, out, err = run_cli(
            capsys, ["divergence", "--world", world, "--mind", mind,
                     "--normalize-mind", "--emit", emit])
        assert code == 2
        assert out == ""
        path = {"world": world, "mind": mind}[bad]
        assert err == (f'error: {bad} file {path}: "symbols" must be strings, '
                       f"got 1\n")

    @pytest.mark.parametrize("bad, values", [
        ("world", ["0.5", "0.5"]), ("world", [True, False]), ("world", "1"),
        ("mind", ["1", "1"]), ("mind", [True, True]), ("mind", [None, 1.0]),
    ])
    def test_value_that_is_not_a_number_is_a_data_error(self, tmp_path, capsys,
                                                         bad, values):
        # float() read "0.5" and True as numbers, and "1" as the list
        # ["1"]; the run exited 0.
        symbols = ["a"] if values == "1" else ["a", "b"]
        tables = {"world": ("mass", [1.0] if values == "1" else [0.5, 0.5]),
                  "mind": ("bits", [0.0] if values == "1" else [1.0, 1.0])}
        paths = {}
        for name, (key, good) in tables.items():
            paths[name] = write(tmp_path / f"{name}.json", json.dumps(
                {"symbols": symbols, key: values if name == bad else good}))
        code, out, err = run_cli(
            capsys, ["divergence", "--world", paths["world"], "--mind",
                     paths["mind"]])
        assert (code, out) == (2, "")
        assert err == (f"error: {bad} file {paths[bad]}: malformed: "
                       f'"{tables[bad][0]}" must be a list of numbers, '
                       f"got {values!r}\n")

    @pytest.mark.parametrize("bad", ["world", "mind"])
    def test_non_numeric_value_is_a_data_error(self, tmp_path, capsys, bad):
        values = {"world": [0.5, 0.5], "mind": [1.0, 1.0]}
        values[bad] = [0.5, "x"]
        world = write(tmp_path / "world.json", json.dumps(
            {"symbols": ["a", "b"], "mass": values["world"]}))
        mind = write(tmp_path / "mind.json", json.dumps(
            {"symbols": ["a", "b"], "bits": values["mind"]}))
        code, _, err = run_cli(
            capsys, ["divergence", "--world", world, "--mind", mind])
        assert code == 2
        path = {"world": world, "mind": mind}[bad]
        assert err.startswith(f"error: {bad} file {path}: malformed: ")

    @pytest.mark.parametrize("symbols", ["ab", {"a": 1, "b": 2}, 7, None])
    @pytest.mark.parametrize("bad", ["world", "mind", "from-trace-world"])
    def test_symbols_that_are_not_a_list_are_a_data_error(
            self, tmp_path, capsys, monkeypatch, bad, symbols):
        # "ab" was read as the symbols a and b, and the run exited 0.
        given = {"world": ["a", "b"], "mind": ["a", "b"]}
        given["mind" if bad == "mind" else "world"] = symbols
        world = write(tmp_path / "world.json", json.dumps(
            {"symbols": given["world"], "mass": [0.5, 0.5]}))
        mind = write(tmp_path / "mind.json", json.dumps(
            {"symbols": given["mind"], "bits": [1.0, 1.0]}))
        if bad == "from-trace-world":
            trace = "".join(
                trace_to_jsonl(TraceRecord(t, s, 1.0, 1.0, 0.0, 0.0, False, False))
                + "\n" for t, s in enumerate("ab"))
            argv, what, path = (["divergence", "--from-trace", "--world", world],
                                "world", world)
        else:
            argv, what, path = (["divergence", "--world", world, "--mind", mind],
                                bad, {"world": world, "mind": mind}[bad])
            trace = None
        code, out, err = run_cli(capsys, argv, stdin_text=trace,
                                 monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == (f'error: {what} file {path}: "symbols" must be a list '
                       "of strings\n")

    @pytest.mark.parametrize("line", [
        '{"symbol": "A", "c_ltm": "x"}',
        '{"symbol": ["A"], "c_ltm": 1.0}',
        '{"symbol": "A", "c_ltm": true}',
        '{"symbol": "A", "c_ltm": NaN}',
        '{"symbol": "A", "c_ltm": -1.0}',
    ])
    def test_from_trace_bad_line_is_data_error(self, capsys, monkeypatch, line):
        trace = '{"symbol": "A", "c_ltm": 1.0}\n' + line + "\n"
        code, _, err = run_cli(
            capsys, ["divergence", "--from-trace", "--normalize-mind"],
            stdin_text=trace, monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "line 2" in err

    def test_from_trace_repeated_key_names_the_line(self, capsys, monkeypatch):
        trace = '{"symbol": "A", "c_ltm": 1.0, "symbol": "B"}\n'
        code, _, err = run_cli(
            capsys, ["divergence", "--from-trace", "--normalize-mind"],
            stdin_text=trace, monkeypatch=monkeypatch,
        )
        assert code == 2
        assert err == ("error: line 1: not a trace record: JSON object "
                       "repeats key 'symbol'\n")

    def test_from_trace_huge_integer_names_the_line(self, capsys, monkeypatch):
        trace = '{"t": %s, "symbol": "A", "c_ltm": 1.0}\n' % ("1" * 5000)
        code, _, err = run_cli(
            capsys, ["divergence", "--from-trace", "--normalize-mind"],
            stdin_text=trace, monkeypatch=monkeypatch,
        )
        assert code == 2
        assert err == ("error: line 1: not a trace record: an integer has more "
                       f"than {sys.get_int_max_str_digits()} digits\n")


HUGE = "1" * 5000  # more digits than int() converts


@pytest.mark.parametrize("what, text, argv", [
    ("config file", '{"window": %s}' % HUGE, ["track", "--config"]),
    ("snapshot", '{"format_version": 4, "last_t": %s}' % HUGE,
     ["replay", "--snapshot"]),
    ("spec", '{"kind": "stationary", "seed": %s}' % HUGE, ["simulate", "--spec"]),
    ("world file", '{"symbols": ["a"], "mass": [%s]}' % HUGE,
     ["divergence", "--mind", "{mind}", "--world"]),
    ("mind file", '{"symbols": ["a"], "bits": [%s]}' % HUGE,
     ["divergence", "--world", "{world}", "--mind"]),
], ids=["config", "snapshot", "spec", "world", "mind"])
def test_huge_integer_in_a_json_file_names_the_file(tmp_path, capsys,
                                                    monkeypatch, what, text,
                                                    argv):
    # json's int() raised a bare ValueError, which only a traceback showed.
    other = {
        "{mind}": write(tmp_path / "m.json", '{"symbols": ["a"], "bits": [0]}'),
        "{world}": write(tmp_path / "w.json", '{"symbols": ["a"], "mass": [1]}'),
    }
    path = write(tmp_path / "huge.json", text)
    argv = [other.get(arg, arg) for arg in argv] + [path]
    code, out, err = run_cli(capsys, argv, stdin_text="",
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == (f"error: {what} {path}: an integer has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def _snapshot_after(symbols):
    engine = Engine(EngineConfig(warmup=0))
    for t, symbol in enumerate(symbols):
        engine.step(Observation(t, symbol))
    return engine.snapshot()


# Every file the CLI reads: what its messages call the file, the argv
# that reads it (the file's path goes last; {events}, {tail}, {world}
# and {mind} name helper files), and a valid file.
FILE_KINDS = {
    "config": ("config file", ["track", "--input", "{events}", "--output",
                               os.devnull, "--config"],
               {"alpha": 0.9, "warmup": 0, "estimator": "fir", "capacity": 2}),
    "graph": ("graph file", ["explain", "--target", "O", "--cd", "1",
                             "--output", os.devnull, "--graph"],
              {"nodes": [{"id": "C", "prior_bits": 1.0}, {"id": "O"}],
               "edges": [{"from": "C", "to": "O", "bits": 1.0}]}),
    "model": ("model file", ["explain", "--target", "O", "--output",
                             os.devnull, "--bayes"],
              {"observation": "O", "evidence": 0.1,
               "causes": {"M": {"prior": 0.01, "likelihood": 0.9}}}),
    "world": ("world file", ["divergence", "--mind", "{mind}", "--output",
                             os.devnull, "--world"],
              {"symbols": ["a", "b"], "mass": [0.5, 0.5]}),
    "mind": ("mind file", ["divergence", "--world", "{world}", "--output",
                           os.devnull, "--mind"],
             # b's 2^-60 is below the Kraft tolerance, so one value put in
             # its place keeps the code complete.
             {"symbols": ["a", "b"], "bits": [0.0, 60.0]}),
    "snapshot": ("snapshot", ["replay", "--input", "{tail}", "--output",
                              os.devnull, "--snapshot"],
                 _snapshot_after("ABACAB")),
    "spec": ("spec", ["simulate", "--out", os.devnull, "--spec"],
             {"kind": "stationary", "length": 20, "seed": 1,
              "symbols": ["a", "b"], "mass": [0.5, 0.5]}),
}


def file_argv(root, kind, path):
    """The argv that reads `path` as a `kind` file, its helpers under root."""
    helpers = {
        "{events}": root / "events.jsonl", "{tail}": root / "tail.jsonl",
        "{world}": root / "world.json", "{mind}": root / "mind.json",
    }
    for name, text in (("{events}", EVENTS), ("{tail}", '{"t": 10, "s": "C"}\n'),
                       ("{world}", json.dumps(FILE_KINDS["world"][2])),
                       ("{mind}", json.dumps(FILE_KINDS["mind"][2]))):
        write(helpers[name], text)
    argv = FILE_KINDS[kind][1]
    return [str(helpers.get(arg, arg)) for arg in argv] + [str(path)]


# Per kind: the key dropped from a valid file, and the message that
# follows "<what> <path>: " (config has no required key: an unknown one
# exits 1).
MISSING_KEY = {
    "graph": ("nodes", "malformed graph object: 'nodes'"),
    "model": ("evidence", "malformed: 'evidence'"),
    "world": ("mass", "malformed: 'mass'"),
    "mind": ("bits", "malformed: 'bits'"),
    "snapshot": ("stack", "stack is missing"),
    "spec": ("length", "spec missing field: 'length'"),
}


@pytest.mark.parametrize("fault", ["missing", "invalid-json", "array", "key"])
@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_every_file_fault_names_its_file(tmp_path, capsys, kind, fault):
    # All seven kinds go through one reader; each fault names the file.
    what, _, valid = FILE_KINDS[kind]
    path = tmp_path / "file.json"
    if fault == "missing":
        expected = 2, f"cannot read {what} {path}: No such file or directory"
    elif fault == "invalid-json":
        write(path, '{\n"a": 1,\n')
        expected = 2, f"{what} {path}: invalid JSON at line 3"
    elif fault == "array":
        write(path, "[1, 2]")
        expected = 2, f"{what} {path}: expected a JSON object"
    elif kind == "config":
        write(path, json.dumps({**valid, "bogus": 1}))
        expected = 1, "--config: unknown key(s) ['bogus']"
    else:
        key, message = MISSING_KEY[kind]
        write(path, json.dumps({k: v for k, v in valid.items() if k != key}))
        expected = 2, f"{what} {path}: {message}"
    code, out, err = run_cli(capsys, file_argv(tmp_path, kind, path))
    assert (code, out, err) == (expected[0], "", f"error: {expected[1]}\n")


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_repeated_key_in_a_json_file_names_the_file(tmp_path, capsys, kind):
    # json.loads keeps the last value: a config file of {"alpha": 0.9,
    # "alpha": 0.5} ran with alpha 0.5. The valid file, its first key
    # given twice.
    what, _, valid = FILE_KINDS[kind]
    key = next(iter(valid))
    text = json.dumps(valid)[:-1] + f", {json.dumps(key)}: {json.dumps(valid[key])}}}"
    path = write(tmp_path / "file.json", text)
    code, out, err = run_cli(capsys, file_argv(tmp_path, kind, path))
    assert (code, out, err) == (
        2, "", f"error: {what} {path}: JSON object repeats key {key!r}\n")


@pytest.mark.parametrize("fault, reason", [
    ("missing", "No such file or directory"), ("directory", "Is a directory"),
])
@pytest.mark.parametrize("argv", [
    ["track"], ["replay", "--snapshot", "{snapshot}"], ["divergence", "--from-trace"],
], ids=lambda argv: argv[0])
def test_unreadable_input_exits_two(tmp_path, capsys, argv, fault, reason):
    snapshot = write(tmp_path / "snapshot.json",
                     json.dumps(FILE_KINDS["snapshot"][2]))
    path = tmp_path / "input"
    if fault == "directory":
        path.mkdir()
    argv = [a.format(snapshot=snapshot) for a in argv]
    code, out, err = run_cli(capsys, [*argv, "--input", str(path),
                                      "--output", os.devnull])
    assert (code, out, err) == (2, "", f"error: cannot read {path}: {reason}\n")


def test_every_valid_file_is_read(tmp_path, capsys):
    for kind, (_, _, valid) in FILE_KINDS.items():
        path = write(tmp_path / f"{kind}.json", json.dumps(valid))
        assert run_cli(capsys, file_argv(tmp_path, kind, path))[0] == 0, kind


# Values put in place of one value of a valid file: the types a reader
# must reject, and numbers at the ends of the int and float ranges.
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([1e308, -1e308, 5e-324, 0.0, -1.0, 0.5, 1075, 1022.5,
                     math.inf, math.nan]),
    st.recursive(st.integers(-3, 3) | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# A spec's size fields stay small: a length of 10**12 is a valid request
# that would run for hours.
SMALL_INTS = st.integers(-2, 40)
SPEC_SIZES = {"length": SMALL_INTS, "alphabet": SMALL_INTS,
              "base_labels": SMALL_INTS,
              "offset_values": st.lists(SMALL_INTS, max_size=4) | SMALL_INTS}
FUZZ_SPECS = [
    FILE_KINDS["spec"][2],
    {"kind": "changepoint", "length": 30, "seed": 2, "symbols": ["a", "b"],
     "mass": [0.9, 0.1], "mass_after": [0.1, 0.9], "t_star": 15},
    {"kind": "bifurcation", "length": 20, "seed": 3, "base_labels": 3,
     "offset_values": [0, 100], "offset_mass": [0.5, 0.5]},
    {"kind": "zipf", "length": 20, "seed": 4, "alphabet": 5, "exponent": 1.0},
]


@st.composite
def fuzzed_file(draw, kind):
    """Any JSON value, or a valid `kind` file with one key dropped or one
    value replaced."""
    how = draw(st.sampled_from(["any", "drop", "replace"]))
    if how == "any":
        return draw(ANY_JSON)
    valid = draw(st.sampled_from(FUZZ_SPECS if kind == "spec"
                                 else [FILE_KINDS[kind][2]]))
    obj = json.loads(json.dumps(valid))
    paths = [(path, is_key) for path, is_key in json_paths(obj)
             if is_key or how == "replace"]
    path, is_key = draw(st.sampled_from(paths))
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    if how == "drop":
        del owner[path[-1]]
    elif kind == "spec" and path[0] in SPEC_SIZES:
        owner[path[-1]] = draw(SPEC_SIZES[path[0]] if len(path) == 1
                               else SMALL_INTS)
    else:
        owner[path[-1]] = draw(ODD_VALUES)
    return obj


@pytest.mark.parametrize("kind", sorted(FILE_KINDS))
def test_odd_file_exits_zero_one_or_two(tmp_path, kind):
    # Whatever a file holds, the CLI exits 0, 1 or 2 with no traceback,
    # and an error says so on stderr alone.
    path = tmp_path / "file.json"
    argv = file_argv(tmp_path, kind, path)

    @settings(max_examples=120, deadline=None)
    @given(fuzzed_file(kind))
    def check(obj):
        write(path, json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")

    check()


def ref_pair_from_trace(lines, world):
    """The trace reader before its canonical-line fast path: every line
    through the JSON decoder; plus the later rules that a line holding the
    surrogate escape of a byte that is not UTF-8 is rejected, and that
    every trace symbol must be in the support of a given world."""
    counts = Counter()
    last_c_ltm = {}
    total = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        escapes = [c for c in line if "\udc80" <= c <= "\udcff"]
        if escapes:
            raise _fail_data(f"line {lineno}: not a trace record: byte "
                             f"0x{ord(escapes[0]) - 0xdc00:02x} is not UTF-8")
        try:
            obj = _decode_json_line(line)
            symbol = obj["symbol"]
            c_ltm = obj["c_ltm"]
        except (json.JSONDecodeError, KeyError, TypeError,
                ValidationError) as exc:
            raise _fail_data(f"line {lineno}: not a trace record: {exc}") from None
        if not isinstance(symbol, str):
            raise _fail_data(f'line {lineno}: "symbol" must be a string, got {symbol!r}')
        if c_ltm is not None and (
            isinstance(c_ltm, bool) or not isinstance(c_ltm, (int, float))
            or not 0.0 <= c_ltm <= sys.float_info.max  # also rejects NaN
        ):
            raise _fail_data(
                f'line {lineno}: "c_ltm" must be null or a finite number >= 0, '
                f"got {c_ltm!r}"
            )
        counts[symbol] += 1
        total += 1
        if c_ltm is not None:
            last_c_ltm[symbol] = float(c_ltm)
    if not total:
        raise _fail_data("empty trace: nothing to report on")
    if world is None:
        support = tuple(sorted(counts))
        world = DiscreteDistribution(
            support, tuple(counts[s] / total for s in support)
        )
    unknown = sorted(s for s in counts if s not in world.support)
    if unknown:
        raise _fail_data(f"trace symbol(s) not in the world's support: {unknown}")
    missing = [s for s in world.support if s not in last_c_ltm]
    if missing:
        raise _fail_data(
            f"trace carries no description cost for symbol(s): {missing}"
        )
    mind = CodeLengthTable(
        world.support, tuple(last_c_ltm[s] for s in world.support)
    )
    return MachinePair(world, mind)


def pair_outcome(read, lines, world):
    """("ok", reprs of the pair) or the exit code and message."""
    try:
        pair = read(lines, world)
    except _Exit as exc:
        return ("exit", exc.code, str(exc))
    except UnexpectError as exc:
        return (type(exc).__name__, str(exc))
    # repr, so that -0.0 differs from 0.0
    return ("ok", repr(pair.world), repr(pair.mind))


trace_symbols = st.one_of(
    st.sampled_from(["A", "B", "", '"', "\\", "a\\\"b", "\x00", "\x1f", "\x7f",
                     "é", "字", "😀", "\ud800"]),
    st.text(st.characters(codec=None, exclude_categories=()), max_size=4),
)
trace_costs = st.one_of(
    st.none(), st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308,
                     1.7976931348623157e308, -1e308, 5e-324]),
)
trace_records = st.builds(
    TraceRecord,
    t=st.one_of(st.just(0), st.integers(0, 10 ** 3),
                st.integers(10 ** 18, 10 ** 19 - 1),    # 19 digits
                st.integers(10 ** 19, 10 ** 20 - 1)),   # 20 digits
    symbol=trace_symbols,
    c_stm=trace_costs, c_ltm=trace_costs, u_raw=trace_costs,
    u_clamped=trace_costs, novelty=st.booleans(), change_flag=st.booleans(),
)
# Hand edits of a written line: each part as trace_to_jsonl writes it,
# or as a person or another tool might.
EDITED_LINE = ('{"t": %s, "symbol": %s, "c_stm": 0.000000, "c_ltm": %s, '
               '"u_raw": null, "u_clamped": null, "novelty": false, '
               '"change_flag": false}')
edited_t = st.sampled_from(["0", "7", "01", "00", "-0", "-1", "1.0", "1e2",
                            "9" * 19, "9" * 20, "1" * 5000])
edited_c_ltm = st.sampled_from([
    "1.000000", "0.000000", "-0.000000", "-1.000000", "01.000000",
    "1" * 400 + ".000000", "1.00000", "1.0000000", "1.5e3", "1", "null",
    "NaN", "Infinity", "true", '"1"'])


@st.composite
def edited_lines(draw):
    symbol = draw(trace_symbols)
    line = EDITED_LINE % (draw(edited_t), json.dumps(
        symbol, ensure_ascii=draw(st.booleans())), draw(edited_c_ltm))
    edit = draw(st.sampled_from(["none", "space", "reorder", "drop", "extra"]))
    if edit == "space":  # one separator with a doubled space
        parts = line.split(", ")
        at = draw(st.integers(1, len(parts) - 1))
        line = ", ".join(parts[:at]) + ",  " + ", ".join(parts[at:])
    elif edit == "reorder":
        line = line.replace('"c_stm": 0.000000, ', "").replace(
            '"t": ', '"c_stm": 0.000000, "t": ')
    elif edit == "drop":
        line = line.replace('"symbol": ', '"sym": ')
    elif edit == "extra":
        line = line[:-1] + ', "x": 1}'
    return line + draw(st.sampled_from(["\n", "\n", "\r\n", "", " \n"]))


trace_lines = st.lists(
    st.one_of(trace_records.map(lambda r: trace_to_jsonl(r) + "\n"),
              edited_lines(), st.sampled_from(["\n", " \n", ""])),
    max_size=8)
trace_worlds = st.sampled_from(
    [None, DiscreteDistribution(("A", "B"), (0.5, 0.5))])
# Canonical lines over the world's symbols, with null and finite costs,
# to pad drawn lines out past one and two blocks.
PAD_LINES = [
    trace_to_jsonl(TraceRecord(t, "AB"[t % 2], 1.0, (t % 7) / 4 if t % 5 else None,
                               0.0, 0.0, False, False)) + "\n"
    for t in range(2 * _BLOCK_LINES + 8)]


class TestTraceReaderMatchesReference:
    """_pair_from_trace against the JSON-only reader it replaced: the
    same pair, or the same exit code and message, on any trace."""

    @settings(deadline=None, max_examples=300)
    @given(trace_lines, st.booleans(), trace_worlds)
    # At most one bad line in each, and last: the first bad line ends a run.
    @example([EDITED_LINE % ("-0", '"A"', "1.000000") + "\n",
              EDITED_LINE % ("01", '"A"', "1.000000") + "\n"], True, None)
    @example([EDITED_LINE % ("1" * 5000, '"A"', "1.000000") + "\n"], True, None)
    @example([EDITED_LINE % ("1", '"A"', "01.000000") + "\n"], True, None)
    @example([EDITED_LINE % ("1", '"A"', c_ltm) + "\n"
              for c_ltm in ("-0.000000", "-1.000000")], True, None)
    @example([EDITED_LINE % ("1", '"A"', "1" * 400 + ".000000") + "\n"], True, None)
    @example([EDITED_LINE % ("9" * n, '"A"', "2.000000") + "\n"
              for n in (19, 20)], True, None)
    @example([EDITED_LINE.replace(", ", ",  ") % ("1", '"A"', "1.000000") + "\n",
              EDITED_LINE % ("2", '"B"', "2.000000") + "\r\n", "\n", " \n",
              '{"c_ltm": 3.000000, "symbol": "C"}\n',
              EDITED_LINE % ("4", '"D"', "4.000000")], True, None)
    @example([EDITED_LINE % ("1", '"\\u0041"', "1.000000") + "\n",
              EDITED_LINE % ("2", '"\x1f"', "1.000000") + "\n",
              EDITED_LINE % ("3", '"é"', "1.000000") + "\n",
              EDITED_LINE % ("4", '"\ud800"', "1.000000") + "\n",
              EDITED_LINE % ("5", '"A"', "null") + "\n"], True, None)
    @example([EDITED_LINE % ("1", '"\\udcff"', "1.000000") + "\n",
              EDITED_LINE % ("2", '"a\udcffb"', "1.000000") + "\n"], True, None)
    def test_reader_matches_reference(self, lines, final_newline, world):
        if lines and not final_newline:
            lines[-1] = lines[-1].rstrip("\n")
        assert pair_outcome(_pair_from_trace, lines, world) == pair_outcome(
            ref_pair_from_trace, lines, world)

    @settings(deadline=None, max_examples=60)
    @given(trace_lines, st.integers(0, 8),
           st.one_of(st.integers(_BLOCK_LINES - 3, _BLOCK_LINES + 1),
                     st.integers(2 * _BLOCK_LINES - 3, 2 * _BLOCK_LINES + 8)),
           st.booleans(), trace_worlds)
    # A bad line as the first of the second block, and of the third.
    @example([EDITED_LINE % ("1", '"A"', "-1.000000") + "\n"], 0, _BLOCK_LINES,
             True, None)
    @example(['{"symbol": "A", "c_ltm": "x"}\n'], 0, 2 * _BLOCK_LINES, True, None)
    # Forms the regex leaves to JSON, as the last line of a full block.
    @example([EDITED_LINE % ("1", '"A"', "-0.000000") + "\n"], 0, _BLOCK_LINES - 1,
             True, None)
    @example([EDITED_LINE % ("1", '"A"', "1" * 309 + ".000000") + "\n"], 0,
             _BLOCK_LINES - 1, True, None)
    @example([EDITED_LINE % ("1", '"A"', "9" * 309 + ".000000") + "\n"], 0,
             _BLOCK_LINES - 1, True, None)
    def test_blocks_match_reference(self, lines, at, pad, final_newline, world):
        # The drawn lines sit before and after `pad` canonical lines, so
        # that they straddle the ends of the reader's blocks.
        lines = lines[:at] + PAD_LINES[:pad] + lines[at:]
        if not final_newline:
            lines[-1] = lines[-1].rstrip("\n")
        assert pair_outcome(_pair_from_trace, lines, world) == pair_outcome(
            ref_pair_from_trace, lines, world)


@pytest.mark.parametrize("source", ["lf-file", "crlf-file", "lf-stdin",
                                    "crlf-stdin"])
def test_trace_past_two_blocks_reads_the_same_every_way(tmp_path, source):
    # The report divergences() gives for the pair the trace holds, read
    # from a file or from standard input, both of which read CRLF ends
    # as LF.
    spec = SourceSpec.from_dict({"kind": "zipf", "length": 2 * _BLOCK_LINES + 300,
                                 "alphabet": 40, "seed": 5})
    records = list(run_stream(generate(spec), EngineConfig()))
    counts = Counter(r.symbol for r in records)
    last_c_ltm = {r.symbol: float("%.6f" % r.c_ltm) for r in records}
    support = tuple(sorted(counts))
    pair = MachinePair(
        DiscreteDistribution(support, tuple(counts[s] / len(records)
                                            for s in support)),
        CodeLengthTable(support, tuple(last_c_ltm[s] for s in support)))
    expected = json.dumps(divergences(pair, normalize_mind=True).to_dict()) + "\n"
    newline = "\r\n" if source.startswith("crlf") else "\n"
    data = "".join(trace_to_jsonl(r) + newline for r in records).encode()
    argv = [sys.executable, "-m", "unexpect.cli", "divergence", "--from-trace",
            "--normalize-mind"]
    if source.endswith("file"):
        (tmp_path / "trace.jsonl").write_bytes(data)
        argv += ["--input", str(tmp_path / "trace.jsonl")]
    child = subprocess.run(argv, input=data if source.endswith("stdin") else b"",
                           capture_output=True, env=child_env(), timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout.decode() == expected


def ref_run_engine_over(engine, lines, emit, out, stability=None):
    """_run_engine_over as it was before it took a block of lines at a
    time: read, score and write one event at a time."""
    write = out.write
    if emit == "csv":
        write(TRACE_CSV_HEADER + "\n")
        to_line = trace_to_csv
    else:
        to_line = trace_to_jsonl
    step = engine.step
    histories = {}
    for lineno, obs in read_events(lines):
        try:
            record = step(obs)
        except UnexpectError as exc:
            raise _fail_data(f"line {lineno}: {exc}") from None
        if stability is not None:
            histories.setdefault(obs.symbol, deque(maxlen=stability[0])).append(
                engine.estimator.w(obs.symbol)
            )
        try:
            write(to_line(record) + "\n")
        except UnicodeEncodeError as exc:
            raise _fail_data(f"line {lineno}: cannot write symbol "
                             f"{obs.symbol!r}: {exc.reason}") from None
    if stability is not None:
        window, delta = stability
        unstable = sorted(
            sym for sym, hist in histories.items()
            if len(hist) == window and max(hist) - min(hist) > delta
        )
        print(
            f"ltm stability over last {window} updates (delta={delta}): "
            + (f"unstable symbols: {', '.join(unstable)}" if unstable else "all stable"),
            file=sys.stderr,
        )


def score_outcome(run, lines, emit, stability):
    """(exit code, stdout bytes, stderr) of `run` over the lines, with
    the exit code and message main would give. Standard output is UTF-8,
    strict, as a real one may be, so that a lone surrogate in a CSV
    symbol cannot be written."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            run(Engine(EngineConfig()), lines, emit, out, stability)
            code = 0
        except _Exit as exc:
            code = exc.code
            print(f"error: {exc}", file=err)
        except UnexpectError as exc:
            code = 2
            print(f"error: {exc}", file=err)
    return code, out.buffer.getvalue(), err.getvalue()


# Event lines as templates of their t: `simulate`'s own form, other
# spacing, escaped and non-ASCII symbols, bare tokens, blank lines and
# lines each reader must reject or fail to score or write.
EVENT_FORMS = [
    '{"t": %d, "s": "A"}', '{"t": %d, "s": "B"}', '{"t": %d, "s": ""}',
    '{"t":%d,"s":"A"}', ' {"t": %d, "s": "B"} ', '{"s": "A", "t": %d}',
    '{"t": %d, "s": "\\u0041"}', '{"t": %d, "s": "a\\"b"}',
    '{"t": %d, "s": "é"}', '{"t": %d, "s": "字😀"}', '{"t": %d, "s": "\\u00e9"}',
    "A", "  B  ", "tok en", "", " ", "\t",
    '\ufeff{"t": %d, "s": "A"}', "\ufeffA",
    '{"t": %d, "s": "a\udcffb"}', "a\udc80",
    '{"t": 1' + "0" * 19 + ', "s": "A"}',
    '{"t": 0, "s": "A"}', '{"t": %d, "s": "A"',
    '{"t": %d, "s": "\\ud800"}', '{"t": %d, "s": "\ud800"}',
]
event_forms = st.lists(st.sampled_from(EVENT_FORMS), max_size=8)


def canonical_forms(n):
    """n lines as `simulate` writes them, over three symbols."""
    return ['{"t": %d, "s": "' + "ABC"[i % 3] + '"}' for i in range(n)]


def event_text(forms):
    """The lines of the forms, each with its own 0-based index as t."""
    return [(form % i if "%d" in form else form) + "\n"
            for i, form in enumerate(forms)]


class TestEventBlocksMatchReference:
    """_run_engine_over against the line-at-a-time loop it replaced: the
    same exit code, standard output and standard error on any input."""

    @settings(deadline=None, max_examples=150)
    @given(event_forms, st.integers(0, 8),
           st.one_of(st.integers(0, 4),
                     st.integers(_EVENT_BLOCK_LINES - 4, _EVENT_BLOCK_LINES + 1),
                     st.integers(2 * _EVENT_BLOCK_LINES - 4,
                                 2 * _EVENT_BLOCK_LINES + 8)),
           st.booleans(), st.sampled_from(["jsonl", "csv"]),
           st.sampled_from([None, (1, 0.0), (3, 0.01)]))
    # A fault as the last line of the first block and the first of the
    # second, and an unencodable symbol in each.
    @example(['{"t": 0, "s": "A"}'], 0, _EVENT_BLOCK_LINES - 1, True, "jsonl", None)
    @example(['{"t": %d, "s": "A"'], 0, _EVENT_BLOCK_LINES, True, "csv", None)
    @example(['{"t": %d, "s": "\ud800"}'], 0, _EVENT_BLOCK_LINES - 1, True,
             "csv", (3, 0.01))
    @example(['{"t": %d, "s": "\\ud800"}'], 0, _EVENT_BLOCK_LINES, True,
             "csv", None)
    @example(["", "A", ""], 0, _EVENT_BLOCK_LINES - 2, False, "jsonl", (1, 0.0))
    def test_blocks_match_reference(self, forms, at, pad, final_newline, emit,
                                    stability):
        # The drawn lines sit before and after `pad` canonical lines, so
        # that they straddle the ends of the first and second block.
        forms = forms[:at] + canonical_forms(pad) + forms[at:]
        lines = event_text(forms)
        if lines and not final_newline:
            lines[-1] = lines[-1][:-1]
        assert score_outcome(_run_engine_over, lines, emit, stability) == (
            score_outcome(ref_run_engine_over, lines, emit, stability))


def test_replay_sweeps_mid_block_as_step_does(tmp_path, capsys):
    # The replay of a snapshot taken after 300 events reads its blocks
    # from event 301, so the prune sweep at event 1,024 falls 212 events
    # into its third block. The trace and snapshot equal Engine.step's.
    config = EngineConfig(alpha=0.99, prune=True)
    spec = SourceSpec.from_dict({"kind": "zipf", "length": 1200,
                                 "alphabet": 200, "seed": 3})
    events = list(generate(spec))
    lines = [f'{{"t": {obs.t}, "s": "{obs.symbol}"}}\n' for obs in events]
    reference = Engine(config)
    expected = [trace_to_jsonl(reference.step(obs)) + "\n" for obs in events]
    cfg = write(tmp_path / "cfg.json", json.dumps(config.to_dict()))
    head = write(tmp_path / "head", "".join(lines[:300]))
    rest = write(tmp_path / "rest", "".join(lines[300:]))
    snap = str(tmp_path / "snap.json")
    assert run_cli(capsys, ["track", "--config", cfg, "-i", head,
                            "--snapshot-out", snap]) == (0, "".join(expected[:300]), "")
    assert run_cli(capsys, ["replay", "--snapshot", snap, "-i", rest,
                            "--snapshot-out", snap]) == (0, "".join(expected[300:]), "")
    with open(snap, encoding="utf-8") as fh:
        assert fh.read() == reference.snapshot_json() + "\n"
    # The sweep forgot some rates.
    assert None in reference.snapshot()["estimator"]["w"]


@pytest.mark.parametrize("fault_at", [None, _EVENT_BLOCK_LINES + 40])
def test_stability_trace_equals_the_block_trace(tmp_path, capsys, fault_at):
    # --stability-* scores one event per step_block call, for the rate
    # after each event; its trace, exit code and message are those of
    # whole blocks.
    lines = event_text(canonical_forms(2 * _EVENT_BLOCK_LINES + 50))
    if fault_at is not None:
        lines[fault_at] = '{"t": 3, "s": "A"}\n'
    events = write(tmp_path / "events", "".join(lines))
    block = run_cli(capsys, ["track", "-i", events])
    stepped = run_cli(capsys, ["track", "-i", events, "--stability-m", "3",
                               "--stability-delta", "0.01"])
    assert stepped[:2] == block[:2]
    assert block[0] == (0 if fault_at is None else 2)
    if fault_at is not None:
        assert block[2] == stepped[2] == (
            f"error: line {fault_at + 1}: time 3 does not increase past {fault_at - 1}\n")


def test_stability_and_replay_score_through_step_block_alone(tmp_path, capsys,
                                                             monkeypatch):
    # track --stability-* and replay never fall back to Engine.step.
    def step(self, obs):
        raise AssertionError("Engine.step called")

    monkeypatch.setattr(Engine, "step", step)
    lines = event_text(canonical_forms(2 * _EVENT_BLOCK_LINES))
    head = write(tmp_path / "head", "".join(lines[:_EVENT_BLOCK_LINES]))
    rest = write(tmp_path / "rest", "".join(lines[_EVENT_BLOCK_LINES:]))
    snap = str(tmp_path / "snap.json")
    code, out, err = run_cli(capsys, ["track", "-i", head, "--stability-m", "3",
                                      "--stability-delta", "0.01",
                                      "--snapshot-out", snap])
    assert (code, out.count("\n")) == (0, _EVENT_BLOCK_LINES)
    assert err.startswith("ltm stability over last 3 updates")
    code, out, err = run_cli(capsys, ["replay", "--snapshot", snap, "-i", rest])
    assert (code, out.count("\n"), err) == (0, _EVENT_BLOCK_LINES, "")


class TestFaultInSecondBlock:
    """A fault at line N exits 2 naming N, after the trace lines of the
    lines before it, and leaves no --output file behind."""

    FAULTS = {
        "non-monotonic": ('{"t": 0, "s": "A"}', "time 0 does not increase"),
        "invalid-json": ('{"t": %d, "s": "A"', "invalid JSON event"),
        "unencodable": ('{"t": %d, "s": "\\ud800"}', "cannot write symbol"),
    }

    @pytest.mark.parametrize("where", [0, _EVENT_BLOCK_LINES // 2])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_prefix_and_line_number(self, tmp_path, capsys, fault, where):
        form, message = self.FAULTS[fault]
        at = _EVENT_BLOCK_LINES + where  # 0-based index of the bad line
        lines = event_text(canonical_forms(at) + [form] + canonical_forms(5))
        snap = str(tmp_path / "snap.json")
        assert run_cli(capsys, ["track", "-i", os.devnull,
                                "--snapshot-out", snap])[0] == 0
        argv = ["replay", "--snapshot", snap, "--emit", "csv"]
        write(tmp_path / "head", "".join(lines[:at]))
        code, expected, _ = run_cli(capsys, [*argv, "-i", str(tmp_path / "head")])
        assert code == 0 and expected.count("\n") == at + 1  # and the header
        write(tmp_path / "events", "".join(lines))
        code, out, err = run_cli(capsys, [*argv, "-i", str(tmp_path / "events")])
        assert (code, out) == (2, expected)
        assert err.startswith(f"error: line {at + 1}: ") and message in err
        target = tmp_path / "out" / "trace.csv"
        target.parent.mkdir()
        assert run_cli(capsys, [*argv, "-i", str(tmp_path / "events"),
                                "-o", str(target)])[:2] == (2, "")
        assert list(target.parent.iterdir()) == []

    def test_bare_tokens_keep_their_line_index(self, capsys, monkeypatch):
        blank = {i for end in (_EVENT_BLOCK_LINES, 2 * _EVENT_BLOCK_LINES,
                               8 * _EVENT_BLOCK_LINES)
                 for i in range(end - 3, end + 3)}
        lines = ["\n" if i in blank else "AB"[i % 2] + "\n" for i in range(2100)]
        code, out, _ = run_cli(capsys, ["track"], stdin_text="".join(lines),
                               monkeypatch=monkeypatch)
        assert code == 0
        assert [json.loads(line)["t"] for line in out.splitlines()] == [
            i for i in range(2100) if i not in blank]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("command", ["track", "divergence"])
def test_standard_input_reads_as_input_does(tmp_path, command, newline):
    # The same bytes give the same output and exit code from standard
    # input and from --input, whatever their line ends.
    spec = SourceSpec.from_dict({"kind": "zipf", "length": _EVENT_BLOCK_LINES + 40,
                                 "alphabet": 20, "seed": 2})
    if command == "track":
        argv = ["track"]
        lines = [f'{{"t": {o.t}, "s": "{o.symbol}"}}' for o in generate(spec)]
        lines.append("a\rb")  # two bare tokens if \r ends a line, one if not
    else:
        argv = ["divergence", "--from-trace", "--normalize-mind"]
        lines = [trace_to_jsonl(r)
                 for r in run_stream(generate(spec), EngineConfig())]
    data = newline.join(lines).encode() + newline.encode()
    (tmp_path / "input").write_bytes(data)
    outcomes = []
    for args, stdin in [(["--input", str(tmp_path / "input")], b""), ([], data)]:
        child = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", *argv, *args], input=stdin,
            capture_output=True, env=child_env(), timeout=60)
        outcomes.append((child.returncode, child.stdout, child.stderr))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2] == b""


@st.composite
def odd_line(draw, valid):
    """A line as bytes: one drawn from `valid`, one with bytes spliced
    in, any text or any bytes."""
    how = draw(st.sampled_from(["valid", "splice", "text", "bytes"]))
    if how == "text":
        return draw(st.text(max_size=8)).encode("utf-8")
    if how == "bytes":
        return draw(st.binary(max_size=8) | st.sampled_from(
            [b"\xff", b"\xed\xa0\x80", b"\xe2\x82", b"\xef\xbb\xbfa", b"\x00", b"\r"]))
    line = draw(valid).encode("utf-8", "surrogatepass")
    if how == "splice":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.binary(min_size=1, max_size=3)) + line[at:]
    return line


event_lines = st.builds(lambda t, s: json.dumps({"t": t, "s": s}),
                        st.integers(0, 4), st.text(max_size=3))
ODD_INPUTS = {
    "track": (["track"], odd_line(event_lines)),
    "divergence": (["divergence", "--from-trace"],
                   odd_line(trace_records.map(trace_to_jsonl))),
}


@pytest.mark.parametrize("command", sorted(ODD_INPUTS))
def test_odd_lines_exit_zero_one_or_two(tmp_path, command):
    # Whatever bytes the lines hold, the CLI exits 0, 1 or 2 with no
    # traceback, and gives the same output from a file and from a
    # standard input whose own encoding is not UTF-8.
    argv, lines = ODD_INPUTS[command]
    path = tmp_path / "input"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(lines, max_size=6), st.sampled_from([b"\n", b"\r\n"]))
    def check(lines, newline):
        data = newline.join(lines)
        path.write_bytes(data)
        outcomes = []
        for args, stdin in [([*argv, "--input", str(path)], io.StringIO()),
                            (argv, io.TextIOWrapper(io.BytesIO(data), "latin-1"))]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                old, sys.stdin = sys.stdin, stdin
                try:
                    code = main(args)
                finally:
                    sys.stdin = old
            assert code in (0, 1, 2), err.getvalue()
            if code:
                assert err.getvalue().startswith("error: ")
            outcomes.append((code, out.getvalue(), err.getvalue()))
        assert outcomes[0] == outcomes[1]

    check()


class TestSimulate:
    # The sha256 of simulate's output for one spec of each kind, as every
    # version since SplitMix64 and inverse-CDF sampling has written it.
    PINNED = {
        "stationary": (
            {"kind": "stationary", "length": 2000, "seed": 5,
             "symbols": ["a", "b", "c"], "mass": [0.5, 0.3, 0.2]},
            "dc29c093e85a61f5d7abc42682bea46dc47edcebdaf4bcb4bf273563dd9ff4c9"),
        "changepoint": (
            {"kind": "changepoint", "length": 3000, "seed": 1,
             "symbols": ["a", "b", "c", "d"], "mass": [0.7, 0.2, 0.05, 0.05],
             "mass_after": [0.05, 0.05, 0.2, 0.7], "t_star": 1500},
            "1e503103a452bbcc81283550763f73d4f8b76433e0146c4e655d58bf1ecc5e52"),
        "bifurcation": (
            {"kind": "bifurcation", "length": 2000, "seed": 9, "base_labels": 10,
             "offset_values": [0, 1000], "offset_mass": [0.5, 0.5]},
            "2cfdec8b332fd4d236f20a7ee51ba9802d4d2b4e30b2a616851f5ac51e0d58af"),
        "zipf": (
            {"kind": "zipf", "length": 2000, "seed": 3, "alphabet": 1000},
            "715a87d8b141eab79aa50f70ef4eb22a6803be22cf4f2129d2c1904a2273f195"),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED))
    def test_each_kind_writes_its_pinned_stream(self, tmp_path, capsys, kind):
        spec, digest = self.PINNED[kind]
        path = write(tmp_path / "spec.json", json.dumps(spec))
        code, out, err = run_cli(capsys, ["simulate", "--spec", path])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # Streams longer than two of simulate's write blocks: a changepoint
    # inside the second block, and symbols that JSON must escape.
    BLOCKED = {
        "stationary": {"kind": "stationary", "length": 2 * _BLOCK_LINES + 77,
                       "seed": 2, "symbols": ['"', "\\", "\x1f", "é", "😀", "a"],
                       "mass": [0.3, 0.2, 0.2, 0.1, 0.1, 0.1]},
        "changepoint": {"kind": "changepoint", "length": 3 * _BLOCK_LINES, "seed": 3,
                        "symbols": ["a", "b", "c"], "mass": [0.8, 0.1, 0.1],
                        "mass_after": [0.1, 0.1, 0.8], "t_star": _BLOCK_LINES + 300},
        "bifurcation": {"kind": "bifurcation", "length": 2 * _BLOCK_LINES + 1,
                        "seed": 4, "base_labels": 50, "offset_values": [0, 7],
                        "offset_mass": [0.5, 0.5]},
        "zipf": {"kind": "zipf", "length": 2 * _BLOCK_LINES + 500, "seed": 5,
                 "alphabet": 300},
    }

    @pytest.mark.parametrize("kind", sorted(BLOCKED))
    def test_block_writer_matches_generate(self, tmp_path, capsys, kind):
        spec = self.BLOCKED[kind]
        path = write(tmp_path / "spec.json", json.dumps(spec))
        out = tmp_path / "events.jsonl"
        assert run_cli(capsys, ["simulate", "--spec", path, "--out", str(out)]) == (
            0, "", "")
        expected = "".join('{"t": %d, "s": %s}\n' % (obs.t, json.dumps(obs.symbol))
                           for obs in generate(SourceSpec.from_dict(spec)))
        assert out.read_bytes() == expected.encode("ascii")

    def test_deterministic_output(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "stationary", "length": 100, "seed": 12,
            "symbols": ["x", "y"], "mass": [0.6, 0.4],
        }))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(capsys, ["simulate", "--spec", spec, "--out", str(a)])[0] == 0
        assert run_cli(capsys, ["simulate", "--spec", spec, "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dist_out_writes_distribution(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "zipf", "length": 10, "seed": 1, "alphabet": 4,
        }))
        dist_path = tmp_path / "w.json"
        code, _, _ = run_cli(
            capsys, ["simulate", "--spec", spec, "--out", os.devnull,
                     "--dist-out", str(dist_path)]
        )
        assert code == 0
        obj = json.loads(dist_path.read_text())
        assert obj["mass"] == pytest.approx([0.48, 0.24, 0.16, 0.12])

    def test_dist_out_invalid_for_changepoint(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "changepoint", "length": 10, "seed": 1, "t_star": 5,
            "symbols": ["x", "y"], "mass": [0.5, 0.5],
            "mass_after": [0.25, 0.75],
        }))
        code, _, err = run_cli(
            capsys, ["simulate", "--spec", spec, "--dist-out", "w.json",
                     "--out", os.devnull]
        )
        assert code == 1
        assert "--dist-out" in err

    def test_non_string_symbols_are_a_data_error(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "stationary", "length": 3, "seed": 1,
            "symbols": ["x", 2], "mass": [0.5, 0.5],
        }))
        code, out, err = run_cli(capsys, ["simulate", "--spec", spec])
        assert code == 2
        assert out == ""
        assert '"symbols" must be strings' in err

    @pytest.mark.parametrize("symbols", ["ab", {"a": 1, "b": 2}])
    def test_symbols_that_are_not_a_list_are_a_data_error(self, tmp_path, capsys,
                                                          symbols):
        # "ab" was read as the symbols a and b, and the run exited 0.
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "stationary", "length": 3, "seed": 1,
            "symbols": symbols, "mass": [0.5, 0.5],
        }))
        code, out, err = run_cli(capsys, ["simulate", "--spec", spec])
        assert (code, out) == (2, "")
        assert err == (f'error: spec {spec}: "symbols" must be a list of '
                       f"strings, got {symbols!r}\n")

    @pytest.mark.parametrize("fields, field", [
        ({"length": 2.5}, "length"),
        ({"length": "5"}, "length"),
        ({"length": True}, "length"),
        ({"seed": 1.5}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"seed": None}, "seed"),
        ({"alphabet": 2.5}, "alphabet"),
        ({"alphabet": "3"}, "alphabet"),
        ({"alphabet": False}, "alphabet"),
        ({"exponent": "x"}, "exponent"),
        ({"kind": "changepoint", "t_star": 2.5}, "t_star"),
        ({"kind": "changepoint", "t_star": "2"}, "t_star"),
        ({"kind": "bifurcation", "base_labels": 2.0}, "base_labels"),
        ({"kind": "bifurcation", "base_labels": True}, "base_labels"),
        ({"kind": "bifurcation", "offset_values": [1.5, 2]}, "offset_values"),
        ({"kind": "stationary", "mass": ["x", 0.5]}, "malformed spec"),
        ({"kind": "stationary", "mass": 5}, "malformed spec"),
        # Each of these was read as a number, and simulate exited 0.
        ({"kind": "stationary", "mass": ["0.5", "0.5"]},
         'malformed spec: "mass" must be a list of numbers'),
        ({"kind": "stationary", "mass": [True, False]},
         'malformed spec: "mass" must be a list of numbers'),
        ({"kind": "stationary", "symbols": ["x"], "mass": "1"},
         'malformed spec: "mass" must be a list of numbers'),
        ({"kind": "changepoint", "mass_after": ["0.25", 0.75]},
         'malformed spec: "mass_after" must be a list of numbers'),
        ({"kind": "bifurcation", "base_mass": [0.5, "0.5"]},
         'malformed spec: "base_mass" must be a list of numbers'),
        ({"kind": "bifurcation", "offset_mass": [None, 1.0]},
         'malformed spec: "offset_mass" must be a list of numbers'),
        ({"kind": "bifurcation", "offset_mass": [False, True]},
         'malformed spec: "offset_mass" must be a list of numbers'),
    ])
    def test_wrong_typed_number_is_a_data_error(self, tmp_path, capsys, fields,
                                                field):
        spec = {"kind": "zipf", "length": 5, "seed": 1, "alphabet": 3,
                "symbols": ["x", "y"], "mass": [0.5, 0.5],
                "mass_after": [0.25, 0.75], "t_star": 2, "base_labels": 2,
                "offset_values": [0, 2], "offset_mass": [0.5, 0.5], **fields}
        path = write(tmp_path / "spec.json", json.dumps(spec))
        code, out, err = run_cli(capsys, ["simulate", "--spec", path])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: spec {path}: {field}")

    @pytest.mark.parametrize("exponent, message", [
        (700, "zipf exponent must keep 3 ** exponent a float, got 700"),
        (1e308, "zipf exponent must keep 3 ** exponent a float, got 1e+308"),
        (math.nan, "zipf exponent must be > 0, got nan"),
        (646, None),
    ], ids=["700", "1e308", "nan", "646"])
    def test_zipf_exponent_past_the_float_range_is_a_data_error(
            self, tmp_path, capsys, exponent, message):
        # 3 ** 700 overflows a float, which ended in a traceback; 3 ** 646
        # does not. NaN passed the spec and failed as a mass of NaN.
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "zipf", "length": 3, "alphabet": 3, "exponent": exponent}))
        code, out, err = run_cli(capsys, ["simulate", "--spec", spec])
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", f"error: spec {spec}: {message}\n")

    def test_bad_spec_is_data_error(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({"kind": "weird",
                                                         "length": 5}))
        code, _, err = run_cli(capsys, ["simulate", "--spec", spec])
        assert code == 2


class TestPipeline:
    def test_simulate_track_divergence_chain(self, tmp_path, capsys):
        spec = write(tmp_path / "spec.json", json.dumps({
            "kind": "stationary", "length": 30000, "seed": 4,
            "symbols": ["a", "b", "c"], "mass": [0.6, 0.3, 0.1],
        }))
        world = tmp_path / "w.json"
        events = tmp_path / "events.jsonl"
        run_cli(capsys, ["simulate", "--spec", spec, "--out", str(events),
                         "--dist-out", str(world)])
        trace = tmp_path / "trace.jsonl"
        run_cli(capsys, ["track", "--input", str(events),
                         "--output", str(trace)])
        code, out, _ = run_cli(
            capsys,
            ["divergence", "--from-trace", "--input", str(trace),
             "--world", str(world), "--normalize-mind"],
        )
        assert code == 0
        report = json.loads(out)
        # a consistent estimator leaves the learned code near-optimal
        assert abs(report["d_wrel"]) < 0.1

    def test_entry_point_subprocess(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "kind": "stationary", "length": 5, "seed": 0,
            "symbols": ["q"], "mass": [1.0],
        }))
        env = child_env()
        sim = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", "simulate",
             "--spec", str(spec)],
            capture_output=True, text=True, env=env,
        )
        assert sim.returncode == 0
        track = subprocess.run(
            [sys.executable, "-m", "unexpect.cli", "track"],
            input=sim.stdout, capture_output=True, text=True, env=env,
        )
        assert track.returncode == 0
        assert len(track.stdout.strip().split("\n")) == 5
