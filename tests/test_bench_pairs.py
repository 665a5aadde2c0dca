"""scripts/bench_pairs.py: its summary on fixed numbers, and the
environment of its runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [100.0 + i for i in range(10)]  # quartiles 102.25 / 104.5 / 106.75
BOUND = 0.25  # 26.125 of PARENT's median, wider than its IQR of 4.5


def test_quartiles_interpolate_between_values():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_is_claimed():
    s = summarize(PARENT, [p + 20.0 for p in PARENT], "higher", BOUND)
    assert s["parent"] == (102.25, 104.5, 106.75)
    assert s["change"] == (122.25, 124.5, 126.75)
    assert (s["wins"], s["losses"], s["pairs"]) == (10, 0, 10)
    assert s["gain"] == 20.0 and s["parent_iqr"] == 4.5
    assert s["claim"]


def test_a_tie_counts_for_neither_side():
    one_tie = [PARENT[0]] + [p + 20.0 for p in PARENT[1:]]
    s = summarize(PARENT, one_tie, "higher", BOUND)
    assert (s["wins"], s["losses"]) == (9, 0)
    assert s["claim"]  # 9 of 10 pairs is enough
    two_ties = PARENT[:2] + [p + 20.0 for p in PARENT[2:]]
    s = summarize(PARENT, two_ties, "higher", BOUND)
    assert (s["wins"], s["losses"]) == (8, 0)
    assert not s["claim"]


def test_lower_is_better():
    parent = [0.070 + 0.001 * i for i in range(10)]
    faster = [p - 0.010 for p in parent]
    s = summarize(parent, faster, "lower", BOUND)
    assert (s["wins"], s["losses"]) == (10, 0)
    assert s["gain"] == pytest.approx(0.010)
    assert s["claim"]
    s = summarize(parent, faster, "higher", BOUND)
    assert (s["wins"], s["losses"]) == (0, 10)
    assert not s["claim"]


def test_fewer_than_ten_pairs_never_claim():
    s = summarize(PARENT[:9], [p + 20.0 for p in PARENT[:9]], "higher", BOUND)
    assert (s["wins"], s["pairs"]) == (9, 9)
    assert not s["claim"]


def test_gain_inside_the_parent_spread_is_not_claimed():
    s = summarize(PARENT, [p + 1.0 for p in PARENT], "higher", BOUND)
    assert s["wins"] == 10
    assert not s["claim"]  # gain 1.0 is under the parent's IQR of 4.5


@pytest.mark.parametrize("better, worse_by", [("higher", -1.0), ("lower", 1.0)])
def test_a_change_within_its_bound_is_ok(better, worse_by):
    s = summarize(PARENT, [p + 20.0 * worse_by for p in PARENT], better, BOUND)
    assert s["verdict"] == "ok"  # 20 worse, under 26.125


@pytest.mark.parametrize("better, worse_by", [("higher", -1.0), ("lower", 1.0)])
def test_a_change_past_its_bound_is_worse(better, worse_by):
    s = summarize(PARENT, [p + 30.0 * worse_by for p in PARENT], better, BOUND)
    assert s["verdict"] == "worse"  # 30 worse, over 26.125


@pytest.mark.parametrize("better, worse_by", [("higher", -1.0), ("lower", 1.0)])
def test_a_parent_spread_wider_than_the_bound_is_unresolved(better, worse_by):
    # bound 0.01 allows 1.045, under the parent's IQR of 4.5
    s = summarize(PARENT, [p + 1.0 * worse_by for p in PARENT], better, 0.01)
    assert s["verdict"] == "unresolved"
    s = summarize(PARENT, [p - 1.0 * worse_by for p in PARENT], better, 0.01)
    assert s["verdict"] == "unresolved"  # better in 10 pairs, not all runs
    s = summarize(PARENT, [p - 20.0 * worse_by for p in PARENT], better, 0.01)
    assert s["verdict"] == "ok"  # every change run beats every parent run


def test_rejects_unpaired_values_and_unknown_direction():
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT[:9], "higher", BOUND)
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT, "faster", BOUND)


def test_each_run_writes_no_bytecode_cache(monkeypatch, tmp_path):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(kwargs)
        result = {"metrics": {"track_eps": {"value": 1.0}}, "failed": 0}
        return subprocess.CompletedProcess(argv, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    metrics, failed = bench_pairs.run_once(str(tmp_path), ["python3", "run.py"],
                                           "shift4-iir", 1, 1.0)
    assert (metrics, failed) == ({"track_eps": 1.0}, 0)
    assert calls[0]["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert calls[0]["cwd"] == str(tmp_path)


@pytest.mark.parametrize("cached", ["parent", "change"])
def test_a_checkout_with_a_bytecode_cache_exits_two(monkeypatch, tmp_path,
                                                    capsys, cached):
    monkeypatch.setattr(bench_pairs, "run_once", pytest.fail)  # never runs
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text('{"command": ["x"]}')
    cache = tmp_path / cached / "src" / "unexpect" / "__pycache__"
    cache.mkdir(parents=True)
    code = bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "w", "--pairs", "1", "--seconds", "1",
                             "--first-seed", "1"])
    assert code == 2
    assert str(cache) in capsys.readouterr().err
