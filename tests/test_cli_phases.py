"""scripts/cli_phases.py on a two-line input."""

import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "cli_phases.py"


def run_script(tmp_path, *args, parent=_ROOT):
    return subprocess.run([sys.executable, str(_SCRIPT), str(parent), str(_ROOT),
                           *args], cwd=tmp_path, capture_output=True, text=True)


def test_prints_the_quartiles_of_each_phase_on_both_sides(tmp_path):
    (tmp_path / "events.txt").write_text("a\nb\n", encoding="utf-8")
    proc = run_script(tmp_path, "2", "track", "--input", "events.txt",
                      "--output", "trace.jsonl")
    assert (proc.returncode, proc.stderr) == (0, "")
    header, columns, *rows, floor_line = proc.stdout.splitlines()
    assert header == ("unexpect track --input events.txt --output trace.jsonl: "
                      "ms per phase, peak_mb and lines over 2 alternating runs, "
                      "q1/median/q3")
    assert columns.split() == ["row", "parent", "change"]
    found = re.fullmatch(r"launcher floor ([0-9.]+) MB", floor_line)
    assert found, floor_line
    floor = float(found.group(1))
    assert floor > 0
    number = r"([0-9.]+)/([0-9.]+)/([0-9.]+)"
    medians = {}
    for row, name in zip(rows, ("start", "import", "main", "exit", "total",
                                "peak_mb", "lines"), strict=True):
        found = re.fullmatch(rf"{name} +{number} +{number}", row)
        assert found, row
        values = list(map(float, found.groups()))
        for side in (values[:3], values[3:]):
            assert 0 < side[0] <= side[1] <= side[2]
        if name == "peak_mb":
            assert floor < values[0] and floor < values[3]
        elif name == "lines":
            # One checkout on both sides: the same modules, every run.
            assert values == [track_lines()] * 6
        else:
            medians[name] = values[1]
    assert max(medians.values()) == medians["total"]
    trace = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
    assert [line[:24] for line in trace.splitlines()] == [
        '{"t": 0, "symbol": "a", ', '{"t": 1, "symbol": "b", ']


def track_lines():
    """The source lines of the package modules that `track` loads, counted
    from the modules' own files in a fresh interpreter."""
    script = (
        "import os, sys\n"
        "from unexpect.cli import main\n"
        "main(['track', '--input', os.devnull, '--output', os.devnull])\n"
        "print(sum(open(m.__file__, 'rb').read().count(b'\\n')\n"
        "          for n, m in sys.modules.items() if n.split('.')[0] == 'unexpect'))\n")
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", script],
                          env={"PYTHONPATH": str(_ROOT / "src")},
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def test_a_failed_run_exits_one(tmp_path):
    proc = run_script(tmp_path, "1", "track", "--alpha", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: --alpha must be (0, 1) exclusive, got 2.0\n"
                           f"error: unexpect track exited 1 in {_ROOT}\n")


def test_a_checkout_with_a_bytecode_cache_exits_two(tmp_path):
    cache = tmp_path / "cached" / "src" / "unexpect" / "__pycache__"
    cache.mkdir(parents=True)
    proc = run_script(tmp_path, "1", "track", parent=tmp_path / "cached")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert str(cache) in proc.stderr
