"""scripts/cli_peak_rss.py on a two-line input."""

import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "cli_peak_rss.py"


def run_script(tmp_path, *args):
    return subprocess.run([sys.executable, str(_SCRIPT), str(_ROOT), *args],
                          cwd=tmp_path, capture_output=True, text=True)


def test_prints_the_peak_of_each_run_above_the_launcher(tmp_path):
    (tmp_path / "events.txt").write_text("a\nb\n", encoding="utf-8")
    proc = run_script(tmp_path, "2", "track", "--input", "events.txt",
                      "--output", "trace.jsonl")
    assert (proc.returncode, proc.stderr) == (0, "")
    found = re.fullmatch(
        r"unexpect track --input events.txt --output trace.jsonl: peak RSS "
        r"over 2 runs, q1/median/q3 ([0-9.]+)/([0-9.]+)/([0-9.]+) MB "
        r"\(launcher floor ([0-9.]+) MB\)\n", proc.stdout)
    assert found, proc.stdout
    q1, median, q3, floor = map(float, found.groups())
    assert 0 < floor < q1 <= median <= q3
    trace = (tmp_path / "trace.jsonl").read_text(encoding="utf-8")
    assert [line[:24] for line in trace.splitlines()] == [
        '{"t": 0, "symbol": "a", ', '{"t": 1, "symbol": "b", ']


def test_a_failed_run_exits_one(tmp_path):
    proc = run_script(tmp_path, "1", "track", "--alpha", "2")
    assert proc.returncode == 1
    assert proc.stderr.endswith("error: unexpect track exited 1\n")
