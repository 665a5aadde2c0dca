"""The benchmark's naive oracle (bench/oracle.py) against the tests'
reference scorer (tests/reference.py).

``bench/run.py`` checks a prefix of each workload's trace against the
oracle's eager rate filters, within ``oracle.LTM_TOLERANCE``. This checks
that the exact reference passes the same check on simgen streams, so
that the harness could take the reference in the oracle's place.
"""

import importlib.util
from pathlib import Path

import pytest

from reference import Reference
from unexpect.engine import EngineConfig
from unexpect.simgen import SourceSpec, generate

_ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bench_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

ZIPF = SourceSpec(kind="zipf", length=1500, seed=5, alphabet=40)


@pytest.mark.parametrize("config", [
    EngineConfig(),
    EngineConfig(alpha=0.9),
    # The window slides, and the stack evicts symbols that return.
    EngineConfig(estimator="fir", window=50, capacity=8),
], ids=["iir", "iir-alpha-0.9", "fir-window-capacity"])
def test_reference_passes_the_oracle(config):
    reference = Reference(config)
    records = [reference.step(obs.t, obs.symbol) for obs in generate(ZIPF)]
    assert len(records) == ZIPF.length
    assert oracle.mismatches(records, config) == []
    if config.capacity is not None:
        distinct = len({record.symbol for record in records})
        assert sum(record.novelty for record in records) > distinct
