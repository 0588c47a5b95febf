"""One pass of each benchmark workload as a regression gate.

catalog12 runs every README command over the order-12 catalog through
``cli.main`` and judges it against the exit codes and stdout digests recorded
in ``bench/expected/catalog12.json``, so any change to the CLI output fails
here.  classify12 and scale run the equivalence and verification paths that
the catalog commands reach only lightly; every judge must say ``ok``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_catalog12_pass_matches_recorded_outputs():
    workloads = _workloads()
    ops = workloads.catalog12_ops(seed=1)
    verdicts = {op.name: op.judge(workloads.run_op(op)) for op in ops}
    assert len(verdicts) > 150
    assert {name: v for name, v in verdicts.items() if v != "ok"} == {}


@pytest.mark.parametrize("workload", ["classify12", "scale"])
def test_workload_pass_is_judged_ok(workload):
    workloads = _workloads()
    ops = workloads.make_ops(workload, seed=1)
    verdicts = {op.name: op.judge(workloads.run_op(op)) for op in ops}
    assert len(verdicts) == len(ops) > 5
    assert {name: v for name, v in verdicts.items() if v != "ok"} == {}
