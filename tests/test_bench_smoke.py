"""One pass of the benchmark's catalog12 workload as a regression gate.

Every README command over the order-12 catalog runs through ``cli.main`` and
is judged against the exit codes and stdout digests recorded in
``bench/expected/catalog12.json``, so any change to the CLI output fails here.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_catalog12_pass_matches_recorded_outputs():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    ops = workloads.catalog12_ops(seed=1)
    verdicts = {op.name: op.judge(workloads.run_op(op)) for op in ops}
    assert len(verdicts) > 150
    assert {name: v for name, v in verdicts.items() if v != "ok"} == {}
