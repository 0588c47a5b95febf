"""One pass of each benchmark workload as a regression gate.

catalog12 runs every README command over the order-12 catalog through
``cli.main`` and judges it against the exit codes and stdout digests recorded
in ``bench/expected/catalog12.json``, so any change to the CLI output fails
here.  classify12 and scale run the equivalence and verification paths that
the catalog commands reach only lightly; every judge must say ``ok``.  The
tracer of ``bench/run.py --trace 1`` must still find every function it
traces and see the fingerprints ``specialize_and_classify`` takes.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_catalog12_pass_matches_recorded_outputs():
    workloads = _bench("workloads")
    ops = workloads.catalog12_ops(seed=1)
    verdicts = {op.name: op.judge(workloads.run_op(op)) for op in ops}
    assert len(verdicts) > 150
    assert {name: v for name, v in verdicts.items() if v != "ok"} == {}


@pytest.mark.parametrize("workload", ["classify12", "scale"])
def test_workload_pass_is_judged_ok(workload):
    workloads = _bench("workloads")
    ops = workloads.make_ops(workload, seed=1)
    verdicts = {op.name: op.judge(workloads.run_op(op)) for op in ops}
    assert len(verdicts) == len(ops) > 5
    assert {name: v for name, v in verdicts.items() if v != "ok"} == {}


def test_tracer_wraps_every_traced_binding_and_sees_the_fingerprints():
    tracing = _bench("tracing")
    from confhad import catalog, equivalence
    from confhad.symbolic import Monomial

    for name, fn in tracing.TRACED.items():
        module, _, attr = name.rpartition(".")
        assert getattr(importlib.import_module(f"confhad.{module}"), attr) is fn, name
    traced = {id(fn) for fn in tracing.TRACED.values()}
    modules = [m for k, m in sys.modules.items() if k == "confhad" or k.startswith("confhad.")]
    bindings = [(m, attr, v) for m in modules for attr, v in vars(m).items() if id(v) in traced]
    counted = {attr: Monomial.__dict__[attr] for attr in tracing.COUNTED.values()}
    assert {id(v) for _, _, v in bindings} == traced

    matrix = catalog.build_verified("O12d")
    rng = random.Random(2)
    points = [{s: rng.randrange(4) for s in sorted(matrix.symbols())} for _ in range(8)]
    with tracing.Tracer().installed() as tracer:
        assert all(getattr(m, attr) is not v for m, attr, v in bindings)
        assert all(Monomial.__dict__[attr] is not fn for attr, fn in counted.items())
        mark = tracer.start_pass()
        classes = equivalence.specialize_and_classify(matrix, points, 4)
        layers = tracer.layer_metrics(mark)
    assert all(getattr(m, attr) is v for m, attr, v in bindings)
    assert all(Monomial.__dict__[attr] is fn for attr, fn in counted.items())
    assert layers["equivalence.classes"] == len(classes) > 0
    assert layers["equivalence.specialize_and_classify.s"] > 0
    assert layers["equivalence.fingerprint.calls"] > 0
