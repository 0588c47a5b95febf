"""Spans and counters around confhad's public functions, for the traced run.

The tracer replaces each traced function at every attribute that binds it in
a loaded ``confhad`` module (for example ``confhad.equivalence.fingerprint``
and ``confhad.cli.fingerprint``), so calls from inside the package are seen
as well as the benchmark's own.  ``Monomial.__mul__`` and
``Monomial.reciprocal`` are counted, not timed.  Spans are kept in memory as
(name, start, end, parent, operation id) and written out at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from confhad import cli, catalog, cyclotomic, equivalence, formats, matrices, search, verify
from confhad.symbolic import Monomial

TRACED = {
    "cli.main": cli.main,
    "catalog.reconcile_all": catalog.reconcile_all,
    "catalog.derive": catalog.derive,
    "catalog.build_verified": catalog.build_verified,
    "formats.parse_matrix": formats.parse_matrix,
    "formats.emit_matrix": formats.emit_matrix,
    "equivalence.fingerprint": equivalence.fingerprint,
    "equivalence.conference_fingerprint": equivalence.conference_fingerprint,
    "equivalence.are_equivalent": equivalence.are_equivalent,
    "equivalence.specialize_and_classify": equivalence.specialize_and_classify,
    "verify.check_inverse_orthogonal": verify.check_inverse_orthogonal,
    "verify.check_conference": verify.check_conference,
    "verify.check_hadamard": verify.check_hadamard,
    "cyclotomic.root_sum_is_zero": cyclotomic.root_sum_is_zero,
    "search.search_circulant": search.search_circulant,
    "search.search_bordered_circulant": search.search_bordered_circulant,
    "matrices.eval_exact": matrices.eval_exact,
    "matrices.double_orthogonal": matrices.double_orthogonal,
    "matrices.to_butson": matrices.to_butson,
}
COUNTED = {"symbolic.monomial_mul.calls": "__mul__", "symbolic.reciprocal.calls": "reciprocal"}


def decided_by(verdict) -> str:
    """The stage that settled an equivalence verdict."""
    if verdict.status == "equivalent":
        return "witness"
    if verdict.status == "unknown":
        return "unknown"
    return "exhausted" if "exhausted" in verdict.reason else "fingerprint"


# (metric, unit, better); ".s" is self time unless the README says otherwise
PER_LAYER = [
    ("equivalence.fingerprint.s", "s", "lower"),
    ("equivalence.fingerprint.calls", "count", "lower"),
    ("equivalence.fingerprint.reuse_ratio", "ratio", "higher"),
    ("equivalence.conference_fingerprint.s", "s", "lower"),
    ("equivalence.conference_fingerprint.calls", "count", "lower"),
    ("equivalence.are_equivalent.s", "s", "lower"),
    ("equivalence.are_equivalent.calls", "count", "lower"),
    ("equivalence.search.s", "s", "lower"),
    ("equivalence.nodes", "count", "lower"),
    ("equivalence.decided_by.fingerprint", "count", "higher"),
    ("equivalence.decided_by.witness", "count", "higher"),
    ("equivalence.decided_by.exhausted", "count", "lower"),
    ("equivalence.decided_by.unknown", "count", "lower"),
    ("equivalence.specialize_and_classify.s", "s", "lower"),
    ("equivalence.classes", "count", "lower"),
    ("verify.check_inverse_orthogonal.s", "s", "lower"),
    ("verify.check_inverse_orthogonal.calls", "count", "lower"),
    ("verify.check_conference.s", "s", "lower"),
    ("verify.check_conference.calls", "count", "lower"),
    ("verify.check_hadamard.s", "s", "lower"),
    ("verify.check_hadamard.calls", "count", "lower"),
    ("symbolic.monomial_mul.calls", "count", "lower"),
    ("symbolic.reciprocal.calls", "count", "lower"),
    ("cyclotomic.root_sum_is_zero.s", "s", "lower"),
    ("cyclotomic.root_sum_is_zero.calls", "count", "lower"),
    ("cyclotomic.root_sum_is_zero.zero_ratio", "ratio", "higher"),
    ("search.search_circulant.s", "s", "lower"),
    ("search.search_bordered_circulant.s", "s", "lower"),
    ("search.candidates", "count", "lower"),
    ("search.found", "count", "higher"),
    ("matrices.eval_exact.s", "s", "lower"),
    ("matrices.eval_exact.calls", "count", "lower"),
    ("matrices.double_orthogonal.s", "s", "lower"),
    ("matrices.to_butson.s", "s", "lower"),
    ("catalog.reconcile_all.s", "s", "lower"),
    ("catalog.derive.s", "s", "lower"),
    ("catalog.build_verified.s", "s", "lower"),
    ("formats.parse_matrix.s", "s", "lower"),
    ("formats.emit_matrix.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Any] = []  # (name, start, end, parent index, op id)
        self.counts: Counter[str] = Counter()
        self.fingerprinted: set = set()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            self._observe(name, args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        if name == "equivalence.fingerprint":
            self.fingerprinted.add((args[0].m, args[0].logs))
        elif name == "equivalence.are_equivalent":
            self.counts["equivalence.nodes"] += result.nodes
            self.counts["equivalence.decided_by." + decided_by(result)] += 1
        elif name == "equivalence.specialize_and_classify":
            self.counts["equivalence.classes"] += len(result)
        elif name == "cyclotomic.root_sum_is_zero":
            self.counts["cyclotomic.zeros"] += bool(result)
        elif name.startswith("search."):
            self.counts["search.found"] += len(result)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every binding of the traced functions; restore on exit."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in TRACED.items()}
        patched = []
        modules = [m for k, m in sys.modules.items() if k == "confhad" or k.startswith("confhad.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for name, attr in COUNTED.items():
            original = Monomial.__dict__[attr]
            patched.append((Monomial, attr, original))
            setattr(Monomial, attr, self._count(name, original))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    def start_pass(self) -> tuple[int, Counter]:
        """Mark a pass boundary; pass the mark to ``layer_metrics``."""
        self.fingerprinted.clear()
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts since ``mark``."""
        first, counts_before = mark
        counts = self.counts - counts_before
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        candidates = 0
        for k, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - child[k]
            total_s[name] += end - start
            calls[name] += 1
            if name == "verify.check_conference" and parent >= first:
                candidates += spans[parent - first][0].startswith("search.")
        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            layer, _, what = metric.rpartition(".")
            if what == "s":
                out[metric] = self_s[layer]
            elif what == "calls" and layer in TRACED:
                out[metric] = calls[layer]
            else:
                out[metric] = counts[metric]
        fp_calls = calls["equivalence.fingerprint"]
        out["equivalence.fingerprint.reuse_ratio"] = len(self.fingerprinted) / fp_calls if fp_calls else 0.0
        out["equivalence.are_equivalent.s"] = total_s["equivalence.are_equivalent"]
        out["equivalence.search.s"] = self_s["equivalence.are_equivalent"]
        roots = calls["cyclotomic.root_sum_is_zero"]
        out["cyclotomic.root_sum_is_zero.zero_ratio"] = counts["cyclotomic.zeros"] / roots if roots else 0.0
        out["search.candidates"] = candidates
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
