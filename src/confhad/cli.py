"""Command-line surface.

Exit codes: 0 success/pass, 1 verification failure, 2 inequivalent,
3 unknown/budget exhausted, 64 usage error, 74 standard output closed or
full, or a packaged data file unreadable (EX_IOERR; one line on stderr).
All commands are deterministic: identical inputs produce byte-identical
output (randomized checks take a --seed with a fixed default).
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

from . import catalog
from .equivalence import (
    DEFAULT_BUDGET,
    are_equivalent,
    fingerprint,
    specialize_and_classify,
)
from .formats import FormatError, emit_matrix, parse_matrix
from .matrices import (
    AnyMatrix,
    ButsonMatrix,
    ComplexMatrix,
    SymbolicMatrix,
    eval_complex,
    to_butson,
)
from .symbolic import parse_float, parse_int
from .verify import (
    DEFAULT_TOL,
    check_conference,
    check_hadamard,
    check_inverse_orthogonal,
)

USAGE_ERROR = 64
OUTPUT_ERROR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _UsageError(Exception):
    pass


def _integer(text: str) -> int:
    """argparse type of --n, --roots and --seed: ASCII digits, as in files."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _node_budget(text: str) -> int:
    """argparse type of --budget: a positive search budget."""
    try:
        budget = parse_int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return budget


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite positive float."""
    try:
        tol = parse_float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return tol


def _catalog_name(name: str) -> str:
    """name, if it is a catalog entry; a usage error otherwise."""
    if name not in catalog.names():
        raise _UsageError(f"unknown catalog name {name!r}")
    return name


def _load_target(target: str, verified: bool) -> AnyMatrix:
    """A catalog name or a path to a matrix file."""
    if target in catalog.names():
        if catalog.kind(target) == "family":
            return catalog.build(target)
        return catalog.build_verified(target) if verified else catalog.build(target)
    path = Path(target)
    if not path.exists():
        raise _UsageError(f"unknown catalog name or missing file: {target!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {target}: {exc}") from None
    try:
        return parse_matrix(text)
    except FormatError as exc:
        raise _UsageError(f"{target}: {exc}") from None


def _family_symbols(target: str, phases: Optional[str]) -> Optional[list[str]]:
    """A family entry's phase symbols, sorted; None for any other target,
    which takes no ``--phases``."""
    if target in catalog.names() and catalog.kind(target) == "family":
        _, r_name = catalog.family_components(target)
        return sorted(catalog.build_verified(r_name).symbols())
    if phases is not None:
        raise _UsageError("--phases applies to family (D12*) entries only")
    return None


def _parse_phases(text: Optional[str], symbols: Sequence[str]) -> dict[str, float]:
    syms = sorted(symbols)
    if text is None:
        return {s: 0.0 for s in syms}
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise _UsageError(f"empty entry in phase list {text!r}")
    if len(parts) != len(syms):
        raise _UsageError(
            f"expected {len(syms)} phase values for symbols {','.join(syms)}, got {len(parts)}"
        )
    try:
        phases = {s: parse_float(p) for s, p in zip(syms, parts)}
    except ValueError:
        raise _UsageError(f"bad phase list {text!r}") from None
    if not all(map(math.isfinite, phases.values())):
        raise _UsageError(f"phase values must be finite, got {text!r}")
    return phases


def _exact_matrix(target: str) -> ButsonMatrix:
    matrix = _load_target(target, verified=True)
    if isinstance(matrix, ButsonMatrix):
        return matrix
    if isinstance(matrix, SymbolicMatrix):
        if not matrix.is_constant:
            raise _UsageError(
                f"{target}: has free symbols; specialize it before exact comparison"
            )
        return to_butson(matrix)
    raise _UsageError(f"{target}: need an exact (SYM constant or BH) matrix")


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_list(_args) -> int:
    for name in catalog.names():
        k = catalog.kind(name)
        if k == "family":
            h, r = catalog.family_components(name)
            shape = f"12x12 family {h} o EXP(i*{r})"
        else:
            matrix = catalog.build(name)
            shape = f"{matrix.n}x{matrix.n} {k}"
        flags = " repaired" if catalog.repairs(name) else ""
        print(f"{name:6} {catalog.REFS[name]:16} {shape}{flags}")
    return 0


def _cmd_build(args) -> int:
    name = _catalog_name(args.name)
    symbols = _family_symbols(name, args.phases)
    if symbols is not None:
        matrix: AnyMatrix = catalog.family_matrix(name, _parse_phases(args.phases, symbols))
    else:
        matrix = catalog.build_verified(name) if args.verified else catalog.build(name)
    _write_out(emit_matrix(matrix), args.out)
    return 0


def _cmd_derive(args) -> int:
    name = _catalog_name(args.name)
    if catalog.kind(name) == "family":
        raise _UsageError(f"{name} is a continuous family; use build {name} --phases ...")
    try:
        matrix = catalog.derive(name)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _write_out(emit_matrix(matrix), args.out)
    return 0


def _verify_auto(matrix: AnyMatrix, tol: float):
    if isinstance(matrix, SymbolicMatrix):
        if all(matrix.rows[i][i] is None for i in range(matrix.n)):
            return check_conference(matrix)
        return check_inverse_orthogonal(matrix)
    if isinstance(matrix, ButsonMatrix):
        zero_diag = all(matrix.logs[i][i] is None for i in range(matrix.n))
        return check_conference(matrix) if zero_diag else check_hadamard(matrix)
    if isinstance(matrix, ComplexMatrix):
        return check_hadamard(matrix, tol)
    raise _UsageError("exponent matrices are verified through their family; try a D12 name")


def _cmd_verify(args) -> int:
    target = args.target
    symbols = _family_symbols(target, args.phases)
    if symbols is not None:
        if args.phases is None and args.numeric:
            phases = catalog.random_phases(symbols, random.Random(args.seed))
        else:
            phases = _parse_phases(args.phases, symbols)
        matrix: AnyMatrix = catalog.family_matrix(target, phases, use_verified=args.verified)
    else:
        matrix = _load_target(target, args.verified)
        if args.numeric and isinstance(matrix, SymbolicMatrix):
            # unimodular values keep the Hadamard target meaningful
            phases = catalog.random_phases(matrix.symbols(), random.Random(args.seed))
            matrix = eval_complex(matrix, {s: cmath.exp(1j * p) for s, p in phases.items()})
    result = _verify_auto(matrix, args.tol)
    print(result.describe())
    return 0 if result else 1


def _cmd_equiv(args) -> int:
    A = _exact_matrix(args.a)
    B = _exact_matrix(args.b)
    try:
        verdict = are_equivalent(A, B, args.budget)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"{verdict.status} ({verdict.reason}; nodes={verdict.nodes})")
    if verdict.status == "equivalent":
        return 0
    return 2 if verdict.status == "inequivalent" else 3


def _cmd_fingerprint(args) -> int:
    for line in fingerprint(_exact_matrix(args.target)).lines():
        print(line)
    return 0


def _cmd_search(args) -> int:
    from . import search as search_mod

    if args.n < 2 or args.roots < 1:
        raise _UsageError("need --n >= 2 and --roots >= 1")
    if args.bordered:
        search = search_mod.search_bordered_circulant
    else:
        search = search_mod.search_circulant
    try:
        rows = search(args.n, args.roots, args.budget)
    except search_mod.SearchBudgetExhausted as exc:
        print(f"confhad: {exc}", file=sys.stderr)
        return 3
    if args.reduce:
        rows = search_mod.symmetry_reduce(rows, args.roots)
    for row in rows:
        print(" ".join("z" if c is None else str(c) for c in row))
    return 0


def _cmd_reconcile(args) -> int:
    if args.all:
        reports = catalog.reconcile_all(args.seed)
    else:
        if args.name is None:
            raise _UsageError("give a catalog name or --all")
        reports = [catalog.reconcile(_catalog_name(args.name), args.seed)]
    flagged = 0
    for report in reports:
        print(report.format())
        print()
        if not report.clean:
            flagged += 1
    print(f"{len(reports)} entries, {flagged} with discrepancies")
    return 0


def _cmd_specialize(args) -> int:
    name = _catalog_name(args.name)
    if catalog.kind(name) == "family":
        raise _UsageError(f"{name} is a continuous family; specialize takes a symbolic entry")
    matrix = catalog.build_verified(name)
    if not isinstance(matrix, SymbolicMatrix) or matrix.is_constant:
        raise _UsageError(f"{name} has no free symbols to specialize")
    if matrix.has_zero():
        raise _UsageError(f"{name} has zero cells; specialize takes an inverse orthogonal entry")
    symbols = sorted(matrix.symbols())
    assignments = []
    for bits in range(2 ** len(symbols)):
        assignments.append(
            {s: (bits >> k) & 1 for k, s in enumerate(symbols)}
        )
    classes = specialize_and_classify(matrix, assignments, order=2, budget=args.budget)
    total = sum(cls.size for cls in classes)
    print(f"{name}: {total} Hadamard specializations over signs of {','.join(symbols)}")
    for idx, cls in enumerate(classes, start=1):
        tag = " (undecided bucket)" if cls.undecided else ""
        print(f"class {idx}: {cls.size} members{tag}")
    return 3 if any(cls.undecided for cls in classes) else 0


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and shared.

    It holds only constants, and ``parse_args`` returns a fresh namespace
    each call; help text reads the terminal width when it is formatted.
    """
    parser = _Parser(prog="confhad", description=__doc__)
    parser.add_argument("--list", action="store_true", help="list catalog entries")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build", help="print a catalog matrix")
    p.add_argument("name")
    p.add_argument("--out")
    p.add_argument("--verified", action="store_true", help="apply certified overrides")
    p.add_argument("--phases", help="comma list for family entries (sorted symbols)")

    p = sub.add_parser("derive", help="execute a catalog recipe")
    p.add_argument("name")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the defining identity check")
    p.add_argument("target")
    p.add_argument("--numeric", action="store_true", help="evaluate at unit phases first")
    p.add_argument("--verified", action="store_true", help="apply certified overrides")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--phases")
    p.add_argument("--seed", type=_integer, default=catalog.DEFAULT_SEED)

    p = sub.add_parser("equiv", help="decide monomial equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=_node_budget, default=DEFAULT_BUDGET)

    p = sub.add_parser("fingerprint", help="print the quadruple-product multiset")
    p.add_argument("target")

    p = sub.add_parser("search", help="exhaustive circulant conference search")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--roots", type=_integer, required=True)
    p.add_argument("--bordered", action="store_true")
    p.add_argument("--reduce", action="store_true")
    p.add_argument(
        "--budget",
        type=_node_budget,
        default=DEFAULT_BUDGET,
        help="units the depth-first search may spend, k//2 + 1 per cell value tried "
        "on a row of k cells; when spent, exit 3 with no rows",
    )

    p = sub.add_parser("reconcile", help="printed-vs-derived reports")
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=_integer, default=catalog.DEFAULT_SEED)

    p = sub.add_parser("specialize", help="classify sign specializations")
    p.add_argument("name")
    p.add_argument("--budget", type=_node_budget, default=DEFAULT_BUDGET)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    try:
        if args.list:
            return _cmd_list(args)
        handler = {
            "build": _cmd_build,
            "derive": _cmd_derive,
            "verify": _cmd_verify,
            "equiv": _cmd_equiv,
            "fingerprint": _cmd_fingerprint,
            "search": _cmd_search,
            "reconcile": _cmd_reconcile,
            "specialize": _cmd_specialize,
        }.get(args.command)
        if handler is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
        code = handler(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"confhad: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # handlers turn the user's file errors into _UsageError
        if exc.filename is not None:  # a packaged data file; stdout is fine
            reason = exc.strerror or exc
            print(f"confhad: error: cannot read {exc.filename}: {reason}", file=sys.stderr)
            return OUTPUT_ERROR
        print(f"confhad: error: cannot write output: {exc}", file=sys.stderr)
        _drop_stdout()
        return OUTPUT_ERROR


def _drop_stdout() -> None:
    """Point the stdout file descriptor at the null device, so the flush at
    interpreter exit finds no closed or full file to report."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no file behind it, or closed
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    raise SystemExit(main())
