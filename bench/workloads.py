"""The three benchmark workloads as fixed lists of operations.

Every operation is a call into confhad's public API that returns a plain,
comparable answer, plus a judge that says whether the answer is right:
``"ok"``, ``"defect"`` (a known defect reproduced exactly as recorded in
``KNOWN_DEFECTS``) or ``"wrong"`` (anything else).  Judging runs outside the
timed region.  Operations call confhad through module attributes looked up at
call time, so the tracer's wrappers see them.

Ground truth comes from mathematics where it is known (Paley constructions are
conference/Hadamard, generated pairs are equivalent by construction, the
printed displays in ``repairs.txt`` fail), from the classes stated in the
catalog documentation, and otherwise from answers recorded by
``record_expected.py`` at the commit that added the benchmark (stdout digests,
order-4 class labels).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Any, Callable, NamedTuple

import confhad.cli
from confhad import catalog, equivalence, formats, matrices, verify
from confhad.symbolic import ONE

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Displays whose printed form fails its identity (see data/repairs.txt).
REPAIRED = frozenset({"C6pq", "O12d", "O12h", "R12_7", "H12b", "H12d"})
# Monomial-equivalence classes of the order-12 Hadamard entries.
H12_CLASSES = ("abc", "de", "fg")

CLASSIFY_FAMILIES = ("O12a", "O12d", "O12h")
ORDER4_SAMPLE = 32  # order-4 points per family in classify12

PALEY_Q = (13, 17, 29)
SCALE_BUDGET = 100_000  # node budget of every scale equivalence query
# Seeded images per generated equivalent pair kind: their costs differ, so a
# pass averages over several to keep wall_s steady across seeds.
SCALE_IMAGES = 3

KNOWN_DEFECTS = {
    "root4-scaled": "a +-1 Hadamard matrix and its 4th-root diagonal scaling "
    "come back 'inequivalent (fingerprint mismatch)'",
    "row-swap": "a conference matrix and a row-swapped copy raise "
    "ValueError: zero cells must form the diagonal",
}


class Raised(NamedTuple):
    """Answer of an operation that raised."""

    error: str
    message: str


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    judge: Callable[[Any], str]
    # (decisions attempted, undecided) for an answer
    decisions: Callable[[Any], tuple[int, int]]


def _no_decisions(answer: Any) -> tuple[int, int]:
    return (0, 0)


def run_op(op: Op) -> Any:
    try:
        return op.call()
    except Exception as exc:  # the answer of a failing operation
        return Raised(type(exc).__name__, str(exc))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def warm_catalog() -> None:
    """Build, build verified and derive every entry, filling the caches."""
    for name in catalog.names():
        catalog.build(name)
        if catalog.kind(name) != "family":
            catalog.build_verified(name)
            if catalog.recipe_text(name) is not None:
                catalog.derive(name)


# ---------------------------------------------------------------------------
# catalog12: every README command over the order-12 catalog, in-process


def cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = confhad.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def catalog12_argvs(seed: int) -> list[list[str]]:
    """The command lines of one pass; only the numeric verify seeds vary."""
    names = catalog.names()
    fixed = [n for n in names if catalog.kind(n) != "family"]
    families = [n for n in names if catalog.kind(n) == "family"]
    rng = random.Random(seed)
    argvs = [["--list"]]
    for n in names:
        argvs += [["build", n], ["build", n, "--verified"]]
    argvs += [["derive", n] for n in fixed if catalog.recipe_text(n) is not None]
    for n in fixed:
        argvs += [["verify", n], ["verify", n, "--verified"]]
    argvs += [["verify", n, "--numeric", "--seed", str(rng.randrange(10**6))] for n in families]
    argvs += [["fingerprint", f"H12{x}"] for x in "abcdefg"]
    h12 = "abcdefg"
    argvs += [
        ["equiv", f"H12{x}", f"H12{y}"]
        for i, x in enumerate(h12)
        for y in h12[i + 1 :]
    ]
    argvs += [["equiv", "C6a", "C6b"], ["equiv", "C6f", "C6g"]]
    argvs += [
        ["reconcile", "--all"],
        ["search", "--bordered", "--n", "6", "--roots", "4", "--reduce"],
        ["search", "--bordered", "--n", "8", "--roots", "4"],
        ["search", "--n", "6", "--roots", "6"],
    ]
    return argvs


def _h12_class(name: str) -> str:
    return next(c for c in H12_CLASSES if name[-1] in c)


def _expected_code(argv: list[str]) -> int:
    """Exit code implied by the catalog's documented facts."""
    cmd = argv[0]
    if cmd == "verify":
        name = argv[1]
        if catalog.kind(name) == "exponent":
            return 64  # exponent patterns are verified through their family
        if catalog.kind(name) == "family":
            h_name, r_name = catalog.family_components(name)
            return 1 if {h_name, r_name} & REPAIRED else 0
        return 1 if name in REPAIRED and "--verified" not in argv else 0
    if cmd == "equiv":
        a, b = argv[1], argv[2]
        if a.startswith("H12"):
            return 0 if _h12_class(a) == _h12_class(b) else 2
        return {"C6a": 0, "C6f": 2}[a]
    return 0


_NODES = re.compile(r"; nodes=\d+\)$", re.MULTILINE)


def recorded_text(argv: list[str], out: str) -> str:
    """The part of a command's stdout that is recorded and compared.

    ``equiv`` prints the search's node count, which a better search may
    change; it is cut from the verdict line.
    """
    return _NODES.sub(")", out) if argv[0] == "equiv" else out


def exact(name: str):
    """A catalog entry as an exact Butson matrix."""
    matrix = catalog.build_verified(name)
    return matrix if isinstance(matrix, matrices.ButsonMatrix) else matrices.to_butson(matrix)


def _cli_judge(argv: list[str], recorded: dict) -> Callable[[Any], str]:
    key = " ".join(argv)
    code = _expected_code(argv)

    def judge(answer: Any) -> str:
        if isinstance(answer, Raised):
            return "wrong"
        if argv[0] == "equiv" and answer[0] == 3:  # undecided, not wrong
            return "ok" if answer[1].startswith("unknown (") else "wrong"
        if answer[0] != code:
            return "wrong"
        out = answer[1]
        if argv[0] == "verify" and "--numeric" in argv:
            ok = out == "pass\n" if code == 0 else out.startswith("fail at (")
        else:
            ok = recorded.get(key) == [code, digest(recorded_text(argv, out))]
        if ok and argv[0] == "equiv" and code == 0:
            a, b = exact(argv[1]), exact(argv[2])
            verdict = equivalence.are_equivalent(a, b)
            ok = verdict.status == "equivalent" and maps(verdict.witness, a, b)
        return "ok" if ok else "wrong"

    return judge


def _equiv_decision(answer: Any) -> tuple[int, int]:
    return (1, int(not isinstance(answer, Raised) and answer[0] == 3))


def catalog12_ops(seed: int) -> list[Op]:
    recorded = load_expected("catalog12")
    ops = []
    for argv in catalog12_argvs(seed):
        ops.append(
            Op(
                "cli " + " ".join(argv),
                lambda argv=argv: cli(argv),
                _cli_judge(argv, recorded),
                _equiv_decision if argv[0] == "equiv" else _no_decisions,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# classify12: sign specializations and seeded order-4 points


def grid_point(symbols: list[str], index: int, order: int) -> dict[str, int]:
    """Point ``index`` of the order^k grid, first symbol fastest."""
    return {s: (index // order**k) % order for k, s in enumerate(symbols)}


def classify_points(matrix, symbols, indices, order) -> frozenset:
    """The classes of the grid points ``indices``, as a set of
    (frozenset of point indices, undecided) pairs."""
    points = [grid_point(symbols, i, order) for i in indices]
    classes = equivalence.specialize_and_classify(matrix, points, order=order)
    index = lambda a: sum(a[s] * order**k for k, s in enumerate(symbols))
    return frozenset((frozenset(map(index, c.assignments)), c.undecided) for c in classes)


def _partition_judge(labels: str, indices: list[int]) -> Callable[[Any], str]:
    """Right when the classes partition ``indices``, every decided class has
    one label, and no two decided classes share a label.

    ``labels[i]`` is the recorded class of grid point ``i``.  Undecided
    buckets are not judged; they count toward undecided_ratio.
    """

    def judge(answer: Any) -> str:
        if isinstance(answer, Raised):
            return "wrong"
        members = sorted(i for points, _ in answer for i in points)
        if members != sorted(indices):
            return "wrong"
        seen: set[str] = set()
        for points, undecided in answer:
            if undecided:
                continue
            found = {labels[i] for i in points}
            if len(found) != 1 or found & seen:
                return "wrong"
            seen |= found
        return "ok"

    return judge


def _class_decisions(answer: Any) -> tuple[int, int]:
    if isinstance(answer, Raised):
        return (1, 0)
    return (len(answer), sum(undecided for _, undecided in answer))


def classify12_ops(seed: int) -> list[Op]:
    pools = load_expected("classify12")
    rng = random.Random(seed)
    ops = []
    for name in CLASSIFY_FAMILIES:
        matrix = catalog.build_verified(name)
        symbols = sorted(matrix.symbols())
        signs = list(range(2 ** len(symbols)))
        ops.append(
            Op(
                f"classify {name} signs",
                lambda m=matrix, s=symbols, i=signs: classify_points(m, s, i, 2),
                _partition_judge("0" * len(signs), signs),  # one class
                _class_decisions,
            )
        )
        sample = rng.sample(range(4 ** len(symbols)), ORDER4_SAMPLE)
        ops.append(
            Op(
                f"classify {name} order4",
                lambda m=matrix, s=symbols, i=sample: classify_points(m, s, i, 4),
                _partition_judge(pools[name]["labels"], sample),
                _class_decisions,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# scale: doubled Paley conference matrices built in the repo


def legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def paley_logs(q: int) -> tuple[list, list]:
    """Independent +-1 logs (base -1) of the bordered Paley core and its double."""
    core = [[None] + [0] * q]
    for i in range(q):
        core.append([0] + [None if j == i else (1 - legendre(j - i, q)) // 2 for j in range(q)])
    n = q + 1
    # [[C+I, Cinv-I], [C-I, -Cinv-I]], Cinv[i][j] = 1/C[j][i] = C[j][i]
    inv = [[None if i == j else core[j][i] for j in range(n)] for i in range(n)]
    double = []
    for i in range(n):
        double.append([0 if i == j else core[i][j] for j in range(n)] + [1 if i == j else inv[i][j] for j in range(n)])
    for i in range(n):
        double.append([1 if i == j else core[i][j] for j in range(n)] + [1 if i == j else (inv[i][j] + 1) % 2 for j in range(n)])
    return core, double


def build_paley(q: int):
    """Symbolic and exact core and double through the public constructions."""
    row = [None] + [ONE if legendre(k, q) == 1 else -ONE for k in range(1, q)]
    core = matrices.bordered_circulant(row)
    double = matrices.double_orthogonal(core)
    return core, double, matrices.to_butson(core), matrices.to_butson(double)


def _built_logs(q: int):
    _, _, core, double = build_paley(q)
    return (core.m, double.m, [list(r) for r in core.logs], [list(r) for r in double.logs])


def _passes(answer: Any) -> str:
    return "ok" if answer is True else "wrong"


def maps(w, a, b) -> bool:
    """Independent check that witness ``w`` carries ``a`` onto ``b``."""
    big = lcm(a.m, b.m, w.m)
    sa, sb, sw = big // a.m, big // b.m, big // w.m
    for i in range(a.n):
        for j in range(a.n):
            x, y = a.logs[w.row_perm[i]][w.col_perm[j]], b.logs[i][j]
            if (x is None) != (y is None):
                return False
            if x is not None and (x * sa + (w.row_logs[i] + w.col_logs[j]) * sw - y * sb) % big:
                return False
    return True


def _verdict(a, b):
    v = equivalence.are_equivalent(a, b, SCALE_BUDGET)
    w = v.witness
    return (
        v.status,
        v.reason,
        v.nodes,
        None if w is None else (w.m, w.row_perm, w.col_perm, w.row_logs, w.col_logs),
    )


def _equiv_judge(a, b, defect: str | None = None) -> Callable[[Any], str]:
    """Generated pairs are equivalent: a verified witness or 'unknown' is right."""

    def judge(answer: Any) -> str:
        if defect == "row-swap" and answer == Raised("ValueError", "zero cells must form the diagonal"):
            return "defect"
        if isinstance(answer, Raised):
            return "wrong"
        status, reason, _, w = answer
        if status == "unknown":
            return "ok"
        if status == "equivalent":
            return "ok" if maps(equivalence.MonomialTransform(*w), a, b) else "wrong"
        if defect == "root4-scaled" and reason == "fingerprint mismatch":
            return "defect"
        return "wrong"

    return judge


def _scale_decision(answer: Any) -> tuple[int, int]:
    return (1, int(not isinstance(answer, Raised) and answer[0] == "unknown"))


def _image(t, a):
    b = t.apply(a)
    if not t.maps(a, b):
        raise AssertionError("generated image fails its own transform")
    return b


def _perm(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(n), n))


def scale_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    built = {q: build_paley(q) for q in PALEY_Q}
    ops = []
    for q in PALEY_Q:
        want = (2, 2) + paley_logs(q)
        ops.append(
            Op(
                f"build paley q={q}",
                lambda q=q: _built_logs(q),
                lambda answer, want=want: "ok" if answer == want else "wrong",
                _no_decisions,
            )
        )
    for q in PALEY_Q:
        core, double, core_bh, double_bh = built[q]
        checks = [
            (f"check_conference symbolic n={core.n}", lambda c=core: bool(verify.check_conference(c))),
            (f"check_conference butson n={core.n}", lambda c=core_bh: bool(verify.check_conference(c))),
            (f"check_inverse_orthogonal n={double.n}", lambda d=double: bool(verify.check_inverse_orthogonal(d))),
            (f"check_hadamard n={double.n}", lambda d=double_bh: bool(verify.check_hadamard(d))),
        ]
        for m in (core_bh, double_bh):
            checks.append(
                (f"BH round trip n={m.n}", lambda m=m: formats.parse_matrix(formats.emit_matrix(m)) == m)
            )
        ops += [Op(name, call, _passes, _no_decisions) for name, call in checks]

    def query(name, a, t, defect=None):
        b = _image(t, a)
        ops.append(Op(name, lambda: _verdict(a, b), _equiv_judge(a, b, defect), _scale_decision))

    transform = equivalence.MonomialTransform
    for q in PALEY_Q[:2]:
        h = built[q][3]
        signs = lambda: tuple(rng.randrange(2) for _ in range(h.n))
        for k in range(SCALE_IMAGES):
            t = transform(2, _perm(rng, h.n), _perm(rng, h.n), signs(), signs())
            query(f"equiv hadamard n={h.n} monomial image {k}", h, t)
    for q in PALEY_Q:
        c = built[q][2]
        for k in range(SCALE_IMAGES):
            p = _perm(rng, c.n)
            query(f"equiv conference n={c.n} PCP^T image {k}", c, transform(2, p, p, (0,) * c.n, (0,) * c.n))
    c = built[PALEY_Q[0]][2]
    swap = list(range(c.n))
    i, j = rng.sample(swap, 2)
    swap[i], swap[j] = j, i
    t = transform(2, tuple(swap), tuple(range(c.n)), (0,) * c.n, (0,) * c.n)
    query(f"equiv conference n={c.n} row swap", c, t, "row-swap")
    h = built[PALEY_Q[0]][3]
    diag = [rng.randrange(4) for _ in range(h.n)]
    diag[rng.randrange(h.n)] = 1  # keeps the image off the +-1 matrices
    t = transform(4, tuple(range(h.n)), tuple(range(h.n)), tuple(diag), (0,) * h.n)
    query(f"equiv hadamard n={h.n} 4th-root diagonal", h, t, "root4-scaled")
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    return {"catalog12": catalog12_ops, "classify12": classify12_ops, "scale": scale_ops}[workload](seed)
