import gc
import random
import time
import tracemalloc

import pytest

from confhad import catalog
from confhad.equivalence import (
    EquivalenceClass,
    MonomialTransform,
    _pair_counts,
    _Target,
    _search_verdict,
    are_equivalent,
    conference_fingerprint,
    fingerprint,
    specialize_and_classify,
)
from confhad.matrices import ButsonMatrix, bordered_circulant, double_orthogonal, eval_exact, to_butson
from confhad.symbolic import ONE
from confhad.verify import check_conference, check_hadamard


def random_transform(n, m, rng):
    rp = list(range(n))
    cp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    return MonomialTransform(
        m,
        tuple(rp),
        tuple(cp),
        tuple(rng.randrange(m) for _ in range(n)),
        tuple(rng.randrange(m) for _ in range(n)),
    )


H4 = ButsonMatrix(2, [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]])


def butson(name):
    return to_butson(catalog.build_verified(name))


def paley_core(q):
    """The bordered Paley conference matrix of order q + 1 (q = 1 mod 4)."""
    squares = {k * k % q for k in range(1, q)}
    return bordered_circulant([None] + [ONE if k in squares else -ONE for k in range(1, q)])


def sylvester(k):
    """The Sylvester Hadamard matrix of order 2^k, in logs base -1."""
    n = 1 << k
    return ButsonMatrix(2, [[bin(i & j).count("1") % 2 for j in range(n)] for i in range(n)])


def paley_i(q):
    """The Paley I Hadamard matrix I + S of order q + 1 (q = 3 mod 4), with S
    the skew core [[0, 1], [-1, Q]] and Q[i][j] the quadratic character of
    j - i mod q; in logs base -1."""
    squares = {k * k % q for k in range(1, q)}

    def cell(i, j):
        if i == j or i == 0:
            return 0
        if j == 0:
            return 1
        return 0 if (j - i) % q in squares else 1

    return ButsonMatrix(2, [[cell(i, j) for j in range(q + 1)] for i in range(q + 1)])


def search_verdict(a, b, budget):
    """``_search_verdict`` as ``are_equivalent`` calls it once the
    fingerprints match: with both matrices' row keys, keeping no search side."""
    return _search_verdict(a, _pair_counts(a)[1], b, _pair_counts(b)[1], budget, {})


def o12d_twin_points():
    """Two inequivalent order-4 points of O12d with equal fingerprints."""
    M = catalog.build_verified("O12d")
    return (
        eval_exact(M, {"a": 0, "b": 3, "c": 0, "d": 1, "e": 0, "f": 1}, 4),
        eval_exact(M, {"a": 3, "b": 3, "c": 2, "d": 3, "e": 0, "f": 3}, 4),
    )


class TestFingerprint:
    def test_invariant_under_random_transforms(self):
        rng = random.Random(101)
        for name in ("H12a", "H12f"):
            M = butson(name)
            fp = fingerprint(M)
            for _ in range(10):
                T = random_transform(M.n, M.m, rng)
                assert fingerprint(T.apply(M)) == fp

    def test_real_and_fourth_root_prints_differ(self):
        assert fingerprint(butson("H12a")) != fingerprint(butson("H12f"))

    def test_real_hadamard_values_are_signs(self):
        fp = fingerprint(H4)
        assert fp.m == 2
        assert {k for k, _ in fp.counts} <= {0, 1}

    def test_zero_cells_are_skipped_under_both_names(self):
        M = butson("C6a")
        assert fingerprint(M) == conference_fingerprint(M) and fingerprint(M).zeros > 0

    def test_conference_variant_skips_zero_quadruples(self):
        fp = conference_fingerprint(butson("C6a"))
        assert fp.zeros > 0
        rng = random.Random(5)
        M = butson("C6f")
        base = conference_fingerprint(M)
        sigma = list(range(6))
        rng.shuffle(sigma)
        T = MonomialTransform(
            4,
            tuple(sigma),
            tuple(sigma),
            tuple(rng.randrange(4) for _ in range(6)),
            tuple(rng.randrange(4) for _ in range(6)),
        )
        assert conference_fingerprint(T.apply(M)) == base

    def test_order_is_generated_by_the_quadruple_values(self):
        # a 4th-root diagonal scaling of a +-1 matrix raises its root order
        # but leaves every quadruple product unchanged
        real = butson("H12a")
        scaled = MonomialTransform(4, tuple(range(12)), tuple(range(12)), (1,) + (0,) * 11, (0,) * 12).apply(real)
        assert scaled.reduce_order().m == 4
        assert fingerprint(scaled) == fingerprint(real) and fingerprint(real).m == 2
        assert fingerprint(ButsonMatrix(4, [[1]])) == fingerprint(ButsonMatrix(1, [[0]]))

    def test_lines_are_sorted_and_stable(self):
        fp = fingerprint(butson("H12f"))
        assert fp.lines() == fp.lines()
        assert fp.lines()[0].startswith("n=12")


class TestAreEquivalent:
    def test_transformed_copy_found_with_witness(self):
        rng = random.Random(77)
        M = butson("H12a")
        shuffled = random_transform(M.n, M.m, rng).apply(M)
        verdict = are_equivalent(M, shuffled)
        assert verdict.equivalent
        assert verdict.witness.maps(M, shuffled)

    def test_row_negation_is_equivalent(self):
        logs = [list(r) for r in H4.logs]
        logs[2] = [(c + 1) % 2 for c in logs[2]]
        flipped = ButsonMatrix(2, logs)
        verdict = are_equivalent(H4, flipped)
        assert verdict.equivalent

    def test_conference_pair_from_print(self):
        # the b-variant is the a-variant with rows/cols 4,5 swapped
        verdict = are_equivalent(butson("C6a"), butson("C6b"))
        assert verdict.equivalent
        w = verdict.witness
        assert w.row_perm == w.col_perm

    def test_fourth_root_diagonal_scaling_is_equivalent(self):
        rng = random.Random(41)
        for name in ("H12a", "H12c"):
            real = butson(name)
            diag = tuple(rng.randrange(4) for _ in range(12))
            scaled = MonomialTransform(4, tuple(range(12)), tuple(range(12)), diag, (0,) * 12).apply(real)
            verdict = are_equivalent(real, scaled)
            assert verdict.equivalent and verdict.witness.maps(real, scaled)

    def test_row_swapped_conference_matrices(self):
        from confhad.matrices import bordered_circulant
        from confhad.symbolic import Monomial

        def paley_core(q):
            squares = {k * k % q for k in range(1, q)}
            return to_butson(bordered_circulant([None] + [Monomial(0 if k in squares else 2) for k in range(1, q)]))

        rng = random.Random(17)
        for C in (butson("C6a"), paley_core(13), paley_core(17)):
            n = C.n
            rows = list(range(n))
            i, j = rng.sample(rows, 2)
            rows[i], rows[j] = j, i
            swapped = ButsonMatrix(C.m, [C.logs[r] for r in rows])
            verdict = are_equivalent(C, swapped)
            assert verdict.equivalent and verdict.witness.maps(C, swapped)
            verdict = are_equivalent(swapped, C)
            assert verdict.equivalent and verdict.witness.maps(swapped, C)

    def test_zero_sets_other_than_permutation_patterns_raise(self):
        C = butson("C6a")
        logs = [list(row) for row in C.logs]
        logs[0][0], logs[0][1] = 0, None  # row 0 and column 1 hold two zeros
        with pytest.raises(ValueError, match="permutation pattern"):
            are_equivalent(C, ButsonMatrix(C.m, logs))

    def test_inequivalent_by_zero_cell_count(self):
        C = butson("C6a")
        full = ButsonMatrix(C.m, [[0 if x is None else x for x in row] for row in C.logs])
        for a, b in ((C, full), (full, C)):
            verdict = are_equivalent(a, b)
            assert (verdict.status, verdict.reason, verdict.nodes) == ("inequivalent", "zero cell counts differ", 0)

    def test_inequivalent_by_fingerprint(self):
        verdict = are_equivalent(butson("H12a"), butson("H12d"))
        assert verdict.inequivalent and verdict.reason == "fingerprint mismatch"

    def test_inequivalent_by_exhausted_search(self):
        # doubled C6d vs the printed class: fingerprints differ already,
        # so force the search path with a transformed pair of distinct classes
        A = to_butson(double_orthogonal(catalog.build("C6d")))
        B = butson("H12d")
        verdict = are_equivalent(A, B)
        assert verdict.inequivalent

    def test_unknown_on_tiny_budget(self):
        rng = random.Random(3)
        M = butson("H12f")
        shuffled = random_transform(M.n, M.m, rng).apply(M)
        verdict = are_equivalent(M, shuffled, budget=2)
        assert verdict.status == "unknown"

    def test_skew_cores_inequivalent_by_exhausted_search(self):
        # entrywise conjugates: fingerprints tie, the search decides
        f, g = butson("C6f"), butson("C6g")
        assert conference_fingerprint(f) == conference_fingerprint(g)
        verdict = are_equivalent(f, g)
        assert verdict.inequivalent and verdict.reason == "exhausted search"
        assert verdict.nodes > 0

    def test_hadamard_search_exhausts_on_inequivalent_pair(self):
        # no anchor of H12a dephases to H12d's row and column shape
        verdict = search_verdict(butson("H12a"), butson("H12d"), 10**8)
        assert (verdict.status, verdict.reason, verdict.nodes) == ("inequivalent", "exhausted search", 0)

    def test_hadamard_search_exhausts_on_same_fingerprint_pair(self):
        # completeness probe for the dephased-anchor search itself: two
        # inequivalent order-4 points of O12d that the fingerprint cannot part
        A, B = o12d_twin_points()
        assert fingerprint(A) == fingerprint(B)
        searched = search_verdict(A, B, 10**8)
        assert searched.inequivalent and 0 < searched.nodes < 10**5
        verdict = are_equivalent(A, B)
        assert verdict.inequivalent and verdict.reason == "exhausted search"
        assert verdict.nodes == searched.nodes

    def test_conference_search_exhausts_on_inequivalent_pair(self):
        verdict = search_verdict(butson("C6f"), butson("C6g"), 10**8)
        assert verdict.inequivalent and 0 < verdict.nodes < 10**5

    def test_tiny_conference_matrices(self):
        # the nonzero cells of these fall into several connected parts, each
        # with its own diagonal gauge
        diag = ButsonMatrix(2, [[None, 0], [0, None]])
        flipped = ButsonMatrix(2, [[None, 1], [0, None]])
        anti = ButsonMatrix(2, [[0, None], [None, 0]])
        zero = ButsonMatrix(2, [[None]])
        for a, b in ((diag, flipped), (flipped, diag), (diag, anti), (zero, zero)):
            verdict = are_equivalent(a, b)
            assert verdict.equivalent and verdict.witness.maps(a, b)

    def test_inputs_stored_above_their_minimal_order(self):
        # regression: witness re-verification must accept non-reduced inputs
        wide = butson("H12a").lift(4)
        verdict = are_equivalent(wide, butson("H12a"))
        assert verdict.equivalent and verdict.witness.maps(wide, butson("H12a"))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            are_equivalent(H4, butson("H12a"))

    def test_mixed_orders_lift_transparently(self):
        real = butson("H12a")
        lifted = real.lift(4)
        assert are_equivalent(real, lifted).equivalent

    def test_coprime_orders_search_in_bounded_memory(self):
        # the search runs at lcm(1021, 1019) = 1,040,399: row shapes hold
        # n sorted values each, never a vector of that many counts
        a = ButsonMatrix(1021, [[0] * 12] * 12)
        b = ButsonMatrix(1019, [[0] * 12] * 12)
        tracemalloc.start()
        try:
            verdict = are_equivalent(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status == "equivalent" and verdict.witness.maps(a, b)
        assert peak < 2**20

    def test_completeness_small_order(self):
        rng = random.Random(13)
        for _ in range(25):
            T = random_transform(4, 2, rng)
            assert are_equivalent(H4, T.apply(H4)).equivalent

    def test_verdict_matrix_of_printed_hadamards(self):
        # regression: the seven prints split into three classes
        classes = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 2, "g": 2}
        letters = "abcdefg"
        for i, x in enumerate(letters):
            for y in letters[i + 1 :]:
                verdict = are_equivalent(butson(f"H12{x}"), butson(f"H12{y}"))
                expected = classes[x] == classes[y]
                assert verdict.equivalent == expected, (x, y, verdict.status)
                assert verdict.status != "unknown"


class TestDoubledPaley:
    """+-1 Hadamard matrices of order 28 and 36 by doubling the Paley
    conference matrices of order 14 and 18.  Every dephased row of such a
    matrix has the same signature, so only the refinement of rows and
    columns decides them."""

    def test_seeded_images_are_decided_within_budget(self):
        H = to_butson(double_orthogonal(paley_core(13)))
        assert (H.n, H.m) == (28, 2) and check_hadamard(H)
        rng = random.Random(1328)
        for _ in range(3):
            image = random_transform(H.n, H.m, rng).apply(H)
            verdict = are_equivalent(H, image, budget=10**5)
            assert verdict.equivalent and verdict.witness.maps(H, image)
            assert 0 < verdict.nodes <= 10**5

    def test_order_36_images_match_rarest_rows_first(self):
        # matched in index order, B's rows branch over every A row of the
        # same profile: each of these images then took over 16,000 nodes.
        # Rarest rows first, they took 3,961, 4,017 and 4,115 nodes while
        # anchor (0, 0), which holds no witness, was searched to exhaustion;
        # its row-triple profile now rejects it, and they take 1,648, 1,704
        # and 1,802
        H = to_butson(double_orthogonal(paley_core(17)))
        assert (H.n, H.m) == (36, 2) and check_hadamard(H)
        rng = random.Random(3611)
        for _ in range(3):
            image = random_transform(H.n, H.m, rng).apply(H)
            verdict = are_equivalent(H, image, budget=2000)
            assert verdict.equivalent and verdict.witness.maps(H, image)

    def test_searches_leave_no_cyclic_garbage(self):
        rng = random.Random(30)
        C = to_butson(paley_core(29))
        H = to_butson(double_orthogonal(paley_core(13)))
        assert C.n == 30 and check_conference(C)
        C_image = random_transform(C.n, C.m, rng).apply(C)
        H_image = random_transform(H.n, H.m, rng).apply(H)
        gc.collect()
        gc.disable()
        try:
            verdicts = [
                are_equivalent(C, C_image, budget=10**5),
                are_equivalent(H, H_image, budget=10**5),
                are_equivalent(H, H_image, budget=1),
            ]
            left = gc.collect()
        finally:
            gc.enable()
        assert [v.status for v in verdicts] == ["equivalent", "equivalent", "unknown"]
        assert left == 0


class TestSearchVerdict:
    """The search step ``specialize_and_classify`` calls once its own
    fingerprints match: it never decides by an invariant."""

    def test_never_answers_by_fingerprint(self):
        rng = random.Random(59)
        pairs = [(butson(f"H12{x}"), butson(f"H12{y}")) for x in "adf" for y in "abcdefg"]
        M = butson("H12d")
        pairs.append((M, random_transform(M.n, M.m, rng).apply(M)))
        pairs.append(o12d_twin_points())
        reasons = set()
        for a, b in pairs:
            verdict = search_verdict(a, b, 10**8)
            reasons.add(verdict.reason)
            if verdict.equivalent:
                assert verdict.reason == "witness found" and verdict.witness.maps(a, b)
            else:
                assert verdict.inequivalent and verdict.reason == "exhausted search"
            assert verdict.status == are_equivalent(a, b).status
        assert reasons == {"witness found", "exhausted search"}
        assert fingerprint(butson("H12a")) != fingerprint(butson("H12d"))  # a pair above

    def test_sylvester_and_paley_32_part_at_every_anchor(self):
        # equal fingerprints; every anchor of Sylvester 32 passes the row and
        # column shape tests and fails the row-triple profile of Paley I 32,
        # so the search exhausts without a node (984,064 nodes without it)
        S, P = sylvester(5), paley_i(31)
        assert check_hadamard(S) and check_hadamard(P) and fingerprint(S) == fingerprint(P)
        verdict = search_verdict(S, P, 10**4)
        assert (verdict.status, verdict.reason, verdict.nodes) == ("inequivalent", "exhausted search", 0)

    def test_paley_i_and_paley_ii_60_part_by_unsigned_profiles(self):
        # equal fingerprints and row keys, as for every pair of +-1 Hadamard
        # matrices of one order; in each row of Paley I 60 the first anchor
        # past the shape tests differs from Paley II 60 in the row-triple
        # profile even unsigned, which no anchor column changes, so the row
        # is left there
        P1, P2 = paley_i(59), to_butson(double_orthogonal(paley_core(29)))
        assert check_hadamard(P1) and check_hadamard(P2) and fingerprint(P1) == fingerprint(P2)
        t0 = time.monotonic()
        verdict = are_equivalent(P1, P2)
        assert time.monotonic() - t0 < 3.0
        assert (verdict.status, verdict.reason, verdict.nodes) == ("inequivalent", "exhausted search", 0)

    def test_spent_budget_is_unknown(self):
        a, b = o12d_twin_points()
        verdict = search_verdict(a, b, 3)
        assert verdict.status == "unknown" and verdict.nodes == 3

    def test_verdict_does_not_depend_on_the_input_orders(self):
        """The search runs at the orders it is given; lifting either input
        multiplies every log by one constant and changes neither the
        status nor the node count."""
        rng = random.Random(1723)
        groups = [[butson(f"H12{x}") for x in "adf"], [to_butson(catalog.build(f"C6{x}")) for x in "acfg"]]
        pairs = [(a, b) for group in groups for a in group for b in group]
        for M in (butson("H12d"), butson("H12f"), to_butson(catalog.build("C6f"))):
            pairs.append((M, random_transform(M.n, M.m, rng).apply(M).reduce_order()))
        pairs.append(o12d_twin_points())
        for a, b in pairs:
            assert a == a.reduce_order() and b == b.reduce_order()
            base = search_verdict(a, b, 10**8)
            for ka, kb in [(2, 1), (1, 3), (2, 2), (3, 2)]:
                la, lb = a.lift(a.m * ka), b.lift(b.m * kb)
                verdict = search_verdict(la, lb, 10**8)
                assert (verdict.status, verdict.nodes) == (base.status, base.nodes)
                if verdict.equivalent:
                    assert verdict.witness.maps(la, lb) and verdict.witness.maps(a, b)
            assert base.status != "unknown"


class TestTarget:
    """B's side of the search is built whole when the target is, and no
    search against it changes it."""

    @staticmethod
    def snapshot(t):
        return [(level.row, level.cells, level.split) for level in t.levels]

    @pytest.mark.parametrize("name", ["H12a", "paley28", "o12d-twin"])
    def test_searches_leave_the_target_unchanged(self, name):
        rng = random.Random(2903)
        if name == "o12d-twin":
            inequivalent, B = o12d_twin_points()  # its search walks depths
        else:
            B = butson(name) if name == "H12a" else to_butson(double_orthogonal(paley_core(13)))
            # its keys differ from B's, so this search ends before an anchor
            inequivalent = ButsonMatrix(B.m, [[rng.randrange(B.m) for _ in range(B.n)] for _ in range(B.n)])
        keys = _pair_counts(B)[1]
        t = _Target(B)
        before = self.snapshot(t)
        assert len(before) == B.n + 1 and before[-1][0] == -1
        image = random_transform(B.n, B.m, rng).apply(B)
        runs = [(image, 10**6, "equivalent"), (inequivalent, 10**6, "inequivalent"), (image, 1, "unknown")]
        targets = {B.m: t}
        for A, budget, status in runs:
            verdict = _search_verdict(A, _pair_counts(A)[1], B, keys, budget, targets)
            assert verdict.status == status and targets == {B.m: t}
            assert self.snapshot(t) == before
        assert before == self.snapshot(_Target(B))


class TestSpecializeAndClassify:
    def test_partition_matches_pairwise_are_equivalent(self):
        rng = random.Random(4242)
        for name in ("O12a", "O12d", "O12h"):
            M = catalog.build_verified(name)
            syms = sorted(M.symbols())
            points = [{s: rng.randrange(4) for s in syms} for _ in range(14)]
            points = [p for p in points if check_hadamard(eval_exact(M, p, 4))]
            classes = specialize_and_classify(M, points, order=4)
            key = lambda p: tuple(sorted(p.items()))
            label = {key(p): k for k, cls in enumerate(classes) for p in cls.assignments}
            assert not any(cls.undecided for cls in classes)
            assert sorted(label) == sorted(set(map(key, points)))
            for i, p in enumerate(points):
                for q in points[i + 1 :]:
                    verdict = are_equivalent(eval_exact(M, p, 4), eval_exact(M, q, 4))
                    assert verdict.status != "unknown"
                    assert verdict.equivalent == (label[key(p)] == label[key(q)]), (name, p, q)

    def test_sign_specializations_of_printed_family(self):
        M = catalog.build_verified("O12a")
        syms = sorted(M.symbols())
        assignments = [
            {s: (bits >> k) & 1 for k, s in enumerate(syms)} for bits in range(64)
        ]
        classes = specialize_and_classify(M, assignments, order=2)
        assert sum(c.size for c in classes) == 64  # every sign choice is Hadamard
        assert len(classes) == 1  # single class (regression)
        assert not classes[0].undecided
        rep = classes[0].representative
        assert check_hadamard(rep)

    def test_all_ones_lands_in_the_printed_class(self):
        M = catalog.build_verified("O12a")
        ones = {s: 0 for s in M.symbols()}
        classes = specialize_and_classify(M, [ones], order=2)
        assert are_equivalent(classes[0].representative, butson("H12a")).equivalent

    def test_tiny_doubled_matrix_single_class(self):
        from confhad.matrices import bordered_circulant, double_orthogonal, scale_columns
        from confhad.symbolic import Monomial

        C2 = bordered_circulant([None])
        scaled = scale_columns(C2, [Monomial.symbol("a"), Monomial.symbol("b")])
        doubled = double_orthogonal(scaled)
        assignments = [{"a": x, "b": y} for x in (0, 1) for y in (0, 1)]
        classes = specialize_and_classify(doubled, assignments, order=2)
        assert len(classes) == 1 and classes[0].size == 4

    def test_rejects_non_orthogonal_input(self):
        from confhad.matrices import SymbolicMatrix

        for rows, reason in (
            ([["1", "1"], ["1", "1"]], r"fail at \(0,1\): 2 \[off-diagonal sum != 0\]"),
            ([["1", "1"], ["1", "0"]], r"fail at \(1,1\): zero cell \[not unimodular\]"),
        ):
            bad = SymbolicMatrix.from_strings(rows)
            with pytest.raises(ValueError, match=f"^matrix is not inverse orthogonal: {reason}$"):
                specialize_and_classify(bad, [{}], order=2)

    def test_rejects_non_positive_order(self):
        M = catalog.build_verified("O12a")
        ones = {s: 1 for s in M.symbols()}
        for order in (0, -4):
            with pytest.raises(ValueError, match="order"):
                specialize_and_classify(M, [ones], order=order)

    def test_in_class_members_are_pairwise_equivalent(self):
        M = catalog.build_verified("O12c")
        syms = sorted(M.symbols())
        rng = random.Random(31)
        assignments = [
            {s: rng.randint(0, 1) for s in syms} for _ in range(6)
        ]
        classes = specialize_and_classify(M, assignments, order=2)
        from confhad.matrices import eval_exact

        for cls in classes:
            for asg in cls.assignments[1:]:
                member = eval_exact(M, asg, order=2)
                assert are_equivalent(member, cls.representative).equivalent
