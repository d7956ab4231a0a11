"""Braid generator matrices: tensor action, rewriting, closed forms, words."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from braidosc import braid
from braidosc.braid import (
    BasisElement,
    GramSolveError,
    braid_relation_defect,
    build_matrices,
    closed_form_burau,
    closed_form_lkb,
    closed_form_marked_n1,
    compare_transition_formulas,
    evaluate_word,
    family_to_json,
    inverse_defect,
    lmat_eq,
    lmat_mul,
    pair_basis_change,
    reduced_burau_reference,
    sigma_weight_matrix,
    unreduced_burau,
    apply_braid_generator,
    _BlockMatrix,
    _ExactMatrix,
    _braid_closed,
    _braid_op,
    _rewrite_table,
    _swapped,
    _word_product,
)
from braidosc.oscillator import (
    BraidoscError,
    Context,
    RepLabel,
    WeightVector,
    _coproduct_terms,
    _intertwiner_terms,
    _slot_terms,
    apply_coproduct,
    apply_generator,
    apply_intertwiner,
    basis_state,
    homogeneous_context,
    marked_context,
)
from braidosc.scalars import (
    DEFAULT_TOLS, L_ONE, L_ZERO, Laurent, Tolerances, numeric_to_json, q_number,
)
from braidosc.weightspace import (
    _occupations,
    _operator_block,
    _weight_matrix,
    lowest_weight_dimension,
    lowest_weight_monomials,
    monomial_exponents,
    operator_matrix,
    weight_basis,
)


@pytest.fixture
def het2():
    return Context((RepLabel(1.3, 0.6), RepLabel(0.8, 1.1)), 0.55)


@pytest.fixture
def hctx3():
    return homogeneous_context(3, 1.1, 0.7, 0.6)


@pytest.fixture
def mctx3():
    return marked_context(3, RepLabel(1.2, 0.5), RepLabel(0.9, 1.4), 1, 0.62)


def _rel(a, b):
    return a / max(b, 1e-300)


class TestTensorAction:
    def test_vacuum_transition(self, het2):
        q = het2.q
        (ga, ca), (gb, cb) = [(l.gamma, l.c) for l in het2.labels]
        out = apply_braid_generator(1, basis_state(het2, (0, 0)))
        assert len(out.terms) == 1
        (st, co), = out.terms.items()
        assert st.occ == (0, 0)
        assert st.perm == het2.swapped_perm(het2.identity_perm(), 1)
        assert co == pytest.approx(q ** (-(ca * gb + cb * ga)), rel=1e-13)

    def test_no_transfer_coefficient(self, het2):
        # the k=0 component carries only the diagonal prefactor
        q = het2.q
        (ga, ca), (gb, cb) = [(l.gamma, l.c) for l in het2.labels]
        m, mp = 2, 1
        out = apply_braid_generator(1, basis_state(het2, (m, mp)))
        st = next(s for s in out.terms if s.occ == (mp, m))
        expect = q ** (-((m + ca) * gb + (mp + cb) * ga))
        assert out.terms[st] == pytest.approx(expect, rel=1e-12)

    def test_occupation_transfer_direction(self, het2):
        # generator moves quanta from the first slot onto the second copy
        out = apply_braid_generator(1, basis_state(het2, (2, 0)))
        occs = sorted(st.occ for st in out.terms)
        assert occs == [(0, 2), (1, 1), (2, 0)]

    def test_series_equals_closed(self, het2):
        for occ in [(0, 3), (2, 1), (3, 2)]:
            v = basis_state(het2, occ)
            a = apply_braid_generator(1, v, formula="closed")
            b = apply_braid_generator(1, v, formula="series")
            assert (a - b).norm() < 1e-12 * a.norm()

    def test_index_range(self, het2):
        with pytest.raises(ValueError):
            apply_braid_generator(2, basis_state(het2, (0, 0)))

    def test_weight_matrix_rejects_negative_level(self, het2):
        with pytest.raises(ValueError, match="N must be"):
            sigma_weight_matrix(het2, -1, 1)

    def test_weight_matrix_inverse_both_orders(self, mctx3):
        for N in (1, 2):
            F = sigma_weight_matrix(mctx3, N, 2)
            B = sigma_weight_matrix(mctx3, N, 2, inverse=True)
            eye = np.eye(F.shape[0])
            assert np.max(np.abs(F @ B - eye)) < 1e-10
            assert np.max(np.abs(B @ F - eye)) < 1e-10

    def test_series_inverse(self, het2):
        F = sigma_weight_matrix(het2, 3, 1, formula="series")
        B = sigma_weight_matrix(het2, 3, 1, formula="series", inverse=True)
        assert np.max(np.abs(F @ B - np.eye(F.shape[0]))) < 1e-10

    def test_braid_relation_on_weight_space(self, hctx3):
        S1 = sigma_weight_matrix(hctx3, 2, 1)
        S2 = sigma_weight_matrix(hctx3, 2, 2)
        lhs = S1 @ S2 @ S1
        rhs = S2 @ S1 @ S2
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(lhs))


def _multiset_weight_matrix(ctx, N, i):
    """sigma_weight_matrix with the multiset closed form, which no public call takes."""
    return _weight_matrix(lambda sectors, occ: _braid_closed(ctx, i - 1, False, "multiset", sectors, occ), ctx, N, N)


class TestTransitionVariants:
    def test_report(self, het2):
        rep = compare_transition_formulas(het2)
        assert rep["k_le_1_deviation"] < 1e-12
        assert rep["series_vs_closed_deviation"] < 1e-12
        diff = rep["first_k_ge_2_difference"]
        assert diff["input_occ"] == (2, 0)
        assert diff["k"] == 2
        # the two binomial conventions split by sqrt(3) at this element,
        # independently of the numeric draw
        assert diff["multiset"] / diff["series"] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_variants_agree_at_level_one(self, mctx3):
        for i in (1, 2):
            a = sigma_weight_matrix(mctx3, 1, i)
            b = _multiset_weight_matrix(mctx3, 1, i)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_families_have_no_binomial_knob(self, mctx3):
        with pytest.raises(TypeError):
            build_matrices(3, 1, route="direct", ctx=mctx3, binomial="multiset")
        with pytest.raises(TypeError):
            sigma_weight_matrix(mctx3, 1, 1, binomial="multiset")

    def test_variants_differ_at_higher_occupation(self, het2):
        a = sigma_weight_matrix(het2, 2, 1)
        b = _multiset_weight_matrix(het2, 2, 1)
        assert np.max(np.abs(a - b)) > 1e-3 * np.max(np.abs(a))


class TestBurau:
    @pytest.mark.parametrize("build, n", [
        (closed_form_burau, 1), (closed_form_lkb, 1), (unreduced_burau, 0), (unreduced_burau, 1),
        (reduced_burau_reference, 1),
    ])
    def test_rejects_too_few_strands(self, build, n):
        with pytest.raises(ValueError, match="n must be"):
            build(n)

    def test_reduced_reference_pinned(self):
        # md5 of every reference matrix for n = 2..8, as printed entries
        text = repr([[[str(e) for e in row] for row in M] for n in range(2, 9) for M in reduced_burau_reference(n)])
        assert hashlib.md5(text.encode()).hexdigest() == "35b83c8fbf5da7c5b1181be5a942f356"

    def test_explicit_three_strands(self):
        fam = closed_form_burau(3)
        as_str = [[[str(e) for e in row] for row in m.entries] for m in fam]
        assert as_str[0] == [["-x^2", "x"], ["0", "1"]]
        assert as_str[1] == [["1", "0"], ["x", "-x^2"]]
        assert [m.phase.to_json() for m in fam] == [
            {"exponent": "1", "factor": "1.0"},
            {"exponent": "1", "factor": "1.0"},
        ]

    def test_rewrite_matches_closed(self):
        for n in (2, 3, 4, 5):
            got = build_matrices(n, 1)
            want = closed_form_burau(n)
            for g, w in zip(got, want):
                assert lmat_eq(g.entries, w.entries)
                assert g.phase.exponent == w.phase.exponent

    def test_reference_quotient(self):
        # textbook restriction of the unreduced matrices, rescaled column
        # and row wise by x**l and reindexed, reproduces the family
        for n in (3, 4, 5):
            fam = closed_form_burau(n)
            ref = reduced_burau_reference(n)
            d = n - 1
            for k in range(1, n):
                A = ref[n - k - 1]
                want = [
                    [A[d - 1 - lp][d - 1 - l] * Laurent.x(l - lp) for l in range(d)]
                    for lp in range(d)
                ]
                assert lmat_eq(fam[k - 1].entries, want)

    def test_unreduced_block(self):
        M = unreduced_burau(3)[0]
        assert [str(e) for e in M[0]] == ["-x^2+1", "x^2", "0"]
        assert [str(e) for e in M[1]] == ["1", "0", "0"]
        assert [str(e) for e in M[2]] == ["0", "0", "1"]

    def test_exact_inverses(self):
        for n in (3, 4):
            f = closed_form_burau(n)
            b = closed_form_burau(n, inverse=True)
            assert inverse_defect(f, b) == 0.0

    def test_relations_exact(self):
        for n in (3, 4, 5):
            assert braid_relation_defect(closed_form_burau(n)) == 0.0


class TestLKB:
    def test_rewrite_matches_closed(self):
        for n in (3, 4, 5):
            got = build_matrices(n, 2)
            want = closed_form_lkb(n)
            for g, w in zip(got, want):
                assert lmat_eq(g.entries, w.entries)

    def test_printed_three_strand_matrices(self):
        # row-convention images on (w_{11}, w_{12}, w_{22}); ours is the
        # column convention, so compare against the transpose
        fam = closed_form_lkb(3)
        printed_1 = [
            ["x^4", "0", "0"],
            ["-x^3", "-x^2", "0"],
            ["x^2", "2*x", "1"],
        ]
        printed_2 = [
            ["1", "2*x", "x^2"],
            ["0", "-x^2", "-x^3"],
            ["0", "0", "x^4"],
        ]
        for mat, printed in zip(fam, (printed_1, printed_2)):
            got = [[str(mat.entries[j][i]) for j in range(3)] for i in range(3)]
            assert got == printed

    def test_relations_exact(self):
        for n in (3, 4):
            fam = closed_form_lkb(n)
            assert braid_relation_defect(fam) == 0.0
            assert inverse_defect(fam, closed_form_lkb(n, inverse=True)) == 0.0

    def test_family_dispatch(self, hctx3):
        assert [m.dimension for m in build_matrices(3, 2, route="closed_form")] == [3, 3]
        assert [m.dimension for m in build_matrices(4, 1, route="closed_form")] == [3, 3, 3]
        with pytest.raises(ValueError):
            build_matrices(3, 3, route="closed_form")


class TestMarkedLevelOne:
    def test_matches_rewrite(self, mctx3):
        closed = closed_form_marked_n1(mctx3)
        rewrite = build_matrices(3, 1, ctx=mctx3)
        for c, r in zip(closed, rewrite):
            assert c.basis == r.basis
            scale = np.max(np.abs(c.entries))
            assert np.max(np.abs(c.entries - r.entries)) < 1e-11 * scale

    def test_four_strand_case(self):
        ctx = marked_context(4, RepLabel(1.0, 0.3), RepLabel(1.6, 0.8), 3, 0.58)
        closed = closed_form_marked_n1(ctx)
        rewrite = build_matrices(4, 1, ctx=ctx)
        assert braid_relation_defect(closed) < 1e-11
        for c, r in zip(closed, rewrite):
            scale = np.max(np.abs(c.entries))
            assert np.max(np.abs(c.entries - r.entries)) < 1e-11 * scale

    def test_fixture_entries(self, mctx3):
        # pin the distinguished-column entries of the first generator
        q = mctx3.q
        labs = mctx3.labels
        base = next(l for l in labs if labs.count(l) == 2)
        marked = next(l for l in labs if labs.count(l) == 1)
        d1 = q ** (-2 * base.c * base.gamma)
        d3 = math.sqrt(q_number(base.gamma, q) / q_number(marked.gamma, q))
        x1 = q ** (-base.gamma)
        mats = closed_form_marked_n1(mctx3)
        basis = mats[0].basis
        sec3 = next(
            s for s in mctx3.distinct_sectors() if labs[s[2]] == marked
        )
        w1_row = basis.index(BasisElement(tuple(sec3), (1, 0)))
        w2_row = basis.index(BasisElement(tuple(sec3), (0, 1)))
        col_w1 = mats[0].entries[:, w1_row]
        col_w2 = mats[0].entries[:, w2_row]
        # sigma_1 leaves the marked-in-slot-3 sector alone and acts on the
        # base pair: w_1 -> -d1 x1^2 w_1, w_2 -> d1 (w_2 + x1/d3 w_1)
        assert col_w1[w1_row] == pytest.approx(-d1 * x1 ** 2, rel=1e-12)
        assert np.count_nonzero(np.abs(col_w1) > 1e-14) == 1
        assert col_w2[w1_row] == pytest.approx(d1 / d3 * x1, rel=1e-12)
        assert col_w2[w2_row] == pytest.approx(d1, rel=1e-12)
        assert np.count_nonzero(np.abs(col_w2) > 1e-14) == 2

    def test_rejects_homogeneous_labels(self, hctx3):
        with pytest.raises(ValueError):
            closed_form_marked_n1(hctx3)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_stores_one_block_per_sector(self, n):
        # one (n-1)-square block per sector, sent where the rewrite route sends it
        ctx = marked_context(n, RepLabel(1.0, 0.3), RepLabel(1.6, 0.8), 2, 0.58)
        for inverse in (False, True):
            for c, r in zip(closed_form_marked_n1(ctx, inverse), build_matrices(n, 1, ctx=ctx, inverse=inverse)):
                stored = vars(c)["entries"]
                assert stored.blocks.shape == (len(ctx.distinct_sectors()), n - 1, n - 1)
                assert np.array_equal(stored.target, vars(r)["entries"].target)


class TestRelations:
    def test_laurent_exact_grid(self):
        for n, N in [(3, 1), (3, 2), (3, 3), (4, 2)]:
            f = build_matrices(n, N)
            b = build_matrices(n, N, inverse=True)
            assert braid_relation_defect(f) == 0.0
            assert inverse_defect(f, b) == 0.0

    def test_numeric_homogeneous(self, hctx3):
        f = build_matrices(3, 3, ctx=hctx3)
        b = build_matrices(3, 3, ctx=hctx3, inverse=True)
        assert braid_relation_defect(f) < 1e-10
        assert inverse_defect(f, b) < 1e-10

    def test_numeric_marked(self, mctx3):
        f = build_matrices(3, 2, ctx=mctx3)
        b = build_matrices(3, 2, ctx=mctx3, inverse=True)
        assert braid_relation_defect(f) < 1e-10
        assert inverse_defect(f, b) < 1e-10

    @pytest.mark.parametrize("generator", [1, 2])
    def test_nan_entry_fails_both_defects(self, hctx3, generator):
        f = build_matrices(3, 1, ctx=hctx3)
        b = build_matrices(3, 1, ctx=hctx3, inverse=True)
        entries = np.array(f[generator - 1].entries)
        entries[0, 0] = np.nan
        f[generator - 1] = dataclasses.replace(f[generator - 1], entries=entries)
        for defect in (braid_relation_defect(f), inverse_defect(f, b)):
            assert type(defect) is float and math.isnan(defect)

    def test_far_commutation(self):
        fam = build_matrices(5, 1)
        A = fam[0].entries
        C = fam[3].entries
        assert lmat_eq(lmat_mul(A, C), lmat_mul(C, A))

    @pytest.mark.parametrize("n, N", [(4, 2), (5, 3)])
    def test_perturbed_exact_family_defects(self, n, N):
        f = build_matrices(n, N)
        b = build_matrices(n, N, inverse=True)
        edited = [list(row) for row in f[1].entries]
        edited[0][0] = edited[0][0] + Laurent.x(3)
        f[1] = dataclasses.replace(f[1], entries=edited)
        at = {m.generator: _at(m.entries, 0.7) for m in f}
        want = 0.0
        for i in range(1, n - 1):
            A, B = at[i], at[i + 1]
            want = max(want, np.max(np.abs(A @ B @ A - B @ A @ B)))
        for i in range(1, n):
            for j in range(i + 2, n):
                A, B = at[i], at[j]
                want = max(want, np.max(np.abs(A @ B - B @ A)))
        got = braid_relation_defect(f)
        assert want > 0.0 and got == pytest.approx(want, rel=1e-12)
        want = max(
            np.max(np.abs(at[m.generator] @ _at(m.entries, 0.7) - np.eye(m.dimension)))
            for m in b
        )
        got = inverse_defect(f, b)
        assert want > 0.0 and got == pytest.approx(want, rel=1e-12)

    def test_exact_defect_is_positive_where_sides_agree_at_sample_point(self):
        # F (G + G E) = 1 + E, and 10 x - 7 rounds to 0.0 at x = 0.7
        f = build_matrices(3, 1)
        E = [[Laurent({1: 10, 0: -7}), L_ZERO], [L_ZERO, L_ZERO]]
        bad = []
        for m in build_matrices(3, 1, inverse=True):
            GE = lmat_mul(m.entries, E)
            entries = [[a + b for a, b in zip(r, s)] for r, s in zip(m.entries, GE)]
            bad.append(dataclasses.replace(m, entries=entries))
        word, _ = evaluate_word([1, -1], f, bad)
        assert [[str(e) for e in row] for row in word] == [["10*x-6", "-10+7*x^-1"], ["0", "1"]]
        assert inverse_defect(f, bad) == 10.0

    def test_inverse_defect_rejects_bad_pairs(self):
        f = build_matrices(4, 2)
        b = build_matrices(4, 2, inverse=True)
        with pytest.raises(BraidoscError, match="phases fail to cancel"):
            inverse_defect(f, f)
        with pytest.raises(ValueError, match="mismatched generator lists"):
            inverse_defect(f, b[::-1])

    @pytest.mark.parametrize("numeric", [False, True])
    def test_inverse_defect_rejects_unequal_lengths(self, numeric):
        ctx = homogeneous_context(4, 1.0, 0.5, 0.6) if numeric else None
        f = build_matrices(4, 2, ctx=ctx)
        b = build_matrices(4, 2, ctx=ctx, inverse=True)
        for fwd, inv in ((f, b[:1]), (f[:1], b), (f, [])):
            with pytest.raises(ValueError):
                inverse_defect(fwd, inv)

    def test_mixed_stored_forms_raise_value_error(self):
        ctx = homogeneous_context(3, 1.0, 0.5, 0.6)
        exact, exact_inv = build_matrices(3, 1), build_matrices(3, 1, inverse=True)
        numeric, numeric_inv = build_matrices(3, 1, ctx=ctx), build_matrices(3, 1, ctx=ctx, inverse=True)
        with pytest.raises(ValueError, match="_ExactMatrix @ _BlockMatrix"):
            inverse_defect(exact, numeric_inv)
        with pytest.raises(ValueError, match="_ExactMatrix @ _BlockMatrix"):
            braid_relation_defect([exact[0], numeric[1]])
        with pytest.raises(ValueError, match="_BlockMatrix @ _ExactMatrix"):
            evaluate_word([1, -1], exact, numeric_inv)
        assert inverse_defect(numeric, numeric_inv) < 1e-12 and inverse_defect(exact, exact_inv) == 0.0

    def test_empty_family_is_rejected(self):
        with pytest.raises(ValueError, match="empty generator family"):
            braid_relation_defect([])
        with pytest.raises(ValueError, match="empty generator family"):
            family_to_json([])


def _at(entries, x0):
    """Laurent entries evaluated one by one at x = x0."""
    return np.array([[e(x0) for e in row] for row in entries])


def _naive_lmat_mul(A, B):
    """Triple-loop Laurent product: the reference for lmat_mul."""
    return [
        [sum((A[r][k] * B[k][c] for k in range(len(B))), L_ZERO) for c in range(len(B[0]))]
        for r in range(len(A))
    ]


@st.composite
def _laurent_matrix_pair(draw):
    """Two d x d integer Laurent matrices, many entries zero.

    For even d, about half the pairs are A = [M | -M], B = [P ; P]: every
    term of A B cancels and the product is the zero matrix.
    """
    d = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(L_ZERO),
        st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=3).map(Laurent),
    )

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    if d % 2 == 0 and draw(st.booleans()):
        M, P = matrix(d, d // 2), matrix(d // 2, d)
        return [row + [-e for e in row] for row in M], P + P
    return matrix(d, d), matrix(d, d)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(pair=_laurent_matrix_pair(), same=st.booleans())
def test_exact_algebra_matches_naive_product(pair, same):
    A, B = pair
    if same:
        B = A
    AB = lmat_mul(A, B)
    assert lmat_eq(AB, _naive_lmat_mul(A, B))
    assert lmat_eq(AB, lmat_mul(B, A)) == lmat_eq(AB, _naive_lmat_mul(B, A))
    # a two-generator family: one braid relation, 0.0 exactly when it holds
    family = [SimpleNamespace(generator=g, n=3, entries=m) for g, m in ((1, A), (2, B))]
    lhs = _naive_lmat_mul(_naive_lmat_mul(A, B), A)
    rhs = _naive_lmat_mul(_naive_lmat_mul(B, A), B)
    defect = braid_relation_defect(family)
    if lmat_eq(lhs, rhs):
        assert defect == 0.0
    else:
        at = np.max(np.abs(_at(lhs, 0.7) - _at(rhs, 0.7)))
        assert defect > 0.0
        if at:
            assert defect == pytest.approx(at, rel=1e-12)


def test_exact_algebra_cancels_across_exponents():
    # x * x**2 from one pair and 1 * (-x**3) from the other
    A = [[Laurent.x(1), L_ONE]]
    B = [[Laurent.x(2)], [Laurent.x(3, -1)]]
    assert lmat_eq(lmat_mul(A, B), [[L_ZERO]])


def test_exact_algebra_rejects_bad_input():
    with pytest.raises(TypeError, match="must be integers"):
        Laurent.x(0, Fraction(1, 2))
    row = [[L_ONE, L_ONE]]
    with pytest.raises(ValueError, match="shape mismatch"):
        lmat_mul(row, row)
    family = [SimpleNamespace(generator=g, n=3, entries=row) for g in (1, 2)]
    with pytest.raises(ValueError, match="shape mismatch"):
        braid_relation_defect(family)


def test_exact_algebra_overflow_guard():
    big = [[Laurent.x(1, 2 ** 40), L_ZERO], [L_ZERO, L_ONE]]
    with pytest.raises(OverflowError):
        lmat_mul(big, big)
    # just below the int64 bound the product is still exact
    edge = [[Laurent.x(1, 2 ** 31)]]
    assert lmat_eq(lmat_mul(edge, edge), [[Laurent.x(2, 2 ** 62)]])


def _rewrite_table_by_loop(i, exps):
    """_rewrite_table term by term, with a dict from exponents to rows."""
    pos = {powers: k for k, powers in enumerate(exps)}
    terms = []
    for col, powers in enumerate(exps):
        p = (0, *powers, 0)
        left, mid, right = p[i - 1], p[i], p[i + 1]
        for a in range(left + 1):
            for b in range(right + 1):
                image = (*p[:i - 1], a, mid + left - a + right - b, b, *p[i + 2:])
                mult = math.comb(left, a) * math.comb(right, b)
                terms.append((pos[image[1:-1]], col, mid, a, left - a, b, right - b, mult))
    table = np.array(terms, np.int64).T
    return table[0], table[1], table[2:7], table[7]


@pytest.mark.parametrize("n", range(2, 9))
def test_rewrite_table_ranks_images_like_a_lookup(n):
    for N in range(6):
        exps = monomial_exponents(n, N)
        for i in range(1, n):
            got, want = _rewrite_table(i, exps), _rewrite_table_by_loop(i, exps)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w), (n, N, i)


@pytest.mark.parametrize("n", [68, 70])
def test_many_slots_rewrite_on_both_backends(n):
    # C(n, n // 2) > 2**63: ranking the images may use no binomial above the level size
    exact = build_matrices(n, 1)
    numeric = build_matrices(n, 1, ctx=homogeneous_context(n, 1.0, 0.5, 0.6))
    for e, m in zip(exact, numeric):
        assert e.phase == m.phase
        assert np.max(np.abs(e.entries.at(0.6 ** -1.0) - m.entries)) < 1e-12


def test_many_slots_direct_matches_rewrite():
    # (N + 1)**(n - 1) = 2**63: a row's integer code in base N + 1 would not fit int64
    ctx = homogeneous_context(64, 1.0, 0.5, 0.6)
    for a, b in zip(build_matrices(64, 1, route="direct", ctx=ctx), build_matrices(64, 1, ctx=ctx)):
        assert np.max(np.abs(a.entries - b.entries)) <= DEFAULT_TOLS.route_match * np.max(np.abs(b.entries))


def _direct_by_sector(ctx, N, monomials, inverse, formula):
    """The direct route one sector at a time, the reference for the batched
    build: each sector's own monomial basis, operator block and Gram solve."""
    sectors = ctx.distinct_sectors()
    number = {sec: k for k, sec in enumerate(sectors)}
    d = lowest_weight_dimension(ctx.n, N)
    rows = _occupations(N, ctx.n)
    lab = ctx.labels[0]
    common = ctx.qpow(-2 * lab.c * lab.gamma, inverse) if ctx.is_homogeneous() else 1.0
    family = []
    for i in range(1, ctx.n):
        entries = np.zeros((len(sectors) * d,) * 2)
        for k, sec in enumerate(sectors):
            (target,), (block,) = _operator_block(_braid_op(ctx, i, inverse, formula), np.array([sec]), rows, rows)
            target = tuple(target.tolist())
            V, tV, tgram = monomials[sec].blocks[0], monomials[target].blocks[0], monomials[target].gram
            image = block @ V
            coeffs = np.linalg.solve(tgram, tV.T @ image)
            coeffs += np.linalg.solve(tgram, tV.T @ (image - tV @ coeffs))
            r0 = number[target] * d
            entries[r0:r0 + d, k * d:(k + 1) * d] = coeffs / common
        family.append(entries)
    return family


def _label_kinds(n, q):
    base, other = RepLabel(0.9, 0.4), RepLabel(1.6, 1.1)
    yield homogeneous_context(n, base.gamma, base.c, q)
    yield marked_context(n, base, other, n // 2 + 1, 1 / q)
    yield Context([RepLabel(0.6 + 0.25 * k, 0.3 + 0.2 * k) for k in range(n)], q)


@pytest.mark.parametrize("n", range(2, 6))
def test_swap_of_the_stack_matches_swapped_perm(n):
    values = [RepLabel(1.0, 0.5), RepLabel(1.4, 0.2), RepLabel(0.8, 0.9)]
    for pattern in itertools.product(range(3), repeat=n):
        ctx = Context([values[v] for v in pattern], 0.6)
        sectors = ctx.distinct_sectors()
        for g in range(n - 1):
            want = [ctx.swapped_perm(sec, g + 1) for sec in sectors]
            assert list(map(tuple, _swapped(ctx, np.array(sectors), g).tolist())) == want, (pattern, g)


def test_builds_and_checks_leave_the_context_unchanged():
    a, b = RepLabel(1.0, 0.5), RepLabel(1.4, 0.2)
    ctx = Context([a, b, a], 0.6)
    before = copy.deepcopy(vars(ctx))
    for route in ("rewrite", "direct"):
        fwd = build_matrices(3, 1, route=route, ctx=ctx)
        inv = build_matrices(3, 1, route=route, ctx=ctx, inverse=True)
        evaluate_word([1, -2, 1], fwd, inv)
        braid_relation_defect(fwd)
        inverse_defect(fwd, inv)
    assert vars(ctx).keys() == before.keys()
    for key, value in before.items():
        now = vars(ctx)[key]
        assert np.array_equal(now, value) if isinstance(value, np.ndarray) else now == value, key


@pytest.mark.parametrize("n", range(2, 6))
def test_direct_route_matches_per_sector_loop(n):
    """Batched sectors give the one-sector loop's entries to rounding level."""
    for ctx in _label_kinds(n, 0.65):
        for N in range(4):
            monomials = {sec: lowest_weight_monomials(ctx, N, sec) for sec in ctx.distinct_sectors()}
            for inverse in (False, True):
                for formula in ("closed", "series"):
                    got = build_matrices(n, N, route="direct", ctx=ctx, inverse=inverse, formula=formula)
                    want = _direct_by_sector(ctx, N, monomials, inverse, formula)
                    for g, w in zip(got, want, strict=True):
                        assert np.max(np.abs(g.entries - w)) <= 1e-14 * np.max(np.abs(w)), (n, N, inverse, formula)


@pytest.mark.parametrize("n", range(2, 5))
def test_sigma_weight_matrix_matches_per_sector_loop(n):
    """One call over every sector places each sector's block exactly as one
    call per sector does."""
    for ctx in _label_kinds(n, 1.4):
        sectors = ctx.distinct_sectors()
        number = {sec: k for k, sec in enumerate(sectors)}
        for N in range(3):
            rows = _occupations(N, n)
            D = len(rows)
            for i in range(1, n):
                for inverse in (False, True):
                    for formula in ("closed", "series"):
                        op = _braid_op(ctx, i, inverse, formula)
                        want = np.zeros((len(sectors) * D,) * 2)
                        for k, sec in enumerate(sectors):
                            (target,), (block,) = _operator_block(op, np.array([sec]), rows, rows)
                            r0 = number[tuple(target.tolist())] * D
                            want[r0:r0 + D, k * D:(k + 1) * D] = block
                        got = sigma_weight_matrix(ctx, N, i, inverse=inverse, formula=formula)
                        assert np.array_equal(got, want), (n, N, i, inverse, formula)


def _rewrite_by_sector(ctx, N, inverse, renormalize):
    """The numeric rewrite one sector at a time, the reference for the
    stacked build: each sector's own swap, exchange factors, power table
    and vacuum factor, placed by sector-major index arithmetic."""
    n = ctx.n
    sectors = ctx.distinct_sectors()
    number = {sec: k for k, sec in enumerate(sectors)}
    exps = monomial_exponents(n, N)
    d = len(exps)
    family = []
    for i in range(1, n):
        row, col, counts, mult = _rewrite_table(i, exps)
        entries = np.zeros((len(sectors) * d,) * 2)
        for s, sec in enumerate(sectors):
            new_sec = ctx.swapped_perm(sec, i)
            xi, xi1 = (ctx.qpow(-ctx.labels[new_sec[k]].gamma, inverse) for k in (i - 1, i))
            g = (1.0, *(ctx.sqrt_qn[rep] for rep in new_sec), 1.0)
            factors = (-xi * xi1, g[i + 1] / g[i], g[i - 1] * xi / g[i], g[i] / g[i + 1], xi1 * g[i + 2] / g[i + 1])
            table = np.array([[f ** c for c in range(N + 1)] for f in factors])
            la, lb = ctx.labels[sec[i - 1]], ctx.labels[sec[i]]
            vacuum = 1.0 if renormalize else ctx.qpow(-(la.c * lb.gamma + lb.c * la.gamma), inverse)
            value = mult * math.prod(table[k, counts[k]] for k in range(5)) * vacuum
            entries[number[new_sec] * d + row, s * d + col] = value
        family.append(entries)
    return family


@pytest.mark.parametrize("n", range(2, 6))
def test_numeric_rewrite_matches_per_sector_loop(n):
    """The stacked numeric rewrite writes the one-sector loop's entries bit for bit."""
    for q in (0.4, 0.8, 1.3, 2.5):
        for ctx in _label_kinds(n, q):
            for N in range(4):
                for inverse in (False, True):
                    got = build_matrices(n, N, ctx=ctx, inverse=inverse)
                    want = _rewrite_by_sector(ctx, N, inverse, ctx.is_homogeneous())
                    for g, w in zip(got, want, strict=True):
                        assert g.entries.tobytes() == w.tobytes(), (n, N, q, ctx.labels, inverse)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    N=st.integers(0, 2),
    q=st.one_of(st.floats(0.5, 0.8), st.floats(1.25, 2.0)),
    labels=st.lists(st.builds(RepLabel, st.floats(0.5, 2.0), st.floats(0.2, 1.5)), min_size=4, max_size=4),
    inverse=st.booleans(),
)
def test_direct_matches_rewrite_all_distinct(n, N, q, labels, inverse):
    """All-distinct labels on both sides of q = 1: the direct route, batched
    over n! sectors, agrees with the rewrite route within route_match."""
    assume(len(set(labels[:n])) == n)
    ctx = Context(labels[:n], q)
    direct = build_matrices(n, N, route="direct", ctx=ctx, inverse=inverse)
    rewrite = build_matrices(n, N, route="rewrite", ctx=ctx, inverse=inverse)
    for a, b in zip(direct, rewrite, strict=True):
        assert a.basis == b.basis
        assert np.max(np.abs(a.entries - b.entries)) <= DEFAULT_TOLS.route_match * np.max(np.abs(b.entries))


class TestExactStorage:
    """Exact entries are the stored triplets, read as Laurent rows."""

    @staticmethod
    def _families():
        for n in range(2, 7):
            for N in range(5):
                for inverse in (False, True):
                    yield build_matrices(n, N, inverse=inverse)

    def test_entries_are_the_stored_matrix(self):
        for fam in self._families():
            for m in fam:
                assert m.entries is vars(m)["entries"] and isinstance(m.entries, _ExactMatrix)
                assert dataclasses.replace(m).entries is vars(m)["entries"]
        # another type is unequal, not an error
        for other in (3, None, "x", {}):
            assert (m.entries == other) is False and (m.entries != other) is True

    def test_rows_reject_item_assignment(self):
        m = build_matrices(3, 2)[0]
        with pytest.raises(TypeError):
            m.entries[0][0] = L_ONE
        with pytest.raises(TypeError):
            m.entries[0] = [L_ONE] * m.dimension
        # a one-letter word is the generator's stored matrix itself
        word, _ = evaluate_word([1], [m], None)
        with pytest.raises(ValueError):
            word.v[0] = 5

    def test_view_matches_stored_matrix(self):
        for fam in self._families():
            for m in fam:
                lists = m.entries.to_laurent()
                assert m.entries == lists and lists == m.entries
                assert lmat_eq(lists, m.entries)
                assert _ExactMatrix.from_laurent(m.entries) == m.entries
                assert repr(m.entries) == repr(lists)
                assert m.entries_json() == [[e.to_json() for e in row] for row in lists]

    def test_rows_are_read_on_demand(self):
        for fam in self._families():
            for m in fam:
                rows, d = m.entries.to_laurent(), m.dimension
                assert [list(row) for row in m.entries] == rows
                assert [list(m.entries[i]) for i in range(d)] == rows
                assert list(m.entries[-1]) == rows[-1] and list(m.entries[-d]) == rows[0]
                assert [list(row) for row in m.entries[1:3]] == rows[1:3]
                assert [list(row) for row in m.entries[::-2]] == rows[::-2]
                for i in (d, -d - 1):
                    with pytest.raises(IndexError):
                        m.entries[i]
                with pytest.raises(TypeError):
                    m.entries[0] = rows[0]

    def test_reading_rows_keeps_nothing(self):
        # exact (8,4), d = 210: rows kept after the read would hold 3.2 MB
        fam = build_matrices(8, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in fam:
                for row in m.entries:
                    assert len(row) == 210
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.25 * 2 ** 20

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        raw=st.lists(st.tuples(*[st.integers(-3, 3)] * 4), max_size=30),
    )
    def test_constructor_sums_and_sorts_terms(self, shape, raw):
        """Duplicate keys are summed and zeros dropped; the triplets run
        strictly increasing in (r, c, k) and keep the matrix's value."""
        terms = [(k, r % shape[0], c % shape[1], v) for k, r, c, v in raw]
        m = _ExactMatrix(shape, *np.array(terms, np.int64).reshape(-1, 4).T)
        keys = list(zip(m.r.tolist(), m.c.tolist(), m.k.tolist()))
        assert all(a < b for a, b in zip(keys, keys[1:])) and np.all(m.v != 0)
        for x in (2.0, 0.5, -1.0):
            dense = np.zeros(shape)
            for k, r, c, v in terms:
                dense[r, c] += v * x ** k
            assert np.array_equal(m.at(x), dense)

    @staticmethod
    def _forbid_rows(monkeypatch):
        def no_rows(self, rows):
            raise AssertionError("built Laurent rows")

        monkeypatch.setattr(_ExactMatrix, "_rows", no_rows)

    def test_checks_and_export_read_triplets(self, monkeypatch):
        f = build_matrices(4, 2)
        b = build_matrices(4, 2, inverse=True)
        assert f[0].entries != [list(row) for row in f[1].entries]
        # no check, comparison or export builds a Laurent row
        self._forbid_rows(monkeypatch)
        assert lmat_eq(f[0].entries, dataclasses.replace(f[0]).entries)
        assert not lmat_eq(f[0].entries, f[1].entries)
        assert braid_relation_defect(f) == inverse_defect(f, b) == 0.0
        family_to_json(f)

    @pytest.mark.parametrize("rebuild", [
        lambda m, lists: dataclasses.replace(m, entries=lists),
        lambda m, lists: type(m)(**{**m.__dict__, "entries": lists}),
    ])
    def test_constructor_converts_lists(self, rebuild):
        f = build_matrices(4, 2)
        b = build_matrices(4, 2, inverse=True)
        lists = [list(row) for row in f[0].entries]
        lists[1][0] = lists[1][0] + Laurent.x(-2, 3)
        edited = rebuild(f[0], lists)
        assert edited.entries == lists and edited.entries != f[0].entries
        assert edited.entries == _ExactMatrix.from_laurent(lists)
        assert edited.to_json()["entries"][1][0] == lists[1][0].to_json()
        assert braid_relation_defect(f) == inverse_defect(f, b) == 0.0
        assert braid_relation_defect([edited] + f[1:]) > 0.0
        assert inverse_defect([edited] + f[1:], b) > 0.0

    def test_metadata_copy_keeps_the_stored_form(self, monkeypatch):
        f = build_matrices(4, 2)
        stored = vars(f[1])["entries"]
        self._forbid_rows(monkeypatch)
        copy = dataclasses.replace(f[1], route="copy", entries=stored)
        assert vars(copy)["entries"] is stored
        assert braid_relation_defect([f[0], copy, *f[2:]]) == braid_relation_defect(f) == 0.0

    def test_closed_forms_are_stored_like_the_rewrite(self):
        for closed, N in ((closed_form_burau, 1), (closed_form_lkb, 2)):
            for g, w in zip(build_matrices(5, N), closed(5)):
                assert g.entries == w.entries

    def test_word_product_is_the_stored_form_of_evaluate_word(self):
        f = build_matrices(4, 2)
        b = build_matrices(4, 2, inverse=True)
        letters = {m.generator * (-1 if m.inverse else 1): m.entries.to_laurent() for m in f + b}
        for word in ([], [2], [1, -3, 2, 2]):
            total, phase = _word_product(word, f, b)
            got, same_phase = evaluate_word(word, f, b)
            assert isinstance(got, _ExactMatrix) and got == total
            # the nested lists, multiplied letter by letter
            lists = [[L_ONE if r == c else L_ZERO for c in range(f[0].dimension)] for r in range(f[0].dimension)]
            for letter in word:
                lists = _naive_lmat_mul(letters[letter], lists)
            assert got.to_laurent() == lists
            assert phase == same_phase

    def test_words_and_products_print_as_pinned(self):
        # md5 of the str of every entry, pinned when words and products were nested lists
        digest = hashlib.md5()
        for n in (3, 4, 5):
            for N in (1, 2, 3):
                f, b = build_matrices(n, N), build_matrices(n, N, inverse=True)
                words = ([], [1], [1, -2, 1, 2], [-(n - 1), 1, 1, n - 1], list(range(1, n)) * 2)
                totals = [evaluate_word(w, f, b)[0] for w in words]
                products = [lmat_mul(x.entries, y.entries) for x in f for y in b]
                products.append(lmat_mul(f[0].entries.to_laurent(), totals[-1]))
                for rows in totals + products:
                    digest.update(("\n".join(" ".join(map(str, row)) for row in rows) + "\n\n").encode())
        assert digest.hexdigest() == "4c8f9a237eed138ec103f7cc30e210de"


def _distinct_pair(route):
    """Forward and inverse all-distinct (4,2) families: 24 sectors of 6."""
    ctx = Context([RepLabel(0.7, 0.4), RepLabel(1.0, 0.9), RepLabel(1.4, 0.5), RepLabel(1.8, 1.2)], 0.6)
    return [build_matrices(4, 2, route=route, ctx=ctx, inverse=inverse) for inverse in (False, True)]


class TestNumericStorage:
    """Numeric entries are a read-only view of the stored sector blocks."""

    @pytest.mark.parametrize("route", ["rewrite", "direct"])
    def test_array_rejects_writes(self, route):
        fwd, _ = _distinct_pair(route)
        m = fwd[0]
        # the stored blocks are the only field behind entries
        assert set(vars(m)) == {f.name for f in dataclasses.fields(m)}
        assert isinstance(vars(m)["entries"], _BlockMatrix) and len(vars(m)["entries"].target) == 24
        # each multi-sector read is a new read-only array with the same bytes
        first, second = m.entries, m.entries
        assert first.shape == (144, 144) and first.tobytes() == second.tobytes()
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, second)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.entries[:] = 0.0

    @pytest.mark.parametrize("route", ["rewrite", "direct"])
    @pytest.mark.parametrize("rebuild", [
        lambda m, array: dataclasses.replace(m, entries=array),
        lambda m, array: type(m)(**{**m.__dict__, "entries": array}),
    ])
    def test_constructor_copies_arrays(self, route, rebuild):
        fwd, inv = _distinct_pair(route)
        edited = np.array(fwd[1].entries)
        edited[_off_block_row(edited, 6, 0), 0] = 0.5 * np.max(np.abs(edited))
        zero = np.flatnonzero(edited[:, 1] == 0)[0]
        edited[zero, 1] = -0.0
        given = edited.tobytes()
        fam = [fwd[0], rebuild(fwd[1], edited), *fwd[2:]]
        edited[:] = 7.0
        # a copy, stored as one dense block
        assert fam[1].entries.tobytes() == given and len(vars(fam[1])["entries"].target) == 1
        want, slack = _dense_relation_defect([m.entries for m in fam])
        assert want > 1e-3 and abs(braid_relation_defect(fam) - want) <= slack
        want = max(np.max(np.abs(f.entries @ b.entries - np.eye(144))) for f, b in zip(fam, inv))
        assert want > 1e-3 and inverse_defect(fam, inv) == pytest.approx(want, rel=1e-12)
        word = [2, 1, -2]
        total, _ = evaluate_word(word, fam, inv)
        _assert_rounding_level(total, *_dense_word(word, fam, inv))
        assert evaluate_word([2], fam, inv)[0].tobytes() == given
        js = family_to_json(fam)["matrices"][1]["entries"]
        assert js == [[numeric_to_json(v) for v in row] for row in fam[1].entries] and js[zero][1] == "-0.0"

    @pytest.mark.parametrize("route", ["rewrite", "direct"])
    def test_words_are_new_arrays(self, route, mctx3, hctx3):
        for ctx in (mctx3, hctx3):
            fwd = build_matrices(3, 2, route=route, ctx=ctx)
            for word in ([], [1], [1, 2]):
                total, _ = evaluate_word(word, fwd, None)
                assert total.flags.writeable
                assert not any(np.shares_memory(total, vars(m)["entries"].blocks) for m in fwd)

    @pytest.mark.parametrize("route", ["rewrite", "direct"])
    def test_one_sector_read_is_the_block(self, route, hctx3, mctx3):
        # a homogeneous family, and arrays given to the constructor
        marked = build_matrices(3, 2, route=route, ctx=mctx3)
        given = [dataclasses.replace(m, entries=np.array(m.entries)) for m in marked]
        for m in build_matrices(3, 2, route=route, ctx=hctx3) + given:
            stored = vars(m)["entries"]
            before = stored.blocks.tobytes()
            read = m.entries
            assert len(stored.target) == 1 and np.shares_memory(read, stored.blocks)
            with pytest.raises(ValueError):
                read.flags.writeable = True
            with pytest.raises(ValueError):
                read[0, 0] = 1.0
            assert stored.blocks.tobytes() == before == m.entries.tobytes()

    def test_reading_entries_keeps_nothing(self):
        # all-distinct (4,2): a kept dense read would hold 162 kB per generator
        fwd, _ = _distinct_pair("rewrite")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in fwd:
                assert m.entries.shape == (144, 144)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 0.1 * 2 ** 20

    @staticmethod
    def _forbid_views(monkeypatch):
        def no_view(self):
            raise AssertionError("built a dense view")

        monkeypatch.setattr(_BlockMatrix, "view", no_view)

    @pytest.mark.parametrize("route", ["rewrite", "direct"])
    def test_metadata_copy_keeps_the_stored_form(self, route, monkeypatch):
        fwd, _ = _distinct_pair(route)
        stored = vars(fwd[1])["entries"]
        want = braid_relation_defect(fwd)
        self._forbid_views(monkeypatch)
        copy = dataclasses.replace(fwd[1], solve_residual=None, entries=stored)
        assert vars(copy)["entries"] is stored
        assert braid_relation_defect([fwd[0], copy, *fwd[2:]]) == want

    def test_checks_read_blocks(self, monkeypatch):
        # all-distinct (5,3): dense entries would be 46 MB per generator
        ctx = Context([RepLabel(0.6 + 0.2 * k, 0.3 + 0.25 * k) for k in range(5)], 0.7)
        self._forbid_views(monkeypatch)
        for route in ("rewrite", "direct"):
            tracemalloc.start()
            try:
                fwd, inv = (build_matrices(5, 3, route=route, ctx=ctx, inverse=inverse) for inverse in (False, True))
                assert braid_relation_defect(fwd) < 1e-12 and inverse_defect(fwd, inv) < 1e-12
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert fwd[0].dimension == 2400 and peak < 32 * 2 ** 20


class TestRoutes:
    def test_rewrite_vs_direct(self, hctx3, mctx3):
        for ctx in (hctx3, mctx3):
            for N in (1, 2):
                rw = build_matrices(3, N, route="rewrite", ctx=ctx)
                dr = build_matrices(3, N, route="direct", ctx=ctx)
                for a, b in zip(rw, dr):
                    assert a.basis == b.basis and a.phase == b.phase
                    scale = np.max(np.abs(a.entries))
                    assert np.max(np.abs(a.entries - b.entries)) < 1e-9 * scale

    def test_exact_rewrite_pinned(self):
        # md5 of every exact rewrite family for n = 2..6, N = 0..4, both directions
        text = repr([
            [[str(e) for e in row] for row in m.entries]
            for n in range(2, 7)
            for N in range(5)
            for inverse in (False, True)
            for m in build_matrices(n, N, inverse=inverse)
        ])
        assert hashlib.md5(text.encode()).hexdigest() == "057dce44e55183fc580c33d2f3af60d6"

    def test_numeric_rewrite_pinned(self):
        # md5 of every numeric rewrite family's float64 bytes for n = 2..5, N = 0..3,
        # homogeneous, marked and all-distinct labels, both directions
        digest = hashlib.md5()
        for n in range(2, 6):
            for ctx in _label_kinds(n, 0.65):
                for N in range(4):
                    for inverse in (False, True):
                        for m in build_matrices(n, N, ctx=ctx, inverse=inverse):
                            digest.update(m.entries.tobytes())
        assert digest.hexdigest() == "97262a281f4c6378fd3fd6935c43c8ec"

    def test_every_family_pinned(self):
        # md5 of each family's fields, basis, wire form and entries on n = 2..4, N = 0..2,
        # both directions: exact rewrite, Burau and LKB, and on homogeneous, marked and
        # all-distinct labels at two q the numeric rewrite, direct and marked closed form
        def families(n, N, inverse):
            yield build_matrices(n, N, inverse=inverse)
            if N in (1, 2):
                yield build_matrices(n, N, route="closed_form", inverse=inverse)
            for q in (0.4, 1.3):
                hom, marked, distinct = _label_kinds(n, q)
                for ctx in (hom, marked, distinct):
                    yield build_matrices(n, N, ctx=ctx, inverse=inverse)
                    yield build_matrices(n, N, route="direct", ctx=ctx, inverse=inverse)
                if N == 1:
                    yield build_matrices(n, N, route="closed_form", ctx=marked, inverse=inverse)

        fields = ("generator", "inverse", "n", "N", "route", "backend", "phase", "q", "labels", "solve_residual")
        digest = hashlib.md5()
        for n, N, inverse in itertools.product(range(2, 5), range(3), (False, True)):
            for mats in families(n, N, inverse):
                for m in mats:
                    entries = m.entries
                    digest.update(repr([getattr(m, f) for f in fields] + [m.basis]).encode())
                    digest.update(entries.tobytes() if isinstance(entries, np.ndarray) else repr(entries).encode())
                digest.update(json.dumps(family_to_json(mats), sort_keys=True).encode())
        assert digest.hexdigest() == "00d7514c437e7b265175469b099f2b62"

    def test_direct_series_formula(self, mctx3):
        rw = build_matrices(3, 2, route="rewrite", ctx=mctx3)
        dr = build_matrices(3, 2, route="direct", ctx=mctx3, formula="series")
        for a, b in zip(rw, dr):
            scale = np.max(np.abs(a.entries))
            assert np.max(np.abs(a.entries - b.entries)) < 1e-9 * scale

    def test_direct_records_residual(self, hctx3):
        dr = build_matrices(3, 2, route="direct", ctx=hctx3)
        for m in dr:
            assert m.solve_residual is not None
            assert m.solve_residual < 1e-10

    def test_direct_refinement_on_verify_seed_family(self):
        """Marked (5,3) at q = 0.341, the worst series-route family drawn by
        ``verify --seed 672296719``: its relation defect was 3.19e-9 before
        the direct route refined its Gram solve."""
        base = RepLabel(0.6190364497722707, 2.417648358400162)
        marked = RepLabel(2.4502073193101666, 0.2512439274232859)
        ctx = Context((base,) * 4 + (marked,), 0.3410150902087009)
        mats = build_matrices(5, 3, route="direct", ctx=ctx, formula="series")
        assert braid_relation_defect(mats) < DEFAULT_TOLS.braid_residual

    def test_direct_rejects_span_residual(self, mctx3):
        with pytest.raises(GramSolveError, match="leaves the lowest-weight span"):
            build_matrices(3, 2, route="direct", ctx=mctx3, tols=Tolerances(span_residual=-1.0))

    def test_direct_rejects_nan_solve(self, mctx3, monkeypatch):
        def poisoned(*args):
            targets, blocks = _operator_block(*args)
            blocks = blocks.copy()
            blocks[0, 0, 0] = np.nan
            return targets, blocks

        monkeypatch.setattr(braid, "_operator_block", poisoned)
        with pytest.raises(GramSolveError, match="residual nan"):
            build_matrices(3, 2, route="direct", ctx=mctx3)

    @pytest.mark.parametrize("tols, match", [
        (Tolerances(span_residual=-1.0), r"generator 1, sector \(\d, \d, \d\), monomial \(\d, \d\)"),
        (Tolerances(kernel_residual=-1.0), r"monomial \(\d, \d\) of sector \(\d, \d, \d\) not annihilated"),
        (Tolerances(sv_cutoff=1.0), r"Gram matrix of sector \(\d, \d, \d\) is numerically singular"),
    ])
    def test_direct_failures_name_the_sector(self, mctx3, tols, match):
        with pytest.raises(BraidoscError, match=match):
            build_matrices(3, 2, route="direct", ctx=mctx3, tols=tols)

    def test_closed_form_route(self):
        cf = build_matrices(4, 1, route="closed_form")
        rw = build_matrices(4, 1, route="rewrite")
        for a, b in zip(cf, rw):
            assert lmat_eq(a.entries, b.entries)

    def test_renormalize_moves_phase(self, hctx3):
        # homogeneous labels keep the vacuum factor in the phase; the physical
        # matrix is the one-sector loop's with the factor in the entries
        lab = hctx3.labels[0]
        for inverse in (False, True):
            kept = build_matrices(3, 1, ctx=hctx3, inverse=inverse)
            baked = _rewrite_by_sector(hctx3, 1, inverse, renormalize=False)
            for a, b in zip(kept, baked, strict=True):
                assert a.phase.exponent != 0
                factor = a.phase.value(hctx3.q, lab.gamma, lab.c)
                assert np.max(np.abs(factor * a.entries - b)) < 1e-13

    def test_laurent_requires_homogeneous(self, mctx3):
        with pytest.raises(Exception):
            build_matrices(3, 1, backend="laurent", ctx=mctx3)

    @pytest.mark.parametrize("numeric", [False, True])
    @pytest.mark.parametrize("n, N", [(1, 1), (0, 0), (3, -1), (3.0, 1), (3, 1.5), (True, 1)])
    def test_rejects_bad_sizes(self, n, N, numeric):
        ctx = homogeneous_context(max(int(n), 1), 1.0, 0.5, 0.6) if numeric else None
        with pytest.raises(ValueError, match="must be"):
            build_matrices(n, N, ctx=ctx)

    @pytest.mark.parametrize("route, backend", [
        ("rewrite", "laurent"), ("closed_form", "laurent"),
        ("rewrite", "numeric"), ("direct", "numeric"), ("closed_form", "numeric"),
    ])
    def test_rejects_unknown_formula_on_every_route(self, route, backend):
        ctx = homogeneous_context(3, 1.0, 0.5, 0.6) if backend == "numeric" else None
        with pytest.raises(ValueError, match="formula must be"):
            build_matrices(3, 1, route=route, backend=backend, ctx=ctx, formula="bogus")

    @pytest.mark.parametrize("call, match", [
        (lambda: build_matrices(3, 1, backend="bogus", ctx=homogeneous_context(3, 1.0, 0.5, 0.6)),
         "backend must be"),
        (lambda: build_matrices(3, 1, backend="bogus"), "backend must be"),
        (lambda: evaluate_word([], [], None), "empty generator family"),
        (lambda: build_matrices(3, 1, route="closed_form", ctx=homogeneous_context(3, 1.0, 0.5, 0.6)),
         "closed forms are exact"),
        (lambda: build_matrices(3, 1, backend="laurent", ctx=homogeneous_context(4, 1.0, 0.5, 0.6)),
         "n does not match the context: n = 3, 4 labels"),
        (lambda: build_matrices(3, 1, backend="laurent", route="direct"),
         "exact backend supports the rewrite or closed_form route"),
        (lambda: build_matrices(3, 1, backend="numeric"), "numeric backend requires a context"),
        (lambda: build_matrices(3, 1, route="bogus", ctx=homogeneous_context(3, 1.0, 0.5, 0.6)),
         "unknown route 'bogus'"),
        (lambda: compare_transition_formulas(homogeneous_context(3, 1.0, 0.5, 0.6)),
         "transition comparison uses a two-slot context"),
        (lambda: build_matrices(3, 1, route="rewrite", ctx=homogeneous_context(3, 1.0, 0.5, 0.6), formula="series"),
         "the 'rewrite' route ignores it"),
        (lambda: build_matrices(3, 1, formula="series"), "the 'rewrite' route ignores it"),
        (lambda: build_matrices(3, 1, route="closed_form", formula="series"), "the 'closed_form' route ignores it"),
        (lambda: build_matrices(3, 1, route="closed_form", formula="series",
                                ctx=marked_context(3, RepLabel(1.0, 0.5), RepLabel(1.5, 0.8), 1, 0.6)),
         "the 'closed_form' route ignores it"),
        (lambda: braid_relation_defect(build_matrices(3, 1)[:1]),
         r"a family lists generators 1 \.\. 2 once each, got \[1\]"),
        (lambda: braid_relation_defect([build_matrices(3, 1)[0]] * 2),
         r"a family lists generators 1 \.\. 2 once each, got \[1, 1\]"),
    ], ids=["backend-with-context", "backend-without-context", "word-on-empty-family",
            "numeric-homogeneous-closed-form", "exact-context-of-other-n", "exact-direct-route",
            "numeric-without-context", "unknown-route", "transition-comparison-on-three-slots",
            "series-on-numeric-rewrite", "series-on-exact-rewrite", "series-on-exact-closed-form",
            "series-on-marked-closed-form", "relations-on-missing-generator", "relations-on-repeated-generator"])
    def test_rejects_invalid_input(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_generator_rejects_unknown_variant(self, het2):
        empty = WeightVector(het2)
        with pytest.raises(ValueError, match="must be"):
            apply_braid_generator(1, empty, formula="bogus")
        with pytest.raises(ValueError, match="must be"):
            sigma_weight_matrix(het2, 1, 1, formula="bogus")


@st.composite
def _numeric_contexts(draw, n_max=5, distinct_max=4, gap=1e-3):
    """Homogeneous, one-marked or all-distinct labels, q on either side of 1
    and at least ``gap`` from it."""
    n = draw(st.integers(2, n_max))
    # all-distinct labels give n! sectors; n = 5 would dominate the run time
    kind = draw(st.sampled_from(["homogeneous", "marked", "distinct"][: 3 if n <= distinct_max else 2]))
    # symmetric under q -> 1/q, as the inverse family is built too; below
    # q = 0.2 (above 5) the direct route's own span and Gram checks start to
    # refuse level-3 families, whose images cancel to 1e-9 of their terms.
    # Context refuses q = 1, and test_routes_hold_near_q_one pins the band
    # within 1e-3 of it
    q = draw(st.one_of(st.floats(0.2, 1 - gap), st.floats(1 + gap, 5.0)))
    label = st.builds(RepLabel, st.floats(0.5, 2.0), st.floats(0.2, 1.5))
    if kind == "distinct":
        labels = [draw(label) for _ in range(n)]
    else:
        labels = [draw(label)] * n
        if kind == "marked":
            labels[draw(st.integers(0, n - 1))] = draw(label)
    return Context(labels, q)


def _assert_rounding_level(lhs, rhs, factors):
    """lhs == rhs up to the rounding of a product of the given factors.

    The residual is scaled by the Frobenius norms of the factors, not by
    the size of the product: entries of one family can span many orders
    of magnitude, so a fixed relative threshold is not scale-free.
    """
    scale = math.prod(np.linalg.norm(f) for f in factors)
    bound = 10 * len(factors) * lhs.shape[0] * np.finfo(float).eps
    assert np.linalg.norm(lhs - rhs) <= bound * scale


@pytest.mark.parametrize("q", [0.999, 1.001, 1 - 1e-6, 1 + 1e-9])
@pytest.mark.parametrize("kind", [0, 1, 2], ids=["homogeneous", "marked", "distinct"])
def test_routes_hold_near_q_one(q, kind):
    """Within 1e-3 of q = 1, where the property tests draw nothing: both routes
    keep the relations and inverses, and agree."""
    ctx = list(_label_kinds(4, q))[kind]
    families = []
    for route in ("rewrite", "direct"):
        fwd, inv = (build_matrices(4, 3, route=route, ctx=ctx, inverse=inverse) for inverse in (False, True))
        assert max(braid_relation_defect(fwd), braid_relation_defect(inv)) <= DEFAULT_TOLS.braid_residual
        assert inverse_defect(fwd, inv) <= DEFAULT_TOLS.braid_residual
        families.append(fwd + inv)
    for a, b in zip(*families):
        assert a.basis == b.basis and a.phase == b.phase
        assert np.max(np.abs(a.entries - b.entries)) <= DEFAULT_TOLS.route_match * np.max(np.abs(a.entries))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ctx=_numeric_contexts(), N=st.integers(0, 3))
def test_routes_agree_on_both_sides_of_q_one(ctx, N):
    families = []
    for route in ("rewrite", "direct"):
        fwd, inv = (
            build_matrices(ctx.n, N, route=route, ctx=ctx, inverse=inverse)
            for inverse in (False, True)
        )
        mats = [m.entries for m in fwd]
        for i in range(ctx.n - 2):
            A, B = mats[i], mats[i + 1]
            _assert_rounding_level(A @ B @ A, B @ A @ B, (A, B, A))
        for i in range(ctx.n - 1):
            for j in range(i + 2, ctx.n - 1):
                A, B = mats[i], mats[j]
                _assert_rounding_level(A @ B, B @ A, (A, B))
        for f, b in zip(fwd, inv):
            assert (f.phase * b.phase).exponent == 0
            _assert_rounding_level(f.entries @ b.entries, np.eye(f.dimension), (f.entries, b.entries))
        families.append(fwd + inv)
    for a, b in zip(*families):
        assert a.basis == b.basis and a.phase == b.phase
        scale = np.max(np.abs(a.entries))
        assert np.max(np.abs(a.entries - b.entries)) <= DEFAULT_TOLS.route_match * scale


@settings(derandomize=True, max_examples=30, deadline=None)
# gap 0.05: each q-number (q**x - q**-x) / (q - 1/q) loses about log10(1 / |q - 1|)
# digits to cancellation, which the rounding-level bounds below do not allow for
@given(ctx=_numeric_contexts(n_max=4, distinct_max=3, gap=0.05), N=st.integers(0, 2), inverse=st.booleans())
@example(ctx=Context((RepLabel(0.7, 0.3), RepLabel(1.3, 0.9)), 1.8), N=0, inverse=True)
@example(ctx=Context((RepLabel(0.6, 0.2), RepLabel(1.1, 0.5), RepLabel(1.7, 1.1)), 0.4), N=2, inverse=False)
def test_compiled_operators(ctx, N, inverse):
    """Matrices built by index arithmetic, level by level up to N.

    Each equals operator_matrix of its apply_* function, which checks the
    row positions and the scatter; closed and series braid matrices agree;
    L_{j+1} R_j - R_{j-1} L_j = [sum gamma]_q I; intertwiners commute with
    lowering.  Oracle and matrix evaluate the same amplitudes on arrays of
    different lengths, where numpy's power may round differently in the
    last bit, hence the tolerance.
    """
    qn = q_number(ctx.gamma_total(), ctx.q)

    def check(terms, apply, j, m):
        A = _weight_matrix(terms, ctx, j, m)
        B = operator_matrix(apply, weight_basis(ctx, j, "all"), weight_basis(ctx, m, "all"))
        assert A.shape == B.shape and np.allclose(A, B, rtol=1e-13, atol=0)
        return A

    low_prev = up_prev = None
    O_prev = {}
    for j in range(N + 1):
        low = check(lambda p, o: _coproduct_terms(ctx, "a-", p, o), lambda v: apply_coproduct("a-", v), j + 1, j)
        up = check(lambda p, o: _coproduct_terms(ctx, "a+", p, o), lambda v: apply_coproduct("a+", v), j, j + 1)
        comm = low @ up - (up_prev @ low_prev if j else 0)
        _assert_rounding_level(comm, qn * np.eye(len(comm)), (low, up))
        for slot in range(1, ctx.n + 1):
            for gen, m in (("a+", j + 1), ("a-", j - 1)):
                if m >= 0:
                    check(lambda p, o: _slot_terms(ctx, gen, slot - 1, p, o),
                          lambda v: apply_generator(gen, slot, v), j, m)
        for k in range(1, ctx.n):
            O = check(lambda p, o: _intertwiner_terms(ctx, k - 1, p, o), lambda v: apply_intertwiner(k, v), j, j + 1)
            lhs = low @ O
            _assert_rounding_level(lhs, O_prev[k] @ low_prev if j else np.zeros_like(lhs), (low, O))
            O_prev[k] = O
        for i in range(1, ctx.n):
            mats = [
                check(_braid_op(ctx, i, inverse, formula), lambda v: apply_braid_generator(
                    i, v, inverse=inverse, formula=formula), j, j)
                for formula in ("closed", "series")
            ]
            assert np.max(np.abs(mats[0] - mats[1])) <= 1e-12 * np.max(np.abs(mats[0]))
            assert np.array_equal(mats[0], sigma_weight_matrix(ctx, j, i, inverse=inverse))
        low_prev, up_prev = low, up


def test_numeric_rewrite_matches_exact_family():
    """The homogeneous numeric rewrite is the exact family at x = q**-gamma.

    Both backends share one rewrite enumeration, so the exact family is
    also held against the direct route, which shares none of it.
    """
    gamma, c = 1.3, 0.7
    for n in range(2, 6):
        for N in range(5):
            for inverse in (False, True):
                exact = build_matrices(n, N, inverse=inverse)
                for q in (0.3, 0.7, 1.4, 3.0):
                    ctx = homogeneous_context(n, gamma, c, q)
                    routes = ("rewrite", "direct") if q in (0.7, 1.4) else ("rewrite",)
                    for route in routes:
                        numeric = build_matrices(n, N, route=route, ctx=ctx, inverse=inverse)
                        for a, b in zip(numeric, exact):
                            assert a.basis == b.basis and a.phase == b.phase
                            want = _at(b.entries, q ** -gamma)
                            err = np.max(np.abs(a.entries - want)) / np.max(np.abs(want))
                            assert err <= DEFAULT_TOLS.route_match, (n, N, q, inverse, route)



def _dense_relation_defect(mats):
    """braid_relation_defect from dense products, with its rounding slack.

    The slack bounds how far two summation orders of the same products
    can move the defect: the rounding of each product, scaled by the
    Frobenius norms of its factors, over the scale the defect divides by.
    """
    adjacent = [(A @ B @ A, B @ A @ B, (A, B, A)) for A, B in zip(mats, mats[1:])]
    far = [(A @ B, B @ A, (A, B)) for k, A in enumerate(mats) for B in mats[k + 2:]]
    want = slack = 0.0
    for lhs, rhs, factors in adjacent + far:
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        want = max(want, np.max(np.abs(lhs - rhs)) / scale)
        bound = 10 * len(factors) * lhs.shape[0] * np.finfo(float).eps
        slack = max(slack, bound * math.prod(np.linalg.norm(f) for f in factors) / scale)
    return want, slack


def _dense_word(word, fwd, inv):
    """Dense product M(w_L) ... M(w_1) and its factors."""
    factors = [(fwd if letter > 0 else inv)[abs(letter) - 1].entries for letter in word]
    total = np.eye(fwd[0].dimension)
    for f in factors:
        total = f @ total
    return total, factors


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ctx=_numeric_contexts(), N=st.integers(0, 3), route=st.sampled_from(["rewrite", "direct"]),
       data=st.data())
def test_block_checks_match_dense_products(ctx, N, route, data):
    """Relation, inverse and word checks on sector blocks agree with dense
    NumPy products of the stored entries, forward and inverse."""
    fwd, inv = (build_matrices(ctx.n, N, route=route, ctx=ctx, inverse=inverse) for inverse in (False, True))
    for fam in (fwd, inv):
        want, slack = _dense_relation_defect([m.entries for m in fam])
        assert abs(braid_relation_defect(fam) - want) <= slack
    eps, d = np.finfo(float).eps, fwd[0].dimension
    want = max(np.max(np.abs(f.entries @ b.entries - np.eye(d))) for f, b in zip(fwd, inv))
    slack = max(20 * d * eps * np.linalg.norm(f.entries) * np.linalg.norm(b.entries) for f, b in zip(fwd, inv))
    assert abs(inverse_defect(fwd, inv) - want) <= slack
    letter = st.integers(1, ctx.n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    word = data.draw(st.lists(letter, max_size=6))
    total, _ = evaluate_word(word, fwd, inv)
    _assert_rounding_level(total, *_dense_word(word, fwd, inv))


def _off_block_row(entries, size, col):
    """A row in a sector where column ``col`` has only zeros."""
    used = {r // size for r in np.flatnonzero(entries[:, col])}
    return next(sec for sec in range(entries.shape[0] // size) if sec not in used) * size


def test_block_checks_fall_back_to_dense_off_the_blocks():
    """One entry outside the sector blocks makes that generator one dense
    block; every check then equals its dense value.  So does a family whose
    sector permutations break the braid relation."""
    ctx = Context([RepLabel(0.7, 0.4), RepLabel(1.1, 0.9), RepLabel(1.6, 0.5)], 1.4)
    three = build_matrices(3, 2, ctx=ctx)
    # A = sigma_1, B = sigma_1 sigma_2: ABA and BAB send every sector apart
    word, _ = evaluate_word([1, 2], three, None)
    mixed = [three[0], dataclasses.replace(three[1], entries=word)]
    want, slack = _dense_relation_defect([m.entries for m in mixed])
    assert want > 0.1 and abs(braid_relation_defect(mixed) - want) <= slack
    ctx = Context([RepLabel(0.7, 0.4), RepLabel(1.0, 0.9), RepLabel(1.4, 0.5), RepLabel(1.8, 1.2)], 0.6)
    fwd, inv = (build_matrices(4, 2, ctx=ctx, inverse=inverse) for inverse in (False, True))
    E = np.array(fwd[1].entries)
    E[_off_block_row(E, 6, 0), 0] = 0.5 * np.max(np.abs(E))
    fwd[1] = dataclasses.replace(fwd[1], entries=E)
    want, _ = _dense_relation_defect([m.entries for m in fwd])
    assert want > 1e-3 and braid_relation_defect(fwd) == pytest.approx(want, rel=1e-12)
    want = max(np.max(np.abs(f.entries @ b.entries - np.eye(144))) for f, b in zip(fwd, inv))
    assert want > 1e-3 and inverse_defect(fwd, inv) == pytest.approx(want, rel=1e-12)
    word = [1, 2, -3, 2, -1]
    total, _ = evaluate_word(word, fwd, inv)
    _assert_rounding_level(total, *_dense_word(word, fwd, inv))


def _inverse_defect_by_identity(fwd, inv):
    """inverse_defect as the comparison of each stored product with its identity."""
    worst = 0.0
    for f, b in zip(fwd, inv, strict=True):
        prod = vars(f)["entries"] @ vars(b)["entries"]
        worst = max(worst, prod.max_diff(prod.identity())[0])
    return worst


@pytest.mark.parametrize("n", range(2, 5))
def test_inverse_defect_builds_no_identity(n):
    """Sector by sector, |sigma sigma^{-1} - 1| equals the comparison with a
    built identity bit for bit: on both routes, with a caller's array in the
    family (one dense block against the inverse's sectors), and where a
    product maps sectors into others."""
    for q in (0.4, 1.3):
        for ctx in _label_kinds(n, q):
            for N in range(3):
                for route in ("rewrite", "direct"):
                    fwd, inv = (build_matrices(n, N, route=route, ctx=ctx, inverse=inverse) for inverse in (False, True))
                    mixed = [dataclasses.replace(fwd[0], entries=np.array(fwd[0].entries)), *fwd[1:]]
                    for f in (fwd, mixed):
                        assert inverse_defect(f, inv) == _inverse_defect_by_identity(f, inv), (n, N, route)
                    if n > 2 and not ctx.is_homogeneous():
                        # sigma_1 sigma_2 maps sectors into others
                        moved = [dataclasses.replace(fwd[1], generator=1)]
                        want = _inverse_defect_by_identity(fwd[:1], moved)
                        assert inverse_defect(fwd[:1], moved) == want >= 1.0


class TestWords:
    def test_braid_relation_as_words(self):
        f = build_matrices(3, 2)
        lhs, pl = evaluate_word([1, 2, 1], f, None)
        rhs, pr = evaluate_word([2, 1, 2], f, None)
        assert lmat_eq(lhs, rhs)
        assert pl.exponent == pr.exponent == 3

    def test_square_trace(self):
        f = build_matrices(3, 1)
        m, _ = evaluate_word([1, 1], f, None)
        trace = m[0][0] + m[1][1]
        assert str(trace) == "x^4+1"

    def test_inverse_pair_cancels(self):
        f = build_matrices(3, 1)
        b = build_matrices(3, 1, inverse=True)
        m, phase = evaluate_word([1, -1], f, b)
        assert phase.exponent == 0
        assert lmat_eq(m, [[L_ONE if i == j else L_ZERO for j in range(2)] for i in range(2)])

    def test_empty_word_identity(self):
        f = build_matrices(3, 1)
        m, phase = evaluate_word([], f, None)
        assert phase.exponent == 0
        assert str(m[0][0]) == "1" and str(m[0][1]) == "0"

    def test_rejects_zero_letter(self):
        f = build_matrices(3, 1)
        with pytest.raises(ValueError):
            evaluate_word([0], f, None)

    @pytest.mark.parametrize("letter, with_inverse", [
        (3, True), (5, False), (-3, True), (-1, False),
    ])
    def test_rejects_letter_without_generator(self, letter, with_inverse):
        f = build_matrices(3, 1)
        b = build_matrices(3, 1, inverse=True) if with_inverse else None
        with pytest.raises(ValueError, match="word letter %d " % letter):
            evaluate_word([1, letter], f, b)


_INDEX_CALLS = {
    "slot": lambda ctx, v, i: apply_generator("a+", i, v).terms,
    "k": lambda ctx, v, i: apply_intertwiner(i, v).terms,
    "braid": lambda ctx, v, i: apply_braid_generator(i, v).terms,
    "weight": lambda ctx, v, i: sigma_weight_matrix(ctx, 1, i),
    "letter": lambda ctx, v, i: evaluate_word([i], build_matrices(3, 1), None)[0],
    "position": lambda ctx, v, i: marked_context(3, *ctx.labels[:2], i, 0.6).labels,
}


@pytest.mark.parametrize("index", [True, 1.0, 1.5, Fraction(1), "1"])
@pytest.mark.parametrize("call", sorted(_INDEX_CALLS))
def test_indices_must_be_integers(mctx3, call, index):
    with pytest.raises(ValueError, match="must be an integer"):
        _INDEX_CALLS[call](mctx3, basis_state(mctx3, (1, 0, 2)), index)


@pytest.mark.parametrize("call", sorted(_INDEX_CALLS))
def test_numpy_integer_indices_act_as_ints(mctx3, call):
    v = basis_state(mctx3, (1, 0, 2))
    a, b = (_INDEX_CALLS[call](mctx3, v, i) for i in (1, np.int64(1)))
    assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestPairChange:
    def test_three_strand_determinant(self):
        for s in (0.8, 2.5):
            ch = pair_basis_change(3, s)
            assert ch.determinant == pytest.approx(-4.0, rel=1e-12)
            assert ch.invertible

    def test_shapes_and_condition(self):
        for n in (3, 4, 5):
            ch = pair_basis_change(n, 1.3)
            k = n * (n - 1) // 2
            assert ch.matrix.shape == (k, k)
            assert np.isfinite(ch.condition)

    def test_rejects_zero_parameter(self):
        with pytest.raises(ValueError):
            pair_basis_change(3, 0.0)

    @pytest.mark.parametrize("n, s, match", [
        (1, 1.0, "n must be"), (0, 1.0, "n must be"),
        (3, float("nan"), "s must be finite"), (3, float("inf"), "s must be finite"),
        (3, "1", "s must be finite and real, got '1'"),
    ])
    def test_rejects_bad_size_or_parameter(self, n, s, match):
        with pytest.raises(ValueError, match=match):
            pair_basis_change(n, s)

    def test_diagonal_pair_column(self):
        ch = pair_basis_change(3, 1.0)
        col = ch.w_pairs.index((1, 1))
        row = ch.W_pairs.index((1, 2))
        assert ch.matrix[row, col] == -2.0
        assert np.count_nonzero(ch.matrix[:, col]) == 1


class TestSerialization:
    def test_family_schema_laurent(self):
        doc = family_to_json(build_matrices(3, 1))
        assert set(doc) == {
            "n", "N", "labels", "q", "route", "backend", "basis", "phase", "matrices",
        }
        assert doc["backend"] == "laurent"
        assert doc["q"] is None and doc["labels"] is None
        assert doc["phase"] == {"exponent": "1", "factor": "1.0"}
        assert [m["generator"] for m in doc["matrices"]] == [1, 2]
        assert doc["matrices"][0]["entries"][0][0] == {"terms": [[2, "-1"]]}

    def test_family_schema_numeric(self, mctx3):
        mats = build_matrices(3, 1, route="direct", ctx=mctx3)
        E = np.array(mats[0].entries)
        E[0, 1] = -0.0
        mats[0] = dataclasses.replace(mats[0], entries=E)
        doc = family_to_json(mats)
        for m, js in zip(mats, doc["matrices"]):
            assert js["entries"] == [[repr(float(v)) for v in row] for row in m.entries]
        first = {v for row in doc["matrices"][0]["entries"] for v in row}
        assert {"0.0", "-0.0"} < first
        # all-distinct labels: special values outside the sector blocks
        ctx = Context([RepLabel(0.7, 0.4), RepLabel(1.1, 0.9), RepLabel(1.6, 0.5)], 1.4)
        distinct = build_matrices(3, 2, ctx=ctx)
        E = np.array(distinct[0].entries)
        for col, value in enumerate((-0.0, math.nan, 5e-324)):
            E[_off_block_row(E, 3, 3 * col), 3 * col] = value
        distinct[0] = dataclasses.replace(distinct[0], entries=E)
        for m, js in zip(distinct, family_to_json(distinct)["matrices"]):
            assert js["entries"] == [[numeric_to_json(v) for v in row] for row in m.entries]
        first = {v for row in family_to_json(distinct)["matrices"][0]["entries"] for v in row}
        assert {"0.0", "-0.0", "nan", "5e-324"} < first
        assert doc["q"] == pytest.approx(0.62)
        assert len(doc["labels"]) == 3
        assert "solve_residual" in doc["matrices"][0]
        val = doc["matrices"][0]["entries"][0][0]
        assert isinstance(val, str)
        float(val)

    @pytest.mark.parametrize("field, other", [
        ("n", lambda mats: build_matrices(4, 1, ctx=homogeneous_context(4, 1.0, 0.5, 0.6))),
        ("N", lambda mats: build_matrices(3, 2, ctx=homogeneous_context(3, 1.0, 0.5, 0.6))),
        ("labels", lambda mats: build_matrices(3, 1)),
        ("labels", lambda mats: build_matrices(3, 1, ctx=homogeneous_context(3, 1.2, 0.5, 0.6))),
        ("q", lambda mats: build_matrices(3, 1, ctx=homogeneous_context(3, 1.0, 0.5, 0.7))),
        ("route", lambda mats: build_matrices(3, 1, route="direct", ctx=homogeneous_context(3, 1.0, 0.5, 0.6))),
        ("phase", lambda mats: build_matrices(3, 1, ctx=homogeneous_context(3, 1.0, 0.5, 0.6), inverse=True)),
        ("basis", lambda mats: [dataclasses.replace(mats[1], basis=mats[1].basis[::-1])]),
    ])
    def test_family_rejects_mixed_members(self, field, other):
        # every hoisted field is the family's, so members that differ in one are refused
        mats = build_matrices(3, 1, ctx=homogeneous_context(3, 1.0, 0.5, 0.6))
        with pytest.raises(BraidoscError, match="inconsistent %s$" % field):
            family_to_json(mats + other(mats))

    def test_basis_labels_round_trip(self):
        doc = family_to_json(build_matrices(3, 2))
        assert doc["basis"][0] == {"sector": [0, 1, 2], "powers": [2, 0]}
