"""Weight spaces, lowest-weight kernels, counting laws, exact nullspaces."""

import hashlib
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from braidosc.oscillator import (
    BraidoscError,
    Context,
    RepLabel,
    WeightVector,
    apply_coproduct,
    homogeneous_context,
    marked_context,
)
from braidosc import weightspace
from braidosc.scalars import DEFAULT_TOLS, Tolerances, close
from braidosc.weightspace import (
    DimensionMismatchError,
    _sector_major,
    compositions,
    coordinates,
    counts,
    from_coordinates,
    lowest_weight_dimension,
    lowest_weight_kernel,
    lowest_weight_kernel_exact,
    lowest_weight_monomials,
    monomial_exponents,
    operator_matrix,
    span_residual,
    verify_decomposition,
    weight_basis,
    weight_dimension,
)


@pytest.fixture
def hctx3():
    return homogeneous_context(3, 1.2, 0.7, 0.6)


@pytest.fixture
def mctx3():
    return marked_context(3, RepLabel(1.0, 0.4), RepLabel(1.7, 1.2), 2, 0.55)


def _compositions_by_recursion(total, parts):
    """Weak compositions in ascending lex by recursion on the first part, as a reference."""
    if total < 0:
        return []
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _compositions_by_recursion(total - first, parts - 1)]


class TestCounting:
    def test_enumerations_match_the_recursive_reference(self):
        for parts in range(8):
            for total in range(-1, 7):
                want = _compositions_by_recursion(total, parts)
                occ = weightspace._occupations(total, parts)
                assert occ.dtype == np.int64 and occ.shape == (len(want), parts)
                assert list(map(tuple, occ.tolist())) == compositions(total, parts) == want
                assert monomial_exponents(parts + 1, total) == sorted(want, reverse=True)

    def test_rank_is_the_position_in_the_level(self):
        for parts in range(8):
            for total in range(-1, 7):
                occ = weightspace._occupations(total, parts)
                assert np.array_equal(weightspace._rank(occ), np.arange(len(occ))), (total, parts)

    def test_composition_enumeration(self):
        assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(compositions(3, 4)) == 20
        # a negative total has no compositions, whatever the slot count
        assert compositions(-1, 1) == compositions(-1, 2) == compositions(-1, 0) == []
        one = homogeneous_context(1, 1.2, 0.7, 0.6)
        block = weightspace._coproduct_block(one, "a-", one.identity_perm(), 0, -1)
        assert block.shape == (0, 1)

    def test_monomial_order_is_word_order(self):
        # descending lex on exponents = products read left to right
        assert monomial_exponents(3, 2) == [(2, 0), (1, 1), (0, 2)]
        assert monomial_exponents(4, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_weight_dimension_binomial(self):
        for n in range(2, 6):
            for N in range(5):
                assert weight_dimension(n, N) == len(compositions(N, n))

    def test_frozen_tables(self):
        assert counts(3, 3) == (10, [1, 2, 3, 4])
        assert counts(5, 2) == (15, [1, 4, 10])
        assert all(lowest_weight_dimension(2, N) == 1 for N in range(6))

    def test_level_sum_telescopes(self):
        for n in range(2, 6):
            for N in range(5):
                total, parts = counts(n, N)
                assert sum(parts) == total


class TestWeightBasis:
    def test_single_sector_size(self, hctx3):
        assert len(weight_basis(hctx3, 3).states) == 10

    def test_all_sectors_size(self, mctx3):
        assert len(weight_basis(mctx3, 2, "all").states) == 3 * 6

    def test_coordinates_round_trip(self, hctx3):
        basis = weight_basis(hctx3, 2)
        rng = np.random.default_rng(0)
        coords = rng.standard_normal(len(basis.states))
        v = from_coordinates(hctx3, coords, basis)
        assert np.allclose(coordinates(v, basis), coords)

    def test_operator_matrix_holds_one_image_at_a_time(self, mctx3):
        # each image is dropped once its column is written; the matrix is
        # C-ordered, its columns the coordinates of the images
        dom, cod = weight_basis(mctx3, 2, "all"), weight_basis(mctx3, 1, "all")
        live, images = [], []

        class Image(WeightVector):
            pass

        def op(v):
            assert sum(ref() is not None for ref in live) <= 1
            image = Image(v.ctx)
            image.terms = apply_coproduct("a-", v).terms
            live.append(weakref.ref(image))
            images.append(coordinates(image, cod))
            return image

        A = operator_matrix(op, dom, cod)
        assert A.shape == (len(cod), len(dom)) and A.flags.c_contiguous
        assert np.array_equal(A, np.column_stack(images)) and A.any()


class TestNumericKernel:
    def test_two_slot_direction(self, mctx3):
        ctx2 = Context(mctx3.labels[:2], mctx3.q)
        kern = lowest_weight_kernel(ctx2, 1)
        (vec,) = kern.vectors
        coeffs = {st.occ: co for st, co in vec.terms.items()}
        q = ctx2.q
        g1, g2 = 1.0, 1.7
        # proportional to the intertwiner image of the vacuum
        expected = np.array(
            [
                q ** (-g1 / 2) * np.sqrt(ctx2.qn[1]),
                -np.sqrt(ctx2.qn[0]) * q ** (g2 / 2),
            ]
        )
        got = np.array([coeffs[(1, 0)], coeffs[(0, 1)]])
        cross = got[0] * expected[1] - got[1] * expected[0]
        assert abs(cross) < 1e-12

    def test_kernel_annihilated(self, hctx3):
        for N in (1, 2, 3):
            for v in lowest_weight_kernel(hctx3, N).vectors:
                assert apply_coproduct("a-", v).norm() < 1e-10

    def test_dimensions_grid(self, hctx3):
        for N in range(5):
            kern = lowest_weight_kernel(hctx3, N)
            assert len(kern.vectors) == lowest_weight_dimension(3, N)

    def test_marked_sectors_same_dimension(self, mctx3):
        for sector in mctx3.distinct_sectors():
            kern = lowest_weight_kernel(mctx3, 2, sector)
            assert len(kern.vectors) == 3

    def test_orthonormal_output(self, hctx3):
        vs = lowest_weight_kernel(hctx3, 2).vectors
        for i, a in enumerate(vs):
            for j, b in enumerate(vs):
                assert close(a.inner(b), 1.0 if i == j else 0.0)


class TestMonomialBasis:
    def test_monomials_are_lowest_weight(self, mctx3):
        lw = lowest_weight_monomials(mctx3, 2)
        for v in lw.vectors:
            assert apply_coproduct("a-", v).norm() / v.norm() < 1e-10

    def test_spans_match_kernel(self, hctx3, mctx3):
        for ctx in (hctx3, mctx3):
            for N in (1, 2):
                mono = lowest_weight_monomials(ctx, N)
                kern = lowest_weight_kernel(ctx, N)
                assert span_residual(mono.vectors, kern.vectors) < 1e-9
                assert span_residual(kern.vectors, mono.vectors) < 1e-9

    def test_gram_positive_definite(self, hctx3):
        lw = lowest_weight_monomials(hctx3, 3)
        eigs = np.linalg.eigvalsh(np.asarray(lw.gram, dtype=float))
        assert eigs.min() > 0

    def test_monomial_count(self, hctx3):
        assert len(lowest_weight_monomials(hctx3, 3).vectors) == 4

    @pytest.mark.parametrize("tols, match", [
        (Tolerances(kernel_residual=-1.0), "not annihilated"),
        (Tolerances(sv_cutoff=1.0), "numerically singular"),
    ])
    def test_rejects_failed_checks(self, mctx3, tols, match):
        with pytest.raises(BraidoscError, match=match):
            lowest_weight_monomials(mctx3, 2, None, tols)

    def test_rejects_nan_block(self, mctx3, monkeypatch):
        levels = weightspace._monomial_levels

        def poisoned(*args):
            *_, V = levels(*args)
            V = V.copy()
            V[0, 0, 0] = np.nan
            yield V

        monkeypatch.setattr(weightspace, "_monomial_levels", poisoned)
        with pytest.raises(BraidoscError, match="not annihilated"):
            lowest_weight_monomials(mctx3, 2)


def test_span_residual_rejects_zero_vector(hctx3):
    from braidosc.oscillator import WeightVector

    kern = lowest_weight_kernel(hctx3, 2).vectors
    zero = WeightVector(hctx3)
    # the relative defect of a zero vector is undefined, in any position
    for vectors in ([zero] + kern, kern + [zero], [zero]):
        with pytest.raises(ValueError, match="is zero"):
            span_residual(vectors, kern)


@pytest.mark.parametrize("build", [lowest_weight_kernel, lowest_weight_monomials])
def test_coords_are_the_vectors(build, mctx3):
    for N in range(3):
        for sector in mctx3.distinct_sectors():
            lw = build(mctx3, N, sector)
            states = weight_basis(mctx3, N, sector)
            want = np.array([coordinates(v, states) for v in lw.vectors]).T
            assert lw.blocks.shape == (1,) + want.shape and np.array_equal(lw.blocks[0], want)


@pytest.mark.parametrize("n, N", [(2, 3), (3, 0), (3, 2), (4, 3)])
def test_all_sector_monomials_are_the_per_sector_blocks(n, N):
    ctx = Context([RepLabel(0.7 + 0.3 * k, 0.2 + 0.4 * k) for k in range(n)], 0.7)
    lw = lowest_weight_monomials(ctx, N, "all")
    sectors = ctx.distinct_sectors()
    assert lw.sector == "all" and lw.blocks.shape[0] == lw.grams.shape[0] == len(sectors)
    for sec, block, gram in zip(sectors, lw.blocks, lw.grams):
        one = lowest_weight_monomials(ctx, N, sec)
        assert np.array_equal(block, one.blocks[0]) and np.array_equal(gram, one.gram)
    # the blocks and gram are block-diagonal over weight_basis(ctx, N, "all"), and vectors follow them
    states = weight_basis(ctx, N, "all")
    want = np.array([coordinates(v, states) for v in lw.vectors]).T
    assert np.array_equal(_sector_major(lw.blocks), want)
    count, d = lw.grams.shape[:2]
    diagonal = np.eye(count)[:, None, :, None] * lw.grams[:, :, None, :]
    assert np.array_equal(lw.gram.reshape(count, d, count, d), diagonal)


def test_from_coordinates_keeps_every_nonzero_term(hctx3):
    basis = weight_basis(hctx3, 3)
    coords = np.array([0.0, -0.0, 1.5, np.nan, -2.0, 0.0, 3e-300, 0.0, np.inf, -1.0])
    from braidosc.oscillator import WeightVector

    want = WeightVector(hctx3)
    for c, st in zip(coords, basis.states):
        if c:
            want.add_term(st, float(c))
    got = from_coordinates(hctx3, coords, basis)
    assert list(got.terms) == list(want.terms)
    assert [repr(v) for v in got.terms.values()] == [repr(v) for v in want.terms.values()]


class TestDecomposition:
    def test_three_slots_level_three(self, hctx3):
        rep = verify_decomposition(hctx3, 3, None, DEFAULT_TOLS)
        assert rep.passed
        assert rep.block_dims == [1, 2, 3, 4]
        assert rep.rank == 10
        assert [rep.eigen_multiplicities.get(j, 0) for j in range(4)] == [1, 2, 3, 4]
        # overlap across blocks is measured and reported, not asserted
        assert rep.offblock_overlap >= 0.0
        assert rep.to_json()["weight_dim"] == 10

    def test_reports_pinned(self):
        # md5 of every report on n 2-5 x N 0-3 x q {0.65, 1.4}, homogeneous, marked and
        # all-distinct labels; taken when each level was stepped from the vacuum anew
        reports = []
        for n in range(2, 6):
            for q in (0.65, 1.4):
                base, other = RepLabel(0.9, 0.4), RepLabel(1.6, 1.1)
                for ctx in (homogeneous_context(n, 0.9, 0.4, q), marked_context(n, base, other, n // 2 + 1, q),
                            Context([RepLabel(0.6 + 0.25 * k, 0.3 + 0.2 * k) for k in range(n)], q)):
                    reports.extend(verify_decomposition(ctx, N).to_json() for N in range(4))
        text = json.dumps(reports, sort_keys=True)
        assert hashlib.md5(text.encode()).hexdigest() == "3017e2a0b0e74d3f74a6d25d6fc51777"

    def test_marked_levels(self, mctx3):
        rep = verify_decomposition(mctx3, 2, None, DEFAULT_TOLS)
        assert rep.passed
        assert rep.block_dims == [1, 2, 3]

    def test_marked_four_slots_level_three(self):
        ctx = marked_context(4, RepLabel(1.0, 0.4), RepLabel(1.7, 1.2), 2, 0.55)
        rep = verify_decomposition(ctx, 3, None, DEFAULT_TOLS)
        assert rep.passed
        assert rep.block_dims == rep.expected_block_dims == [1, 3, 6, 10]
        assert rep.rank == rep.weight_dim == 20
        assert [rep.eigen_multiplicities.get(j, 0) for j in range(4)] == [1, 3, 6, 10]

    def test_casimir_defect_relative_to_lambda_fails(self, hctx3, monkeypatch):
        # scaling the lowering map by 1 + eps moves C u_j by eps [sum gamma]_q (N - j) u_j
        N, tols = 3, DEFAULT_TOLS
        qn = weightspace.q_number(hctx3.gamma_total(), hctx3.q)
        lam = qn * (hctx3.c_total() + np.arange(N + 1))
        eps = 10 * tols.eigen / np.max(qn * (N - np.arange(N + 1)) / np.maximum(1.0, np.abs(lam)))
        block = weightspace._coproduct_block

        def perturbed(ctx, gen, sector, j, m):
            return block(ctx, gen, sector, j, m) * (1 + eps if gen == "a-" else 1)

        monkeypatch.setattr(weightspace, "_coproduct_block", perturbed)
        rep = verify_decomposition(hctx3, N, None, tols)
        assert rep.casimir_residual == pytest.approx(10 * tols.eigen, rel=1e-4) and not rep.passed

    @pytest.mark.parametrize("column", ["repeated", "zero"])
    def test_dependent_column_fails_the_rank(self, hctx3, monkeypatch, column):
        grams = weightspace._monomial_grams

        # the level-3 monomials pass their checks, then one column is edited
        def edited(ctx, j, sectors, V, tols):
            out = grams(ctx, j, sectors, V, tols)
            if j == 3:
                V[0][:, -1] = V[0][:, 0] if column == "repeated" else 0.0
            return out

        monkeypatch.setattr(weightspace, "_monomial_grams", edited)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_decomposition(hctx3, 3, None, DEFAULT_TOLS)
        assert rep.rank == rep.weight_dim - 1 == 9 and rep.casimir_residual < DEFAULT_TOLS.eigen
        assert rep.block_dims == rep.expected_block_dims and not rep.passed


class TestManySlots:
    """Levels with (N + 1)**(n - 1) > 2**63, where a row's code in base N + 1 leaves int64."""

    def test_monomials(self):
        ctx = homogeneous_context(41, 1.0, 0.5, 0.6)
        lw = lowest_weight_monomials(ctx, 2)
        assert lw.blocks.shape == (1, weight_dimension(41, 2), lowest_weight_dimension(41, 2))

    def test_decomposition_block_dims(self):
        # the residual relative to max(1, |lambda_j|) and the rank of the unit
        # columns stay at rounding level; unscaled, both failed from about n = 30
        rep = verify_decomposition(homogeneous_context(41, 1.0, 0.5, 0.6), 2)
        assert rep.block_dims == rep.expected_block_dims == [1, 40, 820]
        assert rep.rank == rep.weight_dim == 861 and rep.passed


class TestExactKernel:
    def test_two_slots_level_one(self):
        ek = lowest_weight_kernel_exact(2, 1)
        assert [str(e) for e in ek.vectors[0]] == ["1", "-x"]

    def test_three_slots_level_two_frozen(self):
        ek = lowest_weight_kernel_exact(3, 2)
        rows = [[str(e) for e in v] for v in ek.vectors]
        assert rows == [
            ["1", "-2*x", "x^2", "0", "0", "0"],
            ["1", "-x", "0", "-x^2", "x^3", "0"],
            ["1", "0", "0", "-2*x^2", "0", "x^4"],
        ]

    def test_dimensions_and_annihilation(self):
        for n in (2, 3, 4):
            for N in range(4):
                ek = lowest_weight_kernel_exact(n, N)
                assert len(ek.vectors) == lowest_weight_dimension(n, N)

    def test_vectors_pinned(self):
        # md5 of every kernel for n = 2..5, N = 0..4: pins the free columns
        # and the primitive scaling, sign and shift of every ray
        text = repr([
            [[str(e) for e in v] for v in lowest_weight_kernel_exact(n, N).vectors]
            for n in range(2, 6)
            for N in range(5)
        ])
        assert hashlib.md5(text.encode()).hexdigest() == "9021c3c0909ab62291b761822329881b"

    @pytest.mark.parametrize("n, N", [(3, 2), (4, 2), (4, 3)])
    def test_sympy_annihilation_and_rank(self, n, N):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")

        def expr(poly):
            return sum(
                (sp.Rational(c.numerator, c.denominator) * x ** e for e, c in poly.terms.items()),
                sp.Integer(0),
            )

        # row low of the rescaled lowering map: (low_j + 1) x**(j + 1) in column low + e_j
        rows, cols = compositions(N - 1, n), compositions(N, n)
        A = sp.zeros(len(rows), len(cols))
        for r, low in enumerate(rows):
            for j in range(n):
                up = low[:j] + (low[j] + 1,) + low[j + 1:]
                A[r, cols.index(up)] = (low[j] + 1) * x ** (j + 1)
        ek = lowest_weight_kernel_exact(n, N)
        assert ek.occupations == cols
        K = sp.Matrix([[expr(e) for e in vec] for vec in ek.vectors]).T
        assert (A * K).expand() == sp.zeros(A.rows, K.cols)
        assert K.rank() == lowest_weight_dimension(n, N) == math.comb(n + N - 2, n - 2)

    def test_corrupted_vector_fails_annihilation(self, monkeypatch):
        # the coefficient of one term of the first product vector moves by 1
        terms = weightspace._kernel_terms
        seen = []

        def corrupt_first(fc):
            seen.append(fc)
            out = list(terms(fc))
            if len(seen) == 1:
                occ, coeff, exp = out[0]
                out[0] = occ, coeff + 1, exp
            return iter(out)

        monkeypatch.setattr(weightspace, "_kernel_terms", corrupt_first)
        with pytest.raises(BraidoscError, match="fails A v = 0"):
            lowest_weight_kernel_exact(4, 2)

    def test_two_slots_level_seventy_big_integers(self):
        # C(70, 35) passes 2**63: entries must come back as exact integers
        n, N, x0 = 2, 70, 3
        ek = lowest_weight_kernel_exact(n, N)
        assert ek.occupations == [(k, N - k) for k in range(N + 1)]
        (vec,) = ek.vectors
        mid = vec[ek.occupations.index((35, 35))]
        assert math.comb(70, 35) > 2 ** 63
        assert mid.terms == {35: -math.comb(70, 35)}
        # rows of the rescaled lowering map in Python ints at x = x0:
        # row low has (low_j + 1) x0**(j + 1) in column low + e_j
        values = [sum(c * x0 ** e for e, c in entry.terms.items()) for entry in vec]
        assert all(v.denominator == 1 for v in values)
        for low in compositions(N - 1, n):
            total = 0
            for j in range(n):
                up = low[:j] + (low[j] + 1,) + low[j + 1:]
                total += (low[j] + 1) * x0 ** (j + 1) * int(values[ek.occupations.index(up)])
            assert total == 0

    def test_kernel_matches_numeric_span(self):
        # exact coordinates, evaluated at a numeric point, land in the
        # numeric kernel of the rescaled lowering map
        ctx = homogeneous_context(3, 1.0, 0.5, 0.5)
        ek = lowest_weight_kernel_exact(3, 2)
        x0 = ctx.q ** (-1.0)
        A, dom, cod = _lowering(ctx, 2)
        scale = np.array([_rescale(ctx, st.occ) for st in dom.states])
        for vec in ek.vectors:
            coords = np.array([float(e(x0)) for e in vec]) * scale
            assert np.linalg.norm(A @ coords) < 1e-9 * np.linalg.norm(coords)


def _lowering(ctx, N):
    dom, cod = weight_basis(ctx, N), weight_basis(ctx, N - 1)
    return operator_matrix(lambda v: apply_coproduct("a-", v), dom, cod), dom, cod


def _rescale(ctx, occ):
    # exact mode works in the basis h_occ scaled by sqrt([gamma]^m m!)
    import math

    out = 1.0
    for m in occ:
        out *= math.sqrt(ctx.qn[0] ** m * math.factorial(m))
    return out


class TestErrors:
    def test_sector_support_check(self, mctx3):
        basis = weight_basis(mctx3, 1)
        other = weight_basis(mctx3, 1, mctx3.swapped_perm(mctx3.identity_perm(), 1))
        from braidosc.oscillator import basis_state
        from braidosc import BraidoscError

        v = basis_state(mctx3, (1, 0, 0), other.sector)
        with pytest.raises(BraidoscError):
            coordinates(v, basis)

    @pytest.mark.parametrize("N", [-1, 2.0, 1.5, True, None])
    @pytest.mark.parametrize("fn", ["kernel_exact", "kernel", "monomials", "decomposition", "counts"])
    def test_rejects_bad_level(self, fn, N, hctx3):
        call = {
            "counts": lambda: counts(3, N),
            "kernel_exact": lambda: lowest_weight_kernel_exact(3, N),
            "kernel": lambda: lowest_weight_kernel(hctx3, N),
            "monomials": lambda: lowest_weight_monomials(hctx3, N),
            "decomposition": lambda: verify_decomposition(hctx3, N),
        }[fn]
        with pytest.raises(ValueError, match="N must be"):
            call()

    @pytest.mark.parametrize("n", [1, 0, -2, 3.0, True])
    def test_exact_kernel_rejects_bad_slot_count(self, n):
        with pytest.raises(ValueError, match="n must be"):
            lowest_weight_kernel_exact(n, 1)

    @pytest.mark.parametrize("call", [
        lambda ctx: weight_basis(ctx, -1),
        lambda ctx: weight_basis(ctx, -1, "all"),
        lambda ctx: weight_dimension(3, -1),
        lambda ctx: counts(3, -1),
    ], ids=["weight-basis", "weight-basis-all", "weight-dimension", "counts"])
    def test_rejects_negative_level(self, call, mctx3):
        with pytest.raises(ValueError, match="N must be"):
            call(mctx3)

    @pytest.mark.parametrize("call", [
        lambda: lowest_weight_dimension(1, 2),
        lambda: weight_dimension(0, 2),
        lambda: counts(1, 2),
        lambda: lowest_weight_monomials(homogeneous_context(1, 1.2, 0.7, 0.6), 0),
        lambda: lowest_weight_monomials(homogeneous_context(1, 1.2, 0.7, 0.6), 1),
        lambda: verify_decomposition(homogeneous_context(1, 1.2, 0.7, 0.6), 1),
        lambda: verify_decomposition(homogeneous_context(1, 1.2, 0.7, 0.6), 2),
    ], ids=["lowest-weight-dimension", "weight-dimension", "counts", "monomials-level-0", "monomials-level-1",
            "decomposition-level-1", "decomposition-level-2"])
    def test_rejects_too_few_slots(self, call):
        with pytest.raises(ValueError, match="n must be"):
            call()

    @pytest.mark.parametrize("gen, levels", [("a+", (2, 2)), ("a-", (2, 2)), ("a+", (1, 0)), ("e", (2, 1))])
    def test_operator_block_rejects_image_outside_codomain(self, mctx3, gen, levels):
        dom, cod = (weightspace._occupations(j, 3) for j in levels)
        op = lambda sectors, occ: weightspace._coproduct_terms(mctx3, gen, sectors, occ)
        with pytest.raises(BraidoscError, match="leaves the codomain"):
            weightspace._operator_block(op, np.array(mctx3.distinct_sectors()), dom, cod)

    def test_operator_matrix_rejects_image_outside_codomain(self, mctx3):
        level = weight_basis(mctx3, 2, "all")
        with pytest.raises(BraidoscError, match="support outside the basis"):
            operator_matrix(lambda v: apply_coproduct("a+", v), level, level)

    def test_operator_block_rejects_negative_occupation(self, mctx3):
        # the level's total, but one slot below zero
        op = lambda sectors, occ: (np.zeros(1, np.intp), sectors, np.array([[3, -1, 0]]), np.ones((len(sectors), 1)))
        level = weightspace._occupations(2, 3)
        with pytest.raises(BraidoscError, match="leaves the codomain"):
            weightspace._operator_block(op, np.array([mctx3.identity_perm()]), level, level)

    def test_kernel_rejects_short_arrangement(self, hctx3):
        with pytest.raises(ValueError, match="not a permutation"):
            lowest_weight_kernel(hctx3, 1, (0, 1))

    def test_dimension_mismatch_is_error_type(self):
        assert issubclass(DimensionMismatchError, Exception)
