"""Deformed oscillator representations, coproducts, and the intertwiner."""

import math
import os
import subprocess
import sys
from itertools import permutations, product

import numpy as np
import pytest

import braidosc

from braidosc.oscillator import (
    BraidoscError,
    Context,
    RepLabel,
    TensorState,
    WeightVector,
    apply_casimir,
    apply_coproduct,
    apply_generator,
    apply_intertwiner,
    apply_monomial,
    basis_state,
    homogeneous_context,
    marked_context,
    vacuum,
)
from braidosc.scalars import close, q_number


Q, G, C = 0.5, 1.0, 0.7


@pytest.fixture
def ctx2():
    return homogeneous_context(2, G, C, Q)


@pytest.fixture
def ctx2m():
    return Context((RepLabel(1.2, 0.4), RepLabel(0.8, 1.1)), 0.6)


@pytest.fixture
def ctx3m():
    return marked_context(3, RepLabel(1.1, 0.5), RepLabel(1.9, 0.9), 2, 0.55)


class TestContext:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            homogeneous_context(2, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            homogeneous_context(2, 1.0, 0.5, -0.3)

    def test_rejects_non_positive_q_number(self):
        # negative gamma puts the representation outside the hermitian regime
        with pytest.raises(ValueError):
            Context((RepLabel(-1.0, 0.5),), 0.5)

    def test_rejects_zero_gamma_label(self):
        with pytest.raises(ValueError):
            RepLabel(0.0, 0.5)

    @pytest.mark.parametrize("perm", [(0, 1), (0, 1, 2, 3), (0, 0, 1), (0, 1, 3)])
    def test_rejects_arrangement_that_is_not_a_permutation(self, ctx3m, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            ctx3m.canonical_perm(perm)

    def test_cached_scalars(self, ctx2m):
        assert close(ctx2m.qn[0], q_number(1.2, 0.6))
        assert close(ctx2m.sqrt_qn[1] ** 2, ctx2m.qn[1])
        assert close(ctx2m.qg_half[0], 0.6 ** 0.6)

    def test_totals(self, ctx3m):
        assert close(ctx3m.gamma_total(), 1.1 + 1.1 + 1.9)
        assert close(ctx3m.c_total(), 0.5 + 0.5 + 0.9)
        assert not ctx3m.is_homogeneous()

    def test_marked_context_positions(self):
        ctx = marked_context(3, RepLabel(1.0, 0.2), RepLabel(2.0, 0.3), 2, 0.5)
        assert [l.gamma for l in ctx.labels] == [1.0, 2.0, 1.0]
        with pytest.raises(ValueError):
            marked_context(3, RepLabel(1.0, 0.2), RepLabel(2.0, 0.3), 4, 0.5)

    def test_swap_canonicalizes_equal_labels(self, ctx2):
        ident = ctx2.identity_perm()
        assert ctx2.swapped_perm(ident, 1) == ident

    def test_swap_moves_marked_label(self, ctx3m):
        ident = ctx3m.identity_perm()
        swapped = ctx3m.swapped_perm(ident, 1)
        assert [ctx3m.labels[r].gamma for r in swapped] == [1.9, 1.1, 1.1]

    def test_distinct_sectors(self, ctx2, ctx3m):
        assert len(ctx2.distinct_sectors()) == 1
        assert len(ctx3m.distinct_sectors()) == 3
        a, b = RepLabel(1.0, 0.5), RepLabel(1.4, 0.2)
        pool = [a, b, RepLabel(0.8, 0.9), RepLabel(1.7, 0.3), RepLabel(2.1, 0.6)]
        for n in range(1, 6):
            # every pattern of three label values, and all-distinct labels
            for labels in [[pool[v] for v in pattern] for pattern in product(range(3), repeat=n)] + [pool[:n]]:
                ctx = Context(labels, 0.6)
                brute = {ctx.canonical_perm(p) for p in permutations(range(n))}
                assert ctx.distinct_sectors() == sorted(brute), labels
        ten = homogeneous_context(10, 1.0, 0.5, 0.6)
        assert ten.distinct_sectors() == [ten.identity_perm()]
        # sorted canonical tuples, not the lex order of label classes (that would put AAB first)
        assert Context([a, b, a], 0.6).distinct_sectors() == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]

    @pytest.mark.parametrize("gamma, c", [
        (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_label_rejects_non_finite(self, gamma, c):
        with pytest.raises(ValueError, match="finite"):
            RepLabel(gamma, c)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_context_rejects_non_finite_q(self, q):
        with pytest.raises(ValueError, match="finite"):
            homogeneous_context(3, 1.0, 0.5, q)

    def test_accepts_numpy_reals(self):
        ctx = Context([RepLabel(np.float32(1.0), np.float64(0.5))], np.float64(0.6))
        assert close(ctx.qn[0], q_number(1.0, 0.6))


@pytest.mark.parametrize("call, match", [
    (lambda: RepLabel("1", 0.5), "gamma must be finite and real, got '1'"),
    (lambda: RepLabel(None, 0.5), "gamma must be finite and real, got None"),
    (lambda: RepLabel(1.0, True), "c must be finite and real, got True"),
    (lambda: Context([RepLabel(1.0, 0.5)], "0.6"), "q must be finite and real, got '0.6'"),
    (lambda: q_number(1.0, None), "q must be finite and real, got None"),
    (lambda: Context([], 0.6), "need at least one representation label"),
    (lambda: homogeneous_context(True, G, C, Q), "n must be an integer"),
    (lambda: homogeneous_context(2.5, G, C, Q), "n must be an integer"),
    (lambda: marked_context(2.5, RepLabel(G, C), RepLabel(1.5, 0.8), 1, Q), "n must be an integer"),
    (lambda: apply_generator("a+", 3, vacuum(homogeneous_context(2, G, C, Q))), "slot out of range"),
    (lambda: vacuum(homogeneous_context(2, G, C, Q)) + vacuum(homogeneous_context(2, G, C, Q)),
     "vectors from different contexts"),
    (lambda: Context([(G, C)], Q), "labels must be RepLabel instances"),
    (lambda: apply_monomial((-1, 0), vacuum(homogeneous_context(3, G, C, Q))), "power must be >= 0"),
    (lambda: apply_monomial((1, 0, 0), vacuum(homogeneous_context(3, G, C, Q))), "need 2 powers"),
    (lambda: apply_monomial((1.5,), vacuum(homogeneous_context(2, G, C, Q))), "power must be an integer"),
], ids=["label-gamma-str", "label-gamma-none", "label-c-bool", "context-q-str", "q-number-q-none",
        "context-no-labels", "homogeneous-n-bool", "homogeneous-n-float", "marked-n-float",
        "generator-slot-out-of-range", "sum-across-contexts", "context-label-not-replabel",
        "monomial-negative-power", "monomial-extra-power", "monomial-float-power"])
def test_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_package_leaves_mpmath_unloaded():
    """Importing the package and building a numeric family touches no
    extended-precision library (and so no process-wide precision setting);
    the exact relation and inverse checks do not load scipy, whose import
    alone would cost every process a fifth of a second, and with an exact
    word they load neither ``fractions`` nor ``decimal``."""
    code = (
        "import sys\n"
        "from braidosc import RepLabel, build_matrices, marked_context\n"
        "from braidosc import braid_relation_defect, evaluate_word, inverse_defect\n"
        "ctx = marked_context(3, RepLabel(1.0, 0.5), RepLabel(1.5, 0.8), 2, 0.6)\n"
        "build_matrices(3, 2, route='direct', ctx=ctx)\n"
        "assert 'mpmath' not in sys.modules, sorted(sys.modules)\n"
        "f, b = (build_matrices(4, 2, inverse=inverse) for inverse in (False, True))\n"
        "assert braid_relation_defect(f) == 0.0 and inverse_defect(f, b) == 0.0\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
        "evaluate_word([1, -3, 2], f, b)\n"
        "assert not {'fractions', 'decimal'} & set(sys.modules), sorted(sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(braidosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestGenerators:
    def test_lowering_and_raising(self, ctx2):
        v1 = basis_state(ctx2, (1, 0))
        down = apply_generator("a-", 1, v1)
        (st, co), = down.terms.items()
        assert st.occ == (0, 0)
        assert close(co, math.sqrt(q_number(G, Q)))
        up = apply_generator("a+", 2, v1)
        (st, co), = up.terms.items()
        assert st.occ == (1, 1)
        assert close(co, math.sqrt(q_number(G, Q)))

    def test_lowering_kills_vacuum_slot(self, ctx2):
        assert apply_generator("a-", 1, vacuum(ctx2)).is_zero()

    @pytest.mark.parametrize("act", [
        lambda v: apply_generator("zz", 1, v),
        lambda v: apply_coproduct("zz", v),
    ], ids=["slot", "coproduct"])
    def test_unknown_generator_fails_on_empty_vector(self, ctx2, act):
        with pytest.raises(ValueError, match="unknown generator"):
            act(WeightVector(ctx2))

    @pytest.mark.parametrize("occ", [(0.5, 0), (1.0, 0), (True, 0), (-1, 0), (0,), (0, 0, 0)])
    def test_basis_state_rejects_bad_occupations(self, ctx2, occ):
        with pytest.raises(ValueError, match="occupation"):
            basis_state(ctx2, occ)

    def test_number_operator(self, ctx2):
        v = basis_state(ctx2, (2, 1))
        out = apply_generator("e", 1, v)
        (st, co), = out.terms.items()
        assert close(co, 2 + C)

    def test_grading_eigenvalue(self, ctx2m):
        v = basis_state(ctx2m, (0, 3))
        out = apply_generator("g-", 2, v)
        (st, co), = out.terms.items()
        assert close(co, 0.6 ** (-0.8 / 2))

    def test_sqrt_ladder_normalization(self, ctx2):
        # a+ then a- returns [gamma] (m+1) on h_m
        v = basis_state(ctx2, (2, 0))
        back = apply_generator("a-", 1, apply_generator("a+", 1, v))
        (st, co), = back.terms.items()
        assert close(co, q_number(G, Q) * 3)


class TestCoproduct:
    def test_lowering_dressing(self, ctx2m):
        # first slot term carries q**(+gamma_2/2) from the right neighbour
        v = basis_state(ctx2m, (1, 0))
        out = apply_coproduct("a-", v)
        (st, co), = out.terms.items()
        assert st.occ == (0, 0)
        assert close(co, math.sqrt(q_number(1.2, 0.6)) * 0.6 ** (0.8 / 2))

    def test_number_is_additive(self, ctx2m):
        v = basis_state(ctx2m, (1, 2))
        out = apply_coproduct("e", v)
        (st, co), = out.terms.items()
        assert close(co, 1 + 2 + 0.4 + 1.1)

    def test_grading_is_multiplicative(self, ctx2m):
        v = basis_state(ctx2m, (0, 0))
        out = apply_coproduct("g+", v)
        (st, co), = out.terms.items()
        assert close(co, 0.6 ** ((1.2 + 0.8) / 2))

    def test_ladder_commutator_is_total_q_number(self, ctx3m):
        v = basis_state(ctx3m, (1, 0, 2))
        lhs = apply_coproduct("a-", apply_coproduct("a+", v)) - apply_coproduct(
            "a+", apply_coproduct("a-", v)
        )
        diff = lhs - q_number(ctx3m.gamma_total(), ctx3m.q) * v
        assert diff.norm() < 1e-12 * lhs.norm()

    def test_casimir_vacuum_eigenvalue(self, ctx3m):
        v = vacuum(ctx3m)
        out = apply_casimir(v)
        eig = q_number(ctx3m.gamma_total(), ctx3m.q) * ctx3m.c_total()
        assert (out - eig * v).norm() < 1e-12 * abs(eig)


class TestIntertwiner:
    def test_explicit_two_slot_action(self, ctx2m):
        out = apply_intertwiner(1, vacuum(ctx2m))
        q = 0.6
        coeffs = {st.occ: co for st, co in out.terms.items()}
        assert close(coeffs[(1, 0)], q ** (-1.2 / 2) * math.sqrt(q_number(0.8, q)))
        assert close(coeffs[(0, 1)], -math.sqrt(q_number(1.2, q)) * q ** (0.8 / 2))

    def test_commutes_with_lowering(self, ctx3m):
        v = basis_state(ctx3m, (1, 1, 0)) + 0.3 * basis_state(ctx3m, (0, 2, 0))
        for k in (1, 2):
            r = apply_coproduct("a-", apply_intertwiner(k, v)) - apply_intertwiner(
                k, apply_coproduct("a-", v)
            )
            assert r.norm() < 1e-12

    def test_commutes_with_raising(self, ctx3m):
        v = basis_state(ctx3m, (0, 1, 1))
        for k in (1, 2):
            r = apply_coproduct("a+", apply_intertwiner(k, v)) - apply_intertwiner(
                k, apply_coproduct("a+", v)
            )
            assert r.norm() < 1e-12

    def test_raises_weight_by_one(self, ctx2m):
        v = basis_state(ctx2m, (1, 0))
        r = apply_coproduct("e", apply_intertwiner(1, v)) - apply_intertwiner(
            1, apply_coproduct("e", v)
        ) - apply_intertwiner(1, v)
        assert r.norm() < 1e-12

    def test_distinct_copies_commute(self, ctx3m):
        v = basis_state(ctx3m, (1, 0, 1))
        r = apply_intertwiner(1, apply_intertwiner(2, v)) - apply_intertwiner(
            2, apply_intertwiner(1, v)
        )
        assert r.norm() < 1e-12

    def test_monomial_matches_repeated_application(self, ctx3m):
        v = vacuum(ctx3m)
        lhs = apply_monomial((2, 1), v)
        rhs = apply_intertwiner(1, apply_intertwiner(1, apply_intertwiner(2, v)))
        assert (lhs - rhs).norm() < 1e-12

    def test_power_norm_growth(self, ctx2):
        # norm^2 of the k-th power on the vacuum is k! [2 gamma]^k
        tot = q_number(2 * G, Q)
        u = vacuum(ctx2)
        for k in (1, 2, 3):
            u = apply_intertwiner(1, u)
            assert close(u.norm() ** 2, math.factorial(k) * tot ** k)

    def test_index_range_checked(self, ctx2):
        with pytest.raises(ValueError):
            apply_intertwiner(2, vacuum(ctx2))


class TestWeightVector:
    def test_linear_algebra(self, ctx2):
        a = basis_state(ctx2, (1, 0))
        b = basis_state(ctx2, (0, 1))
        v = 2 * a - b
        assert close(v.inner(a), 2.0)
        assert close(v.inner(v), 5.0)
        assert close(v.norm(), math.sqrt(5.0))
        assert (v - v).is_zero()
        assert ((-1.0) * v + v).is_zero()

    def test_inner_is_symmetric_real(self, ctx2m):
        rng = np.random.default_rng(3)
        a = sum(
            (float(c) * basis_state(ctx2m, occ) for c, occ in zip(rng.standard_normal(3), [(0, 1), (1, 0), (1, 1)])),
            WeightVector(ctx2m),
        )
        b = basis_state(ctx2m, (1, 1)) + 0.5 * basis_state(ctx2m, (0, 1))
        assert close(a.inner(b), b.inner(a))

    def test_sector_tracking(self, ctx3m):
        v = vacuum(ctx3m)
        assert {st.perm for st in v.terms} == {ctx3m.identity_perm()}
