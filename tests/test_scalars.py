"""Scalar domain: q-numbers, Laurent arithmetic, phases."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidosc.scalars import (
    DEFAULT_TOLS,
    L_ONE,
    L_ZERO,
    Laurent,
    Phase,
    Tolerances,
    X,
    close,
    is_zero,
    numeric_to_json,
    q_number,
)


def small_laurent():
    term = st.tuples(st.integers(-4, 4), st.integers(-5, 5))
    return st.lists(term, max_size=5).map(
        lambda ts: sum((Laurent.x(e, c) for e, c in ts), L_ZERO)
    )


def fraction_laurent():
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return st.dictionaries(st.integers(-4, 4), coeff, max_size=5).map(Laurent)


def _to_sympy(sp, poly):
    x = sp.Symbol("x")
    return sum(
        (sp.Rational(c.numerator, c.denominator) * x ** e for e, c in poly.terms.items()),
        sp.Integer(0),
    )


def _same(sp, poly, expr):
    return sp.expand(_to_sympy(sp, poly) - expr) == 0


class TestQNumber:
    def test_unit_gamma_is_one(self):
        assert close(q_number(1.0, 0.37), 1.0)

    def test_two_gamma(self):
        q = 0.6
        assert close(q_number(2.0, q), q + 1 / q)

    def test_inversion_symmetry(self):
        for q in (0.3, 0.55, 0.9):
            for g in (0.5, 1.3, 2.7):
                assert close(q_number(g, q), q_number(g, 1 / q))

    def test_classical_limit_flag(self):
        assert q_number(2.5, 0.5, classical=True) == 2.5

    def test_approaches_gamma_near_one(self):
        assert abs(q_number(3.0, 1.0 + 1e-9) - 3.0) < 1e-6

    def test_rejects_bad_deformation(self):
        with pytest.raises(ValueError):
            q_number(1.0, 1.0)
        with pytest.raises(ValueError):
            q_number(1.0, -0.5)

    @pytest.mark.parametrize("gamma, q", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 0.5), (-math.inf, 0.5), (math.inf, 0.5),
    ])
    @pytest.mark.parametrize("classical", [False, True])
    def test_rejects_non_finite(self, gamma, q, classical):
        with pytest.raises(ValueError, match="finite"):
            q_number(gamma, q, classical=classical)

    def test_negative_gamma_negative_value(self):
        assert q_number(-1.0, 0.5) < 0


class TestLaurent:
    def test_zero_terms_dropped(self):
        assert Laurent({3: 0}) == L_ZERO
        assert not L_ZERO
        assert L_ONE

    def test_product_difference_of_squares(self):
        assert (L_ONE + X) * (L_ONE - X) == L_ONE - X ** 2

    def test_min_max_exponents(self):
        p = Laurent.x(-2, 3) + Laurent.x(5, 1)
        assert p.min_exp() == -2 and p.max_exp() == 5
        assert p.coeff(-2) == 3 and p.coeff(0) == 0

    def test_monomial_negative_power(self):
        m = Laurent.x(3, Fraction(2))
        assert m ** -1 == Laurent.x(-3, Fraction(1, 2))
        with pytest.raises(ValueError):
            (L_ONE + X) ** -1

    def test_pow_matches_repeated_product(self):
        p = L_ONE + 2 * X
        assert p ** 3 == p * p * p
        assert p ** 0 == L_ONE

    def test_substitute_inverse_involution(self):
        p = Laurent.x(2) - Laurent.x(-1, 3) + L_ONE
        assert p.substitute_inverse().substitute_inverse() == p
        assert p.substitute_inverse() == Laurent.x(-2) - Laurent.x(1, 3) + L_ONE

    def test_call_evaluates(self):
        p = X ** 2 - 3 * X + L_ONE
        assert close(p(0.5), 0.25 - 1.5 + 1)

    def test_json_round_trip(self):
        p = Laurent.x(-1, Fraction(1, 3)) + Laurent.x(4, -2)
        assert Laurent.from_json(p.to_json()) == p
        assert p.to_json() == {"terms": [[-1, "1/3"], [4, "-2"]]}

    def test_hash_consistent_with_eq(self):
        assert hash(X + L_ONE) == hash(L_ONE + X)
        assert len({X, Laurent.x(1), X + X - X}) == 1

    def test_str_forms(self):
        assert str(L_ZERO) == "0"
        assert str(X ** 2 - L_ONE) in ("x^2-1", "-1+x^2")

    @settings(max_examples=60, deadline=None)
    @given(small_laurent(), small_laurent(), small_laurent())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + L_ZERO == a
        assert a * L_ONE == a
        assert a - a == L_ZERO

    @settings(max_examples=40, deadline=None)
    @given(small_laurent(), small_laurent(), st.floats(0.3, 0.9))
    def test_evaluation_is_ring_morphism(self, a, b, x0):
        lhs = (a * b + a)(x0)
        rhs = a(x0) * b(x0) + a(x0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestSympyOracle:
    """Laurent arithmetic checked against sympy."""

    @settings(max_examples=30, deadline=None)
    @given(
        fraction_laurent(),
        fraction_laurent(),
        st.fractions(-4, 4, max_denominator=9).filter(lambda v: abs(v) >= Fraction(1, 4)),
    )
    def test_laurent_operations(self, a, b, x0):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        A, B = _to_sympy(sp, a), _to_sympy(sp, b)
        assert _same(sp, a + b, A + B)
        assert _same(sp, a - b, A - B)
        assert _same(sp, a * b, A * B)
        for k in range(4):
            assert _same(sp, a ** k, A ** k)
        if a.is_monomial():
            assert _same(sp, a ** -3, A ** -3)
        assert _same(sp, a.substitute_inverse(), A.subs(x, 1 / x))
        exact = A.subs(x, sp.Rational(x0.numerator, x0.denominator))
        scale = sum(abs(c) * abs(x0) ** e for e, c in a.terms.items())
        assert abs(a(x0) - float(exact)) <= 1e-14 * float(scale)


class TestPhase:
    def test_product_accumulates_exponent(self):
        p = Phase(1) * Phase(1)
        assert p.exponent == 2

    def test_value(self):
        q, gamma, c = 0.5, 1.2, 0.7
        assert close(Phase(1).value(q, gamma, c), q ** (-2 * c * gamma))
        assert close(Phase(-1).value(q, gamma, c), q ** (2 * c * gamma))

    def test_trivial(self):
        assert Phase().is_trivial()
        assert not Phase(2).is_trivial()

    def test_json(self):
        js = Phase(-1).to_json()
        assert js == {"exponent": "-1", "factor": "1.0"}


class TestHelpers:
    def test_tolerance_defaults(self):
        assert DEFAULT_TOLS.route_match == 1e-8
        assert DEFAULT_TOLS.braid_residual == 1e-9
        assert DEFAULT_TOLS.operator_identity == 1e-10
        assert isinstance(DEFAULT_TOLS, Tolerances)

    def test_is_zero_scales(self):
        assert is_zero(1e-13)
        assert not is_zero(1e-3)
        assert is_zero(1e-6, scale=1e6)

    def test_numeric_json_round_trips(self):
        v = 0.1 + 0.2
        assert float(numeric_to_json(v)) == v
