"""Scalar domain: q-numbers, Laurent arithmetic, phases."""

import math
from fractions import Fraction

import numpy as np
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
    numeric_to_json,
    q_number,
)


def small_laurent():
    term = st.tuples(st.integers(-4, 4), st.integers(-5, 5))
    return st.lists(term, max_size=5).map(
        lambda ts: sum((Laurent.x(e, c) for e, c in ts), L_ZERO)
    )


def unit_laurent():
    return st.tuples(st.integers(-4, 4), st.sampled_from((1, -1))).map(lambda t: Laurent.x(*t))


def _to_sympy(sp, poly):
    x = sp.Symbol("x")
    return sum((sp.Integer(c) * x ** e for e, c in poly.terms.items()), sp.Integer(0))


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
    @pytest.mark.parametrize("as_numpy", [False, True])
    def test_rejects_non_finite(self, gamma, q, as_numpy):
        if as_numpy:
            gamma, q = np.float32(gamma), np.float32(q)
        with pytest.raises(ValueError, match="finite"):
            q_number(gamma, q)

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
        assert min(p.terms) == -2 and max(p.terms) == 5
        assert p.coeff(-2) == 3 and p.coeff(0) == 0

    def test_monomial_negative_power(self):
        for m in (Laurent.x(3), Laurent.x(-2, -1)):
            assert m ** -1 * m == L_ONE and m ** -3 * m ** 3 == L_ONE
        assert Laurent.x(3, -1) ** -1 == Laurent.x(-3, -1)
        assert type((Laurent.x(3, -1) ** -2).coeff(-6)) is int
        for not_a_unit in (Laurent.x(3, 2), L_ONE + X):
            with pytest.raises(ValueError, match="units"):
                not_a_unit ** -1

    def test_coefficients_are_ints(self):
        p = Laurent({2: np.int64(-3)})
        assert p.terms == {2: -3} and type(p.coeff(2)) is int
        for bad in (Fraction(1, 2), Fraction(2), 1.0, "1"):
            with pytest.raises(TypeError, match="must be integers"):
                Laurent.x(0, bad)

    def test_exponents_are_ints(self):
        p = Laurent({np.int64(3): 2})
        assert p.terms == {3: 2} and type(next(iter(p.terms))) is int
        for bad in (lambda: Laurent.x(0.5), lambda: Laurent({2.9: 1}), lambda: Laurent({"3": 2})):
            with pytest.raises(TypeError, match="exponents must be integers"):
                bad()

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
        p = Laurent.x(-1, 3) + Laurent.x(4, -2)
        assert Laurent.from_json(p.to_json()) == p
        assert p.to_json() == {"terms": [[-1, "3"], [4, "-2"]]}
        with pytest.raises(ValueError):
            Laurent.from_json({"terms": [[0, "1/2"]]})
        with pytest.raises(TypeError):
            Laurent.from_json({"terms": [[0, 2.5]]})

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
        small_laurent(),
        small_laurent(),
        unit_laurent(),
        st.fractions(-4, 4, max_denominator=9).filter(lambda v: abs(v) >= Fraction(1, 4)),
    )
    def test_laurent_operations(self, a, b, u, x0):
        sp = pytest.importorskip("sympy")
        x = sp.Symbol("x")
        A, B, U = _to_sympy(sp, a), _to_sympy(sp, b), _to_sympy(sp, u)
        assert _same(sp, a + b, A + B)
        assert _same(sp, a - b, A - B)
        assert _same(sp, a * b, A * B)
        for k in range(4):
            assert _same(sp, a ** k, A ** k)
        assert _same(sp, u ** -3, U ** -3)
        assert _same(sp, a * u ** -1, A / U)
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

    def test_json(self):
        js = Phase(-1).to_json()
        assert js == {"exponent": "-1", "factor": "1.0"}


class TestHelpers:
    def test_tolerance_defaults(self):
        assert DEFAULT_TOLS.route_match == 1e-8
        assert DEFAULT_TOLS.braid_residual == 1e-9
        assert DEFAULT_TOLS.operator_identity == 1e-10
        assert isinstance(DEFAULT_TOLS, Tolerances)

    def test_numeric_json_round_trips(self):
        v = 0.1 + 0.2
        assert float(numeric_to_json(v)) == v
