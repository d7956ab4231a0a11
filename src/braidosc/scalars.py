"""Coefficient domains shared by every other module.

Two scalar backends coexist.  Generic representation labels force numeric
coefficients (plain float64).  When all tensor factors carry the same label
the braid matrices close over exact Laurent polynomials in a single variable,
which below is always the combination x = q**(-gamma); in that regime the
square-root and bare-q factors appearing in intermediate formulas cancel
identically, so the exact backend carries no rounding error at all.

No exact computation needs a field of fractions.  Exact kernels are read
from a closed product with integer coefficients and never divide; only the
reduced Burau reference divides, by a monomial, which :class:`Laurent`
inverts with a negative power.  :class:`Phase` records the overall
prefactor that is kept out of emitted braid matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction


def _check_size(name, value, low):
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < low:
        raise ValueError("%s must be >= %d, got %r" % (name, low, value))


# ---------------------------------------------------------------------------
# tolerances

@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerance policy.

    ``abs_zero``/``rel_zero`` are the generic comparison pair, the rest are
    task-specific thresholds used by the higher modules.  ``sv_cutoff`` is
    relative to the largest singular value when deciding numerical rank.
    """

    abs_zero: float = 1e-12
    rel_zero: float = 1e-10
    sv_cutoff: float = 1e-10
    kernel_residual: float = 1e-9
    span_residual: float = 1e-8
    eigen: float = 1e-8
    route_match: float = 1e-8
    braid_residual: float = 1e-9
    operator_identity: float = 1e-10


DEFAULT_TOLS = Tolerances()


def close(a, b, *, abs_tol=DEFAULT_TOLS.abs_zero, rel_tol=DEFAULT_TOLS.rel_zero):
    """True when a and b agree to within abs_tol + rel_tol*max(|a|, |b|)."""
    a = float(a)
    b = float(b)
    return abs(a - b) <= abs_tol + rel_tol * max(abs(a), abs(b))


def is_zero(x, *, abs_tol=DEFAULT_TOLS.abs_zero, rel_tol=DEFAULT_TOLS.rel_zero, scale=0.0):
    """Zero test with an optional problem scale for the relative part."""
    return abs(float(x)) <= abs_tol + rel_tol * abs(scale)


# ---------------------------------------------------------------------------
# q-deformed numbers

def q_number(gamma, q, *, classical=False):
    """The symmetric q-number (q**gamma - q**-gamma) / (q - 1/q).

    ``q = 1`` is a removable singularity and is rejected; callers wanting
    the classical limit pass ``classical=True`` and get gamma back.  A
    non-finite q or gamma is rejected.
    Invariant under q -> 1/q.
    """
    if not (math.isfinite(gamma) and math.isfinite(q)):
        raise ValueError("q and gamma must be finite, got q=%r gamma=%r" % (q, gamma))
    if classical:
        return gamma
    if q <= 0:
        raise ValueError("q must be positive, got %r" % (q,))
    if q == 1:
        raise ValueError("q=1 is a removable singularity; use classical=True")
    return (q ** gamma - q ** (-gamma)) / (q - 1 / q)


# ---------------------------------------------------------------------------
# exact Laurent polynomials

def _coerce_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("Laurent coefficients must be exact, got %r" % (value,))


class Laurent:
    """Sparse Laurent polynomial with Fraction coefficients.

    Stored as a dict exponent -> coefficient with no zero entries, after
    the fashion of a sparse polynomial table.  Exponents may be negative.
    Supports ring arithmetic, substitution x -> 1/x, numeric evaluation
    and a stable JSON form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_fraction(c)
                if c:
                    data[int(e)] = c
        self.terms = data

    # -- constructors

    @classmethod
    def const(cls, value):
        return cls({0: value})

    @classmethod
    def x(cls, power=1, coeff=1):
        """The monomial coeff * x**power."""
        return cls({power: coeff})

    # -- queries

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def min_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return min(self.terms)

    def max_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no exponent range")
        return max(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def coeff(self, e):
        return self.terms.get(e, Fraction(0))

    # -- arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, (int, Fraction)):
            return Laurent.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e, Fraction(0)) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        out = Laurent.__new__(Laurent)
        out.terms = data
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Laurent.__new__(Laurent)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = data.get(e, Fraction(0)) + c1 * c2
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        out = Laurent.__new__(Laurent)
        out.terms = data
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # only monomials are units in the Laurent ring
            if not self.is_monomial():
                raise ValueError("negative powers only for monomials")
            ((e, c),) = self.terms.items()
            return Laurent({n * e: c ** n})
        result = Laurent.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitutions and evaluation

    def substitute_inverse(self):
        """Return self with x replaced by 1/x."""
        return Laurent({-e: c for e, c in self.terms.items()})

    def __call__(self, value):
        """Numeric evaluation at x = value."""
        total = 0.0 * value if not isinstance(value, float) else 0.0
        for e, c in self.terms.items():
            total = total + (c.numerator / c.denominator) * value ** e
        return total

    # -- presentation

    def terms_list(self):
        return sorted(self.terms.items())

    def to_json(self):
        return {"terms": [[e, str(c)] for e, c in self.terms_list()]}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): Fraction(c) for e, c in obj["terms"]})

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            if e == 0:
                body = str(c)
            else:
                xs = "x" if e == 1 else "x^%d" % e
                if c == 1:
                    body = xs
                elif c == -1:
                    body = "-" + xs
                else:
                    body = "%s*%s" % (c, xs)
            bits.append(body)
        out = bits[0]
        for b in bits[1:]:
            out += ("+" + b) if not b.startswith("-") else b
        return out

    def __repr__(self):
        return "Laurent(%s)" % str(self)


L_ZERO = Laurent()
L_ONE = Laurent.const(1)
X = Laurent.x()


# ---------------------------------------------------------------------------
# global phase bookkeeping

@dataclass(frozen=True)
class Phase:
    """Overall prefactor kept outside emitted matrix entries.

    total value = (q**(-2*c*gamma)) ** exponent.  Homogeneous builds carry
    one unit of exponent per braid generator, minus one per inverse;
    inhomogeneous builds keep their sector-dependent prefactors inside the
    matrix and leave the phase trivial.
    """

    exponent: int = 0

    def __mul__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.exponent + other.exponent)

    def is_trivial(self):
        return self.exponent == 0

    def value(self, q=None, gamma=None, c=None):
        """Numeric value; q, gamma, c are needed only for a nonzero exponent."""
        if not self.exponent:
            return 1.0
        if q is None or gamma is None or c is None:
            raise ValueError("phase exponent needs q, gamma, c to evaluate")
        return (q ** (-2.0 * c * gamma)) ** self.exponent

    def to_json(self):
        # "factor" is kept in the wire format; a phase has no numeric factor
        return {"exponent": str(self.exponent), "factor": "1.0"}


def numeric_to_json(value):
    """Decimal-string form of a numeric scalar, round-trip safe for floats.

    Every +0.0 shares one string: most entries of many-sector families are 0.
    """
    value = float(value)
    if value == 0.0 and math.copysign(1.0, value) > 0:
        return "0.0"
    return repr(value)
