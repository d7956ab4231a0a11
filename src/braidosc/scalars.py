"""Coefficient domains shared by every other module.

Two scalar backends coexist.  Generic representation labels force numeric
coefficients (plain float64).  When all tensor factors carry the same label
the braid matrices close over exact Laurent polynomials in a single variable,
which below is always the combination x = q**(-gamma); in that regime the
square-root and bare-q factors appearing in intermediate formulas cancel
identically, so the exact backend carries no rounding error at all.

Exact coefficients are integers: the exact families live in Z[x, 1/x].
Exact kernels are read from a closed product with integer coefficients and
never divide; only the reduced Burau reference divides, by the unit x**2,
which :class:`Laurent` inverts with a negative power.  :class:`Phase`
records the overall prefactor that is kept out of emitted braid matrices.

The package's error base class and its dimension counts live here too:
this module needs no numpy, so the command line can count and report
failures without loading it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def _check_integer(name, value):
    """Raise ValueError unless ``value`` is an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))


def _check_real(name, value):
    """Raise ValueError unless ``value`` is a finite real number (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError("%s must be finite and real, got %r" % (name, value))


def _check_size(name, value, low):
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    _check_integer(name, value)
    if value < low:
        raise ValueError("%s must be >= %d, got %r" % (name, low, value))


class BraidoscError(Exception):
    """Base class for failures raised by this package."""


# ---------------------------------------------------------------------------
# dimension counts

def weight_dimension(n, N):
    """Number of occupation patterns with total N over n slots."""
    _check_size("n", n, 1)
    _check_size("N", N, 0)
    return math.comb(n + N - 1, n - 1)


def lowest_weight_dimension(n, N):
    """Dimension of the lowest-weight subspace at level N (per sector)."""
    _check_size("n", n, 2)
    return weight_dimension(n - 1, N)


def counts(n, N):
    """(weight dimension, per-level lowest-weight dimensions 0..N)."""
    total = weight_dimension(n, N)
    return total, [lowest_weight_dimension(n, j) for j in range(N + 1)]


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


def nan_max(*values):
    """The largest value as a float, NaN if any is: ``max`` drops a NaN in all but first place."""
    values = [float(v) for v in values]
    return max(values) if all(v == v for v in values) else math.nan


# ---------------------------------------------------------------------------
# q-deformed numbers

def q_number(gamma, q):
    """The symmetric q-number (q**gamma - q**-gamma) / (q - 1/q).

    ``q = 1`` is a removable singularity and is rejected, as is a q or
    gamma that is not a finite real number.  Invariant under q -> 1/q.
    """
    _check_real("gamma", gamma)
    _check_real("q", q)
    if q <= 0:
        raise ValueError("q must be positive, got %r" % (q,))
    if q == 1:
        raise ValueError("q=1 is a removable singularity")
    return (q ** gamma - q ** (-gamma)) / (q - 1 / q)


# ---------------------------------------------------------------------------
# exact Laurent polynomials

class Laurent:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as a dict exponent -> int coefficient with no zero entries, after
    the fashion of a sparse polynomial table.  Exponents may be negative.
    Supports ring arithmetic, substitution x -> 1/x, numeric evaluation (a
    float) and a stable JSON form; ``coeff`` of a missing exponent is 0.
    Coefficients and exponents are ``numbers.Integral``, numpy ints
    included, stored as ``int``: a rational, float or str raises TypeError,
    and ``from_json`` reads integer strings only.  Only the units +-x**k
    have negative powers; any other raises ValueError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(c, numbers.Integral):
                    raise TypeError("Laurent coefficients must be integers, got %r" % (c,))
                if not isinstance(e, numbers.Integral):
                    raise TypeError("Laurent exponents must be integers, got %r" % (e,))
                if c:
                    data[int(e)] = int(c)
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

    def coeff(self, e):
        return self.terms.get(e, 0)

    # -- arithmetic

    @staticmethod
    def _coerce(other):
        if isinstance(other, Laurent):
            return other
        if isinstance(other, int):
            return Laurent.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self.terms)
        for e, c in other.terms.items():
            s = data.get(e, 0) + c
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
                s = data.get(e, 0) + c1 * c2
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
            # the units of Z[x, 1/x] are +-x**k, each its coefficient's own inverse
            if len(self.terms) != 1 or abs(next(iter(self.terms.values()))) != 1:
                raise ValueError("negative powers only for the units +-x**k")
            ((e, c),) = self.terms.items()
            return Laurent({n * e: c ** -n})
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
            total = total + float(c) * value ** e
        return total

    # -- presentation

    def to_json(self):
        return {"terms": [[e, str(c)] for e, c in sorted(self.terms.items())]}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): int(c) if isinstance(c, str) else c for e, c in obj["terms"]})

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
