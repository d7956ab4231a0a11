"""Deformed oscillator representations and their tensor-product actions.

Each tensor factor carries an irreducible lowest-weight representation
labelled by a pair (gamma, c): on the occupation basis h_0, h_1, ... the
lowering and raising operators act with matrix elements
sqrt([gamma]_q) * sqrt(m), the number-type generator has eigenvalue m + c,
and the central group-like generator has eigenvalue q**(gamma/2).

A state of an n-fold product is a sector (which label sits in which slot)
plus one occupation per slot.  Each operator is one function of a stack
of S sectors, an (S, n) int array, and an int array of occupation rows,
returning its image terms: source row, target sectors (S, n), target rows
and amplitudes (S, terms).  Rows do not depend on the sector, only the
amplitudes do, through each slot's label scalars.  ``weightspace`` places
the terms in matrices by index arithmetic, and the ``apply_*`` functions
run them on the states of a :class:`WeightVector`, one sector at a time.
Braid generators permute the sector; nothing else does.  Public slot and
generator indices are 1-based.  Scalars are plain float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# BraidoscError is defined in scalars and re-exported here
from .scalars import BraidoscError, _check_size, q_number


@dataclass(frozen=True)
class RepLabel:
    """Representation label (gamma, c); both finite, gamma nonzero."""

    gamma: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.c)):
            raise ValueError("label (gamma=%r, c=%r) must be finite" % (self.gamma, self.c))
        if self.gamma == 0:
            raise ValueError("gamma = 0 does not label an irreducible module")


class Context:
    """Immutable bundle of representation labels and the deformation q.

    The labels tuple fixes the available representations; slot contents of
    individual states are permutations of it.  Enforces the hermitian
    regime [gamma]_q > 0 for every label.
    """

    def __init__(self, labels, q):
        self.labels = tuple(labels)
        if not self.labels:
            raise ValueError("need at least one representation label")
        for lab in self.labels:
            if not isinstance(lab, RepLabel):
                raise TypeError("labels must be RepLabel instances")
        if not math.isfinite(q) or q <= 0 or q == 1:
            raise ValueError("q must be finite, positive and different from 1, got %r" % (q,))
        self.q = q
        self.qn = tuple(q_number(lab.gamma, q) for lab in self.labels)
        for lab, qn in zip(self.labels, self.qn):
            if qn <= 0:
                raise ValueError("[gamma]_q <= 0 for label %r at q=%s" % (lab, q))
        self.sqrt_qn = tuple(math.sqrt(v) for v in self.qn)
        self.qg_half = tuple(self.qpow(lab.gamma / 2) for lab in self.labels)
        # one row per label, read by _slot_labels
        self._table = np.array([(lab.gamma, lab.c, *v) for lab, *v in zip(self.labels, self.sqrt_qn, self.qg_half)])
        # label classes, numbered by first occurrence: the class of each
        # label index and the ascending member indices of each class
        first = {}
        classes = [first.setdefault(lab, len(first)) for lab in self.labels]
        self._members = tuple(tuple(i for i, c in enumerate(classes) if c == k) for k in range(len(first)))
        self._class = np.array(classes)
        self._class.flags.writeable = False

    def qpow(self, exponent, inverse=False):
        """q**exponent, or q**-exponent under the q -> 1/q substitution."""
        if inverse:
            exponent = -exponent
        return self.q ** exponent

    # -- structure

    @property
    def n(self):
        return len(self.labels)

    def is_homogeneous(self):
        return len(self._members) == 1

    def gamma_total(self):
        return sum(lab.gamma for lab in self.labels)

    def c_total(self):
        return sum(lab.c for lab in self.labels)

    def canonical_perm(self, perm):
        """Stable representative of an arrangement.

        Permutations that place equal labels identically describe the same
        physical sector; the representative assigns, slot by slot, the
        smallest unused label index with the required value.  With all
        labels equal this collapses every permutation to the identity.
        """
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("arrangement %r is not a permutation of the %d slots" % (perm, self.n))
        free = [iter(members) for members in self._members]
        return tuple(next(free[c]) for c in self._class[list(perm)].tolist())

    def identity_perm(self):
        return tuple(range(self.n))

    def swapped_perm(self, perm, slot):
        """Canonical arrangement after exchanging slots slot, slot+1 (1-based)."""
        g = slot - 1
        lst = list(perm)
        lst[g], lst[g + 1] = lst[g + 1], lst[g]
        return self.canonical_perm(lst)

    def distinct_sectors(self):
        """Sorted canonical arrangements of the label multiset.

        Each label class in turn takes a set of the slots still free and
        fills it with its member indices in ascending order (the last class
        takes the slots left), so every arrangement is built once, already
        canonical.
        """
        *choosing, last = self._members
        stack = np.full((1, self.n), -1)
        for members in choosing:
            free = np.nonzero(stack < 0)[1].reshape(len(stack), -1)
            taken = np.array(list(combinations(range(free.shape[1]), len(members))))
            stack = np.repeat(stack, len(taken), axis=0)
            stack[np.arange(len(stack))[:, None], free[:, taken].reshape(len(stack), -1)] = members
        stack[stack < 0] = np.tile(last, len(stack))
        return sorted(map(tuple, stack.tolist()))


def homogeneous_context(n, gamma, c, q):
    """Context with n equal labels."""
    return Context([RepLabel(gamma, c)] * n, q)


def marked_context(n, base, special, position, q):
    """Context with one distinguished label at the given slot (1-based)."""
    if not 1 <= position <= n:
        raise ValueError("position out of range")
    labels = [base] * n
    labels[position - 1] = special
    return Context(labels, q)


@dataclass(frozen=True)
class TensorState:
    """Product basis state: arrangement plus occupation numbers per slot."""

    perm: tuple
    occ: tuple


class WeightVector:
    """Sparse linear combination of tensor states with real coefficients.

    The inner product treats the states as orthonormal, with states in
    different sectors orthogonal by construction (they live in different
    direct summands).
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for st, co in terms.items():
                if co:
                    self.terms[st] = co

    def copy(self):
        out = WeightVector(self.ctx)
        out.terms = dict(self.terms)
        return out

    def is_zero(self):
        return not self.terms

    def add_term(self, state, coeff):
        s = self.terms.get(state, 0) + coeff
        if s:
            self.terms[state] = s
        else:
            self.terms.pop(state, None)

    def __add__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ValueError("vectors from different contexts")
        out = self.copy()
        for st, co in other.terms.items():
            out.add_term(st, co)
        return out

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        out = WeightVector(self.ctx)
        for st, co in self.terms.items():
            v = co * scalar
            if v:
                out.terms[st] = v
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self

    def inner(self, other):
        """Euclidean pairing in the orthonormal tensor basis (real)."""
        if len(other.terms) < len(self.terms):
            return other.inner(self)
        total = 0.0
        for st, co in self.terms.items():
            oc = other.terms.get(st)
            if oc is not None:
                total += co * oc
        return total

    def norm(self):
        return math.sqrt(self.inner(self)) if self.terms else 0.0

    def sectors(self):
        return sorted({st.perm for st in self.terms})

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: (kv[0].perm, kv[0].occ))
        return {
            "context": {
                "labels": [[lab.gamma, lab.c] for lab in self.ctx.labels],
                "q": float(self.ctx.q),
            },
            "terms": [
                {"assignment": list(st.perm), "occ": list(st.occ), "coeff": repr(float(co))}
                for st, co in items
            ],
        }

    def __repr__(self):
        bits = ", ".join(
            "%s%s: %.6g" % (st.occ, "" if st.perm == self.ctx.identity_perm() else st.perm, co)
            for st, co in sorted(self.terms.items(), key=lambda kv: (kv[0].perm, kv[0].occ))
        )
        return "WeightVector{%s}" % bits


def basis_state(ctx, occ, perm=None):
    """Unit vector for the given occupations (and optional arrangement)."""
    occ = tuple(occ)
    if len(occ) != ctx.n:
        raise ValueError("bad occupation tuple %r" % (occ,))
    for m in occ:
        _check_size("occupation", m, 0)
    perm = ctx.identity_perm() if perm is None else ctx.canonical_perm(perm)
    return WeightVector(ctx, {TensorState(perm, tuple(int(m) for m in occ)): 1.0})


def vacuum(ctx, perm=None):
    """All slots in their ground state."""
    return basis_state(ctx, (0,) * ctx.n, perm)


def _act(op, vec):
    """Run ``op(sectors, rows)``, which returns the image terms of an int array
    of occupation rows, on the states of a vector, one sector at a time."""
    by_sector = {}
    for st, co in vec.terms.items():
        by_sector.setdefault(st.perm, []).append((st.occ, co))
    out = WeightVector(vec.ctx)
    for perm, items in by_sector.items():
        occs, coeffs = zip(*items)
        src, target, rows, amp = op(np.array([perm]), np.array(occs, np.int64))
        target = tuple(target[0].tolist())
        for row, value in zip(rows.tolist(), (np.take(coeffs, src) * amp[0]).tolist()):
            out.add_term(TensorState(target, tuple(row)), value)
    return out


def _check_generator(gen):
    if gen not in ("a+", "a-", "e", "g+", "g-"):
        raise ValueError("unknown generator %r" % (gen,))


def _qpow_each(ctx, exponents, inverse=False):
    """ctx.qpow of each exponent by Python's pow, which np.power can differ
    from in the last bit, so a sector's scalars do not depend on its stack."""
    return np.array([ctx.qpow(e, inverse) for e in exponents.ravel().tolist()]).reshape(exponents.shape)


def _slot_labels(ctx, sectors, g):
    """gamma, c, [gamma]_q**(1/2) and q**(gamma/2) of slot g (0-based) in each
    sector, as (S, 1) columns."""
    return ctx._table[sectors[:, g]].T[..., None]


def _slot_terms(ctx, gen, g, sectors, occ):
    """One algebra generator on slot g (0-based)."""
    _, c, sqrt_qn, qg_half = _slot_labels(ctx, sectors, g)
    m = occ[:, g]
    if gen in ("a+", "a-"):
        src = np.arange(len(occ)) if gen == "a+" else np.flatnonzero(m)
        rows = occ[src]
        rows[:, g] += 1 if gen == "a+" else -1
        # sqrt of the larger occupation of the pair
        return src, sectors, rows, sqrt_qn * np.sqrt(np.maximum(m[src], rows[:, g]))
    diag = {"e": m + c, "g+": qg_half, "g-": 1 / qg_half}[gen]
    return np.arange(len(occ)), sectors, occ, np.broadcast_to(diag, (len(sectors), len(occ)))


def _coproduct_terms(ctx, gen, sectors, occ):
    """Iterated coproduct of one generator on every slot."""
    shape = (len(sectors), len(occ))
    if gen == "e":
        return np.arange(len(occ)), sectors, occ, np.broadcast_to(occ.sum(axis=1) + ctx.c_total(), shape)
    if gen in ("g+", "g-"):
        # central: eigenvalue q**(+-sum(gamma)/2) on every state
        total = ctx.qpow(ctx.gamma_total() / 2, inverse=(gen == "g-"))
        return np.arange(len(occ)), sectors, occ, np.full(shape, total)
    gamma, _, sqrt_qn, _ = ctx._table[sectors].transpose(2, 0, 1)
    # slot j is dressed with q**(-gamma/2) per earlier slot and q**(+gamma/2) per later one
    exponent = np.array([[sum(g[j + 1:]) - sum(g[:j]) for j in range(ctx.n)] for g in gamma.tolist()]) / 2
    factor = _qpow_each(ctx, exponent) * sqrt_qn
    level = occ if gen == "a-" else occ + 1
    src, slot = np.nonzero(level)
    rows = occ[src]
    rows[np.arange(len(src)), slot] += -1 if gen == "a-" else 1
    return src, sectors, rows, factor[:, slot] * np.sqrt(level[src, slot])


def _intertwiner_terms(ctx, g, sectors, occ):
    """Intertwiner on slots g, g+1 (0-based); see apply_intertwiner."""
    _, _, sqrt_a, qg_a = _slot_labels(ctx, sectors, g)
    _, _, sqrt_b, qg_b = _slot_labels(ctx, sectors, g + 1)
    r = len(occ)
    rows = np.concatenate([occ, occ])
    rows[:r, g] += 1
    rows[r:, g + 1] += 1
    scale = np.repeat(np.hstack([sqrt_b / qg_a, -sqrt_a * qg_b]), r, axis=1)
    return np.arange(2 * r) % r, sectors, rows, np.sqrt(np.concatenate([rows[:r, g], rows[r:, g + 1]])) * scale


def apply_generator(gen, slot, vec):
    """Single-slot action of one algebra generator (slot is 1-based).

    gen is one of "a+", "a-" (ladder), "e" (number plus c), "g+", "g-"
    (the group-like q**(+-gamma/2)).
    """
    ctx = vec.ctx
    if not 1 <= slot <= ctx.n:
        raise ValueError("slot out of range")
    _check_generator(gen)
    return _act(lambda sectors, occ: _slot_terms(ctx, gen, slot - 1, sectors, occ), vec)


def apply_coproduct(gen, vec):
    """Iterated-coproduct action of a generator on the full tensor product.

    For the ladder generators the j-th summand acts on slot j dressed with
    q**(-gamma/2) factors on earlier slots and q**(+gamma/2) on later ones;
    "e" is the plain sum and "g+-" the product over slots.
    """
    _check_generator(gen)
    return _act(lambda sectors, occ: _coproduct_terms(vec.ctx, gen, sectors, occ), vec)


def apply_intertwiner(k, vec):
    """Ladder between lowest-weight levels acting on slots k, k+1 (1-based).

    On a two-slot state h_m (x) h_m' with labels a, b it produces

        q**(-gamma_a/2) sqrt(m+1) sqrt([gamma_b]) h_{m+1} (x) h_{m'}
      - sqrt([gamma_a]) q**(+gamma_b/2) sqrt(m'+1) h_m (x) h_{m'+1}.

    It commutes with the coproduct lowering operator, raises the "e"
    weight by one and leaves the arrangement unchanged.
    """
    ctx = vec.ctx
    if not 1 <= k <= ctx.n - 1:
        raise ValueError("intertwiner index out of range")
    return _act(lambda sectors, occ: _intertwiner_terms(ctx, k - 1, sectors, occ), vec)


def apply_monomial(powers, vec):
    """Apply a product of intertwiners with the given exponents (index k-1)."""
    for k, e in enumerate(powers, start=1):
        for _ in range(e):
            vec = apply_intertwiner(k, vec)
    return vec


def apply_casimir(vec):
    """Quadratic Casimir of the full coproduct algebra.

    Equal to [sum(gamma)]_q * Delta(e) - Delta(a+) Delta(a-); on a lowest
    weight vector of level e it has eigenvalue [sum(gamma)]_q * e.
    """
    ctx = vec.ctx
    qn_total = q_number(ctx.gamma_total(), ctx.q)
    part = apply_coproduct("e", vec) * qn_total
    lowered = apply_coproduct("a-", vec)
    if not lowered.is_zero():
        part = part - apply_coproduct("a+", lowered)
    return part
