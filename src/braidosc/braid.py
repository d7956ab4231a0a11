"""Braid generator actions and matrix construction.

Braid generators act on a neighbouring pair of tensor slots by the
transposed R-matrix of the oscillator Hopf algebra, exchanging the two
slot labels.  Restricted to a lowest-weight subspace they yield finite
matrices, computed here by two deliberately independent routes:

* ``direct``: expand basis vectors in tensor coordinates (occupation
  arrays), apply the two-slot transition formula as matrices built by
  index arithmetic, and re-express the image through a Gram solve
  (numeric backend only).  Sectors share their index pattern and differ
  only in label scalars, so one monomial build covers every sector, and
  each generator is one operator call and one stacked Gram solve;
* ``rewrite``: commute the generator through intertwiner monomials with
  the exchange relations.  Each O_{i-1} or O_{i+1} factor is either kept
  or turned into O_i, and all paths that keep the same numbers a and b
  carry one scalar, so the image of O**p is a closed double sum over
  (a, b) with multiplicity C(p_{i-1}, a) C(p_{i+1}, b); one integer table
  of these terms per generator feeds the exact Laurent backend (signs and
  powers of x) and, in one array pass over the sector stack, every sector
  block of the numeric backend.

Each sigma_i maps every sector into exactly one other, so a numeric matrix
is stored as the sector blocks both routes compute and their target sectors
(_BlockMatrix), an exact one as integer triplets (_ExactMatrix) that answer
their own Laurent rows; each stored form gives its own view, wire form,
identity, product and comparison.

Closed-form families (reduced Burau for level 1, a Lawrence-Krammer-Bigelow
style family for level 2, and the one-marked-slot level-1 family) are
implemented separately again so that each can cross-check the others.

The closed two-slot transition amplitude uses the plain binomial factors
C(m, k) obtained by expanding the R-matrix exponential term by term.  An
alternative closed form uses the multiset coefficient C(m+k-1, m-1); the
two agree on every k <= 1 transition and split at k >= 2, and only the
series variant satisfies the braid relations at level >= 2, so every
action and matrix is built with it.  compare_transition_formulas tabulates
the documented discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scalars import (
    DEFAULT_TOLS,
    L_ONE,
    L_ZERO,
    Laurent,
    Phase,
    _check_integer,
    _check_real,
    _check_size,
    nan_max,
)
from .oscillator import BraidoscError, _act, _qpow_each, _slot_labels
from .weightspace import (
    _occupations,
    _operator_block,
    _rank,
    _sector_major,
    _sector_numbers,
    _weight_matrix,
    lowest_weight_monomials,
    monomial_exponents,
)


class GramSolveError(BraidoscError):
    """The Gram system for the direct route could not be solved."""


# ---------------------------------------------------------------------------
# two-slot transition amplitudes (tensor-coordinate action)

def _braid_closed(ctx, g, inverse, binomial, sectors, occ):
    """Closed-form braid action on slots g, g+1 (0-based).

    Forward: R-matrix on the pair, then swap.  Inverse: swap first, then
    the q -> 1/q R-matrix on the swapped pair (the two orders agree with
    sigma sigma^{-1} = 1; swapping last with q -> 1/q would not).  k quanta
    move from the label on slot a to the one on slot b with amplitude w**k.
    """
    a, b = (g + 1, g) if inverse else (g, g + 1)
    ga, ca, sa, _ = _slot_labels(ctx, sectors, a)
    gb, cb, sb, _ = _slot_labels(ctx, sectors, b)
    src = np.repeat(np.arange(len(occ)), occ[:, a] + 1)
    # k counts the terms of each source row
    k = np.arange(len(src)) - np.searchsorted(src, src)
    f, s = occ[src, a], occ[src, b]
    pref = ctx.qpow(-((f + ca) * gb + (s + cb) * ga), inverse)
    fks = zip(f.tolist(), k.tolist(), s.tolist())
    if binomial == "series":
        bf = np.sqrt([math.comb(m, j) * math.comb(mp + j, mp) for m, j, mp in fks])
    else:
        bf = np.sqrt([math.comb(m + j - 1, m - 1) * math.comb(mp + j, mp) if j else 1 for m, j, mp in fks])
    # (q - 1/q) sqrt([gamma_a][gamma_b]) q**((gamma_b - gamma_a)/2), signed for q on either side
    # of 1 by itself; its square is (1 - q**(-2 gamma_a)) (q**(2 gamma_b) - 1)
    qq = ctx.qpow(1, inverse)
    w = (qq - 1 / qq) * sa * sb * _qpow_each(ctx, (gb - ga) / 2, inverse)
    wk = np.cumprod(np.hstack([np.ones_like(w)] + [w] * int(occ[:, a].max(initial=0))), axis=1)
    rows = occ[src]
    rows[:, b], rows[:, a] = f - k, s + k
    return src, _swapped(ctx, sectors, g), rows, pref * bf * wk[:, k]


def _braid_series(ctx, g, inverse, sectors, occ):
    """Braid action by literal term-by-term series expansion.

    Walks the R-matrix exponential one ladder application at a time and
    applies the diagonal prefactor to each intermediate state; kept free
    of the closed-form binomials on purpose, as an independent oracle.
    The swap happens after the series (forward) or before it (inverse),
    matching the closed form.
    """
    a, b = (g + 1, g) if inverse else (g, g + 1)
    ga, ca, sa, _ = _slot_labels(ctx, sectors, a)
    gb, cb, sb, _ = _slot_labels(ctx, sectors, b)
    qq = ctx.qpow(1, inverse)
    scale, half_b = (qq - 1 / qq) * _qpow_each(ctx, ga / 2, inverse) * sa, _qpow_each(ctx, -gb / 2, inverse)
    src, running, cf, cs, terms = np.arange(len(occ)), np.ones((len(sectors), len(occ))), occ[:, a], occ[:, b], []
    for k in range(int(cf.max(initial=0)) + 1):
        if k:
            live = cf > 0
            src, running, cf, cs = src[live], running[:, live], cf[live], cs[live]
            step = scale * np.sqrt(cf) * half_b * sb * np.sqrt(cs + 1)
            running = running * step / k
            cf, cs = cf - 1, cs + 1
        diag = ctx.qpow(-((cf + ca) * gb + (cs + cb) * ga), inverse)
        terms.append((src, cf, cs, running * diag))
    src, cf, cs, amp = (np.concatenate(t, axis=-1) for t in zip(*terms))
    rows = occ[src]
    rows[:, b], rows[:, a] = cf, cs
    return src, _swapped(ctx, sectors, g), rows, amp


def _swapped(ctx, sectors, g):
    """Canonical sectors after exchanging slots g, g+1 (0-based) of each.

    Only rows whose two slots hold different label classes change: a swap
    within a class canonicalises back to the same row, and a swap across
    classes keeps each class's indices in ascending order.
    """
    pair = sectors[:, g:g + 2]
    classes = ctx._class[pair]
    out = sectors.copy()
    out[:, g:g + 2] = np.where(classes[:, :1] != classes[:, 1:], pair[:, ::-1], pair)
    return out


def _braid_op(ctx, i, inverse, formula):
    """Generator i (1-based) as a function of (sectors, occupation rows)."""
    _check_integer("i", i)
    if not 1 <= i <= ctx.n - 1:
        raise ValueError("generator index out of range")
    _check_formula(formula)
    if formula == "closed":
        return lambda sectors, occ: _braid_closed(ctx, i - 1, inverse, "series", sectors, occ)
    return lambda sectors, occ: _braid_series(ctx, i - 1, inverse, sectors, occ)


def apply_braid_generator(i, vec, *, inverse=False, formula="closed"):
    """Act with braid generator i (1-based) on a tensor-coordinate vector.

    The inverse generator is the q -> 1/q substitution throughout.
    ``formula`` picks the closed two-slot amplitude or the literal series
    expansion.
    """
    return _act(_braid_op(vec.ctx, i, inverse, formula), vec)


def _check_formula(formula):
    if formula not in ("closed", "series"):
        raise ValueError("formula must be 'closed' or 'series', got %r" % (formula,))


def sigma_weight_matrix(ctx, N, i, *, inverse=False, formula="closed"):
    """Matrix of a braid generator on the full weight space, all sectors."""
    _check_size("N", N, 0)
    return _weight_matrix(_braid_op(ctx, i, inverse, formula), ctx, N, N)


def compare_transition_formulas(ctx):
    """Tabulate the two closed-form binomial variants against the series
    on every input with both occupations at most 3.

    Returns a dict with the largest series-vs-multiset deviation on k <= 1
    output components, the first disagreeing element (input occupations,
    k, both values), and the largest series-vs-closed("series") deviation
    overall.  Requires n = 2 contexts for clarity of reporting.
    """
    if ctx.n != 2:
        raise ValueError("transition comparison uses a two-slot context")
    perm = np.array([ctx.identity_perm()])
    occ = np.array([(m, mp) for m in range(4) for mp in range(4)])
    src, _, rows, (closed,) = _braid_closed(ctx, 0, False, "series", perm, occ)
    (multiset,) = _braid_closed(ctx, 0, False, "multiset", perm, occ)[3]
    # closed-form terms run by input and then k; put the series terms in that order
    s_src, _, s_rows, (series,) = _braid_series(ctx, 0, False, perm, occ)
    series = series[np.lexsort((s_rows[:, 0], s_src))]
    k = rows[:, 0] - occ[src, 1]
    # relative deviation: amplitudes are unbounded in the labels
    dev = np.abs(series - multiset) / np.maximum(1.0, np.abs(series))
    t = next(iter(np.flatnonzero((k >= 2) & (dev > 1e-9))), None)
    first_diff = None if t is None else {
        "input_occ": tuple(occ[src[t]].tolist()),
        "k": int(k[t]),
        "output_occ": tuple(rows[t].tolist()),
        "series": float(series[t]),
        "multiset": float(multiset[t]),
    }
    closed_dev = np.sqrt(np.bincount(src, (series - closed) ** 2) / np.bincount(src, series ** 2))
    return {
        "k_le_1_deviation": float(dev[k <= 1].max()),
        "series_vs_closed_deviation": float(closed_dev.max()),
        "first_k_ge_2_difference": first_diff,
    }


# ---------------------------------------------------------------------------
# rewrite route: generators through intertwiner monomials

class BasisElement(NamedTuple):
    """Lowest-weight basis label: sector arrangement plus monomial powers."""

    sector: tuple
    powers: tuple

    def to_json(self):
        return {"sector": list(self.sector), "powers": list(self.powers)}


def _rewrite_table(i, exps):
    """Push braid generator i through every intertwiner monomial in ``exps``.

    Every path through the exchange relations that keeps a of the O_{i-1}
    and b of the O_{i+1} factors of O**p, turning the others into O_i,
    carries the same scalar, so the image of O**p is a double sum over
    (a, b).  Returns int64 arrays with one entry per image term: row (the
    image's position in ``exps``), column, the counts of the five exchange
    factors (O_i, O_{i-1} kept, O_{i-1} turned, O_{i+1} kept, O_{i+1}
    turned) as a 5 x terms array, and multiplicity C(p_{i-1}, a) C(p_{i+1}, b).
    Terms run by column, then a, then b.

    ``exps`` holds every weak composition of N in descending lex order, so
    an image's row is d - 1 - its ascending-lex ``_rank``.
    """
    exps = np.array(exps, np.int64).reshape(len(exps), -1)
    d = len(exps)
    edge = np.zeros((d, 1), np.int64)
    p = np.hstack((edge, exps, edge))  # p[:, k] is the power of O_k, with absent O_0 and O_n
    per = (p[:, i - 1] + 1) * (p[:, i + 1] + 1)
    col = np.repeat(np.arange(d), per)
    left, mid, right = p[col, i - 1], p[col, i], p[col, i + 1]
    a, b = np.divmod(np.arange(len(col)) - np.repeat(np.cumsum(per) - per, per), right + 1)
    image = p[col]
    image[:, i - 1], image[:, i], image[:, i + 1] = a, mid + left - a + right - b, b
    row = d - 1 - _rank(image[:, 1:-1])
    counts = np.stack((mid, a, left - a, b, right - b))
    # C(p, a) for the neighbour powers p <= N that occur
    top = int(p[:, [i - 1, i + 1]].max())
    binom = np.array([[math.comb(x, y) for y in range(top + 1)] for x in range(top + 1)], np.int64)
    return row, col, counts, binom[left, a] * binom[right, b]


def _exchange_factors(ctx, targets, i, inverse):
    """The five exchange factors of generator i on each swapped sector, (S, 5).

    With x_k = q**(-gamma_k) (q -> 1/q for the inverse) and
    g_k = [gamma_k]**(1/2) on slot k of each row of ``targets``, in the
    count order of _rewrite_table.
    """
    gamma, _, sqrt_qn, _ = ctx._table[targets].T  # (n, S) each
    xi, xi1 = _qpow_each(ctx, -gamma[i - 1:i + 1], inverse)
    ones = np.ones(len(targets))
    g = np.vstack((ones, sqrt_qn, ones))  # g[k] on 1-based slot k
    return np.array((
        -xi * xi1,
        g[i + 1] / g[i],
        g[i - 1] * xi / g[i],
        g[i] / g[i + 1],
        xi1 * g[i + 2] / g[i + 1],
    )).T


# ---------------------------------------------------------------------------
# matrix assembly

@dataclass
class BraidMatrix:
    """One braid generator on a lowest-weight space, with basis metadata.

    ``entries`` reads the stored form anew each time (hold a read to use it
    twice): numeric sector blocks (_BlockMatrix) as a read-only float array,
    one sector's block itself, or exact triplets (_ExactMatrix) as Laurent rows.
    Columns are indexed by ``basis`` in the recorded order, and the
    physical generator is phase * entries.  Entries given to the
    constructor (directly, or through ``dataclasses.replace``) become the
    stored form: an array is copied as one dense block, nested lists become
    triplets.  So an edit goes through a new matrix: writing into the array
    raises ValueError, assigning into a row TypeError.  A metadata-only copy
    keeps the stored form, not one dense block, given entries=vars(m)["entries"].
    """

    generator: int
    inverse: bool
    n: int
    N: int
    route: str
    backend: str
    basis: list
    entries: object
    phase: Phase
    q: float | None = None
    labels: tuple | None = None
    solve_residual: float | None = None

    @property
    def dimension(self):
        return len(self.basis)

    def entries_json(self):
        return vars(self)["entries"].to_json()

    def to_json(self):
        out = {
            "generator": self.generator,
            "inverse": self.inverse,
            "entries": self.entries_json(),
        }
        if self.solve_residual is not None:
            out["solve_residual"] = self.solve_residual
        return out


def _read_entries(mat):
    return vars(mat)["entries"].view()


def _store_entries(mat, value):
    if isinstance(value, np.ndarray):
        # a copy: the stored form never aliases an array the caller holds
        value = _BlockMatrix.dense(np.array(value, order="C"))
    elif not isinstance(value, _BlockMatrix):
        value = _exact(value)
    vars(mat)["entries"] = value


# a data descriptor, so the stored form is the only field behind ``entries``
BraidMatrix.entries = property(_read_entries, _store_entries)


def _family(route, n, N, ctx, inverse, entries, sectors, residuals=None):
    """Generators 1 .. n-1 with the given entries on the sector-major basis,
    ``sectors`` times ``monomial_exponents(n, N)``; ctx None is the exact
    backend.  The phase follows build_matrices: one unit per generator,
    minus one per inverse, for homogeneous labels, trivial for others.
    """
    exps = monomial_exponents(n, N)
    basis = [BasisElement(tuple(sec), powers) for sec in sectors for powers in exps]
    phase = Phase(-1 if inverse else 1) if ctx is None or ctx.is_homogeneous() else Phase()
    return [
        BraidMatrix(
            generator=i, inverse=inverse, n=n, N=N, route=route, backend="laurent" if ctx is None else "numeric",
            basis=basis, entries=e, phase=phase, q=None if ctx is None else float(ctx.q),
            labels=None if ctx is None else ctx.labels, solve_residual=r,
        )
        for i, (e, r) in enumerate(zip(entries, residuals or [None] * len(entries)), start=1)
    ]


def _matrices_rewrite(n, N, ctx, inverse):
    exact = ctx is None
    sectors = [tuple(range(n))] if exact else ctx.distinct_sectors()
    exps = monomial_exponents(n, N)
    d = len(exps)
    stack = np.array(sectors)
    sign = -1 if inverse else 1
    entries = []
    for i in range(1, n):
        row, col, counts, mult = _rewrite_table(i, exps)
        if exact:
            # each O_i gives -x**2, each O_{i-1} or O_{i+1} turned into O_i gives x
            power = sign * (2 * counts[0] + counts[2] + counts[4])
            entries.append(_ExactMatrix((d, d), power, row, col, (-1) ** counts[0] * mult))
        else:
            targets = _swapped(ctx, stack, i - 1)
            factors = _exchange_factors(ctx, targets, i, inverse)
            # powers by Python pow, once per distinct factor, gathered by count:
            # np.power can differ in the last bit
            distinct, where = np.unique(factors, return_inverse=True)
            table = np.array([[f ** c for c in range(N + 1)] for f in distinct.tolist()])[where.reshape(factors.shape)]
            ga, ca, _, _ = _slot_labels(ctx, stack, i - 1)
            gb, cb, _, _ = _slot_labels(ctx, stack, i)
            # homogeneous labels keep the constant vacuum factor in the phase
            vacuum = 1.0 if ctx.is_homogeneous() else _qpow_each(ctx, -(ca * gb + cb * ga), inverse)
            blocks = np.zeros((len(sectors), d, d))
            blocks[:, row, col] = mult * math.prod(table[:, k, counts[k]] for k in range(5)) * vacuum
            entries.append(_BlockMatrix(_sector_numbers(targets), blocks))
    return _family("rewrite", n, N, ctx, inverse, entries, sectors)


def _matrices_direct(n, N, ctx, inverse, formula, tols):
    sectors = ctx.distinct_sectors()
    stack = np.array(sectors)
    exps = monomial_exponents(n, N)
    rows = _occupations(N, n)
    # monomial coordinates V and Gram matrices V^T V, one block per sector
    lw = lowest_weight_monomials(ctx, N, "all", tols)
    V, gram = lw.blocks, lw.grams
    # homogeneous labels keep the constant vacuum factor in the phase
    common = float(ctx.qpow(-2 * ctx.labels[0].c * ctx.labels[0].gamma, inverse)) if ctx.is_homogeneous() else 1.0
    entries, residuals = [], []
    for i in range(1, n):
        targets, blocks = _operator_block(_braid_op(ctx, i, inverse, formula), stack, rows, rows)
        t = _sector_numbers(targets)
        image, tV, tgram = blocks @ V, V[t], gram[t]
        tVT = tV.transpose(0, 2, 1)
        try:
            coeffs = np.linalg.solve(tgram, tVT @ image)
            # one step of iterative refinement recovers the digits that
            # the normal equations lose to the squared condition number
            coeffs += np.linalg.solve(tgram, tVT @ (image - tV @ coeffs))
        except np.linalg.LinAlgError as exc:
            raise GramSolveError("singular Gram matrix in direct route, generator %d" % i) from exc
        resid = np.linalg.norm(image - tV @ coeffs, axis=1) / np.maximum(np.linalg.norm(image, axis=1), 1e-300)
        s, m = np.unravel_index(np.argmax(resid), resid.shape)
        worst = float(resid[s, m])
        if not worst <= tols.span_residual:
            raise GramSolveError(
                "braid image leaves the lowest-weight span, residual %.2e: generator %d, sector %r, monomial %r"
                % (worst, i, sectors[s], exps[m])
            )
        entries.append(_BlockMatrix(t, coeffs / common))
        residuals.append(worst)
    return _family("direct", n, N, ctx, inverse, entries, sectors, residuals)


def build_matrices(
    n,
    N,
    *,
    route="rewrite",
    backend=None,
    ctx=None,
    inverse=False,
    formula="closed",
    tols=DEFAULT_TOLS,
):
    """Matrices of all braid generators on the level-N lowest-weight space.

    backend "laurent" (exact, homogeneous, formal x = q**(-gamma)) needs
    no context; backend "numeric" requires a Context.  Homogeneous labels
    keep the constant vacuum factor q**(-2 c gamma) per generator in the
    phase, other labels keep theirs in the entries: phase.value(q, gamma, c)
    * entries is the physical matrix; every route takes its phase and basis
    from _family.  Route "closed_form" is Burau (N = 1) or LKB (N = 2) for
    homogeneous labels, the marked family for one marked label at N = 1.
    ``formula`` ("closed" or "series") picks the two-slot amplitude of the
    direct route.  What a route would ignore raises ValueError: a context
    of another n, formula "series" off the direct route, and homogeneous
    labels on the numeric closed-form route.
    """
    _check_size("n", n, 2)
    _check_size("N", N, 0)
    _check_formula(formula)
    if formula != "closed" and route != "direct":
        raise ValueError("formula %r picks the direct route's amplitude; the %r route ignores it" % (formula, route))
    if backend is None:
        backend = "numeric" if ctx is not None else "laurent"
    if backend not in ("laurent", "numeric"):
        raise ValueError("backend must be 'laurent' or 'numeric', got %r" % (backend,))
    if ctx is not None and n != ctx.n:
        raise ValueError("n does not match the context: n = %d, %d labels" % (n, ctx.n))
    if backend == "laurent":
        if ctx is not None and not ctx.is_homogeneous():
            raise ValueError("exact backend requires homogeneous labels")
        if route not in ("rewrite", "closed_form"):
            raise ValueError("exact backend supports the rewrite or closed_form route")
        ctx = None
    elif ctx is None:
        raise ValueError("numeric backend requires a context")
    if route == "rewrite":
        return _matrices_rewrite(n, N, ctx, inverse)
    if route == "direct":
        return _matrices_direct(n, N, ctx, inverse, formula, tols)
    if route != "closed_form":
        raise ValueError("unknown route %r" % (route,))
    if ctx is not None and ctx.is_homogeneous():
        raise ValueError("homogeneous closed forms are exact: use the laurent backend")
    if ctx is None and N in (1, 2):
        return (closed_form_burau if N == 1 else closed_form_lkb)(n, inverse)
    if ctx is not None and N == 1:
        return closed_form_marked_n1(ctx, inverse)
    raise ValueError("no closed form for %s level %d" % ("homogeneous" if ctx is None else "inhomogeneous", N))


# ---------------------------------------------------------------------------
# closed-form families

def _laurent_identity(d):
    return [[L_ONE if r == c else L_ZERO for c in range(d)] for r in range(d)]


def closed_form_burau(n, inverse=False):
    """Level-1 homogeneous family: the reduced-Burau-type matrices.

    Column convention on the basis w_1 .. w_{n-1} (w_k the k-th
    intertwiner on the vacuum): w_k -> -x**2 w_k, w_{k +- 1} gains x w_k,
    everything else fixed.
    """
    _check_size("n", n, 2)
    xx = Laurent.x(-1) if inverse else Laurent.x(1)
    mats = []
    for i in range(1, n):
        M = _laurent_identity(n - 1)
        r = i - 1
        M[r][r] = -(xx ** 2)
        if r - 1 >= 0:
            M[r][r - 1] = xx
        if r + 1 <= n - 2:
            M[r][r + 1] = xx
        mats.append(_ExactMatrix.from_laurent(M))
    return _family("closed_form", n, 1, None, inverse, mats, [tuple(range(n))])


def _lkb_image(i, a, b, xx):
    """Image pairs of sigma_i on w_{a,b} (a <= b), homogeneous level 2."""
    one = L_ONE
    x1 = xx
    x2 = xx ** 2
    x3 = xx ** 3
    x4 = xx ** 4
    near = {i - 1, i, i + 1}
    if a not in near and b not in near:
        return {(a, b): one}
    if (a, b) == (i, i):
        return {(i, i): x4}
    if (a, b) == (i - 1, i):
        return {(i - 1, i): -x2, (i, i): -x3}
    if (a, b) == (i, i + 1):
        return {(i, i + 1): -x2, (i, i): -x3}
    if (a, b) == (i - 1, i - 1):
        return {(i, i): x2, (i - 1, i): 2 * x1, (i - 1, i - 1): one}
    if (a, b) == (i + 1, i + 1):
        return {(i, i): x2, (i, i + 1): 2 * x1, (i + 1, i + 1): one}
    if (a, b) == (i - 1, i + 1):
        return {(i, i): x2, (i - 1, i): x1, (i, i + 1): x1, (i - 1, i + 1): one}
    if a == i:
        return {(i, b): -x2}
    if b == i:
        return {(a, i): -x2}
    if a == i + 1:
        return {(i, b): x1, (i + 1, b): one}
    if a == i - 1:
        return {(i, b): x1, (i - 1, b): one}
    if b == i + 1:
        return {(a, i): x1, (a, i + 1): one}
    if b == i - 1:
        return {(a, i): x1, (a, i - 1): one}
    raise AssertionError("unhandled pair (%d,%d) for generator %d" % (a, b, i))


def closed_form_lkb(n, inverse=False):
    """Level-2 homogeneous family on the basis w_{a,b}, a <= b <= n-1.

    Basis in word order w_{1,1}, w_{1,2}, ..., matching the monomial
    exponent order of the rewrite route.
    """
    _check_size("n", n, 2)
    xx = Laurent.x(-1) if inverse else Laurent.x(1)
    pairs = [(a, b) for a in range(1, n) for b in range(a, n)]
    pidx = {p: k for k, p in enumerate(pairs)}
    mats = []
    for i in range(1, n):
        M = [[L_ZERO] * len(pairs) for _ in pairs]
        for col, (a, b) in enumerate(pairs):
            for pair, val in _lkb_image(i, a, b, xx).items():
                M[pidx[pair]][col] = val
        mats.append(_ExactMatrix.from_laurent(M))
    return _family("closed_form", n, 2, None, inverse, mats, [tuple(range(n))])


def _marked_case_images(i, k, j, d):
    """Closed-form image of sigma_i on w_k^{(j)}, one marked slot.

    d holds the numeric parameter pack (see closed_form_marked_n1);
    returns a dict (k', j') -> coefficient.  Transcribed case by case
    from the five-way split on the relative position of the marked slot.
    """
    qg1, qg2, d1, d2, d3 = d
    far = {(k, j): d1}
    if i > j + 1 or i < j - 2:
        if k == i:
            return {(i, j): -qg1 ** 2 * d1}
        if k == i + 1:
            return {(i, j): qg1 * d1, (i + 1, j): d1}
        if k == i - 1:
            return {(i - 1, j): d1, (i, j): qg1 * d1}
        return far
    if i == j - 2:
        if k == i:
            return {(i, j): -qg1 ** 2 * d1}
        if k == i + 1:
            return {(i, j): qg1 * d1 / d3, (i + 1, j): d1}
        if k == i - 1:
            return {(i - 1, j): d1, (i, j): qg1 * d1}
        return far
    if i == j - 1:
        if k == i:
            return {(i, j - 1): -qg1 * qg2 * d2}
        if k == i + 1:
            return {(i, j - 1): qg1 * d2, (i + 1, j - 1): d2 / d3}
        if k == i - 1:
            return {(i - 1, j - 1): d2 * d3, (i, j - 1): qg2 * d2 * d3}
        return {(k, j - 1): d2}
    if i == j:
        if k == i:
            return {(i, j + 1): -qg1 * qg2 * d2}
        if k == i + 1:
            return {(i, j + 1): qg2 * d2 * d3, (i + 1, j + 1): d2 * d3}
        if k == i - 1:
            return {(i - 1, j + 1): d2 / d3, (i, j + 1): qg1 * d2}
        return {(k, j + 1): d2}
    if i == j + 1:
        if k == i:
            return {(i, j): -qg1 ** 2 * d1}
        if k == i + 1:
            return {(i, j): qg1 * d1, (i + 1, j): d1}
        if k == i - 1:
            return {(i - 1, j): d1, (i, j): qg1 * d1 / d3}
        return far
    raise AssertionError("unreachable case i=%d j=%d" % (i, j))


def closed_form_marked_n1(ctx, inverse=False):
    """Level-1 family with exactly one marked slot, any n.

    The context must carry n-1 copies of a base label plus one marked
    label.  Basis elements are w_k^{(j)} (intertwiner k on the vacuum of
    the sector with the marked label in slot j), emitted in the same
    sector-major order as the rewrite route so the two are directly
    comparable.
    """
    sizes = [len(members) for members in ctx._members]
    if sorted(sizes) != [1, ctx.n - 1]:
        raise ValueError("marked family needs one label occurring exactly once")
    marked_class = sizes.index(1)
    (special_idx,) = ctx._members[marked_class]
    base_idx = ctx._members[1 - marked_class][0]
    base, special = ctx.labels[base_idx], ctx.labels[special_idx]
    n = ctx.n
    g1, c1 = base.gamma, base.c
    g2, c2 = special.gamma, special.c
    qg1 = ctx.qpow(-g1, inverse)
    qg2 = ctx.qpow(-g2, inverse)
    d1 = ctx.qpow(-2 * c1 * g1, inverse)
    d2 = ctx.qpow(-(c2 * g1 + c1 * g2), inverse)
    d3 = math.sqrt(ctx.qn[base_idx] / ctx.qn[special_idx])
    pack = (qg1, qg2, d1, d2, d3)

    sectors = ctx.distinct_sectors()
    # w_k^{(j)} is row k - 1 of the block of sector[j - 1], whose 1-based slot j holds the special label
    slot = [sec.index(special_idx) + 1 for sec in sectors]
    sector = np.argsort(slot)
    mats = []
    for i in range(1, n):
        target = np.empty(len(sectors), np.intp)
        blocks = np.zeros((len(sectors), n - 1, n - 1))
        for s, j in enumerate(slot):
            for k in range(1, n):
                for (k2, j2), val in _marked_case_images(i, k, j, pack).items():
                    target[s] = sector[j2 - 1]
                    blocks[s, k2 - 1, k - 1] = float(val)
        mats.append(_BlockMatrix(target, blocks))
    return _family("closed_form", n, 1, ctx, inverse, mats, sectors)


# ---------------------------------------------------------------------------
# independent reduced-Burau reference (textbook construction)

def unreduced_burau(n, inverse=False):
    """n x n unreduced Burau matrices over t = x**2.

    Generator i has the 2x2 block [[1-t, t], [1, 0]] at slots (i, i+1);
    the inverse flag substitutes t -> 1/t.
    """
    _check_size("n", n, 2)
    t = Laurent.x(-2) if inverse else Laurent.x(2)
    mats = []
    for i in range(1, n):
        M = _laurent_identity(n)
        r = i - 1
        M[r][r] = L_ONE - t
        M[r][r + 1] = t
        M[r + 1][r] = L_ONE
        M[r + 1][r + 1] = L_ZERO
        mats.append(M)
    return mats


def reduced_burau_reference(n):
    """Reduced Burau matrices on the invariant spanning set t e_j - e_{j+1}.

    Built by exact restriction of the unreduced matrices, solving the
    bidiagonal coordinate system, whose diagonal is the unit t; kept
    independent from both the closed form and the rewrite engine.
    """
    t = Laurent.x(2)
    t_inv = Laurent.x(-2)
    mats = []
    for M in unreduced_burau(n):
        R = [[L_ZERO] * (n - 1) for _ in range(n - 1)]
        for j in range(n - 1):
            # image of u_j = t e_j - e_{j+1} in e-coordinates
            y = [M[r][j] * t - M[r][j + 1] for r in range(n)]
            c = [None] * (n - 1)
            c[0] = y[0] * t_inv
            for r in range(1, n - 1):
                c[r] = (y[r] + c[r - 1]) * t_inv
            if not (-c[n - 2] - y[n - 1]).is_zero():
                raise BraidoscError("burau spanning set is not invariant")
            for r in range(n - 1):
                R[r][j] = c[r]
        mats.append(R)
    return mats


# ---------------------------------------------------------------------------
# level-2 change of basis to pair-indexed coordinates

@dataclass
class PairBasisChange:
    """Change of basis from pair-indexed vectors W_{a,b} to the w_{i,j}."""

    n: int
    s: float
    w_pairs: list
    W_pairs: list
    matrix: np.ndarray
    determinant: float
    condition: float

    @property
    def invertible(self):
        return np.isfinite(self.condition) and self.condition < 1e12


def pair_basis_change(n, s):
    """Expansion of the w_{i,j} through pair vectors W_{a,b}, 1<=a<b<=n.

    Columns are w-pairs (i <= j <= n-1), rows W-pairs; the parameter s is
    a nonzero scalar.  Reported, not asserted: invertibility of the map.
    """
    _check_size("n", n, 2)
    _check_real("s", s)
    if s == 0:
        raise ValueError("s must be nonzero, got %r" % (s,))
    w_pairs = [(i, j) for i in range(1, n) for j in range(i, n)]
    W_pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    Widx = {p: r for r, p in enumerate(W_pairs)}
    M = np.zeros((len(W_pairs), len(w_pairs)))
    for col, (i, j) in enumerate(w_pairs):
        if j == i:
            M[Widx[(i, i + 1)], col] = -2.0
        elif j == i + 1:
            M[Widx[(i, i + 1)], col] = 1.0 / s
            M[Widx[(i, i + 2)], col] = -1.0
            M[Widx[(i + 1, i + 2)], col] = s
        else:
            M[Widx[(i, j + 1)], col] = -1.0
            M[Widx[(i + 1, j + 1)], col] = s
            M[Widx[(i, j)], col] = 1.0 / s
            M[Widx[(i + 1, j)], col] = -1.0
    det = float(np.linalg.det(M))
    cond = float(np.linalg.cond(M))
    return PairBasisChange(n, float(s), w_pairs, W_pairs, M, det, cond)


# ---------------------------------------------------------------------------
# exact matrix algebra, relations, words

class _ExactMatrix:
    """Integer Laurent matrix as canonical sorted triplets, read as Laurent rows.

    ``k``, ``r``, ``c`` and ``v`` are read-only int64 arrays of exponent, row,
    column and nonzero coefficient of each term, sorted by (r, c, k) with no
    duplicates: equal matrices have equal arrays, and each row is one run.
    Indexing and iteration build tuple rows of Laurent entries from their
    runs on each read and keep none, so hold a row to read entry by entry.
    Two matrices compare by their triplets, a matrix and lists entry by entry.
    """

    __slots__ = ("shape", "k", "r", "c", "v")

    def __init__(self, shape, k, r, c, v):
        self.shape = shape
        if len(v):
            # canonical order: sort on one integer key, sum equal keys, drop zeros
            cols = shape[1]
            kmin = int(k.min())
            span = int(k.max()) - kmin + 1
            key = (r * cols + c) * span + (k - kmin)
            order = np.argsort(key, kind="stable")
            key, v = key[order], v[order]
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, v = key[first], np.add.reduceat(v, first)
            keep = v != 0
            key, v = key[keep], v[keep]
            r, c = np.divmod(key // span, cols)
            k = key % span + kmin
        self.k, self.r, self.c, self.v = k, r, c, v
        for a in (k, r, c, v):
            a.flags.writeable = False

    @classmethod
    def from_laurent(cls, entries):
        """Nested lists of Laurent entries, whose coefficients are ints."""
        terms = [(e, r, c, v) for r, row in enumerate(entries) for c, p in enumerate(row) for e, v in p.terms.items()]
        arr = np.array(terms, np.int64).reshape(-1, 4)
        shape = (len(entries), len(entries[0]) if entries else 0)
        return cls(shape, *arr.T.copy())

    def view(self):
        """The matrix itself: it answers its own read-only Laurent rows."""
        return self

    def _rows(self, rows):
        """Tuple Laurent rows for the row indices ``rows``, each built from its run of terms."""
        los, his = (np.searchsorted(self.r, rows, side).tolist() for side in ("left", "right"))
        start = min(los, default=0)
        c, k, v = (a[start:max(his, default=0)].tolist() for a in (self.c, self.k, self.v))
        terms = list(zip(c, k, v))
        for lo, hi in zip(los, his):
            out = [L_ZERO] * self.shape[1]
            for j, e, x in terms[lo - start:hi - start]:
                if out[j] is L_ZERO:
                    out[j] = Laurent.__new__(Laurent)
                    out[j].terms = {}
                out[j].terms[e] = x
            yield tuple(out)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        rows = range(self.shape[0])[i]
        return tuple(self._rows(rows)) if isinstance(i, slice) else next(self._rows([rows]))

    def __iter__(self):
        return self._rows(range(self.shape[0]))

    def __repr__(self):
        return repr(self.to_laurent())

    def to_json(self):
        # zeros share one object; the triplets run by (r, c, k), so each entry's terms come in Laurent.to_json order
        terms = {}
        for k, r, c, v in zip(self.k.tolist(), self.r.tolist(), self.c.tolist(), self.v.tolist()):
            terms.setdefault((r, c), []).append([k, str(v)])
        zero = {"terms": []}
        out = [[zero] * self.shape[1] for _ in range(self.shape[0])]
        for (r, c), t in terms.items():
            out[r][c] = {"terms": t}
        return out

    def identity(self):
        idx = np.arange(self.shape[0], dtype=np.int64)
        return _ExactMatrix((len(idx),) * 2, np.zeros_like(idx), idx, idx, np.ones_like(idx))

    def __matmul__(self, other):
        if not isinstance(other, _ExactMatrix):
            raise ValueError("%s @ %s: exact and numeric do not mix" % (type(self).__name__, type(other).__name__))
        (rows, inner), (inner_b, cols) = self.shape, other.shape
        if inner != inner_b:
            raise ValueError("shape mismatch %r @ %r" % (self.shape, other.shape))
        # every output coefficient is a sum of products bounded by this
        bound = sum(map(abs, self.v.tolist())) * max(map(abs, other.v.tolist()), default=0)
        if bound >= 2 ** 63:
            raise OverflowError("exact matrix product could exceed int64 coefficients")
        # join self's columns with other's rows, each one sorted run
        lo = np.searchsorted(other.r, self.c, "left")
        count = np.searchsorted(other.r, self.c, "right") - lo
        ia = np.repeat(np.arange(len(self.v)), count)
        ib = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(ia))
        return _ExactMatrix(
            (rows, cols),
            self.k[ia] + other.k[ib],
            self.r[ia],
            other.c[ib],
            self.v[ia] * other.v[ib],
        )

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == tuple(b) for a, b in zip(self, other))
        if not isinstance(other, _ExactMatrix):
            return NotImplemented
        mine, theirs = (self.k, self.r, self.c, self.v), (other.k, other.r, other.c, other.v)
        return self.shape == other.shape and all(map(np.array_equal, mine, theirs))

    def max_diff(self, other):
        """(defect, 1.0): 0.0 if equal, else max |self - other| at x = 0.7 or,
        where that is 0, the largest coefficient of the difference."""
        if self == other:
            return 0.0, 1.0
        at = float(np.max(np.abs(self.at(0.7) - other.at(0.7))))
        if at:
            return at, 1.0
        # unequal sides can agree at x = 0.7, but not in every coefficient
        mine, theirs = (self.k, self.r, self.c, self.v), (other.k, other.r, other.c, -other.v)
        diff = _ExactMatrix(self.shape, *map(np.concatenate, zip(mine, theirs)))
        return float(np.max(np.abs(diff.v))), 1.0

    def at(self, x0):
        """Dense float values at x = x0."""
        rows, cols = self.shape
        vals = self.v * float(x0) ** self.k.astype(float)
        return np.bincount(self.r * cols + self.c, vals, rows * cols).reshape(rows, cols)

    def to_laurent(self):
        return list(map(list, self))

    def identity_defect(self):
        return self.max_diff(self.identity())[0]


def _exact(entries):
    """An _ExactMatrix as is, or one read from nested Laurent lists."""
    return entries if isinstance(entries, _ExactMatrix) else _ExactMatrix.from_laurent(entries)


class _BlockMatrix:
    """Float matrix that maps each column sector into one row sector.

    Column sector s has its only nonzero block, ``blocks[s]``, in row
    sector ``target[s]``.  Both numeric routes and the marked closed form
    store this form; an array given to BraidMatrix is one block (``target ==
    [0]``), so every float matrix has it.  A family's blocks own read-only memory.
    """

    __slots__ = ("target", "blocks")

    def __init__(self, target, blocks):
        blocks.flags.writeable = False
        self.target, self.blocks = target, blocks

    @staticmethod
    def dense(array):
        """A dense array's stored form: one block with target [0], a view that makes the array read-only."""
        array.flags.writeable = False
        return _BlockMatrix(np.zeros(1, np.intp), array[None])

    def identity(self):
        """The identity with this matrix's sectors."""
        sectors, size, _ = self.blocks.shape
        return _BlockMatrix(np.arange(sectors), np.broadcast_to(np.eye(size), self.blocks.shape))

    def view(self):
        """The read-only sector-major array, new on each read; one sector's is its block."""
        dense = self.blocks[0] if len(self.target) == 1 else _sector_major(self.blocks, self.target)
        dense.flags.writeable = False
        return dense

    def to_json(self):
        """Wire form: ``numeric_to_json`` of each entry, reading only the
        blocks; every +0.0 shares one string."""
        blocks = self.blocks
        count, rows, cols = blocks.shape
        out = [["0.0"] * (count * cols) for _ in range(count * rows)]
        s, r, c = np.nonzero((blocks != 0) | np.signbit(blocks))
        for i, j, v in zip((self.target[s] * rows + r).tolist(), (s * cols + c).tolist(), blocks[s, r, c].tolist()):
            out[i][j] = repr(v)
        return out

    def __matmul__(self, other):
        if not isinstance(other, _BlockMatrix):
            raise ValueError("%s @ %s: exact and numeric do not mix" % (type(self).__name__, type(other).__name__))
        if len(self.target) != len(other.target):
            return _BlockMatrix.dense(self.view()) @ _BlockMatrix.dense(other.view())
        return _BlockMatrix(self.target[other.target], self.blocks[other.target] @ other.blocks)

    def max_diff(self, other):
        """Largest entry of |self - other|, and the largest of |self| and |other| (equal sector counts)."""
        mine, theirs = (np.abs(m.blocks).reshape(len(m.blocks), -1).max(axis=1) for m in (self, other))
        diff = self.blocks - other.blocks
        same = np.abs(diff, out=diff).reshape(len(diff), -1).max(axis=1)
        # a column sector whose targets differ holds both blocks, apart
        diff = np.where(self.target == other.target, same, np.maximum(mine, theirs))
        return float(np.max(diff)), float(max(np.max(mine), np.max(theirs)))

    def identity_defect(self):
        """Largest entry of |self - 1|, no identity built; a sector mapped elsewhere counts max(|block|, 1)."""
        diff = self.blocks - np.eye(self.blocks.shape[1])
        worst = np.abs(diff, out=diff).reshape(len(diff), -1).max(axis=1)
        moved = self.target != np.arange(len(self.target))
        worst[moved] = np.maximum(np.abs(self.blocks[moved]).max(axis=(1, 2)), 1.0)
        return float(np.max(worst))


def _operand(mat):
    """A family member's stored form; a stand-in's nested Laurent lists are converted."""
    stored = vars(mat)["entries"]
    return stored if isinstance(stored, _BlockMatrix) else _exact(stored)


def lmat_mul(A, B):
    """The _ExactMatrix product of two exact matrices, each an _ExactMatrix or nested Laurent lists."""
    return _exact(A) @ _exact(B)


def lmat_eq(A, B):
    """Entrywise equality; two _ExactMatrix compare by their triplets."""
    return A == B


def braid_relation_defect(mats):
    """Worst braid/far-commutation defect for a generator family.

    For numeric families returns the largest relative residual.  Laurent
    families give 0.0 on exact equality; otherwise the largest absolute
    difference of the two sides at x = 0.7, or where that is zero the
    largest absolute coefficient of their difference, so always > 0.
    """
    if not mats:
        raise ValueError("empty generator family")
    n = mats[0].n
    if sorted(m.generator for m in mats) != list(range(1, n)):
        raise ValueError("a family lists generators 1 .. %d once each, got %r" % (n - 1, [m.generator for m in mats]))
    by_gen = {m.generator: _operand(m) for m in mats}
    worst = 0.0
    for i in range(1, n - 1):
        A, B = by_gen[i], by_gen[i + 1]
        worst = nan_max(worst, _defect(A @ B @ A, B @ A @ B))
    for i in range(1, n):
        for j in range(i + 2, n):
            A, B = by_gen[i], by_gen[j]
            worst = nan_max(worst, _defect(A @ B, B @ A))
    return worst


def _defect(lhs, rhs):
    diff, scale = lhs.max_diff(rhs)
    return diff / max(scale, 1e-300)


def inverse_defect(fwd, inv):
    """Deviation of sigma * sigma^{-1} from the identity, per generator.

    The two families must list the same generators in the same order.
    For numeric families the result is absolute, the largest entry of
    |sigma sigma^{-1} - 1|, not relative like braid_relation_defect's, so
    families with large entries can exceed a fixed tolerance on rounding
    alone.  Laurent families compare as in braid_relation_defect.
    """
    worst = 0.0
    for mf, mi in zip(fwd, inv, strict=True):
        if mf.generator != mi.generator:
            raise ValueError("mismatched generator lists")
        if (mf.phase * mi.phase).exponent != 0:
            raise BraidoscError("phases fail to cancel in inverse product")
        worst = nan_max(worst, (_operand(mf) @ _operand(mi)).identity_defect())
    return worst


def evaluate_word(word, forward, inverse):
    """Ordered product for a braid word (letters applied left to right).

    Positive letter k means generator k, negative its inverse; the
    returned pair is (entries, phase) with the leftmost letter acting
    first, i.e. the product M(w_L) ... M(w_1).  Entries are a new float
    array, or for an exact family the product's _ExactMatrix, which reads
    as Laurent rows, equals nested lists and gives them by ``to_laurent()``.
    """
    total, phase = _word_product(word, forward, inverse)
    return (total if isinstance(total, _ExactMatrix) else _sector_major(total.blocks, total.target)), phase


def _word_product(word, forward, inverse):
    """evaluate_word with the product in its stored form, blocks or an _ExactMatrix."""
    if not forward:
        raise ValueError("empty generator family")
    by_gen_f = {m.generator: m for m in forward}
    by_gen_i = {m.generator: m for m in inverse} if inverse else {}
    total = None
    phase = Phase()
    for letter in word:
        _check_integer("word letter", letter)
        mat = by_gen_f.get(letter) if letter > 0 else by_gen_i.get(-letter)
        if mat is None:
            raise ValueError(
                "word letter %r names no generator: letters are nonzero, |letter| <= %d, "
                "and negative letters need the inverse family" % (letter, len(forward))
            )
        total = _operand(mat) if total is None else _operand(mat) @ total
        phase = mat.phase * phase
    return (_operand(forward[0]).identity() if total is None else total), phase


def family_to_json(mats):
    """Wire format for one generator family (common metadata hoisted)."""
    if not mats:
        raise ValueError("empty generator family")
    first = mats[0]
    for field in ("n", "N", "labels", "q", "route", "backend", "phase", "basis"):
        if any(getattr(m, field) != getattr(first, field) for m in mats):
            raise BraidoscError("generator family with inconsistent %s" % field)
    return {
        "n": first.n,
        "N": first.N,
        "labels": None
        if first.labels is None
        else [[lab.gamma, lab.c] for lab in first.labels],
        "q": first.q,
        "route": first.route,
        "backend": first.backend,
        "basis": [el.to_json() for el in first.basis],
        "phase": first.phase.to_json(),
        "matrices": [m.to_json() for m in mats],
    }
