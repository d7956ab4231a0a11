"""Fixed-weight subspaces and their lowest-weight substructure.

A weight space collects, per sector, every occupation pattern with a fixed
total.  Inside it, lowest-weight vectors are the kernel of the coproduct
lowering operator; the same space is spanned by monomials in the slot
intertwiners applied to the vacuum.  Both constructions are provided so
they can be cross-checked, together with the Casimir block decomposition
of the full weight space.

``_occupations`` lists a level's weak compositions in ascending lex order,
and ``_rank`` gives any composition's position in that list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

# the counts are defined in scalars, which needs no numpy, and re-exported here
from .scalars import (
    DEFAULT_TOLS,
    L_ZERO,
    BraidoscError,
    Laurent,
    _check_size,
    counts,
    lowest_weight_dimension,
    q_number,
    weight_dimension,
)
from .oscillator import (
    TensorState,
    WeightVector,
    _coproduct_terms,
    _intertwiner_terms,
    basis_state,
)


class DimensionMismatchError(BraidoscError):
    """A computed dimension disagrees with the combinatorial count."""


def compositions(total, parts):
    """Weak compositions of ``total`` into ``parts`` slots, ascending lex."""
    return list(map(tuple, _occupations(total, parts).tolist()))


def monomial_exponents(n, N):
    """Intertwiner exponent tuples of total degree N, in word order.

    Word order reads a monomial as the sorted string of its indices, so
    for n=3, N=2 the order is (2,0), (1,1), (0,2), matching the
    conventional listing O_1 O_1, O_1 O_2, O_2 O_2: descending lex.
    """
    return compositions(N, n - 1)[::-1]


@dataclass
class WeightSpaceBasis:
    """Ordered occupation states of one weight space.

    ``sector`` is a canonical arrangement, or the string "all" when the
    basis runs over every distinct arrangement (sector-major order).
    """

    ctx: object
    N: int
    sector: object
    states: list

    def __len__(self):
        return len(self.states)

    def index(self):
        return {st: i for i, st in enumerate(self.states)}


def _sectors(ctx, sector):
    """Name and (S, n) int array of the canonical sectors that ``sector``
    names: one arrangement (the identity for None) or "all" of them."""
    if sector == "all":
        return "all", np.array(ctx.distinct_sectors()).reshape(-1, ctx.n)
    perm = ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)
    return perm, np.array([perm])


def weight_basis(ctx, N, sector=None):
    """Enumerate the weight space basis, occupations in ascending lex."""
    _check_size("N", N, 0)
    label, sectors = _sectors(ctx, sector)
    occs = compositions(N, ctx.n)
    states = [TensorState(perm, occ) for perm in map(tuple, sectors.tolist()) for occ in occs]
    return WeightSpaceBasis(ctx, N, label, states)


def coordinates(vec, basis):
    """Dense coordinate array of a vector over a basis or a state list."""
    return _coordinate_matrix([vec], basis, 1, "F")[:, 0]


def _coordinate_matrix(vectors, basis, count, order):
    """Coordinates of the count vectors, read one at a time, as the columns
    of a len(basis) x count array in the given memory order ("C" or "F")."""
    idx = basis.index() if isinstance(basis, WeightSpaceBasis) else {s: i for i, s in enumerate(basis)}
    out = np.zeros((len(idx), count), order=order)
    for row, vec in zip(out.T, vectors):
        for st, co in vec.terms.items():
            try:
                row[idx[st]] = float(co)
            except KeyError:
                raise BraidoscError("vector has support outside the basis: %r" % (st,))
    return out


def from_coordinates(ctx, coords, basis):
    """Vector with one term per nonzero coordinate over a basis or a state list."""
    states = basis.states if isinstance(basis, WeightSpaceBasis) else basis
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (len(states),):
        raise ValueError("one coordinate per state: %d states, coordinates of shape %r" % (len(states), coords.shape))
    nonzero = np.flatnonzero(coords)
    vec = WeightVector(ctx)
    vec.terms = {states[i]: c for i, c in zip(nonzero.tolist(), coords[nonzero].tolist())}
    return vec


def operator_matrix(op, domain, codomain):
    """Matrix of a state-to-vector map between orthonormal state bases."""
    images = (op(basis_state(domain.ctx, st.occ, st.perm)) for st in domain.states)
    return _coordinate_matrix(images, codomain, len(domain), "C")


def _occupations(N, n):
    """Weak compositions of N into n slots as int64 rows, ascending lex.

    Stars and bars: ``combinations_with_replacement`` lists the numbers of
    stars before the n - 1 bars in lex order, which is ascending lex order
    of the parts.
    """
    if N < 0 or n == 0:
        return np.zeros((int(N == n == 0), n), np.int64)
    count = math.comb(N + n - 1, n - 1)
    stars = np.zeros((count, n + 1), np.int64)
    stars[:, n] = N
    chain = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(N + 1), n - 1))
    stars[:, 1:n] = np.fromiter(chain, np.int64, count * (n - 1)).reshape(count, n - 1)
    return stars[:, 1:] - stars[:, :-1]


def _rank(rows):
    """Ascending-lex position of each row among the compositions of its total.

    The rows are nonnegative and share one total.  With suffix sums R_j =
    p_j + ... + p_{m-1} (R_m = 0) the position is the sum over j of
    C(R_j + m-1-j, R_j) - C(R_{j+1} + m-1-j, R_{j+1}), which Pascal's rule
    telescopes to d - 1 - sum_{j >= 1} C(R_j + m-1-j, m-j), d the level
    size: one binomial per slot, none larger than d.
    """
    m = rows.shape[1]
    R = rows[:, ::-1].cumsum(axis=1)  # R[:, t] = R_j for j = m-1-t
    # comb[s][t] = C(s + t - 1, t): a zero row, a row of ones, then each row the running sum of the last
    comb = [[0] * (m + 1), [1] * (m + 1)]
    for _ in range(R[0, -1] if R.size else 0):
        comb.append(list(itertools.accumulate(comb[-1])))
    # comb[R_j][m - j] = C(R_j + m-1-j, m-j), and comb[total + 1][m - 1] = d (1 if m = 0)
    return comb[-1][m - 1] - 1 - np.array(comb, np.int64)[R[:, :-1], np.arange(1, m)].sum(axis=1)


def _operator_block(op, sectors, dom, cod):
    """Target sectors and matrix blocks of an operator on the rows ``dom`` of
    each sector of an (S, n) stack.

    ``op`` gives each (target, source) pair once, its rows shared by every
    sector and one amplitude per sector.  ``cod`` is a whole level in
    ascending lex order, so each target row sits at its ``_rank``: one call
    places all S blocks of the (S, len(cod), len(dom)) result.
    """
    src, targets, rows, amp = op(sectors, dom)
    total = int(cod[0].sum()) if len(cod) else -1
    if (rows.sum(axis=1) != total).any() or rows.min(initial=0) < 0:
        raise BraidoscError("operator image leaves the codomain")
    blocks = np.zeros((len(sectors), len(cod), len(dom)))
    blocks[:, _rank(rows), src] = amp
    return targets, blocks


def _weight_matrix(op, ctx, N, M):
    """Matrix of an operator from level N to level M over every sector, sector-major."""
    dom, cod = _occupations(N, ctx.n), _occupations(M, ctx.n)
    targets, blocks = _operator_block(op, np.array(ctx.distinct_sectors()), dom, cod)
    return _sector_major(blocks, _sector_numbers(targets))


def _sector_major(blocks, targets=None):
    """New sector-major matrix whose column sector s holds ``blocks[s]`` in
    row sector ``targets[s]`` (s by default)."""
    count, rows, cols = blocks.shape
    out = np.zeros((count, rows, count, cols))
    out[np.arange(count) if targets is None else targets, :, np.arange(count)] = blocks
    return out.reshape(count * rows, count * cols)


def _sector_numbers(targets):
    """Sector number of each row of a generator's (S, n) targets, which permute ``distinct_sectors()``: its lex rank."""
    return np.argsort(np.lexsort(targets.T[::-1]))


def _coproduct_block(ctx, gen, sector, N, M):
    """Coproduct generator ``gen`` from level N to level M (-1 is empty) of one sector."""
    dom, cod = _occupations(N, ctx.n), _occupations(M, ctx.n)
    return _operator_block(lambda s, occ: _coproduct_terms(ctx, gen, s, occ), np.array([sector]), dom, cod)[1][0]


@dataclass
class LowestWeightBasis:
    """Basis of the lowest-weight subspace at one level, one block per sector.

    ``blocks[s]`` holds the basis vectors of sector s of
    ``weight_basis(ctx, N, sector)`` as columns over its states, and
    ``grams[s]`` their Gram matrix; ``gram``, the block-diagonal Gram matrix
    over the whole basis, is the view the benchmark's tracer reads.  The
    kernel route returns an orthonormal family (gram = identity), the
    monomial route the unnormalized monomial vectors in ``monomial_exponents`` order.
    """

    ctx: object
    N: int
    sector: object
    grams: np.ndarray
    blocks: np.ndarray

    @property
    def gram(self):
        return _sector_major(self.grams)

    @property
    def vectors(self):
        """The basis vectors as tensor-coordinate vectors, read block by block."""
        states = weight_basis(self.ctx, self.N, self.sector).states
        size = self.blocks.shape[1]
        return [
            from_coordinates(self.ctx, col, states[s * size:(s + 1) * size])
            for s, block in enumerate(self.blocks) for col in block.T
        ]


def lowest_weight_kernel(ctx, N, sector=None, tols=DEFAULT_TOLS):
    """Lowest-weight vectors as the numeric kernel of the lowering map.

    Uses an SVD with singular values below sv_cutoff * max treated as
    zero; the returned vectors are orthonormal.  Raises
    DimensionMismatchError if the kernel dimension is not the stars-and-
    bars count.
    """
    expected = lowest_weight_dimension(ctx.n, N)
    sector = ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)
    A = _coproduct_block(ctx, "a-", sector, N, N - 1)
    _, svals, vt = np.linalg.svd(A)
    cut = tols.sv_cutoff * (svals[0] if len(svals) else 1.0)
    rank = int(np.sum(svals > cut))
    null = vt[rank:].conj()
    if null.shape[0] != expected:
        raise DimensionMismatchError(
            "kernel dimension %d != expected %d at n=%d N=%d"
            % (null.shape[0], expected, ctx.n, N)
        )
    return LowestWeightBasis(ctx, N, sector, np.eye(expected)[None], null.T[None])


def lowest_weight_monomials(ctx, N, sector=None, tols=DEFAULT_TOLS):
    """Lowest-weight basis from intertwiner monomials on the vacuum.

    ``sector`` is one arrangement or "all": every sector's block comes out
    of one batched product per intertwiner and level.  Validates, sector by
    sector, that every monomial vector is annihilated by the coproduct
    lowering operator (relative residual) and that the Gram matrix is
    positive definite; vectors are kept unnormalized.
    """
    _check_size("n", ctx.n, 2)
    _check_size("N", N, 0)
    label, sectors = _sectors(ctx, sector)
    *_, V = _monomial_levels(ctx, N, sectors)
    return LowestWeightBasis(ctx, N, label, _monomial_grams(ctx, N, sectors, V, tols), V)


def _monomial_levels(ctx, N, sectors):
    """The monomial blocks of levels 0..N in turn, each stepped once from the last."""
    levels = [_occupations(j, ctx.n) for j in range(N + 1)]
    V = np.ones((len(sectors), 1, 1))  # the vacuum, the one monomial of degree 0
    yield V
    for j, (lo, hi) in enumerate(zip(levels, levels[1:])):
        exps = np.array(monomial_exponents(ctx.n, j + 1)).reshape(-1, ctx.n - 1)
        # apply_monomial applies the largest k with p_k > 0 last: O**p = O_k O**(p - e_k)
        last = ctx.n - 2 - np.argmax(exps[:, ::-1] > 0, axis=1)
        exps[np.arange(len(exps)), last] -= 1
        prev = V.shape[2] - 1 - _rank(exps)
        out = np.empty((len(sectors), len(hi), len(exps)))
        for k in range(ctx.n - 1):
            cols = np.flatnonzero(last == k)
            O = _operator_block(lambda s, occ: _intertwiner_terms(ctx, k, s, occ), sectors, lo, hi)[1]
            out[:, :, cols] = O @ V[:, :, prev[cols]]
        V = out
        yield V


def _monomial_grams(ctx, N, sectors, V, tols):
    """Gram matrices of the level-N monomial blocks V, checked positive definite once V lowers to zero."""
    lower = _operator_block(lambda s, occ: _coproduct_terms(ctx, "a-", s, occ), sectors, _occupations(N, ctx.n),
                            _occupations(N - 1, ctx.n))[1]
    residuals = np.linalg.norm(lower @ V, axis=1) / np.linalg.norm(V, axis=1)
    s, m = np.unravel_index(np.argmax(residuals), residuals.shape)
    if not residuals[s, m] <= tols.kernel_residual:
        raise BraidoscError("monomial %r of sector %r not annihilated by lowering, residual %.2e"
                            % (monomial_exponents(ctx.n, N)[m], tuple(sectors[s].tolist()), residuals[s, m]))
    grams = V.transpose(0, 2, 1) @ V
    eigs = np.linalg.eigvalsh(grams)
    singular = ~(eigs[:, 0] > tols.sv_cutoff * np.maximum(eigs[:, -1], 1.0))
    if singular.any():
        raise BraidoscError("monomial Gram matrix of sector %r is numerically singular"
                            % (tuple(sectors[np.argmax(singular)].tolist()),))
    return grams


def span_residual(vectors, others):
    """Largest relative projection defect of ``vectors`` onto span(others);
    a zero vector in ``vectors`` has none and raises ValueError."""
    if not vectors:
        return 0.0
    states = sorted({st for v in list(vectors) + list(others) for st in v.terms})
    V = _coordinate_matrix(vectors, states, len(vectors), "F")
    W = _coordinate_matrix(others, states, len(others), "F")
    norms = np.linalg.norm(V, axis=0)
    if not norms.all():
        raise ValueError("span_residual: vector %d is zero" % int(np.argmin(norms)))
    Q = np.linalg.svd(W, full_matrices=False)[0]
    defect = V - Q @ (Q.T @ V)
    return float((np.linalg.norm(defect, axis=0) / norms).max())


# ---------------------------------------------------------------------------
# Casimir block decomposition of a full weight space

@dataclass
class DecompositionReport:
    """Outcome of the level decomposition of one weight space."""

    n: int
    N: int
    weight_dim: int
    block_dims: list
    expected_block_dims: list
    casimir_residual: float
    rank: int
    eigen_multiplicities: dict
    offblock_overlap: float
    passed: bool

    def to_json(self):
        out = asdict(self)
        out["eigen_multiplicities"] = {str(k): v for k, v in sorted(self.eigen_multiplicities.items())}
        return out


def verify_decomposition(ctx, N, sector=None, tols=DEFAULT_TOLS):
    """Decompose a weight space into Casimir levels and check the counts.

    Level j contributes vectors obtained by raising lowest-weight
    monomials of degree j with the coproduct raising operator N-j times;
    the report records block dimensions, Casimir eigen-residuals of the
    unit columns relative to max(1, |lambda_j|), the numerical rank of the
    unit-column matrix, eigenvalue multiplicities of the Casimir matrix,
    and the measured (not asserted) off-block Gram overlap.
    """
    _check_size("n", ctx.n, 2)
    _check_size("N", N, 0)
    sector = ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)
    qn_total = q_number(ctx.gamma_total(), ctx.q)
    c_tot = ctx.c_total()
    raising = [_coproduct_block(ctx, "a+", sector, j, j + 1) for j in range(N)]
    # Casimir [sum gamma]_q Delta(e) - Delta(a+) Delta(a-); Delta(e) is N + c_tot on level N
    C = qn_total * (N + c_tot) * np.eye(weight_dimension(ctx.n, N))
    if N:
        C -= raising[-1] @ _coproduct_block(ctx, "a-", sector, N, N - 1)

    blocks = []
    sectors = np.array([sector])
    for j, V in enumerate(_monomial_levels(ctx, N, sectors)):
        _monomial_grams(ctx, j, sectors, V, tols)
        U = V[0]
        for R in raising[j:]:
            U = R @ U
        blocks.append(U)
    block_dims = [U.shape[1] for U in blocks]
    expected_dims = [lowest_weight_dimension(ctx.n, j) for j in range(N + 1)]

    # scale-free: unit columns (a zero column stays zero), and each Casimir
    # residual relative to max(1, |lambda_j|), as the multiplicities are judged
    V = np.hstack(blocks)
    norms = np.linalg.norm(V, axis=0)
    cols = V / np.where(norms > 0, norms, 1.0)
    level = np.repeat(np.arange(N + 1), block_dims)
    lam = qn_total * (c_tot + level)
    worst = float((np.linalg.norm(C @ cols - cols * lam, axis=0) / np.maximum(1.0, np.abs(lam))).max(initial=0.0))
    svals = np.linalg.svd(cols, compute_uv=False)
    cut = tols.sv_cutoff * (svals[0] if len(svals) else 1.0)
    rank = int(np.sum(svals > cut))

    # off-block overlaps, normalized; reported but not asserted
    off = np.abs(cols.T @ cols)[level[:, None] != level[None, :]].max(initial=0.0)

    # eigenvalue multiplicities of the Casimir on the weight space
    eigs = np.linalg.eigvalsh((C + C.T) / 2)
    mult = {}
    for ev in eigs:
        for j in range(N + 1):
            if abs(ev - qn_total * (c_tot + j)) < tols.eigen * max(1.0, abs(ev)):
                mult[j] = mult.get(j, 0) + 1
                break

    passed = (
        block_dims == expected_dims
        and rank == len(C)
        and worst < tols.eigen
        and all(mult.get(j, 0) == expected_dims[j] for j in range(N + 1))
    )
    return DecompositionReport(
        n=ctx.n,
        N=N,
        weight_dim=len(C),
        block_dims=block_dims,
        expected_block_dims=expected_dims,
        casimir_residual=worst,
        rank=rank,
        eigen_multiplicities=mult,
        offblock_overlap=float(off),
        passed=passed,
    )


# ---------------------------------------------------------------------------
# exact kernel over Laurent polynomials (homogeneous labels)

@dataclass
class ExactLoweringKernel:
    """Exact lowest-weight kernel in rescaled occupation coordinates.

    In the per-slot basis rescaled by sqrt([gamma]**m m!), and up to a unit,
    the lowering map W_N -> W_{N-1} is D = sum_j x**j d/dy_j on polynomials
    in slot variables y_j whose exponents are the occupations: row ``low``
    holds (low_j + 1) x**j in column ``low + e_j``.  D kills every
    y_n - x**(n-j) y_j, so the vector with free column ``fc`` (last slot
    empty) is prod_{j<n} (y_n - x**(n-j) y_j)**fc_j.  ``vectors`` holds one
    Laurent row per free column over the ascending-lex ``occupations``.
    Each is primitive: its first entry, at (0, ..., 0, N), is 1, and no
    exponent is negative.
    """

    n: int
    N: int
    occupations: list
    vectors: list


def _kernel_terms(fc):
    """Terms (occupation, coefficient, exponent) of the product for ``fc``: at
    (b, N - |b|), b <= fc, (-1)**|b| prod_j C(fc_j, b_j) x**(sum_j (n-j) b_j)."""
    n, N = len(fc), sum(fc)
    for b in itertools.product(*(range(f + 1) for f in fc[:-1])):
        coeff = (-1) ** sum(b) * math.prod(math.comb(f, k) for f, k in zip(fc, b))
        yield b + (N - sum(b),), coeff, sum((n - j) * k for j, k in enumerate(b, 1))


def _lowers_to_zero(terms):
    """Whether D sends ``terms`` to zero, in Python ints (no int64 bound)."""
    image = {}
    for occ, coeff, exp in terms:
        for j, m in enumerate(occ):
            if m:
                key = occ[:j] + (m - 1,) + occ[j + 1:], exp + j + 1
                image[key] = image.get(key, 0) + m * coeff
    return not any(image.values())


def lowest_weight_kernel_exact(n, N):
    """Exact lowest-weight kernel for homogeneous labels, x = q**(-gamma).

    Reads each vector from its product (see ExactLoweringKernel), which is
    primitive as it stands, so nothing is solved or divided.  Checks the
    kernel dimension against the combinatorial count and that A v = 0.
    """
    expected = lowest_weight_dimension(n, N)
    occs = compositions(N, n)
    free = [occ for occ in occs if occ[-1] == 0]
    if len(free) != expected:
        raise DimensionMismatchError(
            "exact kernel dimension %d != expected %d" % (len(free), expected)
        )
    index = {occ: k for k, occ in enumerate(occs)}
    vectors = []
    for fc in free:
        terms = list(_kernel_terms(fc))
        if not _lowers_to_zero(terms):
            raise BraidoscError("exact kernel vector fails A v = 0")
        vec = [L_ZERO] * len(occs)
        for occ, coeff, exp in terms:
            vec[index[occ]] = Laurent.x(exp, coeff)
        vectors.append(vec)
    return ExactLoweringKernel(n, N, occs, vectors)
