"""Fixed-weight subspaces and their lowest-weight substructure.

A weight space collects, per sector, every occupation pattern with a fixed
total.  Inside it, lowest-weight vectors are the kernel of the coproduct
lowering operator; the same space is spanned by monomials in the slot
intertwiners applied to the vacuum.  Both constructions are provided so
they can be cross-checked, together with the Casimir block decomposition
of the full weight space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .scalars import DEFAULT_TOLS, L_ZERO, Laurent, _check_size, q_number
from .oscillator import (
    BraidoscError,
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
    if total < 0:
        return []
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def monomial_exponents(n, N):
    """Intertwiner exponent tuples of total degree N, in word order.

    Word order reads a monomial as the sorted string of its indices, so
    for n=3, N=2 the order is (2,0), (1,1), (0,2), matching the
    conventional listing O_1 O_1, O_1 O_2, O_2 O_2.
    """
    return sorted(compositions(N, n - 1), reverse=True)


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
    per_level = [lowest_weight_dimension(n, j) for j in range(N + 1)]
    return weight_dimension(n, N), per_level


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


def weight_basis(ctx, N, sector=None):
    """Enumerate the weight space basis, occupations in ascending lex."""
    _check_size("N", N, 0)
    if sector == "all":
        sectors = ctx.distinct_sectors()
    else:
        sectors = [ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)]
    states = [
        TensorState(perm, occ)
        for perm in sectors
        for occ in compositions(N, ctx.n)
    ]
    label = "all" if sector == "all" else sectors[0]
    return WeightSpaceBasis(ctx, N, label, states)


def coordinates(vec, basis):
    """Dense coordinate array of a vector over a state list."""
    idx = basis.index() if isinstance(basis, WeightSpaceBasis) else {s: i for i, s in enumerate(basis)}
    out = np.zeros(len(idx))
    for st, co in vec.terms.items():
        try:
            out[idx[st]] = float(co)
        except KeyError:
            raise BraidoscError("vector has support outside the basis: %r" % (st,))
    return out


def _coordinate_matrix(vectors, basis):
    """Coordinates of the vectors as the columns of a len(basis) x len(vectors) array."""
    return np.array([coordinates(v, basis) for v in vectors]).reshape(len(vectors), len(basis)).T


def from_coordinates(ctx, coords, basis):
    states = basis.states if isinstance(basis, WeightSpaceBasis) else basis
    vec = WeightVector(ctx)
    for c, st in zip(coords, states):
        if c:
            vec.add_term(st, float(c))
    return vec


def operator_matrix(op, domain, codomain):
    """Matrix of a state-to-vector map between orthonormal state bases."""
    ctx = domain.ctx
    idx = codomain.index()
    A = np.zeros((len(codomain), len(domain)))
    for col, st in enumerate(domain.states):
        image = op(basis_state(ctx, st.occ, st.perm))
        for st2, co in image.terms.items():
            try:
                A[idx[st2], col] = float(co)
            except KeyError:
                raise BraidoscError("operator image leaves the codomain at %r" % (st2,))
    return A


def _occupations(N, n):
    """compositions(N, n) as an int array, one row per state."""
    return np.array(compositions(N, n), np.int64).reshape(-1, n)


def _operator_block(op, sector, dom, cod):
    """Target sector and matrix of an operator on one sector's rows ``dom``.

    ``op`` gives each (target, source) pair once.  ``cod`` is a whole level
    in ascending lex order, so its integer codes in base total + 1 ascend
    and one searchsorted places every target row.
    """
    src, target, rows, amp = op(sector, dom)
    total = int(cod[0].sum()) if len(cod) else -1
    if (rows.sum(axis=1) != total).any():
        raise BraidoscError("operator image leaves the codomain")
    place = (total + 1) ** np.arange(cod.shape[1] - 1, -1, -1)
    block = np.zeros((len(cod), len(dom)))
    block[np.searchsorted(cod @ place, rows @ place), src] = amp
    return target, block


def _weight_matrix(op, ctx, N, M):
    """Matrix of an operator from level N to level M over every sector, sector-major."""
    sectors = ctx.distinct_sectors()
    number = {sec: k for k, sec in enumerate(sectors)}
    dom, cod = _occupations(N, ctx.n), _occupations(M, ctx.n)
    out = np.zeros((len(sectors), len(cod), len(sectors), len(dom)))
    for s, sec in enumerate(sectors):
        target, block = _operator_block(op, sec, dom, cod)
        out[number[target], :, s] = block
    return out.reshape(len(sectors) * len(cod), len(sectors) * len(dom))


def _coproduct_block(ctx, gen, sector, N, M):
    """Coproduct generator ``gen`` from level N to level M (-1 is empty) of one sector."""
    dom, cod = _occupations(N, ctx.n), _occupations(M, ctx.n)
    return _operator_block(lambda perm, occ: _coproduct_terms(ctx, gen, perm, occ), sector, dom, cod)[1]


def lowering_matrix(ctx, N, sector=None):
    """Coproduct lowering operator as a matrix W_N -> W_{N-1}."""
    _check_size("N", N, 1)
    dom, cod = weight_basis(ctx, N, sector), weight_basis(ctx, N - 1, sector)
    return _coproduct_block(ctx, "a-", dom.sector, N, N - 1), dom, cod


@dataclass
class LowestWeightBasis:
    """Basis of the lowest-weight subspace at one level, single sector.

    ``coords`` holds the basis vectors as columns over the states of
    ``weight_basis(ctx, N, sector)``.  The kernel route returns an
    orthonormal family (gram = identity), the monomial route the
    unnormalized monomial vectors in ``monomial_exponents`` order.
    """

    ctx: object
    N: int
    sector: tuple
    gram: np.ndarray
    coords: np.ndarray

    @property
    def vectors(self):
        """The ``coords`` columns as tensor-coordinate vectors."""
        basis = weight_basis(self.ctx, self.N, self.sector)
        return [from_coordinates(self.ctx, col, basis) for col in self.coords.T]


def lowest_weight_kernel(ctx, N, sector=None, tols=DEFAULT_TOLS):
    """Lowest-weight vectors as the numeric kernel of the lowering map.

    Uses an SVD with singular values below sv_cutoff * max treated as
    zero; the returned vectors are orthonormal.  Raises
    DimensionMismatchError if the kernel dimension is not the stars-and-
    bars count.
    """
    _check_size("N", N, 0)
    sector = ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)
    expected = lowest_weight_dimension(ctx.n, N)
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
    return LowestWeightBasis(ctx, N, sector, np.eye(expected), null.T)


def lowest_weight_monomials(ctx, N, sector=None, tols=DEFAULT_TOLS):
    """Lowest-weight basis from intertwiner monomials on the vacuum.

    Validates that every monomial vector is annihilated by the coproduct
    lowering operator (relative residual) and that the Gram matrix is
    positive definite; vectors are kept unnormalized.
    """
    _check_size("n", ctx.n, 2)
    _check_size("N", N, 0)
    sector = ctx.identity_perm() if sector is None else ctx.canonical_perm(sector)
    expts = monomial_exponents(ctx.n, N)
    rows = [_occupations(j, ctx.n) for j in range(N + 1)]
    # intertwiner matrices O[j][k] from level j, applied to the vacuum column in apply_monomial order
    O = [
        [_operator_block(lambda perm, occ: _intertwiner_terms(ctx, k, perm, occ), sector, lo, hi)[1]
         for k in range(ctx.n - 1)]
        for lo, hi in zip(rows, rows[1:])
    ]
    cols = []
    for powers in expts:
        v = np.ones(1)
        for j, k in enumerate(k for k, e in enumerate(powers) for _ in range(e)):
            v = O[j][k] @ v
        cols.append(v)
    V = np.array(cols).T
    low = _coproduct_block(ctx, "a-", sector, N, N - 1) @ V
    residuals = np.linalg.norm(low, axis=0) / np.linalg.norm(V, axis=0)
    for powers, res in zip(expts, residuals):
        if res > tols.kernel_residual:
            raise BraidoscError(
                "monomial %r not annihilated by lowering, residual %.2e" % (powers, res)
            )
    gram = V.T @ V
    eigs = np.linalg.eigvalsh(gram)
    if len(eigs) and eigs[0] <= tols.sv_cutoff * max(eigs[-1], 1.0):
        raise BraidoscError("monomial Gram matrix is numerically singular")
    return LowestWeightBasis(ctx, N, sector, gram, V)


def span_residual(vectors, others):
    """Largest relative projection defect of ``vectors`` onto span(others);
    a zero vector in ``vectors`` has none and raises ValueError."""
    if not vectors:
        return 0.0
    states = sorted(
        {st for v in list(vectors) + list(others) for st in v.terms},
        key=lambda s: (s.perm, s.occ),
    )
    V = _coordinate_matrix(vectors, states)
    W = _coordinate_matrix(others, states)
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
    the report records block dimensions, Casimir eigen-residuals, the
    total rank, eigenvalue multiplicities of the Casimir matrix, and the
    measured (not asserted) off-block Gram overlap.
    """
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
    expected_dims = []
    worst = 0.0
    for j in range(N + 1):
        U = lowest_weight_monomials(ctx, j, sector, tols).coords
        for R in raising[j:]:
            U = R @ U
        lam = qn_total * (c_tot + j)
        resid = np.linalg.norm(C @ U - lam * U, axis=0) / np.linalg.norm(U, axis=0)
        worst = max(worst, float(resid.max()))
        blocks.append(U)
        expected_dims.append(lowest_weight_dimension(ctx.n, j))
    block_dims = [U.shape[1] for U in blocks]

    V = np.hstack(blocks)
    svals = np.linalg.svd(V, compute_uv=False)
    cut = tols.sv_cutoff * (svals[0] if len(svals) else 1.0)
    rank = int(np.sum(svals > cut))

    # off-block overlaps, normalized; reported but not asserted
    cols = V / np.linalg.norm(V, axis=0)
    level = np.repeat(np.arange(N + 1), block_dims)
    off = np.abs(cols.T @ cols)[level[:, None] != level[None, :]].max(initial=0.0)

    # eigenvalue multiplicities of the Casimir on the weight space
    eigs = np.linalg.eigvalsh((C + C.T) / 2)
    mult = {}
    for lam in eigs:
        for j in range(N + 1):
            if abs(lam - qn_total * (c_tot + j)) < tols.eigen * max(1.0, abs(lam)):
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
    _check_size("n", n, 2)
    _check_size("N", N, 0)
    occs = compositions(N, n)
    free = [occ for occ in occs if occ[-1] == 0]
    expected = lowest_weight_dimension(n, N)
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
