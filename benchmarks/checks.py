"""Correctness checks the benchmark applies to the program's outputs.

Each check is computed here, apart from the program: exact families are
compared at a random point modulo a prime, the reduced Burau family and
the exact lowering matrix are built from their textbook definitions, and
numeric residuals are scaled by the norms of the factors so that the
bound is the one floating-point products obey.  A failed check raises
CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np

# Largest prime below 2**22.  Products of two residues summed over d
# terms stay below 2**53 for d <= 512, so float64 matmul is exact.
PRIME = 4194301
MAX_EXACT_DIM = 512
EPS = np.finfo(float).eps


class CheckFailed(AssertionError):
    """An output of the program fails a property the method must have."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact families, evaluated at a point modulo PRIME

def laurent_mod(terms, x0):
    """A Laurent polynomial given as {exponent: Fraction}, at x0 mod PRIME."""
    total = 0
    for e, c in terms.items():
        total += c.numerator * pow(c.denominator, -1, PRIME) * pow(x0, e, PRIME)
    return total % PRIME


def lmatrix_mod(entries, x0):
    """Nested lists of Laurent entries as a float64 array of residues."""
    d = len(entries)
    require(d <= MAX_EXACT_DIM, "exact matrix too large for the modular check")
    out = np.zeros((d, len(entries[0]) if d else 0))
    for r, row in enumerate(entries):
        for c, e in enumerate(row):
            if e.terms:
                out[r, c] = laurent_mod(e.terms, x0)
    return out


def mulmod(a, b):
    return np.fmod(a @ b, PRIME)


def relation_pairs(n):
    """Generator pairs of the braid relations and the far commutations."""
    braid = [(i, i + 1) for i in range(1, n - 1)]
    far = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
    return braid, far


def check_exact_family(fwd, inv=None):
    """Braid relations, far commutations and sigma sigma^-1 = 1, exactly.

    ``fwd`` and ``inv`` map generator index to residue matrices at one
    point; equality there is exact modular arithmetic.  Without ``inv``
    only the relations are checked.
    """
    n = len(fwd) + 1
    braid, far = relation_pairs(n)
    for i, j in braid:
        a, b = fwd[i], fwd[j]
        require(np.array_equal(mulmod(mulmod(a, b), a), mulmod(mulmod(b, a), b)),
                "braid relation fails for generators %d, %d" % (i, j))
    for i, j in far:
        a, b = fwd[i], fwd[j]
        require(np.array_equal(mulmod(a, b), mulmod(b, a)),
                "far commutation fails for generators %d, %d" % (i, j))
    for i in fwd if inv else ():
        eye = np.eye(fwd[i].shape[0])
        require(np.array_equal(mulmod(fwd[i], inv[i]), eye), "sigma_%d sigma_%d^-1 != 1" % (i, i))


def word_product_mod(word, fwd, inv):
    """Product M(w_L) ... M(w_1) of residue matrices, leftmost letter first."""
    d = next(iter(fwd.values())).shape[0]
    total = np.eye(d)
    for letter in word:
        total = mulmod(fwd[letter] if letter > 0 else inv[-letter], total)
    return total


# ---------------------------------------------------------------------------
# textbook references

def reduced_burau(n, x0):
    """Reduced Burau matrices at a rational point, in the rewrite basis.

    Restricts the unreduced Burau matrices (block [[1-t, t], [1, 0]],
    t = x**2) to the invariant vectors u_j = t e_j - e_{j+1}, then
    reverses the index order and rescales by x**(l - l') to reach the
    intertwiner basis w_1 .. w_{n-1} of the rewrite route.
    """
    t = x0 * x0
    out = {}
    for i in range(1, n):
        B = [[int(r == c) for c in range(n)] for r in range(n)]
        r = i - 1
        B[r][r], B[r][r + 1], B[r + 1][r], B[r + 1][r + 1] = 1 - t, t, 1, 0
        R = [[0] * (n - 1) for _ in range(n - 1)]
        for j in range(n - 1):
            y = [B[k][j] * t - B[k][j + 1] for k in range(n)]
            c = [y[0] / t]
            for k in range(1, n - 1):
                c.append((y[k] + c[k - 1]) / t)
            require(-c[n - 2] == y[n - 1], "Burau vectors u_j are not invariant")
            for k in range(n - 1):
                R[k][j] = c[k]
        out[i] = R
    # R is generator i in the u basis; the rewrite family is generator n-i
    # in the reversed, rescaled basis.
    ref = {}
    for i in range(1, n):
        R = out[n - i]
        ref[i] = [
            [R[n - 2 - lp][n - 2 - l] * x0 ** (l - lp) for l in range(n - 1)]
            for lp in range(n - 1)
        ]
    return ref


def laurent_at(terms, x0):
    return sum(c * x0 ** e for e, c in terms.items())


def lowering_rows(n, N):
    """Exact lowering map W_N -> W_{N-1} in rescaled occupation coordinates.

    Column ``occ`` maps to row ``occ - e_j`` with coefficient
    occ[j] * x**(j+1) (0-based j).  Returns (column list, sparse rows as
    {column index: (coefficient, power)}).
    """
    def comps(total, parts):
        if parts == 1:
            return [(total,)]
        return [(f,) + rest for f in range(total + 1) for rest in comps(total - f, parts - 1)]

    cols = comps(N, n)
    rows = {occ: {} for occ in comps(N - 1, n)}
    for ci, occ in enumerate(cols):
        for j in range(n):
            if occ[j]:
                low = occ[:j] + (occ[j] - 1,) + occ[j + 1:]
                rows[low][ci] = (occ[j], j + 1)
    return cols, list(rows.values())


def rank_mod(rows):
    """Rank of a list of integer rows modulo PRIME."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((k for k in range(rank, len(m)) if m[k][c] % PRIME), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, PRIME)
        m[rank] = [v * inv % PRIME for v in m[rank]]
        for k in range(len(m)):
            if k != rank and m[k][c] % PRIME:
                f = m[k][c]
                m[k] = [(a - f * b) % PRIME for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


def check_exact_kernel(n, N, kernel, x0):
    """Dimension C(n+N-2, n-2), independence, and annihilation by lowering."""
    expected = math.comb(n + N - 2, n - 2)
    require(len(kernel.vectors) == expected,
            "exact kernel has %d vectors, expected %d" % (len(kernel.vectors), expected))
    if N == 0:
        return
    cols, rows = lowering_rows(n, N)
    require(list(kernel.occupations) == cols, "kernel coordinates use another occupation order")
    values = [[laurent_mod(e.terms, x0) for e in vec] for vec in kernel.vectors]
    for vec in values:
        for row in rows:
            acc = sum(coef * pow(x0, pw, PRIME) * vec[ci] for ci, (coef, pw) in row.items())
            require(acc % PRIME == 0, "exact kernel vector is not annihilated by lowering")
    require(rank_mod(values) == expected, "exact kernel vectors are linearly dependent")


# ---------------------------------------------------------------------------
# numeric residuals

def route_disagreement(ref, other):
    """Entrywise relative disagreement of two numeric matrices.

    Entries where ``ref`` is nonzero are compared relative to themselves;
    structural zeros of ``ref`` are compared relative to its largest entry.
    Returns (entrywise, normwise).
    """
    diff = np.abs(ref - other)
    scale = float(np.max(np.abs(ref)))
    nz = ref != 0
    entrywise = float(np.max(diff[nz] / np.abs(ref[nz]))) if nz.any() else 0.0
    off = float(np.max(diff[~nz])) / scale if (~nz).any() else 0.0
    return max(entrywise, off), float(np.max(diff)) / scale


def product_bound(d, factors):
    """fp64 error bound for a product of ``factors`` d x d matrices,
    relative to the product of their Frobenius norms, with a factor 4
    for the two sides of a relation and slack."""
    return 4.0 * factors * d * EPS


def relation_residual(fwd, rng):
    """Worst braid / far-commutation residual relative to the factor norms.

    Each relation is applied to one random vector, which costs matrix-vector
    products only; a relation that fails leaves a nonzero matrix, which a
    random vector detects with probability one.
    """
    n = len(fwd) + 1
    braid, far = relation_pairs(n)
    norms = {i: np.linalg.norm(m) for i, m in fwd.items()}
    v = rng.standard_normal(next(iter(fwd.values())).shape[0])
    scale = np.linalg.norm(v)
    worst = 0.0
    for i, j in braid:
        a, b = fwd[i], fwd[j]
        res = np.linalg.norm(a @ (b @ (a @ v)) - b @ (a @ (b @ v))) / (norms[i] ** 2 * norms[j] * scale)
        worst = max(worst, float(res))
    for i, j in far:
        a, b = fwd[i], fwd[j]
        res = np.linalg.norm(a @ (b @ v) - b @ (a @ v)) / (norms[i] * norms[j] * scale)
        worst = max(worst, float(res))
    return worst


def inverse_residual(fwd, inv, rng):
    """Worst sigma_i sigma_i^-1 residual on a random vector, relative to
    the factor norms."""
    v = rng.standard_normal(next(iter(fwd.values())).shape[0])
    scale = np.linalg.norm(v)
    worst = 0.0
    for i in fwd:
        res = np.linalg.norm(fwd[i] @ (inv[i] @ v) - v) / (
            np.linalg.norm(fwd[i]) * np.linalg.norm(inv[i]) * scale)
        worst = max(worst, float(res))
    return worst


def word_residual(word, total, fwd, inv, rng):
    """Residual of a word product against its letters applied one by one
    to a random vector, relative to the product of the letter norms."""
    d = total.shape[0]
    v = rng.standard_normal(d)
    y = v
    scale = np.linalg.norm(v)
    for letter in word:
        m = fwd[letter] if letter > 0 else inv[-letter]
        y = m @ y
        scale *= np.linalg.norm(m)
    return float(np.linalg.norm(total @ v - y) / scale)


def digits(err):
    """-log10 of a relative error."""
    return -math.log10(max(err, 1e-300))
