"""Named verification suites with machine-readable reports.

Three suites bundle the checkable claims: ``algebra`` (operator
identities of the deformed oscillator and the intertwiner), ``spaces``
(dimension laws, kernel/monomial span equality, the level
decomposition), and ``braid`` (closed-form fixtures, braid relations,
inverses, route equivalence).  Each check is independent and pure, so
the set is embarrassingly parallel; they are executed in order here to
keep reports deterministic under a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .scalars import DEFAULT_TOLS, Laurent, L_ONE, L_ZERO, nan_max, q_number
from .oscillator import (
    Context,
    RepLabel,
    _coproduct_terms,
    _intertwiner_terms,
    apply_coproduct,
    apply_casimir,
    apply_generator,
    basis_state,
    homogeneous_context,
    marked_context,
)
from .weightspace import (
    _weight_matrix,
    counts,
    lowest_weight_dimension,
    lowest_weight_kernel,
    lowest_weight_kernel_exact,
    lowest_weight_monomials,
    span_residual,
    verify_decomposition,
    weight_dimension,
)
from .braid import (
    braid_relation_defect,
    build_matrices,
    closed_form_burau,
    closed_form_lkb,
    compare_transition_formulas,
    evaluate_word,
    inverse_defect,
    lmat_eq,
    pair_basis_change,
    reduced_burau_reference,
    BasisElement,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None = None
    detail: dict | None = None

    def to_json(self):
        out = {"name": self.name, "passed": bool(self.passed)}
        if self.residual is not None:
            out["residual"] = float(self.residual)
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    parameters: dict
    checks: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self):
        vals = [c.residual for c in self.checks if c.residual is not None]
        return nan_max(*vals) if vals else None

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "parameters": self.parameters,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "runtime_seconds": self.runtime_seconds,
            "checks": [c.to_json() for c in self.checks],
        }


def _draw(rng):
    q = float(rng.uniform(0.3, 0.9))
    gamma = float(rng.uniform(0.5, 2.5))
    c = float(rng.uniform(0.2, 3.0))
    return q, gamma, c


def _draw_marked(rng, n):
    q, g1, c1 = _draw(rng)
    g2 = float(rng.uniform(0.5, 2.5))
    c2 = float(rng.uniform(0.2, 3.0))
    return marked_context(n, RepLabel(g1, c1), RepLabel(g2, c2), int(rng.integers(1, n + 1)), q)


def _rel(num, scale):
    return float(num / max(scale, 1e-300))


# sizes that a suite's report states, read by the checks that run them
OCCUPATION_MAX = 4
HOMOGENEOUS_GRID = (5, 4)  # n_max, level_max
MARKED_GRID = (4, 3)
RELATION_SLOTS, RELATION_LEVEL_MAX = (3, 4, 5), 3
DRAWS = 5


def _coproduct(ctx, gen, N, M):
    """Coproduct generator from level N to level M, every sector."""
    return _weight_matrix(lambda perm, occ: _coproduct_terms(ctx, gen, perm, occ), ctx, N, M)


def _intertwiner(ctx, k, N):
    """Intertwiner O_k from level N to level N + 1, every sector."""
    return _weight_matrix(lambda perm, occ: _intertwiner_terms(ctx, k - 1, perm, occ), ctx, N, N + 1)


# ---------------------------------------------------------------------------
# algebra suite checks

def check_ladder_commutators(ctx, tols):
    """[lower, raise] = q-number of the total Gamma grading, plus the
    number-operator and centrality commutators, on every weight space."""
    qn_tot = q_number(ctx.gamma_total(), ctx.q)

    def rel(resid, image):
        # column j of every matrix is the image of basis state j
        return float(np.max(np.linalg.norm(resid, axis=0) / (1.0 + np.linalg.norm(image, axis=0))))

    worst = 0.0
    for N in range(OCCUPATION_MAX + 1):
        up, dn = _coproduct(ctx, "a+", N, N + 1), _coproduct(ctx, "a-", N, N - 1)
        num, num_up, num_dn = (_coproduct(ctx, "e", M, M) for M in (N, N + 1, N - 1))
        comm = _coproduct(ctx, "a-", N + 1, N) @ up - _coproduct(ctx, "a+", N - 1, N) @ dn
        comm -= qn_tot * np.eye(up.shape[1])
        r1 = num_up @ up - up @ num - up
        r2 = num_dn @ dn - dn @ num + dn
        r3 = _coproduct(ctx, "g+", N + 1, N + 1) @ up - up @ _coproduct(ctx, "g+", N, N)
        worst = nan_max(worst, rel(comm, up), rel(r1, up), rel(r2, dn), rel(r3, up))
    return CheckResult("ladder_commutators_n%d" % ctx.n, worst < tols.operator_identity, worst)


def check_intertwiner_identities(ctx, tols, rng):
    """The intertwiner commutes with lowering and raising, shifts the
    number operator by one, and distinct copies commute."""
    worst = 0.0
    norm = np.linalg.norm
    for N in range(OCCUPATION_MAX + 1):
        # a random vector over weight_basis(ctx, N, "all")
        v = rng.standard_normal(len(ctx.distinct_sectors()) * weight_dimension(ctx.n, N))
        low = _coproduct(ctx, "a-", N, N - 1), _coproduct(ctx, "a-", N + 1, N)
        num = _coproduct(ctx, "e", N, N), _coproduct(ctx, "e", N + 1, N + 1)
        up = _coproduct(ctx, "a+", N, N + 1), _coproduct(ctx, "a+", N + 1, N + 2)
        O = {k: [_intertwiner(ctx, k, j) for j in (N - 1, N, N + 1)] for k in range(1, ctx.n)}
        for below, here, above in O.values():
            ov = here @ v
            r1 = low[1] @ ov - below @ (low[0] @ v)
            r2 = num[1] @ ov - here @ (num[0] @ v) - ov
            r3 = up[1] @ ov - above @ (up[0] @ v)
            scale = 1.0 + norm(ov)
            worst = nan_max(worst, _rel(norm(r1), scale), _rel(norm(r2), scale), _rel(norm(r3), scale))
        for k1 in range(1, ctx.n):
            for k2 in range(k1 + 1, ctx.n):
                r = O[k1][2] @ (O[k2][1] @ v) - O[k2][2] @ (O[k1][1] @ v)
                worst = nan_max(worst, _rel(norm(r), 1.0 + norm(v)))
    return CheckResult("intertwiner_identities_n%d" % ctx.n, worst < tols.operator_identity, worst)


def check_casimir_levels(ctx, raise_max, tols):
    """Casimir eigenvalue on raised level-j vectors (j <= 2) is the q-number
    of total Gamma times (total c + j), independent of the raising count."""
    worst = 0.0
    qn_tot = q_number(ctx.gamma_total(), ctx.q)
    for j in range(3):
        eig = qn_tot * (ctx.c_total() + j)
        for v in lowest_weight_kernel(ctx, j, None, tols).vectors:
            u = v
            for _ in range(raise_max + 1):
                r = apply_casimir(u) - eig * u
                worst = nan_max(worst, _rel(r.norm(), (1.0 + abs(eig)) * u.norm()))
                u = apply_coproduct("a+", u)
    return CheckResult("casimir_levels_n%d" % ctx.n, worst < tols.operator_identity, worst)


def check_hermiticity(tols, q=0.5):
    """Raising and lowering are mutual adjoints in the occupation basis,
    both slot-wise and through the coproduct, at gamma = c = 1 and the given q."""
    worst = 0.0
    ctx1 = homogeneous_context(1, 1.0, 1.0, q)
    for m in range(5):
        vm, vm1 = basis_state(ctx1, (m,)), basis_state(ctx1, (m + 1,))
        lhs = apply_generator("a+", 1, vm).inner(vm1)
        rhs = vm.inner(apply_generator("a-", 1, vm1))
        worst = nan_max(worst, abs(float(lhs - rhs)) / (1.0 + abs(float(lhs))))
    ctx2 = homogeneous_context(2, 1.0, 1.0, q)
    for N in range(4):
        up, down = _coproduct(ctx2, "a+", N, N + 1), _coproduct(ctx2, "a-", N + 1, N)
        worst = nan_max(worst, _rel(np.max(np.abs(up - down.T)), np.max(np.abs(up))))
    return CheckResult("hermiticity_q%.2f" % q, worst < tols.operator_identity, worst)


def check_star_intertwiner(ctx, tols):
    """[adjoint of O, O] acts as the q-number of the summed Gamma labels
    on two slots (checked level by level through matrices)."""
    if ctx.n != 2:
        raise ValueError("two-slot check")
    eig = q_number(ctx.gamma_total(), ctx.q)
    mats = [_intertwiner(ctx, 1, N) for N in range(4)]
    worst = 0.0
    for N in range(3):
        A = mats[N]
        lhs = A.T @ A
        if N > 0:
            B = mats[N - 1]
            lhs = lhs - B @ B.T
        r = np.max(np.abs(lhs - eig * np.eye(lhs.shape[0])))
        worst = nan_max(worst, _rel(r, abs(eig)))
    return CheckResult("star_intertwiner_bracket", worst < tols.operator_identity, worst)


def check_orthonormality_two_slots(ctx, table_max, tols):
    """Raised lowest-weight vectors are orthonormal across levels and
    raising counts for two slots (after explicit normalization)."""
    vecs = []
    for j in range(table_max + 1):
        base = lowest_weight_kernel(ctx, j, None, tols).vectors[0]
        u = base
        for i in range(table_max + 1):
            vecs.append(u * (1.0 / u.norm()))
            u = apply_coproduct("a+", u)
    worst = 0.0
    for a, va in enumerate(vecs):
        for b, vb in enumerate(vecs):
            want = 1.0 if a == b else 0.0
            worst = nan_max(worst, abs(float(va.inner(vb)) - want))
    return CheckResult("orthonormality_two_slots", worst < tols.operator_identity, worst)


def suite_algebra(seed=0, tols=DEFAULT_TOLS):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = SuiteReport(
        "algebra",
        seed,
        {"occupation_max": OCCUPATION_MAX, "tolerances": asdict(tols)},
    )
    q, g1, c1 = _draw(rng)
    ctx2h = homogeneous_context(2, g1, c1, q)
    ctx2m = Context((RepLabel(g1, c1), RepLabel(g1 + 0.4, c1 + 0.3)), q)
    ctx3 = _draw_marked(rng, 3)
    report.checks.append(check_ladder_commutators(ctx2m, tols))
    report.checks.append(check_ladder_commutators(ctx3, tols))
    report.checks.append(check_intertwiner_identities(ctx2m, tols, rng))
    report.checks.append(check_intertwiner_identities(ctx3, tols, rng))
    report.checks.append(check_casimir_levels(ctx2h, 3, tols))
    report.checks.append(check_casimir_levels(ctx3, 2, tols))
    report.checks.append(check_hermiticity(tols))
    report.checks.append(check_star_intertwiner(ctx2m, tols))
    report.checks.append(check_orthonormality_two_slots(ctx2h, 2, tols))
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# spaces suite checks

def check_dimension_grid(tols):
    """Kernel dimensions against the binomial law: the kernel raises
    DimensionMismatchError on a wrong dimension."""
    n_max, level_max = HOMOGENEOUS_GRID
    for n in range(2, n_max + 1):
        ctx = homogeneous_context(n, 1.2, 0.7, 0.6)
        for N in range(level_max + 1):
            lowest_weight_kernel(ctx, N, None, tols)
    return CheckResult("dimension_grid", True)


def check_dimension_grid_marked(tols):
    """Per-sector kernel dimensions are label-independent: the kernel raises
    DimensionMismatchError on a wrong dimension."""
    rng = np.random.default_rng(11)
    n_max, level_max = MARKED_GRID
    for n in range(2, n_max + 1):
        ctx = _draw_marked(rng, n)
        for N in range(level_max + 1):
            for sector in ctx.distinct_sectors():
                lowest_weight_kernel(ctx, N, sector, tols)
    return CheckResult("dimension_grid_marked", True)


def check_exact_kernels():
    """Exact lowest-weight kernels pass their dimension and exact A v = 0 checks."""
    ok = True
    detail = None
    for n in range(2, 5):
        for N in range(4):
            try:
                lowest_weight_kernel_exact(n, N)
            except Exception as exc:
                ok = False
                detail = {"n": n, "N": N, "error": str(exc)}
    return CheckResult("exact_kernels", ok, None, detail)


def check_span_equality(tols, rng):
    """Monomial images span exactly the numeric kernel, both directions."""
    worst = 0.0
    for _ in range(3):
        q, gamma, c = _draw(rng)
        cases = [homogeneous_context(3, gamma, c, q), homogeneous_context(4, gamma, c, q), _draw_marked(rng, 3)]
        for ctx in cases:
            for N in (1, 2):
                for sector in ctx.distinct_sectors():
                    mono = lowest_weight_monomials(ctx, N, sector, tols)
                    kern = lowest_weight_kernel(ctx, N, sector, tols)
                    worst = nan_max(worst, span_residual(mono.vectors, kern.vectors))
                    worst = nan_max(worst, span_residual(kern.vectors, mono.vectors))
    return CheckResult("span_equality", worst < tols.span_residual, worst)


def check_decomposition(tols):
    """Level decomposition at three slots, level three: block dimensions
    and Casimir multiplicities (1, 2, 3, 4)."""
    ctx = homogeneous_context(3, 1.1, 0.8, 0.6)
    rep = verify_decomposition(ctx, 3, None, tols)
    mults = [rep.eigen_multiplicities.get(j, 0) for j in range(4)]
    ok = rep.passed and rep.block_dims == [1, 2, 3, 4] and mults == [1, 2, 3, 4]
    return CheckResult(
        "decomposition_3_3",
        ok,
        rep.casimir_residual,
        {"block_dims": rep.block_dims, "eigen_multiplicities": mults,
         "offblock_overlap": rep.offblock_overlap},
    )


def check_counting_identities():
    """Binomial counting laws and the frozen small tables."""
    n_max, level_max = HOMOGENEOUS_GRID
    grid = (counts(n, N) for n in range(2, n_max + 1) for N in range(level_max + 1))
    ok = all(sum(parts) == total for total, parts in grid)
    ok = ok and counts(3, 3) == (10, [1, 2, 3, 4])
    ok = ok and counts(5, 2) == (15, [1, 4, 10])
    ok = ok and all(lowest_weight_dimension(2, N) == 1 for N in range(6))
    return CheckResult("counting_identities", ok)


def suite_spaces(seed=0, tols=DEFAULT_TOLS):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = SuiteReport(
        "spaces",
        seed,
        {"grid": "n<=%d, N<=%d homogeneous; n<=%d, N<=%d marked" % (*HOMOGENEOUS_GRID, *MARKED_GRID),
         "tolerances": asdict(tols)},
    )
    report.checks.append(check_counting_identities())
    report.checks.append(check_dimension_grid(tols))
    report.checks.append(check_dimension_grid_marked(tols))
    report.checks.append(check_exact_kernels())
    report.checks.append(check_span_equality(tols, rng))
    report.checks.append(check_decomposition(tols))
    q, gamma, c = _draw(rng)
    report.checks.append(check_orthonormality_two_slots(homogeneous_context(2, gamma, c, q), 2, tols))
    report.runtime_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# braid suite checks

def check_burau_family():
    """Rewrite route equals the closed level-1 family exactly, and the
    closed family equals an independent textbook quotient construction
    after the index-reversing rescaling."""
    ok = True
    detail = None
    for n in range(3, 7):
        rw = build_matrices(n, 1, route="rewrite", backend="laurent")
        cf = closed_form_burau(n)
        for a, b in zip(rw, cf):
            if not lmat_eq(a.entries, b.entries):
                ok = False
                detail = {"n": n, "generator": a.generator, "stage": "rewrite-vs-closed"}
        ref = reduced_burau_reference(n)
        for k in range(1, n):
            A_w = cf[k - 1].entries.to_laurent()
            d = n - 1
            A_b = [[L_ZERO] * d for _ in range(d)]
            for lp in range(1, n):
                for l in range(1, n):
                    A_b[lp - 1][l - 1] = A_w[n - lp - 1][n - l - 1] * Laurent.x(l - lp)
            if not lmat_eq(A_b, ref[n - k - 1]):
                ok = False
                detail = {"n": n, "generator": k, "stage": "closed-vs-reference"}
    return CheckResult("burau_family", ok, None, detail)


def check_lkb_family():
    """Rewrite route equals the closed level-2 family exactly; the n=3
    matrices equal the frozen printed pair (row convention)."""
    ok = True
    detail = None
    for n in range(3, 6):
        rw = build_matrices(n, 2, route="rewrite", backend="laurent")
        cf = closed_form_lkb(n)
        for a, b in zip(rw, cf):
            if not lmat_eq(a.entries, b.entries):
                ok = False
                detail = {"n": n, "generator": a.generator}
    x = Laurent.x(1)
    printed = {
        1: [[x ** 4, L_ZERO, L_ZERO], [-(x ** 3), -(x ** 2), L_ZERO], [x ** 2, 2 * x, L_ONE]],
        2: [[L_ONE, 2 * x, x ** 2], [L_ZERO, -(x ** 2), -(x ** 3)], [L_ZERO, L_ZERO, x ** 4]],
    }
    cf3 = closed_form_lkb(3)
    for g in (1, 2):
        ours = cf3[g - 1].entries.to_laurent()
        if not all(printed[g][r][c] == ours[c][r] for r in range(3) for c in range(3)):
            ok = False
            detail = {"n": 3, "generator": g, "stage": "printed-fixture"}
    return CheckResult("lkb_family", ok, None, detail)


def _marked_fixture_pair(ctx):
    """Frozen 6x6 expected matrices for the one-marked-slot family at
    n=3, on the basis (w_k with marked position j), k ascending and j
    descending, column convention."""
    special = next(lab for lab in ctx.labels if ctx.labels.count(lab) == 1)
    base = next(lab for lab in ctx.labels if lab != special)
    q = ctx.q
    g1, c1 = base.gamma, base.c
    g2, c2 = special.gamma, special.c
    d1 = q ** (-2 * c1 * g1)
    d2 = q ** (-c2 * g1 - c1 * g2)
    d3 = np.sqrt(q_number(g1, q) / q_number(g2, q))
    x1 = q ** (-g1)
    x2 = q ** (-g2)
    s1 = np.array([
        [-d1 * x1 ** 2, 0, 0, d1 / d3 * x1, 0, 0],
        [0, 0, -d2 * x1 * x2, 0, 0, d2 * d3 * x2],
        [0, -d2 * x1 * x2, 0, 0, d2 * x1, 0],
        [0, 0, 0, d1, 0, 0],
        [0, 0, 0, 0, 0, d2 * d3],
        [0, 0, 0, 0, d2 / d3, 0],
    ])
    s2 = np.array([
        [0, d2 / d3, 0, 0, 0, 0],
        [d2 * d3, 0, 0, 0, 0, 0],
        [0, 0, d1, 0, 0, 0],
        [0, d2 * x1, 0, 0, -d2 * x1 * x2, 0],
        [d2 * d3 * x2, 0, 0, -d2 * x1 * x2, 0, 0],
        [0, 0, d1 / d3 * x1, 0, 0, -d1 * x1 ** 2],
    ])
    return special, s1, s2


def marked_fixture_permutation(ctx, basis, special):
    """Column permutation taking our sector-major basis to the fixture
    ordering (k ascending, marked position descending)."""
    # a label that occurs once keeps its own index in every canonical sector
    marked = ctx.labels.index(special)
    by_pos = {sec.index(marked) + 1: sec for sec in ctx.distinct_sectors()}
    order = []
    for k in (1, 2):
        for j in (3, 2, 1):
            powers = tuple(1 if t == k - 1 else 0 for t in range(2))
            order.append(basis.index(BasisElement(by_pos[j], powers)))
    P = np.zeros((6, 6))
    for new, old in enumerate(order):
        P[old, new] = 1.0
    return P


def check_marked_fixture(rng, tols):
    """Rewrite-route matrices reproduce the frozen 6x6 pair at three random
    parameter draws after the basis reordering."""
    worst = 0.0
    for _ in range(3):
        ctx = _draw_marked(rng, 3)
        mats = build_matrices(3, 1, route="rewrite", ctx=ctx)
        special, s1, s2 = _marked_fixture_pair(ctx)
        P = marked_fixture_permutation(ctx, mats[0].basis, special)
        for mat, fix in zip(mats, (s1, s2)):
            got = P.T @ mat.entries @ P
            worst = nan_max(worst, _rel(np.max(np.abs(got - fix)), np.max(np.abs(fix))))
    return CheckResult("marked_fixture_6x6", worst < tols.rel_zero, worst)


def _relation_grid():
    return [(n, N) for n in RELATION_SLOTS for N in range(RELATION_LEVEL_MAX + 1)]


def check_braid_relations(rng, tols):
    """Braid and far-commutation relations over the (n, N) grid: exact
    in Laurent mode, residual-bounded for numeric draws of both
    homogeneous and one-marked-slot label patterns, inverses included."""
    worst = 0.0
    exact_ok = True
    detail = None
    for n, N in _relation_grid():
        f = build_matrices(n, N, route="rewrite", backend="laurent")
        g = build_matrices(n, N, route="rewrite", backend="laurent", inverse=True)
        if braid_relation_defect(f) != 0.0 or inverse_defect(f, g) != 0.0:
            exact_ok = False
            detail = {"n": n, "N": N, "stage": "laurent"}
        for d in range(DRAWS):
            q, gamma, c = _draw(rng)
            ctx = homogeneous_context(n, gamma, c, q) if d % 2 == 0 else _draw_marked(rng, n)
            fn = build_matrices(n, N, route="rewrite", ctx=ctx)
            gn = build_matrices(n, N, route="rewrite", ctx=ctx, inverse=True)
            worst = nan_max(worst, braid_relation_defect(fn), inverse_defect(fn, gn))
    passed = exact_ok and worst < tols.braid_residual
    return CheckResult("braid_relations_grid", passed, worst, detail)


def check_route_equivalence(rng, tols, draws=DRAWS):
    """Direct tensor-coordinate route against the rewrite route, entry
    by entry, over homogeneous, marked, and all-distinct label draws."""
    worst = 0.0
    for d in range(draws):
        q, gamma, c = _draw(rng)
        cases = [ctx for n in (2, 3, 4) for ctx in (homogeneous_context(n, gamma, c, q), _draw_marked(rng, n))]
        cases.append(Context([RepLabel(gamma + 0.5 * k, c + 0.4 * k) for k in range(3)], q))
        for ctx in cases:
            for N in (0, 1, 2):
                rw = build_matrices(ctx.n, N, route="rewrite", ctx=ctx)
                dr = build_matrices(ctx.n, N, route="direct", ctx=ctx)
                for a, b in zip(rw, dr):
                    want = a.entries
                    worst = nan_max(worst, _rel(np.max(np.abs(want - b.entries)), float(np.max(np.abs(want)))))
    return CheckResult("route_equivalence", worst < tols.route_match, worst)


def check_transition_formulas(rng):
    """The two closed-form binomial variants agree with the series on
    all k <= 1 transitions; the first k >= 2 disagreement is reported."""
    q, g1, c1 = _draw(rng)
    ctx = Context((RepLabel(g1, c1), RepLabel(g1 + 0.6, c1 + 0.5)), q)
    rep = compare_transition_formulas(ctx)
    fd = rep["first_k_ge_2_difference"]
    ratio = None if fd is None else fd["multiset"] / fd["series"]
    passed = (
        rep["k_le_1_deviation"] < 1e-12
        and rep["series_vs_closed_deviation"] < 1e-12
        and fd is not None
        and abs(ratio - np.sqrt(3.0)) < 1e-9
    )
    detail = {"first_k_ge_2_difference": fd, "multiset_over_series_ratio": ratio}
    return CheckResult("transition_formula_variants", passed, rep["k_le_1_deviation"], detail)


def check_series_route_relations(rng, tols, draws=DRAWS):
    """The series-oracle route itself satisfies the braid relations over
    the full (n, N) grid (numeric draws, both label patterns)."""
    worst = 0.0
    for n, N in _relation_grid():
        for d in range(draws):
            q, gamma, c = _draw(rng)
            ctx = homogeneous_context(n, gamma, c, q) if d % 2 == 0 else _draw_marked(rng, n)
            mats = build_matrices(n, N, route="direct", ctx=ctx, formula="series")
            worst = nan_max(worst, braid_relation_defect(mats))
    return CheckResult("series_route_relations", worst < tols.braid_residual, worst)


def check_pair_change():
    """Level-2 pair change of basis: frozen determinant at three slots,
    condition numbers reported for larger n."""
    conds = {}
    ok = True
    for s in (0.8, 2.5):
        pb = pair_basis_change(3, s)
        if abs(pb.determinant - (-4.0)) > 1e-10 or not pb.invertible:
            ok = False
    for n in (3, 4, 5):
        pb = pair_basis_change(n, 1.3)
        conds[str(n)] = pb.condition
        if not pb.invertible:
            ok = False
    return CheckResult("pair_change_invertibility", ok, None, {"condition_by_n": conds})


def check_words():
    """Braid-word products: inverse pair, the defining relation as a
    word identity, and a frozen two-letter trace."""
    f = build_matrices(3, 1, route="rewrite", backend="laurent")
    g = build_matrices(3, 1, route="rewrite", backend="laurent", inverse=True)
    ok = True
    tot, ph = evaluate_word([1, -1], f, g)
    ok = ok and lmat_eq(tot, [[L_ONE, L_ZERO], [L_ZERO, L_ONE]]) and ph.exponent == 0
    lhs, _ = evaluate_word([1, 2, 1], f, g)
    rhs, _ = evaluate_word([2, 1, 2], f, g)
    ok = ok and lmat_eq(lhs, rhs)
    sq, _ = evaluate_word([1, 1], f, g)
    ok = ok and (sq[0][0] + sq[1][1]) == Laurent.x(4) + L_ONE
    return CheckResult("braid_words", ok)


def suite_braid(seed=0, tols=DEFAULT_TOLS):
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    report = SuiteReport(
        "braid",
        seed,
        {"relation_grid": "n in {%s} x N in {0..%d}" % (",".join(map(str, RELATION_SLOTS)), RELATION_LEVEL_MAX),
         "draws": DRAWS, "tolerances": asdict(tols)},
    )
    report.checks.append(check_burau_family())
    report.checks.append(check_lkb_family())
    report.checks.append(check_marked_fixture(rng, tols))
    report.checks.append(check_braid_relations(rng, tols))
    report.checks.append(check_route_equivalence(rng, tols))
    report.checks.append(check_transition_formulas(rng))
    report.checks.append(check_series_route_relations(rng, tols))
    report.checks.append(check_pair_change())
    report.checks.append(check_words())
    report.runtime_seconds = time.perf_counter() - t0
    return report


SUITES = {"algebra": suite_algebra, "spaces": suite_spaces, "braid": suite_braid}


def run_suites(names, seed=0, tols=DEFAULT_TOLS):
    """Run the named suites (or all of them for the name "all")."""
    if isinstance(names, str):
        names = list(SUITES) if names == "all" else [names]
    reports = []
    for name in names:
        if name not in SUITES:
            raise ValueError("unknown suite %r" % (name,))
        reports.append(SUITES[name](seed=seed, tols=tols))
    return reports
