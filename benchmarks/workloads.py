"""The four benchmark workloads: inputs drawn from a seed, jobs, checks.

A round is a fixed list of jobs; every round of a workload has the same
(n, N) sizes and the same operations, and only the seeded parameters
(q, labels, words, evaluation points) change from round to round.  A job
builds one generator family (forward and inverse) and checks it, or
makes one CLI invocation and checks its output.  ``run_job`` returns the
job's worst relative error (None where the result is exact), which the
harness turns into ``accuracy_digits``.

The program is called through the package namespace (``bo.name``) so
that the tracer can wrap its public functions.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np

import braidosc as bo
import checks as ck
from checks import require

WORKLOADS = ("exact", "direct", "wide", "cli")

# (n, N) of the exact generator families, and whether the job also builds
# the numeric family for accuracy_digits.  The numeric route enumerates all
# n! arrangements even for equal labels, so only the n = 6 jobs do.  Each
# round repeats the median-sized job three times, with fresh parameters, so
# that job_s.p50 rests on several samples of one job type.
EXACT_FAMILIES = ((8, 4, False), (10, 3, False)) + ((6, 4, True),) * 3
EXACT_KERNELS = ((5, 3),)
EXACT_BURAU = (11,)
EXACT_WORDS = 2
EXACT_WORD_LEN = 4

# (labels kind, n, N, run the series formula, run the space checks)
DIRECT_JOBS = (
    ("marked", 5, 4, False, False),
    ("marked", 6, 3, False, True),
    ("marked", 4, 4, True, True),
    ("distinct", 3, 4, True, True),
) + (("distinct", 4, 3, True, True),) * 3

# (n, N) with all-distinct labels: n! sectors.
WIDE_JOBS = ((4, 4), (5, 2)) + ((4, 5),) * 3
WIDE_WORD_LEN = 20


# ---------------------------------------------------------------------------
# seeded inputs

def round_rng(seed, workload, k):
    return np.random.default_rng([seed, WORKLOADS.index(workload), k])


def draw_q(rng):
    """q on either side of 1, away from 1 and from the extreme regime."""
    if rng.random() < 0.5:
        return float(rng.uniform(0.5, 0.8))
    return float(rng.uniform(1.25, 2.0))


def draw_label(rng):
    return (float(rng.uniform(0.6, 1.8)), float(rng.uniform(0.3, 1.5)))


def draw_labels(rng, kind, n):
    """Marked: n-1 copies of a base label and one other; distinct: n labels
    whose gammas are at least 0.15 apart."""
    if kind == "marked":
        base = draw_label(rng)
        special = (base[0] + float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.3, 1.5)))
        labels = [base] * n
        labels[int(rng.integers(0, n))] = special
        return labels
    gammas = 0.6 + 0.15 * np.arange(n) + np.sort(rng.uniform(0.0, 0.5, n))
    return [(float(g), float(rng.uniform(0.3, 1.5))) for g in rng.permutation(gammas)]


def draw_word(rng, n, length, signed=True):
    letters = rng.integers(1, n, length)
    if signed:
        letters = letters * rng.choice([-1, 1], length)
    return [int(v) for v in letters]


def make_round(workload, seed, k):
    """Job specs of round k: plain data, identical for identical (seed, k)."""
    rng = round_rng(seed, workload, k)
    if workload == "exact":
        jobs = []
        for n, N, numeric in EXACT_FAMILIES:
            q = draw_q(rng)
            jobs.append({
                "kind": "exact_family", "n": n, "N": N, "numeric": numeric,
                "x0": int(rng.integers(2, ck.PRIME - 1)),
                "words": [draw_word(rng, n, EXACT_WORD_LEN) for _ in range(EXACT_WORDS)],
                "q": q, "label": draw_label(rng),
            })
        for n in EXACT_BURAU:
            jobs.append({"kind": "burau", "n": n,
                         "x0": (int(rng.integers(2, 40)), int(rng.integers(2, 40)))})
        for n, N in EXACT_KERNELS:
            jobs.append({"kind": "exact_kernel", "n": n, "N": N,
                         "x0": int(rng.integers(2, ck.PRIME - 1))})
        return jobs
    if workload == "direct":
        return [
            {"kind": "direct", "n": n, "N": N, "q": draw_q(rng),
             "labels": draw_labels(rng, kind, n), "series": series, "spaces": spaces}
            for kind, n, N, series, spaces in DIRECT_JOBS
        ]
    if workload == "wide":
        return [
            {"kind": "wide", "n": n, "N": N, "q": draw_q(rng),
             "labels": draw_labels(rng, "distinct", n),
             "word": draw_word(rng, n, WIDE_WORD_LEN), "probe": int(rng.integers(1 << 30))}
            for n, N in WIDE_JOBS
        ]
    if workload == "cli":
        return cli_round(rng)
    raise ValueError("unknown workload %r" % (workload,))


def context(spec):
    labels = [bo.RepLabel(g, c) for g, c in spec["labels"]]
    return bo.Context(labels, spec["q"])


# ---------------------------------------------------------------------------
# exact: Laurent families, Burau, exact kernels

def evaluate_at(entries, x):
    """A Laurent matrix evaluated at a float x."""
    out = np.zeros((len(entries), len(entries)))
    for r, row in enumerate(entries):
        for c, e in enumerate(row):
            if e.terms:
                out[r, c] = sum(float(v) * x ** p for p, v in e.terms.items())
    return out


def check_exact_outputs(spec, fwd, inv, words):
    """fwd, inv: Laurent families; words: [(word, entries, phase)]."""
    n, N, x0 = spec["n"], spec["N"], spec["x0"]
    require(fwd[0].dimension == math.comb(n + N - 2, n - 2), "basis size is not C(n+N-2, n-2)")
    F = {m.generator: ck.lmatrix_mod(m.entries, x0) for m in fwd}
    G = {m.generator: ck.lmatrix_mod(m.entries, x0) for m in inv}
    ck.check_exact_family(F, G)
    for word, entries, phase in words:
        require(np.array_equal(ck.lmatrix_mod(entries, x0), ck.word_product_mod(word, F, G)),
                "word %r differs from the product of its letters" % (word,))
        require(phase.exponent == sum(1 if v > 0 else -1 for v in word), "word phase exponent")


def job_exact_family(spec):
    n, N = spec["n"], spec["N"]
    fwd = bo.build_matrices(n, N)
    inv = bo.build_matrices(n, N, inverse=True)
    require(bo.braid_relation_defect(fwd) == 0.0, "exact relation defect is not 0")
    require(bo.inverse_defect(fwd, inv) == 0.0, "exact inverse defect is not 0")
    words = [(w,) + tuple(bo.evaluate_word(w, fwd, inv)) for w in spec["words"]]
    check_exact_outputs(spec, fwd, inv, words)
    if not spec["numeric"]:
        return None
    # Accuracy: the numeric rewrite route on the same labels against the
    # exact family evaluated at x = q**(-gamma).
    gamma, c = spec["label"]
    num = bo.build_matrices(n, N, ctx=bo.homogeneous_context(n, gamma, c, spec["q"]))
    x = spec["q"] ** (-gamma)
    return max(ck.route_disagreement(evaluate_at(e.entries, x), m.entries)[0] for e, m in zip(fwd, num))


def check_burau_outputs(spec, fwd, inv):
    n = spec["n"]
    x0 = Fraction(*spec["x0"])
    ref = ck.reduced_burau(n, x0)
    for m in fwd:
        got = [[ck.laurent_at(e.terms, x0) for e in row] for row in m.entries]
        require(got == ref[m.generator], "level-1 family differs from reduced Burau")
    for mf, mi in zip(fwd, inv):
        a = [[ck.laurent_at(e.terms, x0) for e in row] for row in mf.entries]
        b = [[ck.laurent_at(e.terms, x0) for e in row] for row in mi.entries]
        prod = [[sum(a[r][k] * b[k][c] for k in range(n - 1)) for c in range(n - 1)] for r in range(n - 1)]
        require(prod == [[int(r == c) for c in range(n - 1)] for r in range(n - 1)],
                "level-1 sigma sigma^-1 != 1")


def job_burau(spec):
    fwd = bo.build_matrices(spec["n"], 1)
    inv = bo.build_matrices(spec["n"], 1, inverse=True)
    check_burau_outputs(spec, fwd, inv)
    return None


def job_exact_kernel(spec):
    kernel = bo.lowest_weight_kernel_exact(spec["n"], spec["N"])
    ck.check_exact_kernel(spec["n"], spec["N"], kernel, spec["x0"])
    return None


# ---------------------------------------------------------------------------
# direct: tensor-coordinate route against the rewrite route

def check_route_pair(direct, rewrite, tol):
    """Per-matrix normwise agreement within ``tol``; returns the worst
    entrywise relative disagreement."""
    worst = 0.0
    for d, r in zip(direct, rewrite):
        require(d.basis == r.basis, "routes use different bases")
        entrywise, normwise = ck.route_disagreement(r.entries, d.entries)
        require(normwise <= tol, "routes disagree by %.2e on generator %d" % (normwise, d.generator))
        worst = max(worst, entrywise)
    return worst


def coords(vectors):
    states = sorted({st for v in vectors for st in v.terms}, key=lambda s: (s.perm, s.occ))
    index = {st: i for i, st in enumerate(states)}
    out = np.zeros((len(vectors), len(states)))
    for k, v in enumerate(vectors):
        for st, co in v.terms.items():
            out[k, index[st]] = float(co)
    return out


def check_spaces(n, N, kernel, monomials, decomposition, tols):
    """Kernel span equals monomial span; Casimir blocks have binomial sizes."""
    expected = math.comb(n + N - 2, n - 2)
    require(len(kernel.vectors) == expected == len(monomials.vectors), "lowest-weight dimension")
    both = coords(list(kernel.vectors) + list(monomials.vectors))
    sv = np.linalg.svd(both, compute_uv=False)
    rank = int(np.sum(sv > tols.sv_cutoff * sv[0]))
    require(rank == expected, "kernel span and monomial span differ (joint rank %d)" % rank)
    require(decomposition.passed, "Casimir decomposition fails")
    require(decomposition.block_dims == [math.comb(n + j - 2, n - 2) for j in range(N + 1)],
            "Casimir block sizes")


def job_direct(spec):
    n, N = spec["n"], spec["N"]
    ctx = context(spec)
    tols = bo.DEFAULT_TOLS
    worst = 0.0
    for inverse in (False, True):
        rewrite = bo.build_matrices(n, N, route="rewrite", ctx=ctx, inverse=inverse)
        direct = bo.build_matrices(n, N, route="direct", ctx=ctx, inverse=inverse)
        worst = max(worst, check_route_pair(direct, rewrite, tols.route_match))
        if spec["series"] and not inverse:
            series = bo.build_matrices(n, N, route="direct", ctx=ctx, formula="series")
            worst = max(worst, check_route_pair(series, rewrite, tols.route_match))
    if spec["spaces"]:
        kernel = bo.lowest_weight_kernel(ctx, N)
        monomials = bo.lowest_weight_monomials(ctx, N)
        require(bo.span_residual(kernel.vectors, monomials.vectors) <= tols.span_residual, "span residual")
        require(bo.span_residual(monomials.vectors, kernel.vectors) <= tols.span_residual, "span residual")
        check_spaces(n, N, kernel, monomials, bo.verify_decomposition(ctx, N), tols)
    return worst


# ---------------------------------------------------------------------------
# wide: numeric rewrite over n! sectors

def check_wide_outputs(spec, fwd, inv, word_total, identity_total, payload):
    n, N = spec["n"], spec["N"]
    d = math.factorial(n) * math.comb(n + N - 2, n - 2)
    require(fwd[0].dimension == d, "basis size is not n! C(n+N-2, n-2)")
    F = {m.generator: m.entries for m in fwd}
    G = {m.generator: m.entries for m in inv}
    rng = np.random.default_rng(spec["probe"])
    rel = ck.relation_residual(F, rng)
    require(rel <= ck.product_bound(d, 3), "relation residual %.2e above the fp64 bound" % rel)
    inv_res = ck.inverse_residual(F, G, rng)
    require(inv_res <= ck.product_bound(d, 2), "inverse residual %.2e above the fp64 bound" % inv_res)
    word = spec["word"]
    res = ck.word_residual(word, word_total, F, G, rng)
    require(res <= ck.product_bound(d, len(word)), "word residual %.2e above the fp64 bound" % res)
    g = 1 + spec["probe"] % (n - 1)
    eye_res = np.linalg.norm(identity_total - np.eye(d)) / (np.linalg.norm(F[g]) * np.linalg.norm(G[g]))
    require(eye_res <= ck.product_bound(d, 2), "sigma_i sigma_i^-1 word is not the identity")
    require(len(payload["basis"]) == d and len(payload["matrices"]) == n - 1, "JSON shape")
    exported = np.array(payload["matrices"][g - 1]["entries"], dtype=float)
    require(np.array_equal(exported, F[g]), "JSON entries do not round-trip")
    return max(rel, inv_res)


def job_wide(spec):
    n, N = spec["n"], spec["N"]
    ctx = context(spec)
    fwd = bo.build_matrices(n, N, route="rewrite", ctx=ctx)
    inv = bo.build_matrices(n, N, route="rewrite", ctx=ctx, inverse=True)
    # The program's own checks are timed, not judged: inverse_defect is an
    # absolute residual, so no fixed tolerance fits every q.
    bo.braid_relation_defect(fwd)
    bo.inverse_defect(fwd, inv)
    word_total, _ = bo.evaluate_word(spec["word"], fwd, inv)
    g = 1 + spec["probe"] % (n - 1)
    identity_total, _ = bo.evaluate_word([g, -g], fwd, inv)
    payload = bo.family_to_json(fwd)
    return check_wide_outputs(spec, fwd, inv, word_total, identity_total, payload)


# ---------------------------------------------------------------------------
# cli: subprocess invocations of python -m braidosc.cli

CLI_LAURENT = (6, 4)
CLI_HET = (4, 3)
CLI_LABELS = (4, 2)
CLI_DIMS = (7, 5)


def cli_round(rng):
    n, N = CLI_LAURENT
    word = draw_word(rng, n, 6, signed=False)
    half = draw_word(rng, 5, 3)
    g, c = draw_label(rng)
    g2, c2 = draw_label(rng)
    het = ["--n", str(CLI_HET[0]), "--N", str(CLI_HET[1]), "--het", "--route", "direct",
           "--gamma", repr(g), "--c", repr(c), "--gamma2", repr(g2 + 0.3), "--c2", repr(c2),
           "--position", str(int(rng.integers(1, CLI_HET[0] + 1))), "--q", repr(draw_q(rng))]
    labels = draw_labels(rng, "distinct", CLI_LABELS[0])
    lab = ["--n", str(CLI_LABELS[0]), "--N", str(CLI_LABELS[1]), "--labels", json.dumps(labels),
           "--q", repr(draw_q(rng))]
    x0 = int(rng.integers(2, ck.PRIME - 1))
    return [
        {"kind": "cli", "cmd": "dims", "argv": ["dims", "--n", str(CLI_DIMS[0]), "--N", str(CLI_DIMS[1]),
                                              "--format", "json"]},
        {"kind": "cli", "cmd": "matrix", "check": "laurent", "x0": x0,
         "argv": ["matrix", "--n", str(n), "--N", str(N), "--backend", "laurent"]},
        {"kind": "cli", "cmd": "word", "check": "word", "x0": x0, "word": word,
         "argv": ["word", "--n", str(n), "--N", str(N), "--backend", "laurent",
                  "--word=" + " ".join(map(str, word))]},
        {"kind": "cli", "cmd": "word", "check": "identity", "x0": x0,
         "argv": ["word", "--n", "5", "--N", "2", "--backend", "laurent",
                  "--word=" + " ".join(map(str, half + [-v for v in reversed(half)]))]},
        {"kind": "cli", "cmd": "matrix", "check": "numeric", "probe": int(rng.integers(1 << 30)),
         "argv": ["matrix"] + het},
        {"kind": "cli", "cmd": "matrix", "check": "numeric", "probe": int(rng.integers(1 << 30)),
         "argv": ["matrix"] + lab},
        # A fixed suite seed: some seeds fail a relation tolerance (see
        # FOUND: in CHANGES.md), and a job may not fail on some seeds only.
        {"kind": "cli", "cmd": "verify", "argv": ["verify", "--suite", "all", "--seed", "0"]},
    ]


def src_dir():
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir()
    return env


def run_child(argv, capture=False, timeout=120):
    """Run a Python child process to its end; returns (exit code, stdout).

    A blocking wait with a watchdog timer, not subprocess's own timeout:
    that one polls with sleeps of up to 50 ms, which would round the
    child's measured time up to the next poll.
    """
    proc = subprocess.Popen(
        [sys.executable] + list(argv), env=cli_env(), cwd=os.path.dirname(src_dir()),
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out


def run_cli(argv):
    """Run the CLI in a child process; returns (exit code, stdout)."""
    return run_child(["-m", "braidosc.cli"] + list(argv), capture=True)


def laurent_json_mod(rows, x0):
    out = np.zeros((len(rows), len(rows)))
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            if e["terms"]:
                out[r, c] = ck.laurent_mod({int(p): Fraction(v) for p, v in e["terms"]}, x0)
    return out


def check_cli_output(spec, code, out, state):
    """Exit code, JSON validity and the mathematical content of one
    invocation.  ``state`` carries the round's Laurent family to the word
    check.  Returns a relative error for numeric families, else None."""
    require(code == 0, "exit code %d" % code)
    if spec["cmd"] == "verify":
        require(out.strip().splitlines()[-1] == "ALL PASS", "verify does not print ALL PASS")
        return None
    payload = json.loads(out)
    if spec["cmd"] == "dims":
        n, N = CLI_DIMS
        require(payload["weight_dim"] == math.comb(n + N - 1, n - 1), "weight dimension")
        require(payload["lowest_dims"] == [math.comb(n + j - 2, n - 2) for j in range(N + 1)],
                "lowest-weight dimensions")
        return None
    kind = spec["check"]
    if kind == "laurent":
        F = {m["generator"]: laurent_json_mod(m["entries"], spec["x0"]) for m in payload["matrices"]}
        ck.check_exact_family(F)
        state["laurent"] = F
        return None
    if kind == "word":
        F = state["laurent"]
        require(np.array_equal(laurent_json_mod(payload["entries"], spec["x0"]),
                               ck.word_product_mod(spec["word"], F, None)), "word product")
        return None
    if kind == "identity":
        got = laurent_json_mod(payload["entries"], spec["x0"])
        require(np.array_equal(got, np.eye(got.shape[0])) and payload["phase"]["exponent"] == "0",
                "w w^-1 is not the identity")
        return None
    F = {m["generator"]: np.array(m["entries"], dtype=float) for m in payload["matrices"]}
    d = len(payload["basis"])
    res = ck.relation_residual(F, np.random.default_rng(spec["probe"]))
    require(res <= ck.product_bound(d, 3), "relation residual %.2e above the fp64 bound" % res)
    return res


def job_cli(spec, state):
    code, out = run_cli(spec["argv"])
    return check_cli_output(spec, code, out, state)


JOBS = {
    "exact_family": job_exact_family,
    "burau": job_burau,
    "exact_kernel": job_exact_kernel,
    "direct": job_direct,
    "wide": job_wide,
}


def run_job(spec, state):
    """Run one job and check it; returns its relative error or None."""
    if spec["kind"] == "cli":
        return job_cli(spec, state)
    return JOBS[spec["kind"]](spec)


# ---------------------------------------------------------------------------
# set-up

def warm_up(workload):
    """Import-time and first-call costs, paid before timing starts: the
    first BLAS calls and one small job of the workload."""
    a = np.random.default_rng(0).standard_normal((64, 64))
    np.linalg.svd(a @ a)
    np.linalg.solve(a, a[0])
    if workload == "exact":
        fwd = bo.build_matrices(4, 2)
        bo.braid_relation_defect(fwd)
        bo.lowest_weight_kernel_exact(3, 2)
    elif workload == "direct":
        ctx = bo.marked_context(3, bo.RepLabel(1.0, 0.5), bo.RepLabel(1.4, 0.7), 1, 0.6)
        bo.build_matrices(3, 2, route="direct", ctx=ctx)
        bo.verify_decomposition(ctx, 2)
    elif workload == "wide":
        ctx = bo.Context([bo.RepLabel(1.0 + 0.2 * k, 0.5) for k in range(3)], 0.6)
        fwd = bo.build_matrices(3, 2, route="rewrite", ctx=ctx)
        bo.braid_relation_defect(fwd)
        json.dumps(bo.family_to_json(fwd))
    elif workload == "cli":
        code, _ = run_cli(CLI_NO_WORK)
        require(code == 0, "no-work CLI invocation failed")
    else:
        raise ValueError("unknown workload %r" % (workload,))


# The no-work CLI invocation: interpreter start, import, argparse, JSON.
CLI_NO_WORK = ("dims", "--n", "2", "--N", "0", "--format", "json")
