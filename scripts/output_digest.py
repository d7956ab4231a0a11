"""One md5 over the package's outputs on a fixed grid: two checkouts that
print the same md5 give byte-identical results on it.

    python3 scripts/output_digest.py [--n-max 5] [--N-max 3] [--src DIR]

The grid, each item hashed with a key naming it:

* on n 2..n-max and N 0..N-max, both directions: the exact rewrite family,
  the Burau or LKB closed form at N = 1, 2, and on homogeneous, one-marked
  and all-distinct labels at q 0.4 and 1.3 the numeric rewrite, direct and
  series-direct families and, at N = 1, the marked closed form.  Each
  family gives every member's fields, basis and ``entries`` (float64 bytes,
  or the repr of its Laurent rows) and ``family_to_json``; a refused build
  gives its error type and message;
* at n <= 4 and N <= 2 on the same contexts: ``sigma_weight_matrix`` of
  every generator in both directions, the blocks and Grams of
  ``lowest_weight_monomials(ctx, N, "all")``, and per sector the
  ``lowest_weight_kernel`` block, the ``verify_decomposition`` report, the
  (state, coefficient) pairs of the kernel's and the sector monomials'
  ``vectors`` (the tensor-coordinate layer) and both ``span_residual``
  values between them;
* ``run_suites("all")`` at seeds 0 and 672296719, without
  ``runtime_seconds``.

The full grid takes about 45 s on two cores.  Dense solves and SVDs round
through BLAS, so compare checkouts on one machine only.  ``--src`` measures
another checkout (its root or its ``src/``).  The last line of output is
one JSON object: md5, entries (the number of hashed items) and the
``src/`` the package was imported from.
"""

import argparse
import hashlib
import itertools
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SEEDS = (0, 672296719)


def _contexts(n, q):
    """Homogeneous, one-marked (slot 1) and all-distinct labels on n slots."""
    from braidosc import Context, RepLabel, homogeneous_context, marked_context

    base, other = RepLabel(0.9, 0.4), RepLabel(1.6, 1.1)
    yield "homogeneous", homogeneous_context(n, base.gamma, base.c, q)
    yield "marked", marked_context(n, base, other, 1, q)
    yield "distinct", Context([RepLabel(0.6 + 0.25 * k, 0.3 + 0.2 * k) for k in range(n)], q)


def digest(n_max=5, N_max=3):
    """(md5 hex, number of hashed items) of the grid in the module docstring."""
    import numpy as np
    from braidosc import (
        BraidoscError, build_matrices, closed_form_marked_n1, lowest_weight_kernel, lowest_weight_monomials,
        span_residual, verify_decomposition,
    )
    from braidosc.braid import family_to_json, sigma_weight_matrix
    from braidosc.verify import run_suites

    md5, count = hashlib.md5(), 0

    def add(key, *parts):
        nonlocal count
        md5.update(repr(key).encode())
        for part in parts:
            md5.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
        count += 1

    def family(key, build):
        try:
            mats = build()
        except (BraidoscError, ValueError) as exc:
            add(key, "%s: %s" % (type(exc).__name__, exc))
            return
        fields = ("generator", "inverse", "n", "N", "route", "backend", "phase", "q", "labels", "solve_residual")
        for m in mats:
            entries = m.entries
            add(key + (m.generator,), repr([getattr(m, f) for f in fields] + [m.basis]).encode(),
                entries.tobytes() if isinstance(entries, np.ndarray) else repr(entries).encode())
        add(key + ("json",), family_to_json(mats))

    for n, N, inverse in itertools.product(range(2, n_max + 1), range(N_max + 1), (False, True)):
        family(("exact", n, N, inverse), lambda: build_matrices(n, N, inverse=inverse))
        if N in (1, 2):
            family(("closed_form", n, N, inverse), lambda: build_matrices(n, N, route="closed_form", inverse=inverse))
        for q in (0.4, 1.3):
            for kind, ctx in _contexts(n, q):
                key = (kind, q, n, N, inverse)
                family(key + ("rewrite",), lambda: build_matrices(n, N, ctx=ctx, inverse=inverse))
                family(key + ("direct",), lambda: build_matrices(n, N, route="direct", ctx=ctx, inverse=inverse))
                family(key + ("series",), lambda: build_matrices(
                    n, N, route="direct", ctx=ctx, inverse=inverse, formula="series"))
                if N == 1 and kind == "marked":
                    family(key + ("closed_form",), lambda: closed_form_marked_n1(ctx, inverse))
    for n, N, q in itertools.product(range(2, min(n_max, 4) + 1), range(min(N_max, 2) + 1), (0.4, 1.3)):
        for kind, ctx in _contexts(n, q):
            key = (kind, q, n, N)
            for i, inverse in itertools.product(range(1, n), (False, True)):
                add(key + ("sigma", i, inverse), sigma_weight_matrix(ctx, N, i, inverse=inverse).tobytes())
            lw = lowest_weight_monomials(ctx, N, "all")
            add(key + ("monomials",), lw.blocks.tobytes(), lw.grams.tobytes())
            for sector in ctx.distinct_sectors():
                kernel, mono = lowest_weight_kernel(ctx, N, sector), lowest_weight_monomials(ctx, N, sector)
                add(key + ("kernel", sector), kernel.blocks.tobytes())
                add(key + ("decomposition", sector), verify_decomposition(ctx, N, sector).to_json())
                kv, mv = kernel.vectors, mono.vectors
                add(key + ("vectors", sector), *(repr([list(v.terms.items()) for v in vs]).encode() for vs in (kv, mv)))
                add(key + ("span", sector), span_residual(mv, kv), span_residual(kv, mv))
    for seed in SEEDS:
        for report in run_suites("all", seed=seed):
            out = report.to_json()
            del out["runtime_seconds"]
            add(("suite", seed), out)
    return md5.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--N-max", type=int, default=3)
    parser.add_argument("--src", default=SRC, help="another checkout, its root or its src/")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if os.path.isdir(os.path.join(src, "src", "braidosc")):
        src = os.path.join(src, "src")
    sys.path.insert(0, src)
    md5, count = digest(args.n_max, args.N_max)
    import braidosc

    print(json.dumps({"md5": md5, "entries": count, "src": os.path.dirname(os.path.dirname(braidosc.__file__))}))


if __name__ == "__main__":
    main()
