"""Size ladders of the exact (Laurent) backend, of the numeric direct and
rewrite routes, and of the exact lowest-weight kernel: where their cost
curves bend.

    python3 scripts/exact_sizes.py [--ladder exact|direct|rewrite|kernel] [--sizes ...]
                                   [--budget S] [--mem-cap GB] [--src DIR]

An exact rung is "n,N"; the exact ladder is (8,5) -> (14,5).  A numeric
rung is "n,N,distinct" (n! sectors, all labels different) or
"n,N,homogeneous" (one sector), built with q = 0.6 by the ladder's route.
The direct ladder is all-distinct (5,3), (5,4), (6,1), (6,2), (7,1),
(7,2), (8,1), then homogeneous (8,5) and (10,4); the rewrite ladder is
the same all-distinct rungs, then homogeneous (8,5) and (10,5).  Each
exact or numeric rung runs in a fresh process with one BLAS thread and
times the forward build, the inverse build, ``braid_relation_defect`` on
the forward family, ``inverse_defect``, one read of every row of every
forward generator (``rows_s``: Laurent rows on exact rungs, one dense
``entries`` array per generator on numeric rungs), and ``family_to_json``
of the forward family.  ``peak_rss_mb`` is read after the checks,
``rows_peak_rss_mb`` after the row read and ``export_peak_rss_mb`` after
the export.  ``d`` is the matrix dimension: sectors times C(n+N-2, N).
A kernel rung is "n,N" too; it times ``lowest_weight_kernel_exact``, and
the kernel ladder is (6,4), (6,5), (3,40), (2,70).  The last line of
output is one JSON object.

Guards: the ladder stops after the first rung that takes longer than
``--budget`` seconds (that rung is killed at the budget).  Before a rung
starts, its footprint is predicted at 8 bytes per list slot or float:
(n-1) d**2 slots for the export, and as many again for the row read (a
checkout may keep the rows or dense arrays through the export); for the
two numeric builds, (n-1) sectors C(n+N-2, N)**2 floats each when the
checkout stores sector blocks, else (n-1) d**2 (exact builds store
triplets, counted as nothing); for a kernel, one slot per weight state of each
kernel vector.  A rung whose builds alone pass ``--mem-cap`` is skipped,
and a rung whose row read, or then its export, would pass it runs without
that stage; nothing of a skipped stage is allocated.
``--src`` measures another checkout's ``src/``, with the footprint that
checkout stores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SLOT_BYTES = 8
LADDERS = {
    "exact": ["8,5", "10,5", "12,5", "14,5"],
    "direct": ["5,3,distinct", "5,4,distinct", "6,1,distinct", "6,2,distinct", "7,1,distinct",
               "7,2,distinct", "8,1,distinct", "8,5,homogeneous", "10,4,homogeneous"],
    "rewrite": ["5,3,distinct", "5,4,distinct", "6,1,distinct", "6,2,distinct", "7,1,distinct",
                "7,2,distinct", "8,1,distinct", "8,5,homogeneous", "10,5,homogeneous"],
    "kernel": ["6,4", "6,5", "3,40", "2,70"],
}
EXACT_RUNGS = ("exact", "kernel")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_rung(size):
    """(n, N, labels) of an "n,N" or "n,N,labels" rung; labels is None for exact rungs."""
    n, N, *labels = size.split(",")
    if labels not in ([], ["distinct"], ["homogeneous"]):
        raise SystemExit("rung %r: labels must be 'distinct' or 'homogeneous'" % size)
    return int(n), int(N), (labels or [None])[0]


def dimension(n, N, labels):
    return (math.factorial(n) if labels == "distinct" else 1) * math.comb(n + N - 2, N)


def footprint(ladder, n, N, labels, blocks):
    """Predicted bytes of a rung's two builds and of its export."""
    if ladder == "kernel":
        return math.comb(n + N - 1, N) * math.comb(n + N - 2, N) * SLOT_BYTES, 0
    d = dimension(n, N, labels)
    export = (n - 1) * d * d * SLOT_BYTES
    if ladder == "exact":
        return 0, export
    stored = d * math.comb(n + N - 2, N) if blocks else d * d
    return 2 * (n - 1) * stored * SLOT_BYTES, export


def family_builder(n, labels, route):
    """build_matrices for the rung: exact, or the numeric route on the rung's labels."""
    from braidosc import Context, RepLabel, build_matrices

    if labels is None:
        return lambda N, inverse: build_matrices(n, N, inverse=inverse)
    count = n if labels == "distinct" else 1
    ctx = Context([RepLabel(1.0 + 0.1 * (k % count), 0.5 + 0.2 * (k % count)) for k in range(n)], 0.6)
    return lambda N, inverse: build_matrices(n, N, route=route, ctx=ctx, inverse=inverse)


def run_rung(n, N, labels, route, export, rows):
    """Time one rung in this process; returns its JSON record."""
    from braidosc import braid_relation_defect, family_to_json, inverse_defect, lowest_weight_kernel_exact

    if route == "kernel":
        t0 = time.perf_counter()
        kernel = lowest_weight_kernel_exact(n, N)
        return {"n": n, "N": N, "d": len(kernel.vectors), "weight_dim": len(kernel.occupations),
                "kernel_s": time.perf_counter() - t0, "peak_rss_mb": peak_rss_mb()}
    build = family_builder(n, labels, route)
    out = {"n": n, "N": N, "d": dimension(n, N, labels)}
    t0 = time.perf_counter()
    fwd = build(N, False)
    t1 = time.perf_counter()
    inv = build(N, True)
    t2 = time.perf_counter()
    relation = braid_relation_defect(fwd)
    t3 = time.perf_counter()
    inverse = inverse_defect(fwd, inv)
    t4 = time.perf_counter()
    out.update(build_s=t1 - t0, build_inverse_s=t2 - t1, relations_s=t3 - t2, inverse_s=t4 - t3,
               relation_defect=relation, inverse_defect=inverse, peak_rss_mb=peak_rss_mb())
    if rows:
        t5 = time.perf_counter()
        for m in fwd:
            for _ in m.entries:
                pass
        out.update(rows_s=time.perf_counter() - t5, rows_peak_rss_mb=peak_rss_mb())
    if export:
        del inv
        t5 = time.perf_counter()
        family_to_json(fwd)
        out.update(to_json_s=time.perf_counter() - t5, export_peak_rss_mb=peak_rss_mb())
    return out


def stores_blocks():
    """True when the package stores numeric families as sector blocks, not dense arrays."""
    from braidosc import Context, RepLabel, build_matrices

    ctx = Context([RepLabel(1.0, 0.5), RepLabel(1.1, 0.7)], 0.6)
    return hasattr(vars(build_matrices(2, 1, ctx=ctx)[0])["entries"], "blocks")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--ladder", choices=sorted(LADDERS), default="exact", help="exact backend, numeric route or exact kernel")
    p.add_argument("--sizes", nargs="+", help="n,N (exact, kernel) or n,N,distinct|homogeneous (numeric) per rung")
    p.add_argument("--budget", type=float, default=60.0, help="seconds per rung")
    p.add_argument("--mem-cap", type=float, default=2.0, help="GB of predicted stored entries and export lists")
    p.add_argument("--src", default=SRC, help="src/ directory of the checkout to measure")
    p.add_argument("--rung", help=argparse.SUPPRESS)
    p.add_argument("--no-export", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--no-rows", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.rung:
        print(json.dumps(run_rung(*parse_rung(args.rung), args.ladder, export=not args.no_export,
                                  rows=not args.no_rows)))
        return 0

    sizes = args.sizes or LADDERS[args.ladder]
    rungs = [parse_rung(size) for size in sizes]
    if any((labels is None) != (args.ladder in EXACT_RUNGS) for _, _, labels in rungs):
        raise SystemExit("exact and kernel rungs are n,N and numeric rungs n,N,labels")
    blocks = args.ladder not in EXACT_RUNGS and stores_blocks()
    cap = args.mem_cap * 2 ** 30
    report = {"ladder": args.ladder, "budget_s": args.budget, "mem_cap_gb": args.mem_cap, "stores_blocks": blocks,
              "rungs": []}
    for size, (n, N, labels) in zip(sizes, rungs):
        build_bytes, export_bytes = footprint(args.ladder, n, N, labels, blocks)
        rows_bytes = export_bytes
        rung = {"n": n, "N": N, "d": dimension(n, N, labels),
                "predicted_gb": (build_bytes + rows_bytes + export_bytes) / 2 ** 30}
        if labels:
            rung["labels"] = labels
        if build_bytes > cap:
            rung["skipped"] = "builds need %.1f GB" % (build_bytes / 2 ** 30)
            report["rungs"].append(rung)
            continue
        cmd = [sys.executable, os.path.abspath(__file__), "--src", args.src, "--ladder", args.ladder, "--rung", size]
        if build_bytes + rows_bytes > cap:
            cmd.append("--no-rows")
            rung["rows_skipped"] = "row read needs %.1f GB" % (rows_bytes / 2 ** 30)
            rows_bytes = 0
        if build_bytes + rows_bytes + export_bytes > cap:
            cmd.append("--no-export")
            rung["export_skipped"] = "export needs %.1f GB" % (export_bytes / 2 ** 30)
        t0 = time.perf_counter()
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=args.budget, check=True)
        except subprocess.TimeoutExpired:
            rung["stopped"] = "over the %g s budget" % args.budget
            report["rungs"].append(rung)
            break
        rung.update(json.loads(done.stdout.splitlines()[-1]), wall_s=time.perf_counter() - t0)
        report["rungs"].append(rung)
        print(json.dumps(rung), file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
