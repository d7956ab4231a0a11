"""Size ladder of the exact (Laurent) backend: where its cost curve bends.

    python3 scripts/exact_sizes.py [--sizes 8,5 10,5 12,5 14,5] [--budget S]
                                   [--mem-cap GB] [--src DIR]

Each rung (n, N) runs in a fresh process with one BLAS thread and times
the forward build, the inverse build, ``braid_relation_defect`` on the
forward family, ``inverse_defect`` and ``family_to_json`` of the forward
family.  ``peak_rss_mb`` is read after the checks and ``export_peak_rss_mb``
after the export.  The last line of output is one JSON object.

Guards: the ladder stops after the first rung that takes longer than
``--budget`` seconds (that rung is killed at the budget).  Before a rung
starts, its nested-list footprint is predicted from d = C(n+N-2, N) at
8 bytes per list slot: (n-1) d**2 slots for the export, and twice that
again for the two builds when the package keeps exact entries as nested
lists.  A rung whose builds alone pass ``--mem-cap`` is skipped, and a
rung whose export would pass it runs without the export; nothing of
either is allocated.  ``--src`` measures another checkout's ``src/``.
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


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rung(n, N, export):
    """Time one rung in this process; returns its JSON record."""
    from braidosc import braid_relation_defect, build_matrices, family_to_json, inverse_defect

    out = {"n": n, "N": N, "d": math.comb(n + N - 2, N)}
    t0 = time.perf_counter()
    fwd = build_matrices(n, N)
    t1 = time.perf_counter()
    inv = build_matrices(n, N, inverse=True)
    t2 = time.perf_counter()
    relation = braid_relation_defect(fwd)
    t3 = time.perf_counter()
    inverse = inverse_defect(fwd, inv)
    t4 = time.perf_counter()
    out.update(build_s=t1 - t0, build_inverse_s=t2 - t1, relations_s=t3 - t2, inverse_s=t4 - t3,
               relation_defect=relation, inverse_defect=inverse, peak_rss_mb=peak_rss_mb())
    if export:
        del inv
        t5 = time.perf_counter()
        family_to_json(fwd)
        out.update(to_json_s=time.perf_counter() - t5, export_peak_rss_mb=peak_rss_mb())
    return out


def stores_lists():
    """True when the package keeps exact entries as nested lists."""
    from braidosc import build_matrices

    return isinstance(build_matrices(3, 1)[0].entries, list)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", nargs="+", default=["8,5", "10,5", "12,5", "14,5"], help="n,N per rung")
    p.add_argument("--budget", type=float, default=60.0, help="seconds per rung")
    p.add_argument("--mem-cap", type=float, default=2.0, help="GB of predicted nested lists")
    p.add_argument("--src", default=SRC, help="src/ directory of the checkout to measure")
    p.add_argument("--rung", nargs=2, type=int, help=argparse.SUPPRESS)
    p.add_argument("--no-export", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.rung:
        print(json.dumps(run_rung(*args.rung, export=not args.no_export)))
        return 0

    lists = stores_lists()
    cap = args.mem_cap * 2 ** 30
    report = {"budget_s": args.budget, "mem_cap_gb": args.mem_cap, "stores_lists": lists, "rungs": []}
    for size in args.sizes:
        n, N = map(int, size.split(","))
        d = math.comb(n + N - 2, N)
        export_bytes = (n - 1) * d * d * SLOT_BYTES
        build_bytes = 2 * export_bytes if lists else 0
        rung = {"n": n, "N": N, "d": d, "predicted_lists_gb": (build_bytes + export_bytes) / 2 ** 30}
        if build_bytes > cap:
            rung["skipped"] = "builds need %.1f GB of nested lists" % (build_bytes / 2 ** 30)
            report["rungs"].append(rung)
            continue
        cmd = [sys.executable, os.path.abspath(__file__), "--src", args.src, "--rung", str(n), str(N)]
        if build_bytes + export_bytes > cap:
            cmd.append("--no-export")
            rung["export_skipped"] = "export needs %.1f GB of nested lists" % (export_bytes / 2 ** 30)
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
