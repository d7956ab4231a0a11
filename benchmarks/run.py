"""Benchmark of the braidosc package.

    python3 benchmarks/run.py --workload {exact,direct,wide,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the workload's rounds run untraced for
about S seconds and the end-to-end metrics are printed.  With
``--trace 1`` one traced round of every workload runs, whatever S is,
and the per-layer metrics are printed; spans go to
``.bench_out/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and the metrics.
"""

import os

# One BLAS thread in this process and in every child it starts: with the
# default thread pool a busy second core makes dense products erratic.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("exact", "direct", "wide", "cli")
SETUP_SAMPLES = 7

# Every end-to-end metric with its unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def load_program():
    """Import braidosc from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "braidosc", "__init__.py")):
        print("run.py: no program source at %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import braidosc

    if os.path.dirname(os.path.dirname(os.path.abspath(braidosc.__file__))) != SRC:
        print("run.py: braidosc was imported from outside %s" % SRC, file=sys.stderr)
        sys.exit(2)


def setup_seconds(workload):
    """Median wall time of SETUP_SAMPLES fresh processes that import the
    program and warm up; for ``cli``, of a no-work CLI invocation."""
    import workloads as wl

    if workload == "cli":
        argv = ["-m", "braidosc.cli"] + list(wl.CLI_NO_WORK)
    else:
        argv = [os.path.abspath(__file__), "--workload", workload, "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        code, _ = wl.run_child(argv)
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError("set-up probe %r exited with %d" % (argv, code))
    return statistics.median(samples)


class Tally:
    """Job outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.worst_error = 0.0

    def run(self, spec, state):
        import checks
        import workloads as wl

        self.attempted += 1
        try:
            err = wl.run_job(spec, state)
        except checks.CheckFailed as exc:
            self.correct = False
            print("check failed: %s: %s" % (spec, exc), file=sys.stderr)
            return
        except Exception:
            self.failed += 1
            print("job failed: %s" % (spec,), file=sys.stderr)
            traceback.print_exc()
            return
        if err is not None:
            self.worst_error = max(self.worst_error, err)


def run_untraced(workload, seed, seconds):
    import checks
    import workloads as wl

    setup_s = setup_seconds(workload)
    wl.warm_up(workload)
    tally = Tally()
    job_times = []
    round_times = []
    start = time.perf_counter()
    k = 0
    while True:
        specs = wl.make_round(workload, seed, k)
        state = {}
        round_time = 0.0
        for spec in specs:
            # Every job starts from the same collector state, outside its timing.
            gc.collect()
            t_job = time.perf_counter()
            tally.run(spec, state)
            job_times.append(time.perf_counter() - t_job)
            round_time += job_times[-1]
        round_times.append(round_time)
        k += 1
        # Only whole rounds: start another only if it should end in time.
        if time.perf_counter() - start + max(round_times) > seconds:
            break
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_times),
        "job_s.p50": statistics.median(job_times),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        "accuracy_digits": checks.digits(tally.worst_error),
    }
    print("%s: %d rounds of %d jobs, round times %s" % (
        workload, k, len(specs), " ".join("%.3f" % t for t in round_times)), file=sys.stderr)
    return tally, metrics


def run_traced(workload, seed):
    import tracer
    import workloads as wl

    for name in WORKLOADS:
        wl.warm_up(name)
    rec = tracer.Recorder()
    tally = Tally()
    own = None
    real_run_cli = wl.run_cli
    wl.run_cli = tracer.wrap(real_run_cli, lambda a, k: "cli." + a[0][0], rec)
    try:
        with tracer.tracing(rec):
            with rec.span("cli.import"):
                wl.run_child(["-c", "import braidosc.cli"])
            for name in WORKLOADS:
                since = len(rec.spans)
                state = {}
                t0 = time.perf_counter()
                for spec in wl.make_round(name, seed, 0):
                    tally.run(spec, state)
                wall = time.perf_counter() - t0
                if name == workload:
                    own = (wall, rec.covered(since) / wall)
    finally:
        wl.run_cli = real_run_cli
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.write(os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed)))

    self_times = rec.self_times()
    metrics = {name + "_s": self_times.get(name, 0.0) for name in tracer.TIMED_LAYERS}
    sizes = rec.sizes
    metrics.update({name: sizes[name] for name in tracer.SIZES})
    metrics["braid.nnz_ratio"] = sizes["braid.nnz"] / max(sizes["braid.entries"], 1)
    metrics["weightspace.gram_cond"] = sizes["weightspace.gram_cond"]
    metrics["braid.solve_residual"] = sizes["braid.solve_residual"]
    metrics["trace.wall_s"], metrics["trace.coverage"] = own
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    if args.setup_probe:
        import workloads as wl

        wl.warm_up(args.workload)
        return 0
    if args.trace:
        import tracer

        tally, metrics = run_traced(args.workload, args.seed)
        units = tracer.PER_LAYER
    else:
        tally, metrics = run_untraced(args.workload, args.seed, args.seconds)
        units = END_TO_END
    if set(metrics) != set(units) or not all(math.isfinite(v) for v in metrics.values()):
        print("run.py: missing or non-finite metrics: %r" % (metrics,), file=sys.stderr)
        return 1
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
