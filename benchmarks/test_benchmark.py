"""Tests of the benchmark itself: metric names, seeded inputs, and that
every workload's correctness check rejects a family with one perturbed
entry.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import braidosc as bo  # noqa: E402
import checks as ck  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

CheckFailed = ck.CheckFailed


def spec_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json():
    spec = spec_file()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert spec["command"] == ["python3", "benchmarks/run.py"]
    assert spec["paths"] == ["benchmarks"]


def test_short_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_fixed_seed_gives_identical_inputs(workload):
    assert wl.make_round(workload, 7, 2) == wl.make_round(workload, 7, 2)
    assert wl.make_round(workload, 7, 2) != wl.make_round(workload, 8, 2)
    assert wl.make_round(workload, 7, 2) != wl.make_round(workload, 7, 3)
    shape = [(s["kind"], s.get("n"), s.get("N"), s.get("cmd")) for s in wl.make_round(workload, 7, 2)]
    assert shape == [(s["kind"], s.get("n"), s.get("N"), s.get("cmd")) for s in wl.make_round(workload, 9, 0)]


# ---------------------------------------------------------------------------
# each check passes on the program's output and fails with one entry changed

def bump_laurent(mats, gen=1, row=0, col=0):
    """Copy of the family with one Laurent entry changed by x."""
    out = []
    for m in mats:
        entries = [list(r) for r in m.entries]
        if m.generator == gen:
            entries[row][col] = entries[row][col] + bo.Laurent.x(1)
        out.append(type(m)(**{**m.__dict__, "entries": entries}))
    return out


def bump_numeric(mats, gen=1, rel=1e-6):
    """Copy of the family with its largest entry of generator ``gen`` scaled."""
    out = []
    for m in mats:
        entries = np.array(m.entries, copy=True)
        if m.generator == gen:
            r, c = np.unravel_index(np.argmax(np.abs(entries)), entries.shape)
            entries[r, c] *= 1 + rel
        out.append(type(m)(**{**m.__dict__, "entries": entries}))
    return out


def test_exact_check_rejects_perturbed_entry():
    spec = {"n": 4, "N": 2, "x0": 12345}
    fwd, inv = bo.build_matrices(4, 2), bo.build_matrices(4, 2, inverse=True)
    word = [1, -3, 2]
    total, phase = bo.evaluate_word(word, fwd, inv)
    wl.check_exact_outputs(spec, fwd, inv, [(word, total, phase)])
    with pytest.raises(CheckFailed):
        wl.check_exact_outputs(spec, bump_laurent(fwd), inv, [])
    with pytest.raises(CheckFailed):
        wl.check_exact_outputs(spec, fwd, inv, [(word, bump_laurent([fwd[0]], row=1)[0].entries, phase)])


def test_burau_check_rejects_perturbed_entry():
    spec = {"n": 5, "x0": (7, 3)}
    fwd, inv = bo.build_matrices(5, 1), bo.build_matrices(5, 1, inverse=True)
    wl.check_burau_outputs(spec, fwd, inv)
    with pytest.raises(CheckFailed):
        wl.check_burau_outputs(spec, bump_laurent(fwd, gen=2, row=1, col=2), inv)


def test_exact_kernel_check_rejects_perturbed_entry():
    kernel = bo.lowest_weight_kernel_exact(4, 2)
    ck.check_exact_kernel(4, 2, kernel, 999)
    vectors = [list(v) for v in kernel.vectors]
    k = next(i for i, e in enumerate(vectors[0]) if e.terms)
    vectors[0][k] = vectors[0][k] + bo.Laurent.x(1)
    kernel.vectors = vectors
    with pytest.raises(CheckFailed):
        ck.check_exact_kernel(4, 2, kernel, 999)


def test_direct_check_rejects_perturbed_entry():
    spec = wl.make_round("direct", 1, 0)[2]
    ctx = wl.context(spec)
    n, N = spec["n"], spec["N"]
    rewrite = bo.build_matrices(n, N, route="rewrite", ctx=ctx)
    direct = bo.build_matrices(n, N, route="direct", ctx=ctx)
    assert wl.check_route_pair(direct, rewrite, bo.DEFAULT_TOLS.route_match) < 1e-10
    with pytest.raises(CheckFailed):
        wl.check_route_pair(bump_numeric(direct), rewrite, bo.DEFAULT_TOLS.route_match)


def test_wide_check_rejects_perturbed_entry():
    spec = {"n": 3, "N": 3, "q": 1.4, "labels": [(0.7, 0.4), (1.0, 0.9), (1.4, 0.5)],
            "word": [1, -2, 2, 1, -1, 2], "probe": 5}
    ctx = wl.context(spec)
    fwd = bo.build_matrices(3, 3, ctx=ctx)
    inv = bo.build_matrices(3, 3, ctx=ctx, inverse=True)
    total, _ = bo.evaluate_word(spec["word"], fwd, inv)
    g = 1 + spec["probe"] % 2
    eye, _ = bo.evaluate_word([g, -g], fwd, inv)
    payload = bo.family_to_json(fwd)
    assert wl.check_wide_outputs(spec, fwd, inv, total, eye, payload) < 1e-12
    with pytest.raises(CheckFailed):
        wl.check_wide_outputs(spec, bump_numeric(fwd, gen=2), inv, total, eye, payload)
    with pytest.raises(CheckFailed):
        wl.check_wide_outputs(spec, fwd, bump_numeric(inv, gen=1), total, eye, payload)


def test_cli_checks_reject_perturbed_entry():
    ctx = bo.Context([bo.RepLabel(0.8, 0.5), bo.RepLabel(1.1, 0.7), bo.RepLabel(1.5, 0.3)], 0.6)
    payload = bo.family_to_json(bo.build_matrices(3, 2, ctx=ctx))
    spec = {"cmd": "matrix", "check": "numeric", "probe": 11}
    assert wl.check_cli_output(spec, 0, json.dumps(payload), {}) < 1e-12
    payload["matrices"][0]["entries"][0][0] = repr(float(payload["matrices"][0]["entries"][0][0]) + 1e-3)
    with pytest.raises(CheckFailed):
        wl.check_cli_output(spec, 0, json.dumps(payload), {})
    with pytest.raises(CheckFailed):
        wl.check_cli_output(spec, 1, json.dumps(payload), {})

    exact = bo.family_to_json(bo.build_matrices(4, 2))
    spec = {"cmd": "matrix", "check": "laurent", "x0": 4321}
    state = {}
    wl.check_cli_output(spec, 0, json.dumps(exact), state)
    assert set(state["laurent"]) == {1, 2, 3}
    exact["matrices"][1]["entries"][0][0]["terms"].append([7, "1"])
    with pytest.raises(CheckFailed):
        wl.check_cli_output(spec, 0, json.dumps(exact), {})


def test_tracer_self_time_and_restore():
    rec = tracer.Recorder()
    original = bo.build_matrices
    ctx = bo.marked_context(3, bo.RepLabel(1.0, 0.5), bo.RepLabel(1.5, 0.8), 2, 0.6)
    with tracer.tracing(rec):
        assert bo.build_matrices is not original
        bo.build_matrices(3, 2, route="direct", ctx=ctx)
    assert bo.build_matrices is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "braid.direct" and "weightspace.monomials" in names
    selfs = rec.self_times()
    total = rec.spans[0][2] - rec.spans[0][1]
    assert abs(sum(selfs.values()) - total) < 1e-9
    assert rec.sizes["braid.sectors"] == 3 and rec.sizes["braid.solve_residual"] < 1e-10
