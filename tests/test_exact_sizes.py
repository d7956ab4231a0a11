"""scripts/exact_sizes.py: a rung of each ladder reports every stage, and the guards hold."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "exact_sizes.py")


def _ladder(*args):
    done = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_one_rung_reports_every_stage():
    (rung,) = _ladder("--sizes", "4,2")["rungs"]
    assert rung["d"] == 6 and rung["relation_defect"] == rung["inverse_defect"] == 0.0
    for key in ("build_s", "build_inverse_s", "relations_s", "inverse_s", "rows_s", "to_json_s",
                "peak_rss_mb", "rows_peak_rss_mb", "export_peak_rss_mb"):
        assert rung[key] >= 0.0


def test_memory_cap_skips_the_export():
    (rung,) = _ladder("--sizes", "4,2", "--mem-cap", "1e-9")["rungs"]
    assert "rows_skipped" in rung and "rows_s" not in rung and "rows_peak_rss_mb" not in rung
    assert "export_skipped" in rung and "to_json_s" not in rung
    assert rung["relation_defect"] == 0.0


def test_memory_cap_counts_the_rows_through_the_export():
    # (4,2): the row read and the export are predicted at 864 bytes each;
    # 1e-6 GB, about 1074 bytes, holds one of them, not both
    (rung,) = _ladder("--sizes", "4,2", "--mem-cap", "1e-6")["rungs"]
    assert "rows_skipped" not in rung and rung["rows_s"] >= 0.0
    assert "export_skipped" in rung and "to_json_s" not in rung


def test_budget_stops_the_ladder():
    (rung,) = _ladder("--sizes", "4,2", "5,2", "--budget", "0.001")["rungs"]
    assert rung["n"] == 4 and "stopped" in rung


def test_direct_rung_runs():
    (rung,) = _ladder("--ladder", "direct", "--sizes", "3,2,distinct")["rungs"]
    assert rung["labels"] == "distinct" and rung["d"] == 6 * 3
    assert rung["relation_defect"] < 1e-12 and rung["inverse_defect"] < 1e-12
    # numeric rungs read every forward generator's dense entries once too
    for key in ("build_s", "build_inverse_s", "relations_s", "inverse_s", "rows_s", "to_json_s", "peak_rss_mb",
                "rows_peak_rss_mb"):
        assert rung[key] >= 0.0


def test_rewrite_rung_runs():
    # the guard skips all-distinct (8,2) of the rewrite ladder as it does the direct one's
    rung, big = _ladder("--ladder", "rewrite", "--sizes", "3,2,distinct", "8,2,distinct")["rungs"]
    assert rung["labels"] == "distinct" and rung["d"] == 6 * 3
    assert rung["relation_defect"] < 1e-12 and rung["inverse_defect"] < 1e-12
    for key in ("build_s", "build_inverse_s", "relations_s", "inverse_s", "to_json_s", "peak_rss_mb"):
        assert rung[key] >= 0.0
    assert big["d"] == 40320 * 28 and "skipped" in big and "build_s" not in big


def test_direct_guard_skips_oversized_rung():
    # all-distinct (8,2): d = 1128960, about 1.8 GB of sector blocks per direction;
    # the tiny budget would stop the rung at once had the guard let it start
    (rung,) = _ladder("--ladder", "direct", "--sizes", "8,2,distinct", "--budget", "0.001")["rungs"]
    assert rung["d"] == 40320 * 28 and "skipped" in rung
    assert "build_s" not in rung and "stopped" not in rung


def test_guard_predicts_the_stored_form():
    # all-distinct (6,2) builds as sector blocks, 6.5 MB per direction: it runs
    # without the export (4.7 GB) under a cap that dense entries would pass
    (rung,) = _ladder("--ladder", "rewrite", "--sizes", "6,2,distinct", "--mem-cap", "0.1")["rungs"]
    assert rung["d"] == 10800 and "export_skipped" in rung and "to_json_s" not in rung
    assert rung["relation_defect"] < 1e-12 and rung["inverse_defect"] < 1e-12


def test_kernel_rung_runs():
    (rung,) = _ladder("--ladder", "kernel", "--sizes", "3,4")["rungs"]
    assert rung["d"] == 5 and rung["weight_dim"] == 15
    assert rung["kernel_s"] >= 0.0 and rung["peak_rss_mb"] > 0.0
