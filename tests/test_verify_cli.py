"""Verification suites and command-line behavior."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import braidosc
from braidosc import cli
from braidosc.braid import build_matrices, family_to_json
from braidosc.verify import SUITES, CheckResult, run_suites, suite_braid


class TestSuites:
    def test_all_pass(self):
        reports = run_suites("all", seed=1)
        assert [r.suite for r in reports] == ["algebra", "spaces", "braid"]
        for rep in reports:
            failed = [c.name for c in rep.checks if not c.passed]
            assert rep.passed, failed

    def test_selection_by_list(self):
        (rep,) = run_suites(["spaces"], seed=4)
        assert rep.suite == "spaces" and rep.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suites(["nonsense"])

    def test_deterministic_given_seed(self):
        a = suite_braid(seed=3).to_json()
        b = suite_braid(seed=3).to_json()
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b

    def test_report_shape(self):
        rep = SUITES["algebra"](seed=0)
        doc = rep.to_json()
        assert set(doc) == {
            "suite", "seed", "parameters", "passed", "max_residual",
            "runtime_seconds", "checks",
        }
        assert doc["max_residual"] < 1e-9
        names = [c["name"] for c in doc["checks"]]
        assert len(names) == len(set(names))

    def test_check_json_with_numpy_verdict(self):
        doc = CheckResult("check", np.bool_(True), 0.0).to_json()
        assert json.loads(json.dumps(doc))["passed"] is True


def test_verify_module_loads_on_first_use():
    """The package and the CLI import verify only when a suite runs, yet
    its names stay part of the package."""
    code = (
        "import sys\n"
        "import braidosc, braidosc.cli\n"
        "assert 'braidosc.verify' not in sys.modules, sorted(sys.modules)\n"
        "assert 'run_suites' in braidosc.__all__\n"
        "from braidosc.verify import run_suites\n"
        "assert braidosc.run_suites is run_suites\n"
    )
    src = os.path.dirname(os.path.dirname(braidosc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestCliMatrix:
    def test_laurent_json_matches_library(self, capsys):
        assert cli.main(["matrix", "--n", "3", "--N", "1", "--backend", "laurent"]) == 0
        doc = json.loads(capsys.readouterr().out)
        want = json.loads(json.dumps(family_to_json(build_matrices(3, 1)), sort_keys=True))
        assert doc == want

    def test_numeric_default_backend(self, capsys):
        argv = [
            "matrix", "--n", "3", "--N", "2", "--homogeneous",
            "--gamma", "1.0", "--c", "0.5", "--q", "0.6",
        ]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backend"] == "numeric"
        assert doc["q"] == 0.6
        assert len(doc["matrices"]) == 2

    def test_byte_stable_output(self, capsys):
        argv = ["matrix", "--n", "3", "--N", "1", "--het", "--q", "0.55"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("payload", [
        {}, [], "x", 3, None, [[], {}], [["a", 1], ("b", "c")],
        {"b": [1, 2.5, None, True, "sé\"\\"], "a": {"z": -0.0, "y": float("inf")}},
        family_to_json(build_matrices(3, 2)),
        family_to_json(build_matrices(3, 2, route="direct", ctx=cli._build_context(
            cli.build_parser().parse_args(["matrix", "--n", "3", "--N", "2", "--het"])))),
        # one object held at several depths, as the shared zero of an exact matrix
        (lambda z: [[z, z], [z, [z, {"k": [z]}]], z])({"terms": [[2, "-1"]]}),
    ])
    def test_json_text_matches_indented_dumps(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_level_zero_single_state(self, capsys):
        assert cli.main(["matrix", "--n", "3", "--N", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"]["exponent"] == "1"
        for mat in doc["matrices"]:
            assert mat["entries"] == [["1.0"]]

    def test_csv_requires_numeric(self, capsys):
        rc = cli.main([
            "matrix", "--n", "3", "--N", "1", "--backend", "laurent",
            "--format", "csv",
        ])
        assert rc == 2
        assert "numeric-only" in capsys.readouterr().err

    def test_csv_warns_and_parses(self, capsys):
        rc = cli.main(["matrix", "--n", "3", "--N", "1", "--format", "csv"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "lossy" in captured.err
        rows = [l for l in captured.out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 4
        for row in rows:
            for tok in row.split(","):
                float(tok)

    def test_laurent_rejects_marked_labels(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matrix", "--n", "3", "--N", "1", "--het", "--backend", "laurent"])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "fam.json"
        rc = cli.main(["matrix", "--n", "3", "--N", "1", "--output", str(dest)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(dest.read_text())
        assert doc["n"] == 3


class TestCliDims:
    def test_text_table(self, capsys):
        assert cli.main(["dims", "--n", "3", "--N", "3"]) == 0
        assert capsys.readouterr().out == (
            "n=3 N=3\n"
            "level lowest_dim\n"
            "    0          1\n"
            "    1          2\n"
            "    2          3\n"
            "    3          4\n"
            "weight_dim 10 (sum of lowest dims 10)\n"
        )

    def test_json_form(self, capsys):
        assert cli.main(["dims", "--n", "5", "--N", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"n": 5, "N": 2, "weight_dim": 15, "lowest_dims": [1, 4, 10]}

    def test_invalid_arguments(self, capsys):
        assert cli.main(["dims", "--n", "1", "--N", "2"]) == 2


class TestCliVerify:
    def test_single_suite_pass(self, capsys):
        assert cli.main(["verify", "--suite", "algebra"]) == 0
        out = capsys.readouterr().out
        assert "suite algebra  PASS" in out
        assert out.strip().endswith("ALL PASS")

    def test_report_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        rc = cli.main(["verify", "--suite", "spaces", "--seed", "7", "--report", str(dest)])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(dest.read_text())
        assert len(payload) == 1
        assert payload[0]["suite"] == "spaces"
        assert payload[0]["seed"] == 7
        assert payload[0]["passed"] is True


class TestCliInvalidInput:
    @pytest.mark.parametrize("argv", [
        ["matrix", "--n", "1", "--N", "1"],
        ["matrix", "--n", "1", "--N", "1", "--backend", "laurent"],
        ["matrix", "--n", "3", "--N", "-1"],
        ["matrix", "--n", "3", "--N", "1", "--q", "nan"],
        ["matrix", "--n", "3", "--N", "1", "--q", "inf"],
        ["matrix", "--n", "3", "--N", "1", "--gamma", "nan"],
        ["matrix", "--n", "3", "--N", "1", "--het", "--c2", "inf"],
        ["matrix", "--n", "2", "--N", "1", "--labels", "[[1.0, NaN], [1.0, 0.5]]"],
        ["matrix", "--n", "3", "--N", "1", "--precision", "60"],
        ["word", "--n", "3", "--N", "1", "--q", "nan", "--word", "1"],
        ["matrix", "--n", "3", "--N", "2", "--route", "direct", "--binomial", "multiset"],
        ["word", "--n", "3", "--N", "-1", "--word", "1"],
        ["word", "--n", "3", "--N", "1", "--backend", "laurent", "--inverse", "--word", "1 -1"],
        ["matrix", "--n", "3", "--N", "1", "--route", "closed_form"],
        ["dims", "--n", "1"],
        ["dims", "--n", "3", "--N", "-1"],
        ["word", "--n", "3", "--N", "1", "--word", "1 x"],
    ])
    def test_exits_two(self, argv, capsys):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err

    def test_failed_solve_exits_one(self, monkeypatch, capsys):
        # numpy's LinAlgError is a ValueError, but it is a failed computation, not bad input
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "build_matrices", singular)
        rc = cli.main(["matrix", "--n", "3", "--N", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "" and "Singular matrix" in captured.err


class TestCliWord:
    def test_inverse_pair_identity(self, capsys):
        rc = cli.main([
            "word", "--n", "3", "--N", "1", "--backend", "laurent",
            "--word", "1 -1",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"] == {"exponent": "0", "factor": "1.0"}
        assert doc["entries"][0][0] == {"terms": [[0, "1"]]}
        assert doc["entries"][0][1] == {"terms": []}

    def test_exact_overflow_exits_one(self, capsys):
        word = " ".join(["1 -2"] * 40)
        rc = cli.main(["word", "--n", "3", "--N", "2", "--backend", "laurent", "--word", word])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "int64" in captured.err

    def test_rejects_zero_letter(self, capsys):
        rc = cli.main(["word", "--n", "3", "--N", "1", "--word", "1 0"])
        assert rc == 2
        assert "nonzero" in capsys.readouterr().err

    def test_rejects_out_of_range_letter(self, capsys):
        rc = cli.main(["word", "--n", "3", "--N", "1", "--word", "3"])
        assert rc == 2

    def test_comma_separated_word(self, capsys):
        rc = cli.main(["word", "--n", "3", "--N", "1", "--word", "1,2,1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["word"] == [1, 2, 1]
        assert doc["backend"] == "numeric"
