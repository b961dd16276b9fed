"""End-to-end CLI behavior: output formats, exit codes, determinism."""

import json
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import bbbounds.bounds as bounds
from bbbounds import PROFILE_FAMILIES, GenConfig, ProblemInstance, TolerancePolicy, save_instance
from bbbounds.bounds import Plan
from bbbounds.cli import main


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bbbounds", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestDemoRemark:
    def test_values_and_orderings(self):
        proc = run_cli("demo-remark")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        pairs = re.findall(r"A=([0-9.e+-]+), B=([0-9.e+-]+)", proc.stdout)
        assert len(pairs) == 2
        a1, b1 = map(float, pairs[0])
        a2, b2 = map(float, pairs[1])
        assert (a1, b1) == (pytest.approx(np.sqrt(6), abs=1e-15), 2.0)
        assert (a2, b2) == (pytest.approx(np.sqrt(3), abs=1e-15), 2.0)
        assert "A > B" in lines[0] and "B > A" in lines[1]
        assert "(1, 1, 1)" in lines[0] and "(1, 0.5, 1)" in lines[1]


class TestVerifyCommand:
    def test_small_suite_ok(self):
        proc = run_cli("verify", "--seed", "9", "--count", "40", "--variants", "all")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "variant,checked,held,violated,min_slack,min_rel_slack"
        assert len(lines) == 180  # header + full catalog

    def test_unknown_flag_exits_2(self):
        assert run_cli("verify", "--bogus").returncode == 2

    def test_unknown_variant_exits_2(self):
        proc = run_cli("verify", "--count", "1", "--variants", "lemma99:max:max")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_violations_exit_1_with_payload(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify",
            "--seed", "1",
            "--count", "3",
            "--variants", "lemma21:sum:sum",
            "--tol-abs=-1e6",
            "--tol-rel", "0",
            "--json", str(out),
        )
        assert proc.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["variants"]["lemma21:sum:sum"]["violated"] == 3
        assert len(payload["violations"]) == 3
        assert payload["violations"][0]["instance"]["mode"] == "vectors"

    def test_byte_identical_runs_and_parallelism(self, tmp_path):
        args = ["verify", "--seed", "42", "--count", "120", "--variants",
                "lemma21:max:max,lemma21:holder:2.0:sum,cor23:sharp,bb:4.1,bessel:1.1"]
        first = run_cli(*args, "--csv", str(tmp_path / "a.csv"))
        second = run_cli(*args, "--csv", str(tmp_path / "b.csv"))
        third = run_cli(*args, "--csv", str(tmp_path / "c.csv"), "--jobs", "4")
        assert first.returncode == second.returncode == third.returncode == 0
        assert first.stdout == second.stdout == third.stdout
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        assert a.decode() == first.stdout

    def test_every_generator_and_tolerance_flag_fills_its_field(self, tmp_path):
        config = GenConfig(n_range=(2, 5), d_range=(3, 6), field_mode="real", scale=2.5,
                           structured_families=True, master_seed=9, count=12)
        policy = TolerancePolicy(tol_abs=1e-10, tol_rel=1e-8)
        for built in (config, policy):
            assert all(getattr(built, f.name) != f.default for f in fields(built))
        out = tmp_path / "report.json"
        proc = run_cli(
            "verify", "--seed", "9", "--count", "12", "--n", "2..5", "--dim", "3..6",
            "--field", "real", "--scale", "2.5", "--structured",
            "--tol-abs", "1e-10", "--tol-rel", "1e-8",
            "--variants", "lemma21:max:max,bb:1.2", "--json", str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        # JSON has no tuples: compare with the ranges as lists
        assert payload["config"] == json.loads(json.dumps(asdict(config)))
        assert payload["policy"] == asdict(policy)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_weighted_lhs_overflow_exits_2(self, jobs):
        # |sum c_i (x, y_i)| is finite at this scale but its square is not
        proc = run_cli("verify", "--seed", "42", "--count", "40", "--scale", "1e76",
                       "--variants", "all", "--jobs", jobs)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: weighted left-hand side |sum c_i (x, y_i)|^2 overflows")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_gram_overflow_exits_2_with_one_line(self, jobs):
        # the Gram products overflow silently; the finiteness check alone reports it
        proc = run_cli("verify", "--seed", "42", "--count", "40", "--scale", "1e160",
                       "--variants", "all", "--jobs", jobs)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: Gram matrix contains non-finite entries\n"


class TestMalformedNumericFlags:
    # a NaN tolerance would report every check violated, an infinite one
    # would pass every check, a job count below 1 would run serially, and
    # empty families would hold every check with slack 0.0
    ORTHONORMAL = str(Path(__file__).parent / "golden" / "orthonormal_n4.json")
    VERIFY = ("verify", "--seed", "1", "--count", "5", "--variants", "bb:1.2")

    @pytest.mark.parametrize(
        "args",
        [
            (*VERIFY, "--tol-rel", "nan"),
            (*VERIFY, "--tol-abs", "inf"),
            ("check-file", ORTHONORMAL, "--variants", "bb:1.2", "--tol-abs", "nan"),
            (*VERIFY, "--jobs", "0"),
            (*VERIFY, "--jobs=-3"),
            (*VERIFY, "--n", "0..0"),
        ],
        ids=["tol-rel-nan", "tol-abs-inf", "check-file-tol-abs-nan", "jobs-0", "jobs-negative", "n-0"],
    )
    def test_exits_2_with_one_error_line(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestGenAndCheckFile:
    def test_gen_then_check(self, tmp_path):
        out = tmp_path / "instances"
        proc = run_cli(
            "gen", "--seed", "5", "--count", "4", "--n", "2..4", "--dim", "2..4",
            "--out", str(out),
        )
        assert proc.returncode == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 4
        check = run_cli(
            "check-file", str(files[0]),
            "--variants", "lemma21:max:max,cor23:weak,bb:1.2,ortho:4.2",
        )
        assert check.returncode == 0
        lines = check.stdout.strip().split("\n")
        assert lines[0] == "variant,lhs,rhs,slack,status"
        assert len(lines) == 5
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses[:3] == ["held", "held", "held"]
        assert statuses[3] == "skipped:orthonormality gate"

    def test_check_file_all_catalog(self, tmp_path):
        out = tmp_path / "inst"
        run_cli("gen", "--seed", "6", "--count", "1", "--out", str(out))
        proc = run_cli("check-file", str(out / "instance_00000.json"))
        assert proc.returncode == 0

    def test_check_file_without_coeffs_skips_combination_variants(self, tmp_path):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [[0.0, 1.0]], field_mode="real")
        path = tmp_path / "nocoeffs.json"
        save_instance(path, inst)
        proc = run_cli("check-file", str(path), "--variants", "cor23:sharp,bb:4.5")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[1].endswith("skipped:requires coefficients")
        assert lines[2].endswith("held")

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": "real", "mode": "gram", "bordered_gram": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0, 0.0]]]}')
        proc = run_cli("check-file", str(bad))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_missing_file_exits_2(self):
        assert run_cli("check-file", "/nonexistent/path.json").returncode == 2

    def test_gram_mode_file_checkable(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        fam = rng.standard_normal((2, 3))
        source = ProblemInstance.from_vectors(x, fam, field_mode="real")
        inst = ProblemInstance.from_bordered_gram(source.bordered.entries, field_mode="real")
        path = tmp_path / "gram.json"
        save_instance(path, inst, coeffs=rng.standard_normal(2))
        proc = run_cli("check-file", str(path), "--variants", "lemma21:sum:max,bb:1.2")
        assert proc.returncode == 0
        assert proc.stdout.count("held") == 2


class TestRankAndOptimize:
    def test_rank_from_seeded_instance(self):
        proc = run_cli("rank", "--seed", "11", "--n", "3..3", "--dim", "3..3",
                       "--variants", "cor23:sharp,cor23:weak,special:2.13")
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "rank,variant,rhs,rel_slack"
        assert len(lines) == 4
        rhs = [float(line.split(",")[2]) for line in lines[1:]]
        assert rhs == sorted(rhs)

    def test_rank_full_catalog_drops_gated_variants(self):
        proc = run_cli("rank", "--seed", "11", "--n", "2..2")
        assert proc.returncode == 0
        assert "skipping" in proc.stderr
        assert "ortho:4.2" not in proc.stdout

    def test_rank_evaluates_each_usable_variant_once(self, monkeypatch, capsys):
        # the skips come from the plan without evaluating it, and the usable
        # variants from one evaluation of theirs
        rows = []
        evaluate = Plan.evaluate

        def counted(plan, ctx, tuned=None):
            rows.append(len(plan.variants))
            return evaluate(plan, ctx, tuned)

        monkeypatch.setattr(Plan, "evaluate", counted)
        assert main(["rank", "--seed", "42"]) == 0
        out, err = capsys.readouterr()
        assert rows == [172] and len(out.splitlines()) - 1 == 172
        # recorded before rank decided its skips from the left-hand side alone
        assert err.splitlines() == [
            "skipping ortho:4.2: orthonormality gate",
            "skipping ortho:4.4:p=1.25: orthonormality gate",
            "skipping ortho:4.4:p=1.5: orthonormality gate",
            "skipping ortho:4.4:p=2.0: orthonormality gate",
            "skipping ortho:4.4:p=3.0: orthonormality gate",
            "skipping ortho:4.4:p=4.0: orthonormality gate",
            "skipping bessel:1.1: orthonormality gate",
        ]

    def test_rank_builds_the_instance_statistics_once(self, monkeypatch):
        # the skip probe and the rank read the statistics of one instance
        builds = []
        gram_stats = bounds.GramStats
        monkeypatch.setattr(bounds, "GramStats", lambda gram: builds.append(gram) or gram_stats(gram))
        assert main(["rank", "--seed", "42", "--variants", "all"]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("family", PROFILE_FAMILIES)
    def test_optimize_overflow_exits_2_with_one_error_line(self, family):
        # at this scale the profile of four families overflows: a usage
        # error with one line, never the violation code or a traceback
        proc = run_cli("optimize", "--seed", "42", "--scale", "1e150", "--family", family)
        assert proc.returncode in (0, 2)
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ") == (proc.returncode == 2)

    def test_rank_deterministic(self):
        args = ("rank", "--seed", "13", "--n", "4..4", "--dim", "4..4")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_rank_from_file(self, tmp_path):
        out = tmp_path / "i"
        run_cli("gen", "--seed", "21", "--count", "1", "--n", "3..3", "--out", str(out))
        proc = run_cli("rank", "--file", str(out / "instance_00000.json"),
                       "--variants", "cor23:sharp,cor23:weak")
        assert proc.returncode == 0

    def test_optimize_profile_output(self, tmp_path):
        csv = tmp_path / "profile.csv"
        proc = run_cli("optimize", "--family", "bb:4.3", "--seed", "17",
                       "--n", "4..4", "--dim", "4..4", "--csv", str(csv))
        assert proc.returncode == 0
        assert "minimizer" in proc.stderr
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "exponent,value"
        assert len(lines) == 10  # 8 grid rows + minimizer row
        grid = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
        minimizer = tuple(map(float, lines[-1].split(",")))
        assert minimizer[1] <= min(v for _, v in grid)

    def test_optimize_unknown_family_exits_2(self):
        assert run_cli("optimize", "--family", "nope", "--seed", "1").returncode == 2
