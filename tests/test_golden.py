"""Byte-for-byte goldens of the suite, optimize, check-file and rank outputs.

The files under ``golden/`` were recorded before the variant table replaced
the per-kind dispatch, and the skip-line ones before a plan decided every
caller's skips; every output here must stay identical.  Three were recorded
again when the combination left-hand side came to read the instance's one
family Gram matrix, the block of its bordered Gram, instead of a second
Gram product of the family: ``verify_seed42.csv`` (``min_slack`` and
``min_rel_slack`` of its 107 combination rows), ``verify_seed42.json`` (the
same 214 values) and ``check_seed42.csv`` (``lhs`` and ``slack`` of the same
107 rows).  No count, no other column and no other file moved.

All of them were recorded once more under the OpenBLAS kernel that the root
``conftest.py`` pins (Haswell), since a Gram product's last bit depends on
the kernel: every golden file but ``optimize_seed42_lemma21_offdiag.csv``,
``rank_seed42_nocoeffs.err`` and the two ``rank_*seed5_n4.csv`` of the
tuning tests changed in floating-point columns alone, by rounding (no
count, status, name or order moved).
"""

from pathlib import Path

import pytest

from bbbounds import GenConfig, PROFILE_FAMILIES, full_catalog, load_instance, rank_variants, run_suite
from bbbounds.cli import main

GOLDEN = Path(__file__).parent / "golden"

# A complex orthonormal family (QR of a seeded Gaussian 4 x 6 matrix) with
# coefficients: the one golden on which the orthonormal-only variants
# (bessel:1.1, ortho:4.2, ortho:4.4:*) produce numbers.
ORTHONORMAL = GOLDEN / "orthonormal_n4.json"


def run_main(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


class TestDefaultStream:
    @pytest.fixture(scope="class")
    def report(self):
        return run_suite(GenConfig(master_seed=42, count=1000), full_catalog())

    def test_csv(self, report):
        assert report.to_csv() == (GOLDEN / "verify_seed42.csv").read_text()

    def test_json(self, report):
        assert report.to_json() == (GOLDEN / "verify_seed42.json").read_text()


@pytest.mark.parametrize("family", PROFILE_FAMILIES)
def test_optimize_csv(capsys, family):
    code, out = run_main(capsys, "optimize", "--seed", "42", "--family", family)
    assert code == 0
    assert out == (GOLDEN / f"optimize_seed42_{family.replace(':', '_')}.csv").read_text()


class TestOrthonormalInstance:
    def test_check_file_all(self, capsys):
        code, out = run_main(capsys, "check-file", str(ORTHONORMAL), "--variants", "all")
        assert code == 0
        assert out == (GOLDEN / "check_orthonormal_n4.csv").read_text()
        assert "skipped" not in out

    def test_tuned_rank_full_catalog(self):
        inst, coeffs = load_instance(ORTHONORMAL)
        ranking = rank_variants(inst, coeffs, full_catalog())
        assert ranking.to_csv() == (GOLDEN / "rank_orthonormal_n4.csv").read_text()


class TestSkipLines:
    # The seed-42 instance that ``gen --seed 42 --count 1`` writes, and the
    # same instance saved without its coefficients: the goldens whose lines
    # skip variants, for the orthonormality gate and for the coefficients.
    INSTANCE = GOLDEN / "seed42_instance.json"
    NO_COEFFS = GOLDEN / "seed42_instance_nocoeffs.json"

    @pytest.mark.parametrize("path, golden", [(INSTANCE, "check_seed42.csv"), (NO_COEFFS, "check_seed42_nocoeffs.csv")])
    def test_check_file_all(self, capsys, path, golden):
        code, out = run_main(capsys, "check-file", str(path), "--variants", "all")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_check_file_keeps_the_order_and_repeats_of_its_list(self, capsys):
        names = ["ortho:4.2", "lemma21:max:max", "ortho:4.2", "lemma21:max:max", "bb:1.2"]
        code, out = run_main(capsys, "check-file", str(self.INSTANCE), "--variants", ",".join(names))
        golden = {line.split(",")[0]: line for line in (GOLDEN / "check_seed42.csv").read_text().splitlines()}
        assert code == 0
        assert out.splitlines() == [golden["variant"]] + [golden[name] for name in names]

    def test_rank_without_coefficients(self, capsys):
        assert main(["rank", "--file", str(self.NO_COEFFS)]) == 0
        out, err = capsys.readouterr()
        assert out == (GOLDEN / "rank_seed42_nocoeffs.csv").read_text()
        assert err == (GOLDEN / "rank_seed42_nocoeffs.err").read_text()
