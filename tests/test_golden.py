"""Byte-for-byte goldens of the suite, optimize, check-file and rank outputs.

The files under ``golden/`` were recorded before the variant table replaced
the per-kind dispatch; every output here must stay identical.
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
