"""Generator determinism, suite reporting, skips, and the witness search."""

import math
from pathlib import Path

import numpy as np
import pytest

from bbbounds import (
    GenConfig,
    ProblemInstance,
    SearchBudgetError,
    TolerancePolicy,
    VectorFamily,
    check_variant,
    full_catalog,
    generate_instance,
    orthonormalize,
    parse_variant,
    rank_variants,
    run_suite,
    search_incomparability,
)

E1 = [1.0, 0.0]


class TestGenConfig:
    def test_defaults_valid(self):
        GenConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (3, 2)},
            {"n_range": (-1, 2)},
            {"d_range": (0, 2)},
            {"field_mode": "quaternion"},
            {"scale": 0.0},
            {"count": 0},
            {"master_seed": -1},
            {"master_seed": 2**64},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestGenerateInstance:
    def test_same_seed_and_index_identical(self):
        config = GenConfig(master_seed=42, count=5)
        a_inst, a_coeffs = generate_instance(config, 3)
        b_inst, b_coeffs = generate_instance(config, 3)
        np.testing.assert_array_equal(a_inst.x, b_inst.x)
        np.testing.assert_array_equal(a_inst.family.vectors, b_inst.family.vectors)
        np.testing.assert_array_equal(a_coeffs, b_coeffs)
        assert a_inst.field_mode == b_inst.field_mode

    def test_shape_contract(self):
        config = GenConfig(n_range=(3, 3), d_range=(2, 2), count=10)
        for index in range(10):
            inst, coeffs = generate_instance(config, index)
            assert inst.n == 3 and inst.family.dim == 2 and coeffs.shape == (3,)

    def test_adjacent_indices_differ(self):
        config = GenConfig(master_seed=7, count=2, n_range=(4, 4), d_range=(4, 4))
        a, _ = generate_instance(config, 0)
        b, _ = generate_instance(config, 1)
        assert not np.array_equal(a.family.vectors, b.family.vectors)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generate_instance(GenConfig(count=2), 2)

    def test_field_mode_both_covers_both(self):
        config = GenConfig(field_mode="both", count=60, master_seed=1)
        seen = {generate_instance(config, i)[0].field_mode for i in range(60)}
        assert seen == {"real", "complex"}

    def test_real_mode_is_structurally_real(self):
        config = GenConfig(field_mode="real", count=20, master_seed=3)
        for i in range(20):
            inst, coeffs = generate_instance(config, i)
            assert np.all(inst.x.imag == 0.0)
            assert np.all(inst.family.vectors.imag == 0.0)
            assert np.all(coeffs.imag == 0.0)

    def test_scale_flows_through(self):
        small, _ = generate_instance(GenConfig(master_seed=5, count=1, scale=1e-3), 0)
        large, _ = generate_instance(GenConfig(master_seed=5, count=1, scale=1e3), 0)
        np.testing.assert_allclose(large.x, 1e6 * small.x, rtol=1e-12)

    def test_structured_stream(self):
        config = GenConfig(master_seed=11, count=10, structured_families=True)
        inst0, _ = generate_instance(config, 0)
        np.testing.assert_array_equal(inst0.family.vectors, np.array([[1.0], [1.0], [1.0]]))
        inst1, _ = generate_instance(config, 1)
        np.testing.assert_array_equal(inst1.family.vectors, np.array([[1.0], [0.5], [1.0]]))
        inst4, _ = generate_instance(config, 4)
        assert inst4.family.dim == 1 and inst4.n == 3
        assert np.all(inst4.family.vectors.real > 0) and inst4.field_mode == "real"
        # odd indices stay generic (same stream as the unstructured config)
        generic, _ = generate_instance(
            GenConfig(master_seed=11, count=10, structured_families=False), 3
        )
        inst3, _ = generate_instance(config, 3)
        np.testing.assert_array_equal(inst3.family.vectors, generic.family.vectors)


class TestCheckVariant:
    def test_known_evaluation(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [E1, E1], field_mode="real")
        res = check_variant(parse_variant("lemma21:max:max"), inst, [1.0, 2.0], instance_id=17)
        assert res.instance_id == 17
        assert res.variant == "lemma21:max:max"
        assert not res.skipped
        assert (res.evaluation.lhs, res.evaluation.rhs) == (pytest.approx(9.0), pytest.approx(12.0))

    def test_equality_case_holds(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], field_mode="real")
        res = check_variant(parse_variant("lemma21:sum:sum"), inst, [1.0, 2.0])
        assert res.evaluation.slack == pytest.approx(0.0, abs=1e-12)
        assert res.evaluation.holds

    def test_orthonormality_gate_skip(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [E1, E1], field_mode="real")
        res = check_variant(parse_variant("ortho:4.2"), inst)
        assert res.skipped and res.skip_reason == "orthonormality gate"

    def test_missing_coefficients_skip(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [E1, E1], field_mode="real")
        res = check_variant(parse_variant("cor23:sharp"), inst, coeffs=None)
        assert res.skipped and res.skip_reason == "requires coefficients"

    def test_skip_correctness_on_orthonormal_families(self):
        # orthonormal-only variants are checked exactly when the family Gram
        # matrix is the identity within the gate tolerance
        rng = np.random.default_rng(71)
        ortho_variants = [v for v in full_catalog() if v.orthonormal_only]
        for _ in range(50):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(n, 8))
            fam = orthonormalize(
                VectorFamily(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
            )
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            inst = ProblemInstance.from_vectors(x, fam)
            for variant in ortho_variants:
                res = check_variant(variant, inst)
                assert not res.skipped
                assert res.evaluation.holds


class TestRunSuite:
    def test_totals_consistency_and_zero_violations(self):
        config = GenConfig(master_seed=2, count=200, field_mode="both")
        report = run_suite(config, full_catalog())
        assert report.violated == 0 and not report.violations
        for totals in report.totals.values():
            assert totals.checked == totals.held + totals.violated
        lemma = report.totals["lemma21:max:max"]
        assert lemma.checked == 200
        assert math.isfinite(lemma.min_slack)
        bes = report.totals["bessel:1.1"]
        assert bes.checked + bes.skipped == 200

    def test_single_variant_single_instance(self):
        report = run_suite(GenConfig(count=1), [parse_variant("cor23:weak")])
        assert report.checked == 1

    def test_repeat_runs_byte_identical(self):
        config = GenConfig(master_seed=99, count=150, field_mode="both")
        variants = full_catalog(exponents=(1.5, 2.0))
        a = run_suite(config, variants)
        b = run_suite(config, variants)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_parallelism_does_not_change_report(self):
        config = GenConfig(master_seed=4, count=120, field_mode="both")
        variants = full_catalog(exponents=(2.0,))
        serial = run_suite(config, variants, jobs=1)
        threaded = run_suite(config, variants, jobs=4)
        assert serial.to_csv() == threaded.to_csv()
        assert serial.to_json() == threaded.to_json()

    def test_csv_shape(self):
        report = run_suite(GenConfig(count=3), [parse_variant("bb:1.2"), parse_variant("bb:4.5")])
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "variant,checked,held,violated,min_slack,min_rel_slack"
        assert len(lines) == 3
        assert lines[1].startswith("bb:1.2,3,3,0,")

    def test_artificial_violation_is_reported_with_payload(self):
        # An impossible tolerance (negative absolute slack allowance) turns
        # near-equalities into reported violations; exercises the payload path.
        policy = TolerancePolicy(tol_abs=-1e6, tol_rel=0.0)
        report = run_suite(GenConfig(count=5), [parse_variant("lemma21:sum:sum")], policy)
        assert report.violated == 5
        payload = report.violations[0]
        assert set(payload) == {"instance_id", "variant", "lhs", "rhs", "slack", "instance"}
        assert payload["instance"]["mode"] == "vectors"
        assert "coeffs" in payload["instance"]


class TestWideFamilyGolden:
    # recorded before the Gram and coefficient statistics were built from
    # whole arrays; families of 24 to 64 vectors in up to 128 dimensions
    CONFIG = GenConfig(n_range=(24, 64), d_range=(16, 128), master_seed=901, count=20)
    GOLDEN = Path(__file__).parent / "golden"

    def test_suite_csv(self):
        expected = (self.GOLDEN / "verify_wide.csv").read_text()
        assert run_suite(self.CONFIG, full_catalog()).to_csv() == expected

    def test_tuned_rank_csv(self):
        inst, coeffs = generate_instance(self.CONFIG, 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        expected = (self.GOLDEN / "rank_wide.csv").read_text()
        assert rank_variants(inst, coeffs, variants).to_csv() == expected


class TestSearchIncomparability:
    def test_structured_witnesses_found_at_canonical_indices(self):
        config = GenConfig(master_seed=0, count=10, structured_families=True)
        wa, wb = search_incomparability(config)
        assert wa.instance_id == 0
        assert wa.a_value == pytest.approx(math.sqrt(6.0), abs=1e-15)
        assert wa.b_value == pytest.approx(2.0, abs=1e-15)
        assert wb.instance_id == 1
        assert wb.a_value == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert wb.b_value == pytest.approx(2.0, abs=1e-15)

    def test_random_search_also_succeeds(self):
        config = GenConfig(master_seed=8, count=500, n_range=(2, 6), d_range=(1, 6))
        wa, wb = search_incomparability(config)
        assert wa.a_value > wa.b_value
        assert wb.b_value > wb.a_value

    def test_budget_exhaustion_reported(self):
        # n = 1 instances never produce the two quantities
        config = GenConfig(master_seed=8, count=20, n_range=(1, 1))
        with pytest.raises(SearchBudgetError):
            search_incomparability(config)
