"""Generator determinism, suite reporting, skips, and the witness search."""

import concurrent.futures
import hashlib
import json
import math
import os
import pickle
import tracemalloc
from dataclasses import asdict
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbbounds import (
    DEFAULT_POLICY,
    MAX,
    GenConfig,
    IncompatibleInstanceError,
    ProblemInstance,
    SearchBudgetError,
    TolerancePolicy,
    VectorFamily,
    check_variant,
    evaluate_variant,
    full_catalog,
    generate_instance,
    lemma21_bound,
    orthonormalize,
    parse_variant,
    parse_variant_list,
    rank_variants,
    run_suite,
    search_incomparability,
)
import bbbounds.verify as verify
from bbbounds.bounds import SKIP_REASONS, BoundEvaluation, EvalContext, Plan, plan_for
from bbbounds.space import ValidationError, instance_to_jsonable, load_instance
from bbbounds.tuning import _tuned_value
from bbbounds.variants import _TERMS
from bbbounds.verify import SuiteReport, VariantTotals, _Tally, _blocks
from test_bounds import block_of
from test_tuning import sorted_ranking

E1 = [1.0, 0.0]

# At scale 1e150 the scalar statistics (Gram double sum, power sums)
# overflow, and numpy warns from those modules; the array judge in verify
# must still add no warning of its own.
SCALAR_OVERFLOW = pytest.mark.filterwarnings(
    "ignore::RuntimeWarning:bbbounds.space", "ignore::RuntimeWarning:bbbounds.bounds"
)

# Families of 24 to 64 vectors in up to 128 dimensions.
WIDE_CONFIG = GenConfig(n_range=(24, 64), d_range=(16, 128), master_seed=901, count=20)

# A complex orthonormal family with coefficients: the one instance on which
# the orthonormal-only variants are checked.
ORTHONORMAL = Path(__file__).parent / "golden" / "orthonormal_n4.json"


class TestGenConfig:
    def test_defaults_valid(self):
        GenConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_range": (3, 2)},
            {"n_range": (-1, 2)},
            {"n_range": (0, 2)},
            {"d_range": (0, 2)},
            {"field_mode": "quaternion"},
            {"scale": 0.0},
            {"count": 0},
            {"master_seed": -1},
            {"master_seed": 2**64},
            {"scale": math.inf},
            # numpy draws from wider ranges with 64-bit words, which the shape draws do not read
            {"n_range": (1, 2**32 + 1)},
            {"d_range": (5, 5 + 2**32)},
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
        # the canonical triples are not scaled
        for given in (config, GenConfig(master_seed=11, count=10, structured_families=True, scale=3.0)):
            inst0, _ = generate_instance(given, 0)
            np.testing.assert_array_equal(inst0.family.vectors, np.array([[1.0], [1.0], [1.0]]))
            inst1, _ = generate_instance(given, 1)
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


def _folded(*samples):
    """VariantTotals after recording (lhs, rhs, slack, holds) samples in turn."""
    totals = VariantTotals()
    for sample in samples:
        totals.record(*sample)
    return totals


class TestVariantTotalsRecord:
    # The reduce semantics every suite path must reproduce.

    def test_equal_minima_keep_the_earliest(self):
        first_zero = _folded((1.0, 1.0, 0.0, True), (1.0, 1.0, -0.0, True))
        assert math.copysign(1.0, first_zero.min_slack) == 1.0
        assert math.copysign(1.0, first_zero.min_rel_slack) == 1.0
        first_negative = _folded((1.0, 1.0, -0.0, True), (1.0, 1.0, 0.0, True))
        assert math.copysign(1.0, first_negative.min_slack) == -1.0
        assert math.copysign(1.0, first_negative.min_rel_slack) == -1.0

    def test_nan_minimum_replaced_by_next_sample(self):
        inf = float("inf")
        totals = _folded((inf, inf, float("nan"), False), (2.0, 3.0, 1.0, True))
        assert totals.min_slack == 1.0
        assert totals.min_rel_slack == 1.0 / 3.0
        assert (totals.checked, totals.held, totals.violated) == (2, 1, 1)

    def test_nan_sample_replaces_finite_minimum(self):
        inf = float("inf")
        totals = _folded((2.0, 3.0, 1.0, True), (inf, inf, float("nan"), False))
        assert math.isnan(totals.min_slack) and math.isnan(totals.min_rel_slack)


INF = float("inf")

# Four instances' (lhs, rhs) for six checks: signed-zero ties, NaN slacks
# (inf - inf) before, between and after finite ones, and a NaN relative
# slack beside an infinite slack (1 against inf).  The sixth check is gated:
# the last instance fails its gate, and its sides there, a NaN slack that
# would also be a violation, must not count.
SAMPLES = [
    [(0.0, 0.0), (0.0, -0.0), (INF, INF), (1.0, 2.0), (1.0, 2.0), (1.0, INF)],
    [(0.0, -0.0), (0.0, 0.0), (1.0, 3.0), (1.0, 3.0), (INF, INF), (1.0, 2.0)],
    [(1.0, 2.0), (1.0, 2.0), (1.0, 6.0), (INF, INF), (1.0, 4.0), (1.0, INF)],
    [(0.0, 0.0), (0.0, -0.0), (1.0, 2.0), (1.0, 2.0), (1.0, 5.0), (INF, INF)],
]
CHECKED = [[True] * 6] * 3 + [[True] * 5 + [False]]


class _GivenSides:
    """Stands in for a ``bounds.Plan``: each ``columns`` returns the next
    block's (lhs, rhs) pairs from SAMPLES as both its columns, which
    ``gather`` splits on any slice of the block's instances, and ``skips``
    that block's skips from CHECKED (the gate where unchecked)."""

    names = tuple(f"v{k}" for k in range(len(SAMPLES[0])))
    weights = np.ones(len(names), dtype=np.int64)

    def __init__(self, start, stop):
        self._rows = iter(zip(CHECKED[start:stop], SAMPLES[start:stop]))

    def columns(self, block):
        checked, sample = zip(*(next(self._rows) for _ in range(len(block))))
        self._skips = np.where(checked, 0, 1)
        pairs = np.array(sample)
        return pairs, pairs

    def gather(self, terms, sides, x_norm_sq):
        assert len(terms) == len(sides) == len(x_norm_sq)
        return sides[..., 0], terms[..., 1]

    def skips(self, block):
        return self._skips


class _Placeholders:
    """Stands in for a ``bounds.EvalBlock`` of ``count`` instances where only
    its length, its ``x_norm_sq`` and its payload instances are read."""

    def __init__(self, count):
        self.count = count
        self.x_norm_sq = np.ones(count)

    def __len__(self):
        return self.count

    def instance(self, b):
        return None, None


class TestArrayReduce:
    # The suite's array judge and reduce, over blocks of instances, and the
    # merge of process ranges, against VariantTotals.record on the same samples.

    @pytest.fixture(autouse=True)
    def _no_payloads(self, monkeypatch):
        monkeypatch.setattr("bbbounds.verify.instance_to_jsonable", lambda inst, coeffs: {})

    @staticmethod
    def _tally(start, stop, cuts=()):
        """One tally of the instances start to stop, added in blocks split at ``cuts``."""
        tally = _Tally(_GivenSides(start, stop))
        edges = [start, *cuts, stop]
        for a, b in zip(edges, edges[1:]):
            tally.add(a, _Placeholders(b - a), TolerancePolicy())
        return tally

    @staticmethod
    def _expected():
        policy = TolerancePolicy()
        totals = {name: VariantTotals() for name in _GivenSides.names}
        for mask, sample in zip(CHECKED, SAMPLES):
            for name, checked, (lhs, rhs) in zip(_GivenSides.names, mask, sample):
                if checked:
                    totals[name].record(lhs, rhs, rhs - lhs, holds(policy, lhs, rhs))
                else:
                    totals[name].skipped += 1
        return repr(totals)

    def test_one_range_matches_record(self):
        # all four instances in one block
        tally = self._tally(0, len(SAMPLES))
        assert repr(tally.totals()) == self._expected()
        assert [v["instance_id"] for v in tally.violations] == [0, 1, 2]

    @pytest.mark.parametrize("cuts", [c for r in (1, 2, 3) for c in combinations(range(1, len(SAMPLES)), r)])
    def test_blocks_cut_anywhere_match_record(self, cuts):
        tally = self._tally(0, len(SAMPLES), cuts)
        assert repr(tally.totals()) == self._expected()
        assert [v["instance_id"] for v in tally.violations] == [0, 1, 2]

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_slices_of_one_block_match_record(self, step, monkeypatch):
        # one block of all four instances, judged and folded step instances at a time
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", step * len(_GivenSides.names))
        tally = self._tally(0, len(SAMPLES))
        assert repr(tally.totals()) == self._expected()
        assert [v["instance_id"] for v in tally.violations] == [0, 1, 2]

    @pytest.mark.parametrize("cut", range(1, len(SAMPLES)))
    def test_merged_ranges_match_record(self, cut):
        tally = self._tally(0, cut)
        tally.merge(self._tally(cut, len(SAMPLES)))
        assert repr(tally.totals()) == self._expected()
        assert [v["instance_id"] for v in tally.violations] == [0, 1, 2]


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

    def test_no_variants_give_the_header_alone(self):
        config = GenConfig(master_seed=42, count=50)
        for jobs in (1, 2):
            report = run_suite(config, [], jobs=jobs)
            assert report.to_csv() == "variant,checked,held,violated,min_slack,min_rel_slack\n"
            assert report.totals == {} and report.violations == []

    def test_no_variants_draw_no_instance(self, monkeypatch):
        # the header-only report, and the JSON of a run with no rows, before
        # any instance is drawn
        def no_draws(*args):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(verify, "_draw", no_draws)
        config = GenConfig(master_seed=42, count=10000)
        for jobs in (1, 2):
            report = run_suite(config, [], jobs=jobs)
            assert report.to_csv() == "variant,checked,held,violated,min_slack,min_rel_slack\n"
            expected = {"config": asdict(config), "policy": asdict(DEFAULT_POLICY), "variants": {}, "violations": []}
            assert report.to_json() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

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

    @pytest.mark.parametrize("scale", [pytest.param(1e150, marks=SCALAR_OVERFLOW), 1e-170])
    def test_process_ranges_merge_like_the_serial_fold(self, scale):
        # NaN slacks at 1e150, and 0.0 / -0.0 ties among vacuous checks at 1e-170
        config = GenConfig(master_seed=42, count=60, scale=scale)
        serial = run_suite(config, full_catalog(), jobs=1)
        for jobs in (2, 3):
            parallel = run_suite(config, full_catalog(), jobs=jobs)
            assert parallel.to_csv() == serial.to_csv()
            assert parallel.to_json() == serial.to_json()

    @pytest.mark.parametrize("names, count", [("all", 1400), ("bb:1.2,cor23:sharp", 2000)], ids=["catalog", "two-variants"])
    def test_process_cuts_inside_blocks(self, names, count, monkeypatch):
        # several blocks per process range, cut at other instances than the
        # blocks of one process are; a block holds a few hundred of these
        # instances
        variants = parse_variant_list(names)
        config = GenConfig(master_seed=42, count=count)
        blocks = []
        add = _Tally.add
        monkeypatch.setattr(_Tally, "add", lambda self, start, block, policy: blocks.append(len(block)) or add(self, start, block, policy))
        serial = run_suite(config, variants, jobs=1)
        assert len(blocks) >= 4 and sum(blocks) == count
        for jobs in (2, 3):
            parallel = run_suite(config, variants, jobs=jobs)
            assert parallel.to_csv() == serial.to_csv()
            assert parallel.to_json() == serial.to_json()

    def test_the_tracers_pass_through_wrappers_change_nothing(self, monkeypatch):
        # bench/tracer.py replaces these names with plain functions, which have
        # no attributes of a class and are no class for isinstance
        import bbbounds.bounds as bounds
        import bbbounds.space as space
        import bbbounds.verify as verify

        config = GenConfig(master_seed=42, count=120)
        expected = run_suite(config, full_catalog()).to_csv()
        for owner, attr in (
            (bounds, "GramStats"), (bounds, "CoeffStats"), (bounds, "combination_norm_sq"), (bounds, "gram_of_family"),
            (space, "gram_of_family"), (verify, "generate_instance"), (verify.VariantTotals, "record"),
        ):
            original = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args, _fn=original, **kwargs: _fn(*args, **kwargs))
        assert run_suite(config, full_catalog()).to_csv() == expected

    def test_more_jobs_than_instances(self):
        config = GenConfig(master_seed=8, count=3)
        variants = full_catalog(exponents=(2.0,))
        serial = run_suite(config, variants)
        parallel = run_suite(config, variants, jobs=8)
        assert parallel.to_csv() == serial.to_csv()
        assert parallel.to_json() == serial.to_json()

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


# The reference CSV rows, one f-string per variant, and the values whose JSON
# tokens the writer must match: non-finite floats, signed zeros, subnormals,
# counts above 2**53, and null minima where nothing was checked.
def _csv_rows(report: SuiteReport) -> str:
    lines = ["variant,checked,held,violated,min_slack,min_rel_slack"]
    for name in sorted(report.totals):
        t = report.totals[name]
        lines.append(f"{name},{t.checked},{t.held},{t.violated},{repr(t.min_slack)},{repr(t.min_rel_slack)}")
    return "\n".join(lines) + "\n"


def _assert_writers_match(report: SuiteReport) -> None:
    assert report.to_json() == json.dumps(report.to_jsonable(), indent=2, sort_keys=True) + "\n"
    assert report.to_csv() == _csv_rows(report)


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, -1.5e-300]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_COUNTS = st.one_of(st.just(0), st.integers(0, 10**6), st.integers(2**53, 2**70))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)
_REPORTS = st.builds(
    SuiteReport,
    config=st.sampled_from([
        GenConfig(),
        GenConfig(master_seed=2**64 - 59, count=3000, scale=1e150, structured_families=True),
        GenConfig(n_range=(24, 64), d_range=(16, 128), field_mode="complex", scale=5e-324),
    ]),
    policy=st.builds(TolerancePolicy, *[st.floats(allow_nan=False, allow_infinity=False)] * 2),
    totals=st.dictionaries(st.text(), st.builds(VariantTotals, *[_COUNTS] * 4, _FLOATS, _FLOATS), max_size=6),
    violations=st.lists(st.dictionaries(st.text(), _JSON_VALUES, max_size=5), max_size=3),
)


class TestReportWriters:
    # to_json writes what json.dumps writes of to_jsonable, byte for byte,
    # and to_csv the rows the old f-string loop wrote

    @settings(max_examples=300, deadline=None)
    @given(_REPORTS)
    def test_any_report(self, report):
        _assert_writers_match(report)

    def test_empty_report(self):
        report = SuiteReport(GenConfig(), DEFAULT_POLICY)
        _assert_writers_match(report)
        assert '"variants": {},\n  "violations": []\n}\n' in report.to_json()

    def test_unchecked_variant_and_nested_violation(self):
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1), 0)
        payload = instance_to_jsonable(inst, coeffs)
        violation = {"instance_id": 0, "variant": "bb:1.2", "lhs": math.inf, "rhs": math.inf, "slack": math.nan}
        violation["instance"] = payload
        report = SuiteReport(
            GenConfig(master_seed=42),
            DEFAULT_POLICY,
            {"bb:1.2": VariantTotals(1, 0, 1, 0, math.nan, math.nan), "ortho:4.2": VariantTotals(skipped=1)},
            [violation, violation],
        )
        _assert_writers_match(report)
        text = report.to_json()
        assert '"min_slack": null' in text and '"min_slack": NaN' in text and '"lhs": Infinity' in text

    @pytest.mark.parametrize(
        "config, policy",
        [
            pytest.param(GenConfig(master_seed=42, count=4, scale=1e150), DEFAULT_POLICY, marks=SCALAR_OVERFLOW),
            (GenConfig(master_seed=42, count=20), TolerancePolicy(tol_abs=-1)),
        ],
        ids=["scale1e150", "tol-abs-1"],
    )
    def test_run_suite_reports_with_violations(self, config, policy):
        report = run_suite(config, full_catalog(), policy)
        assert report.violations and all("instance" in v for v in report.violations)
        _assert_writers_match(report)


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records its worker count and
    the index range of each submitted tally, which it runs in this process."""

    def __init__(self, max_workers, mp_context=None):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.ranges.append(args[-2:])
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestBlockSizing:
    # a block holds a budget of bytes, whatever its instances' size; its
    # rows are judged a slice of instances at a time

    def test_one_block_in_slices_matches_check_variant(self, monkeypatch):
        # a policy that turns near-equalities into violations, which fall in several slices
        config = GenConfig(master_seed=42, count=120)
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        blocks, slices = [], []
        add, gather = _Tally.add, Plan.gather
        monkeypatch.setattr(_Tally, "add", lambda self, start, block, policy: blocks.append(len(block)) or add(self, start, block, policy))
        monkeypatch.setattr(Plan, "gather", lambda self, terms, *rest: slices.append(len(terms)) or gather(self, terms, *rest))
        report = run_suite(config, full_catalog(), policy)
        assert blocks == [config.count] and len(slices) >= 3 and sum(slices) == config.count
        totals = {v.name: VariantTotals() for v in full_catalog()}
        violations = []
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            for variant in full_catalog():
                result = check_variant(variant, inst, coeffs, policy, index)
                ev = result.evaluation
                if ev is None:
                    totals[variant.name].skipped += 1
                    continue
                totals[variant.name].record(ev.lhs, ev.rhs, ev.slack, ev.holds)
                if not ev.holds:
                    violations.append({
                        "instance_id": index, "variant": variant.name, "lhs": ev.lhs, "rhs": ev.rhs,
                        "slack": ev.slack, "instance": instance_to_jsonable(inst, coeffs),
                    })
        assert repr(report.totals) == repr(totals)
        assert report.violations == sorted(violations, key=lambda v: (v["instance_id"], v["variant"]))
        edges = np.cumsum(slices[:-1])
        assert len(set(np.searchsorted(edges, [v["instance_id"] for v in violations], side="right"))) > 1

    @pytest.mark.parametrize("names", ["all", "bb:1.2"])
    def test_four_of_the_widest_families_share_a_block(self, names):
        config = GenConfig(master_seed=5, count=9, n_range=(64, 64), d_range=(128, 128))
        plan = plan_for(tuple(parse_variant_list(names)))
        assert [len(block) for _, block in _blocks(config, plan, 0, config.count)] == [4, 4, 1]

    @staticmethod
    @lru_cache(maxsize=None)
    def _peak(config):
        """The traced peak of a suite run on ``config``, after one warm-up run."""
        run_suite(GenConfig(**{**vars(config), "count": 3}), full_catalog())
        tracemalloc.start()
        try:
            run_suite(config, full_catalog())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n_range, count", [((1, 1), 1500), ((1, 8), 700)], ids=["n1", "default"])
    def test_peak_flat_in_the_count(self, n_range, count):
        # each count fills a block at least
        once = self._peak(GenConfig(master_seed=42, count=count, n_range=n_range))
        thrice = self._peak(GenConfig(master_seed=42, count=3 * count, n_range=n_range))
        assert thrice <= 1.1 * once

    def test_single_vectors_peak_no_higher_than_wide_families(self):
        # one-vector instances hold little each, so a block holds about 850 of them
        narrow = self._peak(GenConfig(master_seed=42, count=4500, n_range=(1, 1)))
        wide = self._peak(GenConfig(master_seed=42, count=60, n_range=(24, 64), d_range=(16, 128)))
        assert narrow <= wide

    def test_pool_no_larger_than_the_available_cpus(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "workers", [], raising=False)
        monkeypatch.setattr(_InlinePool, "ranges", [], raising=False)
        config = GenConfig(master_seed=4, count=60)
        expected = run_suite(config, full_catalog()).to_json()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert run_suite(config, full_catalog(), jobs=5).to_json() == expected
        # without sched_getaffinity, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert run_suite(config, full_catalog(), jobs=5).to_json() == expected
        assert run_suite(config, full_catalog(), jobs=3).to_json() == expected
        assert _InlinePool.workers == [2, 4, 3]
        assert _InlinePool.ranges == [(12 * k, 12 * k + 12) for k in range(5)] * 2 + [(0, 20), (20, 40), (40, 60)]


# The scalar evaluator, one variant on one instance at a time, read straight
# from the variant's table row: the oracle every caller of a plan must match.


def sides(variant, ctx, tuned=None):
    """(lhs, rhs), ``tuned`` giving each holder slot's term; raises
    IncompatibleInstanceError where a plan skips the variant."""
    if variant.orthonormal_only and not ctx.gram_stats.orthonormal_within():
        raise IncompatibleInstanceError("orthonormality gate")
    if variant.requires_coeffs and ctx.coeffs is None:
        raise IncompatibleInstanceError("requires coefficients")
    lhs = getattr(ctx, "lhs_" + variant.family)
    values = [
        tuned(ctx, key) if tuned and sel and sel.kind == "holder" else _TERMS[key](ctx, sel)
        for key, sel in variant.terms
    ]
    rhs = values[0] + values[1] if len(values) == 2 else values[0]
    return lhs, rhs * ctx.x_norm_sq if variant.family == "weighted" else rhs


def holds(policy, lhs, rhs):
    return rhs - lhs >= -(policy.tol_abs + policy.tol_rel * max(lhs, rhs))


def judge(variant, ctx, policy):
    """The variant's evaluation, or the reason it is skipped."""
    try:
        lhs, rhs = sides(variant, ctx)
    except IncompatibleInstanceError as exc:
        return exc.reason
    return BoundEvaluation(variant, lhs, rhs, rhs - lhs, holds(policy, lhs, rhs))


def _scalar_report(config, variants, policy=TolerancePolicy()):
    """The suite one check at a time: the scalar oracle's ``judge`` per
    (instance, variant), reduced through ``VariantTotals.record``."""
    variants = tuple(variants)
    report = SuiteReport(config, policy)
    report.totals = {v.name: VariantTotals() for v in variants}
    for index in range(config.count):
        inst, coeffs = generate_instance(config, index)
        ctx = EvalContext(inst, coeffs)
        for variant in variants:
            ev = judge(variant, ctx, policy)
            totals = report.totals[variant.name]
            if isinstance(ev, str):
                totals.skipped += 1
                continue
            totals.record(ev.lhs, ev.rhs, ev.slack, ev.holds)
            if not ev.holds:
                report.violations.append({
                    "instance_id": index,
                    "variant": variant.name,
                    "lhs": ev.lhs,
                    "rhs": ev.rhs,
                    "slack": ev.slack,
                    "instance": instance_to_jsonable(inst, coeffs),
                })
    report.violations.sort(key=lambda v: (v["instance_id"], v["variant"]))
    return report


class TestPlanMatchesScalarOracle:
    # every caller of the plan (run_suite's array judge, check_variant,
    # rank_variants) must give the output of the one-check-at-a-time oracle,
    # byte for byte
    CATALOG = full_catalog()

    @pytest.mark.parametrize(
        "config, variants, policy",
        [
            (GenConfig(master_seed=42, count=200), CATALOG, TolerancePolicy()),
            (WIDE_CONFIG, CATALOG, TolerancePolicy()),
            (GenConfig(master_seed=7, count=200, structured_families=True), CATALOG, TolerancePolicy()),
            pytest.param(
                GenConfig(master_seed=42, count=100, scale=1e150), CATALOG, TolerancePolicy(),
                marks=SCALAR_OVERFLOW,
            ),
            (GenConfig(master_seed=42, count=100, scale=1e-170), CATALOG, TolerancePolicy()),
            (GenConfig(master_seed=3, count=10), CATALOG, TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)),
        ],
        ids=["seed42", "wide", "structured", "scale1e150", "scale1e-170", "violating-policy"],
    )
    def test_csv_and_json_byte_identical(self, config, variants, policy):
        plan = run_suite(config, variants, policy)
        oracle = _scalar_report(config, variants, policy)
        assert plan.to_csv() == oracle.to_csv()
        assert plan.to_json() == oracle.to_json()

    def test_violating_policy_case_has_violations(self):
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        report = run_suite(GenConfig(master_seed=3, count=10), self.CATALOG, policy)
        assert report.violated > 0 and len(report.violations) == report.violated

    def test_repeated_and_gated_variants(self):
        # a name listed twice counts twice, as one totals row fed twice; with
        # two jobs the plan reaches its workers pickled, weights and gate included
        names = ["bessel:1.1", "lemma21:max:sum", "ortho:4.2", "lemma21:max:sum", "bb:1.2"]
        variants = [parse_variant(n) for n in names]
        config = GenConfig(master_seed=5, count=30)
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        oracle = _scalar_report(config, variants, policy)
        for jobs in (1, 2):
            plan = run_suite(config, variants, policy, jobs=jobs)
            assert plan.totals["lemma21:max:sum"].checked == 60
            assert plan.to_csv() == oracle.to_csv()
            assert plan.to_json() == oracle.to_json()

    def test_pickled_plan_on_both_sides_of_the_gate(self):
        # no generated family passes the orthonormality gate, so the gated
        # rows are checked on the orthonormal golden instance
        catalog = self.CATALOG + self.CATALOG[:3]
        plan = pickle.loads(pickle.dumps(Plan(catalog)))
        assert plan.variants == tuple(self.CATALOG)
        assert plan.weights.tolist() == [2] * 3 + [1] * (len(self.CATALOG) - 3)
        instances = ((load_instance(ORTHONORMAL), True), (generate_instance(GenConfig(master_seed=42), 0), False))
        for (inst, coeffs), orthonormal in instances:
            ctx = EvalContext(inst, coeffs)
            plan_lhs, plan_rhs = plan.evaluate(ctx)
            skips = plan.skips(ctx)
            checked = skips == 0
            assert checked.tolist() == [orthonormal or not v.orthonormal_only for v in plan.variants]
            assert set(skips.tolist()) == {0} if orthonormal else {0, SKIP_REASONS.index("orthonormality gate")}
            rows = [v for v, c in zip(plan.variants, checked) if c]
            lhs, rhs = zip(*(sides(v, EvalContext(inst, coeffs)) for v in rows))
            assert plan_lhs[checked].tolist() == list(lhs) and plan_rhs[checked].tolist() == list(rhs)

    @pytest.mark.parametrize("with_coeffs", [True, False], ids=["coeffs", "no-coeffs"])
    def test_check_variant_and_evaluate_variant(self, with_coeffs):
        # one variant's row of its plan, skip reasons included, under a
        # policy that turns near-equalities into violations
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        config = GenConfig(master_seed=42, count=12)
        stream = [generate_instance(config, k) for k in range(config.count)] + [load_instance(ORTHONORMAL)]
        for inst, coeffs in stream:
            coeffs = coeffs if with_coeffs else None
            for variant in self.CATALOG:
                expected = judge(variant, EvalContext(inst, coeffs), policy)
                result = check_variant(variant, inst, coeffs, policy)
                if isinstance(expected, str):
                    assert result.skip_reason == expected and result.evaluation is None
                    with pytest.raises(IncompatibleInstanceError) as info:
                        evaluate_variant(variant, inst, coeffs, policy)
                    assert info.value.reason == expected
                else:
                    # repr tells a numpy float or bool from a Python one
                    assert repr(result.evaluation) == repr(expected) and result.skip_reason is None
                    assert repr(evaluate_variant(variant, inst, coeffs, policy)) == repr(expected)

    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_rank_variants(self, optimize_exponents):
        tuned = _tuned_value if optimize_exponents else None

        def rank(inst, coeffs, variants):
            ctx = EvalContext(inst, coeffs)
            lhs, rhs = zip(*(sides(variant, ctx, tuned) for variant in variants))
            return sorted_ranking([v.name for v in variants], lhs, rhs).to_csv()

        usable = [v for v in self.CATALOG if not v.orthonormal_only]
        fourier = [v for v in usable if v.family == "fourier"]
        config = GenConfig(master_seed=42, count=30)
        stream = [generate_instance(config, k) for k in range(config.count)]
        stream += [generate_instance(WIDE_CONFIG, k) for k in range(3)]
        for inst, coeffs in stream:
            for variants, given in ((usable, coeffs), (fourier, None)):
                assert rank_variants(inst, given, variants, optimize_exponents).to_csv() == rank(inst, given, variants)
        inst, coeffs = load_instance(ORTHONORMAL)
        assert rank_variants(inst, coeffs, self.CATALOG, optimize_exponents).to_csv() == rank(inst, coeffs, self.CATALOG)

    @pytest.mark.parametrize("cut", [0, 3])
    def test_one_tally_on_both_sides_of_the_gate(self, cut):
        # the orthonormal golden between seed-42 instances, under a policy
        # that turns near-equalities into violations; cut > 0 merges two
        # tallies split there
        config = GenConfig(master_seed=42, count=4)
        generated = [generate_instance(config, k) for k in range(config.count)]
        golden = load_instance(ORTHONORMAL)
        stream = [generated[0], golden, generated[1], generated[2], golden, generated[3]]
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        plan = Plan(self.CATALOG)

        def tally(start, stop):
            t = _Tally(plan)
            t.add(start, block_of([EvalContext(*stream[index]) for index in range(start, stop)]), policy)
            return t

        result = tally(0, cut or len(stream))
        if cut:
            result.merge(tally(cut, len(stream)))
        totals = {v.name: VariantTotals() for v in self.CATALOG}
        violations = []
        for index, (inst, coeffs) in enumerate(stream):
            ctx = EvalContext(inst, coeffs)
            for variant in self.CATALOG:
                ev = judge(variant, ctx, policy)
                if isinstance(ev, str):
                    totals[variant.name].skipped += 1
                    continue
                totals[variant.name].record(ev.lhs, ev.rhs, ev.slack, ev.holds)
                if not ev.holds:
                    violations.append((index, variant.name, ev.lhs, ev.rhs, ev.slack))
        assert repr(result.totals()) == repr(totals)
        assert [(v["instance_id"], v["variant"], v["lhs"], v["rhs"], v["slack"]) for v in result.violations] == violations
        gated = [v.name for v in self.CATALOG if v.orthonormal_only]
        assert {totals[name].checked for name in gated} == {2}
        assert {1, 4} <= {index for index, *_ in violations}


def _first_error(config, names):
    """The index and message of the first instance of the stream whose
    generation, or a left-hand side the variants read, raises, one instance
    at a time; None if none does."""
    sides = [a for a in plan_for(tuple(parse_variant_list(names))).lhs_attrs if a != "lhs_fourier"]
    for index in range(config.count):
        try:
            ctx = EvalContext(*generate_instance(config, index))
            for attr in sides:
                getattr(ctx, attr)
        except ValidationError as exc:
            return index, str(exc)
    return None


def _texts(values) -> str:
    """repr of an array's entries as Python numbers: equal exactly when the bits are."""
    return repr(np.asarray(values).tolist())


def _blocks_match(config, start, stop) -> list[int]:
    """Check that the blocks of instances ``start`` to ``stop`` hold, instance
    by instance, the bits that generate_instance and EvalContext give one
    instance at a time; the blocks' first indices."""
    firsts = []
    index = start
    for first, block in _blocks(config, plan_for(tuple(full_catalog())), start, stop):
        assert first == index
        firsts.append(first)
        for b in range(len(block)):
            inst, coeffs = generate_instance(config, index)
            ctx = EvalContext(inst, coeffs)
            n = inst.n
            assert block.n[b] == n
            assert _texts(block.bordered[b, : n + 1, : n + 1]) == _texts(inst.bordered.entries)
            assert not block.bordered[b, n + 1 :].any() and not block.bordered[b, :, n + 1 :].any()
            assert _texts(block.coeffs.values[b, :n]) == _texts(coeffs) and not block.coeffs.values[b, n:].any()
            assert _texts(block.bordered[b, 0, 1 : n + 1]) == _texts(inst.fourier)
            for attr in ("x_norm_sq", "lhs_combination", "lhs_weighted"):
                assert repr(float(getattr(block, attr)[b])) == repr(getattr(ctx, attr)), (index, attr)
            index += 1
    assert index == stop
    return firsts


class TestSeeding:
    # the suite's generator, seeded a chunk of indices at a time, starts each
    # index in the state that SeedSequence([master_seed, index]) gives it

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_states_and_first_draws_match_seed_sequence(self, seed):
        # 25,000 indices a seed, 10**5 in all: from 0, and across 2**32,
        # where a chunk is cut and the index gains a word
        config = GenConfig(master_seed=seed, count=1)
        checked = 0
        for start, stop in ((0, 12_500), (2**32 - 6_250, 2**32 + 6_250)):
            for index, rng in verify._seeded(config, start, stop):
                oracle = verify._rng_for(config, index)
                assert rng.bit_generator.state == oracle.bit_generator.state, index
                if index % 16 == 0:
                    # the reused generator's buffered uint32 is reset by the next index
                    assert rng.integers(1, 9, size=3).tolist() == oracle.integers(1, 9, size=3).tolist()
                    assert rng.standard_normal().hex() == oracle.standard_normal().hex()
                checked += 1
        assert checked == 25_000

    @pytest.mark.parametrize("d_span", [0, 3, 2**31 + 1])
    @pytest.mark.parametrize("n_span", [0, 1, 3, 7, 2**31 + 1, 2**32 - 1])
    def test_shape_draws_are_those_of_integers(self, n_span, d_span):
        # n, d and the field coin in turn, so a draw may read the half-word
        # that the one before it left; at a span of 2**31 + 1 about half the
        # draws are rejected, and 2**32 - 1 spans every 32-bit value
        ranges = ((1, 1 + n_span), (2, 2 + d_span), (0, 1))
        for seed in range(200):
            bit_generator, oracle = np.random.PCG64(seed), np.random.Generator(np.random.PCG64(seed))
            expected = [int(oracle.integers(lo, hi + 1)) for lo, hi in ranges]
            assert verify._bounded(bit_generator, ranges) == expected, seed
            # as many raw words read
            assert bit_generator.random_raw() == oracle.bit_generator.random_raw(), seed


# The streams whose blocks are held to generate_instance and EvalContext, with
# the digest of their instances, recorded before the generator drew each
# instance with one standard_normal call, and again (all but the real stream,
# whose digest stayed) under the OpenBLAS kernel that conftest.py pins.
BLOCK_STREAMS = [
    pytest.param(GenConfig(master_seed=42, count=200), "0aa3c9e506238571", id="seed42"),
    pytest.param(GenConfig(master_seed=7, count=120, structured_families=True), "b00c960f5c4a65ac", id="structured"),
    pytest.param(WIDE_CONFIG, "2ff412059c13577f", id="wide"),
    pytest.param(GenConfig(master_seed=9, count=100, field_mode="real"), "4ce4e0676c969bed", id="real"),
    pytest.param(GenConfig(master_seed=9, count=100, field_mode="complex"), "ded9aeb9e76b9dfc", id="complex"),
    pytest.param(GenConfig(master_seed=42, count=100, scale=1e150), "36cd80a9002bc457", id="scale1e150", marks=SCALAR_OVERFLOW),
    pytest.param(GenConfig(master_seed=42, count=100, scale=1e-170), "1a1cf5b9ef7ef76a", id="scale1e-170"),
]


class TestBlockGeneration:
    # a generated block holds, instance by instance, the bits that
    # generate_instance and EvalContext give one instance at a time

    @pytest.mark.parametrize("config, digest", BLOCK_STREAMS)
    def test_stream_digests(self, config, digest):
        h = hashlib.sha256()
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            for a in (inst.x, inst.family.vectors, coeffs, inst.bordered.entries):
                h.update(a.tobytes())
            h.update(inst.field_mode.encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("config, digest", BLOCK_STREAMS)
    def test_blocks_match_one_instance_at_a_time(self, config, digest, monkeypatch):
        # an eighth of the budget cuts each of these streams into several blocks
        monkeypatch.setattr(verify, "_BLOCK_BYTES", verify._BLOCK_BYTES // 8)
        assert len(_blocks_match(config, 0, config.count)) > 1

    def test_blocks_match_with_consecutive_groups(self, monkeypatch):
        # blocks of 13 instances of six shapes: a group whose instances are
        # consecutive, in a block with a wider family, is stacked through
        # views of its strided slots
        config = GenConfig(master_seed=1, count=400, n_range=(1, 3), d_range=(2, 3))
        monkeypatch.setattr(verify, "_BLOCK_BYTES", 40_000)
        runs, groups = [], verify._groups

        def spy(keys):
            keys = list(keys)
            width = max(k if isinstance(k, int) else k[0] for k in keys)
            for key, group in groups(keys):
                if isinstance(group, slice) and group.stop - group.start > 1 and (key if isinstance(key, int) else key[0]) < width:
                    runs.append(key)
                yield key, group

        monkeypatch.setattr(verify, "_groups", spy)
        _blocks_match(config, 0, config.count)
        assert {type(key) for key in runs} == {int, tuple}

    def test_stacked_direct_norm_is_that_of_vdot(self):
        # the block's direct norm of sum c_i y_i, conj(s) @ s on a stack, runs
        # the BLAS dot that np.vdot(s, s) runs, on conj(s) unconjugated: the
        # real parts agree bit for bit; no oracle reads the direct norm
        rng = np.random.default_rng(0)
        for d in list(range(1, 140)) * 3:
            s = (rng.standard_normal((3, 1, d)) + 1j * rng.standard_normal((3, 1, d))) * 10.0 ** rng.integers(-150, 150)
            for stack in (s, s.real + 0j):
                stacked = (stack.conj() @ stack.transpose(0, 2, 1))[:, 0, 0].real
                assert _texts(stacked) == _texts([np.vdot(v[0], v[0]).real for v in stack]), d

    @pytest.mark.parametrize(
        "config, start",
        [
            (GenConfig(master_seed=42, count=2000), 666),
            (GenConfig(master_seed=9, count=2000, field_mode="real"), 1333),
            (GenConfig(master_seed=9, count=2000, field_mode="complex"), 666),
            (GenConfig(master_seed=7, count=2000, structured_families=True), 1),
            (GenConfig(master_seed=5, count=2000, n_range=(3, 3)), 666),
            (GenConfig(master_seed=0, count=2000), 1333),
            (GenConfig(master_seed=2**32 - 1, count=2000), 666),
            (GenConfig(master_seed=2**32, count=2000), 1333),
            (GenConfig(master_seed=2**64 - 1, count=2000), 666),
            (GenConfig(master_seed=42, count=2**32 + 300), 2**32 - 300),
            (GenConfig(master_seed=3, count=2000, n_range=(4, 4), d_range=(5, 5)), 666),
            (GenConfig(master_seed=3, count=2000, n_range=(3, 3), d_range=(1, 4000)), 1333),
        ],
        ids=[
            "default", "real", "complex", "structured", "n3", "seed0", "seed2^32-1", "seed2^32", "seed2^64-1", "index2^32",
            "one-shape", "singletons",
        ],
    )
    def test_ranges_that_start_mid_stream(self, config, start):
        # a range seeds its indices a chunk at a time from its own start, as
        # the --jobs splits of 2,000 instances start at 666 and 1,333; each
        # range here crosses a chunk, and "index2^32" crosses 2**32, where the
        # index gains a word.  "real" and "complex" draw two uint32s for n and
        # d, "both" three, whose buffered half must not leak into the next
        # instance; n in 3..3 draws none for n.  Every instance of "one-shape"
        # has one shape, so one group fills each block; in "singletons", d
        # spreads so wide that nearly every (n, d) group is of one instance.
        _blocks_match(config, start, start + verify._SEED_CHUNK + 40)

    @pytest.mark.parametrize(
        "scale, names",
        [(1e76, "all"), (1e76, "thm31:max:max"), (1e76, "bb:1.2"), (1e76, "lemma21:max:max"), (1e160, "all")],
    )
    def test_errors_are_those_of_one_instance_at_a_time(self, scale, names):
        # the weighted side overflows at 1e76, and every Gram matrix at 1e160
        config = GenConfig(master_seed=42, count=40, scale=scale)
        expected = _first_error(config, names)
        if expected is None:
            assert names in ("bb:1.2", "lemma21:max:max")
            assert run_suite(config, parse_variant_list(names)).to_csv() == _scalar_report(config, parse_variant_list(names)).to_csv()
            return
        with pytest.raises(ValidationError) as info:
            run_suite(config, parse_variant_list(names))
        assert str(info.value) == expected[1]

    @pytest.mark.parametrize(
        "scale, names, message",
        [
            (1e51, "all", "weighted left-hand side"),
            (1e51, "thm31:max:max", "weighted left-hand side"),
            # the instances before the first to fail warn one at a time
            pytest.param(2e153, "all", "Gram matrix contains non-finite entries", marks=SCALAR_OVERFLOW),
        ],
    )
    def test_errors_raised_mid_block(self, scale, names, message, monkeypatch):
        # the first instance to fail is neither the first of its block nor the
        # first of the stream; its block is generated up to the end first
        config = GenConfig(master_seed=42, count=100, scale=scale)
        index, expected = _first_error(config, names)
        assert expected.startswith(message)
        blocks = []
        generated = verify._generated_block
        monkeypatch.setattr(
            verify, "_generated_block",
            lambda config, first, draws, sides: blocks.append((first, len(draws))) or generated(config, first, draws, sides),
        )
        for jobs in (1, 2):
            with pytest.raises(ValidationError) as info:
                run_suite(config, parse_variant_list(names), jobs=jobs)
            assert str(info.value) == expected
        first, size = blocks[-1]
        assert first < index < first + size

    def test_violation_payloads_are_the_regenerated_instances(self):
        policy = TolerancePolicy(tol_abs=-1e-3, tol_rel=0.0)
        for config in (GenConfig(master_seed=3, count=60), GenConfig(master_seed=7, count=30, structured_families=True)):
            report = run_suite(config, full_catalog(), policy)
            assert report.violations
            for violation in report.violations:
                expected = instance_to_jsonable(*generate_instance(config, violation["instance_id"]))
                assert violation["instance"] == expected


class TestOneGramPerInstance:
    # both sides of a combination check read the instance's one Gram matrix,
    # the family's block of its bordered Gram (ProblemInstance.family_gram)

    @pytest.mark.parametrize("config", [GenConfig(master_seed=42, count=500), WIDE_CONFIG], ids=["seed42", "wide"])
    def test_vectors_and_gram_modes_check_alike(self, config):
        plan = plan_for(tuple(full_catalog()))
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            gram_only = ProblemInstance.from_bordered_gram(inst.bordered.entries, field_mode=inst.field_mode)
            expected = repr(plan.check(EvalContext(inst, coeffs), DEFAULT_POLICY))
            assert repr(plan.check(EvalContext(gram_only, coeffs), DEFAULT_POLICY)) == expected, index

    def test_the_combination_side_is_the_double_sum_of_the_family_gram(self):
        config = GenConfig(master_seed=42, count=2000)
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            g = inst.family_gram.entries
            expected = max(complex(coeffs @ g @ np.conj(coeffs)).real, 0.0)
            assert repr(EvalContext(inst, coeffs).lhs_combination) == repr(expected), index

    def test_each_gram_is_built_once(self, monkeypatch):
        # a generated instance's left-hand side builds no Gram matrix, and a
        # public bound on a family builds the family's once
        import bbbounds.bounds as bounds
        import bbbounds.space as space

        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1), 0)
        calls = []
        for owner in (bounds, space):
            original = owner.gram_of_family
            monkeypatch.setattr(owner, "gram_of_family", lambda *args, _fn=original: calls.append(args) or _fn(*args))
        EvalContext(inst, coeffs).lhs_combination
        assert len(calls) == 0
        lemma21_bound(MAX, MAX, coeffs, inst.family)
        assert len(calls) == 1


class TestWideFamilyGolden:
    # recorded before the Gram and coefficient statistics were built from
    # whole arrays, and again under the kernel conftest.py pins; families of
    # 24 to 64 vectors in up to 128 dimensions
    CONFIG = WIDE_CONFIG
    GOLDEN = Path(__file__).parent / "golden"

    def test_suite_csv(self):
        expected = (self.GOLDEN / "verify_wide.csv").read_text()
        assert run_suite(self.CONFIG, full_catalog()).to_csv() == expected

    def test_tuned_rank_csv(self):
        inst, coeffs = generate_instance(self.CONFIG, 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        expected = (self.GOLDEN / "rank_wide.csv").read_text()
        assert rank_variants(inst, coeffs, variants).to_csv() == expected

    def test_pinned_rank_csv(self):
        # recorded before pinned and tuned ranks shared one evaluator
        inst, coeffs = generate_instance(self.CONFIG, 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        expected = (self.GOLDEN / "rank_pinned_wide.csv").read_text()
        assert rank_variants(inst, coeffs, variants, optimize_exponents=False).to_csv() == expected


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
