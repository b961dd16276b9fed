"""Exponent profiles, golden-section optimization, tightness ranking."""

import math
from pathlib import Path

import numpy as np
import pytest

import bbbounds.bounds as bounds
import bbbounds.tuning as tuning
from bbbounds import (
    DEFAULT_INTERVAL,
    PROFILE_FAMILIES,
    IncompatibleInstanceError,
    ProblemInstance,
    ValidationError,
    VariantError,
    VectorFamily,
    diag_term,
    evaluate_variant,
    full_catalog,
    generate_instance,
    GenConfig,
    holder,
    optimize_exponent,
    orthonormalize,
    parse_variant,
    parse_variant_list,
    profile_exponent,
    rank_variants,
)
from bbbounds.bounds import EvalContext, Plan, plan_for
from bbbounds.tuning import RankEntry, TightnessRanking
from bbbounds.variants import Selector

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


def basis_instance(n=2):
    vecs = np.eye(n)
    return ProblemInstance.from_vectors(
        [1.0] + [0.0] * (n - 1), vecs.tolist(), field_mode="real"
    )


class TestProfile:
    def test_constant_profile_for_equal_coefficients(self):
        # n^(1/p) * n^(1/q) = n at every exponent
        inst = basis_instance(4)
        profile = profile_exponent("lemma21:diag", inst, [1.0] * 4, grid=(1.1, 2.0, 8.0, 32.0))
        for _, value in profile.grid:
            assert value == pytest.approx(4.0, rel=1e-12)
        assert profile.minimizer[1] == pytest.approx(4.0, rel=1e-12)

    def test_decreasing_toward_small_exponents(self):
        inst = basis_instance(2)
        profile = profile_exponent("lemma21:diag", inst, [1.0, 2.0], grid=(1.1, 2.0, 8.0, 32.0))
        values = [v for _, v in profile.grid]
        assert values[0] < values[1] < values[2] < values[3]
        # the small-exponent limit is the sum-selector value 5
        assert 5.0 <= profile.minimizer[1] <= 5.1
        assert profile.at_boundary

    def test_grid_outside_domain_rejected(self):
        inst = basis_instance(2)
        with pytest.raises(VariantError):
            profile_exponent("lemma21:diag", inst, [1.0, 2.0], grid=(0.5, 2.0))
        with pytest.raises(VariantError):
            profile_exponent("lemma21:diag", inst, [1.0, 2.0], grid=(2.0, 100.0))

    def test_unknown_family_rejected(self):
        with pytest.raises(VariantError):
            profile_exponent("lemma21:antidiag", basis_instance(), [1.0, 2.0], grid=(2.0,))

    def test_grid_is_sorted_increasing(self):
        inst = basis_instance(2)
        profile = profile_exponent("lemma21:diag", inst, [1.0, 2.0], grid=(8.0, 1.1, 2.0))
        exps = [e for e, _ in profile.grid]
        assert exps == sorted(exps) and len(exps) == 3

    def test_all_families_produce_finite_profiles(self):
        config = GenConfig(master_seed=21, count=1, n_range=(3, 5), d_range=(2, 6))
        inst, coeffs = generate_instance(config, 0)
        for family in ("lemma21:diag", "lemma21:offdiag", "coarse", "cor32:3", "bb:4.3"):
            profile = profile_exponent(family, inst, coeffs)
            assert all(math.isfinite(v) for _, v in profile.grid)
            assert profile.minimizer[1] <= min(v for _, v in profile.grid) + 1e-12

    def test_profiles_are_log_convex_in_the_reciprocal_exponent(self):
        # every profiled term is built from l^p norms at conjugate exponents,
        # and log ||v||_(1/t) is convex in t (Lyapunov), as products, sums,
        # square roots and the max with a log-linear floor keep it: a term
        # that breaks this premise shows up as a negative second difference
        ts = np.linspace(1.0 / 64.0, 1.0 / tuning.EXPONENT_MIN, 200)
        stream = [generate_instance(GenConfig(master_seed=42, count=60), k) for k in range(60)]
        wide = GenConfig(n_range=(24, 64), d_range=(16, 128), master_seed=5, count=8)
        stream += [generate_instance(wide, k) for k in range(8)]
        for index, (inst, coeffs) in enumerate(stream):
            ctx = EvalContext(inst, coeffs)
            for family in PROFILE_FAMILIES:
                fn = tuning._family_fn(family, ctx)
                values = np.array([fn(1.0 / t) for t in ts.tolist()])
                if not (values > 0.0).all():
                    continue
                logs = np.log(values)
                second = logs[:-2] - 2.0 * logs[1:-1] + logs[2:]
                assert second.min() >= -1e-12 * (np.abs(logs).max() + 1.0), (index, family)


class TestOptimize:
    def test_boundary_minimizer_at_lower_endpoint(self):
        exponent, value, at_boundary = optimize_exponent(
            "lemma21:diag", basis_instance(2), [1.0, 2.0]
        )
        assert at_boundary
        assert exponent == pytest.approx(DEFAULT_INTERVAL[0])
        assert value == pytest.approx(5.0, rel=5e-3)

    def test_constant_family_value(self):
        _, value, _ = optimize_exponent("lemma21:diag", basis_instance(4), [1.0] * 4)
        assert value == pytest.approx(4.0, rel=1e-9)

    def test_invalid_interval_rejected(self):
        with pytest.raises(VariantError):
            optimize_exponent("lemma21:diag", basis_instance(2), [1.0, 2.0], interval=(2.0, 1.0))
        with pytest.raises(VariantError):
            optimize_exponent("lemma21:diag", basis_instance(2), [1.0, 2.0], interval=(0.5, 2.0))

    def test_never_above_any_grid_value(self):
        rng = np.random.default_rng(73)
        config = GenConfig(master_seed=31, count=40, n_range=(2, 6), d_range=(2, 6))
        grid = np.geomspace(DEFAULT_INTERVAL[0], DEFAULT_INTERVAL[1], 8)
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            for family in ("lemma21:diag", "lemma21:offdiag", "coarse", "cor32:3", "bb:4.3"):
                _, value, _ = optimize_exponent(family, inst, coeffs)
                profile = profile_exponent(family, inst, coeffs, grid=grid)
                assert value <= min(v for _, v in profile.grid) * (1 + 1e-12)

    def test_interior_minimum_found(self):
        # pick an instance whose diag profile has an interior optimum and
        # check the refinement beats the surrounding grid points
        config = GenConfig(master_seed=5, count=1, n_range=(4, 4), d_range=(4, 4))
        inst, coeffs = generate_instance(config, 0)
        exponent, value, at_boundary = optimize_exponent("lemma21:diag", inst, coeffs)
        assert DEFAULT_INTERVAL[0] <= exponent <= DEFAULT_INTERVAL[1]
        # converged to the documented 1e-6 relative value tolerance
        for t in np.geomspace(DEFAULT_INTERVAL[0], DEFAULT_INTERVAL[1], 40):
            assert value <= diag_term(holder(float(t)), coeffs, inst.family_gram) * (1 + 5e-6)

    def test_deterministic(self):
        config = GenConfig(master_seed=77, count=1, n_range=(5, 5), d_range=(3, 3))
        inst, coeffs = generate_instance(config, 0)
        assert optimize_exponent("coarse", inst, coeffs) == optimize_exponent(
            "coarse", inst, coeffs
        )

    @pytest.mark.parametrize("family", ["lemma21:diag", "coarse", "cor32:3", "bb:4.3"])
    def test_overflowed_profile_raises_in_optimize_and_profile(self, family):
        # at this scale these four profiles overflow: neither function
        # reports a minimum of inf
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1, scale=1e150), 0)
        for fn in (optimize_exponent, profile_exponent):
            with pytest.raises(ArithmeticError, match="non-finite profile value"):
                fn(family, inst, coeffs)


def relative_slack(lhs, rhs):
    """The relative slack of one entry, as the ranking reports it."""
    if lhs > 0.0:
        return (rhs - lhs) / lhs
    return 0.0 if rhs == 0.0 else math.inf


def sorted_ranking(names, lhs, rhs):
    """The reference assembly of a ranking: the entries in the caller's
    order, then a stable sort keyed by (rhs, name)."""
    entries = [RankEntry(name, r, relative_slack(l, r)) for name, l, r in zip(names, lhs, rhs)]
    entries.sort(key=lambda e: (e.rhs, e.variant))
    return TightnessRanking(tuple(entries))


class TestRankingOrder:
    # rank_variants must order and fill its entries as sorted_ranking does,
    # with the same float bits: repr tells -0.0 from 0.0

    @staticmethod
    def _given_sides(monkeypatch, lhs, rhs):
        sides = np.array(lhs, dtype=np.float64), np.array(rhs, dtype=np.float64)
        monkeypatch.setattr(bounds.Plan, "evaluate", lambda plan, ctx, tuned=None: (sides[0].copy(), sides[1].copy()))

    @pytest.mark.parametrize(
        "lhs, rhs",
        [
            ([1.0, 2.0, 1.0, 0.5], [3.0, 3.0, 3.0, 3.0]),         # equal rhs on different names
            ([0.0, 0.0, 0.0, 0.0], [0.0, -0.0, -0.0, 0.0]),        # -0.0 against 0.0, rel_slack 0.0
            ([0.0, -0.0, 0.0, 1.0], [0.0, 2.0, 5e-324, 1.0]),      # lhs == 0: rel_slack 0.0 or inf
            ([1.0, 3.0, 0.0, 0.25], [2.0 + 2**-51, 1e300, -1.0, 0.5]),
        ],
        ids=["equal-rhs", "signed-zeros", "zero-lhs", "mixed"],
    )
    def test_against_sorted_assembly(self, monkeypatch, lhs, rhs):
        inst = basis_instance(3)
        # listed in reverse name order, so ties must reorder them
        names = ["lemma21:sum:sum", "lemma21:max:sum", "lemma21:max:max", "cor23:weak"]
        variants = [parse_variant(n) for n in names]
        self._given_sides(monkeypatch, lhs, rhs)
        for optimize_exponents in (True, False):
            ranking = rank_variants(inst, [1.0, 2.0, 0.5], variants, optimize_exponents)
            expected = sorted_ranking(names, lhs, rhs)
            assert repr(ranking) == repr(expected)
            assert all(type(e) is RankEntry for e in ranking.entries)
            assert all(type(x) is float for e in ranking.entries for x in e[1:])

    def test_variant_listed_twice(self, monkeypatch):
        inst = basis_instance(3)
        names = ["lemma21:max:sum", "bb:1.2", "lemma21:max:sum", "cor23:weak"]
        variants = [parse_variant(n) for n in names]
        # a plan has one row per distinct variant: the rows are lemma21, bb, cor23
        self._given_sides(monkeypatch, [1.0, 0.0, 1.0], [2.0, 0.0, 2.0])
        ranking = rank_variants(inst, [1.0, 2.0, 0.5], variants)
        expected = sorted_ranking(names, [1.0, 0.0, 1.0, 1.0], [2.0, 0.0, 2.0, 2.0])
        assert repr(ranking) == repr(expected)
        assert [e.variant for e in ranking.entries] == ["bb:1.2", "cor23:weak", "lemma21:max:sum", "lemma21:max:sum"]

    @pytest.mark.parametrize("seed", [5, 11, 42])
    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_seeded_ranks(self, seed, optimize_exponents):
        config = GenConfig(master_seed=seed, count=8)
        usable = tuple(v for v in full_catalog() if not v.orthonormal_only)
        names = [v.name for v in usable]
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            ranking = rank_variants(inst, coeffs, usable, optimize_exponents)
            ctx = EvalContext(inst, coeffs)
            lhs, rhs = plan_for(usable).evaluate(ctx, tuning._tuned_value if optimize_exponents else None)
            assert repr(ranking) == repr(sorted_ranking(names, lhs.tolist(), rhs.tolist()))


class TestRanking:
    def test_frozen_ordering_example(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], [E1, E1], field_mode="real")
        variants = [
            parse_variant("lemma21:max:max"),
            parse_variant("special:2.13"),
            parse_variant("cor23:sharp"),
        ]
        ranking = rank_variants(inst, [1.0, 2.0], variants)
        assert [e.variant for e in ranking.entries] == [
            "cor23:sharp",
            "special:2.13",
            "lemma21:max:max",
        ]
        assert [e.rhs for e in ranking.entries] == [
            pytest.approx(9.0),
            pytest.approx(10.0),
            pytest.approx(12.0),
        ]
        assert ranking.entries[0].rel_slack == pytest.approx(0.0, abs=1e-12)

    def test_ranking_is_permutation_with_lexicographic_ties(self):
        inst = basis_instance(3)
        variants = [
            parse_variant("lemma21:holder:2.0:max"),
            parse_variant("lemma21:holder:1.25:max"),
        ]
        ranking = rank_variants(inst, [1.0, 2.0, 0.5], variants)
        # both optimize the same slot, so they tie and sort by name
        assert [e.variant for e in ranking.entries] == [
            "lemma21:holder:1.25:max",
            "lemma21:holder:2.0:max",
        ]
        assert ranking.entries[0].rhs == ranking.entries[1].rhs

    def test_every_entry_sound(self):
        config = GenConfig(master_seed=41, count=20, n_range=(1, 6), d_range=(1, 6))
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            ranking = rank_variants(inst, coeffs, variants)
            assert len(ranking.entries) == len(variants)
            assert all(e.rel_slack >= -1e-9 for e in ranking.entries)
            rhs_values = [e.rhs for e in ranking.entries]
            assert rhs_values == sorted(rhs_values)

    def test_orthonormal_instance_ranks_whole_catalog(self):
        rng = np.random.default_rng(83)
        fam = orthonormalize(VectorFamily(rng.standard_normal((3, 6))))
        x = rng.standard_normal(6)
        inst = ProblemInstance.from_vectors(x, fam, field_mode="real")
        ranking = rank_variants(inst, rng.standard_normal(3), full_catalog())
        assert len(ranking.entries) == len(full_catalog())

    def test_optimized_never_looser_than_pinned(self):
        config = GenConfig(master_seed=43, count=10, n_range=(2, 6), d_range=(2, 6))
        variants = [parse_variant("lemma21:holder:2.0:holder:2.0"), parse_variant("special:2.12:p=3.0")]
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            tuned = rank_variants(inst, coeffs, variants)
            pinned = rank_variants(inst, coeffs, variants, optimize_exponents=False)
            tuned_by_name = {e.variant: e.rhs for e in tuned.entries}
            for entry in pinned.entries:
                assert tuned_by_name[entry.variant] <= entry.rhs * (1 + 5e-6)

    def test_singleton_ranking(self):
        inst = basis_instance(2)
        ranking = rank_variants(inst, [1.0, 1.0], [parse_variant("cor23:weak")])
        assert len(ranking.entries) == 1

    def test_reproducible(self):
        config = GenConfig(master_seed=47, count=1, n_range=(4, 4), d_range=(4, 4))
        inst, coeffs = generate_instance(config, 0)
        variants = full_catalog(exponents=(1.5, 2.0))
        usable = [v for v in variants if not v.orthonormal_only]
        assert rank_variants(inst, coeffs, usable) == rank_variants(inst, coeffs, usable)

    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_variant_listed_twice_ranks_twice(self, optimize_exponents):
        inst, coeffs = generate_instance(GenConfig(master_seed=5, count=1), 0)
        twice, once = parse_variant("lemma21:holder:2.0:max"), parse_variant("bb:1.2")
        ranking = rank_variants(inst, coeffs, (twice, once, twice), optimize_exponents)
        names = [e.variant for e in ranking.entries]
        assert sorted(names) == sorted([twice.name, once.name, twice.name])
        entries = {e.variant: e for e in ranking.entries}
        assert [e for e in ranking.entries if e.variant == twice.name] == [entries[twice.name]] * 2

    def test_empty_tuple_gives_the_header_alone(self):
        inst, coeffs = generate_instance(GenConfig(master_seed=5, count=1), 0)
        for optimize_exponents in (True, False):
            assert rank_variants(inst, coeffs, (), optimize_exponents).to_csv() == "rank,variant,rhs,rel_slack\n"

    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_overflowed_rows_raise_without_warning(self, optimize_exponents):
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1, scale=1e150), 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        with pytest.raises(ArithmeticError, match="non-finite"):
            rank_variants(inst, coeffs, variants, optimize_exponents)

    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_non_finite_coefficients_rejected(self, optimize_exponents):
        # the weighted and Fourier rows alone, which compute no combination side
        inst, coeffs = generate_instance(GenConfig(master_seed=5, count=1, n_range=(2, 2)), 0)
        variants = [v for v in full_catalog() if v.family != "combination" and not v.orthonormal_only]
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="coeffs contains non-finite entries"):
                rank_variants(inst, [bad, coeffs[1]], variants, optimize_exponents)

    def test_incompatible_variants_raise_their_reason(self):
        inst, coeffs = generate_instance(GenConfig(master_seed=5, count=1, n_range=(2, 2)), 0)
        cases = (([parse_variant("bb:1.2"), parse_variant("bessel:1.1")], coeffs, "orthonormality gate"),
                 ([parse_variant("bb:1.2"), parse_variant("cor23:weak")], None, "requires coefficients"))
        for variants, given, reason in cases:
            with pytest.raises(IncompatibleInstanceError) as info:
                rank_variants(inst, given, variants)
            assert info.value.reason == reason

    def test_csv_format(self):
        inst = basis_instance(2)
        ranking = rank_variants(inst, [1.0, 1.0], [parse_variant("cor23:weak"), parse_variant("bessel:1.1")])
        lines = ranking.to_csv().strip().split("\n")
        assert lines[0] == "rank,variant,rhs,rel_slack"
        assert lines[1].startswith("1,")


def orthonormal_instance(seed=83, n=3, dim=6):
    rng = np.random.default_rng(seed)
    fam = orthonormalize(VectorFamily(rng.standard_normal((n, dim))))
    inst = ProblemInstance.from_vectors(rng.standard_normal(dim), fam, field_mode="real")
    return inst, rng.standard_normal(n)


class TestTunedTerms:
    def test_shared_exponent_variants_match_optimize_exponent(self):
        config = GenConfig(master_seed=29, count=12, n_range=(1, 6), d_range=(1, 6))
        pairs = (
            (parse_variant("special:2.12:p=2.0"), "coarse"),
            (parse_variant("cor32:3:p=1.5"), "cor32:3"),
            (parse_variant("bb:4.3:p=3.0"), "bb:4.3"),
        )
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            ranking = rank_variants(inst, coeffs, [variant for variant, _ in pairs])
            tuned = {e.variant: e.rhs for e in ranking.entries}
            for variant, family in pairs:
                assert tuned[variant.name] == optimize_exponent(family, inst, coeffs)[1]

    def test_fourier_terms_keep_their_own_minima(self):
        # bb:4.3 and ortho:4.4 are different formulas of the same exponent,
        # so ranking them together must not let one reuse the other's minimum
        inst, coeffs = orthonormal_instance()
        bb, ortho = parse_variant("bb:4.3:p=2.0"), parse_variant("ortho:4.4:p=2.0")
        alone = {
            v.name: rank_variants(inst, coeffs, [v]).entries[0].rhs for v in (bb, ortho)
        }
        assert alone[bb.name] != alone[ortho.name]
        for order in ([bb, ortho], [ortho, bb]):
            together = {e.variant: e.rhs for e in rank_variants(inst, coeffs, order).entries}
            assert together == alone

    def test_full_catalog_rank_minimizes_each_term_once(self, monkeypatch):
        calls = []
        minimize = tuning._minimize

        def counting(fn, interval):
            calls.append(interval)
            return minimize(fn, interval)

        monkeypatch.setattr(tuning, "_minimize", counting)
        inst, coeffs = orthonormal_instance()
        ranking = rank_variants(inst, coeffs, full_catalog())
        assert len(ranking.entries) == len(full_catalog())
        # the six slot terms; special:2.12 and cor32:3 share ``coarse``
        assert len(calls) == 6

    @pytest.mark.parametrize(
        "names, with_coeffs, reason",
        [
            ("ortho:4.4:p=2.0,lemma21:holder:2.0:max,bb:4.3:p=1.5", True, "orthonormality gate"),
            ("lemma21:holder:2.0:max,bb:4.3:p=1.5", False, "requires coefficients"),
        ],
        ids=["gated", "no-coeffs"],
    )
    def test_rejected_rank_minimizes_nothing(self, names, with_coeffs, reason, monkeypatch):
        # the rows a rank rejects are found before any holder term is minimized
        calls = []
        minimize = tuning._minimize
        monkeypatch.setattr(tuning, "_minimize", lambda fn, interval: calls.append(interval) or minimize(fn, interval))
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=4), 3)
        with pytest.raises(IncompatibleInstanceError) as info:
            rank_variants(inst, coeffs if with_coeffs else None, parse_variant_list(names))
        assert info.value.reason == reason
        assert calls == []

    @pytest.mark.parametrize("optimize_exponents", [True, False], ids=["tuned", "pinned"])
    def test_weighted_bound_is_x_norm_sq_times_its_combination_twin(self, optimize_exponents):
        # each weighted bound is Schwarz against x times a combination bound,
        # bit for bit, whether its holder slots are pinned or tuned
        twins = (("thm31:", "lemma21:"), ("cor32:1", "cor23:weak"), ("cor32:2", "special:2.11"),
                 ("cor32:3:", "special:2.12:"), ("cor32:4", "special:2.13"))
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        weighted = [v.name for v in variants if v.family == "weighted"]
        wide = GenConfig(n_range=(24, 64), d_range=(16, 128), master_seed=901, count=6)
        checked = 0
        for config in (GenConfig(master_seed=42, count=60), wide):
            for index in range(config.count):
                inst, coeffs = generate_instance(config, index)
                ranking = rank_variants(inst, coeffs, variants, optimize_exponents)
                rhs = {e.variant: e.rhs for e in ranking.entries}
                for name in weighted:
                    (prefix, twin), = [(w, c) for w, c in twins if name.startswith(w)]
                    assert rhs[name] == inst.x_norm_sq * rhs[twin + name[len(prefix):]], name
                    checked += 1
        assert checked == 66 * 57

    def test_rank_csv_golden(self):
        # recorded before the tunable terms were shared across variants
        config = GenConfig(master_seed=5, count=1, n_range=(4, 4), d_range=(4, 4))
        inst, coeffs = generate_instance(config, 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        expected = (Path(__file__).parent / "golden" / "rank_seed5_n4.csv").read_text()
        assert rank_variants(inst, coeffs, variants).to_csv() == expected

    def test_tuned_and_pinned_ranks_share_one_plan(self, monkeypatch):
        # equal variant tuples (not the same object) find the plan the first
        # call built; both ranks still match their goldens
        plan_for.cache_clear()
        built = []
        init = Plan.__init__

        def counted(plan, variants):
            built.append(len(variants))
            init(plan, variants)

        monkeypatch.setattr(Plan, "__init__", counted)
        config = GenConfig(master_seed=5, count=1, n_range=(4, 4), d_range=(4, 4))
        inst, coeffs = generate_instance(config, 0)
        golden = Path(__file__).parent / "golden"
        for optimize_exponents, name in ((True, "rank_seed5_n4.csv"), (False, "rank_pinned_seed5_n4.csv")):
            variants = [v for v in full_catalog() if not v.orthonormal_only]
            ranking = rank_variants(inst, coeffs, variants, optimize_exponents)
            assert ranking.to_csv() == (golden / name).read_text()
        assert built == [172]

    def test_pinned_rank_csv_golden(self):
        # recorded before pinned and tuned ranks shared one evaluator
        config = GenConfig(master_seed=5, count=1, n_range=(4, 4), d_range=(4, 4))
        inst, coeffs = generate_instance(config, 0)
        variants = [v for v in full_catalog() if not v.orthonormal_only]
        expected = (Path(__file__).parent / "golden" / "rank_pinned_seed5_n4.csv").read_text()
        assert rank_variants(inst, coeffs, variants, optimize_exponents=False).to_csv() == expected


class TestTunerSelectors:
    """The tuner makes one holder selector per evaluation with ``holder``,
    which fills the frozen selector directly; it must evaluate what the
    dataclass constructor's selectors evaluate."""

    @staticmethod
    def _evaluations(make_holder, family, inst, coeffs):
        """The exponents ``_minimize`` evaluates for one optimize whose
        selectors ``make_holder`` makes, and its result."""
        seen = []
        minimize = tuning._minimize
        with pytest.MonkeyPatch.context() as m:
            m.setattr(tuning, "_minimize", lambda fn, interval: minimize(lambda t: seen.append(t) or fn(t), interval))
            m.setattr(tuning, "holder", make_holder)
            result = optimize_exponent(family, inst, coeffs)
        return seen, result

    @pytest.mark.parametrize("shape, count", [({}, 100), ({"n_range": (24, 64), "d_range": (16, 128)}, 20)], ids=["default", "wide"])
    def test_minimize_evaluates_the_dataclass_selectors_exponents(self, shape, count):
        config = GenConfig(master_seed=61, count=count, **shape)
        for index in range(count):
            for family in PROFILE_FAMILIES:
                fast = self._evaluations(holder, family, *generate_instance(config, index))
                built = self._evaluations(lambda t: Selector("holder", t), family, *generate_instance(config, index))
                assert len(fast[0]) >= 2 * tuning.COARSE_GRID_POINTS
                assert repr(fast) == repr(built), (index, family)


class TestSharedInstanceStatistics:
    """Every call on one instance reads the statistics it built once."""

    def test_tuned_rank_and_five_optimizes_build_the_gram_statistics_once(self, monkeypatch):
        builds = []
        gram_stats = bounds.GramStats
        monkeypatch.setattr(bounds, "GramStats", lambda gram: builds.append(gram) or gram_stats(gram))
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1), 0)
        rank_variants(inst, coeffs, [v for v in full_catalog() if not v.orthonormal_only])
        for family in PROFILE_FAMILIES:
            optimize_exponent(family, inst, coeffs)
        assert len(builds) == 1
        assert EvalContext(inst).fourier_stats is EvalContext(inst, coeffs).fourier_stats

    @pytest.mark.parametrize("shape", [{}, {"n_range": (24, 64), "d_range": (16, 128)}], ids=["default", "wide"])
    @pytest.mark.parametrize("seed", [5, 11, 42])
    def test_reused_instance_gives_the_bits_of_fresh_copies(self, seed, shape):
        # each call on an instance that has served the calls before it
        # returns, by repr, what it returns on a freshly generated copy
        count = 1 if shape else 4
        config = GenConfig(master_seed=seed, count=count, **shape)
        variants = full_catalog()
        ranked = [v for v in variants if not v.orthonormal_only]

        def rank(tuned, inst, coeffs):
            return rank_variants(inst, coeffs, ranked, tuned)

        def evaluate(variant, inst, coeffs):
            try:
                return evaluate_variant(variant, inst, coeffs)
            except IncompatibleInstanceError as exc:
                return exc.reason

        optimizes = [(f, call) for call in (optimize_exponent, profile_exponent) for f in PROFILE_FAMILIES]
        calls = optimizes + [(True, rank), (False, rank)] + optimizes + [(v, evaluate) for v in variants]
        for index in range(count):
            inst, coeffs = generate_instance(config, index)
            for arg, call in calls:
                fresh = call(arg, *generate_instance(config, index))
                assert repr(call(arg, inst, coeffs)) == repr(fresh), (index, arg)
            assert EvalContext(inst).gram_stats is inst.gram_stats

    def test_coefficient_statistics_stay_per_call(self):
        # the caller may change its coefficient array between two calls on one instance
        config = GenConfig(master_seed=11, count=1)
        ranked = [v for v in full_catalog() if not v.orthonormal_only]
        inst, coeffs = generate_instance(config, 0)
        for family in PROFILE_FAMILIES:
            optimize_exponent(family, inst, coeffs)
        rank_variants(inst, coeffs, ranked)
        coeffs[0] *= 3.0
        fresh, fresh_coeffs = generate_instance(config, 0)
        fresh_coeffs[0] *= 3.0
        assert repr(rank_variants(inst, coeffs, ranked)) == repr(rank_variants(fresh, fresh_coeffs, ranked))
        for family in PROFILE_FAMILIES:
            fresh = generate_instance(config, 0)[0]
            assert repr(optimize_exponent(family, inst, coeffs)) == repr(optimize_exponent(family, fresh, fresh_coeffs))
