"""Bound formulas: frozen examples, brute-force oracles, and invariants.

The brute-force oracles below evaluate every term as an explicit loop over
ordered pairs, with none of the closed forms or factored power sums the
production code uses, so the two routes stay independent.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbbounds import (
    IncompatibleInstanceError,
    MAX,
    SUM,
    ProblemInstance,
    TolerancePolicy,
    ValidationError,
    Variant,
    VectorFamily,
    combination_norm_sq,
    evaluate_variant,
    full_catalog,
    generate_instance,
    GenConfig,
    gram_of_family,
    holder,
    orthonormalize,
    parse_variant,
    remark4_quantities,
)
from bbbounds.bounds import (
    _KERNEL_ROW,
    DEFAULT_POLICY,
    ORTHONORMAL_GATE_TOL,
    CoeffStats,
    EvalBlock,
    EvalContext,
    GramStats,
    Plan,
    _Arrays,
    _Block,
    _PowerStats,
    _sequential_sum,
    plan_for,
)
from bbbounds.space import load_instance
from bbbounds.tuning import _DEFAULT_GRID, EXPONENT_MIN
from bbbounds.variants import _TERMS, DEFAULT_EXPONENTS, conjugate_exponent

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]

ORTHO_PAIR = VectorFamily.from_rows([E1, E2])
DUP_PAIR = VectorFamily.from_rows([E1, E1])
HALF_GRAM = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
C12 = [1.0, 2.0]
COR23 = (parse_variant("cor23:sharp"), parse_variant("cor23:weak"))
# Lemma 2.1's two terms, each read as term(EvalContext(gram, coeffs), selector)
DIAG, OFFDIAG = _TERMS["lemma21:diag"], _TERMS["lemma21:offdiag"]

SQRT2 = math.sqrt(2.0)
SQRT34 = math.sqrt(34.0)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def brute_diag(sel, coeffs, gram_entries):
    a = [abs(c) for c in coeffs]
    d = [gram_entries[i][i].real for i in range(len(a))]
    if not a:
        return 0.0
    if sel.kind == "max":
        return max(v * v for v in a) * sum(d)
    if sel.kind == "sum":
        return sum(v * v for v in a) * max(d)
    p, q = sel.exponent, sel.conjugate
    return sum(v ** (2 * p) for v in a) ** (1 / p) * sum(v**q for v in d) ** (1 / q)


def brute_offdiag(sel, coeffs, gram_entries):
    a = [abs(c) for c in coeffs]
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not pairs:
        return 0.0
    off = [abs(gram_entries[i][j]) for i, j in pairs]
    if sel.kind == "max":
        return max(a[i] * a[j] for i, j in pairs) * sum(off)
    if sel.kind == "sum":
        return sum(a[i] * a[j] for i, j in pairs) * max(off)
    g, dd = sel.exponent, sel.conjugate
    # double sum, not the closed form
    coeff_part = sum(a[i] ** g * a[j] ** g for i, j in pairs) ** (1 / g)
    return coeff_part * sum(o**dd for o in off) ** (1 / dd)


def brute_coarse_offdiag(sel, coeffs, gram_entries):
    a = [abs(c) for c in coeffs]
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not pairs:
        return 0.0
    off = [abs(gram_entries[i][j]) for i, j in pairs]
    if sel.kind == "max":
        return max(v * v for v in a) * sum(off)
    if sel.kind == "sum":
        return (n - 1) * sum(v * v for v in a) * max(off)
    g, dd = sel.exponent, sel.conjugate
    return (n - 1) ** (1 / g) * sum(v ** (2 * g) for v in a) ** (1 / g) * sum(
        o**dd for o in off
    ) ** (1 / dd)


def bounded_coeffs(rng, n, ratio=10.0):
    """Coefficients whose max/min modulus ratio stays at most ``ratio``."""
    mags = rng.uniform(1.0, ratio, n)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return mags * phases


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


class TestDiagTerm:
    def test_max_branch(self):
        assert DIAG(EvalContext(gram_of_family(ORTHO_PAIR), C12), MAX) == pytest.approx(8.0)

    def test_holder_branch(self):
        got = DIAG(EvalContext(gram_of_family(ORTHO_PAIR), C12), holder(2))
        assert got == pytest.approx(SQRT34 * SQRT2 / SQRT2)  # sqrt(17)*sqrt(2)
        assert got == pytest.approx(5.8309518948453, abs=1e-12)

    def test_sum_branch(self):
        assert DIAG(EvalContext(gram_of_family(ORTHO_PAIR), C12), SUM) == pytest.approx(5.0)

    def test_always_dominates_exact_diagonal_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            fam = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g = gram_of_family(VectorFamily(fam))
            exact = sum(abs(coeffs[i]) ** 2 * g.entries[i, i].real for i in range(n))
            for sel in (MAX, holder(1.5), holder(2), holder(4), SUM):
                assert DIAG(EvalContext(g, coeffs), sel) >= exact * (1 - 1e-12)

    def test_bad_exponent_rejected_before_math(self):
        from bbbounds import VariantError

        with pytest.raises(VariantError):
            holder(0.5)


class TestOffdiagTerm:
    def test_max_branch_ordered_pairs_count_twice(self):
        assert OFFDIAG(EvalContext(HALF_GRAM, C12), MAX) == pytest.approx(2.0)

    def test_holder_branch_closed_form(self):
        assert OFFDIAG(EvalContext(HALF_GRAM, C12), holder(2)) == pytest.approx(2.0)

    def test_sum_branch(self):
        assert OFFDIAG(EvalContext(HALF_GRAM, C12), SUM) == pytest.approx(2.0)

    def test_single_vector_is_zero(self):
        assert OFFDIAG(EvalContext(np.array([[4.0 + 0j]]), [3.0]), MAX) == 0.0

    def test_orthogonal_family_is_zero(self):
        assert OFFDIAG(EvalContext(gram_of_family(ORTHO_PAIR), C12), holder(2)) == 0.0

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            fam = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
            coeffs = bounded_coeffs(rng, n)
            g = gram_of_family(VectorFamily(fam))
            for sel in (MAX, holder(1.25), holder(2), holder(3), SUM):
                got = OFFDIAG(EvalContext(g, coeffs), sel)
                want = brute_offdiag(sel, coeffs, g.entries)
                assert got == pytest.approx(want, rel=1e-12)


class TestLemma21:
    def test_orthonormal_equality_with_sum_diag(self):
        for osel in (MAX, holder(2), SUM):
            ev = evaluate_variant(Variant("lemma21:{diag}:{offdiag}", SUM, osel), ORTHO_PAIR, C12)
            assert ev.lhs == pytest.approx(5.0)
            assert ev.rhs == pytest.approx(5.0)
            assert ev.holds

    def test_duplicate_vector_max_max(self):
        ev = evaluate_variant(Variant("lemma21:{diag}:{offdiag}", MAX, MAX), DUP_PAIR, C12)
        assert (ev.lhs, ev.rhs) == (pytest.approx(9.0), pytest.approx(12.0))

    def test_duplicate_vector_holder_holder(self):
        ev = evaluate_variant(Variant("lemma21:{diag}:{offdiag}", holder(2), holder(2)), DUP_PAIR, C12)
        assert ev.lhs == pytest.approx(9.0)
        assert ev.rhs == pytest.approx(SQRT34 + 4.0)
        assert ev.holds

    def test_variant_identity(self):
        ev = evaluate_variant(Variant("lemma21:{diag}:{offdiag}", holder(2), SUM), DUP_PAIR, C12)
        assert ev.variant.name == "lemma21:holder:2.0:sum"
        assert ev.slack == ev.rhs - ev.lhs


class TestCor23:
    def test_duplicate_vector_sharp_is_tight(self):
        sharp, weak = (evaluate_variant(v, DUP_PAIR, C12) for v in COR23)
        assert sharp.lhs == pytest.approx(9.0)
        assert sharp.rhs == pytest.approx(9.0)
        assert weak.rhs == pytest.approx(5.0 * (1.0 + SQRT2))

    def test_orthonormal_family_collapses(self):
        sharp, weak = (evaluate_variant(v, ORTHO_PAIR, C12) for v in COR23)
        assert sharp.rhs == weak.rhs == pytest.approx(5.0)

    def test_zero_coefficients(self):
        sharp, weak = (evaluate_variant(v, DUP_PAIR, [0.0, 0.0]) for v in COR23)
        assert (sharp.lhs, sharp.rhs, weak.rhs) == (0.0, 0.0, 0.0)
        assert sharp.holds and weak.holds

    def test_sharp_stays_sound_at_extreme_coefficient_ratios(self):
        # the ratio's bracket must not cancel away when one coefficient
        # dominates; the sharp bound would otherwise dip below the lhs
        for ratio in (1e-6, 1e-8, 3e-9, 1e-12):
            coeffs = [1.0, ratio]
            fam = VectorFamily.from_rows([[1.0, 0.0], [0.8, 0.6]])
            sharp, weak = (evaluate_variant(v, fam, coeffs) for v in COR23)
            assert sharp.holds, (ratio, sharp)
            assert sharp.rhs <= weak.rhs
            lhs = combination_norm_sq(coeffs, fam)
            assert sharp.rhs >= lhs * (1 - 1e-12)

    def test_chain_sharp_below_weak(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            fam = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sharp, weak = (evaluate_variant(v, VectorFamily(fam), coeffs) for v in COR23)
            assert sharp.rhs <= weak.rhs + 1e-12
            assert sharp.holds and weak.holds


class TestCoarseAndSpecials:
    def test_special_213(self):
        ev = evaluate_variant(parse_variant("special:2.13"), DUP_PAIR, C12)
        assert (ev.lhs, ev.rhs) == (pytest.approx(9.0), pytest.approx(10.0))

    def test_special_211(self):
        ev = evaluate_variant(parse_variant("special:2.11"), DUP_PAIR, C12)
        assert ev.rhs == pytest.approx(16.0)

    def test_special_212_p2(self):
        ev = evaluate_variant(parse_variant("special:2.12:p=2.0"), DUP_PAIR, C12)
        assert ev.rhs == pytest.approx(2.0 * SQRT34)

    def test_specials_are_aligned_coarse_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            fam = rng.standard_normal((n, 4))
            coeffs = rng.standard_normal(n)
            famv = VectorFamily(fam.astype(complex))
            s211 = evaluate_variant(parse_variant("special:2.11"), famv, coeffs).rhs
            s212 = evaluate_variant(parse_variant("special:2.12:p=1.5"), famv, coeffs).rhs
            s213 = evaluate_variant(parse_variant("special:2.13"), famv, coeffs).rhs
            assert s211 == evaluate_variant(Variant("coarse:{diag}:{offdiag}", MAX, MAX), famv, coeffs).rhs
            assert s212 == evaluate_variant(Variant("coarse:{diag}:{offdiag}", holder(1.5), holder(1.5)), famv, coeffs).rhs
            assert s213 == evaluate_variant(Variant("coarse:{diag}:{offdiag}", SUM, SUM), famv, coeffs).rhs

    def test_coarse_dominates_lemma_pointwise(self):
        rng = np.random.default_rng(37)
        selectors = (MAX, holder(1.25), holder(2), holder(3), SUM)
        for k in range(200):
            n = int(rng.integers(1, 9))
            fam = rng.standard_normal((n, 4)) + (1j if k % 2 else 0) * rng.standard_normal((n, 4))
            coeffs = rng.standard_normal(n) + (1j if k % 2 else 0) * rng.standard_normal(n)
            famv = VectorFamily(fam.astype(complex))
            for dsel in selectors:
                for osel in selectors:
                    fine = evaluate_variant(Variant("lemma21:{diag}:{offdiag}", dsel, osel), famv, coeffs)
                    coarse = evaluate_variant(Variant("coarse:{diag}:{offdiag}", dsel, osel), famv, coeffs)
                    assert coarse.rhs - fine.rhs >= -1e-12
                    assert fine.holds and coarse.holds

    def test_coarse_offdiag_matches_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            fam = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
            coeffs = bounded_coeffs(rng, n)
            g = gram_of_family(VectorFamily(fam))
            for sel in (MAX, holder(1.5), holder(2), SUM):
                got = evaluate_variant(Variant("coarse:{diag}:{offdiag}", sel, sel), g, coeffs).rhs
                want = brute_diag(sel, coeffs, g.entries) + brute_coarse_offdiag(
                    sel, coeffs, g.entries
                )
                assert got == pytest.approx(want, rel=1e-12)


class TestWeightedSum:
    @pytest.fixture
    def basis_instance(self):
        return ProblemInstance.from_vectors([1.0, 0.0], ORTHO_PAIR, field_mode="real")

    def test_thm31_sum_sum(self, basis_instance):
        ev = evaluate_variant(parse_variant("thm31:sum:sum"), basis_instance, [1.0, 1.0])
        assert (ev.lhs, ev.rhs) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_cor32_branch_2(self, basis_instance):
        ev = evaluate_variant(parse_variant("cor32:2"), basis_instance, [1.0, 1.0])
        assert (ev.lhs, ev.rhs) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_zero_coefficients_equality(self, basis_instance):
        ev = evaluate_variant(parse_variant("thm31:max:max"), basis_instance, [0.0, 0.0])
        assert (ev.lhs, ev.rhs) == (0.0, 0.0)
        assert ev.holds

    def test_length_mismatch(self, basis_instance):
        with pytest.raises(ValidationError):
            evaluate_variant(parse_variant("cor32:1"), basis_instance, [1.0])

    def test_thm31_matches_term_oracles(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fam = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            c = bounded_coeffs(rng, n)
            inst = ProblemInstance.from_vectors(x, fam)
            for dsel, osel in ((MAX, SUM), (holder(2), holder(1.5)), (SUM, MAX)):
                ev = evaluate_variant(Variant("thm31:{diag}:{offdiag}", dsel, osel), inst, c)
                g = inst.family_gram.entries
                want = inst.x_norm_sq * (brute_diag(dsel, c, g) + brute_offdiag(osel, c, g))
                assert ev.rhs == pytest.approx(want, rel=1e-12)
                assert ev.lhs == pytest.approx(abs(np.dot(c, inst.fourier)) ** 2, rel=1e-12)
                assert ev.holds


class TestFourier:
    def test_bessel_recovery_on_basis(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], ORTHO_PAIR, field_mode="real")
        ev = evaluate_variant(parse_variant("bb:4.5"), inst)
        assert (ev.lhs, ev.rhs) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_ortho_42(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], ORTHO_PAIR, field_mode="real")
        ev = evaluate_variant(parse_variant("ortho:4.2"), inst)
        assert ev.lhs == pytest.approx(1.0)
        assert ev.rhs == pytest.approx(SQRT2)

    def test_boas_bellman_on_duplicate_family(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], DUP_PAIR, field_mode="real")
        ev = evaluate_variant(parse_variant("bb:1.2"), inst)
        assert ev.lhs == pytest.approx(2.0)
        assert ev.rhs == pytest.approx(1.0 + SQRT2)

    def test_orthonormal_gate(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], DUP_PAIR, field_mode="real")
        for variant in (parse_variant("bessel:1.1"), parse_variant("ortho:4.2"), parse_variant("ortho:4.4:p=2.0")):
            with pytest.raises(IncompatibleInstanceError, match="orthonormality gate"):
                evaluate_variant(variant, inst)

    def test_evaluate_variant_skip_reasons(self):
        inst = ProblemInstance.from_vectors([1.0, 0.0], DUP_PAIR, field_mode="real")
        cases = (("ortho:4.4:p=2.0", C12, "orthonormality gate"), ("ortho:4.2", None, "orthonormality gate"),
                 ("thm31:max:sum", None, "requires coefficients"), ("cor23:weak", None, "requires coefficients"))
        for name, coeffs, reason in cases:
            with pytest.raises(IncompatibleInstanceError) as info:
                evaluate_variant(parse_variant(name), inst, coeffs)
            assert info.value.reason == str(info.value) == reason
        with pytest.raises(IncompatibleInstanceError) as info:
            evaluate_variant(parse_variant("cor23:weak"), DUP_PAIR)
        assert info.value.reason == "requires coefficients"

    def test_variants_that_read_x_need_an_instance(self):
        for name, coeffs in (("thm31:max:max", C12), ("bb:1.2", None)):
            with pytest.raises(ValidationError, match="needs a problem instance"):
                evaluate_variant(parse_variant(name), DUP_PAIR, coeffs)

    def test_mpf_specialization_relations(self):
        # With c_i = conj((x, y_i)), each Fourier bound is the corresponding
        # weighted bound after dividing by sum |c|^2 or taking a square root.
        rng = np.random.default_rng(47)
        for k in range(200):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            complex_field = bool(k % 2)
            x = rng.standard_normal(d) + (1j if complex_field else 0) * rng.standard_normal(d)
            fam = rng.standard_normal((n, d)) + (
                1j if complex_field else 0
            ) * rng.standard_normal((n, d))
            inst = ProblemInstance.from_vectors(x, fam)
            c = np.conj(inst.fourier)
            s = float(np.sum(np.abs(c) ** 2))
            if s == 0.0:
                continue
            b1 = evaluate_variant(parse_variant("cor32:1"), inst, c)
            bb12 = evaluate_variant(parse_variant("bb:1.2"), inst)
            assert b1.rhs == pytest.approx(s * bb12.rhs, rel=1e-10)
            assert b1.lhs == pytest.approx(s * bb12.lhs, rel=1e-10)
            b2 = evaluate_variant(parse_variant("cor32:2"), inst, c)
            bb41 = evaluate_variant(parse_variant("bb:4.1"), inst)
            assert bb41.rhs == pytest.approx(math.sqrt(b2.rhs), rel=1e-10)
            b3 = evaluate_variant(parse_variant("cor32:3:p=2.0"), inst, c)
            bb43 = evaluate_variant(parse_variant("bb:4.3:p=2.0"), inst)
            assert bb43.rhs == pytest.approx(math.sqrt(b3.rhs), rel=1e-10)
            b4 = evaluate_variant(parse_variant("cor32:4"), inst, c)
            bb45 = evaluate_variant(parse_variant("bb:4.5"), inst)
            assert b4.rhs == pytest.approx(s * bb45.rhs, rel=1e-10)

    def test_ortho_bounds_on_orthonormalized_families(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(n, 9))
            raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            fam = orthonormalize(VectorFamily(raw))
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            inst = ProblemInstance.from_vectors(x, fam)
            for variant in (
                parse_variant("bessel:1.1"),
                parse_variant("ortho:4.2"),
                parse_variant("ortho:4.4:p=1.25"),
                parse_variant("ortho:4.4:p=4.0"),
            ):
                assert evaluate_variant(variant, inst).holds


class TestNonFiniteCoefficients:
    def test_rejected_for_every_family(self):
        # a NaN or infinite coefficient is bad input, not a violation: the
        # combination and weighted bounds, and a Fourier bound, which reads
        # none of them, all reject it
        inst = ProblemInstance.from_vectors([1.0, 0.0], ORTHO_PAIR, field_mode="real")
        for name in ("lemma21:max:max", "thm31:max:max", "bb:1.2"):
            for bad in (math.nan, math.inf, complex(1.0, -math.inf)):
                with pytest.raises(ValidationError, match="coeffs contains non-finite entries"):
                    evaluate_variant(parse_variant(name), inst, [bad, 1.0])


class TestContextCoefficients:
    def test_context_holds_its_own_copy(self):
        # zeroing the caller's array after construction changes nothing the
        # context returns, even for sides it has not computed yet
        inst, coeffs = generate_instance(GenConfig(master_seed=42, count=1), 0)
        c = np.array(coeffs)
        ctx = EvalContext(inst, c)
        c[:] = 0
        fresh = EvalContext(inst, coeffs)
        assert ctx.lhs_combination == fresh.lhs_combination > 0.0
        assert ctx.lhs_weighted == fresh.lhs_weighted > 0.0
        assert ctx.coeff_stats.sum_a2 == fresh.coeff_stats.sum_a2 > 0.0


class TestRemark4:
    def test_equal_triple(self):
        a, b = remark4_quantities(gram_of_family(VectorFamily.from_rows([[1.0], [1.0], [1.0]])))
        assert a == pytest.approx(math.sqrt(6.0), abs=1e-15)
        assert b == pytest.approx(2.0, abs=1e-15)
        assert a > b

    def test_half_triple(self):
        a, b = remark4_quantities(VectorFamily.from_rows([[1.0], [0.5], [1.0]]))
        assert a == pytest.approx(math.sqrt(3.0), abs=1e-15)
        assert b == pytest.approx(2.0, abs=1e-15)
        assert b > a

    def test_orthonormal_family_vanishes(self):
        assert remark4_quantities(ORTHO_PAIR) == (0.0, 0.0)

    def test_requires_two_vectors(self):
        with pytest.raises(ValidationError):
            remark4_quantities(VectorFamily.from_rows([[1.0]]))

    def test_instance_reads_its_family(self):
        fam = VectorFamily.from_rows([[1.0], [0.5], [1.0]])
        inst = ProblemInstance.from_vectors([1.0], fam, field_mode="real")
        assert remark4_quantities(inst) == remark4_quantities(fam)

    def test_ordering_invariant_under_scaling(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            fam = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            a0, b0 = remark4_quantities(VectorFamily(fam))
            for s in (1e-3, 7.0, 1e3):
                a1, b1 = remark4_quantities(VectorFamily(s * fam))
                assert np.sign(a1 - b1) == np.sign(a0 - b0)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

positive_lists = st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8)


class TestProofStepIdentity:
    @settings(max_examples=200, deadline=None)
    @given(positive_lists, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_closed_form_equals_double_sum(self, mags, gamma):
        from bbbounds.bounds import CoeffStats

        cs = CoeffStats(mags)
        n = len(mags)
        double = sum(
            mags[i] ** gamma * mags[j] ** gamma for i in range(n) for j in range(n) if i != j
        )
        if gamma == 1.0:
            closed = cs.sum_bracket
        else:
            closed = cs.holder_bracket_root(gamma) ** gamma
        assert abs(closed - double) <= 1e-12 * max(double, 1.0)


class TestCoarseningLemmas:
    @settings(max_examples=200, deadline=None)
    @given(positive_lists)
    def test_cauchy_bunyakovsky_schwarz_square(self, a):
        n = len(a)
        assert sum(a) ** 2 <= n * sum(v * v for v in a) * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(positive_lists, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_power_bracket_versus_n_minus_one(self, a, gamma):
        # fp slack scales with s2: pow(v, g)**2 and pow(v, 2g) round differently
        n = len(a)
        s1 = sum(v**gamma for v in a)
        s2 = sum(v ** (2 * gamma) for v in a)
        assert s1 * s1 - s2 <= (n - 1) * s2 + 1e-12 * max(s2, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(positive_lists)
    def test_sum_bracket_versus_n_minus_one(self, a):
        n = len(a)
        s1, s2 = sum(a), sum(v * v for v in a)
        assert s1 * s1 - s2 <= (n - 1) * s2 + 1e-12 * max(s2, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=8))
    def test_max_pair_product_below_max_square(self, a):
        n = len(a)
        pair_max = max(a[i] * a[j] for i in range(n) for j in range(n) if i != j)
        assert pair_max <= max(v * v for v in a)


class TestScaleCovariance:
    def test_coefficient_and_family_scaling(self):
        rng = np.random.default_rng(61)
        variants = [
            parse_variant("lemma21:max:holder:2.0"),
            parse_variant("lemma21:holder:1.5:sum"),
            parse_variant("coarse:sum:holder:3.0"),
            parse_variant("cor23:sharp"),
            parse_variant("special:2.12:p=2.0"),
        ]
        for _ in range(20):
            n = int(rng.integers(1, 7))
            fam = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            for t, s in ((2.0, 1.0), (1.0, 3.0), (0.25, 8.0)):
                base = ProblemInstance.from_vectors(x, fam)
                scaled = ProblemInstance.from_vectors(x, s * fam)
                for variant in variants:
                    ev0 = evaluate_variant(variant, base, coeffs)
                    ev1 = evaluate_variant(variant, scaled, t * coeffs)
                    factor = t * t * s * s
                    assert ev1.lhs == pytest.approx(factor * ev0.lhs, rel=1e-9)
                    assert ev1.rhs == pytest.approx(factor * ev0.rhs, rel=1e-9)


class TestHolderLimits:
    def test_extreme_exponents_never_collapse_the_cross_term(self):
        # with one dominant coefficient, (sum a^g)^2 - sum a^(2g) suffers
        # total cancellation if evaluated naively; the term must stay at or
        # above its max-selector limit, the dominant pair product
        for ratio in (0.5, 1e-3, 1e-9, 1e-300):
            coeffs = [1.0, ratio]
            for g in (4.0, 16.0, 64.0):
                got = OFFDIAG(EvalContext(HALF_GRAM, coeffs), holder(g))
                floor = ratio * 2.0 ** (1.0 / g) * 0.5  # pair product * norm_off limit
                assert got >= floor * (1 - 1e-12), (ratio, g, got)
                exact_cross = 2 * ratio * 0.5  # ordered double sum
                assert got >= exact_cross * (1 - 1e-12)

    def test_soundness_with_extreme_exponent_variants(self):
        extreme = full_catalog(exponents=(1.0009765625, 64.0))
        config = GenConfig(master_seed=271828, count=150, field_mode="both")
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            # amplify one coefficient so power sums become one-sided
            if inst.n >= 2:
                coeffs = coeffs.copy()
                coeffs[0] *= 1e6
            for variant in extreme:
                try:
                    ev = evaluate_variant(variant, inst, coeffs)
                except IncompatibleInstanceError:
                    continue
                assert ev.holds, (variant.name, index, ev)

    def test_exponent_64_close_to_max_branch(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            fam = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
            coeffs = bounded_coeffs(rng, n, ratio=10.0)
            ctx = EvalContext(gram_of_family(VectorFamily(fam)), coeffs)
            at_max = DIAG(ctx, MAX)
            at_64 = DIAG(ctx, holder(64.0))
            assert abs(at_64 - at_max) <= 0.05 * at_max


class TestSoundnessSweep:
    def test_full_catalog_holds_on_random_instances(self):
        catalog = full_catalog()
        config = GenConfig(master_seed=12345, count=300, field_mode="both")
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            for variant in catalog:
                try:
                    ev = evaluate_variant(variant, inst, coeffs)
                except IncompatibleInstanceError:
                    continue
                assert ev.holds, (variant.name, index, ev)

    def test_strict_policy_still_passes(self):
        # rounding never eats more than a hair of slack
        policy = TolerancePolicy(tol_abs=1e-13, tol_rel=1e-12)
        config = GenConfig(master_seed=999, count=100, field_mode="both")
        for index in range(config.count):
            inst, coeffs = generate_instance(config, index)
            for variant in full_catalog():
                try:
                    ev = evaluate_variant(variant, inst, coeffs, policy)
                except IncompatibleInstanceError:
                    continue
                assert ev.holds, (variant.name, index, ev)


# ---------------------------------------------------------------------------
# Statistics built from whole arrays against the per-entry formulas
# ---------------------------------------------------------------------------


def sequential_sum(values):
    """Left to right from 0.0; the builtin ``sum`` compensates from Python 3.12 on."""
    s = 0.0
    for v in values:
        s += v
    return s


def reference_power_stats(values):
    """The per-entry summaries: Python floats, sorted after scaling."""
    values = [float(v) for v in values]
    m = max(values, default=0.0)
    scaled = sorted((v / m for v in values), reverse=True) if m > 0.0 else []
    return m, scaled


def reference_scaled_pow_sum(scaled, p):
    s = 0.0
    for r in scaled:
        s += r**p
    return s


def reference_pair_bracket(scaled, p):
    r = 0.0
    r2 = 0.0
    for u in scaled[1:]:
        up = u**p
        r += up
        r2 += up * up
    return max(2.0 * r + r * r - r2, 0.0)


def _bits(value) -> str:
    """repr of a float: equal exactly when the bits are (0.0 and -0.0, and NaN, included)."""
    return repr(float(value))


def _descending(values):
    """The maximum, the values in descending order, and those divided by the maximum (none if it is zero)."""
    desc = sorted((float(v) for v in values), reverse=True)
    m = desc[0] if desc else 0.0
    return m, desc, [v / m for v in desc] if m > 0.0 else []


def reference_norm(values, q, factor=1.0):
    """(factor * sum v^q)^(1/q) with the maximum factored out; 0.0 for a zero maximum."""
    m, _, scaled = _descending(values)
    if m == 0.0:
        return 0.0
    return m * (factor * reference_scaled_pow_sum(scaled, q)) ** (1.0 / q)


def reference_norm_a2(a, p):
    """(sum a^(2p))^(1/p) with the maximum factored out; 0.0 for a zero maximum."""
    m, _, scaled = _descending(a)
    if m == 0.0:
        return 0.0
    return m * m * reference_scaled_pow_sum(scaled, 2.0 * p) ** (1.0 / p)


def reference_bracket_root(a, g):
    """The pair bracket root floored at 2^(1/g) times the top pair product;
    0.0 for n < 2 or a zero maximum."""
    m, desc, scaled = _descending(a)
    if len(desc) < 2 or m == 0.0:
        return 0.0
    return max(m * m * reference_pair_bracket(scaled, g) ** (1.0 / g), m * desc[1] * 2.0 ** (1.0 / g))


def reference_gram_norms(entries, q):
    """``norm_diag(q)`` and ``norm_off(q)`` of a Gram matrix, entry by entry."""
    e = np.asarray(entries)
    n = e.shape[0]
    diag = [float(e[i, i].real) for i in range(n)]
    off = [abs(complex(e[i, j])) for i in range(n) for j in range(i + 1, n)]
    return {f"norm_diag({q})": reference_norm(diag, q), f"norm_off({q})": reference_norm(off, q, 2.0)}


def reference_coeff_norms(coeffs, p, prefix=""):
    """``norm_a2(p)`` and ``holder_bracket_root(p)`` of a coefficient vector, entry by entry."""
    a = [abs(complex(c)) for c in coeffs]
    return {
        f"{prefix}norm_a2({p})": reference_norm_a2(a, p),
        f"{prefix}holder_bracket_root({p})": reference_bracket_root(a, p),
    }


REFERENCE_EXPONENTS = (1.0, 1.25, 2.0, 3.0, 64.0)


def assert_power_stats_identical(ps, values, exponents=(1.0, 2.0, 1.25)):
    m, scaled = reference_power_stats(values)
    assert [_bits(v) for v in ps._scaled] == [_bits(v) for v in scaled]
    assert ps.maximum == m and type(ps.maximum) is float
    for p in exponents:
        # a root at exponent 1.0 is the power sum itself (x ** 1.0 is x)
        s = ps.root(p, 1.0)
        b = ps.bracket_root(p, 1.0)
        assert s == reference_scaled_pow_sum(scaled, p)
        assert b == reference_pair_bracket(scaled, p)
        assert type(s) is float and type(b) is float


def assert_gram_stats_identical(gram):
    gs = GramStats(gram)
    e = np.asarray(gram.entries if hasattr(gram, "entries") else gram)
    n = e.shape[0]
    diag = [float(e[i, i].real) for i in range(n)]
    off = [abs(complex(e[i, j])) for i in range(n) for j in range(i + 1, n)]
    assert_power_stats_identical(gs._diag, diag)
    assert_power_stats_identical(gs._off, off)
    assert gs.sum_off == 2.0 * sequential_sum(off) and gs.max_off == max(off, default=0.0)
    assert gs.sum_diag == sequential_sum(diag) and gs.max_diag == max(diag, default=0.0)
    for v in (gs.sum_off, gs.max_off, gs.sum_diag, gs.max_diag):
        assert type(v) is float
    # the Gershgorin radius of G - I, each row summed left to right
    radius = max((sequential_sum([abs(diag[i] - 1.0) if i == j else abs(complex(e[min(i, j), max(i, j)])) for j in range(n)])
                  for i in range(n)), default=0.0)
    assert gs.orthonormal_within() is (not gs.max_off > ORTHONORMAL_GATE_TOL and radius <= ORTHONORMAL_GATE_TOL)
    for q in REFERENCE_EXPONENTS:
        for name, value in reference_gram_norms(e, q).items():
            got = getattr(gs, name.split("(")[0])(q)
            assert type(got) is float and _bits(got) == _bits(value), name


def assert_coeff_stats_identical(coeffs):
    cs = CoeffStats(coeffs)
    a = [abs(complex(c)) for c in coeffs]
    assert_power_stats_identical(cs._pow, a)
    top = sorted(a, reverse=True)
    assert cs.n == len(a)
    assert cs.sum_a2 == sequential_sum([v * v for v in a])
    assert cs.max_a == max(a, default=0.0)
    assert cs.top2_prod == (top[0] * top[1] if len(a) >= 2 else 0.0)
    for v in (cs.sum_a2, cs.max_a, cs.max_a2, cs.top2_prod, cs.sum_bracket):
        assert type(v) is float
    for p in REFERENCE_EXPONENTS:
        for name, value in reference_coeff_norms(coeffs, p).items():
            got = getattr(cs, name.split("(")[0])(p)
            assert type(got) is float and _bits(got) == _bits(value), name


def _python_pow(x: float, p: float) -> float:
    """Python's float power, with inf where it raises OverflowError."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def _mismatches(got: np.ndarray, bases, exponent) -> list:
    """The (base, exponent, got, x**p) where ``got`` differs from Python's
    float power in value or sign, NaN matching NaN."""
    expected = np.array([_python_pow(float(x), exponent) for x in bases])
    same = (got == expected) & (np.signbit(got) == np.signbit(expected)) | np.isnan(got) & np.isnan(expected)
    return [(x, exponent, g, e) for x, g, e in zip(np.asarray(bases)[~same].tolist(), got[~same], expected[~same])]


class TestFloatPowerPremise:
    """Blocks, and one instance's long rows, take Python's float power with
    ``np.float_power``, whose float64 loop calls the C library's ``pow`` on
    each entry as CPython's float ``**`` does.  A numpy build that sent it
    through a SIMD kernel instead (as float64 ``np.power`` is on AVX-512
    machines) would change the last bit of some entries, and fail here."""

    EXPONENTS = sorted({
        *DEFAULT_EXPONENTS,
        *(conjugate_exponent(p) for p in DEFAULT_EXPONENTS),
        *(2.0 * p for p in DEFAULT_EXPONENTS),
        *(1.0 / p for p in DEFAULT_EXPONENTS),
        *(1.0 / conjugate_exponent(p) for p in DEFAULT_EXPONENTS),
        *_DEFAULT_GRID,
        EXPONENT_MIN,
        64.0,
        2.0,
        1.0,
        *np.random.default_rng(20).uniform(EXPONENT_MIN, 64.0, 6).tolist(),
    })

    @staticmethod
    def _values() -> np.ndarray:
        rng = np.random.default_rng(2024)
        tiny = np.finfo(np.float64).tiny
        special = [0.0, -0.0, 1.0, tiny, tiny / 2.0, 5e-324, 1e-300, 1e154, 1.4e154, 1e200, 1e308,
                   np.finfo(np.float64).max, math.inf, math.nan]
        return np.concatenate([
            rng.uniform(0.0, 1.0, 20000),
            10.0 ** rng.uniform(-320.0, 308.0, 4000),         # wide magnitudes, subnormals and overflows
            np.sqrt(np.finfo(np.float64).max) * rng.uniform(0.5, 2.0, 500),  # squares either side of overflow
            special,
        ])

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_float_power_is_pythons_float_power(self, exponent):
        values = self._values()
        with np.errstate(all="ignore"):
            got = np.float_power(values, exponent)
        bad = _mismatches(got, values, exponent)
        assert not bad, (
            f"np.float_power differs from Python's x**p on {len(bad)} of {values.size} values "
            f"(numpy {np.__version__}; a SIMD float_power kernel?), first: {bad[:5]}"
        )

    def test_int_bases(self):
        # the terms take (n - 1)**(1/p) and n**(1/q) of a block's int counts
        counts = np.arange(0, 2100)
        for exponent in self.EXPONENTS:
            got = _Arrays.pow(counts, exponent)
            assert got.dtype == np.float64
            assert got.tolist() == [float(k) ** exponent for k in counts.tolist()], exponent


class TestStatsBitIdentity:
    @pytest.mark.parametrize("length", [_KERNEL_ROW, _KERNEL_ROW + 1, 2016])
    def test_one_instance_rows_either_side_of_the_kernel(self, length):
        # rows up to _KERNEL_ROW values sum in a Python loop, longer ones
        # through np.float_power; both are the reference loop bit for bit
        rng = np.random.default_rng(length)
        values = rng.uniform(0.0, 5.0, length) * 10.0 ** rng.uniform(-8.0, 0.0, length)
        values[rng.integers(length, size=4)] = 0.0
        values[rng.integers(length, size=4)] = values.max()  # a tied maximum
        exponents = (1.0, 1.25, 2.0, EXPONENT_MIN, conjugate_exponent(EXPONENT_MIN), 64.0, *_DEFAULT_GRID)
        assert_power_stats_identical(_PowerStats(values), values, exponents)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 24, 64])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_family_gram_and_coefficients(self, n, complex_field):
        rng = np.random.default_rng(1000 + 2 * n + complex_field)
        d = int(rng.integers(1, 129))
        fam = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, (n, 1))
        coeffs = rng.standard_normal(n)
        if complex_field:
            fam = fam + 1j * rng.standard_normal((n, d))
            coeffs = coeffs + 1j * rng.standard_normal(n)
        gram = gram_of_family(VectorFamily(fam))
        assert_gram_stats_identical(gram)
        assert_gram_stats_identical(gram.entries)
        assert_coeff_stats_identical(np.asarray(coeffs, dtype=np.complex128))
        assert_coeff_stats_identical(list(coeffs))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
    def test_all_zero_gram(self, n):
        assert_gram_stats_identical(np.zeros((n, n), dtype=np.complex128))
        assert_gram_stats_identical(-np.zeros((n, n)))  # a -0.0 diagonal maximum
        assert_coeff_stats_identical(np.zeros(n))

    def test_plain_real_and_integer_arrays(self):
        rng = np.random.default_rng(77)
        for n in (1, 2, 5, 24):
            ints = rng.integers(-9, 10, (n, n))
            np.fill_diagonal(ints, np.abs(ints.diagonal()))  # power sums need it >= 0
            assert_gram_stats_identical(ints)
            assert_gram_stats_identical(ints.astype(np.float64) / 7.0)
            assert_gram_stats_identical(ints.tolist())
            assert_coeff_stats_identical(rng.integers(-9, 10, n).tolist())
            assert_coeff_stats_identical(rng.standard_normal(n).astype(np.float32))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308]),
            max_size=2 * _KERNEL_ROW,
        )
    )
    def test_one_row_sum_is_the_kernel_sum(self, values):
        # one row of up to _KERNEL_ROW values adds in a Python loop, a longer
        # one through np.add.accumulate; either gives the kernel's bits (-0.0
        # rows to 0.0), and a block's rows give the same
        row = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):      # the loop overflows silently, as Python floats do
            kernel = float(np.add.accumulate(row)[-1] + 0.0) if row.size else 0.0
            got, block = _sequential_sum(row), _sequential_sum(np.stack([row, row]))
        assert type(got) is float and _bits(got) == _bits(kernel)
        assert _bits(block[1]) == _bits(kernel)

    def test_totals_add_left_to_right(self):
        # Python 3.12's sum gives 1.0000000000000002 here
        assert GramStats(np.diag([1.0, 1e-16, 1e-16])).sum_diag == 1.0
        assert CoeffStats([1.0, 1e-8, 1e-8]).sum_a2 == 1.0

    def test_orthonormality_gate_reads_the_diagonal_exactly(self):
        tol = ORTHONORMAL_GATE_TOL
        for diag, orthonormal in (
            ([], True), ([1.0, 1.0 - tol / 2], True), ([1.0, 1.0 + 2 * tol], False), ([1.0, math.nan], False),
        ):
            assert GramStats(np.diag(diag)).orthonormal_within() is orthonormal

    def test_orthonormality_gate_bounds_the_gershgorin_radius(self):
        # every entry of these G - I is within ORTHONORMAL_GATE_TOL, but a
        # row sums to (n - 1) e, which bounds lambda_max(G) - 1; a block of
        # both, padded, gives each its own verdict
        tol = ORTHONORMAL_GATE_TOL
        grams = [np.eye(n) + e * (np.ones((n, n)) - np.eye(n)) for n, e in ((3, 0.4 * tol), (3, 0.6 * tol), (2, 0.9 * tol))]
        verdicts = [GramStats(gram).orthonormal_within() for gram in grams]
        assert verdicts == [True, False, True]
        stack = np.zeros((3, 3, 3), dtype=np.complex128)
        for b, gram in enumerate(grams):
            stack[b, : len(gram), : len(gram)] = gram
        assert GramStats(_Block(stack, np.array([3, 3, 2]))).orthonormal_within().tolist() == verdicts

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.floats(0.5, 1.0), st.floats(-3.0, 6.0))
    def test_families_inside_the_gate_hold_the_orthonormal_bounds(self, n, seed, radius, exponent):
        # a real family with Gram I + E, E symmetric with a nonzero diagonal
        # and a Gershgorin radius of 0.5 to 1 times the gate, built by
        # Cholesky; x along the top eigenvector, where sum |(x, y_i)|^2
        # reaches lambda_max(G) |x|^2, the most the gate lets it exceed |x|^2
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n, n))
        e += e.T
        e *= radius * ORTHONORMAL_GATE_TOL / np.abs(e).sum(axis=1).max()
        family = np.linalg.cholesky(np.eye(n) + e)
        x = np.linalg.eigh(family.T @ family)[1][:, -1] * 10.0**exponent
        inst = ProblemInstance.from_vectors(x, family, field_mode="real")
        assume(inst.gram_stats.orthonormal_within())
        variants = tuple(v for v in full_catalog() if v.orthonormal_only)
        for ev in plan_for(variants).check(EvalContext(inst), DEFAULT_POLICY):
            assert ev.holds, ev


def _mixed_block():
    """Contexts of every kind of instance a block may mix: n = 1..8, real and
    complex, all-zero coefficients, a family whose off-diagonal entries all
    vanish, an orthonormal family, an n = 64 family, and the overflowing
    instances of scale 1e150."""
    stream = [generate_instance(GenConfig(master_seed=42, count=40), k) for k in range(40)]
    stream += [generate_instance(GenConfig(master_seed=9, count=4, field_mode=f), k) for f in ("real", "complex") for k in range(2)]
    stream.append((stream[0][0], np.zeros(stream[0][0].n)))
    stream.append((ProblemInstance.from_vectors([1.0, 2.0], [E1, [0.0, 0.0]], field_mode="real"), np.array(C12)))
    stream.append(load_instance(Path(__file__).parent / "golden" / "orthonormal_n4.json"))
    stream.append(generate_instance(GenConfig(n_range=(64, 64), d_range=(16, 128), master_seed=901), 0))
    stream += [generate_instance(GenConfig(master_seed=42, count=6, scale=1e150), k) for k in range(6)]
    return [EvalContext(inst, coeffs) for inst, coeffs in stream]


def block_of(contexts):
    """The ``EvalBlock`` of the contexts' instances, with coefficients, each
    stack and side read from its context."""
    n = np.array([ctx.inst.n for ctx in contexts])
    width = n.max(initial=0)
    bordered = np.zeros((len(n), width + 1, width + 1), dtype=np.complex128)
    coeffs = np.zeros((len(n), width), dtype=np.complex128)
    for b, ctx in enumerate(contexts):
        bordered[b, : n[b] + 1, : n[b] + 1] = ctx.inst.bordered.entries
        coeffs[b, : n[b]] = ctx.coeffs
    sides = {a: np.array([getattr(ctx, a) for ctx in contexts]) for a in ("lhs_combination", "lhs_weighted")}
    return EvalBlock(bordered, n, coeffs, lambda b: (contexts[b].inst, contexts[b].coeffs), **sides)


class TestBlockBitIdentity:
    # each instance of a block gives, statistic by statistic and term by term,
    # the bits of its own one-instance evaluation

    EXPONENTS = (1.0, 1.015625, 1.25, 2.0, 3.0, 64.0, 128.0)

    @staticmethod
    def _summaries(ctx):
        gs, cs, fs = ctx.gram_stats, ctx.coeff_stats, ctx.fourier_stats
        values = {
            "orthonormal": gs.orthonormal_within(),
            **{f"gram.{a}": getattr(gs, a) for a in ("n", "sum_diag", "max_diag", "sum_off", "max_off")},
            **{f"{k}.{a}": getattr(c, a) for k, c in (("coeff", cs), ("fourier", fs))
               for a in ("n", "sum_a2", "max_a", "max_a2", "top2_prod", "sum_bracket")},
            **{a: getattr(ctx, a) for a in ("x_norm_sq", "lhs_combination", "lhs_weighted", "lhs_fourier")},
        }
        for p in TestBlockBitIdentity.EXPONENTS:
            values.update({
                f"norm_diag({p})": gs.norm_diag(p), f"norm_off({p})": gs.norm_off(p),
                **{f"{k}.norm_a2({p})": c.norm_a2(p) for k, c in (("coeff", cs), ("fourier", fs))},
                **{f"{k}.holder_bracket_root({p})": c.holder_bracket_root(p) for k, c in (("coeff", cs), ("fourier", fs))},
            })
        return values

    @pytest.mark.filterwarnings("ignore::RuntimeWarning:bbbounds.space", "ignore::RuntimeWarning:bbbounds.bounds")
    def test_statistics_and_terms_of_a_mixed_block(self):
        contexts = _mixed_block()
        block = block_of(contexts)
        # every (term, selector) a catalog row reads, and the profiled cor32:3
        terms = Plan(full_catalog()).terms + tuple(("cor32:3", holder(p)) for p in (1.25, 3.0))
        expected = [self._summaries(ctx) for ctx in contexts]
        # silently, as Plan.evaluate computes the terms
        with np.errstate(all="ignore"):
            got = self._summaries(block)
            got_terms = [_TERMS[key](block, sel) for key, sel in terms]
        for k, ctx in enumerate(contexts):
            for name, value in expected[k].items():
                assert _bits(got[name][k]) == _bits(value), (k, name)
            # the norms against their per-entry references, not only the one-instance form
            for p in self.EXPONENTS:
                references = {
                    **reference_gram_norms(ctx.inst.family_gram.entries, p),
                    **reference_coeff_norms(ctx.coeffs, p, "coeff."),
                    **reference_coeff_norms(ctx.inst.fourier, p, "fourier."),
                }
                for name, value in references.items():
                    assert _bits(got[name][k]) == _bits(value), (k, name)
            for (key, sel), values in zip(terms, got_terms):
                assert _bits(values[k]) == _bits(_TERMS[key](ctx, sel)), (k, key, sel)
        assert {bool(v) for v in got["orthonormal"]} == {True, False}
        assert not got["gram.max_off"].all() and not got["coeff.max_a"].all()
        assert np.isinf(got["lhs_fourier"]).any() and got["gram.n"].max() == 64

    @pytest.mark.filterwarnings("ignore::RuntimeWarning:bbbounds.space", "ignore::RuntimeWarning:bbbounds.bounds")
    def test_one_instance_skips_are_its_block_row(self):
        # one instance's skips come from the plan's four ``instance_skips``,
        # read-only; they are the rows its block gives, with and without coefficients
        contexts = _mixed_block()
        variants = full_catalog()
        for plan in (Plan(variants), Plan([v for v in variants if not v.orthonormal_only]), Plan(())):
            block = plan.skips(block_of(contexts))
            for k, ctx in enumerate(contexts):
                for bare in (False, True):
                    one = plan.skips(EvalContext(ctx.inst, None if bare else ctx.coeffs))
                    assert one.dtype == block.dtype and not one.flags.writeable
                    expected = block[k] if not bare else np.where(plan.need == 2, 2, block[k])
                    assert one.tolist() == expected.tolist(), (k, bare)


class TestRawGramInput:
    """Raw arrays given in place of a family are checked like Gram files."""

    C = [1.0, 1.0]

    def bound_calls(self, gram):
        c = self.C
        return [
            lambda: DIAG(EvalContext(gram, c), holder(3.0)),
            lambda: OFFDIAG(EvalContext(gram, c), MAX),
            lambda: evaluate_variant(Variant("lemma21:{diag}:{offdiag}", MAX, SUM), gram, c),
            lambda: evaluate_variant(Variant("coarse:{diag}:{offdiag}", holder(2.0), MAX), gram, c),
            lambda: tuple(evaluate_variant(v, gram, c) for v in COR23),
            lambda: evaluate_variant(parse_variant("special:2.13"), gram, c),
            lambda: remark4_quantities(gram),
        ]

    @pytest.mark.parametrize(
        "gram, message",
        [
            ([[4.0, 0.5], [0.5, -1.0]], "negative diagonal"),
            ([[1.0, 0.5], [0.2, 1.0]], "not Hermitian"),
            ([[1.0, 1.0j], [0.0, 1.0]], "not Hermitian"),
            ([[1.0, 5.0], [5.0, 1.0]], "not positive semidefinite"),
        ],
    )
    def test_invalid_raw_gram_rejected(self, gram, message):
        for call in self.bound_calls(gram):
            with pytest.raises(ValidationError, match=message):
                call()

    def test_valid_raw_gram_matches_gram_matrix(self):
        g = gram_of_family(VectorFamily.from_rows([[1.0, 0.5], [0.25, 2.0]]))
        for raw_call, gram_call in zip(self.bound_calls(g.entries.tolist()), self.bound_calls(g)):
            assert raw_call() == gram_call()
