"""Closed-form upper bounds on inner-product expressions.

Three families, distinguished by what they cap:

* combination bounds: ``|sum_i a_i z_i|^2``   (the 3x3 selector grid, its
  sharp/weak pair, the coarser grid, and three named specials);
* weighted bounds:    ``|sum_i c_i (x, y_i)|^2``  (Schwarz against x, then a
  combination bound on ``|sum conj(c_i) y_i|^2``);
* Fourier bounds:     ``sum_i |(x, y_i)|^2``  (the weighted bounds at
  ``c_i = conj((x, y_i))``, including the classical Bessel and Boas-Bellman
  forms and their orthonormal specializations).

All formulas consume only coefficient magnitudes, the Gram diagonal, and the
off-diagonal magnitudes.  Off-diagonal sums run over ordered pairs i != j,
so each unordered pair contributes twice.  Power sums factor out the largest
term before exponentiation, which keeps exponents up to the domain cap of 64
(and their conjugates near 1) inside double-precision range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .space import (
    GramMatrix,
    ProblemInstance,
    ValidationError,
    VectorFamily,
    combination_norm_sq,
    gram_of_family,
)
from .variants import MAX, SUM, Selector, Variant, conjugate_exponent, holder

__all__ = [
    "ORTHONORMAL_GATE_TOL",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "BoundEvaluation",
    "IncompatibleInstanceError",
    "CoeffStats",
    "GramStats",
    "EvalContext",
    "diag_term",
    "offdiag_term",
    "lemma21_bound",
    "cor23_bounds",
    "coarse_bound",
    "weighted_sum_bound",
    "fourier_bound",
    "remark4_quantities",
    "evaluate_variant",
]

# Entrywise distance from the identity below which a family counts as
# orthonormal for the orthonormal-only bounds.
ORTHONORMAL_GATE_TOL = 1e-9


@dataclass(frozen=True)
class TolerancePolicy:
    """Slack tolerance for declaring an inequality instance satisfied.

    Every bound here is an exact theorem; the tolerance only absorbs
    floating-point rounding.  ``holds`` iff
    ``rhs - lhs >= -(tol_abs + tol_rel * max(lhs, rhs))``.
    """

    tol_abs: float = 1e-12
    tol_rel: float = 1e-9

    def margin(self, lhs: float, rhs: float) -> float:
        return self.tol_abs + self.tol_rel * max(lhs, rhs)

    def holds(self, lhs: float, rhs: float) -> bool:
        return rhs - lhs >= -self.margin(lhs, rhs)


DEFAULT_POLICY = TolerancePolicy()


class BoundEvaluation(NamedTuple):
    variant: Variant
    lhs: float
    rhs: float
    slack: float
    holds: bool


def _evaluation(variant: Variant, lhs: float, rhs: float, policy: TolerancePolicy) -> BoundEvaluation:
    return BoundEvaluation(variant, lhs, rhs, rhs - lhs, policy.holds(lhs, rhs))


class IncompatibleInstanceError(ValueError):
    """The variant is valid but cannot be checked on this instance."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _PowerStats:
    """Memoized scaled power sums of a fixed float64 array of nonnegative values.

    ``values``, ``maximum`` and ``total`` are Python floats; ``total`` is the
    sequential sum in input order.  The array work is exact: sorting, and one
    IEEE division per element.  The power sums stay scalar Python loops on
    purpose: ``np.power`` differs from ``r**p`` in the last bit in about 5% of
    entries, at every exponent tried (2.0 included), so a vectorised sum would
    change the reported numbers.
    """

    __slots__ = ("values", "maximum", "second", "total", "_scaled", "_memo", "_bracket_memo")

    def __init__(self, values: np.ndarray):
        self.values = values.tolist()
        self.total = sum(self.values, 0.0)
        desc = np.sort(values)[::-1]
        self.maximum = float(desc[0]) if desc.size else 0.0
        self.second = float(desc[1]) if desc.size >= 2 else 0.0
        m = self.maximum
        # descending, so the leading term of every scaled power sum is 1
        self._scaled = (desc / m).tolist() if m > 0.0 else []
        self._memo: dict[float, float] = {}
        self._bracket_memo: dict[float, float] = {}

    def scaled_pow_sum(self, p: float) -> float:
        """sum (v / max)^p; every term is in [0, 1]."""
        s = self._memo.get(p)
        if s is None:
            s = 0.0
            for r in self._scaled:
                s += r**p
            self._memo[p] = s
        return s

    def pair_bracket_scaled(self, p: float) -> float:
        """(sum (v/max)^p)^2 - sum (v/max)^(2p), i.e. the ordered-pair double
        sum of (v_i v_j / max^2)^p, with the leading 1s of both power sums
        cancelled symbolically: writing s1 = 1 + r gives 2r + r^2 - r2, which
        cannot lose the pair information to rounding at large p.
        """
        s = self._bracket_memo.get(p)
        if s is None:
            r = 0.0
            r2 = 0.0
            for u in self._scaled[1:]:
                up = u**p
                r += up
                r2 += up * up
            s = max(2.0 * r + r * r - r2, 0.0)
            self._bracket_memo[p] = s
        return s

    def p_norm(self, p: float) -> float:
        """(sum v^p)^(1/p), computed with the maximum factored out."""
        if self.maximum == 0.0:
            return 0.0
        return self.maximum * self.scaled_pow_sum(p) ** (1.0 / p)


class CoeffStats:
    """Magnitude summaries of one coefficient vector, shared across bounds."""

    __slots__ = ("n", "_pow", "sum_a2", "max_a", "max_a2", "top2_prod", "sum_bracket")

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128)
        a = np.hypot(c.real, c.imag)
        self.n = a.shape[0]
        self._pow = _PowerStats(a)
        self.sum_a2 = sum((a * a).tolist(), 0.0)
        self.max_a = self._pow.maximum
        self.max_a2 = self.max_a * self.max_a
        self.top2_prod = self.max_a * self._pow.second if self.n >= 2 else 0.0
        # (sum a)^2 - sum a^2, the ordered pair sum of a_i a_j
        self.sum_bracket = self.holder_bracket_root(1.0)

    def norm_a2(self, p: float) -> float:
        """(sum a^(2p))^(1/p), the p-norm of the squared magnitudes."""
        if self.max_a == 0.0:
            return 0.0
        return self.max_a2 * self._pow.scaled_pow_sum(2.0 * p) ** (1.0 / p)

    def holder_bracket_root(self, g: float) -> float:
        """[(sum a^g)^2 - sum a^(2g)]^(1/g), the ordered pair sum in closed form.

        Floored at 2^(1/g) times the largest pair product (the two ordered
        copies of the dominant pair), which is also the exact g -> infinity
        limit, so extreme exponents cannot underflow the term to zero.
        """
        if self.n < 2 or self.max_a == 0.0:
            return 0.0
        root = self.max_a2 * self._pow.pair_bracket_scaled(g) ** (1.0 / g)
        return max(root, self.top2_prod * 2.0 ** (1.0 / g))


@lru_cache(maxsize=128)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class GramStats:
    """Diagonal and ordered off-diagonal summaries of one Gram matrix.

    The entries are read as whole arrays: the real diagonal, and the
    magnitudes of the strict upper triangle in row-major order, taken with
    ``np.hypot``, which matches Python's ``abs(complex)`` bit for bit
    (``np.abs`` on complex arrays does not everywhere).  Power sums over them
    stay scalar; see ``_PowerStats``.
    """

    __slots__ = ("n", "_diag", "_off", "sum_diag", "max_diag", "sum_off", "max_off")

    def __init__(self, gram):
        e = gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.complex128)
        n = e.shape[0]
        self.n = n
        u = e[_upper_pairs(n)]
        self._diag = _PowerStats(e.diagonal().real)
        self._off = _PowerStats(np.hypot(u.real, u.imag))
        self.sum_diag = self._diag.total
        self.max_diag = self._diag.maximum
        self.sum_off = 2.0 * self._off.total     # ordered pairs
        self.max_off = self._off.maximum

    def norm_diag(self, q: float) -> float:
        return self._diag.p_norm(q)

    def norm_off(self, q: float) -> float:
        """(sum over ordered pairs of |entry|^q)^(1/q)."""
        if self.max_off == 0.0:
            return 0.0
        return self.max_off * (2.0 * self._off.scaled_pow_sum(q)) ** (1.0 / q)

    def orthonormal_within(self, tol: float = ORTHONORMAL_GATE_TOL) -> bool:
        if self.max_off > tol:
            return False
        return all(abs(d - 1.0) <= tol for d in self._diag.values)


# ---------------------------------------------------------------------------
# Term formulas
# ---------------------------------------------------------------------------


def _diag_value(cs: CoeffStats, gs: GramStats, sel: Selector) -> float:
    if sel.kind == "max":
        return cs.max_a2 * gs.sum_diag
    if sel.kind == "sum":
        return cs.sum_a2 * gs.max_diag
    return cs.norm_a2(sel.exponent) * gs.norm_diag(sel.conjugate)


def _offdiag_value(cs: CoeffStats, gs: GramStats, sel: Selector) -> float:
    if gs.n <= 1 or gs.max_off == 0.0:
        return 0.0
    if sel.kind == "max":
        return cs.top2_prod * gs.sum_off
    if sel.kind == "sum":
        return cs.sum_bracket * gs.max_off
    return cs.holder_bracket_root(sel.exponent) * gs.norm_off(sel.conjugate)


def _coarse_offdiag_value(cs: CoeffStats, gs: GramStats, sel: Selector) -> float:
    if gs.n <= 1 or gs.max_off == 0.0:
        return 0.0
    if sel.kind == "max":
        return cs.max_a2 * gs.sum_off
    if sel.kind == "sum":
        return (gs.n - 1) * cs.sum_a2 * gs.max_off
    g = sel.exponent
    return (gs.n - 1) ** (1.0 / g) * cs.norm_a2(g) * gs.norm_off(sel.conjugate)


def _cor23_sharp_rhs(cs: CoeffStats, gs: GramStats) -> float:
    if cs.sum_a2 == 0.0:
        return 0.0
    # sqrt((sum a^2)^2 - sum a^4) is the pair bracket root at exponent 2;
    # its coefficient is at most 1, so clamp rounding to keep sharp <= weak.
    ratio = min(cs.holder_bracket_root(2.0) / cs.sum_a2, 1.0)
    return cs.sum_a2 * (gs.max_diag + ratio * gs.norm_off(2.0))


def _cor23_weak_rhs(cs: CoeffStats, gs: GramStats) -> float:
    if cs.sum_a2 == 0.0:
        return 0.0
    return cs.sum_a2 * (gs.max_diag + gs.norm_off(2.0))


def _special_rhs(cs: CoeffStats, gs: GramStats, which: str, p: float | None = None) -> float:
    if which == "special_211":
        return _diag_value(cs, gs, MAX) + _coarse_offdiag_value(cs, gs, MAX)
    if which == "special_213":
        return _diag_value(cs, gs, SUM) + _coarse_offdiag_value(cs, gs, SUM)
    sel = holder(p)
    return _diag_value(cs, gs, sel) + _coarse_offdiag_value(cs, gs, sel)


def _cor32_rhs_factor(cs: CoeffStats, gs: GramStats, branch: int, p: float | None) -> float:
    """The combination-bound factor multiplying |x|^2 in each cor32 branch."""
    if branch == 1:
        return _cor23_weak_rhs(cs, gs)
    if branch == 2:
        return _special_rhs(cs, gs, "special_211")
    if branch == 3:
        return _special_rhs(cs, gs, "special_212", p)
    return _special_rhs(cs, gs, "special_213")


def _fourier_rhs(variant: Variant, fs: CoeffStats, gs: GramStats, x_norm_sq: float) -> float:
    """rhs of a Fourier-coefficient bound; ``fs`` summarizes |(x, y_i)|."""
    k = variant.kind
    n = gs.n
    if k == "bessel_11":
        return x_norm_sq
    if k == "bb_12":
        return x_norm_sq * (gs.max_diag + gs.norm_off(2.0))
    if k == "bb_45":
        tail = (n - 1) * gs.max_off if n >= 2 else 0.0
        return x_norm_sq * (gs.max_diag + tail)
    x_norm = math.sqrt(x_norm_sq)
    if k == "bb_41":
        return x_norm * fs.max_a * math.sqrt(gs.sum_diag + gs.sum_off)
    if k == "ortho_42":
        return math.sqrt(n) * x_norm * fs.max_a
    p = variant.p
    q = conjugate_exponent(p)
    # (sum |f|^(2p))^(1/(2p))
    f_root = math.sqrt(fs.norm_a2(p))
    if k == "ortho_44":
        return float(n) ** (1.0 / q) * x_norm * f_root
    # bb_43
    tail = (n - 1) ** (1.0 / p) * gs.norm_off(q) if n >= 2 else 0.0
    return x_norm * f_root * math.sqrt(gs.norm_diag(q) + tail)


# ---------------------------------------------------------------------------
# Public operations on (coeffs, gram)
# ---------------------------------------------------------------------------


def _combination_inputs(coeffs, family_or_gram) -> tuple[CoeffStats, GramStats, float]:
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1:
        raise ValidationError("coefficients must form a one-dimensional vector")
    if isinstance(family_or_gram, VectorFamily):
        gram = gram_of_family(family_or_gram)
    elif isinstance(family_or_gram, GramMatrix):
        gram = family_or_gram
    else:
        gram = GramMatrix(np.asarray(family_or_gram))
    if gram.n != c.shape[0]:
        raise ValidationError(f"{c.shape[0]} coefficients for {gram.n} vectors")
    lhs = combination_norm_sq(c, family_or_gram)
    return CoeffStats(c), GramStats(gram), lhs


def diag_term(sel: Selector, coeffs, gram) -> float:
    """Upper bound for ``sum |a_i|^2 |z_i|^2`` under the selected branch.

    Branches: ``max`` gives ``max|a|^2 * sum |z|^2``; ``holder`` gives
    ``(sum |a|^(2p))^(1/p) (sum |z|^(2q))^(1/q)``; ``sum`` gives
    ``sum|a|^2 * max |z|^2``.  Squared norms are read off the Gram diagonal.
    """
    cs, gs, _ = _combination_inputs(coeffs, gram)
    return _diag_value(cs, gs, sel)


def offdiag_term(sel: Selector, coeffs, gram) -> float:
    """Upper bound for the ordered cross-term sum ``sum_{i != j} |a_i a_j (z_i, z_j)|``.

    The holder branch uses the closed form
    ``[(sum |a|^g)^2 - sum |a|^(2g)]^(1/g) * (sum_{i != j} |(z_i,z_j)|^d)^(1/d)``.
    Zero when n <= 1 or all off-diagonal entries vanish.
    """
    cs, gs, _ = _combination_inputs(coeffs, gram)
    return _offdiag_value(cs, gs, sel)


def lemma21_bound(
    dsel: Selector,
    osel: Selector,
    coeffs,
    family_or_gram,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """The base combination bound: diagonal term plus off-diagonal term."""
    cs, gs, lhs = _combination_inputs(coeffs, family_or_gram)
    rhs = _diag_value(cs, gs, dsel) + _offdiag_value(cs, gs, osel)
    return _evaluation(Variant.lemma21(dsel, osel), lhs, rhs, policy)


def cor23_bounds(
    coeffs, family_or_gram, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[BoundEvaluation, BoundEvaluation]:
    """The sharp/weak pair built from the sum-diagonal and 2-exponent branches.

    sharp: ``sum|a|^2 * (max|z|^2 + sqrt((sum|a|^2)^2 - sum|a|^4)/sum|a|^2 * R)``
    weak:  ``sum|a|^2 * (max|z|^2 + R)``, with ``R`` the ordered 2-norm of the
    off-diagonal entries.  sharp.rhs <= weak.rhs always; both are 0 for
    all-zero coefficients.
    """
    cs, gs, lhs = _combination_inputs(coeffs, family_or_gram)
    sharp = _evaluation(Variant.cor23_sharp(), lhs, _cor23_sharp_rhs(cs, gs), policy)
    weak = _evaluation(Variant.cor23_weak(), lhs, _cor23_weak_rhs(cs, gs), policy)
    return sharp, weak


def coarse_bound(
    dsel: Selector,
    osel: Selector,
    coeffs,
    family_or_gram,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """Coarser combination bound: coefficient cross-factors replaced by
    (n-1)-weighted diagonal power sums.  Dominates the base bound with the
    same selectors on every instance.
    """
    cs, gs, lhs = _combination_inputs(coeffs, family_or_gram)
    rhs = _diag_value(cs, gs, dsel) + _coarse_offdiag_value(cs, gs, osel)
    return _evaluation(Variant.coarse(dsel, osel), lhs, rhs, policy)


def special_bound(
    variant: Variant, coeffs, family_or_gram, policy: TolerancePolicy = DEFAULT_POLICY
) -> BoundEvaluation:
    """One of the three aligned coarse bounds (max/max, holder p both slots, sum/sum)."""
    if variant.kind not in ("special_211", "special_212", "special_213"):
        raise ValidationError(f"not a special variant: {variant.name}")
    cs, gs, lhs = _combination_inputs(coeffs, family_or_gram)
    rhs = _special_rhs(cs, gs, variant.kind, variant.p)
    return _evaluation(variant, lhs, rhs, policy)


# ---------------------------------------------------------------------------
# Operations on problem instances
# ---------------------------------------------------------------------------


class EvalContext:
    """Per-instance cache shared by all variant evaluations.

    Builds coefficient, Fourier-coefficient, and Gram summaries lazily, so a
    sweep over the whole catalog pays for each power sum once.
    """

    __slots__ = ("inst", "coeffs", "_cache")

    def __init__(self, inst: ProblemInstance, coeffs=None):
        self.inst = inst
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=np.complex128)
            if coeffs.shape != (inst.n,):
                raise ValidationError(
                    f"coefficient vector of length {coeffs.shape} for n={inst.n}"
                )
        self.coeffs = coeffs
        self._cache: dict[str, object] = {}

    def _get(self, key: str, build):
        val = self._cache.get(key)
        if val is None:
            val = build()
            self._cache[key] = val
        return val

    @property
    def gram_stats(self) -> GramStats:
        return self._get("gram", lambda: GramStats(self.inst.family_gram))

    @property
    def coeff_stats(self) -> CoeffStats:
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        return self._get("coeff", lambda: CoeffStats(self.coeffs))

    @property
    def fourier_stats(self) -> CoeffStats:
        return self._get("fourier", lambda: CoeffStats(self.inst.fourier))

    @property
    def x_norm_sq(self) -> float:
        return self.inst.x_norm_sq

    @property
    def is_orthonormal(self) -> bool:
        return self._get("ortho", lambda: self.gram_stats.orthonormal_within())

    @property
    def lhs_combination(self) -> float:
        def build():
            target = self.inst.family if self.inst.family is not None else self.inst.family_gram
            return combination_norm_sq(self.coeffs, target)

        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        return self._get("lhs_comb", build)

    @property
    def lhs_weighted(self) -> float:
        def build():
            total = complex(np.dot(self.coeffs, self.inst.fourier))
            return abs(total) ** 2

        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        return self._get("lhs_weighted", build)

    @property
    def lhs_fourier(self) -> float:
        return self.fourier_stats.sum_a2


def _eval_on_context(variant: Variant, ctx: EvalContext) -> tuple[float, float]:
    """(lhs, rhs) for a variant; raises IncompatibleInstanceError on gating."""
    k = variant.kind
    fam = variant.family
    if fam == "combination":
        cs, gs = ctx.coeff_stats, ctx.gram_stats
        lhs = ctx.lhs_combination
        if k == "lemma21":
            rhs = _diag_value(cs, gs, variant.diag) + _offdiag_value(cs, gs, variant.offdiag)
        elif k == "coarse":
            rhs = _diag_value(cs, gs, variant.diag) + _coarse_offdiag_value(cs, gs, variant.offdiag)
        elif k == "cor23_sharp":
            rhs = _cor23_sharp_rhs(cs, gs)
        elif k == "cor23_weak":
            rhs = _cor23_weak_rhs(cs, gs)
        else:
            rhs = _special_rhs(cs, gs, k, variant.p)
        return lhs, rhs
    if fam == "weighted":
        cs, gs = ctx.coeff_stats, ctx.gram_stats
        lhs = ctx.lhs_weighted
        if k == "thm31":
            factor = _diag_value(cs, gs, variant.diag) + _offdiag_value(cs, gs, variant.offdiag)
        else:
            factor = _cor32_rhs_factor(cs, gs, variant.branch, variant.p)
        return lhs, ctx.x_norm_sq * factor
    # Fourier family
    if variant.orthonormal_only and not ctx.is_orthonormal:
        raise IncompatibleInstanceError("orthonormality gate")
    return ctx.lhs_fourier, _fourier_rhs(variant, ctx.fourier_stats, ctx.gram_stats, ctx.x_norm_sq)


def evaluate_variant(
    variant: Variant,
    inst: ProblemInstance,
    coeffs=None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """Evaluate any catalog variant on an instance.

    Combination and weighted variants need ``coeffs``; Fourier variants
    derive their coefficients internally as ``conj((x, y_i))``.  Raises
    :class:`IncompatibleInstanceError` when coefficients are missing or an
    orthonormal-only variant meets a non-orthonormal family.
    """
    ctx = EvalContext(inst, coeffs)
    lhs, rhs = _eval_on_context(variant, ctx)
    return _evaluation(variant, lhs, rhs, policy)


def weighted_sum_bound(
    variant: Variant,
    coeffs,
    inst: ProblemInstance,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """Bound ``|sum_i c_i (x, y_i)|^2`` by ``|x|^2`` times a combination bound."""
    if variant.family != "weighted":
        raise ValidationError(f"not a weighted-sum variant: {variant.name}")
    return evaluate_variant(variant, inst, coeffs, policy)


def fourier_bound(
    variant: Variant, inst: ProblemInstance, policy: TolerancePolicy = DEFAULT_POLICY
) -> BoundEvaluation:
    """Bound ``sum_i |(x, y_i)|^2`` by the selected Fourier-coefficient bound."""
    if variant.family != "fourier":
        raise ValidationError(f"not a Fourier variant: {variant.name}")
    return evaluate_variant(variant, inst, None, policy)


def remark4_quantities(family_or_gram) -> tuple[float, float]:
    """The two competing off-diagonal weights: the ordered 2-norm A and
    ``(n - 1) * max`` B.  Their ordering depends on the family, so neither of
    the bounds they complete dominates the other.  Requires n >= 2.
    """
    if isinstance(family_or_gram, VectorFamily):
        gram = gram_of_family(family_or_gram)
    elif isinstance(family_or_gram, GramMatrix):
        gram = family_or_gram
    else:
        gram = GramMatrix(np.asarray(family_or_gram))
    if gram.n < 2:
        raise ValidationError(f"need at least 2 vectors, got {gram.n}")
    gs = GramStats(gram)
    return gs.norm_off(2.0), (gs.n - 1) * gs.max_off
