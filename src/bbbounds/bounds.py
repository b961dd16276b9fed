"""Per-instance statistics and the evaluation of catalog bounds.

Three families, distinguished by what they cap:

* combination bounds: ``|sum_i a_i z_i|^2``   (the 3x3 selector grid, its
  sharp/weak pair, the coarser grid, and three named specials);
* weighted bounds:    ``|sum_i c_i (x, y_i)|^2``  (Schwarz against x, then a
  combination bound on ``|sum conj(c_i) y_i|^2``);
* Fourier bounds:     ``sum_i |(x, y_i)|^2``  (the weighted bounds at
  ``c_i = conj((x, y_i))``, including the classical Bessel and Boas-Bellman
  forms and their orthonormal specializations).

The right-hand sides are defined once, in the catalog table of
``variants``; this module builds the statistics their terms read and
evaluates a variant through its table row (``_eval_on_context``).  That is
the one scalar evaluator: every public bound function here is a thin call
into it, and so is each variant ``tuning`` ranks, pinned as named or with
every holder slot's value replaced by the tuned minimum of its term.  A
suite over many instances compiles its variants into a ``Plan`` instead:
one table of rows, which evaluates each distinct (term, selector) pair and
each left-hand side once per instance, sums and scales them for all rows
as arrays, and marks the gated rows unchecked when the family fails the
orthonormality gate.

All formulas consume only coefficient magnitudes, the Gram diagonal, and the
off-diagonal magnitudes.  Off-diagonal sums run over ordered pairs i != j,
so each unordered pair contributes twice.  Power sums factor out the largest
term before exponentiation, which keeps exponents up to the domain cap of 64
(and their conjugates near 1) inside double-precision range.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
from .variants import _TERMS, Selector, Variant, _diag_value, _offdiag_value

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
    "special_bound",
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

    def __post_init__(self) -> None:
        # a NaN margin fails every check and an infinite one passes every
        # check; a finite negative one is allowed, and forces violations
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

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


def _sequential_sum(a: np.ndarray) -> float:
    """``sum(a.tolist(), 0.0)`` as Python 3.11 adds it, left to right (3.12
    compensates, and ``np.sum`` adds pairwise); ``+ 0.0`` maps the -0.0 of an
    all-negative-zero array to the 0.0 that a 0.0 start gives."""
    return float(np.add.accumulate(a)[-1]) + 0.0 if a.size else 0.0


class _PowerStats:
    """Memoized scaled power sums of a fixed float64 array of nonnegative values.

    ``values``, ``maximum`` and ``total`` are Python floats; ``total`` is the
    sequential sum in input order, the same on every Python version.  The
    array work is exact: sorting, and one IEEE division per element.  The
    power sums stay scalar Python loops on purpose: ``np.power`` differs from
    ``r**p`` in the last bit in about 5% of entries, at every exponent tried
    (2.0 included), so a vectorised sum would change the reported numbers.
    """

    __slots__ = ("values", "maximum", "second", "total", "_scaled", "_memo", "_bracket_memo")

    def __init__(self, values: np.ndarray):
        self.values = values.tolist()
        self.total = _sequential_sum(values)
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
        self.sum_a2 = _sequential_sum(a * a)
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

    def orthonormal_within(self) -> bool:
        if self.max_off > ORTHONORMAL_GATE_TOL:
            return False
        return all(abs(d - 1.0) <= ORTHONORMAL_GATE_TOL for d in self._diag.values)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _gram_matrix(family_or_gram) -> GramMatrix:
    """The Gram matrix of a family, or the given one; a raw array must pass
    ``GramMatrix.validate`` (Hermitian, nonnegative diagonal, PSD)."""
    if isinstance(family_or_gram, VectorFamily):
        return gram_of_family(family_or_gram)
    if isinstance(family_or_gram, GramMatrix):
        return family_or_gram
    return GramMatrix(np.asarray(family_or_gram)).validate()


class EvalContext:
    """Per-instance statistics shared by all variant evaluations.

    Each summary is built on first use and kept, so a sweep over the whole
    catalog pays for each power sum once.  ``tuned`` keeps the minimum of
    each exponent term that tuning has minimized on this instance.
    """

    def __init__(self, inst: ProblemInstance | None, coeffs=None):
        self.inst = inst
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=np.complex128)
            if coeffs.shape != (inst.n,):
                raise ValidationError(
                    f"coefficient vector of length {coeffs.shape} for n={inst.n}"
                )
        self.coeffs = coeffs
        self.tuned: dict[str, tuple[float, float, bool]] = {}

    @classmethod
    def of_combination(cls, coeffs, family_or_gram) -> "EvalContext":
        """A context for the combination bounds alone, on coefficients and a
        family or Gram matrix instead of a problem instance."""
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValidationError("coefficients must form a one-dimensional vector")
        gram = _gram_matrix(family_or_gram)
        if gram.n != c.shape[0]:
            raise ValidationError(f"{c.shape[0]} coefficients for {gram.n} vectors")
        ctx = cls(None)
        ctx.coeffs = c
        target = family_or_gram if isinstance(family_or_gram, VectorFamily) else gram
        ctx.lhs_combination = combination_norm_sq(c, target)
        ctx.gram_stats = GramStats(gram)
        return ctx

    @cached_property
    def gram_stats(self) -> GramStats:
        return GramStats(self.inst.family_gram)

    @cached_property
    def coeff_stats(self) -> CoeffStats:
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        return CoeffStats(self.coeffs)

    @cached_property
    def fourier_stats(self) -> CoeffStats:
        return CoeffStats(self.inst.fourier)

    @cached_property
    def x_norm_sq(self) -> float:
        return self.inst.x_norm_sq

    @cached_property
    def is_orthonormal(self) -> bool:
        return self.gram_stats.orthonormal_within()

    @cached_property
    def lhs_combination(self) -> float:
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        target = self.inst.family if self.inst.family is not None else self.inst.family_gram
        return combination_norm_sq(self.coeffs, target)

    @cached_property
    def lhs_weighted(self) -> float:
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        root = abs(complex(np.dot(self.coeffs, self.inst.fourier)))
        try:
            return root**2
        except OverflowError:
            # a float power raises where numpy would give inf
            raise ValidationError(
                f"weighted left-hand side |sum c_i (x, y_i)|^2 overflows: |sum c_i (x, y_i)| = {root!r}"
            ) from None

    @property
    def lhs_fourier(self) -> float:
        return self.fourier_stats.sum_a2


def _lhs(spec, ctx: EvalContext) -> float:
    """The quantity a table row's bound caps; raises IncompatibleInstanceError on gating."""
    if spec.orthonormal_only and not ctx.is_orthonormal:
        raise IncompatibleInstanceError("orthonormality gate")
    return getattr(ctx, "lhs_" + spec.family)


def _eval_on_context(variant: Variant, ctx: EvalContext, tuned=None) -> tuple[float, float]:
    """(lhs, rhs) for a variant; raises IncompatibleInstanceError on gating.

    The right-hand side is the sum of the variant's terms, times ``x_norm_sq``
    for a weighted bound.  ``tuned``, a function of (context, ``_TERMS`` key),
    gives each holder slot's term in place of its value at the slot's exponent.
    """
    lhs = _lhs(variant.spec, ctx)
    values = [
        tuned(ctx, key) if tuned and sel and sel.kind == "holder" else _TERMS[key](ctx, sel)
        for key, sel in variant.terms
    ]
    rhs = values[0] + values[1] if len(values) == 2 else values[0]
    return lhs, rhs * ctx.x_norm_sq if variant.family == "weighted" else rhs


class Plan:
    """A variant tuple compiled for evaluation on many instances.

    The rows are the distinct variants in the caller's order; ``weights``
    counts how often each occurs in the tuple.  The left-hand sides
    (``lhs_*`` attributes of ``EvalContext``) and the distinct (term,
    selector) pairs the rows read are numbered once.  A row is one entry of
    ``lhs_index``, ``two_terms``, ``weighted`` and ``gated`` (its left-hand
    side, whether it adds two terms, whether ``x_norm_sq`` scales it, whether
    it needs an orthonormal family) and a column of ``term_index`` (its first
    and last term).  So ``evaluate`` computes each term and left-hand side
    once per instance, the gated ones on every family (closed forms, which
    neither raise nor warn), then builds every right-hand side with one
    gather, one masked add and one masked multiply.  A plan holds no
    callables, so it pickles as is.
    """

    def __init__(self, variants):
        counts = Counter(variants)
        self.variants = tuple(counts)
        self.names = tuple(v.name for v in self.variants)
        self.weights = np.array(list(counts.values()), dtype=np.int64)
        self.gated = np.array([v.orthonormal_only for v in self.variants], dtype=bool)
        lhs = {a: k for k, a in enumerate(dict.fromkeys("lhs_" + v.family for v in self.variants))}
        terms = {t: k for k, t in enumerate(dict.fromkeys(t for v in self.variants for t in v.terms))}
        self.lhs_attrs, self.terms = tuple(lhs), tuple(terms)
        self.lhs_index = np.array([lhs["lhs_" + v.family] for v in self.variants], dtype=np.intp)
        self.term_index = np.array([[terms[v.terms[k]] for v in self.variants] for k in (0, -1)], dtype=np.intp)
        self.two_terms = np.array([len(v.terms) == 2 for v in self.variants], dtype=bool)
        self.weighted = np.array([v.family == "weighted" for v in self.variants], dtype=bool)

    def evaluate(self, ctx: EvalContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(checked, lhs, rhs)`` for every row: whether the row is checked on
        this instance (a gated one only if its family is orthonormal), and its
        two sides, which mean nothing where it is not.  The context must carry
        coefficients, as every generated instance does."""
        sides = np.array([getattr(ctx, attr) for attr in self.lhs_attrs], dtype=np.float64)
        values = np.array([_TERMS[key](ctx, sel) for key, sel in self.terms], dtype=np.float64)
        rhs, second = values[self.term_index]
        # the scalar evaluator's float arithmetic, which never warns
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(rhs, second, out=rhs, where=self.two_terms)
            np.multiply(rhs, ctx.x_norm_sq, out=rhs, where=self.weighted)
        return ~self.gated | ctx.is_orthonormal, sides[self.lhs_index], rhs


def _evaluate(variant: Variant, ctx: EvalContext, policy: TolerancePolicy) -> BoundEvaluation:
    lhs, rhs = _eval_on_context(variant, ctx)
    return _evaluation(variant, lhs, rhs, policy)


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
    return _evaluate(variant, EvalContext(inst, coeffs), policy)


# ---------------------------------------------------------------------------
# Public operations on (coeffs, family or Gram matrix)
# ---------------------------------------------------------------------------


def diag_term(sel: Selector, coeffs, gram) -> float:
    """Upper bound for ``sum |a_i|^2 |z_i|^2`` under the selected branch.

    Branches: ``max`` gives ``max|a|^2 * sum |z|^2``; ``holder`` gives
    ``(sum |a|^(2p))^(1/p) (sum |z|^(2q))^(1/q)``; ``sum`` gives
    ``sum|a|^2 * max |z|^2``.  Squared norms are read off the Gram diagonal.
    """
    return _diag_value(EvalContext.of_combination(coeffs, gram), sel)


def offdiag_term(sel: Selector, coeffs, gram) -> float:
    """Upper bound for the ordered cross-term sum ``sum_{i != j} |a_i a_j (z_i, z_j)|``.

    The holder branch uses the closed form
    ``[(sum |a|^g)^2 - sum |a|^(2g)]^(1/g) * (sum_{i != j} |(z_i,z_j)|^d)^(1/d)``.
    Zero when n <= 1 or all off-diagonal entries vanish.
    """
    return _offdiag_value(EvalContext.of_combination(coeffs, gram), sel)


def lemma21_bound(
    dsel: Selector,
    osel: Selector,
    coeffs,
    family_or_gram,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """The base combination bound: diagonal term plus off-diagonal term."""
    return _evaluate(Variant.lemma21(dsel, osel), EvalContext.of_combination(coeffs, family_or_gram), policy)


def cor23_bounds(
    coeffs, family_or_gram, policy: TolerancePolicy = DEFAULT_POLICY
) -> tuple[BoundEvaluation, BoundEvaluation]:
    """The sharp/weak pair built from the sum-diagonal and 2-exponent branches.

    sharp: ``sum|a|^2 * (max|z|^2 + sqrt((sum|a|^2)^2 - sum|a|^4)/sum|a|^2 * R)``
    weak:  ``sum|a|^2 * (max|z|^2 + R)``, with ``R`` the ordered 2-norm of the
    off-diagonal entries.  sharp.rhs <= weak.rhs always; both are 0 for
    all-zero coefficients.
    """
    ctx = EvalContext.of_combination(coeffs, family_or_gram)
    return _evaluate(Variant.cor23_sharp(), ctx, policy), _evaluate(Variant.cor23_weak(), ctx, policy)


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
    return _evaluate(Variant.coarse(dsel, osel), EvalContext.of_combination(coeffs, family_or_gram), policy)


def special_bound(
    variant: Variant, coeffs, family_or_gram, policy: TolerancePolicy = DEFAULT_POLICY
) -> BoundEvaluation:
    """One of the three aligned coarse bounds (max/max, holder p both slots, sum/sum)."""
    if not variant.name.startswith("special:"):
        raise ValidationError(f"not a special variant: {variant.name}")
    return _evaluate(variant, EvalContext.of_combination(coeffs, family_or_gram), policy)


# ---------------------------------------------------------------------------
# Operations on problem instances
# ---------------------------------------------------------------------------


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
    gram = _gram_matrix(family_or_gram)
    if gram.n < 2:
        raise ValidationError(f"need at least 2 vectors, got {gram.n}")
    gs = GramStats(gram)
    return gs.norm_off(2.0), (gs.n - 1) * gs.max_off
