"""Treat each conjugate-exponent slot as a one-parameter bound family.

Profiles, optimizes and tuned ranks share one search (``_minimize``):
Brent's parabolic search with a golden-section safeguard, run on the log of
the term in t = 1/p.  Every tuned term is a product or sum of l^p norms at
conjugate exponents, so its log is convex in t (Lyapunov's inequality), and
a parabola fits it closely; convexity also stops the search early on flat
profiles and at boundary minima.  A boundary minimizer is reported as such
rather than extrapolated: the limits at both ends of the domain coincide
with the max- and sum-selector variants that already exist in the catalog.
``profile_exponent`` evaluates the fixed 8-point exponent grid besides, for
its printed rows.

Rankings evaluate a set of variants on one instance through the plan of
their tuple (``bounds.plan_for``), the same evaluator the suite runs, and
order them by right-hand side.  The catalog table in ``variants`` lists the
terms each right-hand side sums (the holder diagonal, the holder
off-diagonal, ..., keys of ``_TERMS``), the first fed by its exponent slots.
A tuned ranking passes ``Plan.evaluate`` the per-instance minimum of each
holder slot's term, computed once and shared by every variant that uses it
(``special:2.12`` and ``cor32:3`` share ``coarse``); a pinned ranking
evaluates every slot at its own exponent.  The profiled families are terms
too.

Every call here makes its own ``EvalContext``, but the statistics of the
instance (its family Gram's and its Fourier vector's, with their power-sum
memos) are built once per instance and kept on it, and what depends on the
coefficients as well, ``CoeffStats``, the left-hand sides and each searched
term's ``_minimize`` result (``tuned``), is kept on it for the coefficient
vector it evaluated last, keyed by the vector's bits.  So a rank and the
optimizes and profiles that follow it on the same instance and coefficients
compute each power sum once and search each term once: every profiled
family is a term a tuned rank minimizes (``cor32:3`` reads ``coarse``'s
search).  Coefficients changed between calls, even in place, have other
bits, and get a state of their own.

One instance's calls pay for little besides their arithmetic.  Each
evaluation at a fresh exponent makes its selector with ``holder``, which
checks the exponent and fills the frozen ``Selector`` directly, conjugate
included, instead of running the dataclass constructor.  A rank that passes
the tuple it passed last gets its plan back without hashing the variants
again (``plan_for``), and builds its entries in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .bounds import SKIP_REASONS, EvalContext, IncompatibleInstanceError, plan_for
from .space import ProblemInstance
from .variants import _TERMS, EXPONENT_MAX, Variant, VariantError, holder

__all__ = [
    "PROFILE_FAMILIES",
    "DEFAULT_INTERVAL",
    "ExponentProfile",
    "profile_exponent",
    "optimize_exponent",
    "RankEntry",
    "TightnessRanking",
    "rank_variants",
]

PROFILE_FAMILIES = ("lemma21:diag", "lemma21:offdiag", "coarse", "cor32:3", "bb:4.3")

# The exponent domain is open at 1; this is the working lower endpoint.
EXPONENT_MIN = 1.0 + 2.0**-10

DEFAULT_INTERVAL = (EXPONENT_MIN, EXPONENT_MAX)

# Brent's golden-section fraction, and his relative resolution in t: the
# square root of the double-precision epsilon
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = 2.0**-26
# Three profile values this close (relative; 16 units in the last place) are
# equal but for rounding: the profiles that are constant in exact arithmetic
# spread by at most 4 units, the others by more than 2**-14
_FLAT = 2.0**-48


@dataclass(frozen=True)
class ExponentProfile:
    family: str
    grid: tuple[tuple[float, float], ...]   # (exponent, value), exponents increasing
    minimizer: tuple[float, float]
    at_boundary: bool


class RankEntry(NamedTuple):
    variant: str
    rhs: float
    rel_slack: float


@dataclass(frozen=True)
class TightnessRanking:
    """Variants ordered by rhs, tightest first; equal right-hand sides
    (-0.0 equals 0.0) break by name, and a variant listed twice has two
    entries side by side.  ``rel_slack`` is ``(rhs - lhs) / lhs``, or where
    ``lhs`` is not positive, 0.0 if ``rhs`` is zero and inf otherwise."""

    entries: tuple[RankEntry, ...]

    def to_csv(self) -> str:
        lines = ["rank,variant,rhs,rel_slack"]
        for i, e in enumerate(self.entries, start=1):
            lines.append(f"{i},{e.variant},{repr(e.rhs)},{repr(e.rel_slack)}")
        return "\n".join(lines) + "\n"


# Not called here: bench/tracer.py wraps these names (its last shim, to go at
# its next change); the tuner reaches its terms through _TERMS, and ranks
# through a plan.
_diag_value = _offdiag_value = _coarse_offdiag_value = _cor32_rhs_factor = _fourier_rhs = _eval_on_context = None


def _term_fn(term: str, ctx: EvalContext) -> Callable[[float], float]:
    """One term of the instance as a function of its free exponent."""
    fn = _TERMS[term]
    return lambda t: fn(ctx, holder(t))


def _check_family(family: str) -> None:
    if family not in PROFILE_FAMILIES:
        raise VariantError(f"unknown profile family {family!r}; expected one of {PROFILE_FAMILIES}")


def _family_fn(family: str, ctx: EvalContext) -> Callable[[float], float]:
    """The profiled quantity as a function of the free exponent."""
    _check_family(family)
    return _term_fn(family, ctx)


def _searched(ctx: EvalContext, term: str) -> tuple[float, float, bool]:
    """``_minimize`` of one term, searched once per instance and coefficient
    vector: every later context on them reads it from ``ctx.tuned``."""
    found = ctx.tuned.get(term)
    if found is None:
        found = ctx.tuned[term] = _minimize(_term_fn(term, ctx))
    return found


def _tuned_value(ctx: EvalContext, term: str) -> float:
    """Minimum of one term over DEFAULT_INTERVAL."""
    return _searched(ctx, term)[1]


def _finite(value: float, exponent: float) -> float:
    """A profile value, checked: a non-finite one raises ArithmeticError,
    since an overflowed profile has no minimum to report."""
    if not math.isfinite(value):
        raise ArithmeticError(f"non-finite profile value {value!r} at exponent {exponent!r}")
    return value


def _minimize(fn: Callable[[float], float]) -> tuple[float, float, bool]:
    """Minimum of fn over DEFAULT_INTERVAL: Brent's parabolic search with a
    golden-section safeguard on log fn in t = 1/p, where every tuned term is
    convex (R. P. Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 5).  Returns ``(exponent, value, at_boundary)``; the value is
    fn at the exponent returned, and neither end's value is lower.

    Both ends are evaluated first, at their exact exponents, and
    ``at_boundary`` means one of them is the minimum; of two equal ends, the
    lower.  Since no term is negative, a value of 0.0 is returned at once.
    The first interior point is Brent's, and convexity gives two early stops:
    when it and the ends agree within ``_FLAT``, no value lies more than
    1.7 ``_FLAT`` below the lowest of them, so the better end is returned,
    within 2.7 ``_FLAT`` of the minimum; when an end is no worse than it,
    the minimum lies between the two, and a neighbour of the end one
    resolution step inward that is not lower puts it at the end.  A lower
    neighbour starts Brent's search from there.  The search stops when its
    bracket is within ``_SQRT_EPS`` relative of its best point.
    """
    evaluate = lambda p: _finite(fn(p), p)
    p_lo, p_hi = DEFAULT_INTERVAL
    f_lo = evaluate(p_lo)
    if f_lo == 0.0:
        return p_lo, f_lo, True
    f_hi = evaluate(p_hi)
    if f_hi == 0.0:
        return p_hi, f_hi, True
    # t runs from a (p_hi) to b (p_lo)
    a, b = 1.0 / p_hi, 1.0 / p_lo
    x = b - _GOLDEN * (b - a)
    fx = evaluate(1.0 / x)
    end, p_end, f_end = (b, p_lo, f_lo) if f_lo <= f_hi else (a, p_hi, f_hi)
    low = min(f_end, fx)
    if max(f_lo, f_hi, fx) - low <= _FLAT * low:
        return p_end, f_end, True
    if f_end <= fx:
        u = end + math.copysign(_SQRT_EPS * end, x - end)
        fu = evaluate(1.0 / u)
        if fu >= f_end:
            return p_end, f_end, True
        # the bracket is (end, x), its best point u and its next best the end
        a, b = min(end, x), max(end, x)
        v, fv, w, fw, x, fx = x, fx, end, f_end, u, fu
    else:
        # the better end is the next best point, the other the one before it
        v, fv, w, fw = (a, f_hi, b, f_lo) if f_lo <= f_hi else (b, f_lo, a, f_hi)
    # the last two steps; as long as the bracket, so the first step may be parabolic
    d = e = b - a
    while True:
        if fx == 0.0:
            return 1.0 / x, fx, False
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * x
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return 1.0 / x, fx, False
        golden = True
        if abs(e) > tol1:
            # the vertex of the parabola through x, w and v on the log scale
            gx = math.log(fx)
            r = (x - w) * (gx - math.log(fv))
            q = (x - v) * (gx - math.log(fw))
            s = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                s = -s
            q = abs(q)
            r, e = e, d
            # accepted inside the bracket, and shorter than half the step before last
            if abs(s) < abs(0.5 * q * r) and q * (a - x) < s < q * (b - x):
                d = s / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = evaluate(1.0 / u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _search(family: str, ctx: EvalContext) -> tuple[float, float, bool]:
    """The minimum of one profiled family, ``(exponent, value, at_boundary)``."""
    _check_family(family)
    if family != "cor32:3":
        return _searched(ctx, family)
    # |x|^2 times the coarse minimum, as the catalog row cor32:3:p={p} has
    # it: a search on the product itself could round its way to another t
    exponent, value, at_boundary = _searched(ctx, "coarse")
    return exponent, _finite(ctx.x_norm_sq * value, exponent), at_boundary


# 8 log-spaced exponents; geomspace returns both ends of the interval exactly
_DEFAULT_GRID = tuple(float(t) for t in np.geomspace(*DEFAULT_INTERVAL, 8))


def optimize_exponent(family: str, inst: ProblemInstance, coeffs=None) -> tuple[float, float, bool]:
    """Tightest exponent for one family on one instance.

    Returns ``(exponent, value, at_boundary)``.  ``at_boundary`` means the
    minimizer is an end of DEFAULT_INTERVAL, i.e. the max- or sum-selector
    limit form is at least as tight.  The value is the family's at the
    exponent returned, and the search evaluates both ends, so it never
    exceeds either.  A non-finite value met on the way raises
    ArithmeticError.
    """
    return _search(family, EvalContext(inst, coeffs))


def profile_exponent(family: str, inst: ProblemInstance, coeffs=None) -> ExponentProfile:
    """One bound family's values on the fixed 8-point exponent grid, and the
    minimum ``optimize_exponent`` finds.  A non-finite grid value raises
    ArithmeticError."""
    ctx = EvalContext(inst, coeffs)
    fn = _family_fn(family, ctx)
    grid = tuple((t, _finite(fn(t), t)) for t in _DEFAULT_GRID)
    best_t, best_v, at_boundary = _search(family, ctx)
    return ExponentProfile(family, grid, (best_t, best_v), at_boundary)


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def rank_variants(
    inst: ProblemInstance,
    coeffs,
    variants: Iterable[Variant],
    optimize_exponents: bool = True,
) -> TightnessRanking:
    """Order a variant set by rhs on one instance, tightest first.

    Exponent slots are optimized per term by default: each holder selector or
    p parameter takes the minimum of the term its table row feeds it to,
    searched once per instance and shared by every variant that uses it, so
    two holder variants differing only in their pinned exponent rank
    identically (ties then break by name).  Max and sum selectors are kept as
    given.  Each evaluated point is itself a valid bound, so minimization
    cannot break soundness.  All variants must be compatible with the
    instance: an orthonormal-only variant on a general family, or one that
    requires coefficients when ``coeffs`` is None, raises
    IncompatibleInstanceError.  A variant listed twice is ranked twice.  A
    non-finite left- or right-hand side, or tuned term, raises
    ArithmeticError: an overflowed row has no rank.

    The order comes from one stable ``np.lexsort`` of the plan's arrays, by
    right-hand side, then by the rank of each entry's name
    (``Plan.name_rank``), which is the order of a stable sort keyed by
    ``(rhs, name)``.  The relative slacks are then taken entry by entry in
    Python floats (the same IEEE operations as an array division, for fewer
    calls on tens of rows and no more time on the catalog's 172), and each
    ``RankEntry`` is filled in C.
    """
    plan = plan_for(tuple(variants))
    ctx = EvalContext(inst, coeffs)
    # before any term is minimized on the rows it rejects
    skips = plan.skips(ctx)
    if np.count_nonzero(skips):
        raise IncompatibleInstanceError(SKIP_REASONS[skips[skips > 0][0]])
    # silently: a non-finite value raises below, and its warning would say less
    with np.errstate(all="ignore"):
        lhs, rhs = plan.evaluate(ctx, _tuned_value if optimize_exponents else None)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    if not finite.all():
        raise ArithmeticError(f"non-finite left- or right-hand side of {plan.names[finite.argmin()]}")
    # by right-hand side, then by name: -0.0 ties with 0.0, as in Python
    rows = plan.order[np.lexsort((plan.name_rank, rhs[plan.order]))].tolist()
    names, lhs, rhs, inf = plan.names, lhs.tolist(), rhs.tolist(), math.inf
    entries = [
        (names[k], r, (r - l) / l if l > 0.0 else 0.0 if r == 0.0 else inf)
        for k in rows
        for l, r in ((lhs[k], rhs[k]),)
    ]
    # tuple.__new__ fills each RankEntry in C, where RankEntry._make is a Python call
    return TightnessRanking(tuple(map(tuple.__new__, repeat(RankEntry), entries)))
