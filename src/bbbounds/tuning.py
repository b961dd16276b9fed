"""Treat each conjugate-exponent slot as a one-parameter bound family.

Profiles evaluate the bound over an exponent grid; the optimizer brackets the
grid minimum and refines it by golden-section search on the log of the
exponent (profiles change fastest just above 1, so log spacing resolves that
region).  A boundary minimizer is reported as such rather than extrapolated:
the limits at both ends of the domain coincide with the max- and sum-selector
variants that already exist in the catalog.

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
memos) are built once per instance and kept on it, so a rank and the
optimizes and profiles that follow it on the same instance compute each
power sum once.  The coefficient statistics and the tuned minima (``tuned``)
stay with each context, since the caller's coefficients may change between
calls.

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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .bounds import SKIP_REASONS, EvalContext, IncompatibleInstanceError, plan_for
from .space import ProblemInstance
from .variants import _TERMS, EXPONENT_MAX, Variant, VariantError, _check_exponent, holder

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

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

VALUE_REL_TOL = 1e-6
MAX_REFINE_STEPS = 64
COARSE_GRID_POINTS = 8


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


def _family_fn(family: str, ctx: EvalContext) -> Callable[[float], float]:
    """The profiled quantity as a function of the free exponent."""
    if family not in PROFILE_FAMILIES:
        raise VariantError(f"unknown profile family {family!r}; expected one of {PROFILE_FAMILIES}")
    return _term_fn(family, ctx)


def _tuned_value(ctx: EvalContext, term: str) -> float:
    """Minimum of one term over DEFAULT_INTERVAL, computed once per instance."""
    best = ctx.tuned.get(term)
    if best is None:
        best = ctx.tuned[term] = _minimize(_term_fn(term, ctx), DEFAULT_INTERVAL)
    return best[1]


def _golden_refine(
    fn: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Golden-section minimum of fn over [lo, hi] in log-exponent space.

    Stops once the best value stalls within VALUE_REL_TOL (relative) or after
    MAX_REFINE_STEPS contractions; returns the best point seen, including the
    endpoints, so the result never exceeds any evaluated value.
    """
    a, b = math.log(lo), math.log(hi)
    evaluate = lambda u: fn(math.exp(u))
    best_u, best_v = a, evaluate(a)
    v = evaluate(b)
    if v < best_v:
        best_u, best_v = b, v
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = evaluate(c), evaluate(d)
    for u, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_u, best_v = u, v
    # individual contractions often fail to improve the best point, so the
    # value-based stop waits for a run of stagnant steps
    stagnant = 0
    for _ in range(MAX_REFINE_STEPS):
        previous_best = best_v
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = evaluate(c)
            if fc < best_v:
                best_u, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = evaluate(d)
            if fd < best_v:
                best_u, best_v = d, fd
        if previous_best - best_v <= VALUE_REL_TOL * max(abs(best_v), 1e-300):
            stagnant += 1
            if stagnant >= 10:
                break
        else:
            stagnant = 0
    return math.exp(best_u), best_v


def _coarse_grid(lo: float, hi: float) -> list[float]:
    return [float(t) for t in np.geomspace(lo, hi, COARSE_GRID_POINTS)]


_DEFAULT_GRID = tuple(_coarse_grid(*DEFAULT_INTERVAL))


def _refine_grid_minimum(
    fn: Callable[[float], float], grid: Sequence[float], values: list[float]
) -> tuple[float, float, bool]:
    """Best of the grid values and a golden-section refinement bracketed
    around the grid argmin; ``at_boundary`` means it sits at a grid end.
    A non-finite grid value raises ArithmeticError: an overflowed profile
    has no minimum to report."""
    for t, v in zip(grid, values):
        if not math.isfinite(v):
            raise ArithmeticError(f"non-finite profile value {v!r} at exponent {t!r}")
    k = min(range(len(grid)), key=lambda i: (values[i], i))
    best_t, best_v = grid[k], values[k]
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    if lo < hi:
        t, v = _golden_refine(fn, lo, hi)
        if v < best_v:
            best_t, best_v = t, v
    at_boundary = abs(best_t - grid[0]) <= 1e-9 * grid[0] or abs(best_t - grid[-1]) <= 1e-9 * grid[-1]
    return best_t, best_v, at_boundary


def _minimize(
    fn: Callable[[float], float], interval: tuple[float, float]
) -> tuple[float, float, bool]:
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise VariantError(f"invalid search interval {interval}")
    _check_exponent(lo)
    _check_exponent(hi)
    # geomspace returns both endpoints exactly, so the grid ends are lo and hi
    grid = _DEFAULT_GRID if (lo, hi) == DEFAULT_INTERVAL else _coarse_grid(lo, hi)
    return _refine_grid_minimum(fn, grid, [fn(t) for t in grid])


def optimize_exponent(
    family: str,
    inst: ProblemInstance,
    coeffs=None,
    interval: tuple[float, float] = DEFAULT_INTERVAL,
) -> tuple[float, float, bool]:
    """Tightest exponent for one family on one instance.

    Returns ``(exponent, value, at_boundary)``.  ``at_boundary`` means the
    minimizer sits at an interval endpoint, i.e. the max- or sum-selector
    limit form is at least as tight.  The returned value never exceeds any
    coarse-grid value (the grid points are candidates themselves).  A
    non-finite grid value raises ArithmeticError.
    """
    ctx = EvalContext(inst, coeffs)
    return _minimize(_family_fn(family, ctx), interval)


def profile_exponent(
    family: str,
    inst: ProblemInstance,
    coeffs=None,
    grid: Iterable[float] = (),
) -> ExponentProfile:
    """Evaluate one bound family over an exponent grid and refine its minimum.

    The minimizer is the best of the grid values and a golden-section
    refinement bracketed around the grid argmin.
    """
    fn = _family_fn(family, EvalContext(inst, coeffs))
    exps = sorted({_check_exponent(t) for t in grid}) or _DEFAULT_GRID
    values = [fn(t) for t in exps]
    best_t, best_v, at_boundary = _refine_grid_minimum(fn, exps, values)
    return ExponentProfile(
        family=family,
        grid=tuple(zip(exps, values)),
        minimizer=(best_t, best_v),
        at_boundary=at_boundary,
    )


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
    computed once per instance and shared by every variant that uses it, so
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
