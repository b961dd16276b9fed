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
evaluates variants through one evaluator, a ``Plan`` of rows that
evaluates each distinct (term, selector) pair and each left-hand side once
and builds all right-hand sides as arrays.  Every caller takes its plan from
``plan_for``: the suite, ``check-file``, ``evaluate_variant`` and
``tuning``, which ranks with each holder slot's term replaced by its tuned
minimum.  A scalar evaluator, one variant at a time, is kept in the tests as
the plan's oracle.

A plan evaluates one instance (``EvalContext``), whose statistics are
Python floats, or a block of consecutive instances (``EvalBlock``), whose
statistics are float64 arrays with a leading instance axis; the suite
evaluates blocks.  ``EvalContext`` owns every quantity of one instance: its
Gram matrix, its statistics and both sides of every bound, including
``combination_norm_sq``'s double sum.  One instance's own statistics, of
its family Gram and its Fourier vector, are built once per instance and
kept on the ``ProblemInstance``: every context on it (a rank, each
optimize, each ``evaluate_variant``) shares them and their power-sum memos.
Beside them the instance keeps the state of the coefficient vector it
evaluated last, keyed by the vector's bits: its read-only copy, its
``CoeffStats``, the combination and weighted left-hand sides and the tuned
minima, shared by every context with the same coefficients.  A block is
given zero-padded stacks of its instances' bordered Gram matrices and
coefficients, and their combination and weighted left-hand sides
(``verify`` generates all of them a block at a time); it reads its
statistics, ``|x|^2`` and the Fourier vectors from the stacks.
The same term functions and the same statistics run on both, and each
instance of a block gets the bits of its own evaluation.  Each statistic is
one class, ``GramStats`` or ``CoeffStats``, written once over ``...`` axes;
the arithmetic that differs between floats and arrays is the pair
``_Floats``/``_Arrays``, which the contexts and the power sums inherit.  The
power sums are the one fork, by input: ``_PowerStats`` loops over one
instance's short rows in Python, and ``_PowerBlock`` sorts each instance's
magnitudes and divides by their maximum as one instance does, lets the zero
padding add exactly 0.0 to sums taken left to right along the row, and
takes every power on the real entries only.  Every power whose bits the
outputs carry is Python's float power, ``x**p``: in Python on one instance's
rows of up to ``_KERNEL_ROW`` entries, and otherwise ``np.float_power``,
whose float64 loop calls the C library's ``pow`` on each entry, as
Python's float power does (float64 ``np.power`` is a SIMD kernel that
differs from it in the last bit on some entries).

All formulas consume only coefficient magnitudes, the Gram diagonal, and the
off-diagonal magnitudes.  Off-diagonal sums run over ordered pairs i != j,
so each unordered pair contributes twice.  Power sums factor out the largest
term before exponentiation, which keeps exponents up to the domain cap of 64
(and their conjugates near 1) inside double-precision range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .space import ORACLE_REL_TOL, GramMatrix, ProblemInstance, ValidationError, VectorFamily, gram_of_family
from .variants import _TERMS, Variant

__all__ = [
    "ORTHONORMAL_GATE_TOL",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "BoundEvaluation",
    "IncompatibleInstanceError",
    "CoeffStats",
    "GramStats",
    "EvalContext",
    "combination_norm_sq",
    "remark4_quantities",
    "remark_comparison_rows",
    "evaluate_variant",
]

# The Gershgorin radius of G - I, max_i sum_j |G_ij - delta_ij|, up to which
# a family counts as orthonormal for the orthonormal-only bounds: every
# eigenvalue of G then lies within it of 1, so a Bessel-type left-hand side
# exceeds its orthonormal right-hand side by at most this fraction, which
# the default ``tol_rel`` absorbs.
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

    def holds(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """The verdicts on float64 arrays, ``max`` as Python's (``lhs`` unless
        ``rhs`` is larger); call it under ``np.errstate`` that ignores over and invalid."""
        return rhs - lhs >= -(self.tol_abs + self.tol_rel * np.where(rhs > lhs, rhs, lhs))


DEFAULT_POLICY = TolerancePolicy()


class BoundEvaluation(NamedTuple):
    variant: Variant
    lhs: float
    rhs: float
    slack: float
    holds: bool


class IncompatibleInstanceError(ValueError):
    """The variant is valid but cannot be checked on this instance."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _sequential_sum(a: np.ndarray):
    """The sum along the last axis as ``sum(row.tolist(), 0.0)`` adds it in
    Python 3.11, left to right (3.12 compensates, and ``np.sum`` adds
    pairwise): a float for one row, an array for a block of rows.  One row
    of up to ``_KERNEL_ROW`` values adds in a Python loop from 0.0, several
    times faster there than the kernel; longer rows and blocks take
    ``np.add.accumulate``, whose ``+ 0.0`` maps the -0.0 of an
    all-negative-zero row to the 0.0 that a 0.0 start gives, so the two
    agree bit for bit, and zero padding after a row's entries leaves its sum
    unchanged."""
    if a.ndim == 1 and a.shape[0] <= _KERNEL_ROW:
        total = 0.0
        for value in a.tolist():
            total += value
        return total
    if not a.shape[-1]:
        return np.zeros(a.shape[:-1]) if a.ndim > 1 else 0.0
    total = np.add.accumulate(a, axis=-1)[..., -1] + 0.0
    return total if a.ndim > 1 else float(total)


class _Block(NamedTuple):
    """The Gram matrices or the vectors of consecutive instances, zero-padded
    into one stack with a leading instance axis, and each instance's n:
    given to ``GramStats`` or ``CoeffStats``, it gives their statistics of
    each instance as arrays."""

    values: np.ndarray
    n: np.ndarray


def _first(count, width: int) -> np.ndarray:
    """The mask of the first ``count`` entries of each row of ``width``."""
    return np.arange(width) < np.asarray(count)[..., None]


class _Floats:
    """The arithmetic that one instance's statistics and terms compute with,
    on Python floats (``bool`` makes a verdict a Python bool).  ``_Arrays``
    is the same entry by entry on arrays with a leading instance axis.
    ``zero_where`` is a zero guard's only statement on both (``variants``)."""

    __slots__ = ()
    sqrt = staticmethod(math.sqrt)
    pow = staticmethod(pow)
    min = staticmethod(min)
    max = staticmethod(max)
    zero_where = staticmethod(lambda zero, value: 0.0 if zero else value)
    bool = staticmethod(bool)


class _Arrays:
    """``_Floats`` entry by entry on float64 arrays, bit for bit: IEEE
    arithmetic and ``np.sqrt`` agree with Python's floats; ``pow`` is
    ``np.float_power``, the C library's ``pow`` of each entry, as Python's
    float power takes it (float64 ``np.power`` differs from it in the last
    bit on some entries), with inf where Python raises OverflowError, and on
    int bases ``float(k)**e``; ``min`` and ``max`` keep Python's rules
    (``a`` unless ``b`` is smaller, or larger, so a NaN ``a`` stays);
    ``zero_where`` masks each instance as ``_Floats`` masks one."""

    __slots__ = ()
    sqrt = staticmethod(np.sqrt)
    pow = staticmethod(np.float_power)
    min = staticmethod(lambda a, b: np.where(b < a, b, a))
    max = staticmethod(lambda a, b: np.where(b > a, b, a))
    zero_where = staticmethod(lambda zero, value: np.where(zero, 0.0, value))
    bool = staticmethod(np.asarray)


# One instance's rows of more than _KERNEL_ROW values take their powers with
# ``np.float_power`` and add them with ``_sequential_sum``; shorter rows loop
# in Python, which is faster there.  A power sum costs the same either way at
# about 60 values (a pair bracket at about 80), and one of 2,016 values took
# 167 us in the loop against 55 us (numpy 2.4, 2-core x86-64 machine).
_KERNEL_ROW = 64


class _PowerStats(_Floats):
    """Memoized scaled power sums of one instance's nonnegative values.

    ``maximum`` and ``second`` are Python floats.  A power sum adds ``r**p``
    left to right over the scaled values: a Python loop on rows of up to
    ``_KERNEL_ROW`` values, ``np.float_power`` and ``_sequential_sum`` on
    longer ones, with the same bits.  The array work is exact: sorting, and
    one IEEE division per element.  ``_PowerBlock`` gives the same of a block
    of instances; the statistics are written once over both.  They stay two
    classes because one instance evaluated as a block of one is several
    times slower, and the tuner evaluates one instance at a fresh exponent
    each time (on 100 fresh seed-11 instances on a 2-core machine, 1.6-2.2
    ms instead of 0.26-0.33 ms per ``optimize_exponent``, and 8.1 ms instead
    of 1.7-2.0 ms per tuned ``rank_variants``).  An instance keeps its
    ``GramStats`` and Fourier ``CoeffStats``, so these memos serve every
    call on it.
    """

    __slots__ = ("maximum", "second", "_scaled", "_memo", "_bracket_memo")

    def __init__(self, values: np.ndarray):
        desc = np.sort(values)[::-1]
        self.maximum = float(desc[0]) if desc.size else 0.0
        self.second = float(desc[1]) if desc.size >= 2 else 0.0
        m = self.maximum
        # descending, so the leading term of every scaled power sum is 1; a
        # list for the loop, an array for the kernel
        scaled = desc / m if m > 0.0 else desc[:0]
        self._scaled = scaled if scaled.size > _KERNEL_ROW else scaled.tolist()
        self._memo: dict[float, float] = {}
        self._bracket_memo: dict[float, float] = {}

    def root(self, p: float, e: float, factor: float = 1.0) -> float:
        """(factor * sum (v / max)^p)^e; every term of the sum is in [0, 1],
        and the sum is memoized."""
        s = self._memo.get(p)
        if s is None:
            if isinstance(self._scaled, list):
                s = 0.0
                for r in self._scaled:
                    s += r**p
            else:
                s = _sequential_sum(np.float_power(self._scaled, p))
            self._memo[p] = s
        return (factor * s) ** e

    def bracket_root(self, p: float, e: float) -> float:
        """[(sum (v/max)^p)^2 - sum (v/max)^(2p)]^e, the ordered-pair double
        sum of (v_i v_j / max^2)^p, memoized, with the leading 1s of both power
        sums cancelled symbolically: writing s1 = 1 + r gives 2r + r^2 - r2,
        which cannot lose the pair information to rounding at large p.
        """
        s = self._bracket_memo.get(p)
        if s is None:
            tail = self._scaled[1:]
            if isinstance(tail, list):
                r = 0.0
                r2 = 0.0
                for u in tail:
                    up = u**p
                    r += up
                    r2 += up * up
            else:
                up = np.float_power(tail, p)
                r, r2 = _sequential_sum(up), _sequential_sum(up * up)
            s = max(2.0 * r + r * r - r2, 0.0)
            self._bracket_memo[p] = s
        return s ** e


class _PowerBlock(_Arrays):
    """``_PowerStats`` of a block of instances, one padded row each, as arrays
    with a leading instance axis, bit for bit the values ``_PowerStats``
    gives each row: the real entries of a row are sorted in descending order
    and divided by their maximum, the padding is zero, powers are taken on
    the real entries only, with ``np.float_power`` (Python's float power, by
    the C library's ``pow``), and sums add left to right along the row.  The
    terms read each root at the same few exponents, so the roots are
    memoized.
    """

    __slots__ = ("maximum", "second", "_live", "_entries", "_memo")

    def __init__(self, values: np.ndarray, count: np.ndarray):
        # a row holds ``count`` nonnegative values and zero padding, in any
        # order: sorted, the padding comes after them (it equals any zero
        # among them), and a short row's second is 0.0; only the scaled
        # live entries are kept, so a block holds each value once
        desc = np.sort(values, axis=1)[:, ::-1]
        zeros = np.zeros(len(desc))
        self.maximum = desc[:, 0].copy() if desc.shape[1] else zeros
        self.second = desc[:, 1].copy() if desc.shape[1] >= 2 else zeros
        m = self.maximum
        self._live = _first(count, desc.shape[1]) & (m > 0.0)[:, None]
        self._entries = desc[self._live] / np.repeat(m, self._live.sum(axis=1))
        self._memo: dict[tuple, np.ndarray] = {}

    def _powers(self, p: float) -> np.ndarray:
        out = np.zeros(self._live.shape)
        out[self._live] = np.float_power(self._entries, p)
        return out

    def _memoized(self, key: tuple, compute) -> np.ndarray:
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = compute()
        return value

    def root(self, p: float, e: float, factor: float = 1.0) -> np.ndarray:
        return self._memoized((p, e, factor), lambda: self.pow(factor * _sequential_sum(self._powers(p)), e))

    def bracket_root(self, p: float, e: float) -> np.ndarray:
        def bracket():
            tail = self._powers(p)[:, 1:]
            r, r2 = _sequential_sum(tail), _sequential_sum(tail * tail)
            return self.pow(self.max(2.0 * r + r * r - r2, 0.0), e)

        return self._memoized((p, e, "bracket"), bracket)


def _power_sums(values: np.ndarray, count) -> _PowerStats | _PowerBlock:
    """The power sums of one instance's values, or of a block's padded rows."""
    return _PowerBlock(values, count) if values.ndim > 1 else _PowerStats(values)


def _rows(values, convert) -> tuple[np.ndarray, np.ndarray | int]:
    """A ``_Block`` as given, or one instance's ``convert``ed array and its length."""
    if isinstance(values, _Block):
        return values
    values = convert(values)
    return values, values.shape[0]


class CoeffStats:
    """Magnitude summaries of one coefficient vector, shared across bounds:
    Python floats; or, given a ``_Block`` of coefficient vectors, arrays with
    a leading instance axis, each instance's entry bit for bit its own."""

    __slots__ = ("n", "_pow", "sum_a2", "max_a", "max_a2", "top2_prod")

    def __init__(self, coeffs):
        c, self.n = _rows(coeffs, lambda v: np.asarray(v, dtype=np.complex128))
        a = np.hypot(c.real, c.imag)
        self._pow = _power_sums(a, self.n)
        self.sum_a2 = _sequential_sum(a * a)
        self.max_a = self._pow.maximum
        self.max_a2 = self.max_a * self.max_a
        self.top2_prod = self._pow.zero_where(self.n < 2, self.max_a * self._pow.second)

    @property
    def sum_bracket(self):
        """(sum a)^2 - sum a^2, the ordered pair sum of a_i a_j, computed when
        read (only the sum selector's off-diagonal term reads it)."""
        return self.holder_bracket_root(1.0)

    def norm_a2(self, p: float) -> float:
        """(sum a^(2p))^(1/p), the p-norm of the squared magnitudes; a zero
        maximum has power sum 0.0 and gives 0.0."""
        return self.max_a2 * self._pow.root(2.0 * p, 1.0 / p)

    def holder_bracket_root(self, g: float) -> float:
        """[(sum a^g)^2 - sum a^(2g)]^(1/g), the ordered pair sum in closed form.

        Floored at 2^(1/g) times the largest pair product (the two ordered
        copies of the dominant pair), which is also the exact g -> infinity
        limit, so extreme exponents cannot underflow the term to zero.  It
        is 0.0 when n < 2, where an infinite maximum would give inf * 0.0.
        """
        ps = self._pow
        root = self.max_a2 * ps.bracket_root(g, 1.0 / g)
        return ps.zero_where(self.n < 2, ps.max(root, self.top2_prod * 2.0 ** (1.0 / g)))


@lru_cache(maxsize=128)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _gram_entries(gram) -> np.ndarray:
    return gram.entries if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=np.complex128)


class GramStats:
    """Diagonal and ordered off-diagonal summaries of one Gram matrix:
    Python floats; or, given a ``_Block`` of zero-padded Gram matrices,
    arrays with a leading instance axis, each instance's entry bit for bit
    its own.

    The entries are read as whole arrays: the real diagonal, and the
    magnitudes of the strict upper triangle in row-major order, taken with
    ``np.hypot``, which matches Python's ``abs(complex)`` bit for bit
    (``np.abs`` on complex arrays does not everywhere).  Over the padded
    width of a block, an instance's padding pairs fall between its own, and
    add exactly 0.0 to its sums.
    """

    __slots__ = ("n", "diag", "off", "_diag", "_off", "sum_diag", "max_diag", "sum_off", "max_off")

    def __init__(self, gram):
        e, self.n = _rows(gram, _gram_entries)
        u = e[(..., *_upper_pairs(e.shape[-1]))]
        self.diag, self.off = e.diagonal(0, -2, -1).real, np.hypot(u.real, u.imag)
        self._diag, self._off = _power_sums(self.diag, self.n), _power_sums(self.off, self.n * (self.n - 1) // 2)
        self.sum_diag = _sequential_sum(self.diag)
        self.max_diag = self._diag.maximum
        self.sum_off = 2.0 * _sequential_sum(self.off)     # ordered pairs
        self.max_off = self._off.maximum

    def norm_diag(self, q: float) -> float:
        """(sum of diagonal^q)^(1/q); a zero maximum has power sum 0.0, and
        ``+ 0.0`` gives 0.0 for the -0.0 one of a raw Gram."""
        return self.max_diag * self._diag.root(q, 1.0 / q) + 0.0

    def norm_off(self, q: float) -> float:
        """(sum over ordered pairs of |entry|^q)^(1/q)."""
        return self.max_off * self._off.root(q, 1.0 / q, 2.0)

    def orthonormal_within(self) -> bool:
        """Whether the Gershgorin radius of G - I, the largest row sum of
        ``|G_ij - delta_ij|``, is within ``ORTHONORMAL_GATE_TOL``.  Each row
        adds its entries left to right and a block's padding adds 0.0, so a
        block's instances get the radii they get alone."""
        far = self.max_off > ORTHONORMAL_GATE_TOL
        if far is True:
            return False
        width = self.diag.shape[-1]
        deviation = np.zeros(self.diag.shape + (width,))
        rows, cols = _upper_pairs(width)
        deviation[..., rows, cols] = deviation[..., cols, rows] = self.off
        diagonal = np.arange(width)
        deviation[..., diagonal, diagonal] = np.where(_first(self.n, width), np.abs(self.diag - 1.0), 0.0)
        radius = _sequential_sum(deviation).max(axis=-1, initial=0.0)
        return self._diag.bool((radius <= ORTHONORMAL_GATE_TOL) & np.logical_not(far))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _double_sum_faults(value, mass, direct=None):
    """The checks of a Gram double sum ``value`` = ``sum_ij c_i conj(c_j) g_ij``
    against its absolute mass and the direct squared norm, on Python numbers
    or entry by entry on arrays: whether its imaginary part, the negative of
    its real part, and its distance from ``direct`` (when given) exceed
    :data:`ORACLE_REL_TOL` times the mass.  A NaN fails none of them."""
    tol = ORACLE_REL_TOL * mass
    far = False if direct is None else abs(direct - value.real) > tol
    return abs(value.imag) > tol, value.real < -tol, far


def _kept(compute):
    """A cached property of the coefficients, computed by the first context
    that reads it and kept in its coefficient state under its name; an error
    is not kept, so every read raises it again."""
    name = compute.__name__

    def read(ctx):
        value = ctx._state.get(name)
        if value is None:
            value = ctx._state[name] = compute(ctx)
        return value

    read.__doc__ = compute.__doc__
    return cached_property(read)


class EvalContext(_Floats):
    """One instance with one coefficient vector, as the terms (``variants``)
    read it, with their arithmetic on Python floats.

    The statistics of the instance itself, of its family Gram and its
    Fourier vector, live on the instance (``ProblemInstance.gram_stats`` and
    ``fourier_stats``): built once per instance and shared, with their
    power-sum memos, by every context on it, so a rank and the optimizes
    that follow it pay for each power sum once.  The coefficients are
    converted and checked here, by every context; what depends on them is
    a state, a dict by attribute name: the one in the instance's
    ``_coeff_state`` when the instance evaluated the same bits last, else a
    new one, which the instance then keeps in place of the last.  So the
    contexts of one (instance, coefficients) share a read-only copy of the
    coefficients (``coeffs``), ``coeff_stats``, the combination and
    weighted left-hand sides, and ``tuned``, each exponent term's
    ``(exponent, value, at_boundary)`` as tuning searched it.  Both sides of
    a combination bound read one Gram matrix of the family, ``gram``: the
    instance's ``family_gram``, or, for the combination bounds alone, that
    of a ``VectorFamily``, a ``GramMatrix`` (taken as is) or a raw Gram
    array (which must pass ``GramMatrix.validate``) given in place of the
    instance, whose context gets a state of its own.
    """

    def __init__(self, inst: ProblemInstance | VectorFamily | GramMatrix | np.ndarray, coeffs=None):
        self.inst = inst
        key = None
        if coeffs is not None:
            coeffs = np.array(coeffs, dtype=np.complex128)
            n = self.gram.n
            if coeffs.shape != (n,):
                raise ValidationError(f"coefficient vector of length {coeffs.shape} for n={n}")
            if not np.isfinite(coeffs).all():
                raise ValidationError("coeffs contains non-finite entries")
            key = coeffs.tobytes()
            coeffs.setflags(write=False)
        last = inst._coeff_state if isinstance(inst, ProblemInstance) else {}
        state = last.get(key)
        if state is None:
            last.clear()
            state = last[key] = {"coeffs": coeffs, "tuned": {}}
        self._state, self.coeffs, self.tuned = state, state["coeffs"], state["tuned"]

    @cached_property
    def gram(self) -> GramMatrix:
        inst = self.inst
        if isinstance(inst, ProblemInstance):
            return inst.family_gram
        if isinstance(inst, VectorFamily):
            return gram_of_family(inst)
        if isinstance(inst, GramMatrix):
            return inst
        return GramMatrix(np.asarray(inst)).validate()

    @cached_property
    def gram_stats(self) -> GramStats:
        if isinstance(self.inst, ProblemInstance):
            return self.inst.gram_stats
        return GramStats(self.gram)

    @_kept
    def coeff_stats(self) -> CoeffStats:
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        return CoeffStats(self.coeffs)

    @cached_property
    def fourier_stats(self) -> CoeffStats:
        return self.inst.fourier_stats

    @cached_property
    def x_norm_sq(self) -> float:
        return self.inst.x_norm_sq

    @_kept
    def lhs_combination(self) -> float:
        """``|sum_i c_i z_i|^2`` as the double sum of ``gram``; within
        :data:`ORACLE_REL_TOL` of the mass ``sum_ij |c_i||c_j||(z_i,z_j)|``,
        it must be real (else the Gram is corrupted), not negative (else not
        PSD; a rounding-sized negative is clamped to zero) and, where the
        vectors are known, the direct squared norm of the summed vector."""
        if self.coeffs is None:
            raise IncompatibleInstanceError("requires coefficients")
        c, g = self.coeffs, self.gram.entries
        family = self.inst.family if isinstance(self.inst, ProblemInstance) else self.inst
        direct = None
        # silently, as a block computes them: an overflow gives inf
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(family, VectorFamily):
                summed = c @ family.vectors
                direct = float(np.vdot(summed, summed).real)
            value = complex(c @ g @ np.conj(c))
            mass = float(np.abs(c) @ np.abs(g) @ np.abs(c))
        imaginary, negative, far = _double_sum_faults(value, mass, direct)
        if imaginary:
            raise ValidationError(
                f"Gram double sum has imaginary part {value.imag} (mass {mass}); "
                "the Gram matrix is corrupted"
            )
        result = value.real
        if negative:
            raise ValidationError(
                f"Gram double sum {result} is negative beyond {ORACLE_REL_TOL} relative to "
                f"mass {mass}; the Gram matrix is not positive semidefinite"
            )
        if far:
            raise ValidationError(
                f"direct norm {direct} and Gram expansion {result} disagree "
                f"beyond {ORACLE_REL_TOL} relative to mass {mass}"
            )
        return max(result, 0.0)

    @_kept
    def lhs_weighted(self) -> float:
        # a multiplication rounds correctly (the C library's pow does not);
        # a finite root whose square overflows raises, as a block masks it
        root = abs(complex(np.dot(self.coeffs, self.inst.fourier)))
        square = root * root
        if math.isinf(square) and math.isfinite(root):
            raise ValidationError(
                f"weighted left-hand side |sum c_i (x, y_i)|^2 overflows: |sum c_i (x, y_i)| = {root!r}"
            )
        return square

    @property
    def lhs_fourier(self) -> float:
        return self.fourier_stats.sum_a2


class EvalBlock(_Arrays):
    """Consecutive instances, all with coefficients, evaluated together: the
    statistics and left-hand sides of ``EvalContext``, each an array with a
    leading instance axis.  A block is given zero-padded stacks: each
    instance's bordered Gram matrix (Hermitian, as ``gram_of_family`` makes
    it) and coefficients, with its n; its combination and weighted
    left-hand sides, where a plan reads them; and ``instance``, which gives
    the (instance, coefficients) of the b-th one for a violation's payload.
    The statistics are ``GramStats`` and ``CoeffStats`` of the stacks,
    built on first use; like Python floats, they compute without numpy
    warnings.  The terms compute on them with the arithmetic of arrays.
    """

    def __init__(self, bordered, n, coeffs, instance, lhs_combination=None, lhs_weighted=None):
        self.bordered, self.n, self.instance = bordered, n, instance
        self.coeffs = _Block(coeffs, n)
        self.lhs_combination, self.lhs_weighted = lhs_combination, lhs_weighted

    def __len__(self) -> int:
        return len(self.n)

    @cached_property
    def gram_stats(self) -> GramStats:
        with np.errstate(all="ignore"):
            return GramStats(_Block(self.bordered[:, 1:, 1:], self.n))

    @cached_property
    def coeff_stats(self) -> CoeffStats:
        return CoeffStats(self.coeffs)

    @cached_property
    def fourier_stats(self) -> CoeffStats:
        with np.errstate(all="ignore"):
            return CoeffStats(_Block(self.bordered[:, 0, 1:], self.n))

    @property
    def x_norm_sq(self) -> np.ndarray:
        return self.bordered[:, 0, 0].real

    lhs_fourier = EvalContext.lhs_fourier


# Why a plan skips a row, by the ``need`` it has of an instance: none, an
# orthonormal family, or coefficients (every combination and weighted bound;
# no orthonormal-only bound reads them).
SKIP_REASONS = (None, "orthonormality gate", "requires coefficients")


class Plan:
    """A variant tuple compiled for evaluation on many instances.

    The rows are the distinct variants in the caller's order; ``order`` is
    the row of each entry of the tuple, ``weights`` counts the entries of
    each row, and ``name_rank`` is the place of each entry's name among the
    sorted names, by which rankings break ties.  The left-hand sides
    (``lhs_*`` attributes of ``EvalContext``) and the distinct (term,
    selector) pairs the rows read are numbered once.  A row is one entry of ``need``, ``lhs_index``,
    ``two_terms`` and ``weighted`` (its index in ``SKIP_REASONS``, its
    left-hand side, whether it adds two terms, whether ``x_norm_sq`` scales
    it) and a column of ``term_index`` (its first and last term);
    ``gated`` and ``scaled`` say whether any row is orthonormal-only or
    weighted, and ``instance_skips`` holds the four ways ``skips`` can come
    out on one instance, once per plan rather than per instance.  So
    ``columns`` computes each term and left-hand side once per instance,
    those of gated rows on every family (closed forms, which neither raise
    nor warn) and those read with coefficients only when there are some;
    ``gather`` then builds the rows from them, and ``evaluate`` is the two
    in turn.  A plan holds no callables, so it pickles as is.
    """

    def __init__(self, variants):
        rows: dict[Variant, int] = {}
        self.order = np.array([rows.setdefault(v, len(rows)) for v in variants], dtype=np.intp)
        self.variants = tuple(rows)
        self.names = tuple(v.name for v in self.variants)
        ranks = {name: k for k, name in enumerate(sorted(set(self.names)))}
        self.name_rank = np.array([ranks[self.names[k]] for k in self.order.tolist()], dtype=np.intp)
        self.weights = np.bincount(self.order, minlength=len(rows))
        need = [1 if v.orthonormal_only else 2 if v.requires_coeffs else 0 for v in self.variants]
        self.need = np.array(need, dtype=np.int8)
        lhs = {a: k for k, a in enumerate(dict.fromkeys("lhs_" + v.family for v in self.variants))}
        terms = {t: k for k, t in enumerate(dict.fromkeys(t for v in self.variants for t in v.terms))}
        self.lhs_attrs, self.terms = tuple(lhs), tuple(terms)
        # the rows that read one left-hand side or term all require coefficients, or none does
        reads = {item: v.requires_coeffs for v in self.variants for item in ("lhs_" + v.family, *v.terms)}
        self.lhs_coeffs, self.term_coeffs = [reads[a] for a in lhs], [reads[t] for t in terms]
        self.lhs_index = np.array([lhs["lhs_" + v.family] for v in self.variants], dtype=np.intp)
        self.term_index = np.array([[terms[v.terms[k]] for v in self.variants] for k in (0, -1)], dtype=np.intp)
        self.two_terms = np.array([len(v.terms) == 2 for v in self.variants], dtype=bool)
        self.weighted = np.array([v.family == "weighted" for v in self.variants], dtype=bool)
        self.gated, self.scaled = bool((self.need == 1).any()), bool(self.weighted.any())
        # one instance's skips, by (gate failed, no coefficients): each need unmet or not
        unmet = np.array([[[False, gate, bare] for bare in (False, True)] for gate in (False, True)])
        self.instance_skips = self.need * unmet[..., self.need]
        self.instance_skips.setflags(write=False)

    def skips(self, ctx: EvalContext | EvalBlock) -> np.ndarray:
        """Each row's index in SKIP_REASONS on this instance, 0 where it is
        checked, found without evaluating anything (read-only, one of the
        plan's four ``instance_skips``); for a block, one row of them per
        instance."""
        if not isinstance(ctx, EvalBlock):
            # ints: numpy reads a bool index as a mask
            gate = self.gated and not ctx.gram_stats.orthonormal_within()
            return self.instance_skips[int(gate), int(ctx.coeffs is None)]
        unmet = np.zeros((len(ctx), 3), dtype=bool)
        if self.gated:
            unmet[:, 1] = np.logical_not(ctx.gram_stats.orthonormal_within())
        return self.need * unmet[:, self.need]

    def columns(self, ctx: EvalContext | EvalBlock, tuned=None) -> tuple[np.ndarray, np.ndarray]:
        """``(terms, sides)``: each distinct term's value and each left-hand
        side, NaN where only coefficients give one and there are none; for a
        block, (instances, terms) and (instances, lhs) arrays.  ``tuned``, a
        function of (context, ``_TERMS`` key), gives each holder slot's term
        in place of its value at the slot's exponent."""
        bare = ctx.coeffs is None
        sides = [math.nan if bare and c else getattr(ctx, a) for a, c in zip(self.lhs_attrs, self.lhs_coeffs)]
        # the terms compute as Python floats do, which never warn
        with np.errstate(all="ignore"):
            values = [
                math.nan if bare and c
                else tuned(ctx, key) if tuned and sel and sel.kind == "holder"
                else _TERMS[key](ctx, sel)
                for (key, sel), c in zip(self.terms, self.term_coeffs)
            ]
        return np.array(values, dtype=np.float64).T, np.array(sides, dtype=np.float64).T

    def gather(self, terms: np.ndarray, sides: np.ndarray, x_norm_sq=None) -> tuple[np.ndarray, np.ndarray]:
        """``(lhs, rhs)`` for every row from the ``columns`` of one instance,
        or of any slice of a block's instances, with their ``x_norm_sq``
        where weighted rows read it: one gather, one masked add and one
        masked multiply."""
        with np.errstate(all="ignore"):
            rhs, second = terms[..., self.term_index[0]], terms[..., self.term_index[1]]
            np.add(rhs, second, out=rhs, where=self.two_terms)
            if self.scaled:
                np.multiply(rhs, np.asarray(x_norm_sq)[..., None], out=rhs, where=self.weighted)
        return sides[..., self.lhs_index], rhs

    def evaluate(self, ctx: EvalContext | EvalBlock, tuned=None) -> tuple[np.ndarray, np.ndarray]:
        """``(lhs, rhs)`` for every row, meaning nothing where ``skips`` skips
        it; for a block, arrays of (instances, rows), each instance's row bit
        for bit its own evaluation.  ``tuned`` is as in ``columns``."""
        return self.gather(*self.columns(ctx, tuned), ctx.x_norm_sq if self.scaled else None)

    def check(self, ctx: EvalContext, policy: TolerancePolicy) -> list[BoundEvaluation | str]:
        """Each variant of the caller's tuple, in its order: its evaluation, in
        Python floats and bools, or the reason it is skipped."""
        lhs, rhs = self.evaluate(ctx)
        skips = self.skips(ctx)
        with np.errstate(over="ignore", invalid="ignore"):
            slack, holds = rhs - lhs, policy.holds(lhs, rhs)
        rows = [
            SKIP_REASONS[s] if s else BoundEvaluation(v, *sides)
            for v, s, *sides in zip(self.variants, *(a.tolist() for a in (skips, lhs, rhs, slack, holds)))
        ]
        return [rows[k] for k in self.order.tolist()]


class _PlanCache:
    """``plan_for(variants)``: the plan of a variant sequence, built once for
    equal tuples (a build costs more than an evaluation), and ``cache_clear``.

    Equal tuples, a list of the same variants and unpickled copies all find
    the one plan through an ``lru_cache`` keyed by the tuple, which hashes
    every variant on each lookup.  A caller that passes the same tuple object
    again, as a rank over a fixed catalog does, gets the plan it got last
    without that hashing: the last tuple and its plan are kept as one pair,
    so the tuple cannot die and its id be reused while it is the key.
    """

    def __init__(self):
        self._plans = lru_cache(maxsize=256)(Plan)
        self._last = (None, None)

    def __call__(self, variants) -> Plan:
        last, plan = self._last
        if variants is last:
            return plan
        plan = self._plans(tuple(variants))
        if type(variants) is tuple:        # a list may change before the next call
            self._last = (variants, plan)
        return plan

    def cache_clear(self) -> None:
        self._plans.cache_clear()
        self._last = (None, None)


plan_for = _PlanCache()


def evaluate_variant(
    variant: Variant,
    inst: ProblemInstance | VectorFamily | GramMatrix | np.ndarray,
    coeffs=None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> BoundEvaluation:
    """Evaluate any catalog variant on an instance.

    Combination and weighted variants need ``coeffs``; Fourier variants
    derive their coefficients internally as ``conj((x, y_i))``.  A
    combination variant also takes a ``VectorFamily``, a ``GramMatrix`` or a
    raw Gram array in place of the ``ProblemInstance``; a weighted or
    Fourier variant reads x, so given no instance it raises
    ``ValidationError``.  Raises :class:`IncompatibleInstanceError` when
    coefficients are missing or an orthonormal-only variant meets a
    non-orthonormal family, and ``ValidationError`` when given coefficients
    are of the wrong length or not all finite, whatever the variant.
    """
    if not isinstance(inst, ProblemInstance):
        if variant.family != "combination":
            raise ValidationError(f"{variant.name} reads x, so it needs a problem instance")
        if coeffs is None:
            raise IncompatibleInstanceError(SKIP_REASONS[2])
    ev = plan_for((variant,)).check(EvalContext(inst, coeffs), policy)[0]
    if isinstance(ev, str):
        raise IncompatibleInstanceError(ev)
    return ev


def combination_norm_sq(coeffs, family_or_gram) -> float:
    """Squared norm of ``sum_i coeffs[i] * z_i`` via the Gram double sum,
    cross-checked as ``EvalContext.lhs_combination`` checks it, on anything
    an ``EvalContext`` takes."""
    return EvalContext(family_or_gram, coeffs).lhs_combination


def remark4_quantities(family_or_gram) -> tuple[float, float]:
    """The two competing off-diagonal weights: the ordered 2-norm A and
    ``(n - 1) * max`` B.  Their ordering depends on the family, so neither of
    the bounds they complete dominates the other.  Requires n >= 2.
    """
    gs = EvalContext(family_or_gram).gram_stats
    if gs.n < 2:
        raise ValidationError(f"need at least 2 vectors, got {gs.n}")
    return gs.norm_off(2.0), (gs.n - 1) * gs.max_off


# The two positive scalar triples whose off-diagonal weights A and B order
# differently, which demo-remark prints.
_CANONICAL_TRIPLES = ((1.0, 1.0, 1.0), (1.0, 0.5, 1.0))


def remark_comparison_rows() -> list[tuple[tuple[float, float, float], float, float]]:
    """The two canonical scalar triples with their (A, B) values.

    (1, 1, 1) gives A = sqrt(6) > B = 2; (1, 1/2, 1) gives A = sqrt(3) < B = 2.
    """
    return [(t, *remark4_quantities(VectorFamily(np.array([[v] for v in t])))) for t in _CANONICAL_TRIPLES]
