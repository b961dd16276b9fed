"""Seeded instance generation and catalog-wide inequality checking.

The harness contract is determinism: an instance is a pure function of
``(master_seed, index)``, every check is a pure function of its inputs, and a
suite report is a pure function of ``(config, variants, policy)``.  Violations
are collected with full instance payloads rather than raised; a violated
inequality is the most valuable output the suite can produce, since every
bound in the catalog is a theorem.

Checks read the plan of their variants (``bounds.plan_for``): one row for
``check_variant``, and a whole suite's rows for blocks of consecutive
instances (``bounds.EvalBlock``), judged and reduced as (instances, rows)
arrays by ``_Tally``, which the tests hold to ``VariantTotals.record``.  A
block holds the instances of at most ``_BLOCK_ENTRIES`` padded entries, so
memory stays flat as the count grows; where the blocks are cut changes no
output bit.

The suite generates a block at a time (``_blocks``), with the bits that
``generate_instance`` and ``EvalContext`` give one instance at a time.  Per
instance run only its seeded draws (``_draw``, which ``generate_instance``
uses too: the instance's own generator, its integers and one
``standard_normal`` call) and the BLAS products whose bits depend on its
shape.  With ``v`` the rows x, y_1, ..., y_n, ``Y`` the family, ``G`` its
Gram matrix, ``c`` the coefficients and ``f`` the Fourier vector, those are
the bordered Gram ``v @ v.conj().T``, the family Gram, ``c @ Y`` and its
``vdot``, ``c @ G @ conj(c)``, ``|c| @ |G| @ |c|`` and ``dot(c, f)``; the
Gram matrices go into zero-padded stacks.  Everything entry by entry runs
once per block: the scaling of the draws, the Hermitian part
(``space._hermitian_part``), the finiteness checks, the checks of the Gram
double sum (``space._double_sum_faults``), ``|x|^2``, the Fourier vectors,
``np.hypot`` and the weighted side's Python float power.  If an instance
fails a check, the first that does is generated again through
``generate_instance`` and ``EvalContext``, which raise the error they always
have; a violation's payload is its instance, generated again likewise.
Otherwise the suite calls neither ``generate_instance`` nor
``gram_of_family`` nor ``combination_norm_sq``, so the spans that the
benchmark's tracer records under those names no longer cover the suite's
instances.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import (
    BoundEvaluation,
    DEFAULT_POLICY,
    EvalBlock,
    EvalContext,
    Plan,
    TolerancePolicy,
    _first,
    _max,
    _pow,
    plan_for,
    remark4_quantities,
)
from .space import ProblemInstance, VectorFamily, _double_sum_faults, _hermitian_part, instance_to_jsonable
from .variants import Variant

__all__ = [
    "GenConfig",
    "generate_instance",
    "VerificationResult",
    "check_variant",
    "VariantTotals",
    "SuiteReport",
    "run_suite",
    "RemarkWitness",
    "SearchBudgetError",
    "search_incomparability",
    "remark_comparison_rows",
]


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the seeded instance stream."""

    n_range: tuple[int, int] = (1, 8)
    d_range: tuple[int, int] = (1, 8)
    field_mode: str = "both"          # "real" | "complex" | "both"
    scale: float = 1.0
    structured_families: bool = False
    master_seed: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        n_lo, n_hi = self.n_range
        d_lo, d_hi = self.d_range
        if not (1 <= n_lo <= n_hi):
            raise ValueError(f"empty or invalid n_range {self.n_range}")
        if not (1 <= d_lo <= d_hi):
            raise ValueError(f"empty or invalid d_range {self.d_range}")
        if self.field_mode not in ("real", "complex", "both"):
            raise ValueError(f"unknown field_mode {self.field_mode!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 unsigned bits")


def _rng_for(config: GenConfig, index: int) -> np.random.Generator:
    # Counter-mode derivation: hashing (seed, index) makes any instance
    # reproducible in isolation, so evaluation order and parallelism cannot
    # change the stream.
    return np.random.default_rng(np.random.SeedSequence([config.master_seed, index]))


# The two positive scalar triples whose off-diagonal weights A and B order
# differently: the structured stream opens with them, and demo-remark prints them.
_CANONICAL_TRIPLES = ((1.0, 1.0, 1.0), (1.0, 0.5, 1.0))


class _Draw(NamedTuple):
    """The seeded draws of one instance: its n, d and field, and its standard
    normal values in the order its entries read them (x, the family's rows,
    the coefficients; in the complex field each of the three draws its real
    parts, then its imaginary parts).  ``triple`` is a canonical family, whose
    entries are not scaled: its values stand in the normals as placeholders."""

    n: int
    d: int
    field_mode: str
    normals: np.ndarray
    triple: tuple | None = None


def _draw(config: GenConfig, index: int) -> _Draw:
    """The draws of instance ``index``: its own generator's integers, then one
    call of ``standard_normal``, which gives the values that consecutive calls
    for x, the family and the coefficients did."""
    rng = _rng_for(config, index)
    if config.structured_families and (index < 2 or index % 2 == 0):
        # a positive scalar triple as one column, drawn before x and the coefficients
        if index < len(_CANONICAL_TRIPLES):
            triple = _CANONICAL_TRIPLES[index]
            t = rng.standard_normal(4)
            return _Draw(3, 1, "real", np.concatenate([t[:1], triple, t[1:]]), triple)
        t = rng.standard_normal(7)
        return _Draw(3, 1, "real", np.concatenate([t[3:4], np.abs(t[:3]), t[4:]]))
    n_lo, n_hi = config.n_range
    d_lo, d_hi = config.d_range
    n = int(rng.integers(n_lo, n_hi + 1))
    d = int(rng.integers(d_lo, d_hi + 1))
    if config.field_mode == "both":
        field_mode = "complex" if rng.integers(0, 2) else "real"
    else:
        field_mode = config.field_mode
    size = (n + 1) * d + n
    return _Draw(n, d, field_mode, rng.standard_normal(2 * size if field_mode == "complex" else size))


def _entries(config: GenConfig, draws: list[_Draw]) -> tuple[np.ndarray, np.ndarray]:
    """The complex entries of consecutive instances packed in one array, each
    instance's x, family rows and coefficients in turn, scaled as the
    generator always has (``(re + 1j * im) * scale`` in the complex field,
    ``re * scale`` with a zero imaginary part in the real one, entry by
    entry, so the packing changes no bit); and where each instance's x,
    family and coefficients start, one row per instance.  Empties ``draws``,
    so their normals are freed once packed."""
    n = np.array([dr.n for dr in draws])
    d = np.array([dr.d for dr in draws])
    lengths = np.stack([d, n * d, n], axis=1).ravel()          # the three pieces of each instance
    complex_piece = np.repeat([dr.field_mode == "complex" for dr in draws], 3)
    triples = [(b, dr.triple) for b, dr in enumerate(draws) if dr.triple is not None]
    normals = np.concatenate([dr.normals for dr in draws])
    draws.clear()
    # a complex piece draws its real parts, then its imaginary parts
    real_part = np.repeat(np.tile([True, False], len(lengths)), np.stack([lengths, lengths * complex_piece], axis=1).ravel())
    re = normals[real_part]
    complex_entry = np.repeat(complex_piece, lengths)
    im = np.zeros(len(re))
    im[complex_entry] = normals[~real_part]
    del normals
    # in place, the complex field's (re + 1j * im) * scale, then the real field's re * scale
    out = 1j * im
    del im
    np.add(re, out, out=out)
    out *= config.scale
    re *= config.scale
    np.copyto(out, re, where=~complex_entry)
    starts = (np.cumsum(lengths) - lengths).reshape(-1, 3)
    for b, triple in triples:
        out[starts[b, 1] : starts[b, 2]] = triple
    return out, starts


def generate_instance(config: GenConfig, index: int) -> tuple[ProblemInstance, np.ndarray]:
    """The instance and coefficient vector at position ``index`` of the stream.

    Components are standard normal per real/imaginary part, times
    ``config.scale``.  With structured families enabled, indices 0 and 1 are
    the two canonical positive scalar triples (1, 1, 1) and (1, 1/2, 1), and
    every later even index is a random positive scalar triple; odd indices
    stay generic so the stream keeps covering the full shape space.
    """
    if not 0 <= index < config.count:
        raise ValueError(f"index {index} outside [0, {config.count})")
    draw = _draw(config, index)
    with np.errstate(over="ignore"):        # a non-finite entry is reported by the checks below
        z, _ = _entries(config, [draw])
    rows = (draw.n + 1) * draw.d
    vectors = z[:rows].reshape(draw.n + 1, draw.d)
    inst = ProblemInstance.from_vectors(vectors[0], vectors[1:], field_mode=draw.field_mode)
    return inst, z[rows:].copy()


class VerificationResult(NamedTuple):
    instance_id: int
    variant: str
    evaluation: BoundEvaluation | None  # None when the variant was skipped
    skip_reason: str | None

    @property
    def skipped(self) -> bool:
        return self.evaluation is None


# Not called here: bench/tracer.py wraps this name by attribute, as it does
# the names kept in tuning, until it wraps Plan.evaluate instead.
_eval_on_context = None


def check_variant(
    variant: Variant,
    inst: ProblemInstance,
    coeffs=None,
    policy: TolerancePolicy = DEFAULT_POLICY,
    instance_id: int = 0,
) -> VerificationResult:
    """Evaluate one variant on one instance; incompatibilities become skips."""
    ev = plan_for((variant,)).check(EvalContext(inst, coeffs), policy)[0]
    if isinstance(ev, str):
        return VerificationResult(instance_id, variant.name, None, ev)
    return VerificationResult(instance_id, variant.name, ev, None)


@dataclass
class VariantTotals:
    checked: int = 0
    held: int = 0
    violated: int = 0
    skipped: int = 0
    min_slack: float = float("nan")
    min_rel_slack: float = float("nan")

    def record(self, lhs: float, rhs: float, slack: float, holds: bool) -> None:
        self.checked += 1
        if holds:
            self.held += 1
        else:
            self.violated += 1
        rel = slack / max(lhs, rhs, 1e-300)
        if not (self.min_slack <= slack):      # also true on the first sample
            self.min_slack = slack
        if not (self.min_rel_slack <= rel):
            self.min_rel_slack = rel


@dataclass
class SuiteReport:
    """Totals per variant plus the full payload of every violation."""

    config: GenConfig
    policy: TolerancePolicy
    totals: dict[str, VariantTotals] = field(default_factory=dict)
    violations: list[dict] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return sum(t.checked for t in self.totals.values())

    @property
    def violated(self) -> int:
        return sum(t.violated for t in self.totals.values())

    def to_csv(self) -> str:
        lines = ["variant,checked,held,violated,min_slack,min_rel_slack"]
        for name in sorted(self.totals):
            t = self.totals[name]
            lines.append(
                f"{name},{t.checked},{t.held},{t.violated},"
                f"{repr(t.min_slack)},{repr(t.min_rel_slack)}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "config": asdict(self.config),
            "policy": asdict(self.policy),
            # the minima of a variant never checked are null, not NaN
            "variants": {
                name: {k: None if t.checked == 0 and k.startswith("min_") else v for k, v in vars(t).items()}
                for name, t in sorted(self.totals.items())
            },
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True) + "\n"


def _first_minima(samples: np.ndarray, checked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimum that ``VariantTotals.record`` folds from each column of
    (instances, rows) samples, where checked, starting from NaN, and whether
    a NaN sample was met.  A NaN sample restarts the fold, so only the samples
    after a column's last NaN count; of those equal to their minimum, the
    earliest is kept, which tells 0.0 from -0.0.  NaN where none is left."""
    nan = checked & np.isnan(samples)
    met = nan.any(axis=0)
    live = checked
    if met.any():
        count = len(samples)
        last = np.where(met, count - 1 - nan[::-1].argmax(axis=0), -1)
        live = checked & (np.arange(count)[:, None] > last)
    masked = np.where(live, samples, np.inf)
    low = masked.min(axis=0)
    zero = (low == 0.0).nonzero()[0]
    if zero.size:
        low[zero] = masked[(masked[:, zero] == 0.0).argmax(axis=0), zero]
    return np.where(live.any(axis=0), low, np.nan), met


class _Tally:
    """A plan's checks over one contiguous range of instances, added a block
    of consecutive instances at a time, judged by ``TolerancePolicy.holds``
    and reduced as (instances, rows) arrays on the rows that each instance
    does not skip, with the results of ``VariantTotals.record`` fed the
    checks one at a time.  ``nan_seen`` marks the minima whose fold met a
    NaN sample, after which the next sample restarts it."""

    def __init__(self, plan: Plan):
        rows = len(plan.names)
        self.plan = plan
        self.instances = 0
        self.checked = np.zeros(rows, dtype=np.int64)
        self.held = np.zeros(rows, dtype=np.int64)
        self.mins = np.full((2, rows), np.nan)       # min slack, min relative slack
        self.nan_seen = np.zeros((2, rows), dtype=bool)
        self.violations: list[dict] = []

    def add(self, start: int, block: EvalBlock, policy: TolerancePolicy) -> None:
        """Judge and fold the instances ``start``, ``start + 1``, ... of ``block``."""
        plan = self.plan
        skips, lhs, rhs = plan.evaluate(block)
        checked = skips == 0
        with np.errstate(invalid="ignore", over="ignore"):
            holds = policy.holds(lhs, rhs)
            slack = rhs - lhs
            rel = np.where(rhs > lhs, rhs, lhs)                     # max(lhs, rhs, 1e-300)
            np.copyto(rel, 1e-300, where=1e-300 > rel)
            np.divide(slack, rel, out=rel)
        mins, nans = zip(*(_first_minima(sample, checked) for sample in (slack, rel)))
        self._fold(np.stack(mins), np.stack(nans), checked.any(axis=0))
        self.instances += len(block)
        self.checked += checked.sum(axis=0)
        self.held += (checked & holds).sum(axis=0)
        failed = checked & ~holds
        payloads: dict[int, dict] = {}
        for b, k in zip(*failed.nonzero()):
            if b not in payloads:
                payloads[b] = instance_to_jsonable(*block.instance(int(b)))
            violation = {
                "instance_id": start + int(b),
                "variant": plan.names[k],
                "lhs": float(lhs[b, k]),
                "rhs": float(rhs[b, k]),
                "slack": float(slack[b, k]),
                "instance": payloads[b],
            }
            self.violations.extend([violation] * int(plan.weights[k]))

    def _fold(self, later_mins: np.ndarray, later_nan: np.ndarray, later_checked: np.ndarray) -> None:
        """Fold in the minima of the checks right after these: a later NaN, or
        a later minimum not above this one, replaces it."""
        with np.errstate(invalid="ignore"):
            replace = later_checked & (later_nan | ~(self.mins <= later_mins))
        np.copyto(self.mins, later_mins, where=replace)
        self.nan_seen |= later_nan

    def merge(self, later: "_Tally") -> None:
        """Fold in the tally of the instances right after these: the same
        result as one tally over both ranges."""
        self._fold(later.mins, later.nan_seen, later.checked > 0)
        self.instances += later.instances
        self.checked += later.checked
        self.held += later.held
        self.violations.extend(later.violations)

    def totals(self) -> dict[str, VariantTotals]:
        weights = self.plan.weights
        checked = (self.checked * weights).tolist()
        held = (self.held * weights).tolist()
        skipped = ((self.instances - self.checked) * weights).tolist()
        min_slack, min_rel = self.mins.tolist()
        return {
            name: VariantTotals(checked[k], held[k], checked[k] - held[k], skipped[k], min_slack[k], min_rel[k])
            for k, name in enumerate(self.plan.names)
        }


# A block holds at most this many padded entries in its widest array, by
# instance the larger of the plan's rows and its n (n - 1) / 2 off-diagonal
# magnitudes (or n): the (instances, rows) sides and verdicts and the power
# temporaries stay small whatever --count is.
_BLOCK_ENTRIES = 8192


def _square_overflows(root: float) -> bool:
    """Whether Python's ``root**2`` raises, as in ``EvalContext.lhs_weighted``."""
    try:
        root**2
    except OverflowError:
        return True
    return False


def _generated_block(config: GenConfig, first: int, draws: list[_Draw], sides: list[str]) -> EvalBlock:
    """The block of the instances ``first``, ``first + 1``, ... drawn as
    ``draws``, with the left-hand sides ``sides`` and the checks that
    ``generate_instance`` and ``EvalContext`` make, bit for bit.  Per
    instance run only the products whose bits depend on its shape (BLAS),
    each into its slot of a zero-padded stack; everything entry by entry
    runs once on the stacks.  If an instance fails a check, the first that
    does is generated alone, which raises its error.  Empties ``draws``, as
    ``_entries`` does."""
    combination, weighted = "lhs_combination" in sides, "lhs_weighted" in sides
    count = len(draws)
    n = np.array([dr.n for dr in draws])
    width = int(n.max())
    lhs = {}
    with np.errstate(all="ignore"):
        z, starts = _entries(config, draws)
        coeffs = np.zeros((count, width), dtype=np.complex128)
        coeffs[_first(n, width)] = z[np.arange(n.sum()) + np.repeat(starts[:, 2] - (np.cumsum(n) - n), n)]
        bordered = np.zeros((count, width + 1, width + 1), dtype=np.complex128)
        family = np.zeros((count, width, width), dtype=np.complex128) if combination else None
        direct = np.empty(count)
        for b, (nb, x0, c0) in enumerate(zip(n.tolist(), starts[:, 0].tolist(), starts[:, 2].tolist())):
            v = z[x0:c0].reshape(nb + 1, -1)                 # x, then the family's rows
            vh = v.conj().T
            np.matmul(v, vh, out=bordered[b, : nb + 1, : nb + 1])
            if combination:
                np.matmul(v[1:], vh[:, 1:], out=family[b, :nb, :nb])
                summed = coeffs[b, :nb] @ v[1:]
                direct[b] = np.vdot(summed, summed).real
        del z
        bordered = _hermitian_part(bordered)
        # a non-finite entry of x or of a family vector makes the Gram matrix non-finite too
        bad = ~np.isfinite(bordered).all(axis=(1, 2))
        if combination:
            family = _hermitian_part(family)
            conj, magnitudes, family_magnitudes = coeffs.conj(), np.abs(coeffs), np.abs(family)
            value, mass = np.empty(count, dtype=np.complex128), np.empty(count)
        dots = np.empty(count, dtype=np.complex128)
        for b, nb in enumerate(n.tolist() if combination or weighted else ()):
            c = coeffs[b, :nb]
            if combination:
                value[b] = c @ family[b, :nb, :nb] @ conj[b, :nb]
                mass[b] = magnitudes[b, :nb] @ family_magnitudes[b, :nb, :nb] @ magnitudes[b, :nb]
            if weighted:
                dots[b] = np.dot(c, bordered[b, 0, 1 : nb + 1])      # with the Fourier vector
        if combination:
            bad |= ~np.isfinite(coeffs).all(axis=1) | ~np.isfinite(family).all(axis=(1, 2))
            for fault in _double_sum_faults(value, mass, direct):
                bad |= fault
            lhs["lhs_combination"] = _max(value.real, 0.0)
        if weighted:
            roots = np.hypot(dots.real, dots.imag)
            try:
                lhs["lhs_weighted"] = _pow(roots, 2.0)
            except OverflowError:
                bad |= [_square_overflows(r) for r in roots.tolist()]
    if bad.any():
        index = first + int(bad.argmax())
        ctx = EvalContext(*generate_instance(config, index))
        for attr in sides:
            getattr(ctx, attr)
        raise AssertionError(f"instance {index} failed a check of its block but none of its own")
    return EvalBlock(bordered, n, coeffs, lambda b: generate_instance(config, first + b), **lhs)


def _blocks(config: GenConfig, plan: Plan, start: int, stop: int):
    """The instances ``start`` to ``stop`` as consecutive blocks, each with
    its first index, drawn and checked in index order (so the first instance
    to raise is the one that raises one instance at a time)."""
    # the Fourier side is a statistic of the block; the other two may raise
    sides = [attr for attr in plan.lhs_attrs if attr != "lhs_fourier"]
    draws: list[_Draw] = []
    width = 0
    for index in range(start, stop):
        draw = _draw(config, index)
        entries = max(len(plan.names), draw.n, draw.n * (draw.n - 1) // 2)
        if draws and (len(draws) + 1) * max(width, entries) > _BLOCK_ENTRIES:
            first = index - len(draws)
            yield first, _generated_block(config, first, draws, sides)
            width = 0
        draws.append(draw)
        width = max(width, entries)
    if draws:
        yield stop - len(draws), _generated_block(config, stop - len(draws), draws, sides)


def _tally_range(config: GenConfig, plan: Plan, policy: TolerancePolicy, start: int, stop: int) -> _Tally:
    """The tally of instances ``start`` to ``stop``, added a block at a time."""
    tally = _Tally(plan)
    for first, block in _blocks(config, plan, start, stop):
        tally.add(first, block, policy)
    return tally


def run_suite(
    config: GenConfig,
    variants: Iterable[Variant],
    policy: TolerancePolicy = DEFAULT_POLICY,
    jobs: int = 1,
) -> SuiteReport:
    """Check every compatible (instance, variant) pair in the stream.

    Each instance is generated and given its left-hand sides in index order;
    the plan of the variants (``bounds.plan_for``) then evaluates each
    distinct term once per block of consecutive instances, and ``_Tally``
    judges and reduces the block's checks as arrays, with the same results,
    bit for bit, as ``check_variant`` on each instance folded through
    ``VariantTotals.record``.  ``jobs`` > 1 splits the stream into that many
    contiguous index ranges, tallied in forked processes and merged in index
    order, so the output does not depend on the parallelism level or on
    where the blocks are cut; ``jobs`` < 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = plan_for(tuple(variants))
    ranges = min(jobs, config.count)
    edges = [config.count * k // ranges for k in range(ranges + 1)]
    spans = list(zip(edges, edges[1:]))
    if ranges > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker re-imports the caller's main
        # module, which fails in a script without a __main__ guard; the
        # pool forks all its workers before it starts its manager thread.
        with ProcessPoolExecutor(ranges, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_tally_range, config, plan, policy, a, b) for a, b in spans]
            tallies = [f.result() for f in futures]
    else:
        tallies = [_tally_range(config, plan, policy, 0, config.count)]
    tally = tallies[0]
    for later in tallies[1:]:
        tally.merge(later)
    report = SuiteReport(config, policy)
    report.totals = tally.totals()
    report.violations = sorted(tally.violations, key=lambda v: (v["instance_id"], v["variant"]))
    return report


class RemarkWitness(NamedTuple):
    instance_id: int
    a_value: float
    b_value: float
    instance: ProblemInstance


class SearchBudgetError(RuntimeError):
    """The search budget ran out before both orderings were witnessed."""


def search_incomparability(config: GenConfig) -> tuple[RemarkWitness, RemarkWitness]:
    """Find one instance with A > B and one with B > A.

    A is the ordered 2-norm of the off-diagonal Gram entries, B is
    ``(n - 1) * max``; exhibiting both orderings shows the two bounds they
    complete are incomparable.  With structured families enabled the two
    canonical triples at indices 0 and 1 settle the search deterministically.
    Raises :class:`SearchBudgetError` if the stream of ``config.count``
    instances does not contain both witnesses.
    """
    first_a: RemarkWitness | None = None
    first_b: RemarkWitness | None = None
    for index in range(config.count):
        inst, _ = generate_instance(config, index)
        if inst.n < 2:
            continue
        a, b = remark4_quantities(inst.family_gram)
        if a > b and first_a is None:
            first_a = RemarkWitness(index, a, b, inst)
        elif b > a and first_b is None:
            first_b = RemarkWitness(index, a, b, inst)
        if first_a and first_b:
            return first_a, first_b
    found = []
    if first_a:
        found.append("A > B")
    if first_b:
        found.append("B > A")
    raise SearchBudgetError(
        f"searched {config.count} instances, found only {found or 'neither ordering'}"
    )


def remark_comparison_rows() -> list[tuple[tuple[float, float, float], float, float]]:
    """The two canonical scalar triples with their (A, B) values.

    (1, 1, 1) gives A = sqrt(6) > B = 2; (1, 1/2, 1) gives A = sqrt(3) < B = 2.
    """
    rows = []
    for triple in _CANONICAL_TRIPLES:
        a, b = remark4_quantities(VectorFamily(np.array([[v] for v in triple])))
        rows.append((triple, a, b))
    return rows
