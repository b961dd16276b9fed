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
    plan_for,
    remark4_quantities,
)
from .space import ProblemInstance, VectorFamily, instance_to_jsonable
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


def _draw(rng: np.random.Generator, shape, complex_field: bool, scale: float) -> np.ndarray:
    re = rng.standard_normal(shape)
    if complex_field:
        return (re + 1j * rng.standard_normal(shape)) * scale
    return (re * scale).astype(np.complex128)


# The two positive scalar triples whose off-diagonal weights A and B order
# differently: the structured stream opens with them, and demo-remark prints them.
_CANONICAL_TRIPLES = ((1.0, 1.0, 1.0), (1.0, 0.5, 1.0))


def _structured_triple(rng: np.random.Generator, index: int, scale: float) -> tuple[float, float, float]:
    if index < len(_CANONICAL_TRIPLES):
        return _CANONICAL_TRIPLES[index]
    return tuple(float(abs(v)) * scale for v in rng.standard_normal(3))


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
    rng = _rng_for(config, index)
    if config.structured_families and (index < 2 or index % 2 == 0):
        triple = _structured_triple(rng, index, config.scale)
        x = (rng.standard_normal(1) * config.scale).astype(np.complex128)
        fam = np.array([[v] for v in triple], dtype=np.complex128)
        coeffs = (rng.standard_normal(3) * config.scale).astype(np.complex128)
        inst = ProblemInstance.from_vectors(x, fam, field_mode="real")
        return inst, coeffs
    n_lo, n_hi = config.n_range
    d_lo, d_hi = config.d_range
    n = int(rng.integers(n_lo, n_hi + 1))
    d = int(rng.integers(d_lo, d_hi + 1))
    if config.field_mode == "both":
        field_mode = "complex" if rng.integers(0, 2) else "real"
    else:
        field_mode = config.field_mode
    complex_field = field_mode == "complex"
    x = _draw(rng, d, complex_field, config.scale)
    fam = _draw(rng, (n, d), complex_field, config.scale)
    coeffs = _draw(rng, n, complex_field, config.scale)
    inst = ProblemInstance.from_vectors(x, fam, field_mode=field_mode)
    return inst, coeffs


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
                ctx = block.contexts[b]
                payloads[b] = instance_to_jsonable(ctx.inst, ctx.coeffs)
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


def _tally_range(config: GenConfig, plan: Plan, policy: TolerancePolicy, start: int, stop: int) -> _Tally:
    """The tally of instances ``start`` to ``stop``, each generated and given
    its left-hand sides in index order (so the first one to raise is the
    same as one instance at a time), then evaluated in blocks."""
    tally = _Tally(plan)
    # the Fourier side is a statistic of the block; the other two may raise
    sides = [attr for attr in plan.lhs_attrs if attr != "lhs_fourier"]
    block: list[EvalContext] = []
    width = 0
    for index in range(start, stop):
        ctx = EvalContext(*generate_instance(config, index))
        for attr in sides:
            getattr(ctx, attr)
        n = ctx.inst.n
        entries = max(len(plan.names), n, n * (n - 1) // 2)
        if block and (len(block) + 1) * max(width, entries) > _BLOCK_ENTRIES:
            tally.add(index - len(block), EvalBlock(block), policy)
            block, width = [], 0
        block.append(ctx)
        width = max(width, entries)
    if block:
        tally.add(stop - len(block), EvalBlock(block), policy)
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
