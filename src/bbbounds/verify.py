"""Seeded instance generation and catalog-wide inequality checking.

The harness contract is determinism: an instance is a pure function of
``(master_seed, index)``, every check is a pure function of its inputs, and a
suite report is a pure function of ``(config, variants, policy)``.  Violations
are collected with full instance payloads rather than raised; a violated
inequality is the most valuable output the suite can produce, since every
bound in the catalog is a theorem.

Checks read the plan of their variants (``bounds.plan_for``): one row for
``check_variant``, and a whole suite's rows for blocks of consecutive
instances (``bounds.EvalBlock``).  ``_Tally`` evaluates a block's terms and
left-hand sides once (``Plan.columns``), then gathers, judges and reduces
its (instances, rows) arrays a slice of at most ``_BLOCK_ENTRIES`` entries
at a time, which the tests hold to ``VariantTotals.record``.  A block holds
the instances whose own arrays take at most ``_BLOCK_BYTES``: on the full
catalog, over a thousand one-vector families, a few hundred of the default
stream's, four of 64 vectors in 128 dimensions.  So the fixed cost of a block is paid rarely,
memory stays flat as the count grows, and where the blocks and slices are
cut changes no output bit.

The suite generates a block at a time (``_blocks``), with the bits that
``generate_instance`` and ``EvalContext`` give one instance at a time.  It
seeds a chunk of indices at once (``_seeded``): a numpy uint32
transcription of ``SeedSequence`` hashes ``[master_seed, index]`` for the
whole chunk, each PCG64 state follows in closed form, and one reused
generator is set to it, the state ``SeedSequence`` gives, bit for bit.
``generate_instance`` keeps ``SeedSequence`` (``_rng_for``), which is
faster for one index and is the oracle the tests hold the chunks to.  Per
instance run only its seeded draws (``_draw``, which ``generate_instance``
uses too: its integers and one ``standard_normal`` call) and the BLAS
products whose bits depend on its shape.  With ``v`` the rows x, y_1, ...,
y_n, ``c`` the coefficients, ``Y`` the family, ``f`` the Fourier vector
and ``G`` the family's block of the bordered Gram, which both sides of a
combination check read, those are the bordered Gram ``v @ v.conj().T``
(into a zero-padded stack), ``c @ Y`` and its ``vdot``,
``c @ G @ conj(c)``, ``|c| @ |G| @ |c|`` and ``dot(c, f)``.  Everything
entry by entry runs once per block: the scaling of the draws, the
Hermitian part (``space._hermitian_part``), the finiteness checks, the
checks of the Gram double sum (``space._double_sum_faults``), ``|x|^2``,
the Fourier vectors, ``np.hypot`` and the weighted side's Python float
power.  If an instance fails a check, the first that does is generated
again through ``generate_instance`` and ``EvalContext``, which raise the
error they always have; a violation's payload is its instance, generated
again likewise.  Otherwise the suite calls neither ``generate_instance``
nor ``gram_of_family`` nor ``combination_norm_sq``, so the spans that the
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
    _Arrays,
    _first,
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


# numpy's SeedSequence (numpy/random/bit_generator.pyx) under its own names:
# the pool size and the hash constants; and PCG64's 128-bit LCG multiplier.
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

# The indices whose seeds are hashed together; memory stays flat.
_SEED_CHUNK = 512


def _words(value: int) -> list[int]:
    """The 32-bit words, least significant first, that SeedSequence splits
    a nonnegative int into (0 is one word)."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _pcg64_states(entropy: list[np.ndarray]) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``PCG64(SeedSequence(words))`` starts
    in, for each column of ``entropy``, a list of uint32 arrays: the k-th
    array holds the k-th entropy word of every column.  The uint32 arrays
    wrap as SeedSequence's uint32 arithmetic does; the hash constants do not
    depend on the data, so they are Python ints."""
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * MIX_MULT_L - y * MIX_MULT_R
        return result ^ (result >> 16)

    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into four uint64s, the first two the state, the last two
    # the stream
    const = INIT_B
    words = []
    for k in range(8):
        value = pool[k % POOL_SIZE] ^ const
        const = const * MULT_B & _MASK32
        value = value * const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    states = []
    for s_hi, s_lo, q_hi, q_lo in zip(*(((words[2 * k + 1] << 32) | words[2 * k]).tolist() for k in range(4))):
        # pcg64_set_seed: inc = 2 initseq + 1, and two LCG steps from state 0
        # with initstate added between them
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & _MASK128, inc))
    return states


def _seeded(config: GenConfig, start: int, stop: int):
    """Each index of ``start`` to ``stop`` with one reused generator, in the
    state that ``_rng_for`` gives that index, bit for bit.  The seeds of a
    chunk of indices are hashed together; a chunk never straddles a multiple
    of 2**32, so its indices share their high words and their word count."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    first = start
    while first < stop:
        last = min(stop, first + _SEED_CHUNK, ((first >> 32) + 1) << 32)
        # [master_seed, index] as words: the seed's, the index's low word, its high ones
        low = np.arange(last - first, dtype=np.uint32) + (first & _MASK32)
        high = _words(first >> 32) if first >> 32 else []
        entropy = [np.full(len(low), w, dtype=np.uint32) for w in _words(config.master_seed)] + [low]
        entropy += [np.full(len(low), w, dtype=np.uint32) for w in high]
        for index, (state, inc) in zip(range(first, last), _pcg64_states(entropy)):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield index, rng
        first = last


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


def _draw(config: GenConfig, index: int, rng: np.random.Generator) -> _Draw:
    """The draws of instance ``index`` from ``rng``, in the state that
    ``_rng_for`` gives it: its integers, then one call of
    ``standard_normal``, which gives the values that consecutive calls for x,
    the family and the coefficients did."""
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
    draw = _draw(config, index, _rng_for(config, index))
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
        """Judge and fold the instances ``start``, ``start + 1``, ... of
        ``block``: its terms at once, its rows a slice of instances at a time."""
        plan = self.plan
        terms, sides = plan.columns(block)
        x_norm_sq, skips = block.x_norm_sq, plan.skips(block)
        step = max(1, _BLOCK_ENTRIES // max(1, len(plan.names)))     # a plan may have no rows
        for lo in range(0, len(block), step):
            hi = lo + step
            lhs, rhs = plan.gather(terms[lo:hi], sides[lo:hi], x_norm_sq[lo:hi])
            checked = skips[lo:hi] == 0
            with np.errstate(invalid="ignore", over="ignore"):
                holds = policy.holds(lhs, rhs)
                slack = rhs - lhs
                rel = np.where(rhs > lhs, rhs, lhs)                     # max(lhs, rhs, 1e-300)
                np.copyto(rel, 1e-300, where=1e-300 > rel)
                np.divide(slack, rel, out=rel)
            mins, nans = zip(*(_first_minima(sample, checked) for sample in (slack, rel)))
            self._fold(np.stack(mins), np.stack(nans), checked.any(axis=0))
            self.checked += checked.sum(axis=0)
            self.held += (checked & holds).sum(axis=0)
            payloads: dict[int, dict] = {}
            for b, k in zip(*(checked & ~holds).nonzero()):
                if b not in payloads:
                    payloads[b] = instance_to_jsonable(*block.instance(lo + int(b)))
                violation = {
                    "instance_id": start + lo + int(b),
                    "variant": plan.names[k],
                    "lhs": float(lhs[b, k]),
                    "rhs": float(rhs[b, k]),
                    "slack": float(slack[b, k]),
                    "instance": payloads[b],
                }
                self.violations.extend([violation] * int(plan.weights[k]))
        self.instances += len(block)

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


# The (instances, rows) sides, verdicts and slacks are judged a slice of at
# most _BLOCK_ENTRIES entries at a time.  A block holds instances whose own
# arrays take at most _BLOCK_BYTES, which _blocks counts per instance as the
# sum of its packed entries with their normals (32 bytes an entry) and,
# padded to the block's widest family of w vectors, its bordered Gram with
# the real arrays read from it (32 bytes an entry of (w + 1)^2), its
# coefficients (16 w), its pair statistics (56 bytes a pair: magnitudes,
# sorted and scaled, and powers) and the plan's term columns (24 bytes a
# term, with the power-sum roots they read) and skips (a byte a row).  Four
# instances of 64 vectors in 128 dimensions fit, so that a block's fixed
# cost stays small beside its instances' own work on wide families too.
_BLOCK_ENTRIES = 8192
_BLOCK_BYTES = 2 * 2**20


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
        direct = np.empty(count)
        for b, (nb, x0, c0) in enumerate(zip(n.tolist(), starts[:, 0].tolist(), starts[:, 2].tolist())):
            v = z[x0:c0].reshape(nb + 1, -1)                 # x, then the family's rows
            np.matmul(v, v.conj().T, out=bordered[b, : nb + 1, : nb + 1])
            if combination:
                summed = coeffs[b, :nb] @ v[1:]
                direct[b] = np.vdot(summed, summed).real
        del z
        bordered = _hermitian_part(bordered)
        # a non-finite entry of x or of a family vector makes the Gram matrix non-finite too
        bad = ~np.isfinite(bordered).all(axis=(1, 2))
        if combination:
            family = bordered[:, 1:, 1:]                    # each instance's family_gram
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
            bad |= ~np.isfinite(coeffs).all(axis=1)
            for fault in _double_sum_faults(value, mass, direct):
                bad |= fault
            lhs["lhs_combination"] = _Arrays.max(value.real, 0.0)
        if weighted:
            roots = np.hypot(dots.real, dots.imag)
            try:
                lhs["lhs_weighted"] = _Arrays.pow(roots, 2.0)
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
    columns = 24 * len(plan.terms) + len(plan.names)
    draws: list[_Draw] = []
    width = packed = 0
    for index, rng in _seeded(config, start, stop):
        draw = _draw(config, index, rng)
        own = 32 * ((draw.n + 1) * draw.d + draw.n)
        w = max(width, draw.n)
        padded = 32 * (w + 1) ** 2 + 16 * w + 56 * (w * (w - 1) // 2) + columns
        if draws and (len(draws) + 1) * padded + packed + own > _BLOCK_BYTES:
            first = index - len(draws)
            yield first, _generated_block(config, first, draws, sides)
            width = packed = 0
        draws.append(draw)
        width, packed = max(width, draw.n), packed + own
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
    contiguous index ranges, tallied by at most one forked process per
    available CPU and merged in index order, so the output does not depend
    on the parallelism level or on where the blocks are cut; ``jobs`` < 1
    raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = plan_for(tuple(variants))
    ranges = min(jobs, config.count)
    edges = [config.count * k // ranges for k in range(ranges + 1)]
    spans = list(zip(edges, edges[1:]))
    if ranges > 1:
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor

        # no more workers than the CPUs this process may run on; fork, not
        # spawn: a spawned worker re-imports the caller's main module, which
        # fails in a script without a __main__ guard; the pool forks all its
        # workers before it starts its manager thread.
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        with ProcessPoolExecutor(min(ranges, cpus), mp_context=multiprocessing.get_context("fork")) as pool:
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
