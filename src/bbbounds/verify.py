"""Seeded instance generation and catalog-wide inequality checking.

The harness contract is determinism: an instance is a pure function of
``(master_seed, index)``, every check is a pure function of its inputs, and a
suite report is a pure function of ``(config, variants, policy)``.  Violations
are collected with full instance payloads rather than raised; a violated
inequality is the most valuable output the suite can produce, since every
bound in the catalog is a theorem.  A report's JSON is what
``json.dumps(..., indent=2, sort_keys=True)`` writes of ``to_jsonable``;
``SuiteReport.to_json`` writes each variant's block itself, since the
indenting encoder of ``json`` is pure Python, and the tests hold the two to
the same bytes.

Checks read the plan of their variants (``bounds.plan_for``): a whole
suite's rows, for blocks of consecutive instances (``bounds.EvalBlock``).
``_Tally`` evaluates a block's terms and left-hand sides once
(``Plan.columns``), then gathers, judges and reduces its (instances, rows)
arrays a slice of at most ``_BLOCK_ENTRIES`` entries at a time, which the
tests hold to ``VariantTotals.record``.  A block holds
the instances whose own arrays take at most ``_BLOCK_BYTES``: on the full
catalog, about 850 one-vector families, a few hundred of the default
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
uses too: n, d and the field from raw words, as ``Generator.integers``
reads them, and one ``standard_normal`` call).  The BLAS products whose
bits depend on an instance's shape run per shape group, one stacked
``np.matmul`` for the block's instances of one shape, whose slices run
through the routine, shapes and inner strides of each instance's own call.
With ``v`` the rows x, y_1, ..., y_n, ``c`` the coefficients, ``Y`` the
family, ``f`` the Fourier vector and ``G`` the family's block of the
bordered Gram, which both sides of a combination check read, those are, per
(n, d), the bordered Gram ``v @ v.conj().T`` (into a zero-padded stack),
``c @ Y`` and its squared norm, and per n, ``c @ G @ conj(c)``,
``|c| @ |G| @ |c|`` and ``c @ f``.  Everything entry by entry runs once per
block: the scaling of the draws, the Hermitian part
(``space._hermitian_part``), the finiteness checks, the checks of the Gram
double sum (``bounds._double_sum_faults``), ``|x|^2``, the Fourier vectors,
``np.hypot`` and the square of the weighted side.  If an instance
fails a check, the first that does is generated again through
``generate_instance`` and ``EvalContext``, which raise the error they
always have; a violation's payload is its instance, generated again
likewise.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import (
    DEFAULT_POLICY,
    EvalBlock,
    EvalContext,
    Plan,
    TolerancePolicy,
    _Arrays,
    _double_sum_faults,
    _first,
    plan_for,
)
from .space import ProblemInstance, _hermitian_part, instance_to_jsonable
from .variants import Variant

__all__ = [
    "GenConfig",
    "generate_instance",
    "VariantTotals",
    "SuiteReport",
    "run_suite",
]


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the seeded instance stream."""

    n_range: tuple[int, int] = (1, 8)
    d_range: tuple[int, int] = (1, 8)
    field_mode: str = "both"          # "real" | "complex" | "both"
    scale: float = 1.0
    master_seed: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        n_lo, n_hi = self.n_range
        d_lo, d_hi = self.d_range
        if not (1 <= n_lo <= n_hi):
            raise ValueError(f"empty or invalid n_range {self.n_range}")
        if not (1 <= d_lo <= d_hi):
            raise ValueError(f"empty or invalid d_range {self.d_range}")
        if n_hi - n_lo >= 2**32 or d_hi - d_lo >= 2**32:
            raise ValueError("n_range and d_range may span at most 2**32 values each")
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


class _Draw(NamedTuple):
    """The seeded draws of one instance: its n, d and field, and its standard
    normal values in the order its entries read them (x, the family's rows,
    the coefficients; in the complex field each of the three draws its real
    parts, then its imaginary parts)."""

    n: int
    d: int
    field_mode: str
    normals: np.ndarray


def _bounded(bit_generator: np.random.BitGenerator, ranges) -> list[int]:
    """``int(Generator.integers(lo, hi + 1))`` for each ``(lo, hi)`` of
    ``ranges`` in turn, from a bit generator with no buffered half-word, bit
    for bit: numpy's buffered 32-bit Lemire draw (``random_bounded_uint64_fill``
    in numpy/random/src/distributions), which ``GenConfig`` keeps its ranges
    to.  Each 32-bit draw reads the low half of a new raw word, or the high
    half that the draw before it left; a range of one value draws nothing;
    a draw whose low product falls below ``2**32 % width`` is drawn again."""
    values, half = [], None
    for lo, hi in ranges:
        width = hi - lo + 1
        if width > 1:
            while True:
                if half is None:
                    word = bit_generator.random_raw()
                    value, half = word & _MASK32, word >> 32
                else:
                    value, half = half, None
                product = value * width
                if (product & _MASK32) >= 2**32 % width:
                    break
            lo += product >> 32
        values.append(lo)
    return values


def _draw(config: GenConfig, index: int, rng: np.random.Generator) -> _Draw:
    """The draws of instance ``index`` from ``rng``, in the state that
    ``_rng_for`` gives it: n, d and the field coin, read from raw words as
    ``Generator.integers`` reads them (``_bounded``), then one call of
    ``standard_normal``, which gives the values that consecutive calls for x,
    the family and the coefficients did."""
    if config.field_mode == "both":
        n, d, coin = _bounded(rng.bit_generator, (config.n_range, config.d_range, (0, 1)))
        field_mode = "complex" if coin else "real"
    else:
        n, d = _bounded(rng.bit_generator, (config.n_range, config.d_range))
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
    return out, (np.cumsum(lengths) - lengths).reshape(-1, 3)


def generate_instance(config: GenConfig, index: int) -> tuple[ProblemInstance, np.ndarray]:
    """The instance and coefficient vector at position ``index`` of the stream.

    Components are standard normal per real/imaginary part, times
    ``config.scale``.
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


# Not called here: bench/tracer.py wraps this name by attribute, as it does
# the names kept in tuning, until it wraps Plan.evaluate instead.
_eval_on_context = None


@dataclass
class VariantTotals:
    checked: int = 0
    held: int = 0
    violated: int = 0
    skipped: int = 0
    min_slack: float = float("nan")
    min_rel_slack: float = float("nan")

    def record(self, lhs: float, rhs: float, slack: float, holds: bool) -> None:
        """Count one check and fold its slack and relative slack into the
        minima, which a NaN sample (an overflowed ``inf - inf``) enters
        neither of; of equal samples the earliest is kept."""
        self.checked += 1
        if holds:
            self.held += 1
        else:
            self.violated += 1
        rel = slack / max(lhs, rhs, 1e-300)
        if slack == slack and not (self.min_slack <= slack):      # also true while the minimum is NaN
            self.min_slack = slack
        if rel == rel and not (self.min_rel_slack <= rel):
            self.min_rel_slack = rel


# The tokens json.dumps writes for the floats whose float.__repr__ is not JSON
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    r = float.__repr__(x)
    return _JSON_FLOATS.get(r, r)


def _nested(doc, depth: int = 1) -> str:
    """``doc`` as json.dumps lays it out ``depth`` levels down."""
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _add_json_items(parts: list[str], brackets: str, items: Iterable[str]) -> None:
    """Add ``items``, laid out two levels down, to ``parts`` in their
    ``brackets``, one level down."""
    empty = True
    for item in items:
        parts += (brackets[0] + "\n    " if empty else ",\n    ", item)
        empty = False
    parts.append(brackets if empty else "\n  " + brackets[1])


@dataclass
class SuiteReport:
    """Totals per variant plus the full payload of every violation.

    ``to_jsonable`` is the report as a dict.  ``to_json`` writes it as
    ``json.dumps(..., indent=2, sort_keys=True)`` does, plus a newline:
    sorted keys, a two-space indent, ``NaN``, ``Infinity`` and
    ``-Infinity`` for non-finite floats, and ``null`` minima for a variant
    never checked.  It lays out each variant's totals itself, straight from
    its fields, and leaves only the config, the policy and each violation
    to ``json``, whose indenting encoder is pure Python.  ``to_csv`` writes
    one row per variant likewise, the minima as ``repr`` gives them.
    """

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
        return "variant,checked,held,violated,min_slack,min_rel_slack\n" + "".join([
            f"{name},{t.checked},{t.held},{t.violated},{t.min_slack!r},{t.min_rel_slack!r}\n"
            for name, t in sorted(self.totals.items())
        ])

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

    def _variants_json(self) -> Iterable[str]:
        for name, t in sorted(self.totals.items()):
            rel, low = (_json_float(t.min_rel_slack), _json_float(t.min_slack)) if t.checked else ("null", "null")
            yield (
                f'{encode_basestring_ascii(name)}: {{\n      "checked": {t.checked},\n      "held": {t.held},\n'
                f'      "min_rel_slack": {rel},\n      "min_slack": {low},\n'
                f'      "skipped": {t.skipped},\n      "violated": {t.violated}\n    }}'
            )

    def to_json(self) -> str:
        parts = ['{\n  "config": ', _nested(asdict(self.config)), ',\n  "policy": ', _nested(asdict(self.policy))]
        parts.append(',\n  "variants": ')
        _add_json_items(parts, "{}", self._variants_json())
        parts.append(',\n  "violations": ')
        # one violation at a time, so json holds the tokens of only one at once
        _add_json_items(parts, "[]", (_nested(v, 2) for v in self.violations))
        parts.append("\n}\n")
        return "".join(parts)


def _first_minima(samples: np.ndarray, checked: np.ndarray) -> np.ndarray:
    """The minimum that ``VariantTotals.record`` folds from each column of
    (instances, rows) samples: over the checked samples that are not NaN,
    the earliest of those equal to it, which tells 0.0 from -0.0.  NaN where
    none is left."""
    masked = np.where(checked, samples, np.nan)
    low = np.fmin.reduce(masked, axis=0)
    zero = (low == 0.0).nonzero()[0]
    if zero.size:
        low[zero] = masked[(masked[:, zero] == 0.0).argmax(axis=0), zero]
    return low


# What a block holds for ``Plan.columns`` and ``Plan.skips`` alone: its
# statistics, built on first use, and its stacks.
_READ_BY_COLUMNS = ("gram_stats", "coeff_stats", "fourier_stats", "bordered", "coeffs", "lhs_combination", "lhs_weighted")


class _Tally:
    """A plan's checks over one contiguous range of instances, added a block
    of consecutive instances at a time, judged by ``TolerancePolicy.holds``
    and reduced as (instances, rows) arrays on the rows that each instance
    does not skip, with the results of ``VariantTotals.record`` fed the
    checks one at a time: a NaN sample enters neither minimum."""

    def __init__(self, plan: Plan):
        rows = len(plan.names)
        self.plan = plan
        self.instances = 0
        self.checked = np.zeros(rows, dtype=np.int64)
        self.held = np.zeros(rows, dtype=np.int64)
        self.mins = np.full((2, rows), np.nan)       # min slack, min relative slack
        self.violations: list[dict] = []

    def add(self, start: int, block: EvalBlock, policy: TolerancePolicy) -> None:
        """Judge and fold the instances ``start``, ``start + 1``, ... of
        ``block``: its terms at once, its rows a slice of instances at a time."""
        plan = self.plan
        terms, sides = plan.columns(block)
        x_norm_sq, skips = block.x_norm_sq.copy(), plan.skips(block)
        # the rows read only these: the statistics and stacks are freed before they are judged
        for attr in _READ_BY_COLUMNS:
            vars(block).pop(attr, None)
        step = max(1, _BLOCK_ENTRIES // len(plan.names))              # run_suite gives a plan with rows
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
            self._fold(np.stack([_first_minima(sample, checked) for sample in (slack, rel)]))
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

    def _fold(self, later_mins: np.ndarray) -> None:
        """Fold in the minima of the checks right after these: a later
        minimum below this one, or any where this one is NaN, replaces it."""
        with np.errstate(invalid="ignore"):
            np.copyto(self.mins, later_mins, where=np.isnan(self.mins) | (later_mins < self.mins))

    def merge(self, later: "_Tally") -> None:
        """Fold in the tally of the instances right after these: the same
        result as one tally over both ranges."""
        self._fold(later.mins)
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
# sorted and scaled, and powers) and the plan's term columns and skips (a
# byte a row).  A term counts 40 bytes: its column, the list the columns are
# stacked from and the power sums and roots they read take about 25 on
# one-vector blocks, whose terms are most of what they hold, and the margin
# keeps their traced peak no higher than that of wide families, now that
# _Tally.add frees a block's statistics and stacks once they are read.  Four
# instances of 64 vectors in 128 dimensions fit, so that a block's fixed
# cost stays small beside its instances' own work on wide families too.
_BLOCK_ENTRIES = 8192
_BLOCK_BYTES = 2 * 2**20


def _groups(keys: Iterable) -> Iterable[tuple]:
    """Each distinct key of a block's instances, in order of first
    appearance, with its instances: a slice where they are consecutive, so
    that their slots of the block's stacks are views, or else an index
    array."""
    groups: dict = {}
    for b, key in enumerate(keys):
        groups.setdefault(key, []).append(b)
    for key, members in groups.items():
        first, last = members[0], members[-1]
        yield key, slice(first, last + 1) if last - first + 1 == len(members) else np.array(members)


def _generated_block(config: GenConfig, first: int, draws: list[_Draw], sides: list[str]) -> EvalBlock:
    """The block of the instances ``first``, ``first + 1``, ... drawn as
    ``draws``, with the left-hand sides ``sides`` and the checks that
    ``generate_instance`` and ``EvalContext`` make, bit for bit.  The
    products whose bits depend on an instance's shape (BLAS) run once per
    shape group: one stacked ``np.matmul`` per (n, d) for the bordered Gram
    and for ``c @ Y``, and per n for the double sums and the Fourier dot,
    which runs each slice through the routine, shapes and inner strides of
    that instance's own call.  A group of consecutive instances writes
    through views of its slots, and one of one instance reads a view of its
    packed entries too.  Everything entry by entry runs once on the
    zero-padded stacks.  If an instance fails a check, the
    first that does is generated alone, which raises its error.  Empties
    ``draws``, as ``_entries`` does."""
    combination, weighted = "lhs_combination" in sides, "lhs_weighted" in sides
    count = len(draws)
    shapes = [(dr.n, dr.d) for dr in draws]
    n = np.array([nb for nb, _ in shapes])
    width = int(n.max())
    lhs = {}
    with np.errstate(all="ignore"):
        z, starts = _entries(config, draws)
        coeffs = np.zeros((count, width), dtype=np.complex128)
        coeffs[_first(n, width)] = z[np.arange(n.sum()) + np.repeat(starts[:, 2] - (np.cumsum(n) - n), n)]
        bordered = np.zeros((count, width + 1, width + 1), dtype=np.complex128)
        direct = np.empty(count)
        for (nb, db), group in _groups(shapes):
            size = (nb + 1) * db                            # x, then the family's rows
            x0 = starts[group, :1]
            if len(x0) == 1:
                v = z[x0[0, 0] : x0[0, 0] + size].reshape(1, nb + 1, db)
            else:
                v = z[x0 + np.arange(size)].reshape(-1, nb + 1, db)
            if isinstance(group, slice):
                np.matmul(v, v.conj().transpose(0, 2, 1), out=bordered[group, : nb + 1, : nb + 1])
            else:
                bordered[group, : nb + 1, : nb + 1] = v @ v.conj().transpose(0, 2, 1)
            if combination:
                summed = coeffs[group, None, :nb] @ v[:, 1:]
                # conj(s) @ s runs the BLAS dot of np.vdot(s, s) on conj(s), unconjugated: the same real part
                direct[group] = (summed.conj() @ summed.transpose(0, 2, 1))[:, 0, 0].real
        del z
        bordered = _hermitian_part(bordered)
        # a non-finite entry of x or of a family vector makes the Gram matrix non-finite too
        bad = ~np.isfinite(bordered).all(axis=(1, 2))
        if combination:
            family = bordered[:, 1:, 1:]                    # each instance's family_gram
            conj, magnitudes, family_magnitudes = coeffs.conj(), np.abs(coeffs), np.abs(family)
            value, mass = np.empty(count, dtype=np.complex128), np.empty(count)
        dots = np.empty(count, dtype=np.complex128)
        for nb, group in _groups(n.tolist()) if combination or weighted else ():
            c = coeffs[group, None, :nb]
            if combination:
                value[group] = (c @ family[group, :nb, :nb] @ conj[group, :nb, None])[:, 0, 0]
                a = magnitudes[group, None, :nb]
                mass[group] = (a @ family_magnitudes[group, :nb, :nb] @ magnitudes[group, :nb, None])[:, 0, 0]
            if weighted:
                dots[group] = (c @ bordered[group, 0, 1 : nb + 1, None])[:, 0, 0]    # with the Fourier vector
        if combination:
            bad |= ~np.isfinite(coeffs).all(axis=1)
            for fault in _double_sum_faults(value, mass, direct):
                bad |= fault
            lhs["lhs_combination"] = _Arrays.max(value.real, 0.0)
        if weighted:
            roots = np.hypot(dots.real, dots.imag)
            lhs["lhs_weighted"] = square = roots * roots
            # where a finite root's square overflows, as EvalContext.lhs_weighted raises
            bad |= np.isinf(square) & np.isfinite(roots)
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
    columns = 40 * len(plan.terms) + len(plan.names)
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
    bit for bit, as ``bounds.evaluate_variant`` on each instance folded
    through ``VariantTotals.record``.  ``jobs`` > 1 splits the stream into
    that many contiguous index ranges, tallied by at most one forked process
    per available CPU and merged in index order, so the output does not
    depend on the parallelism level or on where the blocks are cut; ``jobs``
    < 1 raises ValueError.  With no variants, the report is the header alone,
    and no instance is drawn.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plan = plan_for(tuple(variants))
    if not plan.names:
        return SuiteReport(config, policy)          # the header alone; nothing to draw
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

