"""The bound catalog: one table row per bound, keyed by its name pattern.

Each right-hand side is the sum of one or two shared terms of the
per-instance statistics (``_TERMS``: the diagonal term, the off-diagonal
term, a closed form, ...), times ``|x|^2`` for a weighted bound.  A row of
``_SPECS`` gives the wire-name pattern, the row's only key, whose braces
mark the exponent slots (a selector pair, ``p``, or none); the family, i.e.
which left-hand side the bound caps; the ``_TERMS`` keys of the terms it
sums, the first fed by the slots in order (what exponent tuning minimizes);
and the orthonormal-only flag.  Validation, names, parsing and the catalog
below, evaluation in ``bounds`` and tuning in ``tuning`` all derive from the
table, so a new bound is one row listing the terms its right-hand side sums.

A selector picks how a diagonal (``|c_i|^2 |z_i|^2``) or ordered off-diagonal
term is bounded: factor out the max, split by conjugate exponents (holder),
or factor out the other side's max.  A ``p`` slot is a holder selector shared
by the whole bound.  The terms read only ``coeff_stats``, ``gram_stats``,
``fourier_stats`` and ``x_norm_sq`` of the statistics, of one instance
(``bounds.EvalContext``) or of a block of them (``bounds.EvalBlock``), and
compute with their ``sqrt``, ``pow``, ``min`` and ``zero_where``.

Names are stable strings used verbatim by the CLI and in reports, e.g.
``lemma21:holder:2.0:max`` or ``cor32:3:p=1.5``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product, zip_longest

__all__ = [
    "EXPONENT_MAX",
    "DEFAULT_EXPONENTS",
    "VariantError",
    "conjugate_exponent",
    "Selector",
    "MAX",
    "SUM",
    "holder",
    "Variant",
    "parse_variant",
    "parse_variant_list",
    "full_catalog",
]

# Conjugate-exponent domain: open at 1, capped where the power sums become
# numerically indistinguishable from the max-selector limit.
EXPONENT_MAX = 64.0

DEFAULT_EXPONENTS = (1.25, 1.5, 2.0, 3.0, 4.0)


class VariantError(ValueError):
    """Unknown variant name, malformed selector, or exponent out of domain."""


def _check_exponent(value) -> float:
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise VariantError(f"exponent must be a number, got {value!r}") from None
    if not (1.0 < p <= EXPONENT_MAX):
        raise VariantError(f"exponent must lie in (1, {EXPONENT_MAX:g}], got {value!r}")
    return p


def conjugate_exponent(p: float) -> float:
    """The q with 1/p + 1/q = 1."""
    return p / (p - 1.0)


@dataclass(frozen=True)
class Selector:
    """One branch choice for a diagonal or off-diagonal term.

    A holder selector stores its ``conjugate`` exponent when it is made
    (``conjugate_exponent(exponent)``, the same bits), since the terms read
    it at every evaluation; reading ``conjugate`` on a max or sum selector
    raises VariantError.  ``conjugate`` is not a field: equality, hash, repr
    and the pickled state are those of ``(kind, exponent)``.  ``holder(p)``
    makes the same object without the dataclass machinery, for the tuner,
    which makes one per evaluation.
    """

    kind: str                     # "max" | "holder" | "sum"
    exponent: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("max", "holder", "sum"):
            raise VariantError(f"unknown selector kind {self.kind!r}")
        if self.kind == "holder":
            object.__setattr__(self, "exponent", _check_exponent(self.exponent))
            object.__setattr__(self, "conjugate", conjugate_exponent(self.exponent))
        elif self.exponent is not None:
            raise VariantError(f"selector {self.kind!r} does not take an exponent")

    @cached_property
    def conjugate(self) -> float:
        # read only where the instance stores none: on a max or sum
        # selector, and on a holder unpickled from its two fields
        if self.kind != "holder":
            raise VariantError(f"selector {self.kind!r} has no conjugate exponent")
        return conjugate_exponent(self.exponent)

    def __getstate__(self) -> dict:
        return {"kind": self.kind, "exponent": self.exponent}

    @property
    def name(self) -> str:
        if self.kind == "holder":
            return f"holder:{self.exponent!r}"
        return self.kind

    def __str__(self) -> str:
        return self.name


MAX = Selector("max")
SUM = Selector("sum")


def holder(p: float) -> Selector:
    """``Selector("holder", p)``, with the same exponent check and error, made
    by filling the frozen instance's attributes directly: a fraction of the
    dataclass constructor's cost."""
    p = _check_exponent(p)
    sel = object.__new__(Selector)
    sel.__dict__.update(kind="holder", exponent=p, conjugate=conjugate_exponent(p))
    return sel


# ---------------------------------------------------------------------------
# Terms: functions of (statistics, selector)
# ---------------------------------------------------------------------------

# Each term runs unchanged on one instance's statistics, Python floats, and
# on a block's, float64 arrays with a leading instance axis, and gives each
# instance the same bits on both.  IEEE arithmetic (+, -, *, /) agrees
# between the two; the rest goes through the statistics' own ``sqrt``,
# ``pow`` (Python's float power; on a block ``np.float_power``, which takes
# it entry by entry with the C library's ``pow``, where float64 ``np.power``
# differs in the last bit), ``min`` (Python's tie and NaN rules) and
# ``zero_where``.  A zero guard returns 0.0
# early on one instance, as an ``if``, and is a mask on a block
# (``zero_where``), which computes the value on every instance first: an inf
# times the guarded zero would be NaN.


def _diag_value(s, sel: Selector) -> float:
    """Bound on ``sum |a_i|^2 |z_i|^2``."""
    cs, gs = s.coeff_stats, s.gram_stats
    if sel.kind == "max":
        return cs.max_a2 * gs.sum_diag
    if sel.kind == "sum":
        return cs.sum_a2 * gs.max_diag
    return cs.norm_a2(sel.exponent) * gs.norm_diag(sel.conjugate)


def _offdiag_value(s, sel: Selector) -> float:
    """Bound on the ordered cross-term sum ``sum_{i != j} |a_i a_j (z_i, z_j)|``;
    zero when every off-diagonal entry vanishes (n <= 1 included)."""
    cs, gs = s.coeff_stats, s.gram_stats
    zero = gs.max_off == 0.0
    if zero is True:
        return 0.0
    if sel.kind == "max":
        value = cs.top2_prod * gs.sum_off
    elif sel.kind == "sum":
        value = cs.sum_bracket * gs.max_off
    else:
        value = cs.holder_bracket_root(sel.exponent) * gs.norm_off(sel.conjugate)
    return s.zero_where(zero, value)


def _coarse_offdiag_value(s, sel: Selector) -> float:
    """The cross-term bound with the coefficient factors replaced by
    (n-1)-weighted diagonal power sums."""
    cs, gs = s.coeff_stats, s.gram_stats
    zero = gs.max_off == 0.0
    if zero is True:
        return 0.0
    if sel.kind == "max":
        value = cs.max_a2 * gs.sum_off
    elif sel.kind == "sum":
        value = (gs.n - 1) * cs.sum_a2 * gs.max_off
    else:
        g = sel.exponent
        value = s.pow(gs.n - 1, 1.0 / g) * cs.norm_a2(g) * gs.norm_off(sel.conjugate)
    return s.zero_where(zero, value)


def _aligned_coarse(s, sel: Selector) -> float:
    """The coarse bound with one selector in both slots (the specials)."""
    return _diag_value(s, sel) + _coarse_offdiag_value(s, sel)


def _cor23_sharp(s, _) -> float:
    cs, gs = s.coeff_stats, s.gram_stats
    zero = cs.sum_a2 == 0.0
    if zero is True:
        return 0.0
    # sqrt((sum a^2)^2 - sum a^4) is the pair bracket root at exponent 2;
    # its coefficient is at most 1, so clamp rounding to keep sharp <= weak.
    ratio = s.min(cs.holder_bracket_root(2.0) / cs.sum_a2, 1.0)
    return s.zero_where(zero, cs.sum_a2 * (gs.max_diag + ratio * gs.norm_off(2.0)))


def _cor23_weak(s, _) -> float:
    cs, gs = s.coeff_stats, s.gram_stats
    zero = cs.sum_a2 == 0.0
    if zero is True:
        return 0.0
    return s.zero_where(zero, cs.sum_a2 * (gs.max_diag + gs.norm_off(2.0)))


# The Fourier bounds read ``fourier_stats``, the magnitudes |(x, y_i)|.


def _boas_bellman(s, _) -> float:
    gs = s.gram_stats
    return s.x_norm_sq * (gs.max_diag + gs.norm_off(2.0))


def _fourier_41(s, _) -> float:
    gs = s.gram_stats
    return s.sqrt(s.x_norm_sq) * s.fourier_stats.max_a * s.sqrt(gs.sum_diag + gs.sum_off)


def _fourier_43(s, sel: Selector) -> float:
    gs, n = s.gram_stats, s.gram_stats.n
    p, q = sel.exponent, sel.conjugate
    # (sum |f|^(2p))^(1/(2p))
    f_root = s.sqrt(s.fourier_stats.norm_a2(p))
    zero = n < 2
    tail = 0.0 if zero is True else s.zero_where(zero, s.pow(n - 1, 1.0 / p) * gs.norm_off(q))
    return s.sqrt(s.x_norm_sq) * f_root * s.sqrt(gs.norm_diag(q) + tail)


def _fourier_45(s, _) -> float:
    gs = s.gram_stats
    # (n - 1) * max_off is 0.0 when n = 1, where max_off is 0.0
    return s.x_norm_sq * (gs.max_diag + (gs.n - 1) * gs.max_off)


def _ortho_42(s, _) -> float:
    return s.sqrt(s.gram_stats.n) * s.sqrt(s.x_norm_sq) * s.fourier_stats.max_a


def _ortho_44(s, sel: Selector) -> float:
    f_root = s.sqrt(s.fourier_stats.norm_a2(sel.exponent))
    return s.pow(s.gram_stats.n, 1.0 / sel.conjugate) * s.sqrt(s.x_norm_sq) * f_root


# The terms an exponent slot can feed come first: each is a valid bound, or
# part of one, at every selector, so tuning may minimize it (PROFILE_FAMILIES
# in tuning names those profiled whole).  The closed forms take None.
_TERMS = {
    "lemma21:diag": _diag_value,
    "lemma21:offdiag": _offdiag_value,
    "coarse:offdiag": _coarse_offdiag_value,
    "coarse": _aligned_coarse,
    "cor32:3": lambda s, sel: s.x_norm_sq * _aligned_coarse(s, sel),   # profiled; no row reads it
    "bb:4.3": _fourier_43,
    "ortho:4.4": _ortho_44,
    "cor23:sharp": _cor23_sharp,
    "cor23:weak": _cor23_weak,
    "special:2.11": lambda s, _: _aligned_coarse(s, MAX),
    "special:2.13": lambda s, _: _aligned_coarse(s, SUM),
    "bb:1.2": _boas_bellman,
    "bb:4.1": _fourier_41,
    "bb:4.5": _fourier_45,
    "ortho:4.2": _ortho_42,
    "bessel:1.1": lambda s, _: s.x_norm_sq,
}


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


# How each slot appears in a wire name: a selector is max, sum or holder:<p>.
_SLOT_FORMS = {"diag": "holder:[^:]*|[^:]*", "offdiag": "holder:[^:]*|[^:]*", "p": "[^:]*"}


class _Spec:
    """One row of the catalog table; the module docstring lists the columns."""

    def __init__(self, pattern, family, terms, orthonormal_only=False):
        self.pattern = pattern
        self.family = family
        self.terms = terms
        self.orthonormal_only = orthonormal_only
        # the pattern as a regular expression with one named group per slot
        self.regex = re.compile(
            re.sub(r"\\\{(\w+)\\\}", lambda m: f"(?P<{m[1]}>{_SLOT_FORMS[m[1]]})", re.escape(pattern))
        )
        self.slots = tuple(self.regex.groupindex)


C, W, F = "combination", "weighted", "fourier"    # the families

# In catalog order: full_catalog expands the rows in turn.
_SPECS = (
    _Spec("lemma21:{diag}:{offdiag}", C, ("lemma21:diag", "lemma21:offdiag")),
    _Spec("coarse:{diag}:{offdiag}", C, ("lemma21:diag", "coarse:offdiag")),
    _Spec("thm31:{diag}:{offdiag}", W, ("lemma21:diag", "lemma21:offdiag")),
    _Spec("cor23:sharp", C, ("cor23:sharp",)),
    _Spec("cor23:weak", C, ("cor23:weak",)),
    _Spec("special:2.11", C, ("special:2.11",)),
    _Spec("special:2.13", C, ("special:2.13",)),
    _Spec("special:2.12:p={p}", C, ("coarse",)),
    _Spec("cor32:1", W, ("cor23:weak",)),
    _Spec("cor32:2", W, ("special:2.11",)),
    _Spec("cor32:4", W, ("special:2.13",)),
    _Spec("cor32:3:p={p}", W, ("coarse",)),
    _Spec("bb:1.2", F, ("bb:1.2",)),
    _Spec("bb:4.1", F, ("bb:4.1",)),
    _Spec("bb:4.5", F, ("bb:4.5",)),
    _Spec("bb:4.3:p={p}", F, ("bb:4.3",)),
    _Spec("ortho:4.2", F, ("ortho:4.2",), orthonormal_only=True),
    _Spec("ortho:4.4:p={p}", F, ("ortho:4.4",), orthonormal_only=True),
    _Spec("bessel:1.1", F, ("bessel:1.1",), orthonormal_only=True),
)

_SPEC_OF = {spec.pattern: spec for spec in _SPECS}


@dataclass(frozen=True)
class Variant:
    """A bound identifier: its row's pattern and the values of the pattern's
    slots, e.g. ``Variant("cor32:3:p={p}", p=1.5)``.

    ``spec`` is its row of the catalog table, and ``terms`` pairs each term's
    ``_TERMS`` key with its slot's selector (``p`` as ``holder(p)``) or None.
    """

    pattern: str
    diag: Selector | None = None
    offdiag: Selector | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        spec = _SPEC_OF.get(self.pattern)
        if spec is None:
            raise VariantError(f"unknown variant pattern {self.pattern!r}")
        for slot in ("diag", "offdiag", "p"):
            given = getattr(self, slot) is not None
            if given != (slot in spec.slots):
                raise VariantError(f"variant {self.pattern!r} {'does not take' if given else 'needs'} {slot}")
        if self.p is not None:
            object.__setattr__(self, "p", _check_exponent(self.p))
        sels = [holder(self.p) if slot == "p" else getattr(self, slot) for slot in spec.slots]
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", tuple(zip_longest(spec.terms, sels)))

    @property
    def family(self) -> str:
        """"combination", "weighted", or "fourier" (which lhs the bound caps)."""
        return self.spec.family

    @property
    def requires_coeffs(self) -> bool:
        return self.family in ("combination", "weighted")

    @property
    def orthonormal_only(self) -> bool:
        return self.spec.orthonormal_only

    @cached_property
    def name(self) -> str:
        return self.spec.pattern.format(diag=self.diag, offdiag=self.offdiag, p=self.p)

    def __hash__(self) -> int:
        # equal variants have equal names; a string caches its own hash, so
        # hashing a plan's variant tuple does not walk the fields again
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


def _parse_float(tok: str, text: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise VariantError(f"{text!r}: {tok!r} is not a number") from None


def _parse_selector(tok: str, text: str) -> Selector:
    kind, _, exponent = tok.partition(":")
    return holder(_parse_float(exponent, text)) if kind == "holder" else Selector(kind)


def parse_variant(text: str) -> Variant:
    """Parse a wire-format variant name; inverse of ``Variant.name``."""
    name = text.strip()
    for spec in _SPECS:
        m = spec.regex.fullmatch(name)
        if m:
            args = {
                slot: _parse_float(tok, text) if slot == "p" else _parse_selector(tok, text)
                for slot, tok in m.groupdict().items()
            }
            return Variant(spec.pattern, **args)
    raise VariantError(f"unknown variant name {text!r}")


def full_catalog(exponents: tuple[float, ...] = DEFAULT_EXPONENTS) -> tuple[Variant, ...]:
    """The complete bound catalog with every exponent slot instantiated.

    Each conjugate-exponent slot (selector or p parameter) is expanded over
    ``exponents``; with the five defaults this yields 179 variants.
    """
    exps = tuple(_check_exponent(p) for p in exponents)
    sels = (MAX,) + tuple(holder(p) for p in exps) + (SUM,)
    choices = {"diag": sels, "offdiag": sels, "p": exps}
    return tuple(
        Variant(spec.pattern, **dict(zip(spec.slots, values)))
        for spec in _SPECS
        for values in product(*(choices[slot] for slot in spec.slots))
    )


def parse_variant_list(
    text: str, exponents: tuple[float, ...] = DEFAULT_EXPONENTS
) -> tuple[Variant, ...]:
    """Parse a comma-separated variant list; ``all`` expands the full catalog."""
    if text.strip() == "all":
        return full_catalog(exponents)
    names = [t for t in (s.strip() for s in text.split(",")) if t]
    if not names:
        raise VariantError("empty variant list")
    return tuple(parse_variant(n) for n in names)
