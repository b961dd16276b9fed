"""Inner-product space primitives: vectors, Gram matrices, problem instances.

Every bound evaluated by this package consumes only norms and pairwise inner
products, so the central object is the Gram matrix.  A problem instance
(reference vector ``x`` plus a family ``y_1..y_n``) therefore comes in two
interchangeable forms: explicit coordinate vectors, or a bordered Gram matrix
whose row/column 0 plays the role of ``x``.  The bordered form covers abstract
inner-product spaces without coordinates and loses no generality.

The scalar field is either the reals or the complexes.  Real-field data is
stored in complex arrays whose imaginary parts are exactly zero; the formulas
themselves are field-agnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_PSD_TOL",
    "ORACLE_REL_TOL",
    "ValidationError",
    "RankDeficiencyError",
    "VectorFamily",
    "GramMatrix",
    "ProblemInstance",
    "inner_product",
    "gram_of_family",
    "combination_norm_sq",
    "orthonormalize",
    "validate_instance",
    "instance_to_jsonable",
    "instance_from_jsonable",
    "save_instance",
    "load_instance",
]

# Relative PSD slack allowed for user-supplied Gram matrices (rounding noise).
DEFAULT_PSD_TOL = 1e-9

# Agreement required between the direct norm and the Gram double sum, relative
# to the absolute mass of the double sum (the natural rounding scale).
ORACLE_REL_TOL = 1e-10


class ValidationError(ValueError):
    """Input violates a structural invariant (shape, finiteness, Hermitian, PSD)."""


class RankDeficiencyError(ValidationError):
    """A vector family is linearly dependent beyond the requested tolerance."""


def _as_complex_vector(data, name: str = "vector") -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _require_real(arr: np.ndarray, what: str) -> None:
    if np.any(arr.imag != 0.0):
        raise ValidationError(f"real field mode requires zero imaginary parts in {what}")


def inner_product(u, v) -> complex:
    """Pairing ``sum_k u_k * conj(v_k)``: linear in u, conjugate-linear in v."""
    a = _as_complex_vector(u, "u")
    b = _as_complex_vector(v, "v")
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    # np.vdot conjugates its first argument.
    return complex(np.vdot(b, a))


@dataclass(frozen=True, eq=False)
class VectorFamily:
    """An ordered family of ``n`` vectors sharing ambient dimension ``dim``.

    ``n`` may be 0 or 1; degenerate families are legal inputs everywhere.
    """

    vectors: np.ndarray  # (n, dim) complex128, read-only

    def __post_init__(self) -> None:
        arr = np.array(self.vectors, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValidationError(f"family must be a 2-d array, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValidationError("ambient dimension must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("family contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @classmethod
    def from_rows(cls, rows, dim: int | None = None) -> "VectorFamily":
        """Build a family from an iterable of equal-length vectors.

        ``dim`` is required when ``rows`` is empty (an empty array carries no
        dimension information).  A 2-d array is converted and checked in
        one pass instead of row by row, with the same errors.
        """
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[0]:
            arr = np.asarray(rows, dtype=np.complex128)
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValidationError(f"family vector {i} contains non-finite entries")
        else:
            rows = list(rows)
            if not rows:
                if dim is None:
                    raise ValidationError("empty family needs an explicit dim")
                return cls(np.zeros((0, dim), dtype=np.complex128))
            vecs = [_as_complex_vector(r, f"family vector {i}") for i, r in enumerate(rows)]
            lengths = {v.shape[0] for v in vecs}
            if len(lengths) != 1:
                raise ValidationError(f"family vectors have mixed dimensions {sorted(lengths)}")
            arr = np.stack(vecs)
        if dim is not None and arr.shape[1] != dim:
            raise ValidationError(f"family dimension {arr.shape[1]} does not match dim={dim}")
        return cls(arr)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of pairwise inner products, ``entries[i][j] = (z_i, z_j)``."""

    entries: np.ndarray  # (n, n) complex128, read-only

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"Gram matrix must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Gram matrix contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _of_checked(cls, entries: np.ndarray) -> "GramMatrix":
        """A GramMatrix of a complex128 square array whose entries have passed
        the finiteness check; it is made read-only and not checked again."""
        entries.setflags(write=False)
        gram = object.__new__(cls)
        object.__setattr__(gram, "entries", entries)
        return gram

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def validate(self, psd_tol: float = DEFAULT_PSD_TOL) -> "GramMatrix":
        """Check Hermitian symmetry, a real nonnegative diagonal, and PSD.

        The PSD test allows the smallest eigenvalue to dip to
        ``-psd_tol * max(diagonal)``, absorbing rounding noise in matrices
        read from files.  Returns ``self`` so calls chain.
        """
        e = self.entries
        if not np.array_equal(e, e.conj().T):
            raise ValidationError("Gram matrix is not Hermitian")
        diag = e.diagonal().real
        if self.n and diag.min() < 0.0:
            raise ValidationError(f"negative diagonal entry {diag.min()}")
        if self.n:
            scale = float(diag.max())
            min_eig = float(np.linalg.eigvalsh(e)[0])
            if min_eig < -psd_tol * scale:
                raise ValidationError(
                    f"matrix is not positive semidefinite: eigenvalue {min_eig} "
                    f"below -{psd_tol} * {scale}"
                )
        return self


def _hermitian_part(g: np.ndarray) -> np.ndarray:
    """``(G + G*) / 2`` of a square matrix, or of each matrix of a stack: exactly
    Hermitian with an exactly real diagonal (IEEE addition commutes), and
    different from ``G`` only at rounding level.  Entry by entry, so a
    zero-padded stack gives each matrix its own bits."""
    h = np.conjugate(g.swapaxes(-1, -2), order="C")
    h += g           # IEEE addition commutes: G* + G is G + G*
    h *= 0.5
    return h


def gram_of_family(family: VectorFamily) -> GramMatrix:
    """Tabulate all pairwise inner products of a family, symmetrized as
    ``(G + G*) / 2``.  The products compute silently: an overflow surfaces
    as the ValidationError of a non-finite Gram matrix.
    """
    v = family.vectors
    with np.errstate(over="ignore", invalid="ignore"):
        g = _hermitian_part(v @ v.conj().T)
    return GramMatrix(g)


def _gram_matrix(family_or_gram) -> GramMatrix:
    """The Gram matrix of a family, or the given one; a raw array must pass
    ``GramMatrix.validate`` (Hermitian, nonnegative diagonal, PSD)."""
    if isinstance(family_or_gram, VectorFamily):
        return gram_of_family(family_or_gram)
    if isinstance(family_or_gram, GramMatrix):
        return family_or_gram
    return GramMatrix(np.asarray(family_or_gram)).validate()


def _double_sum_faults(value, mass, direct=None):
    """The checks of a Gram double sum ``value`` = ``sum_ij c_i conj(c_j) g_ij``
    against its absolute mass and the direct squared norm, on Python numbers
    or entry by entry on arrays: whether its imaginary part, the negative of
    its real part, and its distance from ``direct`` (when given) exceed
    :data:`ORACLE_REL_TOL` times the mass.  A NaN fails none of them."""
    tol = ORACLE_REL_TOL * mass
    far = False if direct is None else abs(direct - value.real) > tol
    return abs(value.imag) > tol, value.real < -tol, far


def combination_norm_sq(coeffs, family_or_gram) -> float:
    """Squared norm of ``sum_i coeffs[i] * z_i`` via the Gram double sum.

    Given an explicit :class:`VectorFamily`, the direct squared norm of the
    summed vector is computed as well and cross-checked against the double
    sum; the two routes must agree within :data:`ORACLE_REL_TOL` relative to
    the absolute mass ``sum_ij |c_i||c_j||(z_i,z_j)|``.  A non-vanishing
    imaginary part at the same scale signals a corrupted Gram matrix, and a
    real part below zero at that scale one that is not positive semidefinite.
    The double-sum value is returned, with a rounding-sized negative clamped
    to zero.  A raw array in place of a family must pass
    :meth:`GramMatrix.validate` first; a :class:`GramMatrix` is taken as is;
    a :class:`ProblemInstance` gives its ``family_gram`` and, in vectors mode, its family.
    """
    c = _as_complex_vector(coeffs, "coeffs")
    if isinstance(family_or_gram, ProblemInstance):
        return _checked_double_sum(c, family_or_gram.family_gram, family_or_gram.family)
    return _checked_double_sum(c, _gram_matrix(family_or_gram), family_or_gram)


def _checked_double_sum(c: np.ndarray, gram: GramMatrix, family_or_gram) -> float:
    """``combination_norm_sq`` on ``gram``, cross-checked when ``family_or_gram`` is its family."""
    direct = None
    if isinstance(family_or_gram, VectorFamily):
        if family_or_gram.n != c.shape[0]:
            raise ValidationError(f"{c.shape[0]} coefficients for a family of {family_or_gram.n} vectors")
        summed = c @ family_or_gram.vectors
        direct = float(np.vdot(summed, summed).real)
    g = gram.entries
    if g.shape[0] != c.shape[0]:
        raise ValidationError(f"{c.shape[0]} coefficients for a Gram matrix of size {g.shape[0]}")
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


def orthonormalize(family: VectorFamily, tol: float = 1e-10) -> VectorFamily:
    """Orthonormal basis of the span, ordered like Gram-Schmidt.

    Uses Householder QR with the column phases fixed so that each output
    vector has a positive inner product against its own pivot, i.e. the
    result coincides with classical Gram-Schmidt.  Raises
    :class:`RankDeficiencyError` if any pivot norm falls below ``tol`` times
    the incoming vector's norm.
    """
    n, d = family.n, family.dim
    if n == 0:
        return family
    if n > d:
        raise RankDeficiencyError(f"{n} vectors cannot be independent in dimension {d}")
    v = family.vectors
    real_mode = not np.any(v.imag)
    a = v.real.T if real_mode else v.T
    q, r = np.linalg.qr(a)
    norms = np.linalg.norm(a, axis=0)
    pivots = np.abs(np.diag(r))
    for i in range(n):
        if norms[i] == 0.0 or pivots[i] <= tol * norms[i]:
            raise RankDeficiencyError(
                f"vector {i} is dependent on its predecessors (pivot {pivots[i]:.3e}, "
                f"norm {norms[i]:.3e}, tol {tol})"
            )
    phases = np.diag(r) / pivots
    basis = (q * phases).T
    return VectorFamily(basis.astype(np.complex128))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Reference vector plus family, explicit or Gram-only.

    The bordered Gram matrix is always available: for explicit instances it
    is induced from the coordinates at construction time, so every consumer
    can read ``|x|^2``, the pairings ``(x, y_i)`` and the family Gram matrix
    uniformly from it.
    """

    field_mode: str             # "real" | "complex"
    bordered: GramMatrix        # (n+1) x (n+1); index 0 is x
    x: np.ndarray | None = None
    family: VectorFamily | None = None

    def __post_init__(self) -> None:
        if self.field_mode not in ("real", "complex"):
            raise ValidationError(f"unknown field mode {self.field_mode!r}")
        if (self.x is None) != (self.family is None):
            raise ValidationError("x and family must be given together")

    @classmethod
    def from_vectors(
        cls, x, vectors, field_mode: str = "complex", dim: int | None = None
    ) -> "ProblemInstance":
        """Build an explicit instance; only finiteness is checked beyond shapes."""
        xv = _as_complex_vector(x, "x")
        fam = vectors if isinstance(vectors, VectorFamily) else VectorFamily.from_rows(
            vectors, dim=dim if dim is not None else xv.shape[0]
        )
        if fam.dim != xv.shape[0]:
            raise ValidationError(f"x has dimension {xv.shape[0]}, family has {fam.dim}")
        if field_mode == "real":
            _require_real(xv, "x")
            _require_real(fam.vectors, "the family")
        stacked = VectorFamily(np.vstack([xv[None, :], fam.vectors]))
        xv.setflags(write=False)
        return cls(field_mode=field_mode, bordered=gram_of_family(stacked), x=xv, family=fam)

    @classmethod
    def from_bordered_gram(
        cls, matrix, field_mode: str = "complex", psd_tol: float = DEFAULT_PSD_TOL
    ) -> "ProblemInstance":
        """Build a Gram-only instance; the matrix must pass full validation.

        A bordered Gram matrix is positive semidefinite exactly when it arises
        from actual vectors, so PSD (within ``psd_tol``) is the acceptance
        criterion here.
        """
        gram = matrix if isinstance(matrix, GramMatrix) else GramMatrix(np.asarray(matrix))
        if gram.n < 1:
            raise ValidationError("bordered Gram matrix needs at least the x row")
        gram.validate(psd_tol)
        if field_mode == "real":
            _require_real(gram.entries, "the bordered Gram matrix")
        return cls(field_mode=field_mode, bordered=gram)

    @property
    def mode(self) -> str:
        return "vectors" if self.x is not None else "gram"

    @property
    def n(self) -> int:
        return self.bordered.n - 1

    @property
    def x_norm_sq(self) -> float:
        return float(self.bordered.entries[0, 0].real)

    @cached_property
    def fourier(self) -> np.ndarray:
        """The pairings ``(x, y_i)`` as a length-n complex vector."""
        out = self.bordered.entries[0, 1:].copy()
        out.setflags(write=False)
        return out

    @cached_property
    def family_gram(self) -> GramMatrix:
        # a C-ordered, read-only copy of the bordered Gram's family block, as
        # GramMatrix makes one, without its finiteness check: the bordered
        # matrix passed it
        return GramMatrix._of_checked(self.bordered.entries[1:, 1:].copy())

    # The statistics every bound on this instance reads, built on first use
    # and kept with it, so every evaluation context on the instance shares
    # them and their power-sum memos.  ``bounds`` imports this module, so the
    # classes are looked up there when first read.  Like Python floats, and
    # like a block's statistics, they overflow to inf without a warning.

    @cached_property
    def gram_stats(self):
        """``bounds.GramStats`` of the family Gram matrix."""
        from . import bounds

        with np.errstate(all="ignore"):
            return bounds.GramStats(self.family_gram)

    @cached_property
    def fourier_stats(self):
        """``bounds.CoeffStats`` of the Fourier vector ``(x, y_i)``."""
        from . import bounds

        with np.errstate(all="ignore"):
            return bounds.CoeffStats(self.fourier)


def validate_instance(
    candidate: ProblemInstance, psd_tol: float = DEFAULT_PSD_TOL
) -> ProblemInstance:
    """Re-run all structural checks on an instance and return it.

    Explicit-vector instances pass after a finiteness check (their bordered
    Gram matrix is PSD by construction); Gram-only instances must satisfy the
    Hermitian / nonnegative-diagonal / PSD invariants within ``psd_tol``.
    """
    if candidate.mode == "vectors":
        if not (
            np.all(np.isfinite(candidate.x)) and np.all(np.isfinite(candidate.family.vectors))
        ):
            raise ValidationError("instance contains non-finite entries")
    else:
        candidate.bordered.validate(psd_tol)
    if candidate.field_mode == "real":
        _require_real(candidate.bordered.entries, "the bordered Gram matrix")
        if candidate.x is not None:
            _require_real(candidate.x, "x")
            _require_real(candidate.family.vectors, "the family")
    return candidate


# ---------------------------------------------------------------------------
# Instance file format
#
# JSON document with fields:
#   field         "real" | "complex"
#   mode          "vectors" | "gram"
#   x, y          vectors mode: arrays of [re, im] pairs (y: one array per vector)
#   bordered_gram gram mode: (n+1) x (n+1) array of [re, im] pairs, index 0 = x
#   coeffs        optional coefficient vector, array of [re, im] pairs
# ---------------------------------------------------------------------------

_ALLOWED_KEYS = {"field", "mode", "x", "y", "bordered_gram", "coeffs"}


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _scalar_from_pair(obj, what: str, real_mode: bool) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in obj)
    ):
        raise ValidationError(f"{what} must be a [re, im] pair of numbers, got {obj!r}")
    re, im = float(obj[0]), float(obj[1])
    if not (np.isfinite(re) and np.isfinite(im)):
        raise ValidationError(f"{what} contains a non-finite number")
    if real_mode and im != 0.0:
        raise ValidationError(f"{what} has im={im} but the field is real")
    return complex(re, im)


def _vector_from_pairs(obj, what: str, real_mode: bool) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be an array of [re, im] pairs")
    return np.array(
        [_scalar_from_pair(p, f"{what}[{i}]", real_mode) for i, p in enumerate(obj)],
        dtype=np.complex128,
    )


def instance_to_jsonable(inst: ProblemInstance, coeffs=None) -> dict:
    """Encode an instance (and optional coefficient vector) as a JSON document."""
    doc: dict = {"field": inst.field_mode, "mode": inst.mode}
    if inst.mode == "vectors":
        doc["x"] = [_pair(z) for z in inst.x]
        doc["y"] = [[_pair(z) for z in row] for row in inst.family.vectors]
    else:
        doc["bordered_gram"] = [[_pair(z) for z in row] for row in inst.bordered.entries]
    if coeffs is not None:
        doc["coeffs"] = [_pair(z) for z in np.asarray(coeffs, dtype=np.complex128)]
    return doc


def instance_from_jsonable(doc) -> tuple[ProblemInstance, np.ndarray | None]:
    """Decode and validate an instance document; inverse of to_jsonable."""
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown instance fields: {sorted(unknown)}")
    field = doc.get("field")
    if field not in ("real", "complex"):
        raise ValidationError(f"field must be 'real' or 'complex', got {field!r}")
    real_mode = field == "real"
    mode = doc.get("mode")
    if mode == "vectors":
        if "bordered_gram" in doc:
            raise ValidationError("vectors mode does not take bordered_gram")
        if "x" not in doc or "y" not in doc:
            raise ValidationError("vectors mode needs x and y")
        x = _vector_from_pairs(doc["x"], "x", real_mode)
        if x.shape[0] == 0:
            raise ValidationError("x must have at least one component")
        if not isinstance(doc["y"], list):
            raise ValidationError("y must be an array of vectors")
        rows = [_vector_from_pairs(r, f"y[{i}]", real_mode) for i, r in enumerate(doc["y"])]
        fam = VectorFamily.from_rows(rows, dim=x.shape[0])
        inst = ProblemInstance.from_vectors(x, fam, field_mode=field)
    elif mode == "gram":
        if "x" in doc or "y" in doc:
            raise ValidationError("gram mode does not take x or y")
        if "bordered_gram" not in doc:
            raise ValidationError("gram mode needs bordered_gram")
        raw = doc["bordered_gram"]
        if not isinstance(raw, list) or not raw:
            raise ValidationError("bordered_gram must be a nonempty square array")
        rows = [
            _vector_from_pairs(r, f"bordered_gram[{i}]", real_mode) for i, r in enumerate(raw)
        ]
        if any(r.shape[0] != len(rows) for r in rows):
            raise ValidationError("bordered_gram must be square")
        inst = ProblemInstance.from_bordered_gram(np.stack(rows), field_mode=field)
    else:
        raise ValidationError(f"mode must be 'vectors' or 'gram', got {mode!r}")
    coeffs = None
    if "coeffs" in doc:
        coeffs = _vector_from_pairs(doc["coeffs"], "coeffs", real_mode)
        if coeffs.shape[0] != inst.n:
            raise ValidationError(
                f"coeffs has length {coeffs.shape[0]} but the family has {inst.n} vectors"
            )
        coeffs.setflags(write=False)
    return inst, coeffs


def save_instance(path, inst: ProblemInstance, coeffs=None) -> None:
    Path(path).write_text(
        json.dumps(instance_to_jsonable(inst, coeffs), indent=2, sort_keys=True) + "\n"
    )


def load_instance(path) -> tuple[ProblemInstance, np.ndarray | None]:
    """Read an instance file; raises ValidationError on malformed content."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_jsonable(doc)
