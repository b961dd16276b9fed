"""Independent numpy references for the bound catalog.

Everything here is recomputed with plain numpy from the generated vectors,
without calling the package: the three left-hand sides, the worst case each
right-hand side must dominate, the orthonormality test and the tolerance
policy.  The benchmark compares the package's outputs against these values.

Pairings follow the package convention ``(u, v) = sum_k u_k conj(v_k)``.
"""

from __future__ import annotations

import math

import numpy as np

# The slack policy the catalog documents: ``upper - lower >= -(abs + rel * max)``.
TOL_ABS = 1e-12
TOL_REL = 1e-9

# Entrywise distance from the identity below which a family is orthonormal.
ORTHONORMAL_TOL = 1e-9

EXPONENT_MAX = 64.0


def holds(lower: float, upper: float) -> bool:
    """``upper >= lower`` up to the catalog's rounding tolerance."""
    return upper - lower >= -(TOL_ABS + TOL_REL * max(lower, upper))


def orthonormal_only(name: str) -> bool:
    """Variants that apply only to orthonormal families."""
    return name.startswith(("ortho:", "bessel:"))


class Reference:
    """Left-hand sides and worst-case references of one instance.

    ``x`` is the reference vector, ``y`` the family as an (n, dim) array and
    ``coeffs`` the coefficient vector of the combination and weighted bounds.
    """

    def __init__(self, x, y, coeffs):
        x = np.asarray(x, dtype=np.complex128)
        y = np.asarray(y, dtype=np.complex128).reshape(-1, x.shape[0])
        c = np.asarray(coeffs, dtype=np.complex128)
        n = y.shape[0]
        self.gram = y @ y.conj().T
        self.fourier = y.conj() @ x
        self.x_norm_sq = float(np.vdot(x, x).real)
        abs_gram = np.abs(self.gram)
        mass_c = float(np.abs(c) @ abs_gram @ np.abs(c))
        mass_f = float(np.abs(self.fourier) @ abs_gram @ np.abs(self.fourier))
        summed = c @ y
        self.combination = float(np.vdot(summed, summed).real)
        self.weighted = abs(complex(c @ self.fourier)) ** 2
        self.fourier_sum = float(np.sum(np.abs(self.fourier) ** 2))
        self.lambda_max = float(np.linalg.eigvalsh(self.gram)[-1]) if n else 0.0
        off = self.gram - np.diag(np.diag(self.gram))
        self.offdiag_norm = float(np.sqrt(np.sum(np.abs(off) ** 2)))
        self.orthonormal = bool(n == 0 or np.max(np.abs(self.gram - np.eye(n))) <= ORTHONORMAL_TOL)
        self._by_family = {
            "combination": (self.combination, mass_c),
            "weighted": (self.weighted, self.x_norm_sq * mass_c),
            "fourier-spectral": (self.fourier_sum, self.x_norm_sq * self.lambda_max),
            "fourier-mass": (self.fourier_sum, math.sqrt(self.x_norm_sq * mass_f)),
        }

    def bounds_for(self, name: str) -> tuple[float, float]:
        """(lhs, reference) that the rhs of the variant ``name`` must dominate.

        Combination bounds dominate ``|a|^T |G| |a|``, weighted bounds
        ``|x|^2 |c|^T |G| |c|``, ``bb:1.2``, ``bb:4.5`` and ``bessel:1.1``
        dominate ``|x|^2 lambda_max(G)``, and the other Fourier bounds
        ``|x| sqrt(|f|^T |G| |f|)`` with ``f_i = (x, y_i)``.
        """
        return self._by_family[_family_of(name)]


def _family_of(name: str) -> str:
    head = name.split(":", 1)[0]
    if head in ("lemma21", "coarse", "cor23", "special"):
        return "combination"
    if head in ("thm31", "cor32"):
        return "weighted"
    if name in ("bb:1.2", "bb:4.5", "bessel:1.1"):
        return "fourier-spectral"
    if head in ("bb", "ortho"):
        return "fourier-mass"
    raise ValueError(f"no reference for variant {name!r}")
