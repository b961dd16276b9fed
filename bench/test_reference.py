"""Closed-form checks of the numpy reference module.

Run with ``python3 -m pytest bench/test_reference.py``.
"""

import math

import numpy as np
import pytest

from reference import Reference, holds, orthonormal_only


def _unitary(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q.T


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_orthonormal_basis_gives_bessel_equality(dim):
    rng = np.random.default_rng(dim)
    y = _unitary(dim, seed=dim)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ref = Reference(x, y, c)
    assert ref.orthonormal
    assert ref.lambda_max == pytest.approx(1.0, rel=1e-12)
    assert ref.fourier_sum == pytest.approx(ref.x_norm_sq, rel=1e-12)
    lhs, bound = ref.bounds_for("bessel:1.1")
    assert lhs == pytest.approx(bound, rel=1e-12)
    # ||sum a_i y_i||^2 = sum |a_i|^2 = |a|^T |G| |a| when G = I
    lhs, bound = ref.bounds_for("lemma21:max:max")
    assert lhs == pytest.approx(float(np.sum(np.abs(c) ** 2)), rel=1e-12)
    assert lhs == pytest.approx(bound, rel=1e-12)


def test_partial_orthonormal_family_is_strict_bessel():
    y = _unitary(4, seed=7)[:2]
    x = np.array([1.0, 2.0, 3.0, 4.0])
    ref = Reference(x, y, np.ones(2))
    assert ref.orthonormal
    assert ref.fourier_sum < ref.x_norm_sq


def test_scaled_family_is_not_orthonormal():
    ref = Reference([1.0, 0.0], [[1.0 + 2e-9, 0.0], [0.0, 1.0]], [1.0, 1.0])
    assert not ref.orthonormal


@pytest.mark.parametrize(
    "triple, a_value, lam",
    [((1.0, 1.0, 1.0), math.sqrt(6.0), 3.0), ((1.0, 0.5, 1.0), math.sqrt(3.0), 2.25)],
)
def test_scalar_triples(triple, a_value, lam):
    y = np.array([[v] for v in triple])
    ref = Reference([1.0], y, [1.0, 1.0, 1.0])
    assert ref.offdiag_norm == pytest.approx(a_value, rel=1e-15)
    # a rank-one Gram matrix has lambda_max = trace, so Boas-Bellman's
    # spectral reference equals sum (x, y_i)^2 = sum y_i^2
    assert ref.lambda_max == pytest.approx(lam, rel=1e-12)
    lhs, bound = ref.bounds_for("bb:1.2")
    assert lhs == pytest.approx(bound, rel=1e-12)
    # all-ones coefficients on positive scalars: ||sum y_i||^2 = (sum y_i)^2 = mass
    lhs, bound = ref.bounds_for("cor23:sharp")
    assert lhs == pytest.approx(sum(triple) ** 2, rel=1e-15)
    assert bound == pytest.approx(lhs, rel=1e-15)


def test_references_dominate_lhs_on_random_instances():
    rng = np.random.default_rng(0)
    names = ["lemma21:max:max", "thm31:sum:max", "bb:1.2", "bb:4.1", "bb:4.3:p=2.0"]
    for _ in range(200):
        n, dim = rng.integers(1, 9), rng.integers(1, 9)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = Reference(x, y, c)
        for name in names:
            lhs, bound = ref.bounds_for(name)
            assert holds(lhs, bound), (name, lhs, bound)


def test_weighted_lhs_uses_the_pairing_convention():
    # (x, y) is linear in x and conjugate-linear in y
    ref = Reference([1j], [[1.0]], [1.0])
    assert ref.fourier[0] == 1j
    ref = Reference([1.0], [[1j]], [1.0])
    assert ref.fourier[0] == -1j
    assert ref.weighted == pytest.approx(1.0)


def test_tolerance_policy_and_name_helpers():
    assert holds(1.0, 1.0 - 5e-10)
    assert not holds(1.0, 1.0 - 5e-9)
    assert holds(0.0, -5e-13)
    assert orthonormal_only("ortho:4.4:p=2.0") and orthonormal_only("bessel:1.1")
    assert not orthonormal_only("bb:4.3:p=2.0")
    with pytest.raises(ValueError):
        Reference([1.0], [[1.0]], [1.0]).bounds_for("unknown:1")
