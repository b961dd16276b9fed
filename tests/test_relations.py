"""Exact metamorphic relations: transforms of an instance that keep every
check's bits, or scale them by a power of two.

Every catalog bound is stated in an abstract inner product space, so both
sides of a check depend only on the bordered Gram matrix of
(x, y_1, ..., y_n) and on the coefficients.  A transform that maps these to an
equivalent problem must keep each side.  A formula that reads the wrong
triangle of G, a wrong index or a coordinate breaks that, even where
lhs <= rhs still holds.  Each transform here only negates, conjugates or
scales by a power of two, so the relations hold bit for bit:

* flipping the sign of y_k together with c_k, on any subset of k, changes
  nothing;
* conjugating x, the family and the coefficients changes nothing;
* scaling x by 2**k scales the weighted and Fourier sides by 4**k exactly and
  leaves the combination sides as they are.

Each instance is evaluated by the plan of the whole catalog on
``EvalContext``, as ``evaluate_variant``, ``check-file`` and ``rank``
evaluate it; on the mixed-NaN stream, by the plan of its five variants.  Its
left-hand sides, right-hand sides and skips are compared as bits, so 0.0 and
-0.0 differ, and so do two NaNs of other signs.
"""

import numpy as np
import pytest

from bbbounds import GenConfig, ProblemInstance, full_catalog, generate_instance, parse_variant_list
from bbbounds.bounds import EvalContext, plan_for

PLAN = plan_for(tuple(full_catalog()))
# the rows that read x: |x|^2 scales the weighted right-hand sides, and the
# Fourier vector ((x, y_i)) every term of a Fourier bound
READS_X = np.array([v.family != "combination" for v in PLAN.variants])

# Seeded blocks of the suite's streams, as CI runs them: the default one,
# real scalar triples (the shape of the Remark's two families), complex
# families, wide families, a seed of two 32-bit words, and families of one
# vector and of one or two (its instance 145, a real n = 2, d = 6 family, is
# one whose weighted side r * r differs from pow(r, 2.0) in the last bit).
STREAMS = [
    pytest.param(GenConfig(master_seed=42, count=200), id="default"),
    pytest.param(GenConfig(master_seed=42, count=100, n_range=(3, 3), d_range=(1, 1), field_mode="real"), id="triples"),
    pytest.param(GenConfig(master_seed=42, count=200, field_mode="complex"), id="complex"),
    pytest.param(GenConfig(master_seed=42, count=6, n_range=(24, 64), d_range=(16, 128)), id="wide"),
    pytest.param(GenConfig(master_seed=18446744073709551557, count=200), id="bigseed"),
    pytest.param(GenConfig(master_seed=42, count=400, n_range=(1, 1)), id="n1"),
    pytest.param(GenConfig(master_seed=42, count=300, n_range=(1, 2)), id="n12"),
]
# CI's mixed-NaN stream and its five variants: some instances' sides
# overflow, so NaN checks fall among numeric ones.  Scaling x would overflow
# more of them, so only the sign flips and conjugation run on it.
MIXED_NAN = GenConfig(master_seed=42, count=400, scale=3e76)
MIXED_NAN_PLAN = plan_for(tuple(parse_variant_list("bb:1.2,bb:4.1,bb:4.5,lemma21:max:max,cor23:sharp")))
EXACT_STREAMS = [pytest.param(*param.values, PLAN, id=param.id) for param in STREAMS] + [
    pytest.param(MIXED_NAN, MIXED_NAN_PLAN, id="mixed-nan")
]


def _checks(inst, coeffs, plan=PLAN):
    """(lhs, rhs, skips) of every row of ``plan`` on one instance."""
    ctx = EvalContext(inst, coeffs)
    return (*plan.evaluate(ctx), plan.skips(ctx))


def _assert_same_bits(got, expected, index):
    for name, a, b in zip(("lhs", "rhs", "skips"), got, expected):
        if a.dtype == np.float64:
            a, b = a.view(np.uint64), b.view(np.uint64)
        np.testing.assert_array_equal(a, b, err_msg=f"instance {index}: {name}")


def _transformed(config, transform, plan=PLAN):
    """Each instance of ``config`` with its checks and those of its transform,
    ``transform(index, x, family, coeffs)`` on copies."""
    for index in range(config.count):
        inst, coeffs = generate_instance(config, index)
        x, family, coeffs_t = transform(index, inst.x.copy(), inst.family.vectors.copy(), coeffs.copy())
        image = ProblemInstance.from_vectors(x, family, field_mode=inst.field_mode)
        yield index, _checks(inst, coeffs, plan), _checks(image, coeffs_t, plan)


def _exponent(index: int) -> int:
    """The k of instance ``index``'s 2**k, seeded by the index, in [-40, 40)."""
    return int(np.random.default_rng(index).integers(-40, 40))


def _ldexp(z: np.ndarray, k: int) -> np.ndarray:
    """``z * 2**k``, each part scaled alone, so no sign of zero changes."""
    out = np.empty_like(z)
    out.real, out.imag = np.ldexp(z.real, k), np.ldexp(z.imag, k)
    return out


def test_the_mixed_nan_stream_has_nan_checks():
    # lhs = rhs = inf gives a NaN slack; the relations must meet both kinds of check there
    with np.errstate(invalid="ignore"):
        nan = [
            np.isnan(np.subtract(*_checks(*generate_instance(MIXED_NAN, index), MIXED_NAN_PLAN)[:2])).any()
            for index in range(MIXED_NAN.count)
        ]
    assert 0 < sum(nan) < MIXED_NAN.count


@pytest.mark.parametrize("config, plan", EXACT_STREAMS)
def test_sign_flips_of_vectors_with_their_coefficients(config, plan):
    def flip(index, x, family, coeffs):
        # (x, -y_k) (-c_k) = (x, y_k) c_k, and (-y_i, -y_j) = (y_i, y_j)
        signs = np.random.default_rng(index).random(len(coeffs)) < 0.5
        family[signs] = -family[signs]
        coeffs[signs] = -coeffs[signs]
        return x, family, coeffs

    for index, checks, image in _transformed(config, flip, plan):
        _assert_same_bits(image, checks, index)


@pytest.mark.parametrize("config, plan", EXACT_STREAMS)
def test_conjugation(config, plan):
    def conjugate(index, x, family, coeffs):
        return x.conj(), family.conj(), coeffs.conj()

    for index, checks, image in _transformed(config, conjugate, plan):
        _assert_same_bits(image, checks, index)


@pytest.mark.parametrize("config", STREAMS)
def test_power_of_two_scaling_of_x(config):
    def scale(index, x, family, coeffs):
        return _ldexp(x, _exponent(index)), family, coeffs

    for index, (lhs, rhs, skips), image in _transformed(config, scale):
        expected = [np.where(READS_X, np.ldexp(side, 2 * _exponent(index)), side) for side in (lhs, rhs)]
        _assert_same_bits(image, (*expected, skips), index)
