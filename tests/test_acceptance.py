"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import re
import subprocess
import sys
import time

import numpy as np

from bbbounds import (
    GenConfig,
    MAX,
    SUM,
    ProblemInstance,
    VectorFamily,
    coarse_bound,
    cor23_bounds,
    diag_term,
    fourier_bound,
    full_catalog,
    gram_of_family,
    holder,
    lemma21_bound,
    orthonormalize,
    parse_variant,
    run_suite,
    weighted_sum_bound,
)
from bbbounds.bounds import CoeffStats


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bbbounds", *args], capture_output=True, text=True
    )


def test_criterion_1_remark_reproduction():
    start = time.perf_counter()
    proc = run_cli("demo-remark")
    elapsed = time.perf_counter() - start
    pairs = re.findall(r"A=([0-9.e+-]+), B=([0-9.e+-]+)", proc.stdout)
    ok = proc.returncode == 0 and len(pairs) == 2
    if ok:
        a1, b1 = map(float, pairs[0])
        a2, b2 = map(float, pairs[1])
        ok = (
            abs(a1 - math.sqrt(6.0)) <= 1e-12
            and abs(b1 - 2.0) <= 1e-12
            and a1 > b1
            and abs(a2 - math.sqrt(3.0)) <= 1e-12
            and abs(b2 - 2.0) <= 1e-12
            and b2 > a2
            and elapsed < 1.0
        )
    report(
        1,
        "demo-remark: (1,1,1) gives A=sqrt(6)>B=2, (1,1/2,1) gives B=2>A=sqrt(3), "
        "1e-12 abs tolerance, under 1 second",
        ok,
        f"elapsed {elapsed:.3f}s",
    )


def test_criterion_2_zero_violation_suite():
    config = GenConfig(
        n_range=(1, 8), d_range=(1, 8), field_mode="both", master_seed=42, count=10_000
    )
    start = time.perf_counter()
    suite = run_suite(config, full_catalog())
    elapsed = time.perf_counter() - start
    ok = suite.violated == 0 and not suite.violations and elapsed < 60.0
    report(
        2,
        "10,000 seeded instances x full catalog: 0 violations at rel 1e-9 / abs 1e-12, "
        "under 60 s",
        ok,
        f"checked {suite.checked}, violated {suite.violated}, elapsed {elapsed:.1f}s",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for k in range(1000):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        complex_field = bool(k % 2)
        draw = lambda *s: rng.standard_normal(s) + (1j if complex_field else 0) * rng.standard_normal(s)
        fam = draw(n, d)
        coeffs = draw(n)
        summed = coeffs @ fam
        direct = float(np.vdot(summed, summed).real)
        g = gram_of_family(VectorFamily(fam)).entries
        expansion = float(np.real(coeffs @ g @ np.conj(coeffs)))
        mass = float(np.abs(coeffs) @ np.abs(g) @ np.abs(coeffs))
        worst = max(worst, abs(direct - expansion) / mass)
    ok = worst <= 1e-10
    report(
        3,
        "direct norm vs Gram expansion agree within 1e-10 relative on 1000 instances",
        ok,
        f"worst relative disagreement {worst:.2e}",
    )


def test_criterion_4_mpf_boas_bellman_reduction():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for k in range(1000):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        complex_field = bool(k % 2)
        draw = lambda *s: rng.standard_normal(s) + (1j if complex_field else 0) * rng.standard_normal(s)
        inst = ProblemInstance.from_vectors(draw(d), draw(n, d))
        c = np.conj(inst.fourier)
        s = float(np.sum(np.abs(c) ** 2))
        if s == 0.0:
            continue
        mpf = weighted_sum_bound(parse_variant("cor32:1"), c, inst)
        bb = fourier_bound(parse_variant("bb:1.2"), inst)
        worst = max(worst, abs(mpf.rhs - s * bb.rhs) / max(mpf.rhs, s * bb.rhs, 1e-300))
        # square-root recovery of the three derived Fourier bounds
        b2 = weighted_sum_bound(parse_variant("cor32:2"), c, inst).rhs
        b3 = weighted_sum_bound(parse_variant("cor32:3:p=2.0"), c, inst).rhs
        b4 = weighted_sum_bound(parse_variant("cor32:4"), c, inst).rhs
        f41 = fourier_bound(parse_variant("bb:4.1"), inst).rhs
        f43 = fourier_bound(parse_variant("bb:4.3:p=2.0"), inst).rhs
        f45 = fourier_bound(parse_variant("bb:4.5"), inst).rhs
        for want, got in ((math.sqrt(b2), f41), (math.sqrt(b3), f43), (b4 / s, f45)):
            worst = max(worst, abs(want - got) / max(want, got, 1e-300))
    ok = worst <= 1e-10
    report(
        4,
        "with c_i = conj((x,y_i)): cor32:1 rhs = sum|c|^2 * bb:1.2 rhs within 1e-10, "
        "and rooting recovers the three derived Fourier bounds",
        ok,
        f"worst relative mismatch {worst:.2e}",
    )


def test_criterion_5_bessel_recovery():
    rng = np.random.default_rng(161803)
    worst_rhs = worst_eq = 0.0
    bessel_holds = True
    for k in range(1000):
        complex_field = bool(k % 2)
        n = int(rng.integers(1, 6))
        d = int(rng.integers(n, 9))
        draw = lambda *s: rng.standard_normal(s) + (1j if complex_field else 0) * rng.standard_normal(s)
        basis = orthonormalize(VectorFamily(draw(n, d)))
        # generic x: Bessel inequality at the slack tolerance
        x = draw(d)
        inst = ProblemInstance.from_vectors(x, basis)
        ev = fourier_bound(parse_variant("bb:4.5"), inst)
        worst_rhs = max(worst_rhs, abs(ev.rhs - inst.x_norm_sq) / inst.x_norm_sq)
        bessel_holds &= ev.lhs <= inst.x_norm_sq * (1 + 1e-10)
        # x inside the span: equality
        combo = draw(n)
        x_in = combo @ basis.vectors
        inst_in = ProblemInstance.from_vectors(x_in, basis)
        lhs = float(np.sum(np.abs(inst_in.fourier) ** 2))
        scale = max(inst_in.x_norm_sq, 1e-300)
        worst_eq = max(worst_eq, abs(lhs - inst_in.x_norm_sq) / scale)
    ok = worst_rhs <= 1e-10 and worst_eq <= 1e-10 and bessel_holds
    report(
        5,
        "orthonormalized families: bb:4.5 rhs = |x|^2 within 1e-10, Bessel holds, "
        "equality within 1e-10 for x in the span",
        ok,
        f"worst rhs deviation {worst_rhs:.2e}, worst equality gap {worst_eq:.2e}",
    )


def test_criterion_6_dominance_and_chain():
    rng = np.random.default_rng(577215)
    selectors = (MAX, holder(2.0), SUM)
    extra_holders = (holder(1.25), holder(4.0))
    worst_dom = worst_chain = 0.0
    for k in range(1000):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        complex_field = bool(k % 2)
        draw = lambda *s: rng.standard_normal(s) + (1j if complex_field else 0) * rng.standard_normal(s)
        fam = VectorFamily(draw(n, d))
        coeffs = draw(n)
        pair_list = [(ds, os) for ds in selectors for os in selectors]
        pair_list += [(h, h) for h in extra_holders]
        for dsel, osel in pair_list:
            fine = lemma21_bound(dsel, osel, coeffs, fam)
            rough = coarse_bound(dsel, osel, coeffs, fam)
            worst_dom = min(worst_dom, rough.rhs - fine.rhs)
        sharp, weak = cor23_bounds(coeffs, fam)
        worst_chain = min(worst_chain, weak.rhs - sharp.rhs)
    ok = worst_dom >= -1e-12 and worst_chain >= -1e-12
    report(
        6,
        "coarse(d,o) rhs >= lemma21(d,o) rhs for all nine selector pairs and "
        "cor23 sharp <= weak, slack >= -1e-12 absolute, 1000 instances",
        ok,
        f"worst dominance slack {worst_dom:.2e}, worst chain slack {worst_chain:.2e}",
    )


def test_criterion_7_holder_identity_and_limits():
    rng = np.random.default_rng(141421)
    worst_identity = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        mags = rng.uniform(0.1, 10.0, n)
        cs = CoeffStats(mags)
        for gamma in (1.0, 1.5, 2.0, 3.0):
            double = float(
                sum(
                    mags[i] ** gamma * mags[j] ** gamma
                    for i in range(n)
                    for j in range(n)
                    if i != j
                )
            )
            closed = cs.holder_bracket_root(gamma) ** gamma
            worst_identity = max(worst_identity, abs(closed - double) / max(double, 1e-300))
    worst_limit = 0.0
    for _ in range(500):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        coeffs = rng.uniform(1.0, 10.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        fam = VectorFamily(rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        g = gram_of_family(fam)
        at_max = diag_term(MAX, coeffs, g)
        at_64 = diag_term(holder(64.0), coeffs, g)
        worst_limit = max(worst_limit, abs(at_64 - at_max) / at_max)
    ok = worst_identity <= 1e-12 and worst_limit <= 0.05
    report(
        7,
        "closed-form bracket matches the ordered double sum within 1e-12 for "
        "gamma in {1,1.5,2,3}; diag holder at 64 within 5% of the max branch",
        ok,
        f"worst identity gap {worst_identity:.2e}, worst limit gap {worst_limit:.2%}",
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    base = ["verify", "--seed", "42", "--count", "1000", "--variants", "all"]
    runs = []
    for tag, extra in (("a", []), ("b", []), ("c", ["--jobs", "3"])):
        csv_path = tmp_path / f"{tag}.csv"
        proc = run_cli(*base, "--csv", str(csv_path), *extra)
        runs.append((proc, csv_path.read_bytes()))
    ok = (
        all(proc.returncode == 0 for proc, _ in runs)
        and runs[0][0].stdout == runs[1][0].stdout == runs[2][0].stdout
        and runs[0][1] == runs[1][1] == runs[2][1]
    )
    report(
        8,
        "verify --seed 42 --count 1000 --variants all: byte-identical CSV across "
        "repeat runs and across parallelism levels",
        ok,
        f"{len(runs[0][1])} bytes",
    )
