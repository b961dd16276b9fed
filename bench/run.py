#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bbbounds package.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it loads the package from the
checkout's ``src`` directory.  One run warms up, then repeats whole rounds of
the workload's operations until ``--seconds`` have passed, checks the outputs
of the rounds against numpy (``reference.py``) and prints one JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics, with times adjusted to the reference machine speed measured by a
calibration kernel; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead.
README.md describes the workloads and the metrics.
"""

import os

# One process with one thread: numpy's BLAS must not start worker threads.
# These have to be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import EXPONENT_MAX, TOL_ABS, TOL_REL, Reference, holds, orthonormal_only
from tracer import Tracer, install, wrapper_costs

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5

# Seconds the calibration kernel takes on the reference machine (2-core Xeon
# guest, Python 3.11.7, numpy 2.4.6); see README.md, "Machine speed".
CALIBRATION_REF_S = 3.0e-3
MAX_SEED = 2**56           # the seed shares a 64-bit master seed with the stream index

# The catalog variants that take no exponent.
WIDE_GRAM_VARIANTS = ",".join(
    [f"{kind}:{d}:{o}" for kind in ("lemma21", "coarse", "thm31") for d in ("max", "sum") for o in ("max", "sum")]
    + ["cor23:sharp", "cor23:weak", "special:2.11", "special:2.13"]
    + ["cor32:1", "cor32:2", "cor32:4", "bb:1.2", "bb:4.1", "bb:4.5"]
)

SUITE_HEADER = "variant,checked,held,violated,min_slack,min_rel_slack"


@dataclass(frozen=True)
class Workload:
    name: str
    variants: str          # variant list as ``verify --variants`` takes it
    shapes: tuple          # (n range, dim range) of each instance stream
    suite_count: int       # instances per stream that run_suite checks each round
    probe_count: int       # instances per stream given one rank and five optimize calls each round
    tune: bool             # rank with every exponent slot optimised
    sample_count: int      # instances per stream whose checks are recomputed with evaluate_variant


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance stream: dispatch per check and reduction dominate.
        Workload("catalog-sweep", "all", (((1, 8), (1, 8)),), 500, 100, False, 12),
        # Several dozen vectors in up to 128 dimensions; one stream per family
        # size, so every seed gets the same mix of sizes.  The GramStats and
        # CoeffStats builds and the evaluation of each check dominate.
        Workload(
            "wide-gram",
            WIDE_GRAM_VARIANTS,
            tuple(((n, n), (16, 128)) for n in (24, 32, 40, 48, 56, 64)),
            20,
            5,
            False,
            2,
        ),
        # Exponent tuning: fresh exponents on every evaluation, so the power
        # sum memos miss.
        Workload("tune-rank", "all", (((1, 8), (1, 8)),), 100, 100, True, 12),
    )
}

# Optimised families whose value is a whole catalog bound at the exponent
# found: the wire name of that bound at exponent p.
GRID_FAMILIES = {
    "coarse": "special:2.12:p={!r}",
    "cor32:3": "cor32:3:p={!r}",
    "bb:4.3": "bb:4.3:p={!r}",
}


@dataclass(frozen=True)
class Plan:
    configs: list          # one GenConfig per instance stream
    variants: tuple        # the suite's variants
    ranked: tuple          # the variants every rank call orders
    probes: int            # instances per stream given rank and optimize calls


@dataclass
class Round:
    wall_s: float = 0.0
    suite_s: float = 0.0
    checks: int = 0
    rank_ms: list = field(default_factory=list)
    optimize_ms: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    same_as_first: bool = True
    traced: bool = False


def load_package():
    init = SRC / "bbbounds" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init.relative_to(BENCH.parent)} not found")
    sys.path.insert(0, str(SRC))
    import bbbounds

    if Path(bbbounds.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: bbbounds was loaded from {bbbounds.__file__}, not from src")
    return bbbounds


def make_plan(bb, wl: Workload, seed: int, warmup: bool = False) -> Plan:
    """The inputs of one round; the warm-up uses other seeds and a tenth of the instances."""
    variants = bb.parse_variant_list(wl.variants)
    ranked = tuple(v for v in variants if not orthonormal_only(v.name))
    role = list(WORKLOADS).index(wl.name) * 16 + (8 if warmup else 0)
    shrink = 10 if warmup else 1
    configs = [
        bb.GenConfig(
            n_range=n_range,
            d_range=d_range,
            field_mode="both",
            master_seed=seed * 256 + role + k,
            count=max(wl.suite_count // shrink, 1),
        )
        for k, (n_range, d_range) in enumerate(wl.shapes)
    ]
    return Plan(configs, variants, ranked, max(wl.probe_count // shrink, 1))


def _calibration_kernel() -> float:
    """Fixed interpreter and small-matrix work that does not touch the package."""
    acc = 0.0
    memo: dict = {}
    rows: list = []
    for i in range(4000):
        key = i % 101
        v = memo.get(key)
        if v is None:
            v = memo[key] = (key + 1.0) ** 0.75
        acc += v * 1.0001 - acc * 1e-6
        rows.append((key, v))
        if len(rows) > 64:
            rows.sort()
            rows.clear()
    m = np.arange(1.0, 65.0).reshape(8, 8)
    for _ in range(200):
        m = (m @ m.T) / np.abs(m).max()
        acc += float(m[0, 0])
    return acc


def calibrate(samples: list) -> None:
    """Append the kernel's current time (median of three) to ``samples``."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    samples.append(sorted(times)[1])


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_round(bb, wl: Workload, plan: Plan, call) -> Round:
    """One round: a suite per stream, then rank and optimize on its first instances."""
    r = Round()
    clock = time.perf_counter
    start = clock()
    for config in plan.configs:
        t0 = clock()
        report = call("verify.suite", bb.run_suite, config, plan.variants)
        csv = call("verify.report", report.to_csv)
        js = call("verify.report", report.to_json)
        r.suite_s += clock() - t0
        r.checks += report.checked
        r.outputs.append((csv, js))
        for index in range(plan.probes):
            inst, coeffs = call("verify.generate", bb.generate_instance, config, index)
            t0 = clock()
            ranking = call(
                "tuning.rank", bb.rank_variants, inst, coeffs, plan.ranked,
                optimize_exponents=wl.tune,
            )
            r.rank_ms.append(1e3 * (clock() - t0))
            r.outputs.append(ranking)
            for family in bb.PROFILE_FAMILIES:
                t0 = clock()
                result = call("tuning.optimize", bb.optimize_exponent, family, inst, coeffs)
                r.optimize_ms.append(1e3 * (clock() - t0))
                r.outputs.append(result)
    r.wall_s = clock() - start
    return r


def timed_rounds(
    bb, wl, plan: Plan, seconds: float, calibration: list, tracer: Tracer | None = None
) -> list[Round]:
    """Whole rounds until ``seconds`` have passed, each followed by a
    calibration sample.  With a tracer the rounds alternate untraced and
    traced, in whole pairs, so that a drift of the machine's speed falls
    alike on both.  Rounds after the first keep only whether their outputs
    equal the first round's."""
    modes = (False, True) if tracer is not None else (False,)
    rounds: list[Round] = []
    first = None
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for traced in modes:
            if traced:
                install(tracer, bb)
                try:
                    r = run_round(bb, wl, plan, tracer.call)
                finally:
                    tracer.restore()
            else:
                r = run_round(bb, wl, plan, direct)
            r.traced = traced
            calibrate(calibration)
            if first is None:
                first = r
                settle()
            else:
                r.same_as_first = r.outputs == first.outputs
                r.outputs = []
            rounds.append(r)
    return rounds


def settle() -> None:
    """Move the objects alive now out of the collector's reach, so that what
    the benchmark keeps (the first round's outputs) does not lengthen the
    collections the package's own allocations trigger."""
    gc.collect()
    gc.freeze()


def attempted_per_round(bb, plan: Plan) -> int:
    """Operations in one round: suite checks, rank calls and optimize calls."""
    probe_ops = 1 + len(bb.PROFILE_FAMILIES)
    return sum(c.count * len(plan.variants) + plan.probes * probe_ops for c in plan.configs)


# ---------------------------------------------------------------------------
# Output checks against numpy
# ---------------------------------------------------------------------------


def reference_of(inst, coeffs) -> Reference:
    return Reference(inst.x, inst.family.vectors, coeffs)


def agrees(value: float, expected: float, scale: float) -> bool:
    return abs(value - expected) <= TOL_ABS + TOL_REL * scale


def check_report(csv: str, js: str, names: list[str], count: int, refs, failures) -> int:
    """Failed checks in one suite report; a variant whose totals are inconsistent fails whole."""
    lines = csv.splitlines()
    rows = {}
    for line in lines[1:]:
        name, checked, held, violated, _, _ = line.split(",")
        rows[name] = (int(checked), int(held), int(violated))
    totals = json.loads(js)["variants"]
    if lines[0] != SUITE_HEADER or set(rows) != set(names) or set(totals) != set(names):
        failures.append("suite report lists other variants than requested")
        return count * len(names)
    orthonormal = sum(ref.orthonormal for ref in refs)
    failed = 0
    for name in names:
        t = totals[name]
        expected = orthonormal if orthonormal_only(name) else count
        consistent = (
            rows[name] == (t["checked"], t["held"], t["violated"])
            and t["held"] + t["violated"] == t["checked"]
            and t["checked"] + t["skipped"] == count
        )
        bad = min(count, t["violated"] + abs(t["checked"] - expected)) if consistent else count
        if bad:
            failures.append(f"{name}: totals {t} with {expected} checks expected")
        failed += bad
    return failed


def check_samples(bb, instances, refs, variants, indices, failures) -> int:
    """Recompute sampled checks with evaluate_variant and compare with numpy."""
    failed = 0
    for index in indices:
        inst, coeffs = instances[index]
        ref = refs[index]
        for variant in variants:
            name = variant.name
            gated = orthonormal_only(name) and not ref.orthonormal
            try:
                ev = bb.evaluate_variant(variant, inst, coeffs)
            except bb.IncompatibleInstanceError:
                ok = gated
            else:
                lhs, bound = ref.bounds_for(name)
                ok = not gated and agrees(ev.lhs, lhs, bound) and holds(lhs, ev.rhs) and holds(bound, ev.rhs)
            if not ok:
                failures.append(f"instance {index} {name}: evaluate_variant disagrees with numpy")
                failed += 1
    return failed


def check_ranking(ranking, names: list[str], ref: Reference) -> bool:
    entries = ranking.entries
    ordered = all((a.rhs, a.variant) <= (b.rhs, b.variant) for a, b in zip(entries, entries[1:]))
    dominates = all(
        holds(lhs, e.rhs) and holds(bound, e.rhs)
        for e in entries
        for lhs, bound in [ref.bounds_for(e.variant)]
    )
    return ordered and dominates and sorted(e.variant for e in entries) == sorted(names)


def check_optimum(bb, family: str, result, inst, coeffs, ref: Reference, grid) -> bool:
    exponent, value, _ = result
    if not (1.0 < exponent <= EXPONENT_MAX and math.isfinite(value) and value >= 0.0):
        return False
    if family not in GRID_FAMILIES:
        return True
    name = GRID_FAMILIES[family]
    lhs, bound = ref.bounds_for(name)
    if not (holds(lhs, value) and holds(bound, value)):
        return False
    return all(
        holds(value, bb.evaluate_variant(bb.parse_variant(name.format(t)), inst, coeffs).rhs)
        for t in grid
    )


def check_round(bb, wl: Workload, plan: Plan, first: Round, seed: int, failures) -> int:
    """Failed operations of one round, found by recomputing its outputs with numpy."""
    grid = [float(t) for t in np.geomspace(*bb.DEFAULT_INTERVAL, 8)]
    names = [v.name for v in plan.variants]
    ranked = [v.name for v in plan.ranked]
    outputs = iter(first.outputs)
    failed = 0
    for k, config in enumerate(plan.configs):
        csv, js = next(outputs)
        instances = [bb.generate_instance(config, i) for i in range(config.count)]
        refs = [reference_of(inst, coeffs) for inst, coeffs in instances]
        failed += check_report(csv, js, names, config.count, refs, failures)
        rng = np.random.default_rng([seed, k])
        sample = sorted(rng.choice(config.count, size=min(wl.sample_count, config.count), replace=False))
        failed += check_samples(bb, instances, refs, plan.variants, sample, failures)
        for index in range(plan.probes):
            inst, coeffs = instances[index]
            if not check_ranking(next(outputs), ranked, refs[index]):
                failures.append(f"instance {index}: ranking fails its checks")
                failed += 1
            for family in bb.PROFILE_FAMILIES:
                if not check_optimum(bb, family, next(outputs), inst, coeffs, refs[index], grid):
                    failures.append(f"instance {index}: optimize {family} fails its checks")
                    failed += 1
    return failed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(wl: Workload, calibration: list) -> dict:
    """Fresh interpreter: import the package, build the catalog, parse the variant list."""
    calibrate(calibration)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_child.py"), str(SRC), wl.variants],
        capture_output=True, text=True, check=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    steps = json.loads(proc.stdout.splitlines()[-1])
    steps["wall_s"] = wall
    return steps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups, rounds: list[Round], rss: float, slowdown: float = 1.0) -> dict:
    """The end-to-end metrics, with times divided by ``slowdown``."""
    rank_ms = [t for r in rounds for t in r.rank_ms]
    optimize_ms = [t for r in rounds for t in r.optimize_ms]
    return {
        "setup_s": metric(statistics.median(s["wall_s"] for s in setups) / slowdown, "s"),
        "checks_per_s": metric(
            statistics.median(r.checks / r.suite_s for r in rounds) * slowdown, "checks/s"
        ),
        "peak_rss_mb": metric(rss, "MB"),
        "rank_ms_p50": metric(statistics.median(rank_ms) / slowdown, "ms"),
        "optimize_ms_p50": metric(statistics.median(optimize_ms) / slowdown, "ms"),
    }


def per_layer(setups, rounds: list[Round], tracer: Tracer) -> dict:
    """Per-round self times and counts from the spans of the traced rounds.
    The overhead compares each traced round with the untraced round just
    before it; the residual is the part of their difference that the
    subtracted wrapper cost does not account for, so still in self times."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    layers = tracer.layers()
    per_round = 1.0 / len(traced)

    def self_s(name):
        return layers.get(name, (0.0, 0))[0] * per_round

    def calls(name):
        return layers.get(name, (0.0, 0))[1] * per_round

    evals = layers.get("bounds.eval", (0.0, 0))
    skips = tracer.counts["bounds.eval.skips"] * per_round
    pairs = list(zip(untraced, traced))
    overhead = statistics.median(t.wall_s / u.wall_s for u, t in pairs)
    extra_s = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
    return {
        "verify.suite_s": metric(self_s("verify.suite"), "s"),
        "verify.generate_s": metric(self_s("verify.generate"), "s"),
        "verify.instances": metric(calls("verify.generate"), "count"),
        "verify.reduce_s": metric(self_s("verify.reduce"), "s"),
        "verify.report_s": metric(self_s("verify.report"), "s"),
        "space.gram_s": metric(self_s("space.gram"), "s"),
        "space.gram_calls": metric(calls("space.gram"), "count"),
        "space.oracle_s": metric(self_s("space.oracle"), "s"),
        "space.oracle_calls": metric(calls("space.oracle"), "count"),
        "bounds.stats_s": metric(self_s("bounds.stats"), "s"),
        "bounds.eval_s": metric(self_s("bounds.eval"), "s"),
        "bounds.checks": metric(calls("bounds.eval") - skips, "count"),
        "bounds.skips": metric(skips, "count"),
        "bounds.eval_us_per_check": metric(1e6 * evals[0] / max(evals[1], 1), "us"),
        "tuning.rank_s": metric(self_s("tuning.rank"), "s"),
        "tuning.rank_calls": metric(calls("tuning.rank"), "count"),
        "tuning.optimize_s": metric(self_s("tuning.optimize"), "s"),
        "tuning.optimize_calls": metric(calls("tuning.optimize"), "count"),
        "tuning.rhs_evals": metric(tracer.counts["tuning.rhs_evals"] * per_round, "count"),
        "cli.import_s": metric(statistics.median(s["import_s"] for s in setups), "s"),
        "variants.catalog_s": metric(statistics.median(s["catalog_s"] for s in setups), "s"),
        "trace.overhead_pct": metric(100.0 * (overhead - 1.0), "%"),
        "trace.spans": metric(len(tracer) * per_round, "count"),
        "trace.residual_s": metric(extra_s - tracer.cost_s() * per_round, "s"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < MAX_SEED:
        parser.error("--seed must lie in [0, 2**56)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bb = load_package()
    wl = WORKLOADS[args.workload]
    plan = make_plan(bb, wl, args.seed)

    # Set-up is sampled before and after the timed rounds, so that one slow
    # spell of the machine does not set the median.
    calibration: list[float] = []
    setups = [measure_setup(wl, calibration) for _ in range(SETUP_REPEATS)]
    run_round(bb, wl, make_plan(bb, wl, args.seed, warmup=True), direct)
    settle()

    tracer = Tracer(wrapper_costs()) if args.trace else None
    rounds = timed_rounds(bb, wl, plan, args.seconds, calibration, tracer)
    rss = peak_rss_mb()
    setups += [measure_setup(wl, calibration) for _ in range(SETUP_REPEATS)]
    slowdown = statistics.median(calibration) / CALIBRATION_REF_S

    failures: list[str] = []
    per_round = attempted_per_round(bb, plan)
    failed_per_round = check_round(bb, wl, plan, rounds[0], args.seed, failures)
    mismatched = sum(not r.same_as_first for r in rounds)
    if mismatched:
        failures.append(f"{mismatched} round(s) returned other outputs than the first")
    attempted = per_round * len(rounds)
    failed = failed_per_round * (len(rounds) - mismatched) + per_round * mismatched

    if tracer is not None:
        metrics = per_layer(setups, rounds, tracer)
        tracer.save(OUT / f"trace-{wl.name}.npz")
    else:
        metrics = end_to_end(setups, rounds, rss, slowdown)
        wall = end_to_end(setups, rounds, rss)

    for message in failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed")
    print(f"  machine slowdown {slowdown:.4f} (calibration kernel {1e3 * statistics.median(calibration):.4f} ms"
          f" against {1e3 * CALIBRATION_REF_S:g} ms)")
    if tracer is not None:
        print("  tracer cost per span {:.3f} us inside, {:.3f} us in its parent; per counted call {:.3f} us"
              .format(*(1e6 * c for c in tracer.costs)))
    for name, m in metrics.items():
        raw = "" if tracer is not None else f"   (unadjusted {wall[name]['value']:.6g})"
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{raw}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
