#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py --runs 10 [--first-seed 1]

For every workload in BENCHMARK.json it makes ``--runs`` untraced runs with
distinct seeds, then a second set with other seeds.  For each end-to-end
metric it reports both medians, the spread of each set (distance between the
first and third quartile as a share of the median) and whether

* each spread stays within the metric's bound,
* the two medians differ by no more than the bound, as a share of the first,
* the share of failed operations is the same in both sets.

A spread above a third of the bound is noted.  The raw results go to
bench/out/steady.json.  Exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    seed = args.first_seed
    for _ in range(2):
        for w in workloads:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(spec["command"], w, seed, spec["run_seconds"]))
                seed += 1
                print(f"{w} seed {seed - 1}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
            results[w].append(runs)

    out = BENCH / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    ok = True
    print(f"\n{'workload':14s} {'metric':16s} {'median 1':>12s} {'median 2':>12s} "
          f"{'spread 1':>9s} {'spread 2':>9s} {'change':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        sets = results[w]
        shares = {Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in sets}
        if len(shares) != 1 or any(not r["correct"] for s in sets for r in s):
            print(f"{w}: failed shares {sorted(map(str, shares))} or incorrect runs")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            change = (medians[1] - medians[0]) / medians[0]
            failing = []
            if max(spreads) > bound:
                failing.append("spread above bound")
            if abs(change) > bound:
                failing.append("medians disagree")
            verdict = "; ".join(failing) or "ok"
            if not failing and max(spreads) > bound / 3:
                verdict = "ok, spread above a third of the bound"
            ok = ok and not failing
            print(f"{w:14s} {name:16s} {medians[0]:12.6g} {medians[1]:12.6g} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {change:8.4f} {bound:6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
