#!/usr/bin/env python3
"""Compare two directories of benchmark results, metric by metric.

    benchmark/compare.py A/ B/

A holds runs of the parent, B runs of the change, made with the same
--seconds and the same seeds (run each seed on both sides, alternating which
side goes first). Runs pair up by (workload, seed); runs marked invalid are
left out. For every (workload, end-to-end metric) the table shows each
side's median and quartiles, B's change against A as a share of A's median
(positive = worse), the metric's bound from BENCHMARK.json, and a verdict:

  unresolved  A's own spread (quartile distance / median) exceeds the bound,
              and not every B run reads better than every A run
  regressed   B's median is worse than A's by more than the bound
  improved    at least 10 pairs, B better in at least 9 in 10 of them
              (ties count for neither), and the medians differ by more
              than A's quartile distance
  ok          none of the above

Exits 1 when any verdict is regressed or unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, seed): result} for the untraced, valid runs in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-seed*.json")):
        result = json.loads(path.read_text())
        if result.get("traced") or "end_to_end" not in result:
            continue
        if not result.get("valid", False):
            print(f"skipping invalid run {path}: {result.get('validity')}")
            continue
        runs[(result["workload"], result["seed"])] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, q3_a = quartiles(a)
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    b_better = lambda x, y: sign * (x - y) < 0  # x (from B) better than y (from A)
    all_better = all(b_better(x, y) for x in b for y in a)
    spread = (q3_a - q1_a) / med_a if med_a else 0.0
    wins = sum(1 for x, y in pairs if b_better(x, y))
    if spread > bound and not all_better:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3_a - q1_a):
        return worse, "improved"
    return worse, "ok"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    runs_a, runs_b = load(argv[1]), load(argv[2])
    workloads = sorted({w for w, _ in runs_a} & {w for w, _ in runs_b})
    if not workloads:
        print("no workload has valid runs on both sides", file=sys.stderr)
        return 2
    header = (f"{'workload':10} {'metric':24} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    failing = 0
    for workload in workloads:
        seeds_a = {s for w, s in runs_a if w == workload}
        seeds_b = {s for w, s in runs_b if w == workload}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [runs_a[(workload, s)]["end_to_end"][name]["value"] for s in sorted(seeds_a)]
            b = [runs_b[(workload, s)]["end_to_end"][name]["value"] for s in sorted(seeds_b)]
            pairs = [(runs_b[(workload, s)]["end_to_end"][name]["value"],
                      runs_a[(workload, s)]["end_to_end"][name]["value"])
                     for s in sorted(seeds_a & seeds_b)]
            worse, word = verdict(a, b, pairs, metric["better"], metric["bound"])
            failing += word in ("regressed", "unresolved")
            cell = lambda v: "%.6g [%.6g, %.6g]" % ((statistics.median(v),) + quartiles(v))
            print(f"{workload:10} {name:24} {cell(a):>34} {cell(b):>34} "
                  f"{worse:+8.2%} {metric['bound']:6.0%}  {word}  "
                  f"({len(a)} vs {len(b)} runs, {len(pairs)} pairs)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
