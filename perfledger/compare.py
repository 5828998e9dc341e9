#!/usr/bin/env python3
"""Compares two sets of ledger runs: the parent commit (BASE) and a change (HEAD).

    python3 perfledger/compare.py BASE.jsonl HEAD.jsonl [--benchmark BENCHMARK.json]

Each file holds the lines `ledger --out FILE` appends, one per workload run.
Run the two commits in alternating order (parent first on even pairs, change
first on odd ones) with the same seconds and seeds; the i-th end-to-end run
of a workload in BASE pairs with the i-th in HEAD. At least ten pairs are
needed per workload.

For every end-to-end metric of BENCHMARK.json, on each workload:
  gain        HEAD wins at least 9 of 10 pairs (ties count for neither side)
              and the medians differ by more than BASE's interquartile range
  regression  HEAD's median is worse than BASE's by more than the bound
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every HEAD run beats every BASE run
  same        none of the above
A gain does not count when HEAD failed more operations than BASE.

Per-layer metrics with unit "count" are exact counters: traced runs with the
same workload and seed must report the same value on both sides.

Prints one row per workload and exits 1 on any regression, counter change or
missing data.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, head, bound, lower_is_better, base_failed, head_failed):
    n = min(len(base), len(head))
    base, head = base[:n], head[:n]
    better = (lambda h, b: h < b) if lower_is_better else (lambda h, b: h > b)
    wins = sum(1 for h, b in zip(head, base) if better(h, b))
    med_b, med_h = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    change = (med_h - med_b) / med_b if med_b else 0.0
    worse_by = change if lower_is_better else -change
    widest = max((b_q3 - b_q1) / med_b if med_b else 0.0,
                 (h_q3 - h_q1) / med_h if med_h else 0.0)
    all_better = all(better(h, b) for h in head for b in base)
    if widest > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif (wins >= WIN_SHARE * n and abs(med_h - med_b) > b_q3 - b_q1
          and better(med_h, med_b)):
        label = "gain" if head_failed <= base_failed else "gain-void(failures)"
    else:
        label = "same"
    return label, f"{med_b:.4g}->{med_h:.4g} ({change:+.1%}, wins {wins}/{n})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base_runs, head_runs = load(args.base), load(args.head)

    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        def timed(runs):
            return [r for r in runs if r["workload"] == workload and not r["trace"]]
        base, head = timed(base_runs), timed(head_runs)
        n = min(len(base), len(head))
        cells = []
        if n < MIN_PAIRS:
            cells.append(f"too few pairs ({n} < {MIN_PAIRS})")
            failed = True
        else:
            base_failed = sum(r["failed"] for r in base[:n])
            head_failed = sum(r["failed"] for r in head[:n])
            for metric in bench["end_to_end"]:
                name = metric["name"]
                label, detail = verdict(
                    [r["metrics"][name]["value"] for r in base[:n]],
                    [r["metrics"][name]["value"] for r in head[:n]],
                    metric["bound"], metric["better"] == "lower",
                    base_failed, head_failed)
                failed = failed or label == "regression"
                cells.append(f"{name} {label} {detail}")
            cells.append(f"failed {base_failed}->{head_failed}")

        # Exact counters, matched by seed across the traced runs.
        counters = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
        traced_base = {r["seed"]: r for r in base_runs
                       if r["workload"] == workload and r["trace"]}
        for r in head_runs:
            if r["workload"] != workload or not r["trace"]:
                continue
            other = traced_base.get(r["seed"])
            if other is None:
                continue
            for name in counters:
                b = other["metrics"].get(name, {}).get("value")
                h = r["metrics"].get(name, {}).get("value")
                if b != h:
                    cells.append(f"COUNTER {name} seed {r['seed']}: {b}->{h}")
                    failed = True
        print(f"{workload}: " + "; ".join(cells))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
