#!/usr/bin/env python3
"""Smoke test of the ledger driver: every workload at smoke scale, timed and traced.

    python3 perfledger/smoke.py LEDGER_BINARY BENCHMARK.json WORK_DIR

Checks that each run exits 0 with nothing failed, that its result line
carries every metric BENCHMARK.json names (end-to-end when timed, per-layer
when traced) with the declared unit, and that the traced run's Chrome trace
parses.
"""

import json
import os
import subprocess
import sys


def main():
    ledger, benchmark, work = sys.argv[1:4]
    with open(benchmark) as f:
        bench = json.load(f)
    os.makedirs(work, exist_ok=True)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            trace_path = os.path.join(work, f"trace-{workload}.json")
            cmd = [ledger, "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", trace, "--smoke", "--work", work, "--trace-out", trace_path]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            where = f"{workload} trace={trace}"
            if run.returncode != 0:
                problems.append(f"{where}: exit {run.returncode}: {run.stderr[-500:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            for metric in expected:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: missing {metric['name']}")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit {got['unit']}")
            if trace == "1":
                with open(trace_path) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    problems.append(f"{where}: empty trace")
    for problem in problems:
        print(problem)
    print("ledger_smoke:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
