#!/usr/bin/env python3
"""Builds the ledger driver and ecensusd from source, then runs the driver.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it is
set, else to .bench_build; the first run configures and builds (about a
minute on 4 cores), later runs only check that the build is current. Every
argument goes to the driver unchanged (see perfledger/README.md). Build
output goes to stderr, so the driver's result stays the last line of stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ledger", "-j4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    driver = os.path.join(build_dir, "ledger")
    os.execv(driver, [driver] + sys.argv[1:])


if __name__ == "__main__":
    main()
