#!/usr/bin/env python3
"""Build and run the treegion benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|taildup|serve --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release mode under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later calls
only rebuild what changed. Build output goes to standard error. The
benchmark's own output goes to standard output, whose last line is
the result object {"correct", "attempted", "failed", "metrics"}.
Spans of traced runs and a results ledger are written under
.perfbench_out/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build():
    """Build tgbench; return its path or None."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return None
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tgbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "tgbench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or "--selftest" in argv:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
