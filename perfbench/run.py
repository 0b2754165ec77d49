#!/usr/bin/env python3
"""Build the benchmark from the enclosing source tree, then run it.

    python3 perfbench/run.py --workload outbreak-wide --seed 1 \
        --seconds 20 --trace 0

Run from the root of the source tree. The Release build goes to
.bench_build/perfbench (outside the tracked tree); build output goes
to stderr so that the last line of stdout is the benchmark's JSON
result. Without the project's sources the build fails and this exits
non-zero with no result line.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "rssd_perfbench")
JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def step(cmd):
    """Run one build step; on failure show its output and exit 1."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "--target", "rssd_perfbench",
          "-j", JOBS])


def main():
    build()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
