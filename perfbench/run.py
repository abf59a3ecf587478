#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a kmm checkout:

    python3 perfbench/run.py --workload conn-gnm --seed 1 --seconds 20 --trace 0

Builds the kmm library and the kmm_perfbench binary (Release) into the directory
named by $CARGO_TARGET_DIR, or .bench_build, then runs that binary with the
same arguments. Its stdout passes through unchanged; its last line
is the JSON result. Build output goes to stderr. Exits nonzero without a
result when the checkout holds no kmm sources.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def build(root):
    """Configure once, then build incrementally; returns the binary's path."""
    here = os.path.join(root, "perfbench")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "src", "kmm.hpp")):
        sys.exit("perfbench: no kmm sources under %s (src/kmm.hpp missing)" % root)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "kmm_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "kmm_perfbench")


def main(argv):
    binary = build(os.getcwd())
    sys.stdout.flush()
    done = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
