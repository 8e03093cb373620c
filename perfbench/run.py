#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark (perfbench/CMakeLists.txt) compiles the csp libraries
from ./src into .bench_build/perfbench, then runs the perfbench binary
with the same arguments. Build output goes to stderr; the binary's
stdout, whose last line is the result object, is passed through
unchanged. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    """Configure once, then build the perfbench target (a no-op when
    nothing changed). Returns the binary's path."""
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no csp sources next to perfbench/; "
                 "run from a checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
