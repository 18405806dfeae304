#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark executable is built with dune into _build/perfbench (a
release build dir of its own, so it does not disturb the default dev
build), then run with the same arguments.  Its last line of standard
output is the JSON result.  Exits non-zero, without a result, when the
build fails (for instance outside a full checkout), and passes through
the benchmark's own exit code otherwise.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join("_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=env)
    except OSError as e:
        sys.stderr.write("perfbench: cannot run dune: %s\n" % e)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    if not build():
        return 1
    try:
        return subprocess.run([EXE] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
