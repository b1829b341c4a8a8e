#!/usr/bin/env python3
"""Build and run the FETCH benchmark.

Run from the root of the repository:

    python3 fetchbench/run.py --workload corpus-batch --seed 1 --seconds 25 --trace 0

It builds fetchbench/main.exe from source with dune (inside the
repository's dune project, with dune's shared cache off so nothing is
written outside the tree), then runs it with the same arguments. The
last line of standard output is the result as one JSON object.
Workloads: corpus-batch, pointer-heavy, serve-mixed.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "fetchbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("fetchbench: run from the root of the FETCH repository "
                 "(no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "fetchbench/main.exe"],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("fetchbench: build failed")
    run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
