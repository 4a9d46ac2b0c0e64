#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the sources next to this file,
then runs it with the given arguments from the repository root.  The
benchmark's last line of standard output is its JSON result; build
output goes to standard error.  Exits non-zero if the tree cannot be
built (for instance when the engine sources are missing) or the run
fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark; return dune's exit code (2 if dune is absent
    or the tree is not a dune project)."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; the engine sources are "
              "missing" % ROOT, file=sys.stderr)
        return 2
    try:
        return subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2


def run(args, timeout=RUN_TIMEOUT_S, **kw):
    """Run the built benchmark with [args] from the repository root."""
    return subprocess.run([EXE] + list(args), cwd=ROOT, timeout=timeout, **kw)


def main():
    rc = build()
    if rc != 0:
        return rc
    sys.stdout.flush()
    try:
        return run(sys.argv[1:]).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
