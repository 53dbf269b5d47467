#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix-detailed --seed 1 --seconds 15 --trace 0

The arguments go to the benchmark executable unchanged; its last line of
standard output is the JSON result.  The build's own output goes to
standard error.  Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGET = "./perfbench/main.exe"


# glibc's malloc gives each thread that allocates its own arena.  The
# serve-mixed daemon's worker domain then can keep freed 8 MB simulated
# memories in an arena of its own, and whether peak RSS counts one or two
# of them extra depends on how the domains interleave: under CPU
# contention it swung between 51 and 68 MB over seeds.  With one arena,
# as a single-threaded program has, it stayed within 49.5-52 MB.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1"}


def run(cmd, timeout, stdout, env=None):
    # a child that outlives its time limit is killed and waited for
    proc = subprocess.Popen(cmd, stdout=stdout, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project at the checkout root; nothing to build",
              file=sys.stderr)
        return 1
    # keep every build artefact and temporary file inside the checkout
    os.environ["DUNE_CACHE"] = "disabled"
    tmp = os.path.join(root, "perfbench", "_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    status = run(["dune", "build", "--root", ".", TARGET], BUILD_TIMEOUT_S, sys.stderr)
    if status != 0:
        print(f"perfbench: build failed ({status})", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return run([exe] + sys.argv[1:], RUN_TIMEOUT_S, None, dict(os.environ, **MALLOC_ENV))


if __name__ == "__main__":
    sys.exit(main())
