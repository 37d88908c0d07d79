#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload analytics|route|live \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds `perfbench/` (a Cargo
package of its own that depends on the repository's crates by path) in
release mode, offline, into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs the binary with the given arguments.  The binary prints a
summary and, as the last line of standard output, the result as one JSON
object.  Build output goes to standard error.

Exit codes: the binary's own (0 on success, 2 for bad arguments, 3 when
its watchdog finds an operation stuck), the build's when the build fails,
and 124 when the run outlives RUN_TIMEOUT_S.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; this backstop sits above the binary's own
# watchdog (30 s per operation) and below that limit.
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 124
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
