#!/usr/bin/env python3
"""Build the RPC benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload ping_hot --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates from source by path. Build output goes to
$CARGO_TARGET_DIR, or .bench_build when it is unset. The last line of
standard output is the benchmark's JSON result; the exit code is the
benchmark's. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
