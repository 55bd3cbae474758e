#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fill|flood|churn|cached \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. Build output
goes to stderr; the benchmark's last stdout line is its JSON result. Exits
non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / "perfbench"
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
