#!/usr/bin/env python3
"""Build the benchmark and the st-serve daemon from source, then run one
workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`), offline.
The last line of standard output is the run's JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target, os.path.join(HERE, "Cargo.toml"))
    build(target, os.path.join(ROOT, "Cargo.toml"), "-p", "st-serve", "--bin", "st-serve")
    env = dict(
        os.environ,
        PERFBENCH_COMMIT=capture(["git", "rev-parse", "HEAD"]),
        PERFBENCH_RUSTC=capture(["rustc", "-V"]),
    )
    cmd = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--out-dir", os.path.join(target, "perfbench"),
        "--serve-bin", os.path.join(target, "release", "st-serve"),
    ]
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
