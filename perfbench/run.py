#!/usr/bin/env python3
"""Builds the serve daemon and the benchmark from source, then runs one
workload of the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <sim-bare|serve-cold|serve-warm|batch-small> \
        --seed <n> --seconds <s> --trace <0|1>

Both programs build in release mode into $CARGO_TARGET_DIR (default
.bench_build at the checkout root). Build output goes to standard error;
standard output is the benchmark's, whose last line is its JSON result.
The exit code is the benchmark's; a missing source tree or a failed build
exits 1 without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            sys.exit(f"perfbench: {manifest} is missing; run from a full checkout")
    build(target, "Cargo.toml", "--bin", "spatial-dataflow")
    build(target, os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--daemon", os.path.join(release, "spatial-dataflow")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
