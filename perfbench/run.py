#!/usr/bin/env python3
"""Build `lfpr` and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`); working files go to `.perfbench/`. The last
line of standard output is the JSON result. Exits non-zero, without a
result, when the build fails.
"""

import os
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "--bin", "lfpr"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "lfpr-perfbench"), "--lfpr", os.path.join(release, "lfpr"), *sys.argv[1:]]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
