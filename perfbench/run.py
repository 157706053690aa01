#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <ioctl_steady|nvme_rerand|fleet_cold> \
        --seed <n> --seconds <s> --trace <0|1>

The release binary is built with the offline toolchain into
$CARGO_TARGET_DIR (default `.bench_build`). Build output goes to stderr;
the benchmark's own standard output is passed through unchanged, so its
last line is the JSON result. The exit code is the benchmark's, or
non-zero when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run measures for at most 60 s plus set-up and companions; anything
# slower than this is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "perfbench"
    try:
        return subprocess.run([str(binary), *sys.argv[1:]], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
