#!/usr/bin/env python3
"""Builds the rega benchmark and runs one workload on one CPU.

Run from the repository root:

    python3 perfbench/run.py --workload serve-view --seed 1 --seconds 10 --trace 0

The benchmark crate is built in release mode (into CARGO_TARGET_DIR when it
is set, else perfbench/target), then this process pins itself to the first
CPU it may run on and replaces itself with the benchmark binary, so the
workload, its server threads and its cluster worker process all share that
CPU. On a container whose cores other tenants share, that keeps thread
placement from adding noise, and lets the benchmark's calibration kernel
measure the very core the workload runs on (see README.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "rega-perfbench")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
