#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oltp-hdd --seed 1 --seconds 10 --trace 0

The driver (perfbench/driver.cc) is compiled together with the simulator
libraries under src/ into the build directory named by CARGO_TARGET_DIR, or
.bench_build when that is unset. Build output goes to stderr, so the last
line of stdout is the driver's JSON result. The exit status is the
driver's: 0 only if every correctness check passed.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# A run must finish within 180 s; leave the driver a margin below that.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    binary = build_dir / "perfbench_driver"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return binary


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([str(binary)] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
