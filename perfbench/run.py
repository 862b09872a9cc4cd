#!/usr/bin/env python3
"""Closed-loop RouteService benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the navscheme library and the
benchmark driver (Release, into .bench_build/perfbench) on first use, then
runs one measurement of the named workload (see BENCHMARK.json). The driver
prints human-readable lines, then, as the last line of standard output, one
JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero on a correctness failure, a failed build, or a checkout
without the library sources.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"error: {ROOT} holds no navscheme sources to build")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"error: build failed: {error}")
    # Hop digests are remembered per (workload, seed) for this exact binary,
    # so a repeated run at one seed must reproduce them bit for bit.
    binary_id = hashlib.sha256(driver.read_bytes()).hexdigest()[:16]
    digests = BUILD / "digests" / binary_id
    digests.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--digest-file", str(digests / f"{args.workload}-{args.seed}")]
    if args.trace:
        command += ["--trace-out", str(BUILD / f"trace-{args.workload}.json")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
