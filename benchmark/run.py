#!/usr/bin/env python3
"""Builds ritas_bench from this checkout's sources, then runs it.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload ab_small --seed 1 --seconds 12 --trace 0

The build goes to $CARGO_TARGET_DIR/ritas_bench (default
.bench_build/ritas_bench) and the run's files (bench_result.json,
trace_<workload>.json) to its out/ directory. Build output goes to stderr;
the last line of stdout is the benchmark's JSON result. A failed build exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build = os.path.join(os.path.abspath(target), "ritas_bench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(root, "benchmark"), "-B", build,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build, ignore_errors=True)
            return 2
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build, "--target", "ritas_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return 2
    out = os.path.join(build, "out")
    bench = [os.path.join(build, "ritas_bench"), *sys.argv[1:], "--out", out]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
