#!/usr/bin/env python3
"""Builds htapbench from this checkout's sources and runs one workload.

Usage (from the repository root):

  python3 htapbench/run.py --htap-rate 600 --workload htap --seed 1 \
      --seconds 10 --trace 0

The build (Release, in .bench_build/htapbench) is incremental; the first
run of a checkout compiles the library. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is
the benchmark's: non-zero when a correctness check failed, the build
failed, or the run exceeded its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

# A run ends well within the 180 s a caller allows for it.
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    """Configures (once) and builds the htapbench target; True on success."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "htapbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "htapbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["ch_analytics", "htap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--htap-rate", type=float, required=True,
                    help="offered OLTP rate of the htap workload, txn/s")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("htapbench: library sources (src/) not found in " + root,
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_build")
    build_dir = os.path.join(out_dir, "htapbench")
    if not build(root, build_dir):
        print("htapbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(out_dir, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "htapbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--htap-rate", repr(args.htap_rate),
           "--workdir", workdir,
           "--trace-dir", os.path.join(out_dir, "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("htapbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
