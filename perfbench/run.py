#!/usr/bin/env python3
"""Builds the schemr benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload byexample|browse|ingest \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test     # the benchmark's own tests

Run from the root of a checkout. Build output goes to stderr; the
benchmark's report goes to stdout, its last line one JSON object. Builds
land in $CARGO_TARGET_DIR (default .bench_build) under the checkout, and
so do the run's scratch repository and the traced run's spans.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_root():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, configured)


def build(targets):
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target"] + targets,
        check=True, stdout=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["byexample", "browse", "ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no schemr sources at %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        build_dir = build(["perfbench_test"] if args.test
                          else ["schemr_perfbench"])
    except (OSError, subprocess.CalledProcessError) as error:
        print("run.py: build failed: %s" % error, file=sys.stderr)
        return 2

    if args.test:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_test")]).returncode

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work_dir = os.path.join(build_root(), "perfbench-work", tag)
    command = [os.path.join(build_dir, "schemr_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        spans_dir = os.path.join(build_root(), "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
