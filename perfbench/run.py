#!/usr/bin/env python3
"""End-to-end benchmark of the test-set preservation flow.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload preserve|justify|grade|serve \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench_driver (perfbench/CMakeLists.txt, Release) from the checkout's
sources into the build directory -- $CARGO_TARGET_DIR when set, else
.bench_build -- then runs one workload for S seconds of measurement and
prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  The line before it is the
run record (host, configuration, sample counts).  Build output goes to
standard error.  Each result is also saved under <build>/results/ for
perfbench/compare.py; a traced run's spans go to <build>/spans/.

Exit status: 0 when the run completed, non-zero (and no result line)
when the build, the environment check or the run failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
# A run must end within 180 s; perfbench_driver gets what the build leaves.
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds perfbench_driver.

    Returns the binary's path, or None when a step failed.
    """
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                   "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(out_dir, "perfbench_driver")


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["preserve", "justify", "grade", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload and check")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tag = "%s-seed%d-trace%s%s" % (args.workload, args.seed, args.trace,
                                   "-smoke" if args.smoke else "")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", commit(), "--build-type", BUILD_TYPE]
    if args.smoke:
        command.append("--smoke")
    if args.trace == "1":
        os.makedirs(os.path.join(out_dir, "spans"), exist_ok=True)
        command += ["--spans", os.path.join(out_dir, "spans", tag + ".json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or len(lines) < 2:
        sys.stderr.write(run.stdout)
        print("perfbench: perfbench_driver exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])

    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1)
    print(lines[-2])
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
