#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (smoke mode), in about a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload through perfbench/run.py in smoke mode, untraced and
traced, and checks that:
  - each run exits 0 and its last line has exactly the keys correct,
    attempted, failed and metrics, with every correctness gate passing;
  - an untraced run reports exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly the per_layer metrics, with
    the declared units, and no end-to-end metric reads 0;
  - the deterministic counts of a traced run repeat across two seeds;
  - a result-changing REPRO_* variable makes the run refuse, with a
    non-zero exit and no result line;
  - perfbench/compare.py reads the saved results, and flags as worse a
    result with one more failed operation, however small its share.
Exit status 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["preserve", "justify", "grade", "serve"]
# Counts that every run must reproduce exactly (the input seed changes
# only prefix vectors, orders and grade sequences).
DETERMINISTIC = {
    "preserve": ["atpg.evaluations", "atpg.detected", "faultsim.detected"],
    "justify": ["atpg.evaluations", "atpg.detected", "atpg.redundant"],
    "grade": ["faultsim.frames", "fault.faults"],
    "serve": ["server.rejected", "server.failed"],
}

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL " + what)


def run(workload, seed, trace, env=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "1", "--trace",
               str(trace), "--smoke"]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names the four workloads")

    for workload in WORKLOADS:
        traced = {}
        for seed, trace in [(1, 0), (1, 1), (2, 1)]:
            what = "%s seed %d trace %d" % (workload, seed, trace)
            done = run(workload, seed, trace)
            check(done.returncode == 0, what + ": exit 0")
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-3000:])
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], what + ": result keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, what + ": every gate passes")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], what + ": metric names and units")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] == 0]
                check(not zero, what + ": no end-to-end metric is 0 %s" % zero)
            else:
                traced[seed] = result["metrics"]
        if len(traced) == 2:
            for name in DETERMINISTIC[workload]:
                check(traced[1][name]["value"] == traced[2][name]["value"],
                      "%s: %s repeats across seeds" % (workload, name))

    env = dict(os.environ, REPRO_ATPG_BUDGET_MS="1000")
    done = run("justify", 1, 0, env)
    check(done.returncode != 0 and not done.stdout.strip(),
          "REPRO_ATPG_BUDGET_MS makes the run refuse")

    results = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build", "perfbench", "results")
    done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                           results, results], capture_output=True, text=True)
    check(done.returncode == 0 and "== serve (untraced, smoke)" in done.stdout,
          "compare.py reads the saved results")

    # One failed operation out of many moves ops_ok_pct by less than its
    # bound; the comparer must still flag it from the failed count.
    base = os.path.join(results, "serve-seed1-trace0-smoke.json")
    with open(base) as f:
        saved = json.load(f)
    result = saved["result"]
    result["attempted"] = 1000
    result["failed"] = 1
    result["correct"] = False
    result["metrics"]["ops_ok_pct"]["value"] = 99.9
    broken = os.path.join(os.path.dirname(results), "selftest-failed.json")
    with open(broken, "w") as f:
        json.dump(saved, f)
    done = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                           base, broken], capture_output=True, text=True)
    check(done.returncode == 1 and "new 1 of 1000 (1 runs incorrect)  worse"
          in done.stdout, "compare.py flags one failed operation as worse")

    print("selftest: %s" % ("ok" if not failures else
                            "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
