#!/usr/bin/env python3
"""Offline comparer for two sets of perfbench results.

Usage:

    python3 perfbench/compare.py BASE NEW [--bench BENCHMARK.json]

BASE and NEW are result files saved by perfbench/run.py (under
<build>/results/) or directories of them.  For every workload and metric
the comparer prints each side's median and quartiles (Python's
statistics.quantiles(values, n=4)), the spread (quartile distance over
median) and the change of the median.  End-to-end metrics carry the
bound from BENCHMARK.json:

  unresolved  a side's spread exceeds the bound, so the sets cannot tell
              a change of that size from noise (unless every NEW run
              beats every BASE run: "better (every run)");
  worse       NEW's median is worse than BASE's by more than the bound;
  better      NEW's median is better than BASE's by more than the bound.

Correctness is compared apart from the bounds.  Each side's failed
operations and incorrect runs are summed from the result lines'
`failed` and `correct` fields.  A workload is flagged worse when NEW
fails a larger share of its attempted operations than BASE, or when
any NEW run reports `correct: false`.

Per-layer metrics (traced runs) have no bound and are printed only.
Exit status 1 when any workload or end-to-end metric is worse, else 0.

The host's speed drifts over minutes and hours, so two sets compare
only when they were taken alternately: one BASE run, one NEW run, and
so on.  Sets measured at different times measure the host as much as
the code.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Metric values and run outcomes from result files or dirs.

    Returns ({key: {metric: [values]}}, {key: [attempted, failed,
    incorrect runs]}), keyed by (workload, trace, smoke).
    """
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    values, outcomes = {}, {}
    for name in files:
        with open(name) as f:
            saved = json.load(f)
        record, result = saved["record"], saved["result"]
        key = (record["workload"], int(record["trace"]),
               bool(record["smoke"]))
        for metric, entry in result["metrics"].items():
            values.setdefault(key, {}).setdefault(metric, []).append(
                entry["value"])
        outcome = outcomes.setdefault(key, [0, 0, 0])
        outcome[0] += result["attempted"]
        outcome[1] += result["failed"]
        outcome[2] += 0 if result["correct"] else 1
    return values, outcomes


def correctness_verdict(base, new):
    """'worse' when NEW fails more than BASE, else ''.

    `base` and `new` are [attempted, failed, incorrect runs].
    """
    if new[2] > 0 or new[1] * max(1, base[0]) > base[1] * max(1, new[0]):
        return "worse"
    return ""


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def verdict(metric, base, new, bench):
    """Flag text for one end-to-end metric, or '' when within bound."""
    spec = bench.get(metric)
    if spec is None:
        return ""
    bound = spec["bound"]
    (bm, _, _, bs), (nm, _, _, ns) = summary(base), summary(new)
    if bs > bound or ns > bound:
        lower = spec["better"] == "lower"
        if (max(new) < min(base)) if lower else (min(new) > max(base)):
            return "better (every run)"
        return "unresolved"
    if not bm:
        return ""
    change = (nm - bm) / abs(bm)
    if spec["better"] == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.bench) as f:
        bench = {m["name"]: m for m in json.load(f)["end_to_end"]}
    (base, base_runs), (new, new_runs) = load(args.base), load(args.new)

    worse = False
    for key in sorted(set(base) & set(new)):
        workload, trace, smoke = key
        print("== %s (%s%s)" % (workload, "traced" if trace else "untraced",
                                ", smoke" if smoke else ""))
        print("  %-28s %12s %12s %12s %8s %8s %9s  %s" % (
            "metric", "base median", "new median", "new q1..q3", "base sp",
            "new sp", "change", "flag"))
        for metric in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][metric], new[key][metric]
            bm, _, _, bs = summary(b)
            nm, q1, q3, ns = summary(n)
            change = (nm - bm) / abs(bm) * 100 if bm else 0.0
            flag = verdict(metric, b, n, bench) if trace == 0 else ""
            worse = worse or flag == "worse"
            print("  %-28s %12.6g %12.6g %5.4g..%-5.4g %7.2f%% %7.2f%% "
                  "%+8.2f%%  %s" % (metric, bm, nm, q1, q3, bs * 100,
                                    ns * 100, change, flag))
        print("  (%d base runs, %d new runs)" % (
            len(next(iter(base[key].values()))),
            len(next(iter(new[key].values())))))
        flag = correctness_verdict(base_runs[key], new_runs[key])
        worse = worse or flag == "worse"
        print("  failed operations: base %d of %d (%d runs incorrect), "
              "new %d of %d (%d runs incorrect)  %s" % (
                  base_runs[key][1], base_runs[key][0], base_runs[key][2],
                  new_runs[key][1], new_runs[key][0], new_runs[key][2], flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
