#!/usr/bin/env python3
"""Compares sets of ytbench results against the bounds in BENCHMARK.json.

A result set is a directory holding <workload>/<run>.json, each file the
result line one `ytbench/run.py --trace 0` run printed. Runs pair up in
file-name order, so name them so that pair i is the parent's and the
change's i-th run (the protocol in ytbench/README.md alternates which side
runs first).

    compare.py PARENT CHANGE      verdict per workload and end-to-end metric;
                                  exits 1 if any row is worse
    compare.py --self A B         two sets of one commit must agree: exits 1
                                  if any row is worse or unresolved
    compare.py --validate FILE..  checks result files against BENCHMARK.json

Verdicts, per workload and metric (bound = the metric's bound), in order:
  worse       the change's median is worse than the parent's by > bound
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run beats every parent run
  improved    the change wins >= 9/10 of the pairs and its median beats the
              parent's by more than the parent's interquartile range
  unchanged   otherwise
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_benchmark():
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def read_result(path):
    """The last non-empty line of `path`, parsed."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    return json.loads(lines[-1])


def validate(paths, bench):
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    bad = 0
    for path in paths:
        try:
            res = read_result(path)
        except (OSError, ValueError) as err:
            print(f"{path}: {err}")
            bad += 1
            continue
        problems = []
        if set(res) != RESULT_KEYS:
            problems.append(f"keys {sorted(res)}")
        if res.get("correct") is not True:
            problems.append("correct is not true")
        for key, least in (("attempted", 1), ("failed", 0)):
            value = res.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < least:
                problems.append(f"{key} = {value!r}")
        metrics = res.get("metrics", {})
        names = set(metrics)
        kind = next((k for k, want in expected.items()
                     if set(want) == names), None)
        if kind is None:
            problems.append("metric names match neither end_to_end nor "
                            "per_layer")
        else:
            for name, want_unit in expected[kind].items():
                entry = metrics[name]
                value = entry.get("value")
                if set(entry) != {"value", "unit"} \
                        or entry["unit"] != want_unit \
                        or not isinstance(value, (int, float)) \
                        or isinstance(value, bool) \
                        or not math.isfinite(value) \
                        or (kind == 0 and value <= 0):
                    problems.append(f"{name}: {entry}")
        if problems:
            bad += 1
            print(f"{path}: " + "; ".join(problems))
    print(f"validated {len(paths)} file(s), {bad} bad")
    return 1 if bad else 0


def load_set(directory, metrics):
    """{workload: {metric: [values in file-name order]}}"""
    out = {}
    for wdir in sorted(p for p in Path(directory).iterdir() if p.is_dir()):
        runs = [read_result(f) for f in sorted(wdir.glob("*.json"))]
        if runs:
            out[wdir.name] = {
                m: [r["metrics"][m]["value"] for r in runs] for m in metrics}
    return out


def spread(values):
    """(median, q1, q3, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, lower_better, bound):
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med, _, _, c_spread = spread(change)

    def better(a, b):
        return a < b if lower_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    gain = (p_med - c_med) if lower_better else (c_med - p_med)
    improved = win_frac >= 0.9 and gain > p_q3 - p_q1
    worse_by = -gain / abs(p_med) if p_med else 0.0
    separated = all(better(c, p) for p in parent for c in change)
    if worse_by > bound:
        label = "worse"
    elif max(p_spread, c_spread) > bound and not separated:
        label = "unresolved"
    elif improved:
        label = "improved"
    else:
        label = "unchanged"
    return label, win_frac, worse_by, p_spread, c_spread


def compare(a_dir, b_dir, bench, self_check):
    e2e = bench["end_to_end"]
    names = [m["name"] for m in e2e]
    a_set, b_set = load_set(a_dir, names), load_set(b_dir, names)
    failing = {"worse", "unresolved"} if self_check else {"worse"}
    side = ("A", "B") if self_check else ("parent", "change")
    print(f"{'workload':22s} {'metric':15s} {side[0] + ' median [q1, q3]':>34s}"
          f" {side[1] + ' median [q1, q3]':>34s} {'wins':>5s} {'worse':>7s}"
          f" {'spread':>13s}  verdict")
    bad = 0
    for workload in sorted(set(a_set) | set(b_set)):
        if workload not in a_set or workload not in b_set:
            print(f"{workload:22s} missing from one set")
            bad += 1
            continue
        for m in e2e:
            a, b = a_set[workload][m["name"]], b_set[workload][m["name"]]
            label, win_frac, worse_by, a_spread, b_spread = verdict(
                a, b, m["better"] == "lower", m["bound"])
            cols = []
            for values in (a, b):
                med, q1, q3, _ = spread(values)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:22s} {m['name']:15s} {cols[0]:>34s} "
                  f"{cols[1]:>34s} {win_frac:5.2f} {worse_by:+7.3f} "
                  f"{a_spread:6.3f}/{b_spread:6.3f}  {label}"
                  f"{' (bound %.2f)' % m['bound'] if label in failing else ''}")
            bad += label in failing
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n", maxsplit=1)[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self", dest="self_check", action="store_true",
                        help="the two sets come from one commit")
    parser.add_argument("--validate", action="store_true",
                        help="check result files instead of comparing sets")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.validate:
        return validate(args.paths, bench)
    if len(args.paths) != 2:
        parser.error("comparing takes exactly two result-set directories")
    return compare(args.paths[0], args.paths[1], bench, args.self_check)


if __name__ == "__main__":
    sys.exit(main())
