#!/usr/bin/env python3
"""Compares the deterministic counts of two fig3/fig4 harness runs exactly.

The figure harnesses (`bench/fig3_all_insert`, `bench/fig4_mixed`) run the
serial Scheduler from a fixed seed, so every count in a cell of their JSON
reports repeats from run to run of one commit. This tool reads the two
reports from a directory run at the parent and from one run at the change
(same flags), prints every cell's counts side by side and fails on any
difference.

    tools/fig_count_diff.py PARENT_DIR CHANGE_DIR [--allow COUNTER]...
    tools/fig_count_diff.py --decisions DIR

--allow COUNTER (repeatable) names a count the change is expected to move:
its differences are shown as "allowed" and do not fail. Work-avoidance
changes lower the walk counters (tracker_writes_tested,
read_log_pairs_tested, read_log_queries_scanned) on purpose; the decision
counters (aborts, cascading_abort_requests, steps, failed) and
cascade_marks_scanned move only when a decision does.

--decisions DIR prints the decision counters of each cell in DIR, one line
per cell, the format of the golden bench/baseline/cc_decisions.txt.

Exit status: 0 when every count agrees (or --decisions printed); 1 on a
difference not allowed, or cells that do not line up; 2 on a usage or read
error.
"""

import argparse
import json
import os
import sys

REPORTS = ("BENCH_fig3_all_insert.json", "BENCH_fig4_mixed.json")
# What the scheduler decided: the golden's columns.
DECISIONS = ("aborts", "cascading_abort_requests", "steps", "failed")
# How much it read to decide: walk counters.
WALKS = ("tracker_writes_tested", "read_log_pairs_tested",
         "read_log_queries_scanned", "cascade_marks_scanned")
COUNTERS = DECISIONS + WALKS


def read_cells(directory):
    """{(report, mappings, tracker): cell} over both reports in `directory`."""
    cells = {}
    for report in REPORTS:
        path = os.path.join(directory, report)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or "cells" not in doc:
            raise ValueError(f"{path}: no cells")
        name = report[len("BENCH_"):-len(".json")]
        for cell in doc["cells"]:
            cells[(name, cell["mappings"], cell["tracker"])] = cell
    return cells


def print_decisions(directory):
    cells = read_cells(directory)
    for (name, mappings, tracker), cell in cells.items():
        counts = " ".join(f"{k}={json.dumps(cell.get(k))}" for k in DECISIONS)
        print(f"{name} mappings={mappings} tracker={tracker} {counts}")
    return 0


def compare(parent_dir, change_dir, allowed):
    parent = read_cells(parent_dir)
    change = read_cells(change_dir)
    failed = 0
    if parent.keys() != change.keys():
        print("fig_count_diff: the two runs have different cells "
              f"({sorted(parent.keys() ^ change.keys())})", file=sys.stderr)
        failed += 1
    width = max(len(k) for k in COUNTERS)
    print(f"{'cell':<34}  {'counter':<{width}}  {'parent':>12}  "
          f"{'change':>12}  verdict")
    for key in (k for k in parent if k in change):
        for counter in COUNTERS:
            old = parent[key].get(counter)
            new = change[key].get(counter)
            if old == new:
                verdict = "same"
            elif counter in allowed:
                verdict = "allowed"
            else:
                verdict = "DIFFERENT"
                failed += 1
            cell = f"{key[0]} m={key[1]} {key[2]}"
            print(f"{cell:<34}  {counter:<{width}}  {old!s:>12}  "
                  f"{new!s:>12}  {verdict}")
    if failed:
        print(f"fig_count_diff: {failed} difference(s)", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="COUNTER",
                        help="a counter the change may move (repeatable)")
    parser.add_argument("--decisions", metavar="DIR",
                        help="print DIR's decision counts and exit")
    args = parser.parse_args()
    unknown = sorted(set(args.allow) - set(COUNTERS))
    if unknown:
        parser.error(f"not a compared counter: {', '.join(unknown)}")
    if args.decisions is not None:
        if args.dirs or args.allow:
            parser.error("--decisions takes one directory and nothing else")
    elif len(args.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    try:
        if args.decisions is not None:
            return print_decisions(args.decisions)
        return compare(args.dirs[0], args.dirs[1], set(args.allow))
    except (OSError, ValueError, KeyError) as err:
        print(f"fig_count_diff: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
