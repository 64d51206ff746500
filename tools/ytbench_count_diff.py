#!/usr/bin/env python3
"""Compares the deterministic counts of two traced ytbench runs exactly.

A traced round (`ytbench/run.py --seconds 0 --trace 1`) at a fixed seed does
the same work on every run of one commit, so the per-layer metrics that are
counts, not times, must read the same on a change that only refactors the
engine. This tool reads the result line of a run of the parent and of the
change, prints the counts side by side and fails on any difference.

    tools/ytbench_count_diff.py PARENT CHANGE [--allow METRIC]...

PARENT and CHANGE are files whose last non-empty line is the result JSON
that run.py printed. --allow METRIC (repeatable) names a count the change is
expected to move: its difference is shown as "allowed" and does not fail.

Exit status: 0 when every count and the `correct`, `attempted` and `failed`
fields agree; 1 on a difference not allowed; 2 on a usage or read error.
"""

import argparse
import json
import sys

# The per-layer metrics of BENCHMARK.json that are deterministic counts.
COUNTS = (
    "core.steps_per_commit",
    "core.steps_per_update_max",
    "core.writes_per_step",
    "core.frontier_ops_per_commit",
    "query.rows_examined_per_commit",
    "query.rows_examined_per_step",
    "ccontrol.executions_per_commit",
    "ccontrol.aborts_per_commit",
    "ccontrol.useful_step_frac",
    "ccontrol.read_queries_per_commit",
    "ccontrol.direct_aborts_per_commit",
    "ccontrol.cascade_requests_per_commit",
    "ccontrol.doom_read_violation_per_commit",
    "ccontrol.doom_read_more_specific_per_commit",
    "ccontrol.doom_cascade_per_commit",
    "relational.visible_rows_end",
    "relational.rows_per_visible_row",
    "relational.versions_per_visible_row",
    "relational.index_entries_per_visible_row",
    "parallel.shard_imbalance",
)
# Fields of the result line that must match exactly as well.
FIELDS = ("correct", "attempted", "failed")


def read_result(path):
    """The last non-empty line of `path`, parsed."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    res = json.loads(lines[-1])
    if not isinstance(res, dict) or "metrics" not in res:
        raise ValueError(f"{path}: last line is not a ytbench result")
    return res


def metric(res, name):
    """The metric's value, or None when the result does not report it."""
    entry = res["metrics"].get(name)
    return None if entry is None else entry.get("value")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="METRIC",
                        help="a count the change may move (repeatable)")
    args = parser.parse_args()
    unknown = sorted(set(args.allow) - set(COUNTS))
    if unknown:
        parser.error(f"not a compared count: {', '.join(unknown)}")
    try:
        parent = read_result(args.parent)
        change = read_result(args.change)
    except (OSError, ValueError) as err:
        print(f"ytbench_count_diff: {err}", file=sys.stderr)
        return 2

    rows = [(f, parent.get(f), change.get(f), False) for f in FIELDS]
    rows += [(m, metric(parent, m), metric(change, m), m in args.allow)
             for m in COUNTS]
    width = max(len(name) for name, _, _, _ in rows)
    print(f"{'metric':<{width}}  {'parent':>20}  {'change':>20}  verdict")
    failed = 0
    for name, old, new, allowed in rows:
        if old == new:
            verdict = "same"
        elif allowed:
            verdict = "allowed"
        else:
            verdict = "DIFFERENT"
            failed += 1
        print(f"{name:<{width}}  {old!s:>20}  {new!s:>20}  {verdict}")
    if failed:
        print(f"ytbench_count_diff: {failed} count(s) differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
