"""Compare two result sets, one row per workload and end-to-end metric.

A result set is a --results directory holding <workload>.jsonl records.
Runs are paired by seed (in record order within a seed).  Labels, for a
metric with bound b from BENCHMARK.json and BEFORE's quartile spread:
- improved: AFTER wins at least nine tenths of the pairs, ties counting for
  neither, and the medians differ by more than BEFORE's quartile distance;
  or every AFTER run reads better than every BEFORE run;
- unresolved: either side's quartile distance exceeds b of its median, or
  there are no pairs;
- regressed: AFTER's median is worse than BEFORE's by more than b;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory):
    """{workload: {metric: [(seed, value), ...]}} from untraced records."""
    out = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if rec["trace"] or rec["overrides"]:
                continue
            for name, m in rec["metrics"].items():
                out[rec["workload"]][name].append((rec["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(before, after):
    by_seed = defaultdict(list)
    for seed, value in after:
        by_seed[seed].append(value)
    out = []
    for seed, value in before:
        if by_seed[seed]:
            out.append((value, by_seed[seed].pop(0)))
    return out


def label(before, after, bound, better):
    """(label, pairs won, pairs) for lists of (seed, value)."""
    sign = 1.0 if better == "lower" else -1.0
    a = [v for _, v in before]
    b = [v for _, v in after]
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = statistics.median(a), statistics.median(b)
    paired = pairs(before, after)
    won = sum(1 for x, y in paired if sign * (y - x) < 0)
    worse = sign * (mb - ma)
    if paired and won >= 0.9 * len(paired) and worse < 0 and -worse > qa[2] - qa[0]:
        return "improved", won, len(paired)
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "improved", won, len(paired)
    if not paired or qa[2] - qa[0] > bound * abs(ma) or qb[2] - qb[0] > bound * abs(mb):
        return "unresolved", won, len(paired)
    if worse > bound * abs(ma):
        return "regressed", won, len(paired)
    return "unchanged", won, len(paired)


def print_table(before_dir, after_dir, bench):
    before, after = load(before_dir), load(after_dir)
    head = (f"{'workload':<17} {'metric':<12} {'unit':<5} "
            f"{'before median [q1, q3]':<30} {'after median [q1, q3]':<30} "
            f"{'change':>8} {'won':>7}  label")
    print(head)
    for workload in sorted(set(before) | set(after)):
        for m in bench["end_to_end"]:
            a, b = before[workload][m["name"]], after[workload][m["name"]]
            if not a or not b:
                print(f"{workload:<17} {m['name']:<12} {m['unit']:<5} "
                      f"{'(no runs on one side)':<30}")
                continue
            qa = quartiles([v for _, v in a])
            qb = quartiles([v for _, v in b])
            verdict, won, n = label(a, b, m["bound"], m["better"])
            change = 100.0 * (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            print(f"{workload:<17} {m['name']:<12} {m['unit']:<5} "
                  f"{_cell(qa):<30} {_cell(qb):<30} {change:+7.1f}% "
                  f"{won:>3}/{n:<3}  {verdict}")


def _cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
