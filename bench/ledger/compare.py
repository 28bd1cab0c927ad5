#!/usr/bin/env python3
"""Compare two sets of ledger results with the benchmark's own bounds.

  python3 bench/ledger/compare.py PARENT CHANGE [--paired]

PARENT and CHANGE are results files written by run.py, or directories of
them. For every (workload, end-to-end metric) both sides have, it reports:

  worse       the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json);
  improved    a gain: with --paired (runs alternated parent/change, at
              least 10 pairs) the change wins at least 9 of every 10 pairs,
              ties counting for neither, and the medians differ by more than
              the parent's interquartile range; unpaired, the change's median
              is better by more than both the bound and that range;
  unresolved  either side's interquartile range exceeds the bound, unless
              every run of the change reads better than every run of the
              parent;
  unchanged   otherwise.

Pairs are formed in run order (the order runs appear in the files, files
sorted by name). Bounds come from BENCHMARK.json at the repository root.
Exit status is 1 when any metric is worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path):
    files = sorted(path.glob("results_*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        doc = json.loads(f.read_text())
        runs += doc.get("runs", [])
    return runs


def collect(runs):
    """(workload, metric) -> list of values, in run order."""
    values = defaultdict(list)
    for r in runs:
        for name, m in r["metrics"].items():
            values[(r["workload"], name)].append(m["value"])
    return values


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, bound, higher_better, paired):
    sign = 1.0 if higher_better else -1.0
    m_p = statistics.median(parent)
    m_c = statistics.median(change)
    gain = sign * (m_c - m_p)          # > 0: the change is better
    spread = max(iqr(parent) / abs(m_p) if m_p else 0.0,
                 iqr(change) / abs(m_c) if m_c else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    if m_p and -gain / abs(m_p) > bound:
        return "worse"
    if paired:
        pairs = list(zip(parent, change))
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and \
                gain > iqr(parent):
            return "improved"
    elif m_p and gain / abs(m_p) > bound and gain > iqr(parent):
        return "improved"
    return "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--paired", action="store_true",
                        help="runs alternate parent/change; apply the "
                             "9-of-10 win rule")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = collect(load_runs(args.parent))
    change = collect(load_runs(args.change))

    print(f"{'workload':16} {'metric':14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7}  verdict")
    worse = 0
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    for workload in workloads:
        for m in bench["end_to_end"]:
            key = (workload, m["name"])
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            m_p, m_c = statistics.median(p), statistics.median(c)
            delta = (m_c - m_p) / abs(m_p) if m_p else 0.0
            spread = max(iqr(p) / abs(m_p) if m_p else 0.0,
                         iqr(c) / abs(m_c) if m_c else 0.0)
            v = verdict(p, c, m["bound"], m["better"] == "higher",
                        args.paired)
            worse += v == "worse"
            print(f"{workload:16} {m['name']:14} {m_p:12.5g} {m_c:12.5g} "
                  f"{delta:+8.1%} {spread:7.1%}  {v}")
    if not workloads:
        print("compare.py: no workload appears on both sides",
              file=sys.stderr)
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
