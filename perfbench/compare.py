#!/usr/bin/env python3
"""Read results files written by `run.py --results` and judge them.

    python3 perfbench/compare.py SET.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With one file, prints each workload's end-to-end medians and their spread,
the distance between the first and third quartiles as a share of the
median, beside the bound in BENCHMARK.json.

With two files, prints one row per workload and end-to-end metric:
- better: at least ten pairs, run alternately (the side that ran first
  changes from each pair to the next), the change wins at least 9/10 of
  them (ties count for neither), and the medians differ by more than the
  parent's quartile distance;
- unresolved: otherwise, when either side's spread is wider than the bound
  and not every run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: none of these.
Run i of one file is paired with run i of the other, per workload, in the
order they started. Per-layer medians from `--trace 1` runs follow, without
a verdict: per-layer metrics have no bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): [record, ...]} in start order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started"])
    return runs


def values(records: list, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records]


def spread(xs: list[float]) -> float:
    """Quartile distance over the median (0 with fewer than two values)."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def failed_share(records: list) -> str:
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    return f"{failed}/{attempted}"


def judge(a: list, b: list, a_runs: list, b_runs: list, lower: bool, bound: float) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    pairs = list(zip(a_runs, b_runs))
    first = [ra["started"] < rb["started"] for ra, rb in pairs]
    alternated = all(x != y for x, y in zip(first, first[1:]))
    wins = sum(better(vb, va) for va, vb in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (ma, ma, ma)
    if len(pairs) >= 10 and alternated and wins >= 0.9 * len(pairs) and abs(mb - ma) > q3 - q1:
        return "better"
    if max(spread(a), spread(b)) > bound and not all(better(vb, va) for va in a for vb in b):
        return "unresolved"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    return "worse" if worse_by > bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK.read_text())
    sets = [load(path) for path in argv]
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        runs = [s.get((workload, 0), []) for s in sets]
        if not all(runs):
            print(f"{workload}: no --trace 0 runs in {'both files' if len(sets) == 2 else 'the file'}")
            continue
        print(f"{workload}: runs {' vs '.join(str(len(r)) for r in runs)}, "
              f"failed {' vs '.join(failed_share(r) for r in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = [values(r, name) for r in runs]
            medians = "  ".join(f"{statistics.median(v):12.4f}" for v in vals)
            spreads = "  ".join(f"{spread(v):6.1%}" for v in vals)
            row = f"  {name:14s} {metric['unit']:5s} {medians}  spread {spreads}  bound {bound:.0%}"
            if len(sets) == 2:
                change = statistics.median(vals[1]) / statistics.median(vals[0]) - 1
                verdict = judge(vals[0], vals[1], runs[0], runs[1],
                                metric["better"] == "lower", bound)
                row += f"  change {change:+6.1%}  {verdict}"
            print(row)

    for workload in workloads:
        runs = [s.get((workload, 1), []) for s in sets]
        if not all(runs):
            continue
        print(f"{workload} per layer (--trace 1 runs {' vs '.join(str(len(r)) for r in runs)}):")
        for metric in spec["per_layer"]:
            vals = [statistics.median(values(r, metric["name"])) for r in runs]
            row = f"  {metric['name']:38s} {metric['unit']:5s} " + "  ".join(
                f"{v:14.2f}" for v in vals)
            if len(sets) == 2 and vals[0]:
                row += f"  {vals[1] / vals[0] - 1:+7.1%}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
