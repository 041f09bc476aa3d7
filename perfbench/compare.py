"""Compare two result sets of the benchmark, or show the spread of one.

Usage::

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl] [--claim METRIC:WORKLOAD ...]

Each file holds the records ``run.py --out`` appends; records of traced runs
are ignored. Runs pair up per workload in file order, the i-th parent run
with the i-th change run, so make them alternately.

With one file, each (end-to-end metric, workload) row gives the median, the
quartiles and the spread, which is the distance between the quartiles as a
share of the median.

With two files, every (end-to-end metric, workload) pair is one row:

* a claimed pair is ``improved`` when the change reads better in at least
  nine tenths of the pairs (ties count for neither), the medians differ by
  more than the parent's interquartile range, and no more operations failed
  than at the parent; ``worse`` when its median is worse than the parent's by
  more than the bound in BENCHMARK.json; otherwise ``unresolved``;
* every other pair is ``worse`` when the change's median is worse than the
  parent's by more than the bound; ``unresolved`` when either side's spread
  exceeds the bound, unless every change run reads better than every parent
  run; otherwise ``unchanged``.

The exit code is 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a JSON-lines file, grouped by workload in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 > q1 else 0.0


def verdict(parent: list[dict], change: list[dict], metric: dict, claimed: bool) -> tuple[str, str]:
    """The row's verdict and a note with its evidence."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(p, c))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    note = f"wins {wins}/{len(pairs)}, change/parent {c_med / p_med if p_med else float('nan'):.4f}"
    if worse_by > bound:
        return "worse", note
    if claimed:
        more_failures = sum(r["failed"] for r in change) > sum(r["failed"] for r in parent)
        apart = sign * (c_med - p_med) > p_q3 - p_q1
        return ("improved" if wins >= 0.9 * len(pairs) and apart and not more_failures else "unresolved"), note
    all_better = min(sign * v for v in c) > max(sign * v for v in p)
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", note
    return "unchanged", note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="records of the parent commit (or the only set)")
    parser.add_argument("change", nargs="?", default=None, help="records of the change")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = load(args.parent)
    if args.change is None:
        print(f"{'workload':18} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for workload, runs in sorted(parent.items()):
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                print(f"{workload:18} {m['name']:12} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread(values):8.4f} {m['bound']:6.2f}")
        return 0
    change = load(args.change)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    known = {(m["name"], w) for m in metrics for w in parent}
    if not claims <= known:
        parser.error(f"unknown claim(s) {sorted(claims - known)}")
    any_worse = False
    print(f"{'workload':18} {'metric':12} {'parent':>12} {'change':>12}  verdict     note")
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            p, c = parent[workload], change[workload]
            result, note = verdict(p, c, m, (m["name"], workload) in claims)
            any_worse |= result == "worse"
            pm = statistics.median(r["metrics"][m["name"]]["value"] for r in p)
            cm = statistics.median(r["metrics"][m["name"]]["value"] for r in c)
            print(f"{workload:18} {m['name']:12} {pm:12.6g} {cm:12.6g}  {result:10}  {note}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
