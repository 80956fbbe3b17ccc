"""Compare two sets of benchmark runs: a parent (A) and a change (B).

Usage::

    python3 benchmarks/perf/compare.py A B

A and B are each a JSONL file of run records (``run.py --ledger`` lines,
one per invocation), a directory searched for ``run.json`` /
``<workload>.json`` results, or a single such file.  The i-th untraced run
of A is paired with the i-th untraced run of B, so make the runs
alternately (A, B, A, B...).

The rule (choosing-metrics §8), per end-to-end metric and workload: B is
*better* only when it wins at least 9/10 of at least 10 pairs (ties count
for neither) and the medians differ by more than A's interquartile range.
Otherwise the metric is *worse* when B's median is worse than A's by more
than its ``BENCHMARK.json`` bound, *unresolved* when either side's spread
(interquartile range over median) is wider than the bound and B does not
beat every A run, and *within bound* otherwise.  Each ratio is printed with
its base, A's median.  Exit code 1 when any metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import load_benchmark_spec, quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _workload_results(record: Dict) -> List[Dict]:
    if "workloads" in record:
        return list(record["workloads"].values())
    if "workload" in record:
        return [record]
    return []


def load_runs(path: Path) -> List[Dict[str, Dict]]:
    """Runs in order; each maps workload -> its result record."""
    if path.is_dir():
        files = sorted(path.rglob("run.json")) or sorted(path.rglob("*.json"))
        records = [json.loads(f.read_text()) for f in files]
    elif path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text().splitlines()
                   if line.strip()]
    else:
        records = [json.loads(path.read_text())]
    runs = []
    for record in records:
        results = _workload_results(record)
        if results:
            runs.append({r["workload"]: r for r in results})
    return runs


def _values(runs, workload: str, metric: str) -> List[Optional[float]]:
    out = []
    for run in runs:
        result = run.get(workload)
        entry = (result or {}).get("metrics", {}).get(metric)
        out.append(None if entry is None else float(entry["value"]))
    return out


def judge(a: List[float], b: List[float], better: str, bound: float) -> Dict:
    """The verdict row for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = median(a), median(b)
    iqr_a = qa[2] - qa[0]
    spread = max(
        (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0,
        (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0,
    )
    apart = abs(med_b - med_a) > iqr_a
    enough = len(pairs) >= MIN_PAIRS
    worse_by = sign * (med_a - med_b) / abs(med_a) if med_a else 0.0
    if enough and wins >= WIN_SHARE * len(pairs) and apart:
        verdict = "better"
    elif enough and losses >= WIN_SHARE * len(pairs) and apart:
        verdict = "worse"
    elif spread > bound:
        beats_all = all(sign * (y - x) > 0 for x in a for y in b)
        verdict = "better (every run)" if beats_all else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "pairs": len(pairs), "wins": wins, "losses": losses,
        "a": {"median": med_a, "q1": qa[0], "q3": qa[2]},
        "b": {"median": med_b, "q1": qb[0], "q3": qb[2]},
        "ratio": med_b / med_a if med_a else None,
        "spread": spread, "verdict": verdict,
    }


def _untraced(runs) -> List[Dict[str, Dict]]:
    """The runs that carry the end-to-end metrics."""
    return [run for run in runs
            if not any(r.get("trace") for r in run.values())]


def compare(runs_a, runs_b, spec: Dict) -> List[Dict]:
    side_a, side_b = _untraced(runs_a), _untraced(runs_b)
    rows = []
    for metric in spec["end_to_end"]:
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = [
                (x, y) for x, y in zip(_values(side_a, workload, metric["name"]),
                                       _values(side_b, workload, metric["name"]))
                if x is not None and y is not None
            ]
            if not pairs:
                continue
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            row = judge(a, b, metric["better"], metric["bound"])
            row.update(metric=metric["name"], unit=metric["unit"],
                       workload=workload, bound=metric["bound"],
                       better=metric["better"])
            rows.append(row)
    return rows


def _summary(side: Dict) -> str:
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def render(rows: List[Dict]) -> str:
    lines = []
    current = None
    for row in rows:
        if row["metric"] != current:
            current = row["metric"]
            lines.append(f"\n{current} ({row['unit']}, {row['better']} is "
                         f"better, bound {row['bound']:.0%})")
            lines.append(f"  {'workload':<17} {'pairs':>5}  "
                         f"{'A median [q1, q3]':<28} {'B median [q1, q3]':<28} "
                         f"{'B/A of base A':<26} {'B wins':>6}  verdict")
        ratio = (f"{row['ratio']:.3f} of {row['a']['median']:.4g} "
                 f"{row['unit']}" if row["ratio"] is not None
                 else "n/a (A median 0)")
        lines.append(
            f"  {row['workload']:<17} {row['pairs']:>5}  "
            f"{_summary(row['a']):<28} {_summary(row['b']):<28} "
            f"{ratio:<26} {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent runs")
    parser.add_argument("b", type=Path, help="change runs")
    args = parser.parse_args(argv)
    spec = load_benchmark_spec()
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    if not runs_a or not runs_b:
        print("error: no runs found on one side", file=sys.stderr)
        return 2
    rows = compare(runs_a, runs_b, spec)
    print(f"A: {len(runs_a)} runs from {args.a}   B: {len(runs_b)} runs "
          f"from {args.b}   (a win needs {WIN_SHARE:.0%} of >= {MIN_PAIRS} "
          f"pairs and medians further apart than A's IQR)")
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    if bad:
        print(f"\n{len(bad)} metric/workload pairs are worse or unresolved")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
