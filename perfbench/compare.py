"""Compare two sets of benchmark results: the parent's and a change's.

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Each file holds the records ``run.py --record`` appends, one per run;
within each workload and ``--trace`` setting, the i-th run of each
side forms the i-th pair, so alternate the sides while recording.  Per
workload and metric this prints each side's median and quartiles, the
pairs the change won, and a verdict:

* ``better`` -- the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- the parent's spread (interquartile range over
  median) is wider than the metric's bound, and the two sides overlap
  (had every change run beaten every parent run, the verdict would be
  ``better``; had every change run lost to every parent run, with the
  median worse by more than the bound, ``WORSE``);
* ``WORSE`` -- the change's median is worse than the parent's by more
  than the bound (metrics without a bound: loses 9 of 10 pairs by more
  than the parent's interquartile range);
* ``same`` / ``changed`` -- for exact counts, which repeat on each side;
* ``within bound`` / ``no change`` otherwise.

Exits with 1 when any run failed its checks or any metric is WORSE.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def load(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> Tuple[str, int, int]:
    """The verdict on one metric, the pairs the change won, and the pairs."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if len(set(parent)) == 1 and len(set(change)) == 1:
        return ("same" if parent[0] == change[0] else "changed"), wins, len(pairs)
    q1, median_p, q3 = quartiles(parent)
    median_c = statistics.median(change)
    iqr = q3 - q1
    worse_by = sign * (median_p - median_c) / abs(median_p) if median_p else 0.0
    if bound is not None and median_p and iqr / abs(median_p) > bound:
        # too noisy to call either way, unless the two sides do not overlap
        if all(sign * (c - p) > 0 for p in parent for c in change):
            return "better", wins, len(pairs)
        if worse_by > bound and all(sign * (c - p) < 0
                                    for p in parent for c in change):
            return "WORSE", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if wins >= 0.9 * len(pairs) and abs(median_c - median_p) > iqr:
        return "better", wins, len(pairs)
    if bound is None:
        lost = losses >= 0.9 * len(pairs) and abs(median_c - median_p) > iqr
        return ("WORSE" if lost else "no change"), wins, len(pairs)
    return ("WORSE" if worse_by > bound else "within bound"), wins, len(pairs)


def _series(records: List[dict], trace: int
             ) -> Dict[str, Dict[str, List[float]]]:
    """Per workload and metric, the values of the runs with ``trace``.

    A ``--trace 0`` run's metrics are the end-to-end ones and a
    ``--trace 1`` run's the per-layer ones.  A traced run measures its
    end-to-end figures on the untraced side of its pairs only, between
    traced work, so they are not mixed in.
    """
    out: Dict[str, Dict[str, List[float]]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        metrics = out.setdefault(rec["workload"], {})
        for name, entry in rec["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = load(parent_path), load(change_path)
    status = 0
    for side, records in (("parent", parent), ("change", change)):
        envs = sorted({json.dumps(r["env"], sort_keys=True) for r in records})
        print(f"{side}: {len(records)} runs; env {'; '.join(envs)}")
        if not all(r["correct"] for r in records):
            print(f"{side}: some runs FAILED their correctness checks")
            status = 1
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    header = (f"{'workload':15} {'metric':25} {'unit':14} "
              f"{'parent median [q1, q3]':32} {'change median [q1, q3]':32} "
              f"{'wins':7} verdict")
    print(header)
    for trace in (0, 1):
        p_series, c_series = _series(parent, trace), _series(change, trace)
        for workload in sorted(set(p_series) & set(c_series)):
            for name in sorted(set(p_series[workload])
                               & set(c_series[workload])):
                p_vals, c_vals = p_series[workload][name], c_series[workload][name]
                text, wins, n = verdict(p_vals, c_vals, better[name],
                                        bounds.get(name))
                if text == "WORSE":
                    status = 1
                print(f"{workload:15} {name:25} {units[name]:14} "
                      f"{_fmt(p_vals):32} {_fmt(c_vals):32} "
                      f"{f'{wins}/{n}':7} {text}")
    return status
