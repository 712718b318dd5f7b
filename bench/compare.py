"""Summarise or compare benchmark result files (JSON lines written by --out).

With one file, print each metric's median and quartiles per workload and the
spread (quartile distance over median) against the bound BENCHMARK.json sets.
With two files (base, new), also print the change of each median and a
verdict per end-to-end metric: "unresolved" where either side's spread
exceeds the bound (unless every new run beats every base run), "regression"
where the new median is worse by more than the bound. Operations attempted
and failed are summed per workload and side; a new side with more failed
operations than the base is a regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    """{(workload, trace): {metric: [values]}}, units, and
    {(workload, trace): [attempted, failed]}, from one results file."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    ops = defaultdict(lambda: [0, 0])
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            result = record["result"]
            ops[key][0] += result["attempted"]
            ops[key][1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[key][name].append(metric["value"])
                units[name] = metric["unit"]
    return values, units, ops


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def _worse_by(base: float, new: float, better: str) -> float:
    """Share by which new is worse than base (negative when better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _all_better(base, new, better) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def main(paths, benchmark_json) -> int:
    with open(benchmark_json) as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    base, units, base_ops = load(paths[0])
    new, new_units, new_ops = load(paths[1]) if len(paths) == 2 else (None, {}, {})
    units.update(new_units)
    regressions = unresolved = 0
    for key in sorted(base):
        workload, trace = key
        attempted, failed = base_ops[key]
        line = (f"== {workload} ({'traced' if trace else 'untraced'}, "
                f"{len(next(iter(base[key].values())))} runs, "
                f"{failed} of {attempted} operations failed")
        if new is not None and key in new:
            new_attempted, new_failed = new_ops[key]
            line += f"  ->  {new_failed} of {new_attempted} failed"
            if new_failed > failed:
                line += "  regression"
                regressions += 1
        print(line + ")")
        for name, xs in base[key].items():
            meta = end_to_end.get(name) or per_layer.get(name) or {"better": "lower"}
            bound = meta.get("bound")
            q1, q2, q3 = quartiles(xs)
            line = (f"  {name:36s} {units[name]:>8s}  median {q2:.6g}  "
                    f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread(xs):.3f}")
            if new is None or key not in new or name not in new[key]:
                if bound is not None:
                    line += f"  bound {bound}"
                    if spread(xs) > bound:
                        line += "  unresolved"
                        unresolved += 1
                print(line)
                continue
            ys = new[key][name]
            n1, n2, n3 = quartiles(ys)
            worse = _worse_by(q2, n2, meta["better"])
            line += (f"  ->  median {n2:.6g}  q1 {n1:.6g}  q3 {n3:.6g}  "
                     f"spread {spread(ys):.3f}  worse by {worse:+.2%}")
            if bound is not None:
                noisy = max(spread(xs), spread(ys)) > bound
                if noisy and not _all_better(xs, ys, meta["better"]):
                    verdict = "unresolved"
                    unresolved += 1
                elif worse > bound:
                    verdict = "regression"
                    regressions += 1
                else:
                    verdict = "ok"
                line += f"  {verdict}"
            print(line)
    print(f"regressions: {regressions}, unresolved: {unresolved}")
    return 1 if regressions else 0
