"""Fold the perfbench records of a paired run into one BENCH_<n>.json.

    python3 scripts/bench_summary.py PARENT_RECORDS CHANGE_RECORDS --out BENCH_6.json

Each directory holds the records ``perfbench/run.py`` writes to
``.perfbench/records/`` (``<workload>-seed<s>-trace<t>.json``), copied
aside after running the benchmark on the parent and on the change.  A pair
is one (workload, seed, trace) present on both sides.  Per workload and
metric the summary gives each side's median, the parent's quartiles, the
ratio of the medians (change / parent), the number of pairs and the number
the change wins (strictly better in the metric's direction, from
BENCHMARK.json).  Each end-to-end metric also gets a verdict against its
bound in BENCHMARK.json (which this script only reads):

- ``worse``: the change's median is worse than the parent's by more than
  the bound, a share of the parent's median;
- ``unresolved``: the parent's quartile distance (IQR) is wider than the
  bound and not every change run beats every parent run;
- ``gain``: the change wins at least 9 in 10 pairs, and its median is
  better by more than the parent's IQR;
- ``within``: otherwise.

It also records the machine, both sides' git SHA and ``src/`` line count,
and each side's failed and incorrect runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(directory: str) -> dict[tuple[str, int, int], dict]:
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        records[(record["workload"], record["seed"], record["trace"])] = record
    if not records:
        raise SystemExit(f"error: no records in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def one_of(values, what: str):
    """The single value all records agree on, or all distinct ones."""
    distinct = sorted(set(values), key=repr)
    if len(distinct) > 1:
        print(f"warning: records differ in {what}: {distinct}", file=sys.stderr)
        return distinct
    return distinct[0]


def beats(better: str):
    """f(a, b): whether change value b is strictly better than parent value a."""
    return (lambda a, b: b < a) if better == "lower" else (lambda a, b: b > a)


def verdict(p: list[float], c: list[float], better: str, bound: float) -> str:
    """The change's runs c against the parent's runs p, paired in order, on
    a metric whose median may be worse by at most bound x the parent's."""
    won = beats(better)
    p_med, c_med = statistics.median(p), statistics.median(c)
    worse_by = c_med - p_med if better == "lower" else p_med - c_med
    q1, q3 = quartiles(p)
    if worse_by > bound * abs(p_med):
        return "worse"
    if q3 - q1 > bound * abs(p_med) and not all(won(a, b) for a in p for b in c):
        return "unresolved"
    if sum(map(won, p, c)) >= 0.9 * len(p) and -worse_by > q3 - q1:
        return "gain"
    return "within"


def summarize(parent: dict, change: dict, better: dict[str, str], bounds: dict[str, float]) -> dict:
    pairs = sorted(set(parent) & set(change))
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        print(f"warning: left out unpaired records {unpaired}", file=sys.stderr)
    if not pairs:
        raise SystemExit("error: no (workload, seed, trace) present on both sides")
    workloads: dict[str, dict] = {}
    for workload, trace in sorted({(w, t) for w, _, t in pairs}):
        keys = [k for k in pairs if k[0] == workload and k[2] == trace]
        metrics = {}
        for name in parent[keys[0]]["metrics"]:
            p = [parent[k]["metrics"][name]["value"] for k in keys]
            c = [change[k]["metrics"][name]["value"] for k in keys]
            direction = better.get(name, "lower")
            wins = sum(map(beats(direction), p, c))
            p_med, c_med = statistics.median(p), statistics.median(c)
            q1, q3 = quartiles(p)
            metrics[name] = {
                "unit": parent[keys[0]]["metrics"][name]["unit"],
                "better": direction,
                "parent_median": p_med,
                "change_median": c_med,
                "parent_q1": q1,
                "parent_q3": q3,
                "ratio": c_med / p_med if p_med else None,
                "wins": wins,
                "pairs": len(keys),
            }
            if name in bounds:
                metrics[name]["verdict"] = verdict(p, c, direction, bounds[name])
        section = workloads.setdefault(workload, {})
        section["traced" if trace else "untraced"] = {
            "seeds": [k[1] for k in keys],
            "failed": {side: sum(recs[k]["failed"] for k in keys) for side, recs in (("parent", parent), ("change", change))},
            "incorrect": {side: sum(not recs[k]["correct"] for k in keys) for side, recs in (("parent", parent), ("change", change))},
            "metrics": metrics,
        }
    every = list(parent.values()) + list(change.values())
    return {
        "machine": {
            key: one_of((r["machine"][key] for r in every), key) for key in ("nproc", "python", "numpy")
        },
        "code": {
            side: {
                "git_sha": one_of((r["code"]["git_sha"] for r in recs.values()), f"{side} git_sha"),
                "src_sha256": one_of((r["code"]["src_sha256"] for r in recs.values()), f"{side} src_sha256"),
                "src_lines": one_of((r["code"]["src_lines"] for r in recs.values()), f"{side} src_lines"),
            }
            for side, recs in (("parent", parent), ("change", change))
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="directory of the parent's perfbench records")
    p.add_argument("change", help="directory of the change's perfbench records")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    summary = summarize(load_records(args.parent), load_records(args.change), better, bounds)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    for workload, sections in summary["workloads"].items():
        for name in (m["name"] for m in declared["end_to_end"]):
            m = sections.get("untraced", {}).get("metrics", {}).get(name)
            if m:
                print(f"{workload:<14} {name:<12} {m['parent_median']:>10.4g} -> {m['change_median']:<10.4g} "
                      f"ratio {m['ratio']:.3f}  wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
