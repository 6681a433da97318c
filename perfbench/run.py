"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dse_large --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports firepower from ./src and
writes its scratch files, run records and traces under ./.perfbench/.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  See perfbench/README.md.

Untraced runs sample the host's speed while each round runs (see
hostspeed.py) and report the round's time in units of the reference
computation, which is steadier on a shared host than its wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time

import checks
import hostspeed
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Set-up runs in two groups, before and after the rounds, so that its
# samples span the run; each group runs at least SETUP_MIN times and until
# SETUP_MIN_S seconds have passed (at most SETUP_MAX times).  setup_s is
# the median of all samples.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 2, 100, 1.5

# Calls counted per round at these spans.
COUNTED_CALLS = ("trees.predict", "application.hw_predict", "application.predict_component")
# Stage figures taken from the untraced rounds of a traced run.
STAGES = ("round_s", "extract_s", "build_s", "predict_samples_per_s", "experiment_s")
OUTPUTS = ("kb_bytes", "model_bytes", "mape_pct")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_record() -> dict:
    """Identity and size of the code under ./src."""
    digest = hashlib.sha256()
    lines = 0
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += data.count(b"\n")
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines}


def layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-round self times and counts from the traced rounds, plus stage
    figures and output sizes from the untraced ones."""
    n = len(traced)
    out = {name + "_s": seconds / n for name, seconds in tracer.self_s.items()}
    for name in tracer.calls:
        if name.startswith("harness.") and name != "harness.run_experiment":
            out[name + "_s"] = tracer.total_s[name] / tracer.calls[name]  # inclusive, per cell
    for name in COUNTED_CALLS:
        out[name + "_calls"] = tracer.calls.get(name, 0) / n
    for name, count in tracer.counts.items():
        out[name] = count / n
    for key in STAGES:
        if key in untraced[0]:
            out[key] = statistics.median(r[key] for r in untraced)
    for key in OUTPUTS:
        if key in untraced[-1]:
            out[key] = untraced[-1][key]
    out["trace.spans"] = len(tracer.spans) / n
    ratio = statistics.median(r["round_s"] for r in traced) / statistics.median(r["round_s"] for r in untraced)
    out["trace.overhead_pct"] = (ratio - 1.0) * 100.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "firepower", "__init__.py")):
        print(f"error: no firepower package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import firepower

    if os.path.dirname(os.path.abspath(firepower.__file__)) != os.path.join(SRC, "firepower"):
        print(f"error: firepower imported from {firepower.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT)
    try:
        tracer = spans.Tracer() if args.trace else None
        sampler = None if args.trace else hostspeed.Sampler()
        run = measure(workloads.make(args.workload, args.seed, workdir), args.seconds, tracer, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = [r for r in run["rounds"] if "round_s" in r and "error" not in r]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not untraced or (args.trace and not traced):
        print(f"error: no round completed: {run['errors'][:3]}", file=sys.stderr)
        return 1
    if args.trace:
        values = layer_metrics(tracer, traced, untraced)
        tracer.write_jsonl(os.path.join(OUT, f"trace-{args.workload}.jsonl"), run["origin"])
    else:
        values = {
            "setup_s": statistics.median(run["setup_s"]),
            "round_norm": statistics.median(r["round_norm"] for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "code": source_record(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": run["setup_s"],
        "rounds": run["rounds"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "correct": run["correct"],
        "errors": run["errors"],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(OUT, "records", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in run["rounds"]:
        stages = " ".join(f"{k}={v:.4g}" for k, v in r.items() if isinstance(v, float))
        print(f"round {r['index']} {'traced' if r['traced'] else 'untraced'}: {stages}", file=sys.stderr)
    for error in run["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(f"record: {record_path}", file=sys.stderr)
    result = {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


def set_up(wl) -> list[float]:
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX):
        start = perf_counter()
        wl.setup()
        times.append(perf_counter() - start)
    return times


def measure(wl, seconds: float, tracer=None, sampler=None) -> dict:
    """Set up, run rounds of ``wl`` until ``seconds`` are used, set up again.

    A round starts only if the last round of the same kind would still end
    in time; at least one round (one of each kind with a tracer) always
    runs.  With a tracer, untraced and traced rounds alternate.  With a
    sampler, untraced rounds also record the host's speed: ``round_s`` is
    then the wall time less the sampler's, and ``round_norm`` that time in
    units of the mean reference time (``ref_s``) sampled during the round.
    """
    origin = perf_counter()
    setup_s = set_up(wl)
    run = {"origin": origin, "setup_s": setup_s, "rounds": [], "attempted": 0, "failed": 0,
           "correct": True, "errors": []}
    begin = perf_counter()
    last = {}
    while True:
        traced = tracer is not None and len(run["rounds"]) % 2 == 1
        index = len(run["rounds"])
        record = {"index": index, "traced": traced}
        run["rounds"].append(record)
        run["attempted"] += wl.ops_per_round
        sampled = sampler is not None and not traced
        if traced:
            tracer.round = index
            tracer.install()
        if sampled:
            sampler.start()
        start = perf_counter()
        cpu = process_time()
        try:
            record.update(wl.run_round(tracer if traced else None))
            record["round_s"] = perf_counter() - start
            record["round_cpu_s"] = process_time() - cpu
        except checks.OperationFailed as exc:
            run["failed"] += exc.failed
            record["error"] = str(exc)
            run["errors"].append(f"round {index}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
            if sampled:
                sampler.stop()
        if sampled and "round_s" in record:
            record["sampler_s"] = sampler.spent_s
            record["round_s"] -= sampler.spent_s
            record["round_cpu_s"] -= sampler.spent_s
            record["ref_s"] = sampler.mean_s()
            record["round_norm"] = record["round_s"] / record["ref_s"]
        last[traced] = perf_counter() - start
        if "error" not in record:
            try:
                record.update(wl.check())
            except checks.CheckError as exc:
                run["correct"] = False
                run["errors"].append(f"round {index} check: {exc}")
                break
        elapsed = perf_counter() - begin
        next_traced = tracer is not None and len(run["rounds"]) % 2 == 1
        if next_traced and True not in last:
            continue
        if elapsed + last.get(next_traced, last[traced]) > seconds:
            break
    setup_s += set_up(wl)
    return run


if __name__ == "__main__":
    sys.exit(main())
