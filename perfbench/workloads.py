"""The benchmark's workloads: inputs made from a seed, one round of
operations, and the checks on that round's outputs.

Each workload runs as a closed loop of one caller: a round's operations
run one after the other in this process, and the next round starts only
when the previous one is done and checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from time import perf_counter

import checks

from firepower import cli, harness, synthgen
from firepower.baselines import METHOD_KEYS
from firepower.dataset import few_shot_split, save_dataset


@dataclass(frozen=True)
class ChainShape:
    """Sizes of a synth -> extract -> build -> predict chain."""

    n_known: int
    n_target: int
    n_workloads: int
    k: int
    truth_bound_pct: float  # MAPE bound of predicted totals against noise-free truth


class Chain:
    """The CLI chain: extract on the known data, build on k labeled target
    configurations, predict the held-out ones."""

    ops_per_round = 3

    def __init__(self, shape: ChainShape, seed: int, workdir: str):
        self.shape = shape
        self.seed = seed
        self.paths = {
            name: os.path.join(workdir, name)
            for name in ("known.json", "train.json", "test.json", "kb.json", "model.json", "preds.csv")
        }

    def setup(self):
        s = self.shape
        self.spec = synthgen.default_spec(
            seed=self.seed, n_known_configs=s.n_known, n_target_configs=s.n_target, n_workloads=s.n_workloads
        )
        self.known, target, self.truth = synthgen.generate_pair(self.spec)
        labeled = checks.labeled_draw(target.config_ids(), s.k, self.seed)
        train, self.test = few_shot_split(target, labeled)
        save_dataset(self.known, self.paths["known.json"])
        save_dataset(train, self.paths["train.json"])
        save_dataset(self.test, self.paths["test.json"])

    def run_round(self, tracer) -> dict[str, float]:
        p = self.paths
        steps = (
            ("extract", ["extract", "--known", p["known.json"], "--out", p["kb.json"]]),
            ("build", ["build", "--kb", p["kb.json"], "--target-train", p["train.json"], "--out", p["model.json"]]),
            ("predict", ["predict", "--model", p["model.json"], "--input", p["test.json"], "--out", p["preds.csv"]]),
        )
        times = {}
        for i, (stage, argv) in enumerate(steps):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                start = perf_counter()
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli." + stage, cli.main, (argv,))
                times[stage + "_s"] = perf_counter() - start
            if code != 0:
                raise checks.OperationFailed(len(steps) - i, f"{stage} exited {code}: {out.getvalue().strip()}")
        times["predict_samples_per_s"] = len(self.test.samples) / times["predict_s"]
        return times

    def check(self) -> dict[str, float]:
        p = self.paths
        with open(p["kb.json"]) as fh:
            retrain = checks.check_decisions(json.load(fh), self.known)
        mape = checks.check_predictions(
            p["preds.csv"], p["preds.csv"] + ".summary.csv", self.test, self.truth, self.shape.truth_bound_pct
        )
        return {
            "mape_pct": mape,
            "kb_bytes": os.path.getsize(p["kb.json"]),
            "model_bytes": os.path.getsize(p["model.json"]),
            "retrain_mismatches": len(checks.retrain_mismatches(retrain, self.spec)),
        }


class Sweep:
    """The few-shot comparison on in-memory data: every method at each k."""

    ops_per_round = 1

    def __init__(self, seed: int, ks=(2, 3, 4), hp=None):
        self.seed = seed
        self.ks = list(ks)
        self.methods = list(METHOD_KEYS)
        self.hp = hp

    def setup(self):
        spec = synthgen.default_spec(seed=self.seed)
        self.known, self.target, _ = synthgen.generate_pair(spec)

    def run_round(self, tracer) -> dict[str, float]:
        start = perf_counter()
        # Looked up at call time, so a traced round runs the wrapped function.
        self.results = harness.run_experiment(
            self.known, self.target, methods=self.methods, ks=self.ks, seeds=[self.seed], hp=self.hp
        )
        return {"experiment_s": perf_counter() - start}

    def check(self) -> dict[str, float]:
        return checks.check_experiment(self.results, self.target, self.methods, self.ks, [self.seed])


CHAIN_SMALL = ChainShape(n_known=15, n_target=10, n_workloads=8, k=3, truth_bound_pct=20.0)
DSE_LARGE = ChainShape(n_known=60, n_target=40, n_workloads=100, k=4, truth_bound_pct=15.0)


def make(name: str, seed: int, workdir: str):
    if name == "chain_small":
        return Chain(CHAIN_SMALL, seed, workdir)
    if name == "dse_large":
        return Chain(DSE_LARGE, seed, workdir)
    if name == "fewshot_sweep":
        return Sweep(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chain_small", "fewshot_sweep", "dse_large")
