"""Print one sha256 per artifact of firepower's end-to-end paths.

    python3 scripts/identity_check.py > digests.txt

Imports firepower from this checkout's src/.  Two checkouts that predict
the same thing print the same lines, so ``diff`` of their outputs is the
identity check of a change that must not alter any output:

* the CLI chain synth -> extract -> build -> predict on the synth pair of
  ``--seed`` (default 0) at paper size (15+10 configurations x 8
  workloads, k = 3 labeled target configurations), and again at
  design-space size (60+40 x 100, k = 4): every file written and every
  table printed;
* ``run_experiment`` on the paper-size pair, six methods, k = 2, 3, 4,
  seeds 0-1: the repr of each result's metrics and per-sample predictions.

The labeled configurations are drawn with ``choose_labeled_configs``.
Files are written to a temporary directory and addressed by relative
paths, so printed tables do not depend on where it lies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from firepower import cli, synthgen  # noqa: E402
from firepower.dataset import few_shot_split, load_dataset, save_dataset  # noqa: E402
from firepower.harness import choose_labeled_configs, run_experiment  # noqa: E402

# (name, synth spec sizes, k)
SCALES = (
    ("chain", dict(n_known_configs=15, n_target_configs=10, n_workloads=8), 3),
    ("dse", dict(n_known_configs=60, n_target_configs=40, n_workloads=100), 4),
)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"firepower {' '.join(argv)} exited {code}:\n{out.getvalue()}")
    return out.getvalue().encode()


def chain(name: str, sizes: dict, k: int, seed: int) -> list[tuple[str, str]]:
    """Digests of one synth -> extract -> build -> predict chain, run in the
    current directory."""
    os.makedirs(name)
    spec_path = os.path.join(name, "spec.json")
    synthgen.save_spec(synthgen.default_spec(seed=seed, **sizes), spec_path)
    data = os.path.join(name, "data")
    printed = run_cli(["synth", "--spec", spec_path, "--out-dir", data])
    target = load_dataset(os.path.join(data, "target.json"))
    train, test = few_shot_split(target, choose_labeled_configs(target, k, seed))
    save_dataset(train, os.path.join(name, "train.json"))
    save_dataset(test, os.path.join(name, "test.json"))
    kb, model, preds = (os.path.join(name, f) for f in ("kb.json", "model.json", "preds.csv"))
    printed += run_cli(["extract", "--known", os.path.join(data, "known.json"), "--out", kb])
    printed += run_cli(["build", "--kb", kb, "--target-train", os.path.join(name, "train.json"), "--out", model])
    printed += run_cli(["predict", "--model", model, "--input", os.path.join(name, "test.json"), "--out", preds])
    digests = [(f"{name}/stdout", sha(printed))]
    for directory, dirs, files in os.walk(name):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(directory, f)
            with open(path, "rb") as fh:
                digests.append((path, sha(fh.read())))
    return digests


def experiment(seed: int, ks: list[int], seeds: list[int]) -> list[tuple[str, str]]:
    os.makedirs("experiment")
    run_cli(["synth", "--seed", str(seed), "--out-dir", "experiment"])
    known = load_dataset(os.path.join("experiment", "known.json"))
    target = load_dataset(os.path.join("experiment", "target.json"))
    results = run_experiment(known, target, ks=ks, seeds=seeds)
    return [
        (f"experiment/{r.method}/k{r.k}/seed{r.seed}",
         sha(repr((r.mape_percent, r.pearson_r, r.per_sample)).encode()))
        for r in results
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="synth seed and labeled-draw seed (default 0)")
    args = p.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="identity-") as workdir:
        os.chdir(workdir)
        try:
            digests = []
            for name, sizes, k in SCALES:
                digests += chain(name, sizes, k, args.seed)
            digests += experiment(args.seed, [2, 3, 4], [0, 1])
        finally:
            os.chdir(here)
    for name, digest in digests:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
