"""Command-line entry point.

Subcommands: extract (phase 1), build (phase 2), predict, experiment,
synth.  Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 generalization-gate failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys

from . import synthgen
from .application import build_target_model, load_model, save_model
from .baselines import METHOD_KEYS
from .dataset import design_matrix, load_dataset, save_dataset, write_text_atomic
from .errors import FirePowerError, GateError, ModelError
from .generalization import DEFAULT_GATE_THRESHOLD, evaluate_generalization
from .harness import DEFAULT_KS, run_experiment, summarize
from .knowledge import (
    DEFAULT_THRESHOLD,
    RETRAIN,
    extract_knowledge,
    load_knowledge_base,
    save_knowledge_base,
)
from .metrics import mape, pearson_r
from .trees import GbtHyperparams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GATE = 3

PER_SAMPLE_HEADER = "config_id,workload,component,predicted_mw,label_mw"
RESULTS_HEADER = "method,k,seed,mape_percent,pearson_r"


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-inf", "-1e-3" or "-1,2" after a space as an option,
        # not a value; every negative number float() reads, and every comma
        # list of numbers that starts with one, is a value here.
        number = r"(\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan"
        self._negative_number_matcher = re.compile(
            rf"^-({number})(,[-+]?({number}))*$", re.IGNORECASE
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _name_list(text: str) -> list[str]:
    return text.split(",")


def _config_value(action: argparse.Action, value):
    """A --config value as its flag would give it; ValueError on a wrong type.

    Switches take true/false, numeric flags a JSON number, list flags a
    nonempty JSON list or a comma-separated string, and every other flag a
    string.
    """
    if action.nargs == 0:
        ok = type(value) is bool
    elif action.type is int:
        ok = type(value) is int
    elif action.type is float:
        ok = type(value) in (int, float)
        if ok:  # read as the flag's text is: an int beyond the float range is inf
            return float(str(value))
    elif action.type in (_int_list, _name_list) and type(value) is list:
        item = int if action.type is _int_list else str
        ok = bool(value) and all(type(v) is item for v in value)
    else:
        ok = type(value) is str
        if ok and action.type is not None:
            return action.type(value)
    if not ok:
        raise ValueError(f"{json.dumps(value)} is not a valid --{action.dest.replace('_', '-')} value")
    return value


def _parse_with_config_file(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; with --config, the file's values become the subcommand's
    defaults and argv is parsed again, so flags beat the file and the file
    beats the defaults."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        _usage_error(f"cannot read config file {args.config}: {exc}")
    if not isinstance(doc, dict):
        _usage_error(f"config file {args.config} must hold a JSON object")
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    sub = commands.choices[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    for key, value in doc.items():
        if key not in actions:
            _usage_error(f"unknown config key {key!r}")
        try:
            sub.set_defaults(**{key: _config_value(actions[key], value)})
        except ValueError as exc:
            _usage_error(f"config key {key!r}: {exc}")
    return parser.parse_args(argv)


def _check_values(args):
    """Range checks on values from flags or --config.  A threshold compares
    with importances or MAPEs; NaN or inf would decide every component the
    same way without a word.  A k labels at least one configuration, a seed
    count is not negative (0 runs no cell) nor above sys.maxsize (the
    largest range), and a method is one of
    METHOD_KEYS; no k or method is given twice; all before any file is
    read."""
    for key in ("threshold", "gate_threshold"):
        if key in args and not math.isfinite(getattr(args, key)):
            flag = key.replace("_", "-")
            _usage_error(f"--{flag} must be a finite number, not {getattr(args, key)!r}")
    if "ks" in args and min(args.ks) < 1:
        _usage_error(f"--ks values must be at least 1, not {min(args.ks)}")
    if "seeds" in args and args.seeds < 0:
        _usage_error(f"--seeds must not be negative, not {args.seeds}")
    if "seed" in args and args.seed < 0:
        _usage_error(f"--seed must not be negative, not {args.seed}")
    if "seeds" in args and args.seeds > sys.maxsize:
        _usage_error(f"--seeds must be at most {sys.maxsize}")
    for method in getattr(args, "methods", ()):
        if method not in METHOD_KEYS:
            _usage_error(f"unknown --methods name {method!r}; choose from {', '.join(METHOD_KEYS)}")
    for key in ("ks", "methods"):
        values = list(getattr(args, key, ()))
        if len(set(values)) < len(values):
            _usage_error(f"--{key} must not repeat a value, not {','.join(map(str, values))}")


def _gbt_hyperparams(args) -> GbtHyperparams:
    """The GBT flags as hyperparameters; out-of-range values are usage errors."""
    try:
        return GbtHyperparams(
            n_estimators=args.n_estimators, max_depth=args.max_depth, learning_rate=args.learning_rate
        )
    except ModelError as exc:
        _usage_error(f"GBT flags: {exc}")


def _add_gbt_flags(sub):
    hp = GbtHyperparams()
    sub.add_argument("--n-estimators", type=int, default=hp.n_estimators)
    sub.add_argument("--max-depth", type=int, default=hp.max_depth)
    sub.add_argument("--learning-rate", type=float, default=hp.learning_rate)


def _check_outputs(*paths: str):
    """Before any input is read: the OSError that writing each path would
    raise, naming it, if its directory is missing or it is a directory."""
    for path in paths:
        try:
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the trailing "/" wants a directory
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_extract(args) -> int:
    hp = _gbt_hyperparams(args)
    _check_outputs(args.out)
    ds = load_dataset(args.known)
    kb = extract_knowledge(ds, hp, args.threshold)
    save_knowledge_base(kb, args.out)
    print(f"{'Component':<16} {'Strategy':<12} Important parameter")
    for name, ck in kb.per_component.items():
        if ck.strategy.kind == RETRAIN:
            print(f"{name:<16} {'Retrain':<12} {ck.strategy.param}")
        else:
            print(f"{name:<16} {'NoRetrain':<12} --")
    print(f"knowledge base written to {args.out}")
    return EXIT_OK


def cmd_build(args) -> int:
    hp = _gbt_hyperparams(args)
    report_path = args.report if args.report else args.out + ".generalization.csv"
    _check_outputs(args.out, report_path)
    kb = load_knowledge_base(args.kb)
    train = load_dataset(args.target_train)
    report = evaluate_generalization(kb, train, args.gate_threshold)
    model = build_target_model(kb, train, hp)
    save_model(model, args.out)
    write_text_atomic(report_path, "\n".join(report.csv_rows()) + "\n")
    print(f"{'Component':<16} {'Scale':>10} {'MAPE%':>8} Verdict")
    for v in report.per_component.values():
        print(f"{v.component:<16} {v.scaling_factor:>10.4f} {v.observed_mape:>8.2f} {v.verdict}")
    print(f"model written to {args.out}; report to {report_path}")
    low = report.low_components()
    if args.fail_on_low_generalization and low:
        raise GateError(f"low generalization quality for components: {', '.join(low)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_outputs(args.out)
    model = load_model(args.model)
    ds = load_dataset(args.input)
    # Each component's design matrix, as predict_components builds it, and its labels (NaN if absent).
    inputs = [(comp, design_matrix(ds, comp), ds.power.column(comp.name).tolist())
              for comp in model.component_table]
    rows = [PER_SAMPLE_HEADER]
    totals_pred = []
    for i, ((cid, workload), total_label) in enumerate(zip(ds.keys, ds.totals)):
        total = 0.0
        for comp, X, labels in inputs:
            pred = model.predict_component_power(comp, X[i])
            total += pred
            label = labels[i]
            rows.append(f"{cid},{workload},{comp.name},{pred!r},{'' if label != label else repr(label)}")
        rows.append(f"{cid},{workload},Total,{total!r},{total_label!r}")
        totals_pred.append(total)
    write_text_atomic(args.out, "\n".join(rows) + "\n")
    if len(totals_pred) >= 2:
        m = mape(totals_pred, ds.totals)
        try:
            r = pearson_r(totals_pred, ds.totals)
        except ModelError:  # the predicted or the labeled totals do not vary
            r = None
        summary_path = args.out + ".summary.csv"
        write_text_atomic(summary_path, f"mape_percent,pearson_r\n{m!r},{'' if r is None else repr(r)}\n")
        shown = "undefined (zero variance)" if r is None else f"{r:.4f}"
        print(f"total-power MAPE {m:.3f}%  R {shown}  (summary: {summary_path})")
    print(f"predictions written to {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    hp = _gbt_hyperparams(args)
    ds_known = load_dataset(args.known)
    ds_target = load_dataset(args.target)
    results = run_experiment(
        ds_known,
        ds_target,
        methods=args.methods,
        ks=args.ks,
        seeds=range(args.seeds),
        hp=hp,
        threshold=args.threshold,
    )
    os.makedirs(args.out, exist_ok=True)
    lines = [RESULTS_HEADER]
    for r in results:
        lines.append(f"{r.method},{r.k},{r.seed},{r.mape_percent!r},{r.pearson_r!r}")
    write_text_atomic(os.path.join(args.out, "results.csv"), "\n".join(lines) + "\n")
    sample_dir = os.path.join(args.out, "per_sample")
    os.makedirs(sample_dir, exist_ok=True)
    for r in results:
        rows = [PER_SAMPLE_HEADER]
        for config_id, workload, pred, label in r.per_sample:
            rows.append(f"{config_id},{workload},Total,{pred!r},{label!r}")
        path = os.path.join(sample_dir, f"{r.method}_k{r.k}_seed{r.seed}.csv")
        write_text_atomic(path, "\n".join(rows) + "\n")
    summary = summarize(results)
    print(f"{'method':<32} {'k':>3} {'mean MAPE%':>11} {'mean R':>8}")
    for (method, k), (m, r) in summary.items():
        print(f"{method:<32} {k:>3} {m:>11.3f} {r:>8.4f}")
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = synthgen.load_spec(args.spec) if args.spec else synthgen.default_spec(seed=args.seed)
    ds_known, ds_target, truth = synthgen.generate_pair(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    save_dataset(ds_known, os.path.join(args.out_dir, "known.json"))
    save_dataset(ds_target, os.path.join(args.out_dir, "target.json"))
    synthgen.save_spec(truth.spec, os.path.join(args.out_dir, "truth.json"))
    print(
        f"wrote {spec.n_known_configs}-config known and "
        f"{spec.n_target_configs}-config target datasets to {args.out_dir}"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="firepower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="phase 1: extract a knowledge base")
    p.add_argument("--known", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--config", default=None)
    _add_gbt_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("build", help="phase 2: build a target power model")
    p.add_argument("--kb", required=True)
    p.add_argument("--target-train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--gate-threshold", type=float, default=DEFAULT_GATE_THRESHOLD)
    p.add_argument("--fail-on-low-generalization", action="store_true")
    p.add_argument("--config", default=None)
    _add_gbt_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("predict", help="per-sample power predictions to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("experiment", help="run the few-shot comparison protocol")
    p.add_argument("--known", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--ks", type=_int_list, default=DEFAULT_KS)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--methods", type=_name_list, default=METHOD_KEYS)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_gbt_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic known/target pair")
    p.add_argument("--spec", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_with_config_file(parser, argv)
        _check_values(args)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except FirePowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
