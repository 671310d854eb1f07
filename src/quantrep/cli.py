"""Command-line driver for end-to-end experiments.

Single-invocation subcommands, all randomness seeded. Every subcommand
follows one run protocol, kept by :func:`main`: it creates ``--out``,
times the stages the subcommand names, and on success writes the values
the subcommand ran with to ``resolved_config.json`` and the stage timings
to ``run_meta.json``. Exit codes: 0 success, 2 usage/validation error, 3
numerical failure. Result files are byte-identical across reruns with the
same config; ``run_meta.json`` holds the wall-clock data and is the one
file excluded from that guarantee.
"""

import argparse
import csv
import functools
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .calibration import CORRUPTIONS, corruption_sweep
from .datasets import (
    LatentModelSpec,
    _check_seed,
    gen_gaussian_pair,
    gen_latent_binary,
    gen_two_moons,
    load_dataset,
    save_dataset,
)
from .errors import FitError, QuantrepError, ValidationError
from .linear import FitConfig, LinearClassifier
from .ood import DEFAULT_LOF_K, lof_scores, ood_metrics
from .quantile import (
    QuantileGrid,
    _resolve_bases,
    coefficient_cross_correlation,
    fit_base_classifiers,
    fit_quantile_model,
    load_model,
    metric_factor,
    monotonicity_violation_rate,
    raw_feature_correlation,
    save_model,
)
from .shift import _check_search_inputs, estimate_transform

_FMT = "%.17g"

GEN_DEFAULTS = {
    "two-moons": {"n_per_class": 250, "noise": 0.25, "ood_n": 120,
                  "ood_center": "8.3,2.0", "seed": 0},
    "gaussian-pair": {"centers": "0,0,1,1", "stds": "0.1,0.3,0.3,0.11",
                      "n_per_class": 500, "seed": 0},
    "latent-binary": {"g": "1.0", "g_intercept": 0.0,
                      "noise_kind": "homoskedastic-gaussian",
                      "noise_scale": "1.0", "n": 5000, "dim": 1, "seed": 0},
}

# read from FitConfig and QuantileGrid, whose defaults shift-match fits with
_DEFAULT_GRID = QuantileGrid()
FIT_DEFAULTS = {"anchors": _DEFAULT_GRID.anchors.size, "dense": _DEFAULT_GRID.n_dense,
                "tau_min": float(_DEFAULT_GRID.anchors[0]),
                "tau_max": float(_DEFAULT_GRID.anchors[-1]), **asdict(FitConfig())}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_csv(path, rows):
    """A result table, one list of cells per row: a float is written as
    ``%.17g``, NaN and None as an empty cell, any other value as text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(
            ["" if v is None or (isinstance(v, float) and math.isnan(v))
             else _FMT % v if isinstance(v, float) else v for v in row]
            for row in rows)


class _Stages:
    """The stage clock of one run: ``stages(name)`` closes the stage named
    ``name``, which began at the previous call or at the start of the run."""

    def __init__(self):
        self.start = self._last = time.perf_counter()
        self.timings = {}

    def __call__(self, name):
        now = time.perf_counter()
        self.timings[name] = now - self._last
        self._last = now


def _load_config(args):
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValidationError(f"config file {args.config} does not hold a JSON object")
    return config


def _resolve(args, defaults, echoed):
    """Sentinel-None flags fall back to --config values, then defaults. Each
    flag is typed by its default (``_add_param_flags``); a numeric config
    value is read through that type, as its flag would read it. Any
    other config key raises rather than go unread, except the keys that a
    ``resolved_config.json`` adds (``subcommand`` and the ``echoed`` ones);
    one with a value must hold it."""
    config = _load_config(args)
    echoed = {"subcommand": args.command, **echoed}
    unused = [repr(key) for key in config if key not in defaults
              and (key not in echoed or echoed[key] not in (None, config[key]))]
    if unused:
        raise ValidationError(f"{args.command} does not use config key(s) "
                              f"{', '.join(unused)} in {args.config}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
        elif key not in config:
            resolved[key] = default
        elif isinstance(default, str):
            resolved[key] = config[key]
        else:
            kind = type(default)
            try:
                resolved[key] = kind(str(config[key]))
            except ValueError as exc:
                raise ValidationError(f"config key {key!r} must be {kind.__name__}, "
                                      f"got {config[key]!r}") from exc
    return resolved


def _parse_floats(text, expect=None):
    try:
        vals = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers: {exc}") from exc
    if expect is not None and len(vals) != expect:
        raise ValidationError(f"expected {expect} comma-separated values, got {len(vals)}")
    return vals


def _fit_config(cfg):
    return FitConfig(**{f.name: cfg[f.name] for f in fields(FitConfig)})


def _grid(cfg):
    # a negative count gives an empty grid, which QuantileGrid rejects
    return QuantileGrid(*(np.linspace(cfg["tau_min"], cfg["tau_max"], max(cfg[key], 0))
                          for key in ("anchors", "dense")))


def _save_bases(path, bases):
    _write_json(path, {"classifiers": [b.to_json_dict() for b in bases]})


def _load_bases(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return [LinearClassifier.from_json_dict(c) for c in obj["classifiers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed base model file {path}: {exc!r}") from exc


def _base_logit_matrix(bases, features, k):
    """Per-class base logits of ``k`` classes; the one binary base expands
    to (-z, z). The bases must match the model's tasks (``_resolve_bases``)."""
    bases, _ = _resolve_bases(bases, k)
    z = np.column_stack([b.decision(features) for b in bases])
    return np.column_stack([-z, z]) if k == 2 else z


def cmd_gen_data(args, stages):
    kind = args.kind
    cfg = _resolve(args, GEN_DEFAULTS[kind], {"kind": kind})
    if kind == "two-moons":
        center = _parse_floats(cfg["ood_center"], 2)
        id_ds, ood_ds = gen_two_moons(cfg["n_per_class"], cfg["noise"], cfg["ood_n"],
                                      center, cfg["seed"])
        outputs = {"id.csv": id_ds, "ood.csv": ood_ds}
    elif kind == "gaussian-pair":
        centers = np.asarray(_parse_floats(cfg["centers"], 4)).reshape(2, 2)
        stds = np.asarray(_parse_floats(cfg["stds"], 4)).reshape(2, 2)
        ds = gen_gaussian_pair(centers, stds, cfg["n_per_class"], cfg["seed"])
        outputs = {"data.csv": ds}
    else:
        g = np.asarray(_parse_floats(cfg["g"]))
        if g.shape[0] != cfg["dim"]:
            raise ValidationError("g coefficient count must equal --dim")
        scale = _parse_floats(cfg["noise_scale"])
        spec = LatentModelSpec(g, cfg["g_intercept"], cfg["noise_kind"],
                               scale[0] if len(scale) == 1 else tuple(scale))
        ds = gen_latent_binary(spec, cfg["n"], seed=cfg["seed"])
        outputs = {"data.csv": ds}
    stages("generate")
    for name, ds in outputs.items():
        save_dataset(ds, os.path.join(args.out, name))
    stages("save")
    return {"kind": kind, **cfg}


def cmd_fit_quantile(args, stages):
    cfg = _resolve(args, FIT_DEFAULTS, {"data": None, "base_model": None})
    fit_config = _fit_config(cfg)
    grid = _grid(cfg)
    dataset = load_dataset(args.data)
    bases = (_load_bases(args.base_model) if args.base_model
             else fit_base_classifiers(dataset, fit_config))
    stages("base_fit")

    model = fit_quantile_model(dataset, bases, grid=grid, fit_config=fit_config)
    stages("quantile_fit")

    nonconverged = [sum(not c.converged for c in t.anchor_classifiers)
                    for t in model.tasks]
    degenerate = [sum(c.degenerate for c in t.anchor_classifiers)
                  for t in model.tasks]
    iterations = [sum(c.iterations for c in t.anchor_classifiers)
                  for t in model.tasks]
    for task, count in zip(model.tasks, degenerate):
        if count == len(task.anchor_classifiers):
            raise FitError("every anchor fit is degenerate: the pseudo-labels are "
                           "one class at every tau, so the task carries no "
                           "information", class_id=task.class_id)
    if sum(nonconverged):
        print(f"warning: {sum(nonconverged)} anchor fits did not meet the "
              f"stopping rule (tol={fit_config.tol:g} relative to the total "
              f"sample weight, max_iter={fit_config.max_iter})", file=sys.stderr)
    mono = monotonicity_violation_rate(model, dataset.features, dataset.weights)
    save_model(model, args.out)
    _save_bases(os.path.join(args.out, "base.json"), bases)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "schema_version": 1,
        "seed": cfg["seed"],
        "grid": {"n_anchor": cfg["anchors"], "n_dense": cfg["dense"],
                 "tau_min": cfg["tau_min"], "tau_max": cfg["tau_max"]},
        "data": {"n": dataset.n, "d": dataset.d, "k": dataset.k},
        "monotonicity_violation_rate": mono.aggregate,
        "median_agreement": [t.median_agreement for t in model.tasks],
        "nonconverged_anchors": nonconverged,
        "anchor_iterations": iterations,
        "degenerate_anchors": degenerate,
    })
    return {"data": os.path.abspath(args.data),
            "base_model": args.base_model and os.path.abspath(args.base_model), **cfg}


def _load_input(path, what, subcommand, model):
    """An evaluation dataset of the model's feature dimension. The evaluation
    subcommands have no use for per-sample weights, so a weight column,
    which would go unread, is a validation error too."""
    dataset = load_dataset(path)
    if dataset.weights is not None:
        raise ValidationError(f"{subcommand} does not use per-sample weights, "
                              f"but {what} file {path} has a weight column")
    if dataset.d != model.feature_dim:
        raise ValidationError(f"{what} feature dimension {dataset.d} does not "
                              f"match model dimension {model.feature_dim}")
    return dataset


def cmd_ood_eval(args, stages):
    _check_seed(args.seed)  # only labels the metrics table
    model = load_model(os.path.join(args.model, "model.json"))
    bases = _load_bases(os.path.join(args.model, "base.json"))
    train = _load_input(args.train, "train", "ood-eval", model)
    test_id = _load_input(args.test_id, "test-id", "ood-eval", model)
    test_ood = _load_input(args.test_ood, "test-ood", "ood-eval", model)
    stages("load")

    queries = np.vstack([test_id.features, test_ood.features])
    is_id = np.concatenate([np.ones(test_id.n, dtype=bool),
                            np.zeros(test_ood.n, dtype=bool)])

    # LOF on the flattened representations equals LOF on features @ L
    # (see metric_factor); the (n, k, n_dense) tensor is never built
    factor = metric_factor(model)
    quant_scores = lof_scores(train.features @ factor, queries @ factor, k=args.k)
    stages("quantile_rep_lof")

    ref_base = _base_logit_matrix(bases, train.features, model.class_count)
    query_base = _base_logit_matrix(bases, queries, model.class_count)
    base_scores = lof_scores(ref_base, query_base, k=args.k)
    stages("baseline_lof")

    results = {
        "baseline": ood_metrics(base_scores, is_id),
        "quantile-rep": ood_metrics(quant_scores, is_id),
    }
    stages("metrics")
    _write_json(os.path.join(args.out, "metrics.json"), results)
    dataset_name = os.path.splitext(os.path.basename(args.test_ood))[0]
    _write_csv(os.path.join(args.out, "metrics.csv"), [
        ["detector", "dataset", "seed", "auroc", "tnr_at_tpr95", "detection_accuracy"],
        *([det, dataset_name, args.seed, m["auroc"], m["tnr_at_tpr95"],
           m["detection_accuracy"]] for det, m in results.items())])
    return {"model": os.path.abspath(args.model), "train": os.path.abspath(args.train),
            "test_id": os.path.abspath(args.test_id),
            "test_ood": os.path.abspath(args.test_ood), "k": args.k, "seed": args.seed}


def cmd_calib_eval(args, stages):
    severities = _parse_floats(args.severities)
    model = load_model(os.path.join(args.model, "model.json"))
    bases = _load_bases(os.path.join(args.model, "base.json"))
    data = _load_input(args.data, "data", "calib-eval", model)
    stages("load")

    report = corruption_sweep(model, bases, data, args.corruption, severities,
                              m=args.bins, binning=args.binning, seed=args.seed)
    stages("sweep")
    _write_csv(os.path.join(args.out, "sweep.csv"), [
        ["severity", "method", "accuracy", "ece"],
        *([r.severity, r.method, r.accuracy, r.ece] for r in report.rows)])
    return {"model": os.path.abspath(args.model), "data": os.path.abspath(args.data),
            "severities": severities, "corruption": args.corruption, "bins": args.bins,
            "binning": args.binning, "seed": args.seed}


def cmd_xcorr(args, stages):
    model = load_model(os.path.join(args.model, "model.json"))
    data = _load_input(args.data, "data", "xcorr", model)
    stages("load")

    quant = coefficient_cross_correlation(model)
    raw = raw_feature_correlation(data.features)
    stages("correlation")
    d = raw.shape[0]
    _write_csv(os.path.join(args.out, "xcorr_quantile.csv"), quant)
    _write_csv(os.path.join(args.out, "xcorr_raw.csv"), raw)
    _write_csv(os.path.join(args.out, "scatter_pairs.csv"), [
        ["i", "j", "raw_corr", "quantile_corr"],
        *([i, j, raw[i, j], quant[i, j]] for i in range(d) for j in range(i + 1, d))])
    return {"model": os.path.abspath(args.model), "data": os.path.abspath(args.data)}


def cmd_shift_match(args, stages):
    # only echoed to report.csv, where an empty cell means "not given"
    if args.true_angle is not None and not math.isfinite(args.true_angle):
        raise ValidationError(f"--true-angle must be finite, got {args.true_angle}")
    data_t0 = load_dataset(args.data_t0)
    data_t1 = load_dataset(args.data_t1)
    # the search's input rules, checked before either model is fitted
    _check_search_inputs(args.family, data_t0.d, data_t0.k, data_t1)
    stages("load")
    fit_config = FitConfig(seed=args.seed)
    bases0 = fit_base_classifiers(data_t0, fit_config)
    model_t0 = fit_quantile_model(data_t0, bases0, fit_config=fit_config)
    stages("fit_t0")
    est = estimate_transform(args.family, model_t0, data_t1, fit_config=fit_config)
    stages("estimate")

    obj = est.transform.to_json_dict()
    obj.update({"objective": est.objective,
                "identifiable": est.identifiable,
                "near_ties": [t.to_json_dict() for t in est.near_ties]})
    _write_json(os.path.join(args.out, "estimate.json"), obj)
    _write_csv(os.path.join(args.out, "report.csv"), [
        ["seed", "true_angle", "estimated_angle", "objective"],
        [args.seed, args.true_angle,
         math.degrees(est.transform.angle) if args.family == "orthogonal-2d" else None,
         est.objective]])
    return {"data_t0": os.path.abspath(args.data_t0),
            "data_t1": os.path.abspath(args.data_t1), "family": args.family,
            "seed": args.seed, "true_angle": args.true_angle}


def _add_param_flags(parser, defaults):
    """One ``--key`` flag per parameter, typed by its default (a text default
    takes the text as given). An unset flag stays None for ``_resolve``."""
    for key, default in defaults.items():
        parser.add_argument("--" + key.replace("_", "-"),
                            type=None if isinstance(default, str) else type(default))


def build_parser():
    # no abbreviated flags: `--anc` is not read as `--anchors`, and a flag of
    # another gen-data kind is named, not completed
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_abbrev(
        prog="quantrep",
        description="Quantile representations: data generation, fitting, "
                    "OOD evaluation, calibration sweeps, diagnostics, and "
                    "shift matching.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=no_abbrev)
    for kind, defaults in GEN_DEFAULTS.items():
        k = kinds.add_parser(kind)
        k.add_argument("--out", required=True)
        k.add_argument("--config")
        _add_param_flags(k, defaults)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit-quantile", help="fit a quantile model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base-model")
    p.add_argument("--config")
    _add_param_flags(p, FIT_DEFAULTS)
    p.set_defaults(func=cmd_fit_quantile)

    p = sub.add_parser("ood-eval", help="baseline vs quantile-representation OOD detection")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test-id", required=True)
    p.add_argument("--test-ood", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_LOF_K)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ood_eval)

    p = sub.add_parser("calib-eval", help="accuracy/ECE corruption sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--severities", default="0,0.25,0.5,1.0,1.5,2.0")
    p.add_argument("--corruption", default="gaussian-noise", choices=CORRUPTIONS)
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--binning", default="quantile", choices=["equal-width", "quantile"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calib_eval)

    p = sub.add_parser("xcorr", help="feature cross-correlation diagnostic")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_xcorr)

    p = sub.add_parser("shift-match", help="estimate a feature transform between epochs")
    p.add_argument("--data-t0", required=True)
    p.add_argument("--data-t1", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="orthogonal-2d", choices=["orthogonal-2d", "affine"])
    p.add_argument("--true-angle", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_shift_match)
    return parser


def main(argv=None):
    """Run one subcommand under the run protocol. A subcommand closes its
    stages on the clock it is handed and returns the values it ran with;
    only a run that succeeds writes ``resolved_config.json`` and
    ``run_meta.json``."""
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        stages = _Stages()
        resolved = args.func(args, stages)
        _write_json(os.path.join(args.out, "resolved_config.json"),
                    {"subcommand": args.command, **resolved})
        _write_json(os.path.join(args.out, "run_meta.json"), {
            "timings_sec": {**stages.timings, "total": time.perf_counter() - stages.start},
            # ru_maxrss is in KiB on Linux (in bytes on macOS)
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        return 0
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuantrepError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
