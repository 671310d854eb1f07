"""Command-line driver for end-to-end experiments.

Single-invocation subcommands, all randomness seeded, every run writing
its resolved configuration next to its results. Exit codes: 0 success,
2 usage/validation error, 3 numerical failure. Result files are
byte-identical across reruns with the same config; wall-clock timings go
to ``run_meta.json``, which is the one file excluded from that guarantee.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from .calibration import corruption_sweep
from .datasets import (
    LatentModelSpec,
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
    coefficient_cross_correlation,
    fit_base_classifiers,
    fit_quantile_model,
    load_model,
    metric_factor,
    monotonicity_violation_rate,
    raw_feature_correlation,
    represent,
    save_model,
)
from .shift import SearchConfig, estimate_transform

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

FIT_DEFAULTS = {"anchors": 100, "dense": 1000, "tau_min": 0.01, "tau_max": 0.99,
                "l2_reg": 1e-4, "max_iter": 1000, "tol": 1e-8, "seed": 0}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _resolve(args, defaults, keys):
    """Sentinel-None flags fall back to --config values, then defaults."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    resolved = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = defaults[key]
    return resolved


def _parse_floats(text, expect=None):
    vals = [float(v) for v in str(text).split(",") if v != ""]
    if expect is not None and len(vals) != expect:
        raise ValidationError(f"expected {expect} comma-separated values, got {len(vals)}")
    return vals


def _fit_config(cfg):
    return FitConfig(l2_reg=cfg["l2_reg"], max_iter=int(cfg["max_iter"]),
                     tol=cfg["tol"], seed=int(cfg["seed"]))


def _grid(cfg):
    return QuantileGrid(np.linspace(cfg["tau_min"], cfg["tau_max"], int(cfg["anchors"])),
                        np.linspace(cfg["tau_min"], cfg["tau_max"], int(cfg["dense"])))


def _save_bases(path, bases):
    _write_json(path, {"classifiers": [b.to_json_dict() for b in bases]})


def _load_bases(path):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return [LinearClassifier.from_json_dict(c) for c in obj["classifiers"]]


def _base_logit_matrix(bases, features):
    """Per-class base logits; a single binary base expands to (-z, z)."""
    if len(bases) == 1:
        z = bases[0].decision(features)
        return np.column_stack([-z, z])
    return np.column_stack([b.decision(features) for b in bases])


def _write_matrix_csv(path, matrix, header=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow(["" if (isinstance(v, float) and math.isnan(v))
                             else (_FMT % v if isinstance(v, float) else v)
                             for v in row])


def cmd_gen_data(args):
    kind = args.kind
    defaults = GEN_DEFAULTS[kind]
    cfg = _resolve(args, defaults, defaults.keys())
    os.makedirs(args.out, exist_ok=True)

    if kind == "two-moons":
        center = _parse_floats(cfg["ood_center"], 2)
        id_ds, ood_ds = gen_two_moons(int(cfg["n_per_class"]), float(cfg["noise"]),
                                      int(cfg["ood_n"]), center, int(cfg["seed"]))
        save_dataset(id_ds, os.path.join(args.out, "id.csv"))
        save_dataset(ood_ds, os.path.join(args.out, "ood.csv"))
    elif kind == "gaussian-pair":
        centers = np.asarray(_parse_floats(cfg["centers"], 4)).reshape(2, 2)
        stds = np.asarray(_parse_floats(cfg["stds"], 4)).reshape(2, 2)
        ds = gen_gaussian_pair(centers, stds, int(cfg["n_per_class"]), int(cfg["seed"]))
        save_dataset(ds, os.path.join(args.out, "data.csv"))
    else:
        g = np.asarray(_parse_floats(cfg["g"]))
        if g.shape[0] != int(cfg["dim"]):
            raise ValidationError("g coefficient count must equal --dim")
        scale = _parse_floats(cfg["noise_scale"])
        spec = LatentModelSpec(g, float(cfg["g_intercept"]), cfg["noise_kind"],
                               scale[0] if len(scale) == 1 else tuple(scale))
        ds = gen_latent_binary(spec, int(cfg["n"]), seed=int(cfg["seed"]))
        save_dataset(ds, os.path.join(args.out, "data.csv"))

    _write_json(os.path.join(args.out, "resolved_config.json"),
                {"subcommand": "gen-data", "kind": kind, **cfg})
    return 0


def cmd_fit_quantile(args):
    cfg = _resolve(args, FIT_DEFAULTS, FIT_DEFAULTS.keys())
    os.makedirs(args.out, exist_ok=True)
    t_start = time.perf_counter()
    dataset = load_dataset(args.data)
    fit_config = _fit_config(cfg)
    grid = _grid(cfg)

    if args.base_model:
        bases = _load_bases(args.base_model)
    else:
        bases = fit_base_classifiers(dataset, fit_config)
    t_base = time.perf_counter()

    try:
        model = fit_quantile_model(dataset, bases, grid=grid, fit_config=fit_config)
    except ValidationError:
        raise
    except QuantrepError as exc:
        raise FitError(str(exc)) from exc
    t_fit = time.perf_counter()

    nonconverged = [sum(not c.converged for c in t.anchor_classifiers)
                    for t in model.tasks]
    degenerate = [sum(c.degenerate for c in t.anchor_classifiers)
                  for t in model.tasks]
    if sum(nonconverged):
        print(f"warning: {sum(nonconverged)} anchor fits did not meet the "
              f"stopping rule (tol={fit_config.tol:g} relative to the total "
              f"sample weight, max_iter={fit_config.max_iter})", file=sys.stderr)
    mono = monotonicity_violation_rate(represent(model, dataset.features))
    save_model(model, args.out)
    _save_bases(os.path.join(args.out, "base.json"), bases)
    resolved = {"subcommand": "fit-quantile", "data": os.path.abspath(args.data),
                "base_model": args.base_model and os.path.abspath(args.base_model),
                **cfg}
    _write_json(os.path.join(args.out, "resolved_config.json"), resolved)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "schema_version": 1,
        "seed": int(cfg["seed"]),
        "grid": {"n_anchor": int(cfg["anchors"]), "n_dense": int(cfg["dense"]),
                 "tau_min": cfg["tau_min"], "tau_max": cfg["tau_max"]},
        "data": {"n": dataset.n, "d": dataset.d, "k": dataset.k},
        "monotonicity_violation_rate": mono.aggregate,
        "median_agreement": [t.median_agreement for t in model.tasks],
        "nonconverged_anchors": nonconverged,
        "degenerate_anchors": degenerate,
    })
    _write_json(os.path.join(args.out, "run_meta.json"), {
        "timings_sec": {"base_fit": t_base - t_start,
                        "quantile_fit": t_fit - t_base,
                        "total": time.perf_counter() - t_start},
    })
    return 0


def _require(path, what):
    if not path or not os.path.exists(path):
        raise ValidationError(f"missing {what}: {path!r}")


def cmd_ood_eval(args):
    for p, what in ((args.model, "model dir"), (args.train, "train data"),
                    (args.test_id, "test-id data"), (args.test_ood, "test-ood data")):
        _require(p, what)
    os.makedirs(args.out, exist_ok=True)
    k = args.k if args.k is not None else DEFAULT_LOF_K
    seed = args.seed if args.seed is not None else 0

    t_start = time.perf_counter()
    model = load_model(os.path.join(args.model, "model.json"))
    bases = _load_bases(os.path.join(args.model, "base.json"))
    train = load_dataset(args.train)
    test_id = load_dataset(args.test_id)
    test_ood = load_dataset(args.test_ood)
    t_load = time.perf_counter()
    for ds, what in ((train, "train"), (test_id, "test-id"), (test_ood, "test-ood")):
        if ds.d != model.feature_dim:
            raise ValidationError(
                f"{what} feature dimension {ds.d} does not match model "
                f"dimension {model.feature_dim}")

    queries = np.vstack([test_id.features, test_ood.features])
    is_id = np.concatenate([np.ones(test_id.n, dtype=bool),
                            np.zeros(test_ood.n, dtype=bool)])

    # LOF on the flattened representations equals LOF on features @ L
    # (see metric_factor); the (n, k, n_dense) tensor is never built
    factor = metric_factor(model)
    quant_scores = lof_scores(train.features @ factor, queries @ factor, k=k)
    t_quant = time.perf_counter()

    ref_base = _base_logit_matrix(bases, train.features)
    query_base = _base_logit_matrix(bases, queries)
    base_scores = lof_scores(ref_base, query_base, k=k)
    t_base = time.perf_counter()

    results = {
        "baseline": ood_metrics(base_scores, is_id),
        "quantile-rep": ood_metrics(quant_scores, is_id),
    }
    t_metrics = time.perf_counter()
    _write_json(os.path.join(args.out, "metrics.json"), results)
    dataset_name = os.path.splitext(os.path.basename(args.test_ood))[0]
    with open(os.path.join(args.out, "metrics.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["detector", "dataset", "seed", "auroc",
                         "tnr_at_tpr95", "detection_accuracy"])
        for det in ("baseline", "quantile-rep"):
            m = results[det]
            writer.writerow([det, dataset_name, seed, _FMT % m["auroc"],
                             _FMT % m["tnr_at_tpr95"],
                             _FMT % m["detection_accuracy"]])
    _write_json(os.path.join(args.out, "resolved_config.json"), {
        "subcommand": "ood-eval", "model": os.path.abspath(args.model),
        "train": os.path.abspath(args.train),
        "test_id": os.path.abspath(args.test_id),
        "test_ood": os.path.abspath(args.test_ood), "k": k, "seed": seed,
    })
    _write_json(os.path.join(args.out, "run_meta.json"), {
        "timings_sec": {"load": t_load - t_start,
                        "quantile_rep_lof": t_quant - t_load,
                        "baseline_lof": t_base - t_quant,
                        "metrics": t_metrics - t_base,
                        "total": time.perf_counter() - t_start},
    })
    return 0


def cmd_calib_eval(args):
    for p, what in ((args.model, "model dir"), (args.data, "data")):
        _require(p, what)
    os.makedirs(args.out, exist_ok=True)
    severities = _parse_floats(args.severities if args.severities is not None
                               else "0,0.25,0.5,1.0,1.5,2.0")
    corruption = args.corruption or "gaussian-noise"
    bins = args.bins if args.bins is not None else 5
    binning = args.binning or "quantile"
    seed = args.seed if args.seed is not None else 0

    model = load_model(os.path.join(args.model, "model.json"))
    bases = _load_bases(os.path.join(args.model, "base.json"))
    data = load_dataset(args.data)
    base = bases[0] if len(bases) == 1 else bases

    report = corruption_sweep(model, base, data, corruption, severities,
                              m=int(bins), binning=binning, seed=seed)
    report.to_csv(os.path.join(args.out, "sweep.csv"))
    _write_json(os.path.join(args.out, "resolved_config.json"), {
        "subcommand": "calib-eval", "model": os.path.abspath(args.model),
        "data": os.path.abspath(args.data), "severities": severities,
        "corruption": corruption, "bins": int(bins), "binning": binning,
        "seed": seed,
    })
    return 0


def cmd_xcorr(args):
    for p, what in ((args.model, "model dir"), (args.data, "data")):
        _require(p, what)
    os.makedirs(args.out, exist_ok=True)
    model = load_model(os.path.join(args.model, "model.json"))
    data = load_dataset(args.data)

    quant = coefficient_cross_correlation(model)
    raw = raw_feature_correlation(data.features)
    d = raw.shape[0]
    _write_matrix_csv(os.path.join(args.out, "xcorr_quantile.csv"),
                      [[float(v) for v in row] for row in quant])
    _write_matrix_csv(os.path.join(args.out, "xcorr_raw.csv"),
                      [[float(v) for v in row] for row in raw])
    with open(os.path.join(args.out, "scatter_pairs.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "raw_corr", "quantile_corr"])
        for i in range(d):
            for j in range(i + 1, d):
                writer.writerow([
                    i, j,
                    "" if math.isnan(raw[i, j]) else _FMT % raw[i, j],
                    "" if math.isnan(quant[i, j]) else _FMT % quant[i, j],
                ])
    _write_json(os.path.join(args.out, "resolved_config.json"), {
        "subcommand": "xcorr", "model": os.path.abspath(args.model),
        "data": os.path.abspath(args.data),
    })
    return 0


def cmd_shift_match(args):
    for p, what in ((args.data_t0, "t0 data"), (args.data_t1, "t1 data")):
        _require(p, what)
    os.makedirs(args.out, exist_ok=True)
    family = args.family or "orthogonal-2d"
    seed = args.seed if args.seed is not None else 0

    data_t0 = load_dataset(args.data_t0)
    data_t1 = load_dataset(args.data_t1)
    fit_config = FitConfig(seed=seed)
    bases0 = fit_base_classifiers(data_t0, fit_config)
    model_t0 = fit_quantile_model(data_t0, bases0, fit_config=fit_config)
    est = estimate_transform(family, model_t0, data_t1, fit_config=fit_config,
                             search_config=SearchConfig(seed=seed))

    obj = est.transform.to_json_dict()
    obj.update({"objective": est.objective,
                "identifiable": est.identifiable,
                "near_ties": [t.to_json_dict() for t in est.near_ties]})
    _write_json(os.path.join(args.out, "estimate.json"), obj)
    with open(os.path.join(args.out, "report.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "true_angle", "estimated_angle", "objective"])
        est_angle = (math.degrees(est.transform.angle)
                     if family == "orthogonal-2d" else "")
        writer.writerow([seed,
                         "" if args.true_angle is None else _FMT % args.true_angle,
                         _FMT % est_angle if est_angle != "" else "",
                         _FMT % est.objective])
    _write_json(os.path.join(args.out, "resolved_config.json"), {
        "subcommand": "shift-match", "data_t0": os.path.abspath(args.data_t0),
        "data_t1": os.path.abspath(args.data_t1), "family": family,
        "seed": seed,
    })
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quantrep",
        description="Quantile representations: data generation, fitting, "
                    "OOD evaluation, calibration sweeps, diagnostics, and "
                    "shift matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("kind", choices=sorted(GEN_DEFAULTS.keys()))
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--ood-n", type=int)
    p.add_argument("--ood-center")
    p.add_argument("--centers")
    p.add_argument("--stds")
    p.add_argument("--g")
    p.add_argument("--g-intercept", type=float)
    p.add_argument("--noise-kind",
                   choices=["homoskedastic-gaussian", "heteroskedastic-gaussian"])
    p.add_argument("--noise-scale")
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit-quantile", help="fit a quantile model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base-model")
    p.add_argument("--config")
    p.add_argument("--anchors", type=int)
    p.add_argument("--dense", type=int)
    p.add_argument("--tau-min", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--l2-reg", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_fit_quantile)

    p = sub.add_parser("ood-eval", help="baseline vs quantile-representation OOD detection")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test-id", required=True)
    p.add_argument("--test-ood", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ood_eval)

    p = sub.add_parser("calib-eval", help="accuracy/ECE corruption sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--severities")
    p.add_argument("--corruption",
                   choices=["gaussian-noise", "feature-scaling", "feature-shift"])
    p.add_argument("--bins", type=int)
    p.add_argument("--binning", choices=["equal-width", "quantile"])
    p.add_argument("--seed", type=int)
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
    p.add_argument("--family", choices=["orthogonal-2d", "affine"])
    p.add_argument("--true-angle", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_shift_match)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuantrepError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
