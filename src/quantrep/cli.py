"""Command-line driver for end-to-end experiments.

Single-invocation subcommands, all randomness seeded. Every subcommand
follows one run protocol, kept by :func:`main`: it creates ``--out``,
times the stages the subcommand names, and on success writes the parsed
arguments the subcommand ran with to ``resolved_config.json`` and the
stage timings to ``run_meta.json``. Exit codes: 0 success, 2
usage/validation error, 3 numerical failure. Result files are
byte-identical across reruns with the same config; ``run_meta.json``
holds the wall-clock data and is the one file excluded from that
guarantee.
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
    _base_logits,
    _task_classes,
    check_class_rows,
    coefficient_cross_correlation,
    fit_base_classifiers,
    fit_diagnostics,
    fit_quantile_model,
    load_model,
    metric_factor,
    monotonicity_violation_rate,
    raw_feature_correlation,
    save_model,
)
from .shift import _MIN_DECREASE, _check_search_inputs, estimate_transform

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

# read from FitConfig and QuantileGrid, whose defaults shift-match fits with;
# FitConfig.seed is left out, as only fit_sigmoid_mae reads it and no
# subcommand calls that
_DEFAULT_GRID = QuantileGrid()
FIT_DEFAULTS = {"anchors": _DEFAULT_GRID.anchors.size, "dense": _DEFAULT_GRID.n_dense,
                "tau_min": float(_DEFAULT_GRID.anchors[0]),
                "tau_max": float(_DEFAULT_GRID.anchors[-1]),
                **{key: value for key, value in asdict(FitConfig()).items() if key != "seed"}}

# parsed arguments that resolved_config.json does not echo: the subcommand
# is echoed as "subcommand", and func is the subcommand's function
_NOT_ECHOED = ("command", "func", "out", "config")


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


def _echo(args):
    """What ``resolved_config.json`` holds: the subcommand and every parsed
    argument but ``--out`` and ``--config``."""
    return {"subcommand": args.command,
            **{key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}}


def _resolve(args, defaults):
    """Sentinel-None flags fall back to --config values, then defaults, and
    the resolved values replace them in ``args``, which :func:`main` echoes.
    Each flag is typed by its default (``_add_param_flags``); a numeric
    config value is read through that type, as its flag would read it. Any
    other config key raises rather than go unread, except the keys that the
    echo adds (``_echo``): its subcommand and gen-data kind must be this
    run's, and its input paths are the flags'."""
    config = _load_config(args)
    echo = _echo(args)
    unused = [repr(key) for key in config if key not in defaults
              and (key not in echo
                   or key in ("subcommand", "kind") and config[key] != echo[key])]
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
    vars(args).update(resolved)
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
    return FitConfig(**{f.name: cfg[f.name] for f in fields(FitConfig) if f.name in cfg})


def _physical_memory():
    """Bytes of physical memory, the most a fit's size flags may ask for."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fit_size(cfg, dataset):
    """Refuse, before any grid is built, grid sizes whose anchor and dense
    fields, 8 (anchors + dense) (d+1) bytes per task, exceed physical
    memory: numpy would start to fill them, and the kernel kill the run."""
    classes = _task_classes(dataset.k)
    tasks = classes.stop - classes.start  # len() overflows past sys.maxsize tasks
    need = 8 * (cfg["anchors"] + cfg["dense"]) * (dataset.d + 1) * tasks
    if need > _physical_memory():
        raise ValidationError(
            f"{cfg['anchors']} anchor and {cfg['dense']} dense taus need {need} bytes for "
            f"{tasks} task(s) of {dataset.d + 1} coefficients, more than the "
            f"{_physical_memory()} bytes of physical memory")


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed base model file {path}: {exc!r}") from exc


def cmd_gen_data(args, stages):
    kind = args.kind
    cfg = _resolve(args, GEN_DEFAULTS[kind])
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


def _check_fit(model, fit_config, epoch=""):
    """``fit_diagnostics`` of a freshly fitted model, which raises on a task
    with no information, and one stderr warning line if any of its fits
    (those of the anchors, and the base fit if it ran here) did not meet
    the stopping rule; ``epoch`` prefixes the warning."""
    diagnostics = fit_diagnostics(model)
    counts = {"anchor": sum(diagnostics["nonconverged_anchors"]),
              "base": diagnostics["base_converged"].count(False)}
    unmet = " and ".join(f"{n} {kind} fits" for kind, n in counts.items() if n)
    if unmet:
        print(f"warning: {epoch}{unmet} did not meet the stopping rule "
              f"(tol={fit_config.tol:g} relative to the total sample weight, "
              f"max_iter={fit_config.max_iter})", file=sys.stderr)
    return diagnostics


def cmd_fit_quantile(args, stages):
    cfg = _resolve(args, FIT_DEFAULTS)
    fit_config = _fit_config(cfg)
    dataset = load_dataset(args.data)
    bases = _load_bases(args.base_model) if args.base_model else None
    _check_fit_size(cfg, dataset)
    grid = _grid(cfg)
    stages("load")
    if bases is None:
        check_class_rows(dataset)
        bases = fit_base_classifiers(dataset, fit_config)
    stages("base_fit")

    model = fit_quantile_model(dataset, bases, grid=grid, fit_config=fit_config)
    stages("quantile_fit")

    diagnostics = _check_fit(model, fit_config)
    mono = monotonicity_violation_rate(model, dataset.features, dataset.weights)
    stages("diagnostics")
    save_model(model, args.out)
    _save_bases(os.path.join(args.out, "base.json"), bases)
    _write_json(os.path.join(args.out, "manifest.json"), {
        "schema_version": 3,
        "grid": {"n_anchor": cfg["anchors"], "n_dense": cfg["dense"],
                 "tau_min": cfg["tau_min"], "tau_max": cfg["tau_max"]},
        "data": {"n": dataset.n, "d": dataset.d, "k": dataset.k},
        "monotonicity_violation_rate": mono.aggregate,
        **diagnostics,
    })
    stages("save")


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

    ref_base = _base_logits(bases, train.features, model.class_count)
    query_base = _base_logits(bases, queries, model.class_count)
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
        ["detector", "dataset", "auroc", "tnr_at_tpr95", "detection_accuracy"],
        *([det, dataset_name, m["auroc"], m["tnr_at_tpr95"], m["detection_accuracy"]]
          for det, m in results.items())])


def cmd_calib_eval(args, stages):
    # parsed here, not by argparse, so that bad text exits 2 like any input
    severities = args.severities = _parse_floats(args.severities)
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


def cmd_shift_match(args, stages):
    # only echoed to report.csv, where an empty cell means "not given"
    if args.true_angle is not None and not math.isfinite(args.true_angle):
        raise ValidationError(f"--true-angle must be finite, got {args.true_angle}")
    data_t0 = load_dataset(args.data_t0)
    data_t1 = load_dataset(args.data_t1)
    # the search's input rules and the size bound at the default grid (t1
    # has t0's shape), checked before either model is fitted
    _check_search_inputs(args.family, (data_t0.d, data_t0.k), (data_t1.d, data_t1.k))
    _check_fit_size(FIT_DEFAULTS, data_t0)
    check_class_rows(data_t0)
    check_class_rows(data_t1)
    stages("load")
    fit_config = FitConfig()  # shift-match fits with the library defaults
    grid, fits = None, {}
    for epoch, data in (("t0", data_t0), ("t1", data_t1)):
        bases = fit_base_classifiers(data, fit_config)
        model = fit_quantile_model(data, bases, grid=grid, fit_config=fit_config)
        fits[epoch] = model, _check_fit(model, fit_config, f"{epoch}: ")
        grid = model.grid  # the t1 model is fitted on t0's grid
        stages(f"fit_{epoch}")
    (model_t0, fit_t0), (model_t1, fit_t1) = fits.values()
    est = estimate_transform(args.family, model_t0, model_t1, data_t1.features)
    if not est.converged:
        print(f"warning: the affine search did not meet its stopping rule (a relative "
              f"decrease below {_MIN_DECREASE:g}) within {est.search_steps} rounds",
              file=sys.stderr)
    stages("estimate")

    obj = est.transform.to_json_dict()
    obj.update({"objective": est.objective,
                "identifiable": est.identifiable,
                "near_ties": [t.to_json_dict() for t in est.near_ties],
                "search_steps": est.search_steps,
                "fit_t0": fit_t0, "fit_t1": fit_t1})
    _write_json(os.path.join(args.out, "estimate.json"), obj)
    _write_csv(os.path.join(args.out, "report.csv"), [
        ["true_angle", "estimated_angle", "objective"],
        [args.true_angle,
         math.degrees(est.transform.angle) if args.family == "orthogonal-2d" else None,
         est.objective]])
    stages("save")


def _add_param_flags(parser, defaults):
    """One ``--key`` flag per parameter, typed by its default (a text default
    takes the text as given). An unset flag stays None for ``_resolve``."""
    for key, default in defaults.items():
        parser.add_argument("--" + key.replace("_", "-"),
                            type=None if isinstance(default, str) else type(default))


def _add_inputs(parser, *flags):
    """Required input path flags, read as absolute paths: the run's echo
    holds them so."""
    for flag in flags:
        parser.add_argument(flag, required=True, type=os.path.abspath)


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
    _add_inputs(p, "--data")
    p.add_argument("--out", required=True)
    p.add_argument("--base-model", type=os.path.abspath)
    p.add_argument("--config")
    _add_param_flags(p, FIT_DEFAULTS)
    p.set_defaults(func=cmd_fit_quantile)

    p = sub.add_parser("ood-eval", help="baseline vs quantile-representation OOD detection")
    _add_inputs(p, "--model", "--train", "--test-id", "--test-ood")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_LOF_K)
    p.set_defaults(func=cmd_ood_eval)

    p = sub.add_parser("calib-eval", help="accuracy/ECE corruption sweep")
    _add_inputs(p, "--model", "--data")
    p.add_argument("--out", required=True)
    p.add_argument("--severities", default="0,0.25,0.5,1.0,1.5,2.0")
    p.add_argument("--corruption", default="gaussian-noise", choices=CORRUPTIONS)
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--binning", default="quantile", choices=["equal-width", "quantile"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calib_eval)

    p = sub.add_parser("xcorr", help="feature cross-correlation diagnostic")
    _add_inputs(p, "--model", "--data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_xcorr)

    p = sub.add_parser("shift-match", help="estimate a feature transform between epochs")
    _add_inputs(p, "--data-t0", "--data-t1")
    p.add_argument("--out", required=True)
    p.add_argument("--family", default="orthogonal-2d", choices=["orthogonal-2d", "affine"])
    p.add_argument("--true-angle", type=float)
    p.set_defaults(func=cmd_shift_match)
    return parser


def main(argv=None):
    """Run one subcommand under the run protocol. A subcommand closes its
    stages on the clock it is handed and leaves in ``args`` the values it
    ran with, which ``resolved_config.json`` echoes by one rule
    (``_echo``); only a run that succeeds writes that file and
    ``run_meta.json``."""
    args = build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        stages = _Stages()
        args.func(args, stages)
        _write_json(os.path.join(args.out, "resolved_config.json"), _echo(args))
        _write_json(os.path.join(args.out, "run_meta.json"), {
            "timings_sec": {**stages.timings, "total": time.perf_counter() - stages.start},
            # ru_maxrss is in KiB on Linux (in bytes on macOS)
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        return 0
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuantrepError, OSError, json.JSONDecodeError, MemoryError, ValueError) as exc:
        # a size flag past what numpy can allocate (MemoryError) or index
        # ("Maximum allowed size/dimension exceeded"); other ValueErrors are faults
        if type(exc) is ValueError and not str(exc).startswith("Maximum allowed "):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
