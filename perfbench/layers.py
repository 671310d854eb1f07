"""Per-layer metrics from the spans and counters of one traced pass.

A span's self time is its duration minus the part of its interval that
its direct child spans cover. The driver adds one span per child process
(spawn to reap), so the self times of everything under a pass sum to the
pass's CLI wall time: the module layers, the interpreter's own start and
exit (``interpreter.self_s``) and the wrapper installation
(``trace.install_s``).
"""

import statistics

LAYERS = ("cli", "datasets", "linear", "quantile", "ood", "calibration", "shift")

TOTAL_S = ("linear.fit_weighted_logistic", "quantile.interpolate_coefficients",
           "quantile.represent", "quantile.save_model", "quantile.load_model",
           "ood.lof_scores", "ood.ood_metrics", "calibration.model_class_probabilities",
           "calibration.ece", "calibration.platt_fit", "calibration.isotonic_fit",
           "datasets.load_dataset", "datasets.save_dataset")
CALLS = ("linear.fit_weighted_logistic", "ood.lof_scores")
SELF_S = ("quantile.fit_quantile_model", "shift.estimate_transform",
          "calibration.corruption_sweep", "cli.gen-data", "cli.fit-quantile",
          "cli.ood-eval", "cli.calib-eval", "cli.xcorr", "cli.shift-match")
# counters kept by the child: hot-call counts, and computed counts
COUNTS = {
    "linear.logistic_gradient.calls": "linear.logistic_gradient.calls",
    "linear.logistic_objective.calls": "linear.logistic_objective.calls",
    "quantile.logits.calls": "quantile.logits.calls",
    "shift.objective_evals": "shift.apply_inverse.calls",
    "linear.nonconverged": "linear.nonconverged",
    "linear.degenerate": "linear.degenerate",
    "quantile.represent.bytes": "quantile.represent.bytes",
    "ood.lof_scores.dist_bytes": "ood.lof_scores.dist_bytes",
    "datasets.load_dataset.rows": "datasets.load_dataset.rows",
}
# counts that are derived from shapes or call counts rather than measured
COMPUTED = ("quantile.represent.bytes", "ood.lof_scores.dist_bytes",
            "shift.objective_evals", "linear.logistic_gradient.calls",
            "linear.logistic_objective.calls")
# metrics taken from the traced set-up rather than the traced passes
FROM_SETUP = ("datasets.save_dataset.s", "cli.gen-data.self_s")


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def metric_names():
    names = [f"{n}.s" for n in TOTAL_S] + [f"{n}.calls" for n in CALLS]
    names += [f"{n}.self_s" for n in SELF_S] + list(COUNTS)
    names += ["linear.fit_weighted_logistic.p50_ms", "linear.fit_weighted_logistic.p90_ms",
              "quantile.logits.s", "cli.import_s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["interpreter.self_s", "trace.install_s", "trace.wall_s", "trace.spans",
              "trace.overhead_s"]
    return names


def self_times(spans):
    """Map span id -> self time in ns."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def group_metrics(spans, counts, timers_ns):
    """Per-layer metrics of one traced pass or set-up (spans of all its processes)."""
    selfs = self_times(spans)
    total, own, durations = {}, {}, {}
    for sid, name, start, end, _, _ in spans:
        total[name] = total.get(name, 0) + (end - start)
        own[name] = own.get(name, 0) + selfs[sid]
        durations.setdefault(name, []).append((end - start) / 1e6)
    m = {f"{n}.s": total.get(n, 0) / 1e9 for n in TOTAL_S}
    m.update({f"{n}.calls": len(durations.get(n, ())) for n in CALLS})
    m.update({f"{n}.self_s": own.get(n, 0) / 1e9 for n in SELF_S})
    m.update({k: counts.get(src, 0) for k, src in COUNTS.items()})
    fits = durations.get("linear.fit_weighted_logistic", [])
    m["linear.fit_weighted_logistic.p50_ms"] = _percentile(fits, 50)
    m["linear.fit_weighted_logistic.p90_ms"] = _percentile(fits, 90)
    m["quantile.logits.s"] = timers_ns.get("quantile.logits", 0) / 1e9
    m["cli.import_s"] = total.get("cli.import", 0) / 1e9
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for n, v in own.items()
                                   if n.startswith(layer + ".")) / 1e9
    m["interpreter.self_s"] = sum(v for n, v in own.items()
                                  if n.startswith("process.")) / 1e9
    m["trace.install_s"] = own.get("trace.install", 0) / 1e9
    m["trace.wall_s"] = sum(v for n, v in total.items() if n.startswith("process.")) / 1e9
    m["trace.spans"] = len(spans)
    return m


def combine(pass_groups, setup_groups, overhead_s):
    """Median over the traced passes (set-up metrics over the traced set-ups)."""
    out = {}
    for name in metric_names():
        if name == "trace.overhead_s":
            out[name] = overhead_s
            continue
        groups = setup_groups if name in FROM_SETUP else pass_groups
        out[name] = statistics.median(g[name] for g in groups)
    return {name: {"value": value, "unit": _unit(name)} for name, value in out.items()}
