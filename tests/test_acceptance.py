"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured quantities; run with
``pytest -s tests/test_acceptance.py`` to see them. Tolerances are fixed
here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from quantrep import (
    Dataset,
    FitConfig,
    LatentModelSpec,
    LatentOracle,
    QuantileGrid,
    Transform,
    auroc,
    corruption_sweep,
    detection_accuracy,
    duality_residual,
    ece,
    estimate_transform,
    fit_quantile_model,
    fit_sigmoid_mae,
    gen_gaussian_pair,
    gen_latent_binary,
    gen_two_moons,
    interpolate_coefficients,
    lof_scores,
    matching_objective,
    model_class_probabilities,
    monotonicity_violation_rate,
    represent,
    simultaneous_loss,
)
from quantrep.cli import main as cli_main
from quantrep.quantile import fit_base_classifiers

from oracles import (
    auroc_pairwise,
    detection_accuracy_sweep,
    exhaustive_threshold_optimum,
    lof_bruteforce,
)

A6_CENTERS = np.array([[0.0, 0.0], [1.0, 1.0]])
A6_STDS = np.array([[0.1, 0.3], [0.3, 0.11]])
MOONS_NOISE = 0.25
MOONS_OOD_CENTER = (8.28, 1.99)   # far out along the decision-boundary direction


def _report(num, text):
    print(f"\nPASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def latent_run():
    """Latent-model data with the generating oracle as base classifier,
    quantile model at default grid."""
    spec = LatentModelSpec(np.array([1.0, -0.7]), g_intercept=0.1)
    oracle = LatentOracle(spec)
    train = gen_latent_binary(spec, 4000, seed=10)
    test = gen_latent_binary(spec, 50_000, seed=11)
    t0 = time.perf_counter()
    model = fit_quantile_model(train, oracle, fit_config=FitConfig())
    fit_seconds = time.perf_counter() - t0
    return {"spec": spec, "oracle": oracle, "train": train, "test": test,
            "model": model, "fit_seconds": fit_seconds}


def _separable_1d(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    while True:
        x = np.sort(rng.uniform(-2, 2, n))
        if n == 1 or np.diff(x).min() > 0.15:
            break
    cut = int(rng.integers(0, n + 1))
    y = np.zeros(n, dtype=int)
    if rng.integers(0, 2):
        y[cut:] = 1
    else:
        y[:cut] = 1
    return x[:, None], y


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_duality_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 1_000_000
    y_hat = rng.uniform(1e-9, 1 - 1e-9, n)
    y = rng.integers(0, 2, n).astype(float)
    tau = rng.uniform(1e-9, 1 - 1e-9, n)
    worst = float(np.abs(duality_residual(y_hat, y, tau)).max())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report(1, f"duality residual max {worst:.2e} over 1e6 triples "
               f"({elapsed:.2f}s < 5s)")


def test_c02_calibrated_probabilities_at_scale(latent_run):
    t0 = time.perf_counter()
    test = latent_run["test"]
    probs = model_class_probabilities(latent_run["model"], test.features)
    value, _ = ece(probs[:, 1], (test.labels == 1).astype(float),
                   m=15, binning="equal-width")
    elapsed = latent_run["fit_seconds"] + (time.perf_counter() - t0)
    assert value < 0.02
    assert elapsed < 120.0
    _report(2, f"oracle-base quantile probabilities: ECE {value:.4f} < 0.02 "
               f"(15 equal-width bins, 50k samples, {elapsed:.1f}s < 120s)")


def test_c03_small_instance_optimality():
    t0 = time.perf_counter()
    grid = QuantileGrid()
    worst_gap = 0.0
    for seed in range(20):
        x, y = _separable_1d(seed)
        ds = Dataset(x, y, 2)
        base = fit_sigmoid_mae(x, y, FitConfig(max_iter=3000, tol=1e-12, seed=seed))
        model = fit_quantile_model(ds, base, grid=grid,
                                   fit_config=FitConfig(max_iter=2000))
        logits = represent(model, x).values[:, 1, :]
        alg = simultaneous_loss(logits, y.astype(float), grid, mode="indicator")
        adaptive, fixed, members = exhaustive_threshold_optimum(x[:, 0], y, grid.dense)
        gap = abs(alg - adaptive)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9, f"seed {seed}: gap {gap}"
        assert all(alg <= m + 1e-9 for m in members)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"20 random datasets (n<=8, d=1): worst |loss - optimum| "
               f"{worst_gap:.2e} <= 1e-9 ({elapsed:.1f}s < 60s)")


def _moons_detectors(seed, k=20):
    train_id, _ = gen_two_moons(250, MOONS_NOISE, 10, MOONS_OOD_CENTER, seed=seed)
    test_id, test_ood = gen_two_moons(150, MOONS_NOISE, 120, MOONS_OOD_CENTER,
                                      seed=seed + 1000)
    fc = FitConfig()
    base = fit_base_classifiers(train_id, fc)[0]
    model = fit_quantile_model(train_id, base, fit_config=fc)
    queries = np.vstack([test_id.features, test_ood.features])
    is_id = np.concatenate([np.ones(test_id.n, bool), np.zeros(test_ood.n, bool)])

    ref_rep = represent(model, train_id.features).flattened()
    q_rep = represent(model, queries).flattened()
    quant = auroc(lof_scores(ref_rep, q_rep, k=k), is_id)

    z_ref = base.decision(train_id.features)
    z_q = base.decision(queries)
    base_scores = lof_scores(np.column_stack([-z_ref, z_ref]),
                             np.column_stack([-z_q, z_q]), k=k)
    return quant, auroc(base_scores, is_id)


def test_c04_representation_beats_base_logits():
    margins = []
    for seed in range(5):
        quant, base = _moons_detectors(seed)
        margins.append(quant - base)
        assert quant >= base + 0.05, (
            f"seed {seed}: quantile {quant:.3f} vs base {base:.3f}")
    _report(4, "two-moons + distant OOD, 5 seeds: AUROC margins "
               f"{[round(m, 3) for m in margins]} all >= 0.05")


def test_c05_lof_matches_bruteforce():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        ref = rng.normal(size=(50, 3)) * rng.uniform(0.5, 2.0)
        queries = rng.normal(size=(15, 3)) * 1.5
        k = int(rng.integers(3, 10))
        got = -lof_scores(ref, queries, k=k)
        want = lof_bruteforce(ref, queries, k=k)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-9
    _report(5, f"LOF vs direct-definition brute force: max |diff| {worst:.2e} "
               "over 20 random 50-point instances")


def test_c06_metric_oracles():
    rng = np.random.default_rng(8)
    worst_auroc, worst_acc = 0.0, 0.0
    for trial in range(6):
        scores = rng.normal(size=200)
        if trial % 2:
            scores = np.round(scores, 1)  # exercise tie handling
        is_id = rng.integers(0, 2, 200).astype(bool)
        if is_id.all() or not is_id.any():
            is_id[0] = ~is_id[0]
        worst_auroc = max(worst_auroc,
                          abs(auroc(scores, is_id) - auroc_pairwise(scores, is_id)))
        worst_acc = max(worst_acc,
                        abs(detection_accuracy(scores, is_id)
                            - detection_accuracy_sweep(scores, is_id)))
    assert worst_auroc <= 1e-12
    assert worst_acc <= 1e-12
    _report(6, f"AUROC vs pairwise oracle {worst_auroc:.2e}, detection accuracy "
               f"vs exhaustive sweep {worst_acc:.2e} (200-point inputs)")


def test_c07_interpolation_exactness():
    anchors = np.linspace(0.01, 0.99, 100)
    dense = np.linspace(0.01, 0.99, 1000)
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(100, 5))
    at_anchors = interpolate_coefficients(anchors, rows, anchors)
    anchor_err = float(np.abs(at_anchors - rows).max())

    slope = rng.normal(size=5)
    intercept = rng.normal(size=5)
    linear_rows = anchors[:, None] * slope + intercept
    out = interpolate_coefficients(anchors, linear_rows, dense)
    linear_err = float(np.abs(out - (dense[:, None] * slope + intercept)).max())

    assert anchor_err <= 1e-9
    assert linear_err <= 1e-10
    _report(7, f"interpolation exact at anchors ({anchor_err:.2e} <= 1e-9), "
               f"linear trajectories reproduced ({linear_err:.2e} <= 1e-10)")


def test_c08_rotation_recovery_and_tie_detection():
    fc = FitConfig(l2_reg=2.0)
    errors = []
    for seed in range(5):
        data_t0 = gen_gaussian_pair(A6_CENTERS, A6_STDS, 400, seed=seed)
        model_t0 = fit_quantile_model(data_t0, fit_base_classifiers(data_t0, fc),
                                      fit_config=fc)
        rng = np.random.default_rng(500 + seed)
        true_angle = float(rng.uniform(0, 2 * math.pi))
        truth = Transform("orthogonal-2d", angle=true_angle)
        fresh = gen_gaussian_pair(A6_CENTERS, A6_STDS, 400, seed=1000 + seed)
        data_t1 = Dataset(truth.apply(fresh.features), fresh.labels, 2)
        model_t1 = fit_quantile_model(data_t1, fit_base_classifiers(data_t1, fc),
                                      grid=model_t0.grid, fit_config=fc)
        est = estimate_transform("orthogonal-2d", model_t0, model_t1, data_t1.features)

        def ang_err(a, b):
            d = (a - b) % (2 * math.pi)
            return math.degrees(min(d, 2 * math.pi - d))

        if est.transform.reflect:
            # the axis-swap reflection is a near-symmetry of this setup
            err = ang_err(est.transform.angle, math.pi / 2 - true_angle)
        else:
            err = ang_err(est.transform.angle, true_angle)
        errors.append(err)
        assert err <= 5.0, f"seed {seed}: angular error {err:.2f} deg"

    # exactly point-symmetric construction: objectives at +I and -I tie
    rng = np.random.default_rng(77)
    a = np.array([1.0, 1.0]) + rng.normal(0, 0.25, (60, 2))
    b = np.array([1.0, -1.0]) + rng.normal(0, 0.25, (60, 2))
    d0 = Dataset(np.vstack([a, -a, b, -b]),
                 np.concatenate([np.zeros(120, int), np.ones(120, int)]), 2)
    m0 = fit_quantile_model(d0, fit_base_classifiers(d0, FitConfig()),
                            fit_config=FitConfig())
    a2 = np.array([1.0, 1.0]) + rng.normal(0, 0.25, (60, 2))
    b2 = np.array([1.0, -1.0]) + rng.normal(0, 0.25, (60, 2))
    d1 = Dataset(-np.vstack([a2, -a2, b2, -b2]), d0.labels, 2)
    m1 = fit_quantile_model(d1, fit_base_classifiers(d1, FitConfig()),
                            fit_config=FitConfig())
    obj_pos = matching_objective(m0, m1, Transform("orthogonal-2d", angle=0.0),
                                 d1.features)
    obj_neg = matching_objective(m0, m1, Transform("orthogonal-2d", angle=math.pi),
                                 d1.features)
    tie_gap = abs(obj_pos - obj_neg)
    assert tie_gap <= 1e-6
    est = estimate_transform("orthogonal-2d", m0, m1, d1.features)
    assert not est.identifiable and len(est.near_ties) > 0
    _report(8, f"rotation recovered within 5 deg on 5 seeds (errors "
               f"{[round(e, 2) for e in errors]}); symmetric construction tie "
               f"gap {tie_gap:.2e} <= 1e-6 with {len(est.near_ties)} near-ties reported")


def test_c09_posthoc_corrections_property(latent_run):
    test = latent_run["test"]
    sub = Dataset(test.features[:20000], test.labels[:20000], 2)
    severities = [0.0, 0.5, 1.0, 1.5, 2.0]
    report = corruption_sweep(latent_run["model"], latent_run["oracle"], sub,
                              "gaussian-noise", severities, seed=3)
    _, _, quant = report.series("QUANT")
    _, _, iso = report.series("QUANT+isotonic")
    _, _, platt = report.series("QUANT+platt")

    assert iso[0] <= quant[0] + 1e-9          # clean isotonic correction
    assert platt[0] <= 0.05                   # clean Platt stays bounded
    assert iso[-1] >= 0.8 * quant[-1]         # corrections do not fix corruption
    assert platt[-1] >= 0.8 * quant[-1]
    _report(9, f"clean isotonic ECE {iso[0]:.2e} <= uncorrected {quant[0]:.4f} "
               f"+ 1e-9; at top severity corrected/uncorrected ratios "
               f"iso {iso[-1]/quant[-1]:.3f}, platt {platt[-1]/quant[-1]:.3f} >= 0.8")


def test_c10_monotonicity_and_median_agreement():
    worst_rate, worst_agree = 0.0, 1.0
    for seed in (101, 102, 103):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, 300)
        cut = float(rng.uniform(-1, 1))
        x = x[np.abs(x - cut) > 0.15][:, None]
        ds = Dataset(x, (x[:, 0] > cut).astype(int), 2)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, fit_config=FitConfig())
        rate = monotonicity_violation_rate(model, x).aggregate
        agree = model.tasks[0].median_agreement
        worst_rate = max(worst_rate, rate)
        worst_agree = min(worst_agree, agree)
        assert rate < 0.01
        assert agree >= 0.99
    _report(10, f"separable 1-d suite: worst monotonicity violation rate "
                f"{worst_rate:.4f} < 0.01, worst median agreement "
                f"{worst_agree:.4f} >= 0.99")


def _run_twice(tmp_path, name, args_fn):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}_{tag}"
        rc = cli_main(args_fn(str(out)))
        assert rc == 0, f"{name} run failed"
        outs.append(out)
    mismatched = []
    for path_a in sorted(outs[0].iterdir()):
        if path_a.name == "run_meta.json":
            continue  # wall-clock timings live here by design
        path_b = outs[1] / path_a.name
        if path_a.read_bytes() != path_b.read_bytes():
            mismatched.append(path_a.name)
    assert not mismatched, f"{name}: non-deterministic files {mismatched}"
    return [p.name for p in sorted(outs[0].iterdir()) if p.name != "run_meta.json"]


def test_c11_cli_determinism(tmp_path):
    checked = {}

    checked["gen-data"] = _run_twice(
        tmp_path, "gen",
        lambda out: ["gen-data", "two-moons", "--out", out,
                     "--n-per-class", "60", "--ood-n", "30", "--seed", "3"])
    data = str(tmp_path / "gen_a" / "id.csv")
    ood = str(tmp_path / "gen_a" / "ood.csv")

    checked["fit-quantile"] = _run_twice(
        tmp_path, "fit",
        lambda out: ["fit-quantile", "--data", data, "--out", out,
                     "--anchors", "12", "--dense", "60"])
    model = str(tmp_path / "fit_a")

    checked["ood-eval"] = _run_twice(
        tmp_path, "ood",
        lambda out: ["ood-eval", "--model", model, "--train", data,
                     "--test-id", data, "--test-ood", ood,
                     "--out", out, "--k", "10"])

    checked["calib-eval"] = _run_twice(
        tmp_path, "calib",
        lambda out: ["calib-eval", "--model", model, "--data", data,
                     "--out", out, "--severities", "0,0.5,1.0", "--seed", "2"])

    checked["xcorr"] = _run_twice(
        tmp_path, "xcorr",
        lambda out: ["xcorr", "--model", model, "--data", data, "--out", out])

    cli_main(["gen-data", "gaussian-pair", "--out", str(tmp_path / "t1"),
              "--n-per-class", "120", "--seed", "5"])
    t0csv = str(tmp_path / "gen_a" / "id.csv")
    t1csv = str(tmp_path / "t1" / "data.csv")
    checked["shift-match"] = _run_twice(
        tmp_path, "shift",
        lambda out: ["shift-match",
                     "--data-t0", t1csv, "--data-t1", t1csv,
                     "--out", out])

    total = sum(len(v) for v in checked.values())
    _report(11, f"all 6 subcommands byte-identical across reruns "
                f"({total} result files compared; run_meta.json timings excluded)")
