"""Quantile representations built from an arbitrary base classifier.

The construction rests on the identity between the asymmetric check loss
of a probability prediction at quantile tau and the same loss read with
prediction and quantile swapped: a classifier predicting probability p is
simultaneously the quantile-(1-p) classifier predicting 0.5. Thresholding
the base classifier's probabilities therefore yields the pseudo-labels
that the classifier at any other quantile must fit, with no constraint on
how the base classifier itself was trained.

A fitted model holds, per one-vs-rest task, 100 anchor classifiers on a
tau grid plus a dense coefficient field obtained by natural cubic spline
interpolation. Logits (not probabilities) are stored throughout, and all
stored classifiers carry unit L2 coefficient norm so their logits are
comparable.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import FitError, QuantrepError, ValidationError
from .linear import FitConfig, LinearClassifier, fit_weighted_logistic, normalize_l2

_MONO_TOL = 1e-9
_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# losses and the quantile/probability duality
# ---------------------------------------------------------------------------

def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


def _maybe_scalar(out, *inputs):
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def check_loss(y_hat, y, tau):
    """Asymmetric absolute (pinball) loss.

    tau * (y - y_hat) when the residual is positive, (1 - tau) * (y_hat - y)
    otherwise. At tau = 0.5 the sample mean equals half the MAE.
    """
    y_hat_a, y_a, tau_a = map(_as_float_array, (y_hat, y, tau))
    if np.any(tau_a <= 0) or np.any(tau_a >= 1):
        raise ValidationError("tau must lie in the open interval (0,1)")
    resid = y_a - y_hat_a
    out = np.where(resid > 0, tau_a * resid, (1.0 - tau_a) * (-resid))
    return _maybe_scalar(out, y_hat, y, tau)


def binary_check_loss(y_hat, y, tau):
    """Check loss specialized to binary targets: tau*(1-y_hat) if y=1,
    (1-tau)*y_hat if y=0."""
    y_hat_a, y_a, tau_a = map(_as_float_array, (y_hat, y, tau))
    if np.any(tau_a <= 0) or np.any(tau_a >= 1):
        raise ValidationError("tau must lie in the open interval (0,1)")
    if np.any(y_hat_a < 0) or np.any(y_hat_a > 1):
        raise ValidationError("y_hat must lie in [0,1]")
    if not np.all((y_a == 0) | (y_a == 1)):
        raise ValidationError("y must be binary 0/1")
    out = np.where(y_a == 1, tau_a * (1.0 - y_hat_a), (1.0 - tau_a) * y_hat_a)
    return _maybe_scalar(out, y_hat, y, tau)


def duality_residual(y_hat, y, tau):
    """rho(y_hat, y; tau) - rho(1-tau, y; 1-y_hat); identically zero."""
    y_hat_a, tau_a = _as_float_array(y_hat), _as_float_array(tau)
    if np.any(y_hat_a <= 0) or np.any(y_hat_a >= 1):
        raise ValidationError("y_hat must lie in the open interval (0,1)")
    out = binary_check_loss(y_hat_a, y, tau_a) - binary_check_loss(
        1.0 - tau_a, y, 1.0 - y_hat_a)
    return _maybe_scalar(out, y_hat, y, tau)


def simultaneous_loss(predictions, labels, grid, mode="probability"):
    """Mean check loss over samples and the dense tau grid.

    ``predictions`` is an (n, n_tau) matrix aligned with ``grid.dense``.
    In probability mode entries must lie in [0,1]; in indicator mode they
    are raw logits, thresholded to I[logit >= 0] before the loss.
    """
    predictions = _as_float_array(predictions)
    labels = _as_float_array(labels)
    taus = grid.dense if isinstance(grid, QuantileGrid) else _as_float_array(grid)
    if taus.size == 0:
        raise ValidationError("tau grid must be nonempty")
    if predictions.ndim != 2 or predictions.shape != (labels.shape[0], taus.shape[0]):
        raise ValidationError("predictions must have shape (n_samples, n_tau)")
    if mode == "probability":
        if np.any(predictions < 0) or np.any(predictions > 1):
            raise ValidationError("probability-mode predictions must lie in [0,1]")
        preds = predictions
    elif mode == "indicator":
        preds = (predictions >= 0).astype(np.float64)
    else:
        raise ValidationError(f"unknown mode: {mode!r}")
    return float(np.mean(check_loss(preds, labels[:, None], taus[None, :])))


def modified_labels(base_probs, tau):
    """Pseudo-labels I[p > 1 - tau]; nondecreasing in tau for fixed p."""
    base_probs = _as_float_array(base_probs)
    if np.any(base_probs < 0) or np.any(base_probs > 1):
        raise ValidationError("base probabilities must lie in [0,1]")
    return (base_probs > 1.0 - tau).astype(np.int64)


def class_balance_weights(labels01, sample_weights=None):
    """Per-sample weights w_i * W/(2*W_c), with W the total and W_c the
    class-c total of the sample weights (unit weights if not given), so
    both classes carry weight W/2. A single class keeps the sample weights.
    """
    labels01 = np.asarray(labels01)
    n = labels01.shape[0]
    if n == 0:
        raise ValidationError("need at least one sample")
    w = np.ones(n) if sample_weights is None else _as_float_array(sample_weights)
    pos = labels01 == 1
    w1 = float(np.sum(w[pos]))
    w0 = float(np.sum(w[~pos]))
    if w0 == 0 or w1 == 0:
        return w
    total = w0 + w1
    return w * np.where(pos, total / (2.0 * w1), total / (2.0 * w0))


# ---------------------------------------------------------------------------
# tau grids and cubic interpolation
# ---------------------------------------------------------------------------

@dataclass
class QuantileGrid:
    """Anchor quantiles (fitted) and the dense quantiles (interpolated)."""

    anchors: np.ndarray = field(default=None)
    dense: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.anchors is None:
            self.anchors = np.linspace(0.01, 0.99, 100)
        if self.dense is None:
            self.dense = np.linspace(0.01, 0.99, 1000)
        self.anchors = _as_float_array(self.anchors)
        self.dense = _as_float_array(self.dense)
        for name, arr in (("anchors", self.anchors), ("dense", self.dense)):
            if arr.ndim != 1 or arr.size < 2:
                raise ValidationError(f"{name} must be a 1-d grid with >= 2 points")
            if np.any(arr <= 0) or np.any(arr >= 1):
                raise ValidationError(f"{name} must lie in the open interval (0,1)")
            if np.any(np.diff(arr) <= 0):
                raise ValidationError(f"{name} must be strictly increasing")
        if self.dense[0] < self.anchors[0] or self.dense[-1] > self.anchors[-1]:
            raise ValidationError("dense grid must lie within the anchor range")

    @property
    def n_anchor(self):
        return self.anchors.shape[0]

    @property
    def n_dense(self):
        return self.dense.shape[0]


def _natural_spline_second_derivs(x, y):
    """Second derivatives of the natural cubic spline through (x, y[:, j])."""
    n = x.shape[0]
    m = np.zeros_like(y)
    if n < 3:
        return m
    h = np.diff(x)
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None])
    # tridiagonal system for interior second derivatives, natural ends = 0
    size = n - 2
    ab = np.zeros((3, size))
    ab[0, 1:] = h[1:-1]                      # superdiagonal
    ab[1, :] = 2.0 * (h[:-1] + h[1:])        # diagonal
    ab[2, :-1] = h[1:-1]                     # subdiagonal
    m[1:-1] = solve_banded((1, 1), ab, rhs)
    return m


def interpolate_coefficients(anchor_taus, anchor_rows, dense_taus):
    """Natural cubic spline per coefficient column, exact at the anchors.

    ``anchor_rows`` has one row per anchor tau. Dense taus outside the
    anchor range raise (no extrapolation).
    """
    x = _as_float_array(anchor_taus)
    y = _as_float_array(anchor_rows)
    t = _as_float_array(dense_taus)
    if y.ndim == 1:
        y = y[:, None]
    if x.ndim != 1 or x.size < 4:
        raise ValidationError("need at least 4 anchors")
    if np.any(np.diff(x) <= 0):
        raise ValidationError("anchor taus must be strictly increasing")
    if y.shape[0] != x.shape[0]:
        raise ValidationError("one coefficient row per anchor required")
    if np.any(t < x[0]) or np.any(t > x[-1]):
        raise ValidationError("dense taus outside the anchor range (no extrapolation)")

    m = _natural_spline_second_derivs(x, y)
    h = np.diff(x)
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    dt = (t - x[idx])[:, None]
    hi = h[idx][:, None]
    yi, yj = y[idx], y[idx + 1]
    mi, mj = m[idx], m[idx + 1]
    slope = (yj - yi) / hi - hi * (2.0 * mi + mj) / 6.0
    return yi + dt * slope + dt**2 * mi / 2.0 + dt**3 * (mj - mi) / (6.0 * hi)


# ---------------------------------------------------------------------------
# the fitted model
# ---------------------------------------------------------------------------

@dataclass
class QuantileTask:
    """One one-vs-rest binary task: anchors plus the dense coefficient field."""

    class_id: int
    anchor_taus: np.ndarray
    anchor_classifiers: list
    dense_coefficients: np.ndarray  # (n_dense, d+1)
    median_agreement: float = float("nan")

    def anchor_coefficients(self):
        return np.stack([c.coefficients() for c in self.anchor_classifiers])

    def logits(self, features):
        features = _as_float_array(features)
        d = self.dense_coefficients.shape[1] - 1
        if features.shape[1] != d:
            raise ValidationError(
                f"feature dimension {features.shape[1]} does not match model "
                f"dimension {d}")
        # single GEMM with a padded ones column; an order of magnitude
        # faster than matmul-plus-broadcast-add for small d
        padded = np.column_stack([features, np.ones(features.shape[0])])
        return padded @ self.dense_coefficients.T


@dataclass
class QuantileModel:
    """Per-class anchor classifiers over the tau grid plus the interpolated
    dense coefficient field.

    For binary problems a single task (the positive class) is stored; the
    class-0 field is its negated, tau-reflected mirror.
    """

    grid: QuantileGrid
    tasks: list
    class_count: int
    feature_dim: int

    @property
    def single_task_binary(self):
        return self.class_count == 2 and len(self.tasks) == 1


@dataclass
class QuantileRepresentation:
    """Logit tensor of shape (n_samples, class_count, n_dense)."""

    values: np.ndarray
    grid: QuantileGrid

    @property
    def n(self):
        return self.values.shape[0]

    def flattened(self):
        """(n, class_count * n_dense) view used as detector input."""
        return self.values.reshape(self.n, -1)


def _resolve_bases(base, k):
    if hasattr(base, "predict_proba"):
        bases = [base]
    else:
        bases = list(base)
    if len(bases) == 1 and k == 2:
        return bases, [1], True
    if len(bases) == k:
        return bases, list(range(k)), False
    raise ValidationError(
        f"need 1 base classifier (binary) or {k} one-vs-rest base classifiers, "
        f"got {len(bases)}")


def fit_base_classifiers(dataset, fit_config: FitConfig | None = None):
    """Plain logistic base classifiers: a single binary task for k=2,
    one-vs-rest otherwise. The dataset's sample weights apply; no class
    weighting, which enters later, on the per-quantile pseudo-datasets."""
    fit_config = fit_config or FitConfig()
    positives = [1] if dataset.k == 2 else range(dataset.k)
    return [fit_weighted_logistic(dataset.features,
                                  (dataset.labels == c).astype(np.int64),
                                  dataset.weights, config=fit_config)
            for c in positives]


def fit_quantile_model(dataset, base, grid=None, fit_config=None) -> QuantileModel:
    """Fit anchor classifiers for every (class, anchor tau) pseudo-dataset.

    Per class and anchor tau: threshold the base one-vs-rest probabilities
    at 1 - tau to form pseudo-labels, weight them inversely to pseudo-class
    weight (scaling the dataset's sample weights, if any), fit a weighted
    logistic classifier, and normalize it. The dense coefficient field then
    comes from cubic interpolation across anchors.
    Deterministic for a fixed config.
    """
    grid = grid or QuantileGrid()
    fit_config = fit_config or FitConfig()
    bases, class_ids, _ = _resolve_bases(base, dataset.k)
    features = dataset.features

    tasks = []
    for base_clf, class_id in zip(bases, class_ids):
        probs = np.asarray(base_clf.predict_proba(features), dtype=np.float64)
        if not np.all(np.isfinite(probs)) or probs.min() < 0 or probs.max() > 1:
            raise ValidationError(
                f"base classifier for class {class_id} produced probabilities "
                "outside [0,1]")
        anchors = []
        warm = None  # consecutive anchors share most pseudo-labels
        for tau in grid.anchors:
            try:
                y_plus = modified_labels(probs, tau)
                wts = class_balance_weights(y_plus, dataset.weights)
                clf = fit_weighted_logistic(features, y_plus, wts, fit_config,
                                            warm_start=warm)
                if not clf.degenerate:
                    warm = clf.coefficients()
                anchors.append(normalize_l2(clf))
            except QuantrepError as exc:
                raise FitError(str(exc), class_id=class_id, tau=float(tau)) from exc
        coeffs = np.stack([c.coefficients() for c in anchors])
        dense = interpolate_coefficients(grid.anchors, coeffs, grid.dense)

        median_idx = int(np.argmin(np.abs(grid.anchors - 0.5)))
        median_clf = anchors[median_idx]
        agreement = float(np.mean(
            (median_clf.decision(features) >= 0) == (probs > 0.5)))
        tasks.append(QuantileTask(class_id, grid.anchors.copy(), anchors,
                                  dense, median_agreement=agreement))
    return QuantileModel(grid, tasks, dataset.k, features.shape[1])


def represent(model: QuantileModel, features) -> QuantileRepresentation:
    """Evaluate the dense logit field at each sample.

    Output shape is (n, class_count, n_dense). For a single-task binary
    model the class-0 slice is the class-1 slice negated and reflected in
    tau, which keeps every per-class profile nondecreasing in its own tau.
    """
    features = _as_float_array(features)
    if features.ndim == 1:
        features = features[:, None]
    if features.shape[1] != model.feature_dim:
        raise ValidationError(
            f"feature dimension {features.shape[1]} does not match model "
            f"dimension {model.feature_dim}")
    n = features.shape[0]
    values = np.empty((n, model.class_count, model.grid.n_dense))
    if model.single_task_binary:
        logits = model.tasks[0].logits(features)
        values[:, 1, :] = logits
        values[:, 0, :] = -logits[:, ::-1]
    else:
        for task in model.tasks:
            values[:, task.class_id, :] = task.logits(features)
    return QuantileRepresentation(values, model.grid)


def metric_factor(model: QuantileModel):
    """Factor L (d x d) with L Lᵀ = M = Σ_tasks WᵀW, W the dense field
    without its bias column.

    Without the isotonic projection a representation is affine in the
    features, so rep(x_i) - rep(x_j) = W (x_i - x_j) per task and the
    flattened representation distance equals ||(x_i - x_j) L||. Distance
    computations on ``features @ L`` therefore match those on
    ``represent(...).flattened()`` without building the (n, k, n_dense)
    tensor. A single-task binary model counts twice: its class-0 slice is
    the mirrored class-1 slice, whose Gram matrix is the same. Eigenvalues
    are clipped at 0, so rank-deficient fields are handled.
    """
    d = model.feature_dim
    gram = np.zeros((d, d))
    for task in model.tasks:
        w = task.dense_coefficients[:, :d]
        gram += w.T @ w
    if model.single_task_binary:
        gram *= 2.0
    eigvals, eigvecs = np.linalg.eigh(gram)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@dataclass
class MonotonicityReport:
    aggregate: float
    per_profile: np.ndarray  # (n, class_count)


def monotonicity_violation_rate(rep: QuantileRepresentation) -> MonotonicityReport:
    """Fraction of adjacent dense-grid pairs that decrease by more than the
    tolerance. Monotonicity holds for the ideal solution; here it is
    measured, not assumed."""
    if rep.values.shape[2] < 2:
        raise ValidationError("need at least two grid points")
    drops = rep.values[:, :, 1:] < rep.values[:, :, :-1] - _MONO_TOL
    per_profile = drops.mean(axis=2)
    return MonotonicityReport(float(drops.mean()), per_profile)


def isotonic_projection(rep: QuantileRepresentation) -> QuantileRepresentation:
    """Optional nondecreasing projection of each profile along tau
    (running maximum). Off by default everywhere; anchors are trained
    independently and monotonicity is normally only measured."""
    return QuantileRepresentation(np.maximum.accumulate(rep.values, axis=2), rep.grid)


# ---------------------------------------------------------------------------
# cross-correlation diagnostics
# ---------------------------------------------------------------------------

def _pearson_rows(rows):
    """Correlation matrix of row variables; zero-variance rows give NaN."""
    rows = _as_float_array(rows)
    centered = rows - rows.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    defined = norms > 0
    safe = np.where(defined, norms, 1.0)
    corr = (centered @ centered.T) / np.outer(safe, safe)
    corr[~defined, :] = np.nan
    corr[:, ~defined] = np.nan
    np.fill_diagonal(corr, np.where(defined, 1.0, np.nan))
    return np.clip(corr, -1.0, 1.0, out=corr)


def coefficient_cross_correlation(model: QuantileModel):
    """Pearson correlation between per-feature coefficient trajectories,
    concatenated over (task, dense tau). Bias is excluded."""
    d = model.feature_dim
    if d < 2:
        raise ValidationError("need at least two features")
    trajectories = np.hstack([task.dense_coefficients[:, :d].T for task in model.tasks])
    return _pearson_rows(trajectories)


def raw_feature_correlation(features):
    """Pearson correlation between feature columns over samples."""
    features = _as_float_array(features)
    if features.ndim != 2 or features.shape[1] < 2:
        raise ValidationError("need a 2-d matrix with at least two columns")
    return _pearson_rows(features.T)


# ---------------------------------------------------------------------------
# serialization: model.json + little-endian float64 sidecar for the dense field
# ---------------------------------------------------------------------------

def save_model(model: QuantileModel, out_dir, name="model"):
    os.makedirs(out_dir, exist_ok=True)
    dense = np.stack([t.dense_coefficients for t in model.tasks])
    bin_name = f"{name}_dense.bin"
    with open(os.path.join(out_dir, bin_name), "wb") as fh:
        fh.write(np.ascontiguousarray(dense, dtype="<f8").tobytes())
    obj = {
        "schema_version": _SCHEMA_VERSION,
        "class_count": model.class_count,
        "feature_dim": model.feature_dim,
        "grid": {
            "anchors": [float(v) for v in model.grid.anchors],
            "dense": [float(v) for v in model.grid.dense],
        },
        "tasks": [
            {
                "class_id": t.class_id,
                "median_agreement": None if np.isnan(t.median_agreement)
                else float(t.median_agreement),
                "anchor_classifiers": [c.to_json_dict() for c in t.anchor_classifiers],
            }
            for t in model.tasks
        ],
        "dense_file": bin_name,
        "dense_shape": list(dense.shape),
    }
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_model(model_path) -> QuantileModel:
    """Read a model written by ``save_model``.

    The schema version, the task count, the sidecar shape and the sidecar
    size are checked against the model file; any mismatch or missing field
    raises ``ValidationError``.
    """
    with open(model_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        version = obj["schema_version"]
        if version != _SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported model schema_version {version!r} "
                f"(expected {_SCHEMA_VERSION})")
        grid = QuantileGrid(np.asarray(obj["grid"]["anchors"]),
                            np.asarray(obj["grid"]["dense"]))
        class_count, feature_dim = obj["class_count"], obj["feature_dim"]
        shape = tuple(obj["dense_shape"])
        dense_file = obj["dense_file"]
        tasks = [(t["class_id"],
                  [LinearClassifier.from_json_dict(c) for c in t["anchor_classifiers"]],
                  float("nan") if t["median_agreement"] is None
                  else t["median_agreement"])
                 for t in obj["tasks"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model file {model_path}: {exc!r}") from exc
    n_tasks = len(tasks)
    if n_tasks != class_count and not (class_count == 2 and n_tasks == 1):
        raise ValidationError(
            f"model has {n_tasks} tasks for {class_count} classes")
    expected = (n_tasks, grid.n_dense, feature_dim + 1)
    if shape != expected:
        raise ValidationError(
            f"dense_shape {list(shape)} does not match the model {list(expected)}")
    bin_path = os.path.join(os.path.dirname(model_path), dense_file)
    with open(bin_path, "rb") as fh:
        raw = fh.read()
    if len(raw) != 8 * int(np.prod(shape)):
        raise ValidationError(
            f"{bin_path} holds {len(raw)} bytes; dense_shape {list(shape)} "
            "needs 8 per entry")
    dense = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return QuantileModel(
        grid,
        [QuantileTask(class_id, grid.anchors.copy(), anchors, dense[i],
                      median_agreement=agreement)
         for i, (class_id, anchors, agreement) in enumerate(tasks)],
        class_count, feature_dim)
