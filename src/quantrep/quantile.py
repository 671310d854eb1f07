"""Quantile representations built from an arbitrary base classifier.

The construction rests on the identity between the asymmetric check loss
of a probability prediction at quantile tau and the same loss read with
prediction and quantile swapped: a classifier predicting probability p is
simultaneously the quantile-(1-p) classifier predicting 0.5. Thresholding
the base classifier's probabilities therefore yields the pseudo-labels
that the classifier at any other quantile must fit, with no constraint on
how the base classifier itself was trained.

A fitted model is its anchors: per one-vs-rest task (class 1 alone for
binary data, see ``represent``), a matrix of coefficients, one row per tau
of a 100-point grid. ``QuantileModel`` derives the dense field, their
natural cubic spline. Logits (not probabilities) are stored throughout,
and every anchor row has unit L2 norm so their logits are comparable.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ValidationError
from .linear import FitConfig, _newton, _sigmoid, fit_weighted_logistic

_MONO_TOL = 1e-9
# bytes per row block (see _block_rows) of the reductions over tau, the shift
# objective and every pass of the LOF search, whose tree query and distance
# recompute take one block of candidates at any width; a block and its
# temporaries then stay within a 2 MiB L2 cache: on a 2-vCPU Xeon, 4 MiB
# blocks ran the 2 000-row moons passes over tau about 2x slower
_BLOCK_BYTES = 2**20
_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# losses and the quantile/probability duality
# ---------------------------------------------------------------------------

def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


def check_loss(y_hat, y, tau):
    """Asymmetric absolute (pinball) loss, elementwise over the broadcast
    inputs: an array, 0-d for scalar input, as for each loss here.

    tau * (y - y_hat) when the residual is positive, (1 - tau) * (y_hat - y)
    otherwise. At tau = 0.5 the sample mean equals half the MAE.
    """
    y_hat_a, y_a, tau_a = map(_as_float_array, (y_hat, y, tau))
    if np.any(tau_a <= 0) or np.any(tau_a >= 1):
        raise ValidationError("tau must lie in the open interval (0,1)")
    resid = y_a - y_hat_a
    return np.where(resid > 0, tau_a * resid, (1.0 - tau_a) * (-resid))


def binary_check_loss(y_hat, y, tau):
    """Check loss specialized to binary targets, elementwise: tau*(1-y_hat)
    if y=1, (1-tau)*y_hat if y=0."""
    y_hat_a, y_a, tau_a = map(_as_float_array, (y_hat, y, tau))
    if np.any(tau_a <= 0) or np.any(tau_a >= 1):
        raise ValidationError("tau must lie in the open interval (0,1)")
    if np.any(y_hat_a < 0) or np.any(y_hat_a > 1):
        raise ValidationError("y_hat must lie in [0,1]")
    if not np.all((y_a == 0) | (y_a == 1)):
        raise ValidationError("y must be binary 0/1")
    return np.where(y_a == 1, tau_a * (1.0 - y_hat_a), (1.0 - tau_a) * y_hat_a)


def duality_residual(y_hat, y, tau):
    """rho(y_hat, y; tau) - rho(1-tau, y; 1-y_hat), elementwise; identically zero."""
    y_hat_a, tau_a = _as_float_array(y_hat), _as_float_array(tau)
    if np.any(y_hat_a <= 0) or np.any(y_hat_a >= 1):
        raise ValidationError("y_hat must lie in the open interval (0,1)")
    return binary_check_loss(y_hat_a, y, tau_a) - binary_check_loss(
        1.0 - tau_a, y, 1.0 - y_hat_a)


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
        # the natural spline through the anchors needs at least four of them
        for name, arr, least in (("anchors", self.anchors, 4), ("dense", self.dense, 2)):
            if arr.ndim != 1 or arr.size < least:
                raise ValidationError(f"{name} must be a 1-d grid with >= {least} points")
            # written so that NaN fails it
            if not np.all((arr > 0) & (arr < 1)):
                raise ValidationError(f"{name} must lie in the open interval (0,1)")
            if np.any(np.diff(arr) <= 0):
                raise ValidationError(f"{name} must be strictly increasing")
        if self.dense[0] < self.anchors[0] or self.dense[-1] > self.anchors[-1]:
            raise ValidationError("dense grid must lie within the anchor range")

    @property
    def n_dense(self):
        return self.dense.shape[0]


def _natural_spline_second_derivs(x, y):
    """Second derivatives of the natural cubic spline through (x, y[:, j]).

    The interior ones solve a symmetric tridiagonal system, by elimination
    without row swaps and back substitution. The system is strictly
    diagonally dominant, so LAPACK's ``gtsv`` (scipy's ``solve_banded``)
    swaps no row either, and this sweep, which does its arithmetic in the
    same order, matches it bit for bit. ``x`` has 4 or more knots.
    """
    n = x.shape[0]
    m = np.zeros_like(y)
    h = np.diff(x)
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None])
    off = h[1:-1]                            # sub- and superdiagonal
    diag = 2.0 * (h[:-1] + h[1:])
    for i in range(n - 3):
        fact = off[i] / diag[i]
        diag[i + 1] -= fact * off[i]
        rhs[i + 1] -= fact * rhs[i]
    rhs[-1] /= diag[-1]
    for i in range(n - 4, -1, -1):
        rhs[i] = (rhs[i] - off[i] * rhs[i + 1]) / diag[i]
    m[1:-1] = rhs
    return m


def interpolate_coefficients(anchors, anchor_rows, dense):
    """Natural cubic spline per coefficient column, exact at the anchors.

    ``anchor_rows`` has one row per anchor tau. Dense taus outside the
    anchor range raise (no extrapolation).
    """
    x = _as_float_array(anchors)
    y = _as_float_array(anchor_rows)
    t = _as_float_array(dense)
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
    """One stored task: its anchor coefficients, one unit-norm (weights,
    bias) row per anchor tau, and the sweep's ``fit_record`` (None for a
    task read from a file). Its model sets ``class_id`` and
    ``dense_coefficients``."""

    anchor_coefficients: np.ndarray  # (n_anchor, d+1)
    fit_record: dict | None = None
    class_id: int = field(init=False, default=None)
    dense_coefficients: np.ndarray = field(init=False, default=None, repr=False)  # (n_dense, d+1)

    def _record(self):
        if self.fit_record is None:
            raise ValidationError("fit diagnostics need a fitted model; "
                                  "a model read from a file has no fit record")
        return self.fit_record

    @property
    def median_agreement(self):
        """The fit record's median agreement (``fit_quantile_model``); a task
        read from a file has no record and raises ``ValidationError``."""
        return self._record()["median_agreement"]

    def logits(self, features, out=None):
        """(n, n_dense) logits of the dense field at ``features``; with
        ``out`` given, they are written there (``np.matmul``'s ``out``)."""
        features = _as_float_array(features)
        d = self.dense_coefficients.shape[1] - 1
        if features.shape[1] != d:
            raise ValidationError(
                f"feature dimension {features.shape[1]} does not match model "
                f"dimension {d}")
        # single GEMM with a padded ones column; an order of magnitude
        # faster than matmul-plus-broadcast-add for small d
        padded = np.column_stack([features, np.ones(features.shape[0])])
        return np.matmul(padded, self.dense_coefficients.T, out=out)


def _task_classes(k):
    """The classes whose task a k-class model stores, in order, as a
    ``range``: class 1 alone for binary data (class 0 is its mirror in
    ``represent``), else every class. So one task is a binary model, and
    k >= 3 tasks a k-class one."""
    return range(1, 2) if k == 2 else range(k)


def _check_binary_grid(class_count, grid):
    """The binary mirror reads the dense grid reversed as 1 - tau (to 1e-12)."""
    dense = grid.dense
    if class_count == 2 and np.max(np.abs(dense + dense[::-1] - 1.0)) > 1e-12:
        raise ValidationError(
            "a binary model needs a dense tau grid symmetric about 1/2 "
            f"(tau_min + tau_max = 1), got [{dense[0]:g}, {dense[-1]:g}]")


@dataclass
class QuantileModel:
    """A tau grid and the tasks ``_task_classes`` names: one task is a
    binary model, k >= 3 tasks a k-class model, and 0 or 2 tasks raise.
    Their anchors are (n_anchor, d+1) float matrices of one width. It sets
    each task's ``class_id`` and its dense field, the anchors' spline at
    ``grid.dense``. A binary model's class-0 field is the negated,
    tau-reflected class-1 field, so its dense grid must be symmetric about
    1/2.
    """

    grid: QuantileGrid
    tasks: list

    def __post_init__(self):
        if len(self.tasks) in (0, 2):
            raise ValidationError("a model stores 1 task (binary) or one per class of "
                                  f"3 or more, got {len(self.tasks)}")
        _check_binary_grid(self.class_count, self.grid)
        rows = [_as_float_array(t.anchor_coefficients) for t in self.tasks]
        shape = (self.grid.anchors.size, rows[0].shape[-1] if rows[0].ndim == 2 else 0)
        if shape[1] < 2 or any(r.shape != shape for r in rows):
            raise ValidationError(f"every task needs a ({shape[0]}, d+1) anchor matrix of "
                                  f"one width d+1 >= 2, got {[r.shape for r in rows]}")
        for task, class_id, anchors in zip(self.tasks, _task_classes(self.class_count), rows):
            task.class_id = class_id
            task.anchor_coefficients = anchors
            task.dense_coefficients = interpolate_coefficients(
                self.grid.anchors, anchors, self.grid.dense)

    @property
    def class_count(self):
        """k, read off the task count: one task is binary."""
        return max(2, len(self.tasks))

    @property
    def feature_dim(self):
        """d, read off the width d+1 of the anchor rows."""
        return self.tasks[0].anchor_coefficients.shape[1] - 1


@dataclass
class QuantileRepresentation:
    """Logit tensor of shape (n_samples, class_count, n_dense)."""

    values: np.ndarray

    def flattened(self):
        """(n, class_count * n_dense) view used as detector input."""
        return self.values.reshape(self.values.shape[0], -1)


def _resolve_bases(base, k):
    """The base classifiers, one per task of ``_task_classes(k)``, and those
    ids: ``base`` is one object with ``decision`` (its logits) or a list."""
    bases = list(base) if np.iterable(base) and not hasattr(base, "decision") else [base]
    if not all(hasattr(b, "decision") for b in bases):
        raise ValidationError("a base classifier needs a decision(features) method")
    class_ids = _task_classes(k)
    if len(bases) != len(class_ids):
        raise ValidationError(f"need {len(class_ids)} base classifier(s) for "
                              f"{k} classes, got {len(bases)}")
    return bases, class_ids


def _base_logits(base, features, k):
    """(n, k) per-class logits of the base classifiers (``_resolve_bases``):
    the one binary base gives (-z, z), else one column per class."""
    bases, _ = _resolve_bases(base, k)
    z = np.column_stack([b.decision(features) for b in bases])
    return np.column_stack([-z, z]) if k == 2 else z


def fit_base_classifiers(dataset, fit_config: FitConfig | None = None):
    """Plain logistic base classifiers, one per task the model will store
    (``_task_classes``). The dataset's sample weights apply; no class
    weighting, which enters later, on the per-quantile pseudo-datasets."""
    fit_config = fit_config or FitConfig()
    return [fit_weighted_logistic(dataset.features,
                                  (dataset.labels == c).astype(np.int64),
                                  dataset.weights, config=fit_config)
            for c in _task_classes(dataset.k)]


def _anchor_fits(features, probs, sample_weights, taus, median_idx, config):
    """The raw logistic fits of one task's anchors: their (n_anchor, d+1)
    coefficients, per anchor whether its fit converged and whether it is
    degenerate, and the Newton steps summed over the distinct fits.

    The pseudo-label sets I[p > 1 - tau] are nested in tau, so anchors with
    the same positive count have the same labels: they share one fit,
    counted once. The median anchor is fit from zero. Every other set
    starts from its coefficients with the bias moved by
    -(max z over y=0 + min z over y=1)/2, z the median fit's logits, so
    that the start's boundary splits the data where the set's labels do
    (from a one-class median the start is zero). A one-class set's start
    is infinite; ``_newton`` replaces it with the constant classifier of
    its class. Those fits run in groups of ``_block_rows(n)``, one
    ``_newton`` stack each, so a stacked (group, n) array takes one
    ``_BLOCK_BYTES`` block.
    """
    n, d = features.shape
    counts = n - np.searchsorted(np.sort(probs), 1.0 - taus, side="right")
    counts, first, which = np.unique(counts, return_index=True, return_inverse=True)
    coefs = np.empty((counts.size, d + 1))
    converged, degenerate = np.empty((2, counts.size), dtype=bool)
    steps = np.empty(counts.size, dtype=np.int64)

    def fit(sets, start):
        labels = modified_labels(probs, taus[first[sets], None]).astype(np.float64)
        weights = np.stack([class_balance_weights(y, sample_weights) for y in labels])
        z = features @ start[:d] + start[d]
        starts = np.repeat(start[None], sets.size, axis=0)
        starts[:, d] -= 0.5 * (np.max(np.where(labels == 0, z, -np.inf), axis=1)
                               + np.min(np.where(labels == 1, z, np.inf), axis=1))
        coefs[sets], converged[sets], steps[sets], degenerate[sets] = _newton(
            features, labels, weights, starts, config)

    median = which[median_idx]
    fit(np.array([median]), np.zeros(d + 1))
    rest = np.flatnonzero(np.arange(counts.size) != median)
    group = _block_rows(n)
    for lo in range(0, rest.size, group):
        fit(rest[lo:lo + group], coefs[median])
    return coefs[which], converged[which], degenerate[which], int(np.sum(steps))


def fit_quantile_model(dataset, base, grid=None, fit_config=None) -> QuantileModel:
    """Fit anchor classifiers for every (class, anchor tau) pseudo-dataset.

    Per class and anchor tau: threshold the base one-vs-rest probabilities
    (the sigmoid of its ``decision`` logits) at 1 - tau to form
    pseudo-labels, weight them inversely to pseudo-class weight (scaling
    the dataset's sample weights, if any), fit a weighted logistic
    classifier (``_anchor_fits``: equal label sets share one fit, the
    median anchor's fit starts from zero and every other from it, and they
    run in stacked groups of ``_block_rows(n)``), and store its
    coefficients at unit L2 norm as that tau's anchor row (an all-zero fit
    raises ``FitError`` at the first such tau). Each task's ``fit_record``
    counts the non-converged and degenerate anchors, sums the Newton steps
    of the distinct fits, holds the base's ``converged`` and ``iterations``
    if it has them, and its ``median_agreement``: the fraction of samples,
    weighted by the sample weights, on which the median anchor and the
    base at 0.5 agree. Deterministic for a fixed config. Binary data takes
    one base and a grid symmetric about 1/2, both checked before any fit.
    """
    grid = grid or QuantileGrid()
    fit_config = fit_config or FitConfig()
    bases, class_ids = _resolve_bases(base, dataset.k)
    _check_binary_grid(dataset.k, grid)
    features = dataset.features
    median_idx = int(np.argmin(np.abs(grid.anchors - 0.5)))

    tasks = []
    for base_clf, class_id in zip(bases, class_ids):
        probs = _sigmoid(base_clf.decision(features))
        if np.any(np.isnan(probs)):
            raise ValidationError(f"base classifier for class {class_id} produced NaN logits")
        coefs, converged, degenerate, iterations = _anchor_fits(
            features, probs, dataset.weights, grid.anchors, median_idx, fit_config)
        norms = np.linalg.norm(coefs, axis=1)
        if np.any(norms == 0.0):
            raise FitError("cannot normalize an all-zero classifier", class_id=class_id,
                           tau=float(grid.anchors[np.argmax(norms == 0.0)]))
        anchors = coefs / norms[:, None]
        median = anchors[median_idx]
        agreement = float(np.average((features @ median[:-1] + median[-1] >= 0) == (probs > 0.5),
                                     weights=dataset.weights))
        tasks.append(QuantileTask(anchors, fit_record={
            "nonconverged_anchors": int(np.sum(~converged)),
            "degenerate_anchors": int(np.sum(degenerate)),
            "anchor_iterations": iterations,
            "base_converged": getattr(base_clf, "converged", None),
            "base_iterations": getattr(base_clf, "iterations", None),
            "median_agreement": agreement}))
    return QuantileModel(grid, tasks)


_NO_INFORMATION = ("every anchor fit is degenerate: the pseudo-labels are one class "
                   "at every tau, so the task carries no information")


def fit_diagnostics(model: QuantileModel):
    """The deterministic fit diagnostics of a model ``fit_quantile_model``
    returned: each key of its tasks' ``fit_record``, the median agreement
    among them, as a list with one entry per task. A model read from a file
    has no fit record and raises ``ValidationError``.

    Raises ``FitError`` when every anchor of a task is degenerate: its
    pseudo-labels are one class at every tau, so the task carries no
    information. ``fit_quantile_model`` still returns such a model, as
    tests of one-class instances and of symmetric constructions fit them on
    purpose; a caller that needs a usable representation checks it here.
    """
    records = [t._record() for t in model.tasks]
    for task, rec in zip(model.tasks, records):
        if rec["degenerate_anchors"] == task.anchor_coefficients.shape[0]:
            unmet = "; the base fit did not converge" if rec["base_converged"] is False else ""
            raise FitError(_NO_INFORMATION + unmet, class_id=task.class_id)
    return {key: [r[key] for r in records] for key in records[0]}


def check_class_rows(dataset):
    """Raise the ``FitError`` of :func:`fit_diagnostics` for the first
    task whose class holds no row or every row. Bases fitted from such
    labels are one-class fits, so every anchor of that task would be
    degenerate; the check is cheap, so a caller that fits the bases runs
    it before any fit, where a dataset with sparse labels would otherwise
    fit every empty class's task first."""
    tasks = _task_classes(dataset.k)
    counts = np.bincount(dataset.labels, minlength=dataset.k)[tasks.start:tasks.stop]
    empty_or_all = np.flatnonzero((counts == 0) | (counts == dataset.n))
    if empty_or_all.size:
        raise FitError(_NO_INFORMATION, class_id=tasks[empty_or_all[0]])


def represent(model: QuantileModel, features) -> QuantileRepresentation:
    """Evaluate the dense logit field at each sample; the per-sample
    reductions over tau run it on row blocks (``_row_blocks``).

    Output shape is (n, class_count, n_dense). For a binary model the
    class-0 slice is the class-1 slice negated and reflected in tau, which
    keeps every per-class profile nondecreasing in its own tau.
    """
    features = _as_float_array(features)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    values = np.empty((n, model.class_count, model.grid.n_dense))
    # logits go straight into their slices: no temporaries per call
    if model.class_count == 2:
        model.tasks[0].logits(features, out=values[:, 1, :])
        np.negative(values[:, 1, ::-1], out=values[:, 0, :])
    else:
        for task in model.tasks:
            task.logits(features, out=values[:, task.class_id, :])
    return QuantileRepresentation(values)


def metric_factor(model: QuantileModel):
    """Factor L (d x d) with L Lᵀ = M = Σ_tasks WᵀW, W the dense field
    without its bias column.

    A representation is affine in the features, so rep(x_i) - rep(x_j) =
    W (x_i - x_j) per task and the flattened representation distance equals
    ||(x_i - x_j) L||. Distance computations on ``features @ L`` therefore
    match those on ``represent(...).flattened()`` without building the
    (n, k, n_dense) tensor. A binary model's one task counts twice: its
    class-0 slice is the mirrored class-1 slice, whose Gram matrix is the
    same. Eigenvalues are clipped at 0, so rank-deficient fields are
    handled.
    """
    d = model.feature_dim
    gram = np.zeros((d, d))
    for task in model.tasks:
        w = task.dense_coefficients[:, :d]
        gram += w.T @ w
    if model.class_count == 2:
        gram *= 2.0
    eigvals, eigvecs = np.linalg.eigh(gram)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _block_rows(width):
    """Rows of ``width`` float64 values each in a ``_BLOCK_BYTES`` block."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _row_blocks(model: QuantileModel, features):
    """Yield ``represent(model, features[lo:hi]).values`` over row blocks of
    about ``_BLOCK_BYTES``, so a per-sample reduction over tau never holds
    the whole (n, class_count, n_dense) tensor. An empty input still gives
    one (empty) block. A one-row block takes BLAS's matrix-vector path, so
    blocks match ``represent`` to rounding, not bit for bit; they depend on
    the row count and the model alone, so reruns are byte-identical."""
    features = _as_float_array(features)
    rows = _block_rows(model.class_count * model.grid.n_dense)
    for lo in range(0, max(features.shape[0], 1), rows):
        yield represent(model, features[lo:lo + rows]).values


@dataclass
class MonotonicityReport:
    """The weighted fraction of decreasing adjacent pairs over all profiles."""

    aggregate: float


def monotonicity_violation_rate(model: QuantileModel, features,
                                weights=None) -> MonotonicityReport:
    """Fraction of adjacent dense-grid pairs of the representation at
    ``features`` that decrease by more than the tolerance. Monotonicity
    holds for the ideal solution; here it is measured, not assumed.

    ``aggregate`` is each sample's count over its class profiles, weighted
    by ``weights`` (unit weights if not given), over the weighted number of
    adjacent pairs.
    """
    counts = np.concatenate([
        np.count_nonzero(v[:, :, 1:] < v[:, :, :-1] - _MONO_TOL, axis=(1, 2))
        for v in _row_blocks(model, features)])
    w = np.ones(counts.shape[0]) if weights is None else _as_float_array(weights)
    pairs = model.class_count * (model.grid.n_dense - 1)
    return MonotonicityReport(float((w @ counts) / (w.sum() * pairs)))


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
# serialization: model.json, plus the dense field exported as a sidecar
# ---------------------------------------------------------------------------

def save_model(model: QuantileModel, out_dir):
    """Write ``model.json`` and ``model_dense.bin``; returns the
    ``model.json`` path.

    ``model.json`` (schema 3) holds the grid and, under
    ``anchor_coefficients``, each task's (n_anchor, d+1) anchor matrix in
    task order: all a model cannot derive. The sidecar, which ``dense_file``
    names, holds the dense field as little-endian float64, shaped
    ``dense_shape``: an export for other tools, as ``load_model`` reads
    ``model.json`` alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    dense = np.stack([t.dense_coefficients for t in model.tasks])
    bin_name = "model_dense.bin"
    with open(os.path.join(out_dir, bin_name), "wb") as fh:
        fh.write(np.ascontiguousarray(dense, dtype="<f8").tobytes())
    obj = {
        "schema_version": _SCHEMA_VERSION,
        "grid": {
            "anchors": [float(v) for v in model.grid.anchors],
            "dense": [float(v) for v in model.grid.dense],
        },
        "anchor_coefficients": [t.anchor_coefficients.tolist() for t in model.tasks],
        "dense_file": bin_name,
        "dense_shape": list(dense.shape),
    }
    path = os.path.join(out_dir, "model.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_model(model_path) -> QuantileModel:
    """Read a model written by ``save_model`` from ``model.json`` alone.

    Any ``schema_version`` but 3 raises. Each task's anchor matrix is read
    as one float array of finite rows of unit (weights, bias) norm (to
    1e-12), and the task has no ``fit_record``. :class:`QuantileModel`
    checks the task count, grid and anchor shapes as it builds the dense
    field; a missing or malformed field or any mismatch raises
    ``ValidationError``.
    """
    with open(model_path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        version = obj["schema_version"]
        if version != _SCHEMA_VERSION:
            raise ValidationError(
                f"{model_path} has model schema_version {version!r}, but only version "
                f"{_SCHEMA_VERSION} is read: re-run fit-quantile to write the model again")
        grid = QuantileGrid(np.asarray(obj["grid"]["anchors"], dtype=np.float64),
                            np.asarray(obj["grid"]["dense"], dtype=np.float64))
        tasks = []
        for i, rows in enumerate(obj["anchor_coefficients"]):
            anchors = np.asarray(rows, dtype=np.float64)
            if not (np.all(np.isfinite(anchors)) and np.all(
                    np.abs(np.linalg.norm(anchors, axis=-1) - 1.0) <= 1e-12)):
                raise ValidationError(
                    f"the anchor coefficients of task {i} in {model_path} "
                    "are not finite rows of unit (weights, bias) norm")
            tasks.append(QuantileTask(anchors))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed model file {model_path}: {exc!r}") from exc
    return QuantileModel(grid, tasks)
