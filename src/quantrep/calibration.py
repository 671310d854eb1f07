"""Quantile probabilities of a fitted model, calibration-error
measurement, post-hoc correction maps, and the corruption sweep.

The probabilities reduce the representation over tau one row block at a
time (``quantile._row_blocks``); the full tensor is never built. The MSP
base and the Platt map are read as the sigmoid of their ``decision``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import _check_seed
from .errors import ValidationError
from .linear import FitConfig, _sigmoid, fit_weighted_logistic
from .quantile import QuantileModel, _base_logits, _row_blocks


def _logit(p, eps=1e-12):
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    return np.log(p / (1.0 - p))


def model_class_probabilities(model: QuantileModel, features):
    """(n, class_count) one-vs-rest quantile probabilities: per sample and
    class, the fraction of dense-grid taus whose logit is nonnegative.

    This is the Riemann form of integrating I[logit(x, tau) >= 0] over tau.
    The representation is evaluated in row blocks, never as a whole. Across
    classes the probabilities need not sum to 1. A class whose logits at a
    sample are not all finite gets probability NaN there.
    """
    return np.concatenate([np.where(np.all(np.isfinite(v), axis=2), np.mean(v >= 0, axis=2),
                                    np.nan) for v in _row_blocks(model, features)])


@dataclass
class ReliabilityTable:
    """Binned confidence/accuracy summary backing an ECE value."""

    edges: np.ndarray
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray


def _bin_indices(confidences, m, binning):
    if binning == "equal-width":
        edges = np.linspace(0.0, 1.0, m + 1)
        idx = np.clip(np.floor(confidences * m).astype(int), 0, m - 1)
    elif binning == "quantile":
        qs = np.quantile(confidences, np.linspace(0.0, 1.0, m + 1))
        edges = np.unique(qs)
        if edges.size < 2:
            edges = np.array([edges[0], edges[0]])
        # interior edges only; equal confidences always share a bin
        idx = np.searchsorted(edges[1:-1], confidences, side="right")
    else:
        raise ValidationError(f"unknown binning: {binning!r}")
    return edges, idx


def ece(confidences, correctness, m=5, binning="quantile"):
    """Expected calibration error plus its reliability table.

    Sum over bins of (|B|/n) * |acc(B) - conf(B)| with conf(B) the mean
    confidence inside the bin; empty bins contribute nothing.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if confidences.shape != correctness.shape or confidences.ndim != 1:
        raise ValidationError("confidences and correctness must be equal-length vectors")
    if not np.all((confidences >= 0) & (confidences <= 1)):
        raise ValidationError("confidences must lie in [0,1]")
    if m < 1:
        raise ValidationError("need at least one bin")
    n = confidences.size
    if n == 0:
        raise ValidationError("need at least one sample")

    edges, idx = _bin_indices(confidences, m, binning)
    n_bins = edges.size - 1
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    conf_sum = np.bincount(idx, weights=confidences, minlength=n_bins)
    acc_sum = np.bincount(idx, weights=correctness, minlength=n_bins)
    nonempty = counts > 0
    mean_conf = np.full(n_bins, np.nan)
    acc = np.full(n_bins, np.nan)
    mean_conf[nonempty] = conf_sum[nonempty] / counts[nonempty]
    acc[nonempty] = acc_sum[nonempty] / counts[nonempty]
    value = float(np.sum(counts[nonempty] / n * np.abs(acc[nonempty] - mean_conf[nonempty])))
    return value, ReliabilityTable(edges, counts, mean_conf, acc)


def msp_confidence(probabilities):
    """Maximum per-class probability and its argmax (ties -> lowest class)."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise ValidationError("need an (n, k>=2) probability matrix")
    predicted = np.argmax(probabilities, axis=1)
    confidence = probabilities[np.arange(probabilities.shape[0]), predicted]
    return confidence, predicted


# ---------------------------------------------------------------------------
# post-hoc correction maps
# ---------------------------------------------------------------------------

def platt_fit(scores, correctness):
    """The one-feature ``LinearClassifier`` whose sigmoid(decision(s)) =
    sigmoid(a*s + b) minimizes log loss; convex.

    An unregularised one-feature logistic fit, started flat at the base
    rate so that constant scores keep slope 0. One outcome alone gives the
    constant map of ``fit_weighted_logistic``, the log-loss minimiser's limit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if scores.shape != correctness.shape or scores.size == 0:
        raise ValidationError("scores and correctness must be nonempty, of equal length")
    rate = float(correctness.mean())
    warm = [0.0, math.log(rate / (1.0 - rate))] if 0.0 < rate < 1.0 else None
    return fit_weighted_logistic(scores[:, None], correctness,
                                 config=FitConfig(l2_reg=0.0), warm_start=warm)


@dataclass
class IsotonicMap:
    """Nondecreasing step map from pool-adjacent-violators."""

    thresholds: np.ndarray  # sorted distinct score block starts
    values: np.ndarray

    def __call__(self, scores):
        scores = np.asarray(scores, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.thresholds, scores, side="right") - 1,
                      0, self.values.size - 1)
        return self.values[idx]


def _pava(y, w):
    """Weighted pool-adjacent-violators (Ayer et al., 1955) on a stack of
    blocks.

    Returns the start index and the weighted mean of each block of the
    nondecreasing least-squares fit of ``y`` with weights ``w``. A new
    value pools with the block before it while that block's mean is ``>=``
    its own, so adjacent blocks whose means tie are pooled. A block keeps
    its exact weighted sum; a value that never pools keeps its own bits.
    """
    blocks = []  # (start, weighted sum, weight, mean)
    for i, (yi, wi) in enumerate(zip(y, w)):
        start, total, weight, mean = i, yi * wi, wi, yi
        while blocks and blocks[-1][3] >= mean:
            start, prev_total, prev_weight, _ = blocks.pop()
            total, weight = prev_total + total, prev_weight + weight
            mean = total / weight
        blocks.append((start, total, weight, mean))
    return [b[0] for b in blocks], [b[3] for b in blocks]


def isotonic_fit(scores, correctness) -> IsotonicMap:
    """Pool-adjacent-violators (:func:`_pava`, in plain Python): the
    nondecreasing map minimizing squared error of correctness on scores.

    Tied scores are pre-pooled so the result is a genuine function of the
    score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if scores.shape != correctness.shape:
        raise ValidationError("scores and correctness must have equal length")
    if scores.size == 0:
        raise ValidationError("need at least one sample")
    # single-outcome input is fine here: the solution is the constant map
    s, inverse, group_w = np.unique(scores, return_inverse=True, return_counts=True)
    group_y = np.bincount(inverse, weights=correctness) / group_w
    starts, values = _pava(group_y.tolist(), group_w.astype(np.float64).tolist())
    return IsotonicMap(s[starts], np.array(values))


# ---------------------------------------------------------------------------
# corruption sweep
# ---------------------------------------------------------------------------

CORRUPTIONS = ("gaussian-noise", "feature-scaling", "feature-shift")


def corrupt_features(features, corruption, severity, seed=0):
    """Apply one synthetic corruption; severity 0 is an exact no-op. A
    severity so large that the corrupted features overflow raises
    ``ValidationError`` naming the corruption and the severity."""
    _check_seed(seed)
    features = np.asarray(features, dtype=np.float64)
    if corruption not in CORRUPTIONS:
        raise ValidationError(f"unknown corruption: {corruption!r}")
    if severity == 0:
        return features.copy()
    # an overflow is reported below as an error, not as a warning here
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = features.std(axis=0)
        if corruption == "gaussian-noise":
            rng = np.random.default_rng(seed)
            out = features + rng.normal(0.0, 1.0, features.shape) * (severity * sigma)
        elif corruption == "feature-scaling":
            out = features * (1.0 + severity)
        else:
            out = features + severity * sigma
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{corruption} at severity {severity:g} makes the features "
                              "overflow to non-finite values")
    return out


@dataclass
class SweepRow:
    severity: float
    method: str
    accuracy: float
    ece: float


@dataclass
class MetricsReport:
    """Plot-ready series for the corruption sweep."""

    rows: list = field(default_factory=list)

    def series(self, method):
        rows = sorted((r for r in self.rows if r.method == method),
                      key=lambda r: r.severity)
        return ([r.severity for r in rows], [r.accuracy for r in rows],
                [r.ece for r in rows])


def _stream(probabilities, labels):
    """MSP confidence of each row and whether its argmax is the label (0/1)."""
    confidence, predicted = msp_confidence(probabilities)
    return confidence, (predicted == labels).astype(np.float64)


def corruption_sweep(model: QuantileModel, base, clean_data, corruption,
                     severities, m=5, binning="quantile", seed=0) -> MetricsReport:
    """Accuracy and ECE per severity, one row each, in this order, for the
    quantile probabilities (QUANT), the base classifier's maximum
    probability (MSP), and QUANT through a Platt and an isotonic map
    (QUANT+platt, QUANT+isotonic). ``base`` is what ``fit_quantile_model``
    takes, one binary classifier for two classes, one per class otherwise,
    and MSP reads its logits (``decision``) through the sigmoid.

    Both maps are fit once, on the clean QUANT stream, and re-applied at
    every severity; they adjust confidences only, so their accuracy is
    QUANT's. ``severities`` must be nonempty, ascending, finite and >= 0,
    every label must be a class of the model, and every logit finite.
    """
    severities = [float(s) for s in severities]
    if not severities or not all(math.isfinite(s) and s >= 0 for s in severities):
        raise ValidationError("severities must be a nonempty list of finite, nonnegative values")
    if any(s2 < s1 for s1, s2 in zip(severities, severities[1:])):
        raise ValidationError("severities must be sorted ascending")
    features = clean_data.features
    labels = clean_data.labels
    k = model.class_count
    if labels.max() >= k:  # a Dataset holds at least one row
        raise ValidationError(f"label {labels.max()} is not a class of the {k}-class model")

    def scores(x, what):
        # an overflow is reported as an error naming ``what``, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            quant, logits = model_class_probabilities(model, x), _base_logits(base, x, k)
        if not (np.all(np.isfinite(quant)) and np.all(np.isfinite(logits))):
            raise ValidationError(f"{what} makes a logit overflow to a non-finite value")
        return quant, logits

    conf, correct = _stream(scores(features, "the clean data")[0], labels)
    # Platt consumes logit-scale scores so a calibrated stream maps to a
    # near-identity correction
    platt_map = platt_fit(_logit(conf), correct)
    iso_map = isotonic_fit(conf, correct)

    report = MetricsReport()
    for severity in severities:
        x = corrupt_features(features, corruption, severity, seed=seed)
        quant, logits = scores(x, f"{corruption} at severity {severity:g}")
        conf, correct = _stream(quant, labels)
        msp_conf, msp_correct = _stream(_sigmoid(logits), labels)
        for method, confidence, hits in (
            ("QUANT", conf, correct),
            ("MSP", msp_conf, msp_correct),
            ("QUANT+platt", np.clip(_sigmoid(platt_map.decision(_logit(conf))), 0.0, 1.0),
             correct),
            ("QUANT+isotonic", np.clip(iso_map(conf), 0.0, 1.0), correct),
        ):
            value, _ = ece(confidence, hits, m=m, binning=binning)
            report.rows.append(SweepRow(severity, method, float(hits.mean()), value))
    return report
