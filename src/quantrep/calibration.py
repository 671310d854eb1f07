"""Probabilities from quantile representations, calibration-error
measurement, post-hoc correction maps, and the corruption sweep.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit as sigmoid

from .errors import ConfigError, ValidationError
from .linear import FitConfig, fit_weighted_logistic
from .quantile import QuantileModel, QuantileRepresentation


def _logit(p, eps=1e-12):
    p = np.clip(np.asarray(p, dtype=np.float64), eps, 1.0 - eps)
    return np.log(p / (1.0 - p))


def quantile_probability(rep: QuantileRepresentation, class_id):
    """Per-sample fraction of dense-grid taus whose logit is nonnegative.

    This is the Riemann form of integrating I[logit(x, tau) >= 0] over tau.
    One-vs-rest probabilities are reported as-is; across classes they need
    not sum to 1.
    """
    if rep.grid.n_dense == 0:
        raise ValidationError("dense grid must be nonempty")
    if not 0 <= class_id < rep.values.shape[1]:
        raise ValidationError(f"class_id {class_id} out of range")
    return np.mean(rep.values[:, class_id, :] >= 0, axis=1)


def class_probabilities(rep: QuantileRepresentation):
    """(n, class_count) matrix of one-vs-rest quantile probabilities."""
    return np.mean(rep.values >= 0, axis=2)


def model_class_probabilities(model: QuantileModel, features, chunk_size=8192):
    """Quantile probabilities straight from the model, evaluated in chunks.

    Equivalent to ``class_probabilities(represent(model, features))`` but
    never materializes the full logit tensor, which matters for large
    evaluation sets.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    out = np.empty((n, model.class_count))
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        block = features[lo:hi]
        if model.single_task_binary:
            logits = model.tasks[0].logits(block)
            out[lo:hi, 1] = np.mean(logits >= 0, axis=1)
            # the class-0 field is the negated tau-reflection of class 1,
            # so its positive fraction is the fraction of logits <= 0
            out[lo:hi, 0] = np.mean(logits <= 0, axis=1)
        else:
            for task in model.tasks:
                logits = task.logits(block)
                out[lo:hi, task.class_id] = np.mean(logits >= 0, axis=1)
    return out


@dataclass
class ReliabilityTable:
    """Binned confidence/accuracy summary backing an ECE value."""

    edges: np.ndarray
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray

    def rows(self):
        out = []
        for i in range(self.counts.shape[0]):
            out.append({
                "bin_lo": float(self.edges[i]),
                "bin_hi": float(self.edges[i + 1]),
                "count": int(self.counts[i]),
                "mean_confidence": None if self.counts[i] == 0 else float(self.mean_confidence[i]),
                "accuracy": None if self.counts[i] == 0 else float(self.accuracy[i]),
            })
        return out


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
        raise ConfigError(f"unknown binning: {binning!r}")
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
    if np.any(confidences < 0) or np.any(confidences > 1):
        raise ValidationError("confidences must lie in [0,1]")
    if m < 1:
        raise ValidationError("need at least one bin")
    n = confidences.size
    if n == 0:
        raise ValidationError("need at least one sample")

    edges, idx = _bin_indices(confidences, m, binning)
    n_bins = edges.size - 1 if binning == "quantile" else m
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
    """Fit (a, b) so that sigmoid(a*s + b) minimizes log loss; convex.

    An unregularised one-feature logistic fit, started flat at the base
    rate so that constant scores keep slope 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    if scores.shape != correctness.shape:
        raise ValidationError("scores and correctness must have equal length")
    if np.unique(correctness).size < 2:
        raise ValidationError("correctness must contain both outcomes")
    rate = float(correctness.mean())
    clf = fit_weighted_logistic(scores[:, None], correctness,
                                config=FitConfig(l2_reg=0.0),
                                warm_start=[0.0, math.log(rate / (1.0 - rate))])
    return float(clf.weights[0]), clf.bias


def platt_apply(scores, ab):
    a, b = ab
    return sigmoid(a * np.asarray(scores, dtype=np.float64) + b)


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


def isotonic_fit(scores, correctness) -> IsotonicMap:
    """Pool-adjacent-violators: the nondecreasing map minimizing squared
    error of correctness on scores.

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

    # blocks as (value, weight, start group), merged while order-violating
    vals, wts, starts = [], [], []
    for i in range(s.size):
        vals.append(group_y[i])
        wts.append(float(group_w[i]))
        starts.append(i)
        while len(vals) > 1 and vals[-2] >= vals[-1]:
            w = wts[-2] + wts[-1]
            v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / w
            vals.pop(); wts.pop(); starts.pop()
            vals[-1], wts[-1] = v, w
    block_starts = np.asarray(starts, dtype=np.int64)
    return IsotonicMap(s[block_starts], np.asarray(vals))


def isotonic_apply(scores, iso_map: IsotonicMap):
    return iso_map(scores)


# ---------------------------------------------------------------------------
# corruption sweep
# ---------------------------------------------------------------------------

CORRUPTIONS = ("gaussian-noise", "feature-scaling", "feature-shift")


def corrupt_features(features, corruption, severity, seed=0):
    """Apply one synthetic corruption; severity 0 is an exact no-op."""
    features = np.asarray(features, dtype=np.float64)
    if corruption not in CORRUPTIONS:
        raise ConfigError(f"unknown corruption: {corruption!r}")
    if severity == 0:
        return features.copy()
    sigma = features.std(axis=0)
    if corruption == "gaussian-noise":
        rng = np.random.default_rng(seed)
        return features + rng.normal(0.0, 1.0, features.shape) * (severity * sigma)
    if corruption == "feature-scaling":
        return features * (1.0 + severity)
    return features + severity * sigma


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

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["severity", "method", "accuracy", "ece"])
            for r in self.rows:
                writer.writerow([
                    "%.17g" % r.severity, r.method,
                    "%.17g" % r.accuracy, "%.17g" % r.ece,
                ])

    def series(self, method):
        rows = sorted((r for r in self.rows if r.method == method),
                      key=lambda r: r.severity)
        return ([r.severity for r in rows], [r.accuracy for r in rows],
                [r.ece for r in rows])


def _evaluate_stream(probabilities, labels, m, binning):
    confidence, predicted = msp_confidence(probabilities)
    correct = (predicted == labels).astype(np.float64)
    value, _ = ece(confidence, correct, m=m, binning=binning)
    return float(correct.mean()), value


def _base_probabilities(base, features, k):
    if hasattr(base, "predict_proba"):
        p = np.asarray(base.predict_proba(features), dtype=np.float64)
        if p.ndim == 1:
            if k != 2:
                raise ValidationError("single base classifier requires k=2")
            return np.column_stack([1.0 - p, p])
        return p
    cols = [np.asarray(b.predict_proba(features), dtype=np.float64) for b in base]
    return np.column_stack(cols)


def corruption_sweep(model: QuantileModel, base, clean_data, corruption,
                     severities, m=5, binning="quantile", seed=0,
                     corrections=True) -> MetricsReport:
    """Accuracy and ECE per severity for the quantile-probability path
    (QUANT) and the base-classifier max-probability path (MSP).

    When ``corrections`` is on, Platt and isotonic maps are fit on the
    clean data's QUANT confidence stream and re-applied to the corrupted
    confidences at every severity (QUANT+platt, QUANT+isotonic). The maps
    adjust confidences only, so accuracy matches the QUANT rows.
    """
    severities = list(severities)
    if any(s2 < s1 for s1, s2 in zip(severities, severities[1:])):
        raise ValidationError("severities must be sorted ascending")
    features = clean_data.features
    labels = clean_data.labels
    k = model.class_count

    platt_map, iso_map = None, None
    if corrections:
        clean_probs = model_class_probabilities(model, features)
        conf, predicted = msp_confidence(clean_probs)
        correct = (predicted == labels).astype(np.float64)
        # Platt consumes logit-scale scores so a calibrated stream maps to
        # a near-identity correction
        platt_map = platt_fit(_logit(conf), correct)
        iso_map = isotonic_fit(conf, correct)

    report = MetricsReport()
    for severity in severities:
        x = corrupt_features(features, corruption, severity, seed=seed)
        quant_probs = model_class_probabilities(model, x)
        msp_probs = _base_probabilities(base, x, k)

        acc, val = _evaluate_stream(quant_probs, labels, m, binning)
        report.rows.append(SweepRow(float(severity), "QUANT", acc, val))
        msp_acc, msp_val = _evaluate_stream(msp_probs, labels, m, binning)
        report.rows.append(SweepRow(float(severity), "MSP", msp_acc, msp_val))

        if corrections:
            conf, predicted = msp_confidence(quant_probs)
            correct = (predicted == labels).astype(np.float64)
            for method, mapped in (
                ("QUANT+platt", np.clip(platt_apply(_logit(conf), platt_map), 0.0, 1.0)),
                ("QUANT+isotonic", np.clip(iso_map(conf), 0.0, 1.0)),
            ):
                value, _ = ece(mapped, correct, m=m, binning=binning)
                report.rows.append(SweepRow(float(severity), method, acc, value))
    return report
