"""Weighted binary linear classifiers.

Every fit runs scipy's L-BFGS-B. Both losses are sums over samples, so
the stopping rule scales with them: a fit has converged when the
gradient's L2 norm is at most ``tol * max(1, sum of sample weights)``
(``n`` for the unweighted sigmoid-MAE fit), checked at the returned
point, and ``max_iter`` caps the L-BFGS iterations. Logistic fits start
from the zero vector or a warm start (the objective is convex); the
sigmoid-MAE fit is non-convex and uses seeded Gaussian multi-start.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit as sigmoid

from .errors import DegenerateClassifierError, ValidationError

# Logit assigned to the observed class when a fit sees a single label.
_DEGENERATE_LOGIT = 25.0


@dataclass
class LinearClassifier:
    """Weight vector plus bias for one binary task.

    When ``normalized`` is set, the L2 norm of the concatenated
    (weights, bias) vector is 1. ``converged`` and ``degenerate`` are fit
    diagnostics and are not serialized.
    """

    weights: np.ndarray
    bias: float
    normalized: bool = False
    converged: bool = True
    degenerate: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = float(self.bias)

    def decision(self, features):
        return decision(self, features)

    def predict_proba(self, features):
        return sigmoid(self.decision(features))

    def coefficients(self):
        """Concatenated (weights, bias) vector of length d+1."""
        return np.concatenate([self.weights, [self.bias]])

    def to_json_dict(self):
        return {
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
            "normalized": bool(self.normalized),
        }

    @classmethod
    def from_json_dict(cls, obj):
        return cls(np.asarray(obj["weights"], dtype=np.float64),
                   float(obj["bias"]),
                   normalized=bool(obj["normalized"]))


@dataclass
class FitConfig:
    l2_reg: float = 1e-4
    max_iter: int = 1000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValidationError("tol must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if self.l2_reg < 0:
            raise ValidationError("l2_reg must be nonnegative")


def decision(clf: LinearClassifier, features):
    """Raw logits weights @ x + bias per row."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[None, :]
    if features.shape[1] != clf.weights.shape[0]:
        raise ValidationError(
            f"feature dimension {features.shape[1]} does not match classifier "
            f"dimension {clf.weights.shape[0]}"
        )
    return features @ clf.weights + clf.bias


def normalize_l2(clf: LinearClassifier) -> LinearClassifier:
    """Scale (weights, bias) to unit L2 norm; decision signs are preserved."""
    coef = clf.coefficients()
    nrm = np.linalg.norm(coef)
    if nrm == 0.0:
        raise DegenerateClassifierError("cannot normalize an all-zero classifier")
    return LinearClassifier(clf.weights / nrm, clf.bias / nrm, normalized=True,
                            converged=clf.converged, degenerate=clf.degenerate)


def logistic_objective(features, labels01, sample_weights, weights, bias, l2_reg):
    """Sum_i w_i * logloss_i + (l2_reg/2) * ||weights||^2 (bias unpenalized)."""
    z = features @ weights + bias
    # log(1 + exp(-|z|)) + max(-yz, 0) form, stable for large |z|
    y = labels01
    per = np.logaddexp(0.0, -z) * y + np.logaddexp(0.0, z) * (1 - y)
    return float(np.sum(sample_weights * per) + 0.5 * l2_reg * np.dot(weights, weights))


def logistic_gradient(features, labels01, sample_weights, weights, bias, l2_reg):
    """Gradient of :func:`logistic_objective` w.r.t. (weights, bias)."""
    z = features @ weights + bias
    resid = sample_weights * (sigmoid(z) - labels01)
    grad_w = features.T @ resid + l2_reg * weights
    grad_b = float(np.sum(resid))
    return grad_w, grad_b


def _constant_classifier(label_value):
    bias = _DEGENERATE_LOGIT if label_value == 1 else -_DEGENERATE_LOGIT
    return None, bias


def _validate_fit_inputs(features, labels01, sample_weights):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    if not np.all(np.isfinite(features)):
        raise ValidationError("features contain non-finite values")
    labels01 = np.asarray(labels01, dtype=np.float64)
    if labels01.shape != (features.shape[0],):
        raise ValidationError("labels length must match feature rows")
    if not np.all((labels01 == 0) | (labels01 == 1)):
        raise ValidationError("labels must be binary 0/1")
    if sample_weights is None:
        sample_weights = np.ones(features.shape[0])
    else:
        sample_weights = np.asarray(sample_weights, dtype=np.float64)
        if sample_weights.shape != labels01.shape:
            raise ValidationError("sample_weights length must match labels")
        if np.any(sample_weights <= 0):
            raise ValidationError("sample_weights must be strictly positive")
    return features, labels01, sample_weights


def _minimize(objective, gradient, theta0, total_weight, config):
    """L-BFGS-B from ``theta0``, capped at ``config.max_iter`` iterations.

    Converged means ||gradient||_2 <= tol * max(1, total_weight) at the
    returned point, tested here rather than read from scipy. The
    projected-gradient stop is set so that it implies this test
    (||g||_2 <= sqrt(d+1) ||g||_inf), and the relative-reduction stop is
    off, so scipy does not end a fit that has not met it.
    """
    bound = config.tol * max(1.0, total_weight)
    res = minimize(lambda t: (objective(t), gradient(t)), theta0, jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": config.max_iter, "ftol": 0.0,
                            "gtol": bound / np.sqrt(theta0.size)})
    theta = res.x
    return theta, bool(np.linalg.norm(gradient(theta)) <= bound)


def fit_weighted_logistic(features, labels01, sample_weights=None,
                          config: FitConfig | None = None,
                          warm_start=None) -> LinearClassifier:
    """Minimize the weighted logistic loss with an L2 ridge on the weights.

    The objective is convex, so the returned minimizer does not depend on
    the start; ``warm_start`` (a length d+1 coefficient vector) only speeds
    up sequences of related fits. Single-label input does not error: it
    returns a constant classifier (zero weights, large-magnitude bias of
    the observed class) flagged as degenerate, because extreme-quantile
    pseudo-datasets are routinely one-class.
    """
    config = config or FitConfig()
    features, labels01, sample_weights = _validate_fit_inputs(
        features, labels01, sample_weights)
    d = features.shape[1]

    uniq = np.unique(labels01)
    if uniq.size == 1:
        _, bias = _constant_classifier(int(uniq[0]))
        return LinearClassifier(np.zeros(d), bias, degenerate=True)

    def objective(theta):
        return logistic_objective(features, labels01, sample_weights,
                                  theta[:d], theta[d], config.l2_reg)

    def gradient(theta):
        gw, gb = logistic_gradient(features, labels01, sample_weights,
                                   theta[:d], theta[d], config.l2_reg)
        return np.concatenate([gw, [gb]])

    theta0 = np.zeros(d + 1) if warm_start is None else np.asarray(
        warm_start, dtype=np.float64)
    theta, converged = _minimize(objective, gradient, theta0,
                                 float(np.sum(sample_weights)), config)
    return LinearClassifier(theta[:d], theta[d], converged=converged)


def sigmoid_mae_objective(features, labels01, weights, bias):
    """Mean absolute error of sigmoid predictions, sum_i |y_i - sigmoid(z_i)|."""
    p = sigmoid(features @ weights + bias)
    return float(np.sum(np.abs(labels01 - p)))


def fit_sigmoid_mae(features, labels01, config: FitConfig | None = None,
                    n_restarts=5, init_std=0.1) -> LinearClassifier:
    """Minimize sum_i |y_i - sigmoid(w @ x_i + b)| by multi-start L-BFGS-B.

    The objective is non-convex with flat saturated plateaus, so the best
    of several starts is returned: zero, ``n_restarts`` seeded Gaussian
    draws, and the logistic solution (whose separator is almost always in
    the right basin).
    """
    config = config or FitConfig()
    features, labels01, _ = _validate_fit_inputs(features, labels01, None)
    d = features.shape[1]

    uniq = np.unique(labels01)
    if uniq.size == 1:
        _, bias = _constant_classifier(int(uniq[0]))
        return LinearClassifier(np.zeros(d), bias, degenerate=True)

    sign = np.where(labels01 == 1, -1.0, 1.0)

    def objective(theta):
        return sigmoid_mae_objective(features, labels01, theta[:d], theta[d])

    def gradient(theta):
        # d/dz |y - sigmoid(z)| = sign * sigmoid'(z) with sign = -1 for y=1
        z = features @ theta[:d] + theta[d]
        s = sigmoid(z)
        r = sign * s * (1.0 - s)
        return np.concatenate([features.T @ r, [float(np.sum(r))]])

    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(d + 1)]
    logistic = fit_weighted_logistic(features, labels01, config=config)
    starts.append(logistic.coefficients())
    for _ in range(n_restarts):
        starts.append(rng.normal(0.0, init_std, d + 1))

    best_theta, best_val, best_conv = None, np.inf, False
    for theta0 in starts:
        theta, converged = _minimize(objective, gradient, theta0,
                                     features.shape[0], config)
        val = objective(theta)
        if val < best_val:
            best_theta, best_val, best_conv = theta, val, converged
    return LinearClassifier(best_theta[:d], best_theta[d], converged=best_conv)
