"""Weighted binary linear classifiers.

Every fit runs scipy's L-BFGS-B on one loss callable that returns the
value and the gradient from a single ``features @ weights`` product. Both
losses are sums over samples, so the stopping rule scales with them: a fit
has converged when the gradient's L2 norm is at most
``tol * max(1, sum of sample weights)`` (``n`` for the unweighted
sigmoid-MAE fit), checked at the returned point, and ``max_iter`` caps the
L-BFGS iterations, whose count each fit records. Logistic fits start from
the zero vector or a warm start (the objective is convex); the sigmoid-MAE
fit is non-convex and uses seeded Gaussian multi-start. scipy is imported
by the functions that call it, so a process that fits nothing does not
load it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClassifierError, ValidationError

# Logit assigned to the observed class when a fit sees a single label.
_DEGENERATE_LOGIT = 25.0

# Seeded Gaussian starts of the sigmoid-MAE fit and their standard deviation.
_MAE_RESTARTS = 5
_MAE_INIT_STD = 0.1


@dataclass
class LinearClassifier:
    """Weight vector plus bias for one binary task.

    When ``normalized`` is set, the L2 norm of the concatenated
    (weights, bias) vector is 1. ``converged``, ``degenerate`` and
    ``iterations`` (L-BFGS iterations, 0 for a degenerate fit) are fit
    diagnostics and are not serialized.
    """

    weights: np.ndarray
    bias: float
    normalized: bool = False
    converged: bool = True
    degenerate: bool = False
    iterations: int = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = float(self.bias)

    def decision(self, features):
        """Raw logits weights @ x + bias per row."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        if features.shape[1] != self.weights.shape[0]:
            raise ValidationError(
                f"feature dimension {features.shape[1]} does not match classifier "
                f"dimension {self.weights.shape[0]}"
            )
        return features @ self.weights + self.bias

    def predict_proba(self, features):
        from scipy.special import expit

        return expit(self.decision(features))

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
        clf = cls(np.asarray(obj["weights"], dtype=np.float64),
                  float(obj["bias"]),
                  normalized=bool(obj["normalized"]))
        if not (np.all(np.isfinite(clf.weights)) and np.isfinite(clf.bias)):
            raise ValueError("classifier weights and bias must be finite")
        return clf


@dataclass
class FitConfig:
    l2_reg: float = 1e-4
    max_iter: int = 1000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValidationError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")
        if not 0 <= self.l2_reg < np.inf:
            raise ValidationError("l2_reg must be nonnegative and finite")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


def normalize_l2(clf: LinearClassifier) -> LinearClassifier:
    """Scale (weights, bias) to unit L2 norm; decision signs are preserved."""
    coef = clf.coefficients()
    nrm = np.linalg.norm(coef)
    if nrm == 0.0:
        raise DegenerateClassifierError("cannot normalize an all-zero classifier")
    return LinearClassifier(clf.weights / nrm, clf.bias / nrm, normalized=True,
                            converged=clf.converged, degenerate=clf.degenerate,
                            iterations=clf.iterations)


def _logistic_loss(theta, features, labels01, sample_weights, l2_reg, sigmoid):
    """Sum_i w_i * log(1 + exp(-s_i z_i)) + (l2_reg/2) * ||weights||^2 with
    s_i = 2 y_i - 1 and z = features @ weights + bias (bias unpenalized), and
    its gradient w.r.t. theta = (weights, bias), from one product.
    ``sigmoid`` is scipy's ``expit``, bound once per fit by the caller."""
    weights = theta[:-1]
    z = features @ weights + theta[-1]
    # log(1 + exp(-|z|)) + max(-sz, 0) form, stable for large |z|
    per = np.logaddexp(0.0, np.where(labels01 == 1, -z, z))
    resid = sample_weights * (sigmoid(z) - labels01)
    value = float(np.sum(sample_weights * per) + 0.5 * l2_reg * np.dot(weights, weights))
    return value, np.concatenate([features.T @ resid + l2_reg * weights,
                                  [float(np.sum(resid))]])


def _constant_bias(label_value):
    return _DEGENERATE_LOGIT if label_value == 1 else -_DEGENERATE_LOGIT


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
        if not np.all((sample_weights > 0) & np.isfinite(sample_weights)):
            raise ValidationError("sample_weights must be positive and finite")
    return features, labels01, sample_weights


def _minimize(loss, theta0, total_weight, config):
    """L-BFGS-B on ``loss(theta) -> (value, gradient)`` from ``theta0``,
    capped at ``config.max_iter`` iterations.

    Returns ``(theta, value, converged, iterations)``. Converged means
    ||gradient||_2 <= tol * max(1, total_weight) at the returned point,
    tested here rather than read from scipy. The projected-gradient stop is
    set so that it implies this test (||g||_2 <= sqrt(d+1) ||g||_inf), and
    the relative-reduction stop is off, so scipy does not end a fit that has
    not met it.
    """
    from scipy.optimize import minimize

    bound = config.tol * max(1.0, total_weight)
    res = minimize(loss, theta0, jac=True, method="L-BFGS-B",
                   options={"maxiter": config.max_iter, "ftol": 0.0,
                            "gtol": bound / np.sqrt(theta0.size)})
    value, grad = loss(res.x)
    return res.x, value, bool(np.linalg.norm(grad) <= bound), int(res.nit)


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
    from scipy.special import expit

    config = config or FitConfig()
    features, labels01, sample_weights = _validate_fit_inputs(
        features, labels01, sample_weights)
    d = features.shape[1]

    uniq = np.unique(labels01)
    if uniq.size == 1:
        return LinearClassifier(np.zeros(d), _constant_bias(int(uniq[0])),
                                degenerate=True)

    theta0 = np.zeros(d + 1) if warm_start is None else np.asarray(
        warm_start, dtype=np.float64)
    theta, _, converged, iterations = _minimize(
        lambda t: _logistic_loss(t, features, labels01, sample_weights, config.l2_reg,
                                 expit),
        theta0, float(np.sum(sample_weights)), config)
    return LinearClassifier(theta[:d], theta[d], converged=converged,
                            iterations=iterations)


def fit_sigmoid_mae(features, labels01, config: FitConfig | None = None) -> LinearClassifier:
    """Minimize sum_i |y_i - sigmoid(w @ x_i + b)| by multi-start L-BFGS-B.

    The objective is non-convex with flat saturated plateaus, so the best
    of several starts is returned: zero, five seeded Gaussian draws
    (standard deviation 0.1), and the logistic solution (whose separator is almost always in
    the right basin). ``converged`` and ``iterations`` are the returned
    start's.
    """
    from scipy.special import expit

    config = config or FitConfig()
    features, labels01, _ = _validate_fit_inputs(features, labels01, None)
    d = features.shape[1]

    uniq = np.unique(labels01)
    if uniq.size == 1:
        return LinearClassifier(np.zeros(d), _constant_bias(int(uniq[0])),
                                degenerate=True)

    sign = np.where(labels01 == 1, -1.0, 1.0)

    def loss(theta):
        # d/dz |y - sigmoid(z)| = sign * sigmoid'(z) with sign = -1 for y=1
        s = expit(features @ theta[:d] + theta[d])
        r = sign * s * (1.0 - s)
        return (float(np.sum(np.abs(labels01 - s))),
                np.concatenate([features.T @ r, [float(np.sum(r))]]))

    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(d + 1)]
    logistic = fit_weighted_logistic(features, labels01, config=config)
    starts.append(logistic.coefficients())
    for _ in range(_MAE_RESTARTS):
        starts.append(rng.normal(0.0, _MAE_INIT_STD, d + 1))

    best = (None, np.inf, False, 0)
    for theta0 in starts:
        fit = _minimize(loss, theta0, features.shape[0], config)
        if fit[1] < best[1]:
            best = fit
    theta, _, converged, iterations = best
    return LinearClassifier(theta[:d], theta[d], converged=converged,
                            iterations=iterations)
