"""Weighted binary linear classifiers.

Logistic fits (anchors, bases, Platt) run a damped Newton method in numpy
from the zero vector or a warm start: the objective is convex and has d+1
unknowns, so each step solves the exact (d+1)x(d+1) Hessian system and
backtracks until the Armijo condition holds. The sigmoid-MAE fit is
non-convex and runs scipy's L-BFGS-B from seeded Gaussian multi-starts;
scipy is imported there only, so a logistic fit loads no scipy module.
Both losses are sums over samples, so the stopping rule scales with them:
a fit has converged when the gradient's L2 norm is at most
``tol * max(1, sum of sample weights)`` (``n`` for the sigmoid-MAE fit),
checked at the returned point. ``max_iter`` caps the Newton steps (the
L-BFGS iterations for sigmoid-MAE), whose count each fit records.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Logit assigned to the observed class when a fit sees a single label.
_DEGENERATE_LOGIT = 25.0

# Seeded Gaussian starts of the sigmoid-MAE fit and their standard deviation.
_MAE_RESTARTS = 5
_MAE_INIT_STD = 0.1

# Armijo sufficient-decrease constant and the most step halvings per Newton step.
_ARMIJO_C = 1e-4
_MAX_HALVINGS = 30


def _sigmoid(z):
    """Logistic function as 1/2 (1 + tanh(z/2)): one ufunc, no overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass
class LinearClassifier:
    """Weight vector plus bias for one binary task.

    When ``normalized`` is set, the L2 norm of the concatenated
    (weights, bias) vector is 1. ``converged``, ``degenerate`` and
    ``iterations`` (solver steps, 0 for a degenerate fit) are fit
    diagnostics and are not serialized: a classifier read back by
    ``from_json_dict`` was not fitted there, so its ``converged`` and
    ``iterations`` are None.
    """

    weights: np.ndarray
    bias: float
    normalized: bool = False
    converged: bool | None = True
    degenerate: bool = False
    iterations: int | None = 0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = float(self.bias)

    def decision(self, features):
        """Raw logits weights @ x + bias per row; a 1-D array is n samples of
        one feature, as in ``fit_weighted_logistic``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[:, None]
        if features.shape[1] != self.weights.shape[0]:
            raise ValidationError(
                f"feature dimension {features.shape[1]} does not match classifier "
                f"dimension {self.weights.shape[0]}"
            )
        return features @ self.weights + self.bias

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
                  normalized=bool(obj["normalized"]), converged=None, iterations=None)
        if clf.weights.ndim != 1:
            raise ValueError(f"classifier weights must be a list of numbers, "
                             f"not an array of shape {clf.weights.shape}")
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


def _logistic_loss(theta, features, labels01, sample_weights, l2_reg):
    """Sum_i w_i * log(1 + exp(-s_i z_i)) + (l2_reg/2) * ||weights||^2 with
    s_i = 2 y_i - 1 and z = features @ weights + bias (bias unpenalized).

    Returns the value, its gradient w.r.t. theta = (weights, bias) and the
    per-sample curvature w_i sigma(z_i) (1 - sigma(z_i)), from which the
    Hessian is built, all from one product.
    """
    weights = theta[:-1]
    z = features @ weights + theta[-1]
    # log(1 + exp(-|z|)) + max(-sz, 0) form, stable for large |z|
    per = np.logaddexp(0.0, np.where(labels01 == 1, -z, z))
    sig = _sigmoid(z)
    resid = sample_weights * (sig - labels01)
    value = float(np.sum(sample_weights * per) + 0.5 * l2_reg * np.dot(weights, weights))
    grad = np.concatenate([features.T @ resid + l2_reg * weights, [float(np.sum(resid))]])
    return value, grad, sample_weights * sig * (1.0 - sig)


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
    capped at ``config.max_iter`` iterations: the non-convex sigmoid-MAE
    fit's solver.

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


def _backtrack(loss, theta, value, step, slope):
    """The first t of 1, 1/2, ..., 2^-_MAX_HALVINGS at which ``theta + t step``
    meets the Armijo condition, as ``(point, loss(point))``; None when
    there is none or ``step`` is not a descent direction."""
    if not slope < 0:          # NaN included
        return None
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        trial = loss(theta + t * step)
        # the difference, not value + c t slope, which rounds back to value
        if trial[0] - value <= _ARMIJO_C * t * slope:
            return theta + t * step, trial
        t *= 0.5
    return None


def _newton(features, labels01, sample_weights, theta0, config):
    """Damped Newton on the weighted logistic loss from ``theta0``.

    Each step solves (X~^T diag(curvature) X~ + diag(l2_reg, ..., l2_reg, 0)) p
    = -g with X~ = [features | 1]; a singular Hessian (an exactly
    duplicated column at ``l2_reg = 0``) takes the minimum-norm
    least-squares step instead. The step length halves from 1 until the
    Armijo condition holds (``_backtrack``). ``config.max_iter`` caps the
    steps. A line search that fails from a warm start restarts the fit
    once from zero: a start with saturated margins (the optimum of a
    separable neighbour at ``l2_reg = 0``) has a Hessian near zero along
    the directions that matter. One that fails from zero ends the fit
    where it stands. Returns ``(theta, converged, steps)``; converged means
    ||g||_2 <= tol * max(1, W) at the returned point, W the total weight.
    """
    def loss(theta):
        return _logistic_loss(theta, features, labels01, sample_weights, config.l2_reg)

    bound = config.tol * max(1.0, float(np.sum(sample_weights)))
    xt = np.column_stack([features, np.ones(features.shape[0])])
    ridge = np.arange(features.shape[1])
    zero = np.zeros(xt.shape[1])
    theta, state = theta0, loss(theta0)
    cold = not np.any(theta0)
    steps = 0
    while np.linalg.norm(state[1]) > bound and steps < config.max_iter:
        value, grad, curv = state
        hess = (xt.T * curv) @ xt
        hess[ridge, ridge] += config.l2_reg
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        found = _backtrack(loss, theta, value, step, float(grad @ step))
        if found is not None:
            (theta, state), steps = found, steps + 1
        elif cold:
            break
        else:
            theta, state, cold = zero, loss(zero), True
    return theta, bool(np.linalg.norm(state[1]) <= bound), steps


def fit_weighted_logistic(features, labels01, sample_weights=None,
                          config: FitConfig | None = None,
                          warm_start=None) -> LinearClassifier:
    """Minimize the weighted logistic loss with an L2 ridge on the weights
    by damped Newton steps (``_newton``).

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
        return LinearClassifier(np.zeros(d), _constant_bias(int(uniq[0])),
                                degenerate=True)

    theta0 = np.zeros(d + 1) if warm_start is None else np.asarray(
        warm_start, dtype=np.float64)
    theta, converged, iterations = _newton(features, labels01, sample_weights,
                                           theta0, config)
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
        s = _sigmoid(features @ theta[:d] + theta[d])
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
