"""Weighted binary linear classifiers.

Logistic fits (anchors, bases, Platt) run a damped Newton method in numpy
from the zero vector or a warm start: the objective is convex and has d+1
unknowns, so each step solves the exact (d+1)x(d+1) Hessian system and
backtracks until the Armijo condition holds. One loop (``_newton``) runs a
stack of fits that share their features, each with its own labels,
weights, start and step count: a task's anchors in one stack, a base or
Platt fit as a stack of one; a fit that sees one label alone ends there at
a constant classifier. The sigmoid-MAE fit is non-convex and runs scipy's
L-BFGS-B from seeded Gaussian multi-starts; scipy is imported there only,
so a logistic fit loads no scipy module.
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

    ``converged``, ``degenerate`` and ``iterations`` (solver steps, 0 for a
    degenerate fit) are fit diagnostics and are not serialized: a
    classifier read back by ``from_json_dict`` was not fitted there, so its
    ``converged`` and ``iterations`` are None.
    """

    weights: np.ndarray
    bias: float
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
        return {"weights": [float(w) for w in self.weights], "bias": float(self.bias)}

    @classmethod
    def from_json_dict(cls, obj):
        extra = sorted(set(obj) - {"weights", "bias"})
        if extra:
            raise ValueError(f"a classifier holds only weights and bias, not {extra}")
        clf = cls(np.asarray(obj["weights"], dtype=np.float64), float(obj["bias"]),
                  converged=None, iterations=None)
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


def _padded_transpose(features):
    """[features | 1]^T, a contiguous (d+1, n) array: the logits, gradients
    and Hessians of the Newton loop are all products with it."""
    return np.vstack([features.T, np.ones(features.shape[0])])


def _loss_value(z, theta, signs, sample_weights, l2_reg):
    """The loss at logits ``z`` of ``theta``, one value per fit; ``signs``
    is 1 - 2 y."""
    # log(1 + exp(-|u|)) + max(u, 0) at u = signs * z, stable for large |z|,
    # in place: on the two-moons anchor fits these ufuncs took 2/3 the time
    # of np.logaddexp(0, u) on a Xeon, and fresh (m, n) temporaries cost more
    margin = signs * z
    per = np.abs(margin)
    np.negative(per, out=per)
    np.exp(per, out=per)
    np.log1p(per, out=per)
    per += np.maximum(margin, 0.0, out=margin)
    per *= sample_weights
    weights = theta[..., :-1]
    return np.sum(per, axis=-1) + 0.5 * l2_reg * np.sum(weights * weights, axis=-1)


def _loss_derivatives(z, theta, padded_t, labels01, sample_weights, l2_reg):
    """The gradient w.r.t. theta at logits ``z`` of ``theta`` and the
    per-sample curvature w_i sigma(z_i) (1 - sigma(z_i)), from which the
    Hessian is built."""
    sig = _sigmoid(z)
    resid = sig - labels01
    resid *= sample_weights
    grad = resid @ padded_t.T
    grad[..., :-1] += l2_reg * theta[..., :-1]
    curv = 1.0 - sig
    curv *= sig
    curv *= sample_weights
    return grad, curv


def _logistic_loss(theta, features, labels01, sample_weights, l2_reg):
    """Sum_i w_i * log(1 + exp(-s_i z_i)) + (l2_reg/2) * ||weights||^2 with
    s_i = 2 y_i - 1 and z = features @ weights + bias (bias unpenalized).

    Returns the value, its gradient w.r.t. theta = (weights, bias) and the
    per-sample curvature, all from one product. ``theta`` may be a stack
    (m, d+1) of fits with (m, n) labels and weights: then each is per row.
    """
    padded_t = _padded_transpose(features)
    z = theta @ padded_t
    return (_loss_value(z, theta, 1.0 - 2.0 * labels01, sample_weights, l2_reg),
            *_loss_derivatives(z, theta, padded_t, labels01, sample_weights, l2_reg))


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


def _backtrack(padded_t, signs, sample_weights, l2_reg, theta, value, step, slope):
    """Per row of the stack ``theta``, the first t of 1, 1/2, ...,
    2^-_MAX_HALVINGS at which ``theta + t step`` meets the Armijo condition.

    Trials compute the loss value only. Returns ``(found, point, z,
    point_value)``: a mask of the rows that found one, and for those rows
    the point, its logits and its value. A row whose ``step`` is not a
    descent direction finds none.
    """
    t = np.ones(theta.shape[0])
    found = np.zeros(theta.shape[0], dtype=bool)
    point, point_value = np.empty_like(theta), np.empty_like(value)
    z = np.empty(signs.shape)
    searching = slope < 0          # NaN fails it
    for _ in range(_MAX_HALVINGS + 1):
        rows = np.flatnonzero(searching)
        if rows.size == 0:
            break
        trial = theta[rows] + t[rows, None] * step[rows]
        trial_z = trial @ padded_t
        trial_value = _loss_value(trial_z, trial, signs[rows], sample_weights[rows], l2_reg)
        # the difference, not value + c t slope, which rounds back to value
        ok = trial_value - value[rows] <= _ARMIJO_C * t[rows] * slope[rows]
        met = rows[ok]
        point[met], z[met], point_value[met] = trial[ok], trial_z[ok], trial_value[ok]
        found[met], searching[met] = True, False
        t[rows] *= 0.5
    return found, point, z, point_value


def _hessians(padded_t, curv, l2_reg):
    """The Hessians X~^T diag(curv_j) X~ + diag(l2_reg, ..., l2_reg, 0), with
    X~ = [features | 1] (``padded_t`` is its transpose), of each row of the
    (m, n) curvature stack ``curv``, as one (m, d+1, d+1) array.

    The rows go in d+1 blocks. Per block, the products (curv_j x~_a) over
    (j, a) form one (m (d+1), rows) matrix, about the size of ``curv``,
    and one product of it with the block of X~ adds every Hessian's share.
    """
    m, (width, n) = curv.shape[0], padded_t.shape
    hess = np.zeros((m * width, width))
    rows = -(-n // width)
    for lo in range(0, n, rows):
        block = padded_t[:, lo:lo + rows]
        hess += (curv[:, None, lo:lo + rows] * block).reshape(m * width, -1) @ block.T
    hess = hess.reshape(m, width, width)
    diag = np.arange(width - 1)
    hess[:, diag, diag] += l2_reg
    return hess


def _regular(hess):
    """Per matrix of the stack ``hess``, whether it has a Cholesky factor
    whose every squared pivot exceeds (d+1) eps times its diagonal entry."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(hess), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        return False if hess.ndim == 2 else np.array([_regular(h) for h in hess])
    floor = hess.shape[-1] * np.finfo(np.float64).eps
    return np.all(pivots > floor * np.diagonal(hess, axis1=-2, axis2=-1), axis=-1)


def _newton_steps(hess, grad):
    """-hess^-1 grad per row. A Hessian singular to working precision
    (``_regular``), as an exactly duplicated column at ``l2_reg = 0`` makes
    it, takes the minimum-norm least-squares step instead: rounding can
    leave LU a tiny pivot there, and an arbitrary step along the null
    direction. A Hessian that is not finite (features that overflow) gives
    a NaN step, which no line search accepts."""
    regular = _regular(hess)
    steps = np.full_like(grad, np.nan)
    steps[regular] = np.linalg.solve(hess[regular], -grad[regular, :, None])[:, :, 0]
    for j in np.flatnonzero(~regular & np.all(np.isfinite(hess), axis=(1, 2))):
        steps[j] = np.linalg.lstsq(hess[j], -grad[j], rcond=None)[0]
    return steps


def _newton(features, labels01, sample_weights, theta0, config):
    """Damped Newton on the weighted logistic loss, for a stack of m fits
    that share ``features``: row j of the (m, n) ``labels01`` and
    ``sample_weights`` is fit j, started from row j of ``theta0`` (m, d+1).

    Each round takes one step for every fit still running: all their
    Hessians come from ``_hessians``, and each solves its own
    (d+1)x(d+1) system (``_newton_steps``). Each step's length halves from
    1 until the Armijo condition holds (``_backtrack``). ``config.max_iter``
    caps a fit's steps. A line search that fails from a nonzero start
    restarts that fit once from zero: a start with saturated margins (the
    optimum of a separable neighbour at ``l2_reg = 0``) has a Hessian near
    zero along the directions that matter. One that fails from zero ends
    the fit where it stands. A fit whose labels are one class is
    degenerate: it ends, converged, after 0 steps at the constant
    classifier of that class (zero weights, bias +-``_DEGENERATE_LOGIT``),
    whatever its start, which may be infinite. Returns ``(theta,
    converged, steps, degenerate)``, one row or entry per fit; converged
    means degenerate or ||g||_2 <= tol * max(1, W) at the returned point,
    W the fit's total weight.
    """
    l2_reg = config.l2_reg
    bound = config.tol * np.maximum(1.0, np.sum(sample_weights, axis=1))
    padded_t, signs = _padded_transpose(features), 1.0 - 2.0 * labels01
    theta = np.array(theta0, dtype=np.float64)
    # an empty row has no class, so it is not degenerate
    high = np.max(labels01, axis=1, initial=0.0)
    degenerate = high == np.min(labels01, axis=1, initial=1.0)
    theta[degenerate] = 0.0
    theta[degenerate, -1] = np.where(high[degenerate] == 1, _DEGENERATE_LOGIT, -_DEGENERATE_LOGIT)
    value, grad, curv = _logistic_loss(theta, features, labels01, sample_weights, l2_reg)
    cold = ~np.any(theta, axis=1)
    steps = np.zeros(theta.shape[0], dtype=np.int64)
    ended = degenerate.copy()
    while True:
        running = np.flatnonzero((np.linalg.norm(grad, axis=1) > bound)
                                 & (steps < config.max_iter) & ~ended)
        if running.size == 0:
            break
        step = _newton_steps(_hessians(padded_t, curv[running], l2_reg), grad[running])
        found, point, z, point_value = _backtrack(
            padded_t, signs[running], sample_weights[running], l2_reg, theta[running],
            value[running], step, np.sum(grad[running] * step, axis=1))
        moved = running[found]
        theta[moved], value[moved] = point[found], point_value[found]
        grad[moved], curv[moved] = _loss_derivatives(
            z[found], point[found], padded_t, labels01[moved], sample_weights[moved], l2_reg)
        steps[moved] += 1
        failed = running[~found]
        ended[failed[cold[failed]]] = True
        restart = failed[~cold[failed]]
        if restart.size:
            theta[restart], cold[restart] = 0.0, True
            value[restart], grad[restart], curv[restart] = _logistic_loss(
                theta[restart], features, labels01[restart], sample_weights[restart], l2_reg)
    return theta, (np.linalg.norm(grad, axis=1) <= bound) | degenerate, steps, degenerate


def fit_weighted_logistic(features, labels01, sample_weights=None,
                          config: FitConfig | None = None,
                          warm_start=None) -> LinearClassifier:
    """Minimize the weighted logistic loss with an L2 ridge on the weights
    by damped Newton steps: ``_newton`` on a stack of one fit.

    The objective is convex, so the returned minimizer does not depend on
    the start; ``warm_start``, a finite coefficient vector of length d+1
    (``ValidationError`` otherwise), only saves steps. Single-label input
    does not error: ``_newton`` returns the constant classifier of the
    observed class, flagged as degenerate.
    """
    config = config or FitConfig()
    features, labels01, sample_weights = _validate_fit_inputs(
        features, labels01, sample_weights)
    d = features.shape[1]
    theta0 = np.zeros(d + 1) if warm_start is None else np.asarray(
        warm_start, dtype=np.float64)
    if theta0.shape != (d + 1,) or not np.all(np.isfinite(theta0)):
        raise ValidationError(f"warm_start must be a finite vector of length {d + 1}")

    theta, converged, steps, degenerate = _newton(
        features, labels01[None], sample_weights[None], theta0[None], config)
    return LinearClassifier(theta[0, :d], theta[0, d], converged=bool(converged[0]),
                            degenerate=bool(degenerate[0]), iterations=int(steps[0]))


def fit_sigmoid_mae(features, labels01, config: FitConfig | None = None) -> LinearClassifier:
    """Minimize sum_i |y_i - sigmoid(w @ x_i + b)| by multi-start L-BFGS-B.

    The objective is non-convex with flat saturated plateaus, so the best
    of several starts is returned: zero, five seeded Gaussian draws
    (standard deviation 0.1), and the logistic solution (whose separator is almost always in
    the right basin). ``converged`` and ``iterations`` are the returned
    start's. Single-label input returns the logistic fit's constant
    classifier.
    """
    config = config or FitConfig()
    features, labels01, _ = _validate_fit_inputs(features, labels01, None)
    d = features.shape[1]
    logistic = fit_weighted_logistic(features, labels01, config=config)
    if logistic.degenerate:
        return logistic

    sign = np.where(labels01 == 1, -1.0, 1.0)

    def loss(theta):
        # d/dz |y - sigmoid(z)| = sign * sigmoid'(z) with sign = -1 for y=1
        s = _sigmoid(features @ theta[:d] + theta[d])
        r = sign * s * (1.0 - s)
        return (float(np.sum(np.abs(labels01 - s))),
                np.concatenate([features.T @ r, [float(np.sum(r))]]))

    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(d + 1), logistic.coefficients()]
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
