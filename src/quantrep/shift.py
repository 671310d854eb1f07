"""Estimating an unknown deterministic feature transform between two data
epochs by matching their quantile representations.

The quantile models fitted on the two epochs describe the same labeled
distribution in different coordinates, so the logit fields should agree
once the newer features are mapped back through the inverse transform.
The estimator minimizes the mean absolute logit discrepancy over a
transform family with derivative-free scipy searches: a 1 degree scan
refined by bounded Brent for rotations, and one Powell search over the
inverse map, where the objective is convex, for affine maps.

A search evaluates that objective thousands of times for one pair of
models and one t1 sample, so it is a :class:`FieldGap` of the inverse map
x -> P x + q given as arrays: the logits are affine in the features, so
one task's gap is a single affine field of the t1 sample, summed in
absolute value over row blocks of about ``quantile._BLOCK_BYTES``. Both
searches move in (P, q) and build a :class:`Transform` only to report.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .linear import FitConfig
from .quantile import (
    QuantileModel,
    _block_rows,
    fit_base_classifiers,
    fit_quantile_model,
)

_MAX_CONDITION = 1e8
_ANGLE_STEP = math.radians(1.0)  # rotation scan; also the tie detector's grid
_REFINE_TOL = 1e-4               # radians, bounded-Brent stop width
_TIE_TOL = 1e-6                  # near-optimum reporting threshold


def _rotation(angle, reflect):
    """The rotation by ``angle`` radians, after a y-axis sign flip if ``reflect``."""
    c, s, flip = math.cos(angle), math.sin(angle), -1.0 if reflect else 1.0
    return np.array([[c, -s * flip], [s, c * flip]])


@dataclass
class Transform:
    """A member of a parametric transform family, x -> A x + b.

    orthogonal-2d: A is the rotation by ``angle`` radians, optionally after
    a reflection (y-axis sign flip), and b = 0. affine: A = ``matrix``, b =
    ``offset`` (zeros when omitted). Construction stores A in ``matrix``, b
    in ``offset`` and A's inverse: A transposed for a rotation, else inv(A).
    """

    family: str
    angle: float = 0.0
    reflect: bool = False
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.family == "orthogonal-2d":
            self.angle = float(self.angle)
            self.matrix = _rotation(self.angle, self.reflect)
            self.offset = np.zeros(2)
            self._inverse = self.matrix.T
        elif self.family == "affine":
            self.matrix = np.asarray(self.matrix, dtype=np.float64)
            d = self.matrix.shape[0]
            if self.matrix.shape != (d, d):
                raise ValidationError("affine matrix must be square")
            self.offset = (np.zeros(d) if self.offset is None
                           else np.asarray(self.offset, dtype=np.float64))
            if np.linalg.cond(self.matrix) >= _MAX_CONDITION:
                raise ValidationError("affine matrix is not invertible enough")
            self._inverse = np.linalg.inv(self.matrix)
        else:
            raise ConfigError(f"unknown transform family: {self.family!r}")

    def _check(self, features):
        features = np.asarray(features, dtype=np.float64)
        if features.shape[1] != self.matrix.shape[0]:
            raise ValidationError("feature dimension does not match transform")
        return features

    def apply(self, features):
        return self._check(features) @ self.matrix.T + self.offset

    def apply_inverse(self, features):
        return (self._check(features) - self.offset) @ self._inverse.T

    def inverse_map(self):
        """The inverse transform as ``(P, q)``, x -> P x + q."""
        return self._inverse, -self._inverse @ self.offset

    def to_json_dict(self):
        if self.family == "orthogonal-2d":
            return {"family": self.family,
                    "params": {"angle_deg": math.degrees(self.angle),
                               "reflect": bool(self.reflect)}}
        return {"family": self.family,
                "params": {"matrix": self.matrix.tolist(),
                           "offset": self.offset.tolist()}}


class FieldGap:
    """The matching objective of one pair of models on one t1 sample, as a
    function of the inverse map ``(p, q)``, x -> p x + q.

    The two models must share class count, dense grid and feature
    dimension, so their stored tasks pair up; the samples must have that
    dimension too. A t0 task's logits at ``P x + q`` are ``x~ @ C0'.T``
    with ``x~ = (x, 1)`` and ``C0' = [W0 P | b0 + W0 q]``, so each call
    builds ``D = C0' - C1`` per task and returns the mean of |x~ @ D.T|
    over samples, tasks and dense taus. That field is evaluated in row
    blocks of about ``_BLOCK_BYTES`` into one buffer owned by this
    evaluator; two evaluators never share a buffer.

    For binary models this is also the mean over the whole representations:
    the class-0 slice ``represent`` mirrors is the class-1 slice negated and
    reversed in tau, so its absolute gaps are the stored task's, reordered.
    """

    def __init__(self, model_t0: QuantileModel, model_t1: QuantileModel,
                 samples_t1):
        if (model_t0.class_count != model_t1.class_count
                or not np.array_equal(model_t0.grid.dense, model_t1.grid.dense)):
            raise ValidationError("the two models must share grid and class count")
        samples = np.asarray(samples_t1, dtype=np.float64)
        if not model_t0.feature_dim == model_t1.feature_dim == samples.shape[1]:
            raise ValidationError(
                f"feature dimensions differ: t0 model {model_t0.feature_dim}, "
                f"t1 model {model_t1.feature_dim}, samples {samples.shape[1]}")
        self._padded = np.column_stack([samples, np.ones(samples.shape[0])])
        self._pairs = [(t0.dense_coefficients, t1.dense_coefficients)
                       for t0, t1 in zip(model_t0.tasks, model_t1.tasks)]
        n_dense = model_t1.grid.n_dense
        self._buf = np.empty((min(samples.shape[0], _block_rows(n_dense)), n_dense))

    def __call__(self, p, q):
        n, d = self._padded.shape[0], self._padded.shape[1] - 1
        if p.shape[0] != d:
            raise ValidationError("feature dimension does not match transform")
        rows, n_dense = self._buf.shape
        total = 0.0
        for coef0, coef1 in self._pairs:
            w0 = coef0[:, :d]
            diff = np.column_stack([w0 @ p, coef0[:, d] + w0 @ q]) - coef1
            for lo in range(0, n, rows):
                block = self._buf[:min(rows, n - lo)]
                np.matmul(self._padded[lo:lo + rows], diff.T, out=block)
                np.abs(block, out=block)
                total += float(block.sum())
        return total / (len(self._pairs) * n * n_dense)


def matching_objective(model_t0: QuantileModel, model_t1: QuantileModel,
                       inv_transform: Transform, samples_t1):
    """Mean over samples, stored tasks and dense taus of the absolute logit
    gap between the old model at the mapped-back point and the new model at
    the point itself (see :class:`FieldGap`). Zero when both pictures agree
    exactly."""
    return FieldGap(model_t0, model_t1, samples_t1)(*inv_transform.inverse_map())


@dataclass
class TransformEstimate:
    """The best transform found and its objective.

    ``near_ties`` lists grid members within 1e-6 of the optimum (a
    symmetric construction). ``rank_deficient`` marks an affine search on a
    t0 dense field (bias column dropped, stacked over tasks) of rank below
    d: the field then sees only a subspace of the features, and the
    objective cannot tell the map from maps that differ off it. Either
    makes the estimate not identifiable.
    """

    transform: Transform
    objective: float
    near_ties: list = field(default_factory=list)
    rank_deficient: bool = False

    @property
    def identifiable(self):
        return not self.near_ties and not self.rank_deficient


def _estimate_orthogonal(gap):
    from scipy.optimize import minimize_scalar

    n_steps = int(round(2.0 * math.pi / _ANGLE_STEP))
    grid_vals = []  # (objective, angle, reflect)

    def objective_at(angle, reflect):
        return gap(_rotation(angle, reflect).T, np.zeros(2))

    for reflect in (False, True):
        for i in range(n_steps):
            angle = i * _ANGLE_STEP
            grid_vals.append((objective_at(angle, reflect), angle, reflect))

    best_obj, best_angle, best_reflect = min(grid_vals, key=lambda v: v[0])
    refined = minimize_scalar(lambda a: objective_at(a, best_reflect),
                              bounds=(best_angle - _ANGLE_STEP, best_angle + _ANGLE_STEP),
                              method="bounded", options={"xatol": _REFINE_TOL})
    if refined.fun <= best_obj:
        best_obj, best_angle = float(refined.fun), float(refined.x)

    best = Transform("orthogonal-2d", angle=best_angle % (2.0 * math.pi),
                     reflect=best_reflect)
    ties = [
        Transform("orthogonal-2d", angle=angle, reflect=reflect)
        for obj, angle, reflect in grid_vals
        if obj <= best_obj + _TIE_TOL
        and not (reflect == best_reflect
                 and _angle_distance(angle, best_angle) <= 2.0 * _ANGLE_STEP)
    ]
    return TransformEstimate(best, best_obj, ties)


def _angle_distance(a, b):
    diff = (a - b) % (2.0 * math.pi)
    return min(diff, 2.0 * math.pi - diff)


def _affine_objective(theta, gap, d):
    """``gap`` at ``theta = (P.ravel(), q)``; ``inf`` unless theta is finite
    and cond(P) < ``_MAX_CONDITION`` (the SVD behind cond fails on NaN)."""
    if not np.all(np.isfinite(theta)):
        return np.inf
    p = theta[:d * d].reshape(d, d)
    return gap(p, theta[d * d:]) if np.linalg.cond(p) < _MAX_CONDITION else np.inf


def _estimate_affine(gap, model_t0, d):
    """One Powell search over the inverse map x -> P x + q from the identity.

    The t0 logits at ``P x + q`` are affine in (P, q), so the objective, a
    mean of absolute values of affine functions, is convex in (P, q): it has
    no other basin for restarts to find. Powell is a local, derivative-free
    method, though, and may stop at a kink of this piecewise-linear objective
    short of its minimum; the reported objective is only known to be at or
    below the objective at the true map.
    """
    from scipy.optimize import minimize

    theta0 = np.concatenate([np.eye(d).ravel(), np.zeros(d)])
    theta = minimize(_affine_objective, theta0, args=(gap, d), method="Powell").x
    inv_p = np.linalg.inv(theta[:d * d].reshape(d, d))
    best = Transform("affine", matrix=inv_p, offset=-inv_p @ theta[d * d:])
    field_t0 = np.vstack([t.dense_coefficients[:, :d] for t in model_t0.tasks])
    return TransformEstimate(best, gap(*best.inverse_map()), [],
                             rank_deficient=bool(np.linalg.matrix_rank(field_t0) < d))


def _check_search_inputs(family, feature_dim, class_count, data_t1):
    """The inputs a search over ``family`` takes: a t1 epoch with the t0
    model's feature dimension and class count, 2-d features for rotations
    and at most 10 for affine maps. Cheap, so callers run it before any fit."""
    if (data_t1.d, data_t1.k) != (feature_dim, class_count):
        raise ValidationError(f"t1 data has {data_t1.d} features and {data_t1.k} classes, "
                              f"t0 has {feature_dim} and {class_count}")
    if family == "orthogonal-2d":
        if feature_dim != 2:
            raise ConfigError("orthogonal-2d requires 2-d features")
    elif family == "affine":
        if feature_dim > 10:
            raise ConfigError("affine search supported for d <= 10")
    else:
        raise ConfigError(f"unknown transform family: {family!r}")


def estimate_transform(family, model_t0: QuantileModel, data_t1,
                       fit_config: FitConfig | None = None):
    """Fit a quantile model on the newer labeled epoch, on ``model_t0``'s
    grid, then minimize the matching objective over the chosen family.

    Returns a :class:`TransformEstimate` whose ``near_ties`` lists grid
    members indistinguishable from the optimum; a nonempty list signals a
    non-identifiable (symmetric) construction rather than a unique answer.
    An affine estimate is also not identifiable when the t0 dense field is
    rank deficient (see :class:`TransformEstimate`). Inputs the family
    cannot take raise before the t1 model is fitted.
    """
    _check_search_inputs(family, model_t0.feature_dim, model_t0.class_count, data_t1)
    fit_config = fit_config or FitConfig()
    bases1 = fit_base_classifiers(data_t1, fit_config)
    model_t1 = fit_quantile_model(data_t1, bases1, grid=model_t0.grid,
                                  fit_config=fit_config)

    gap = FieldGap(model_t0, model_t1, data_t1.features)
    if family == "orthogonal-2d":
        return _estimate_orthogonal(gap)
    return _estimate_affine(gap, model_t0, data_t1.d)
