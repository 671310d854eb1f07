"""Estimating an unknown deterministic feature transform between two data
epochs by matching their quantile representations.

The quantile models fitted on the two epochs describe the same labeled
distribution in different coordinates, so the logit fields should agree
once the newer features are mapped back through the inverse transform.
The estimator minimizes the mean absolute logit discrepancy at the fitted
anchor taus over a transform family with derivative-free searches: for
rotations a 1 degree scan, refined by a golden-section search in plain
Python (so the search loads no scipy module), and for affine maps one
scipy Powell search over the inverse map, where the objective is convex.
The dense field is the spline of the anchors, so averaging over it would
add no information, only a finer quadrature over tau at ten times the cost
on the default grid.

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

from .errors import ValidationError
from .quantile import QuantileModel, _block_rows

_MAX_CONDITION = 1e8
_ANGLE_STEP = math.radians(1.0)  # rotation scan; also the tie detector's grid
_REFINE_TOL = 1e-4               # radians, golden-section final bracket width
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
            raise ValidationError(f"unknown transform family: {self.family!r}")

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

    The two models must share class count, anchor taus and feature
    dimension, so their stored tasks and anchors pair up; the samples must
    have that dimension too. With ``C`` a task's ``anchor_coefficients``
    matrix, read as stored, a t0 task's logits at ``P x + q`` are
    ``x~ @ C0'.T`` with ``x~ = (x, 1)`` and
    ``C0' = [W0 P | b0 + W0 q]``, so each call builds ``D = C0' - C1`` per
    task and returns the mean of |x~ @ D.T| over samples, tasks and anchor
    taus. That field is evaluated in row blocks of about ``_BLOCK_BYTES``
    into a buffer this evaluator owns, so one evaluator must not be called
    from two threads at once.

    For binary models on an anchor grid symmetric about 1/2, as every CLI
    grid is, this is also the mean over the whole representations at the
    anchor taus: the class-0 slice ``represent`` mirrors is the class-1
    slice negated and reversed in tau, so its absolute gaps are the stored
    task's, reordered.
    """

    def __init__(self, model_t0: QuantileModel, model_t1: QuantileModel,
                 samples_t1):
        if (model_t0.class_count != model_t1.class_count
                or not np.array_equal(model_t0.grid.anchors, model_t1.grid.anchors)):
            raise ValidationError("the two models must share anchors and class count")
        samples = np.asarray(samples_t1, dtype=np.float64)
        if not model_t0.feature_dim == model_t1.feature_dim == samples.shape[1]:
            raise ValidationError(
                f"feature dimensions differ: t0 model {model_t0.feature_dim}, "
                f"t1 model {model_t1.feature_dim}, samples {samples.shape[1]}")
        self._padded = np.column_stack([samples, np.ones(samples.shape[0])])
        self._pairs = [(t0.anchor_coefficients, t1.anchor_coefficients)
                       for t0, t1 in zip(model_t0.tasks, model_t1.tasks)]
        n_anchor = model_t1.grid.anchors.size
        self._buf = np.empty((min(samples.shape[0], _block_rows(n_anchor)), n_anchor))

    def __call__(self, p, q):
        n, d = self._padded.shape[0], self._padded.shape[1] - 1
        if p.shape[0] != d:
            raise ValidationError("feature dimension does not match transform")
        buf = self._buf
        rows, n_anchor = buf.shape
        total = 0.0
        for coef0, coef1 in self._pairs:
            w0 = coef0[:, :d]
            diff = np.column_stack([w0 @ p, coef0[:, d] + w0 @ q]) - coef1
            for lo in range(0, n, rows):
                block = buf[:min(rows, n - lo)]
                np.matmul(self._padded[lo:lo + rows], diff.T, out=block)
                np.abs(block, out=block)
                total += float(block.sum())
        return total / (len(self._pairs) * n * n_anchor)


def matching_objective(model_t0: QuantileModel, model_t1: QuantileModel,
                       transform: Transform, samples_t1):
    """Mean over samples, stored tasks and anchor taus of the absolute logit
    gap between the old model at the mapped-back point and the new model at
    the point itself (see :class:`FieldGap`). ``transform`` maps t0
    features to t1 features; a t1 sample is mapped back by its inverse.
    Zero when both pictures agree exactly."""
    return FieldGap(model_t0, model_t1, samples_t1)(*transform.inverse_map())


@dataclass
class TransformEstimate:
    """The best transform found and its objective.

    ``near_ties`` lists grid members within 1e-6 of the best grid value, so
    that refining the best alone hides no twin (a symmetric construction).
    ``rank_deficient`` marks an affine search on a t0 anchor field (bias
    column dropped, stacked over tasks) of rank below d: the field then
    sees only a subspace of the features, and the objective cannot tell the
    map from maps that differ off it. Either makes the estimate not
    identifiable.
    """

    transform: Transform
    objective: float
    near_ties: list = field(default_factory=list)
    rank_deficient: bool = False

    @property
    def identifiable(self):
        return not self.near_ties and not self.rank_deficient


def _golden_section(func, lo, hi, xatol):
    """Minimize ``func`` on ``[lo, hi]`` by golden-section search (Kiefer,
    1953): shrink the bracket by the golden ratio per evaluation, keeping
    the side of the lower of two interior points, until it is at most
    ``xatol`` wide. Returns ``(x, f(x))`` at the better interior point."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = func(c), func(d)
    while b - a > xatol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = func(d)
    return (c, fc) if fc <= fd else (d, fd)


def _rotation_gap(gap, angle, reflect):
    """``gap`` at the inverse of the rotation ``(angle, reflect)``."""
    return gap(_rotation(angle, reflect).T, np.zeros(2))


def _rotation_scan(gap):
    """``[(objective, angle, reflect), ...]`` on the 1 degree grid, rotations
    then reflections."""
    n_steps = int(round(2.0 * math.pi / _ANGLE_STEP))
    return [(_rotation_gap(gap, i * _ANGLE_STEP, reflect), i * _ANGLE_STEP, reflect)
            for reflect in (False, True) for i in range(n_steps)]


def _estimate_orthogonal(gap):
    grid_vals = _rotation_scan(gap)
    grid_best, best_angle, best_reflect = min(grid_vals, key=lambda v: v[0])
    x, fun = _golden_section(lambda a: _rotation_gap(gap, a, best_reflect),
                             best_angle - _ANGLE_STEP, best_angle + _ANGLE_STEP,
                             _REFINE_TOL)
    best_obj, best_angle = ((float(fun), float(x)) if fun <= grid_best
                            else (grid_best, best_angle))

    best = Transform("orthogonal-2d", angle=best_angle % (2.0 * math.pi),
                     reflect=best_reflect)
    ties = [
        Transform("orthogonal-2d", angle=angle, reflect=reflect)
        for obj, angle, reflect in grid_vals
        if obj <= grid_best + _TIE_TOL
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


def _estimate_affine(gap, model_t0):
    """One Powell search over the inverse map x -> P x + q from the identity.

    The t0 logits at ``P x + q`` are affine in (P, q), so the objective, a
    mean of absolute values of affine functions, is convex in (P, q): it has
    no other basin for restarts to find. Powell is a local, derivative-free
    method, though, and may stop at a kink of this piecewise-linear objective
    short of its minimum; the reported objective is only known to be at or
    below the objective at the true map.
    """
    from scipy.optimize import minimize

    d = model_t0.feature_dim
    theta0 = np.concatenate([np.eye(d).ravel(), np.zeros(d)])
    theta = minimize(_affine_objective, theta0, args=(gap, d), method="Powell").x
    inv_p = np.linalg.inv(theta[:d * d].reshape(d, d))
    best = Transform("affine", matrix=inv_p, offset=-inv_p @ theta[d * d:])
    field_t0 = np.vstack([t.anchor_coefficients[:, :d] for t in model_t0.tasks])
    return TransformEstimate(best, gap(*best.inverse_map()), [],
                             rank_deficient=bool(np.linalg.matrix_rank(field_t0) < d))


def _check_search_inputs(family, shape_t0, shape_t1):
    """The inputs a search over ``family`` takes: two epochs of one
    ``(feature dimension, class count)`` shape, 2-d features for rotations
    and at most 10 for affine maps. Cheap, so callers run it before any fit."""
    if shape_t1 != shape_t0:
        raise ValidationError("t1 has {} features and {} classes, "
                              "t0 has {} and {}".format(*shape_t1, *shape_t0))
    feature_dim = shape_t0[0]
    if family == "orthogonal-2d":
        if feature_dim != 2:
            raise ValidationError("orthogonal-2d requires 2-d features")
    elif family == "affine":
        if feature_dim > 10:
            raise ValidationError("affine search supported for d <= 10")
    else:
        raise ValidationError(f"unknown transform family: {family!r}")


def estimate_transform(family, model_t0: QuantileModel, model_t1: QuantileModel,
                       samples_t1):
    """Minimize the matching objective of two fitted models (see
    :func:`matching_objective`, which takes the same models and samples)
    over the chosen family. Fits nothing: the caller fits each epoch's
    model, the t1 model on ``model_t0``'s grid, and checks it.

    Returns a :class:`TransformEstimate` whose ``near_ties`` lists grid
    members indistinguishable from the optimum; a nonempty list signals a
    non-identifiable (symmetric) construction rather than a unique answer.
    An affine estimate is also not identifiable when the t0 anchor field is
    rank deficient (see :class:`TransformEstimate`).
    """
    _check_search_inputs(family, (model_t0.feature_dim, model_t0.class_count),
                         (model_t1.feature_dim, model_t1.class_count))
    gap = FieldGap(model_t0, model_t1, samples_t1)
    if family == "orthogonal-2d":
        return _estimate_orthogonal(gap)
    return _estimate_affine(gap, model_t0)
