"""Estimating an unknown deterministic feature transform between two data
epochs by matching their quantile representations.

The quantile models fitted on the two epochs describe the same labeled
distribution in different coordinates, so the logit fields should agree
once the newer features are mapped back through the inverse transform.
The estimator minimizes the mean absolute logit discrepancy at the fitted
anchor taus over a transform family. For rotations it scans a 1 degree
grid and refines the best angle by a golden-section search in plain
Python. For affine maps the objective is a least-absolute-deviations fit
in the inverse map, solved by iteratively reweighted least squares in
numpy (:func:`_estimate_affine`): from the identity, minimum-norm steps,
halved to keep the map's condition number below ``_MAX_CONDITION``, until
a round lowers the objective by less than ``_MIN_DECREASE`` of it or
``_MAX_ROUNDS`` rounds have run. Neither search loads a scipy module. The
dense field is the spline of the anchors, so averaging over it would add
no information, only a finer quadrature over tau at ten times the cost on
the default grid.

A search reads that objective many times for one pair of models and one
t1 sample, so it is a :class:`FieldGap` of the inverse map x -> P x + q
given as arrays: the logits are affine in the features, so one task's gap
is a single affine field of the t1 sample, evaluated over row blocks of
about ``quantile._BLOCK_BYTES``. The rotation search sums its absolute
values; each affine round also builds its weighted normal equations from
the same blocks. Both searches move in (P, q) and build a
:class:`Transform` only to report.
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
_WEIGHT_FLOOR = 1e-9             # IRLS weight floor, a share of the objective
_MIN_DECREASE = 1e-9             # IRLS stops on a smaller relative decrease
_MAX_ROUNDS = 500                # IRLS round cap
_MAX_HALVINGS = 60               # step halvings toward a conditioned P


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

    def residual_blocks(self, p, q):
        """Yield ``(w0, x, r)`` for each task and row block: the t0 task's
        anchor weights ``w0`` (n_anchor, d), a block ``x`` of t1 samples
        padded with a ones column, and the signed gaps ``r = x @ D.T`` at
        those rows, held in this evaluator's buffer, which the next block
        overwrites."""
        n, d = self._padded.shape[0], self._padded.shape[1] - 1
        if p.shape[0] != d:
            raise ValidationError("feature dimension does not match transform")
        buf = self._buf
        rows = buf.shape[0]
        for coef0, coef1 in self._pairs:
            w0 = coef0[:, :d]
            diff = np.column_stack([w0 @ p, coef0[:, d] + w0 @ q]) - coef1
            for lo in range(0, n, rows):
                x = self._padded[lo:lo + rows]
                block = buf[:x.shape[0]]
                np.matmul(x, diff.T, out=block)
                yield w0, x, block

    def __call__(self, p, q):
        total = 0.0
        for _, _, block in self.residual_blocks(p, q):
            np.abs(block, out=block)
            total += float(block.sum())
        return total / (len(self._pairs) * self._padded.shape[0] * self._buf.shape[1])


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
    identifiable. ``search_steps`` counts the objective evaluations of a
    rotation search (scan and refine) or the rounds of an affine one;
    ``converged`` is false only when the affine search stopped at its
    round cap.
    """

    transform: Transform
    objective: float
    near_ties: list = field(default_factory=list)
    rank_deficient: bool = False
    search_steps: int = 0
    converged: bool = True

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
    evaluations = len(grid_vals)

    def refine(angle):
        nonlocal evaluations
        evaluations += 1
        return _rotation_gap(gap, angle, best_reflect)

    x, fun = _golden_section(refine, best_angle - _ANGLE_STEP, best_angle + _ANGLE_STEP,
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
    return TransformEstimate(best, best_obj, ties, search_steps=evaluations)


def _angle_distance(a, b):
    diff = (a - b) % (2.0 * math.pi)
    return min(diff, 2.0 * math.pi - diff)


def _normal_system(gap, m, floor):
    """The weighted least-squares system of one IRLS round at the inverse
    map ``m = [P | q]``, read off the residual blocks of ``gap``.

    A gap ``r = w0' M x~`` (w0 an anchor's t0 weights, x~ a padded sample)
    is linear in ``M``, with design row ``outer(w0, x~)`` in ``M.ravel()``
    order. With weights ``u = 1 / max(|r|, floor)``, the round's step to
    ``M - step`` minimises sum u (r - design' step)^2, so its normal matrix
    is sum u (w0 w0') kron (x~ x~') and its right side sum u r outer(w0, x~):
    each block adds (x~ x~')' U (w0 w0') and x~' (u r) w0.
    """
    d = m.shape[0]
    normal = np.zeros((d + 1, d + 1, d, d))
    grad = np.zeros((d + 1, d))
    for w0, x, r in gap.residual_blocks(m[:, :d], m[:, d]):
        weight = np.abs(r)
        np.reciprocal(np.maximum(weight, floor, out=weight), out=weight)
        outer_x = (x[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
        outer_w = (w0[:, :, None] * w0[:, None, :]).reshape(w0.shape[0], -1)
        normal += (outer_x.T @ (weight @ outer_w)).reshape(normal.shape)
        r *= weight
        grad += x.T @ r @ w0
        del weight, outer_x  # so that no two blocks' temporaries are held at once
    size = d * (d + 1)
    return normal.transpose(2, 0, 3, 1).reshape(size, size), grad.T.ravel()


def _conditioned_inverse(p):
    """``inv(p)`` when ``p`` and that inverse both have a condition number
    below ``_MAX_CONDITION``, as the reported ``Transform`` requires of its
    matrix, else None (``cond`` is inf for a singular ``p``)."""
    if np.linalg.cond(p) < _MAX_CONDITION:
        inv_p = np.linalg.inv(p)
        if np.linalg.cond(inv_p) < _MAX_CONDITION:
            return inv_p
    return None


def _estimate_affine(gap, model_t0):
    """Minimise the objective over the inverse map x -> P x + q by
    iteratively reweighted least squares (IRLS; Schlossmacher, 1973).

    The objective is a least-absolute-deviations fit: each gap is linear in
    ``M = [P | q]`` (see :func:`_normal_system`). From the identity, each
    round weights every gap by ``1 / max(|r|, eps)``, with ``eps`` a
    ``_WEIGHT_FLOOR`` share of the objective where the round starts, and
    steps to the weighted least-squares solution. The step is the
    minimum-norm solution of the (d^2 + d)-square normal system
    (``lstsq``), so on a rank-deficient t0 field the map stays the identity
    off the field's row space. The step is halved (at most
    ``_MAX_HALVINGS`` times) until P and its inverse have a condition
    number below ``_MAX_CONDITION``, which the identity meets, so the
    search walks toward a singular exact fit but never onto it. It stops
    when a round lowers the best objective by less than a
    ``_MIN_DECREASE`` share of it, when the objective is 0, or after
    ``_MAX_ROUNDS`` rounds, and reports the best iterate. ``search_steps``
    counts the rounds; ``converged`` is false when the cap ended the search.
    """
    d = model_t0.feature_dim
    m = np.eye(d, d + 1)
    objective = gap(m[:, :d], m[:, d])
    best = objective, m, np.eye(d)
    converged, rounds = True, 0
    while objective > 0.0:
        if rounds == _MAX_ROUNDS:
            converged = False
            break
        normal, grad = _normal_system(gap, m, _WEIGHT_FLOOR * objective)
        step = np.linalg.lstsq(normal, grad, rcond=None)[0].reshape(d, d + 1)
        for _ in range(_MAX_HALVINGS):
            inv_p = _conditioned_inverse(m[:, :d] - step[:, :d])
            if inv_p is not None:
                m = m - step
                break
            step = step / 2.0
        rounds += 1
        objective = gap(m[:, :d], m[:, d])
        decreased = objective < (1.0 - _MIN_DECREASE) * best[0]
        if objective < best[0]:
            best = objective, m, inv_p
        if not decreased:
            break
    _, m, inv_p = best
    transform = Transform("affine", matrix=inv_p, offset=-inv_p @ m[:, d])
    field_t0 = np.vstack([t.anchor_coefficients[:, :d] for t in model_t0.tasks])
    return TransformEstimate(transform, gap(*transform.inverse_map()),
                             rank_deficient=bool(np.linalg.matrix_rank(field_t0) < d),
                             search_steps=rounds, converged=converged)


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
    rank deficient (see :class:`TransformEstimate`); the search then leaves
    the map at the identity off that field's row space.
    """
    _check_search_inputs(family, (model_t0.feature_dim, model_t0.class_count),
                         (model_t1.feature_dim, model_t1.class_count))
    gap = FieldGap(model_t0, model_t1, samples_t1)
    if family == "orthogonal-2d":
        return _estimate_orthogonal(gap)
    return _estimate_affine(gap, model_t0)
