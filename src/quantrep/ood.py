"""Out-of-distribution scoring and the associated threshold-free metrics.

Scores follow one convention throughout: higher means more in-distribution.
"""

import numpy as np

from .datasets import Dataset
from .errors import ValidationError
from .linear import FitConfig
from .quantile import QuantileModel, _block_rows, fit_base_classifiers, fit_quantile_model

DEFAULT_LOF_K = 20

# Guards the reachability-density inversion when a neighborhood collapses
# onto duplicate points.
_LRD_EPS = 1e-12

# How far a row's last candidate distance but one must exceed its k-th,
# relative to it, for the tree's candidates to settle the row: the tree's
# distances and ``_distances`` differ by rounding, of order d * 2**-53 relative.
_TIE_MARGIN = 1e-9

# The ID acceptance rate at which ``tnr_at_tpr`` reads the OOD rejection rate.
_TPR_LEVEL = 0.95


def _distances(points, reference, rows, cols):
    """Euclidean distances from ``points[rows]`` to ``reference[cols]``, for
    ``rows`` that broadcasts to the shape of ``cols``. The squares are summed
    coordinate by coordinate in order (a cumulative sum), as ``cdist`` sums
    them, so a pair gives the same bits wherever it is computed. Each step
    works in place on the gathered ``reference[cols]``, the one array allocated."""
    diff = reference[cols]
    diff -= points[rows]
    diff *= diff
    return np.sqrt(np.cumsum(diff, axis=-1, out=diff)[..., -1])


def _k_nearest(reference, queries, k):
    """Exact k nearest reference rows, (indices, distances), of the m
    reference rows followed by those of the queries.

    A row's neighbourhood is its first k reference rows in (distance, index)
    order: every row below its k-th distance, then the lowest-indexed ties
    at it. Row i skips reference row i, so a query (row m or later) skips
    none.

    A k-d tree (``cKDTree``) gives each pending row ``width`` candidates,
    k + 2 at first. Their distances are recomputed by ``_distances``,
    ordered by (distance, index) with self last, and the first k are
    written. A row is settled where its last candidate but one (the last
    other than self, or one no farther than the last) lies farther than
    the k-th by more than ``_TIE_MARGIN``: no other reference row can come
    before it. The rest (ties, or copies of a point that crowd self out)
    are queried again at twice the width, up to m, where every reference
    row is a candidate. Each query takes one block of
    ``quantile._block_rows`` rows, so memory past the tree, the rows and
    the output is one block at every width.
    """
    from scipy.spatial import cKDTree

    points = np.vstack([reference, queries])
    n, m = points.shape[0], reference.shape[0]
    tree = cKDTree(reference)
    nn = np.empty((n, k), dtype=np.intp)
    nn_dist = np.empty((n, k))
    pending = np.arange(n)
    width = k + 2
    while pending.size:
        width = min(width, m)
        unsettled, step = [], _block_rows(width * reference.shape[1])
        for start in range(0, pending.size, step):
            rows = pending[start:start + step]
            cand = tree.query(points[rows], width)[1]
            dist = _distances(points, reference, rows[:, None], cand)
            dist[cand == rows[:, None]] = np.inf
            order = np.lexsort((cand, dist), axis=1)
            cand = np.take_along_axis(cand, order, axis=1)
            dist = np.take_along_axis(dist, order, axis=1)
            nn[rows] = cand[:, :k]
            nn_dist[rows] = dist[:, :k]
            # at width m every reference row is a candidate
            last = dist[:, width - 2]
            unsettled.append(rows[(width < m) & ~(last > dist[:, k - 1] * (1 + _TIE_MARGIN))])
        pending = np.concatenate(unsettled)
        width *= 2
    return nn, nn_dist


def lof_scores(reference, queries, k=DEFAULT_LOF_K):
    """Negated local outlier factor of each query w.r.t. the reference set.

    Classical construction: k-distance within the reference set,
    reachability distance max(k-distance(neighbor), actual distance),
    local reachability density as inverse mean reachability, and the LOF
    as the ratio of neighbor densities to the query's own. Neighborhoods
    are the exact k nearest points (self excluded inside the reference),
    ties at the k-th distance going to the lowest reference index. One
    k-d tree search finds those of the reference rows and the queries
    (see ``_k_nearest``): each row costs O(k) candidate distances, and only
    rows tied at their k-th distance are queried again, at twice the width
    each time, one row block at a time. ``k`` must be an integer.
    Returned negated so that higher = more in-distribution.
    """
    reference = np.asarray(reference, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if reference.ndim == 1:
        reference = reference[:, None]
    if queries.ndim == 1:
        queries = queries[:, None]
    m = reference.shape[0]
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValidationError(f"k must be an integer, got {k!r}")
    k = int(k)
    if k >= m:
        raise ValidationError(f"k={k} must be smaller than the reference size {m}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    if queries.shape[1] != reference.shape[1]:
        raise ValidationError("reference and queries must share dimensionality")
    if reference.shape[1] == 0:
        raise ValidationError("reference and queries need at least one coordinate")
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(queries))):
        raise ValidationError("reference and queries must be finite")

    nn, d_nn = _k_nearest(reference, queries, k)
    reach = np.maximum(d_nn, d_nn[:m, -1][nn])  # d_nn[:m, -1]: the k-distances
    lrd = 1.0 / np.maximum(reach.mean(axis=1), _LRD_EPS)
    return -(lrd[nn[m:]].mean(axis=1) / lrd[m:])


def _roc(scores, is_id):
    """The ROC curve that every metric below reads, as the class totals and
    the ID and OOD counts ``tp[g]``, ``fp[g]`` scoring at or above the g-th
    distinct score from the highest down: a score at or above a threshold
    is accepted as ID, so tied scores move together."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    if scores.ndim != 1 or scores.shape != is_id.shape:
        raise ValidationError("scores and is_id must be equal-length vectors")
    n_id = int(is_id.sum())
    n_ood = is_id.size - n_id
    if n_id == 0 or n_ood == 0:
        raise ValidationError("OOD metrics need both ID and OOD samples")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("OOD scores must be finite")
    uniq, group = np.unique(scores, return_inverse=True)
    tp = np.cumsum(np.bincount(group[is_id], minlength=uniq.size)[::-1])
    fp = np.cumsum(np.bincount(group[~is_id], minlength=uniq.size)[::-1])
    return n_id, n_ood, tp, fp


def auroc(scores, is_id):
    """Area under the ROC curve; an (ID, OOD) tie counts one half."""
    n_id, n_ood, tp, fp = _roc(scores, is_id)
    # trapezoids over tie groups, doubled to stay in integers
    twice_area = np.sum(np.diff(fp, prepend=0) * (tp + np.append(0, tp[:-1])))
    return float(twice_area / (2 * n_id * n_ood))


def tnr_at_tpr(scores, is_id):
    """True-negative rate at the largest threshold keeping TPR >= 95%.

    The chosen threshold attains the smallest TPR at or above 95%; the
    lowest score gives TPR 1, so one always does.
    """
    n_id, n_ood, tp, fp = _roc(scores, is_id)
    g = np.argmax(tp / n_id >= _TPR_LEVEL)
    return float((n_ood - fp[g]) / n_ood)


def detection_accuracy(scores, is_id):
    """Maximum classification accuracy over every threshold position."""
    n_id, n_ood, tp, fp = _roc(scores, is_id)
    # rejecting everything, or accepting every tie group down to a cut
    return float(max(n_ood, (tp + n_ood - fp).max()) / (n_id + n_ood))


def ood_metrics(scores, is_id):
    """AUROC, TNR at 95% TPR and detection accuracy of one detector."""
    return {
        "auroc": auroc(scores, is_id),
        "tnr_at_tpr95": tnr_at_tpr(scores, is_id),
        "detection_accuracy": detection_accuracy(scores, is_id),
    }


def random_label_quantile_model(features, n_pseudo_classes=2,
                                fit_config: FitConfig | None = None,
                                seed=0) -> QuantileModel:
    """Quantile model built from uniform random pseudo-labels.

    With labels carrying no signal, the anchor classifiers trace the
    geometry of the feature distribution itself, which makes the resulting
    representations usable for marking arbitrary data regions as
    in-distribution. The bases and tasks follow the rule of any fit: one
    for two pseudo-classes, one-vs-rest otherwise.
    """
    features = np.asarray(features, dtype=np.float64)
    if n_pseudo_classes < 2:
        raise ValidationError("need at least two pseudo-classes")
    if features.shape[0] < 2 * n_pseudo_classes:
        raise ValidationError("need at least two samples per pseudo-class")
    fit_config = fit_config or FitConfig()
    rng = np.random.default_rng(seed)
    pseudo = rng.integers(0, n_pseudo_classes, features.shape[0])
    dataset = Dataset(features, pseudo, n_pseudo_classes)
    return fit_quantile_model(dataset, fit_base_classifiers(dataset, fit_config),
                              fit_config=fit_config)
