"""Out-of-distribution scoring and the associated threshold-free metrics.

Scores follow one convention throughout: higher means more in-distribution.
"""

import numpy as np

from .datasets import Dataset
from .errors import UndefinedMetricError, ValidationError
from .linear import FitConfig
from .quantile import QuantileModel, fit_base_classifiers, fit_quantile_model

DEFAULT_LOF_K = 20

# Guards the reachability-density inversion when a neighborhood collapses
# onto duplicate points.
_LRD_EPS = 1e-12

# Distance entries per k-NN chunk (8 MB of float64).
_CHUNK_ELEMS = 1 << 20

# The ID acceptance rate at which ``tnr_at_tpr`` reads the OOD rejection rate.
_TPR_LEVEL = 0.95


def _k_nearest(points, reference, k, exclude_self):
    """Exact k nearest reference rows of each point: (indices, distances).

    Rows are processed in chunks of about ``_CHUNK_ELEMS`` distances, so
    memory is O(chunk * m) rather than O(n * m). Per row, the k-th
    smallest distance comes from ``np.partition``; the neighbourhood is
    every index strictly below it plus the lowest-indexed ties at it, and
    is returned ordered by (distance, index). That is exactly the first k
    entries of a stable argsort of the full distance row. With
    ``exclude_self`` the points are the reference itself and row i skips
    column i.
    """
    from scipy.spatial.distance import cdist

    n, m = points.shape[0], reference.shape[0]
    step = max(1, _CHUNK_ELEMS // m)
    nn = np.empty((n, k), dtype=np.intp)
    nn_dist = np.empty((n, k))
    for start in range(0, n, step):
        stop = min(start + step, n)
        dist = cdist(points[start:stop], reference)
        if exclude_self:
            np.fill_diagonal(dist[:, start:stop], np.inf)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        below = dist < kth
        ties = dist == kth
        need = k - below.sum(axis=1, keepdims=True)
        keep = below | (ties & (np.cumsum(ties, axis=1) <= need))
        idx = np.nonzero(keep)[1].reshape(stop - start, k)  # ascending index
        near = np.take_along_axis(dist, idx, axis=1)
        order = np.argsort(near, axis=1, kind="stable")
        nn[start:stop] = np.take_along_axis(idx, order, axis=1)
        nn_dist[start:stop] = np.take_along_axis(near, order, axis=1)
    return nn, nn_dist


def lof_scores(reference, queries, k=DEFAULT_LOF_K):
    """Negated local outlier factor of each query w.r.t. the reference set.

    Classical construction: k-distance within the reference set,
    reachability distance max(k-distance(neighbor), actual distance),
    local reachability density as inverse mean reachability, and the LOF
    as the ratio of neighbor densities to the query's own. Neighborhoods
    are the exact k nearest points (self excluded inside the reference).
    Returned negated so that higher = more in-distribution.
    """
    reference = np.asarray(reference, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if reference.ndim == 1:
        reference = reference[:, None]
    if queries.ndim == 1:
        queries = queries[:, None]
    m = reference.shape[0]
    if k >= m:
        raise ValidationError(f"k={k} must be smaller than the reference size {m}")
    if k < 1:
        raise ValidationError("k must be at least 1")
    if queries.shape[1] != reference.shape[1]:
        raise ValidationError("reference and queries must share dimensionality")
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(queries))):
        raise ValidationError("reference and queries must be finite")

    nn_r, d_nn_r = _k_nearest(reference, reference, k, exclude_self=True)
    kdist = d_nn_r[:, -1]
    reach_r = np.maximum(d_nn_r, kdist[nn_r])
    lrd_r = 1.0 / np.maximum(reach_r.mean(axis=1), _LRD_EPS)

    nn_q, d_nn_q = _k_nearest(queries, reference, k, exclude_self=False)
    reach_q = np.maximum(d_nn_q, kdist[nn_q])
    lrd_q = 1.0 / np.maximum(reach_q.mean(axis=1), _LRD_EPS)

    lof = lrd_r[nn_q].mean(axis=1) / lrd_q
    return -lof


def auroc(scores, is_id):
    """Rank-based area under the ROC curve; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    n_pos = int(is_id.sum())
    n_neg = is_id.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both ID and OOD samples")
    # midranks: a tie group of c scores ending at 1-based rank r ranks r - (c-1)/2
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = float(ranks[is_id].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def tnr_at_tpr(scores, is_id):
    """True-negative rate at the largest threshold keeping TPR >= 95%.

    A sample is accepted as ID when its score >= threshold, so the chosen
    threshold attains the smallest TPR at or above 95%.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    id_scores = scores[is_id]
    ood_scores = scores[~is_id]
    if id_scores.size == 0 or ood_scores.size == 0:
        raise UndefinedMetricError("TNR@TPR needs both ID and OOD samples")
    candidates = np.unique(scores)[::-1]
    # TPR at each candidate from one search of the sorted ID scores; the
    # smallest candidate gives TPR 1, so a threshold is always found
    at_or_above = id_scores.size - np.searchsorted(np.sort(id_scores), candidates)
    thr = candidates[np.argmax(at_or_above / id_scores.size >= _TPR_LEVEL)]
    return float(np.mean(ood_scores < thr))


def detection_accuracy(scores, is_id):
    """Maximum classification accuracy over every threshold position."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    n_pos = int(is_id.sum())
    n_neg = is_id.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("detection accuracy needs both ID and OOD samples")
    order = np.argsort(scores, kind="stable")
    sorted_id = is_id[order]
    sorted_scores = scores[order]
    n = scores.size
    # correct(c) with threshold below position c: OOD among first c + ID among rest
    ood_below = np.concatenate([[0], np.cumsum(~sorted_id)])
    id_above = n_pos - np.concatenate([[0], np.cumsum(sorted_id)])
    correct = ood_below + id_above
    # only cut positions at distinct-score boundaries are realizable
    boundary = np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1], [True]])
    return float(correct[boundary].max() / n)


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
