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

# Times (d + 4), a bound on the rounding in the neighbour search of d
# coordinates, relative to the centred rows' squared norms (products) or
# norms (projections). A product, the centring and ``_distances`` together
# round a squared distance by at most (5d + 16) * 2**-53 of the two rows'
# squared norms plus (3d + 8) * 2**-1074 where squares underflow, and a gap
# between projections by (2d + 4) * 2**-53 of their norms: the padding is
# over twice that, so the bands and candidate sets it pads miss no
# neighbour and no tie.
_ROUNDING = 8 * np.finfo(np.float64).eps

# A first pass scores each row against _WINDOW * (k + 1) sorted reference
# rows on either side of it; a block of rows scores at most _WASTE times the
# products its rows' windows need.
_WINDOW = 4
_WASTE = 3

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

    The reference is centred and sorted once by its projection on its
    principal axis. The gap between two projections is a lower bound on
    the distance for any unit axis; the principal one makes it tight on the
    near-rank-one ``x @ L`` of a binary model, where a row's neighbours lie
    within a few dozen rows of it in that order. The rows (reference and
    queries) go in projection order, in blocks of consecutive rows each
    scored against one run of the sorted reference by one matrix product:
    squared distances to within ``err``, a bound on the rounding of the
    product and of ``_distances``. The k-th smallest product of a row, plus
    ``err``, bounds its squared k-th distance from above, so every
    neighbour and every tie at the k-th distance lies in the band of
    reference projections within that distance (plus ``slack``, the
    rounding of the projections) of the row's own.

    1. Each row is scored against the ``_WINDOW`` * (k + 1) sorted rows on
       either side of its projection. A row whose band lies in its block's
       run is settled from those products.
    2. Each other row is scored against its band, which settles it. Its k
       smallest products lie within its k-th of step 1 plus 2 * ``err``,
       so only the products within that bound are partitioned: a few times
       k a row where the band holds most of the reference.

    To settle a row, every pair whose product is within twice ``err`` of
    the row's k-th smallest has its distance recomputed by ``_distances``;
    the first k in (distance, index) order are the neighbourhood. Each
    block holds about one ``quantile._BLOCK_BYTES`` block of products (see
    ``_blocks``), and the pairs go a quarter block at a time, so memory
    past the rows and the output is a few blocks however the rows tie.
    """
    points = np.vstack([reference, queries])
    n, (m, d) = points.shape[0], reference.shape
    centred = points - reference.mean(axis=0)
    proj = centred @ np.linalg.eigh(centred[:m].T @ centred[:m])[1][:, -1]
    order = np.argsort(proj[:m], kind="stable")
    sorted_proj = proj[order]
    sq = np.einsum("ij,ij->i", centred, centred)
    tol = (d + 4) * _ROUNDING
    err = tol * (sq + sq[:m].max() + np.finfo(np.float64).tiny)
    slack = tol * (np.sqrt(sq) + np.sqrt(sq[:m].max()))
    # [-2x, |x|^2, 1] . [y, 1, |y|^2] = |x - y|^2, in one product
    left = np.hstack([-2.0 * centred, sq[:, None], np.ones((n, 1))])
    right = np.hstack([centred[order], np.ones((m, 1)), sq[order, None]]).T.copy()
    self_col = np.full(n, -1, dtype=np.intp)
    self_col[order] = np.arange(m)

    nn = np.empty((n, k), dtype=np.intp)
    nn_dist = np.empty((n, k))
    budget = _block_rows(1)
    # reused from block to block: a fresh 1 MiB array takes page faults that
    # cost more than the products in it
    work = np.empty((2, budget))
    rows = np.argsort(proj, kind="stable")
    pos = np.searchsorted(sorted_proj, proj[rows])
    lo = np.maximum(pos - _WINDOW * (k + 1), 0)
    hi = np.minimum(pos + _WINDOW * (k + 1), m)
    for final in (False, True):
        unsettled = []
        for start, stop, lo_b, hi_b in _blocks(lo, hi, budget):
            blk = rows[start:stop]
            shape = (blk.size, hi_b - lo_b)
            size = shape[0] * shape[1]
            if size > work.shape[1]:
                work = np.empty((2, size))
            prod = work[0, :size].reshape(shape)
            np.matmul(left[blk], right[:, lo_b:hi_b], out=prod)
            col = self_col[blk] - lo_b
            own = (col >= 0) & (col < shape[1])
            prod[np.flatnonzero(own), col[own]] = np.inf
            if final:
                keep = np.flatnonzero(prod <= bound[start:stop, None])
                count = np.bincount(keep // shape[1], minlength=blk.size)
                low = work[1, :blk.size * count.max()].reshape(blk.size, -1)
                low.fill(np.inf)
                low[np.arange(low.shape[1]) < count[:, None]] = prod.ravel()[keep]
                del keep
            else:
                low = work[1, :size].reshape(shape)
                np.copyto(low, prod)
            low.partition(k - 1, axis=1)
            kth = low[:, k - 1]
            if final:
                # the run holds the band of step 1, which holds every neighbour
                done = np.ones(blk.size, dtype=bool)
            else:
                half = np.sqrt(kth + err[blk]) * (1 + tol) + slack[blk]
                band_lo = np.searchsorted(sorted_proj, proj[blk] - half, "left")
                band_hi = np.searchsorted(sorted_proj, proj[blk] + half, "right")
                done = (band_lo >= lo_b) & (band_hi <= hi_b)
                wait = ~done
                # two products of one pair differ by at most 2 * err, so the
                # k smallest of step 2 are within 2 * err of this k-th
                unsettled.append((blk[wait], band_lo[wait], band_hi[wait],
                                  kth[wait] + 2 * err[blk[wait]]))
            near = prod <= (kth + 2 * err[blk])[:, None]
            near[~done] = False
            hits = np.flatnonzero(near)
            count = np.bincount(hits // shape[1], minlength=blk.size)[done]
            _write_nearest(points, reference, blk[done], order[lo_b:hi_b], hits, count,
                           nn, nn_dist, budget // 4)
        if not final:
            rows, lo, hi, bound = (np.concatenate(part) for part in zip(*unsettled))
    return nn, nn_dist


def _write_nearest(points, reference, rows, cols, hits, count, nn, nn_dist, budget):
    """Write the first k (nn's width) in (distance, index) order of each
    row's candidates, row i of ``rows`` taking the ``count[i]`` next of
    ``hits``: flat positions in a block of products whose columns are the
    reference rows ``cols``. Rows go in runs of ``budget`` candidate slots."""
    k = nn.shape[1]
    ends = np.cumsum(count)
    for a, b, _, most in _blocks(np.zeros_like(count), count, budget):
        filled = np.arange(most) < count[a:b, None]
        cand = np.zeros(filled.shape, dtype=np.intp)
        cand[filled] = cols[hits[ends[a] - count[a]:ends[b - 1]] % cols.size]
        dist = _distances(points, reference, rows[a:b, None], cand)
        dist[~filled] = np.inf
        pick = np.lexsort((cand, dist), axis=1)[:, :k]
        nn[rows[a:b]] = np.take_along_axis(cand, pick, axis=1)
        nn_dist[rows[a:b]] = np.take_along_axis(dist, pick, axis=1)


def _blocks(lo, hi, budget):
    """Split rows with windows ``[lo, hi)`` into blocks of consecutive rows,
    yielding (start, stop, low, high) with ``[low, high)`` the union of the
    block's windows. A block is as long as its rows times that union stays
    within ``budget`` and within ``_WASTE`` times the sum of its windows,
    so it does not score a row against many columns it does not need; a
    row whose window alone exceeds the budget is a block of its own."""
    start = 0
    while start < lo.size:
        stop = min(lo.size, start + budget // max(1, hi[start] - lo[start]) + 1)
        low = np.minimum.accumulate(lo[start:stop])
        high = np.maximum.accumulate(hi[start:stop])
        area = (high - low) * np.arange(1, stop - start + 1)
        fits = (area <= budget) & (area <= _WASTE * np.cumsum(hi[start:stop] - lo[start:stop]))
        take = max(1, int(np.logical_and.accumulate(fits).sum()))
        yield start, start + take, int(low[take - 1]), int(high[take - 1])
        start += take


def lof_scores(reference, queries, k=DEFAULT_LOF_K):
    """Negated local outlier factor of each query w.r.t. the reference set.

    Classical construction: k-distance within the reference set,
    reachability distance max(k-distance(neighbor), actual distance),
    local reachability density as inverse mean reachability, and the LOF
    as the ratio of neighbor densities to the query's own. Neighborhoods
    are the exact k nearest points (self excluded inside the reference),
    ties at the k-th distance going to the lowest reference index. One
    search finds those of the reference rows and the queries (see
    ``_k_nearest``), in numpy alone: blocked matrix products over the
    reference sorted on its principal axis, which score a row against a
    few dozen reference rows on near-rank-one input and against most of
    them on full-rank input, one row block at a time. ``k`` must be an
    integer. Returned negated so that higher = more in-distribution.
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
