"""Independent reference implementations used as test oracles.

Everything here is written directly from definitions (loops, pairwise
enumeration, exhaustive sweeps) and deliberately shares no code with the
package, so agreement between the two is meaningful.
"""

import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import linprog, minimize
from scipy.special import expit, ndtr


def normal_cdf(x):
    """Standard normal CDF via the error function."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def latent_posterior(spec, features):
    """P(y=1|x) = P(g(x) + eps(x) >= 0) of a latent model with Gaussian
    noise: the normal CDF of its latent mean over its noise scale."""
    return ndtr(spec.latent_mean(features) / spec.noise_sigma(features))


def lof_bruteforce(reference, queries, k):
    """Local outlier factor straight from the definition, with loops.

    Neighborhoods are the exact k nearest reference points (self excluded
    within the reference set).
    """
    reference = np.asarray(reference, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    m = reference.shape[0]

    def dist(a, b):
        return math.sqrt(float(np.sum((a - b) ** 2)))

    def knn_of_reference(i):
        ds = sorted((dist(reference[i], reference[j]), j)
                    for j in range(m) if j != i)
        return ds[:k]

    kdist = np.zeros(m)
    neighbors = []
    for i in range(m):
        ds = knn_of_reference(i)
        kdist[i] = ds[-1][0]
        neighbors.append([j for _, j in ds])

    def lrd_of_reference(i):
        total = 0.0
        for j in neighbors[i]:
            total += max(kdist[j], dist(reference[i], reference[j]))
        return 1.0 / max(total / k, 1e-12)

    lrd_ref = np.array([lrd_of_reference(i) for i in range(m)])

    out = np.zeros(queries.shape[0])
    for qi in range(queries.shape[0]):
        ds = sorted((dist(queries[qi], reference[j]), j) for j in range(m))[:k]
        reach = [max(kdist[j], d) for d, j in ds]
        lrd_q = 1.0 / max(sum(reach) / k, 1e-12)
        out[qi] = sum(lrd_ref[j] for _, j in ds) / k / lrd_q
    return out


def k_nearest_cdist(points, reference, k, exclude_self):
    """Exact k nearest reference rows of each point by full distance rows:
    (indices, distances), the search ``lof_scores`` ran before its k-d tree.

    Rows go in blocks of about 1 MiB of ``cdist`` distances. Per row, the
    k-th smallest distance comes from ``np.partition``; the neighbourhood is
    every index strictly below it plus the lowest-indexed ties at it,
    ordered by (distance, index): the first k entries of a stable argsort of
    the full row. With ``exclude_self`` the points are the reference itself
    and row i skips column i.
    """
    from scipy.spatial.distance import cdist

    n, m = points.shape[0], reference.shape[0]
    step = max(1, 2**17 // m)
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


def auroc_midrank_loop(scores, is_id):
    """Rank-sum AUROC with midranks assigned by walking each tie group of
    the sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    n_pos = int(is_id.sum())
    n_neg = is_id.size - n_pos
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[is_id].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auroc_pairwise(scores, is_id):
    """AUROC by enumerating every (ID, OOD) pair; ties count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    pos = scores[is_id]
    neg = scores[~is_id]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def detection_accuracy_sweep(scores, is_id):
    """Best accuracy over every cut of the sorted distinct scores, from all
    ID to none: predict ID for the scores at or above the cut's value, so
    tied scores stay together and adjacent floats are still cut apart."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    uniq = np.unique(scores)
    best = float(np.mean(~is_id))            # the cut above every score
    for thr in uniq:
        pred_id = scores >= thr
        best = max(best, float(np.mean(pred_id == is_id)))
    return best


def tnr_at_tpr_loop(scores, is_id, tpr_target=0.95):
    """Largest threshold with TPR >= target, by a descending sweep over the
    unique scores that recounts the ID scores at each one."""
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    for thr in np.unique(scores)[::-1]:
        if np.mean(scores[is_id] >= thr) >= tpr_target:
            return float(np.mean(scores[~is_id] < thr))
    raise AssertionError("unreachable: the minimum score always attains TPR=1")


def ece_bruteforce(confidences, correctness, edges, bin_of):
    """Recompute ECE per bin with explicit loops given a bin-assignment
    function."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    n = confidences.size
    n_bins = len(edges) - 1
    total = 0.0
    for b in range(n_bins):
        members = [i for i in range(n) if bin_of(confidences[i]) == b]
        if not members:
            continue
        conf = sum(confidences[i] for i in members) / len(members)
        acc = sum(correctness[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def isotonic_minmax(scores, correctness, weights=None):
    """Isotonic regression via the min-max characterization on the
    tie-pooled sequence: mu*(i) = min_{j>=i} max_{l<=j} wmean(y[l..j]),
    each point weighted by ``weights`` (ones when omitted)."""
    scores = np.asarray(scores, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=np.float64)
    weights = np.ones_like(scores) if weights is None else np.asarray(weights, dtype=np.float64)
    s, inverse = np.unique(scores, return_inverse=True)
    w = np.bincount(inverse, weights=weights)
    wy = np.bincount(inverse, weights=weights * correctness)
    # worst[j] = max over l <= j of wmean(y[l..j]), every l at once as the
    # sums run from j back to 0
    worst = [np.max(np.cumsum(wy[j::-1]) / np.cumsum(w[j::-1])) for j in range(s.size)]
    return s, np.minimum.accumulate(worst[::-1])[::-1]


def threshold_prediction(x, threshold, ascending):
    """Indicator prediction of a 1-d threshold classifier."""
    x = np.asarray(x, dtype=np.float64)
    return (x > threshold).astype(float) if ascending else (x < threshold).astype(float)


def indicator_check_loss(pred, y, tau):
    return tau * (1.0 - pred) if y == 1 else (1.0 - tau) * pred


def exhaustive_threshold_optimum(x, y, taus, n_thresholds=201, pad=0.5):
    """Per-tau exhaustive search over 1-d threshold classifiers.

    Returns (adaptive_optimum, fixed_optimum, per_member_losses):
    adaptive picks the best threshold separately at each tau; fixed keeps
    one (threshold, orientation) across all taus. ``per_member_losses``
    is the simultaneous loss of every fixed member.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    lo, hi = x.min() - pad, x.max() + pad
    thresholds = np.linspace(lo, hi, n_thresholds)

    member_losses = []            # simultaneous loss per fixed member
    per_tau = np.full((2 * n_thresholds, taus.size), np.nan)
    row = 0
    for ascending in (True, False):
        for thr in thresholds:
            pred = threshold_prediction(x, thr, ascending)
            fn = float(np.sum((y == 1) & (pred == 0)))
            fp = float(np.sum((y == 0) & (pred == 1)))
            losses = (taus * fn + (1.0 - taus) * fp) / x.size
            per_tau[row] = losses
            member_losses.append(float(losses.mean()))
            row += 1
    adaptive = float(per_tau.min(axis=0).mean())
    fixed = float(min(member_losses))
    return adaptive, fixed, member_losses


def pearson_pair(a, b):
    """Plain two-variable Pearson correlation."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ac = a - a.mean()
    bc = b - b.mean()
    return float(np.dot(ac, bc) / math.sqrt(np.dot(ac, ac) * np.dot(bc, bc)))


def finite_difference_gradient(fn, theta, h=1e-6):
    """Central finite differences of a scalar function."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def natural_spline_second_derivs_banded(x, y):
    """Second derivatives of the natural cubic spline through (x, y[:, j]):
    zero at both ends, the interior ones from the tridiagonal system solved
    by scipy's banded solver (LAPACK gtsv)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h = np.diff(x)
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None])
    ab = np.zeros((3, x.size - 2))
    ab[0, 1:] = h[1:-1]                      # superdiagonal
    ab[1, :] = 2.0 * (h[:-1] + h[1:])        # diagonal
    ab[2, :-1] = h[1:-1]                     # subdiagonal
    m = np.zeros_like(y)
    m[1:-1] = solve_banded((1, 1), ab, rhs)
    return m


def logistic_loss(theta, features, labels01, sample_weights, l2_reg):
    """Sum_i w_i log(1 + exp(-s_i z_i)) + (l2_reg/2) ||weights||^2 with
    s_i = 2 y_i - 1 and z = features @ weights + bias (bias unpenalized),
    and its gradient w.r.t. theta = (weights, bias), with scipy's expit."""
    weights = theta[:-1]
    z = features @ weights + theta[-1]
    per = np.logaddexp(0.0, np.where(labels01 == 1, -z, z))
    resid = sample_weights * (expit(z) - labels01)
    value = float(np.sum(sample_weights * per) + 0.5 * l2_reg * np.dot(weights, weights))
    return value, np.concatenate([features.T @ resid + l2_reg * weights,
                                  [float(np.sum(resid))]])


def lbfgs_logistic(features, labels01, sample_weights, l2_reg, theta0,
                   tol=1e-8, max_iter=1000):
    """The weighted logistic fit by scipy's L-BFGS-B from ``theta0``.

    Converged means ||gradient||_2 <= tol * max(1, sum of weights) at the
    returned point; the projected-gradient stop is set so that it implies
    this test and the relative-reduction stop is off. Returns
    ``(theta, converged, iterations)``.
    """
    bound = tol * max(1.0, float(np.sum(sample_weights)))
    theta0 = np.asarray(theta0, dtype=np.float64)
    res = minimize(logistic_loss, theta0, jac=True, method="L-BFGS-B",
                   args=(features, labels01, sample_weights, l2_reg),
                   options={"maxiter": max_iter, "ftol": 0.0,
                            "gtol": bound / np.sqrt(theta0.size)})
    _, grad = logistic_loss(res.x, features, labels01, sample_weights, l2_reg)
    return res.x, bool(np.linalg.norm(grad) <= bound), int(res.nit)


def affine_gap_lad(anchors_t0, anchors_t1, samples):
    """The exact minimum of the affine matching objective, by linear
    programming (HiGHS) over its residual rows.

    ``anchors_t0`` and ``anchors_t1`` list each task's (n_anchor, d+1)
    anchor rows ``(w, b)``. With M = [P | q] the inverse map, the row of
    t1 sample x, task and anchor a is
    r = w0_a . (P x + q) + b0_a - c1_a . (x, 1) = design . M.ravel() + const,
    linear in M. Minimising mean |r| is the program's dual: maximise
    -const . y subject to design' y = 0 and |y| <= 1/rows, which is solved
    here (a few hundred times faster than the primal's slack form), and M
    is read off its equality multipliers. Returns ``(objective, P, q)``,
    the objective evaluated as mean |r| at that M, so that no solver
    tolerance puts it below the minimum.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n, d = samples.shape
    padded = np.column_stack([samples, np.ones(n)])
    design, const = [], []
    for c0, c1 in zip(anchors_t0, anchors_t1):
        for a in range(c0.shape[0]):
            for i in range(n):
                design.append(np.outer(c0[a, :d], padded[i]).ravel())
                const.append(c0[a, d] - float(np.dot(c1[a], padded[i])))
    design, const = np.array(design), np.array(const)
    rows = design.shape[0]
    res = linprog(const, A_eq=design.T, b_eq=np.zeros(design.shape[1]),
                  bounds=(-1.0 / rows, 1.0 / rows), method="highs")
    assert res.status == 0, res.message
    m = -res.eqlin.marginals
    objective = float(np.mean(np.abs(design @ m + const)))
    m = m.reshape(d, d + 1)
    return objective, m[:, :d], m[:, d]
