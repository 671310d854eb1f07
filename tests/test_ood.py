import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import quantrep
from quantrep import (
    Dataset,
    FitConfig,
    ValidationError,
    auroc,
    detection_accuracy,
    gen_two_moons,
    fit_quantile_model,
    lof_scores,
    metric_factor,
    random_label_quantile_model,
    represent,
    tnr_at_tpr,
)
from quantrep.ood import _k_nearest
from quantrep.quantile import _BLOCK_BYTES, QuantileGrid, fit_base_classifiers

from oracles import (
    auroc_midrank_loop,
    auroc_pairwise,
    detection_accuracy_sweep,
    k_nearest_cdist,
    lof_bruteforce,
    tnr_at_tpr_loop,
)


class TestLof:
    def test_lattice_coincident_query(self):
        ref = np.arange(20.0)[:, None]
        score = lof_scores(ref, np.array([[10.0]]), k=2)[0]
        assert -score == pytest.approx(1.0, abs=0.05)

    def test_far_query_flagged(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=(100, 2))
        score = lof_scores(ref, np.array([[40.0, 40.0]]), k=10)[0]
        assert -score > 5.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            ref = rng.normal(size=(50, 3))
            queries = rng.normal(size=(15, 3)) * 1.5
            got = -lof_scores(ref, queries, k=5)
            want = lof_bruteforce(ref, queries, k=5)
            assert np.abs(got - want).max() <= 1e-9

    def test_lattice_interior_near_one(self):
        xs = np.linspace(0, 1, 30)
        ref = np.array([[a, b] for a in xs for b in xs])
        interior = np.array([[a, b] for a in xs[5:-5] for b in xs[5:-5]])
        lof = -lof_scores(ref, interior, k=4)
        assert lof.min() >= 0.9 and lof.max() <= 1.1

    def test_lattice_duplicates_match_bruteforce(self):
        # every lattice point twice: ties at the k-th distance in every row,
        # resolved by the lowest index as in the brute-force definition
        xs = np.arange(6.0)
        lattice = np.array([[a, b] for a in xs for b in xs])
        ref = np.vstack([lattice, lattice[::2]])
        queries = np.vstack([lattice[::5], lattice[3::7] + 0.5])
        for k in (1, 2, 4, 5, 9):
            got = -lof_scores(ref, queries, k=k)
            want = lof_bruteforce(ref, queries, k=k)
            assert np.abs(got - want).max() <= 1e-9, k

    def test_chunked_search_matches_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(11)
        rounded = np.round(rng.normal(size=(90, 2)), 1)
        # three points, 26 to 33 copies each: a row's candidates are every
        # copy of its point, more than a quarter block below, so each run of
        # candidates is one row
        copies = rng.integers(0, 3, (90, 1)) * np.array([1.0, 0.5])
        queries = np.round(rng.normal(size=(40, 2)), 1)
        for ref in (rounded, copies):
            whole = lof_scores(ref, np.vstack([queries, ref[:10]]), k=6)
            with monkeypatch.context() as patch:
                # 200 floats per block: 2 to 7 rows of products a block
                patch.setattr("quantrep.quantile._BLOCK_BYTES", 200 * 8)
                np.testing.assert_array_equal(
                    lof_scores(ref, np.vstack([queries, ref[:10]]), k=6), whole)

    def test_search_never_holds_the_distance_matrix(self):
        # the 2 000 x 2 000 reference distances alone are 30 MiB
        rng = np.random.default_rng(12)
        ref = rng.normal(size=(2000, 2))
        queries = rng.normal(size=(2400, 2))
        tracemalloc.start()
        try:
            lof_scores(ref, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * _BLOCK_BYTES

    def test_ties_never_hold_more_than_a_few_blocks(self):
        # every row has about 1 000 copies, all of them candidates at the
        # k-th distance 0; their indices and distances for all 2 400 rows
        # would be 37 MiB
        rng = np.random.default_rng(14)
        ref = np.repeat(rng.integers(0, 2, (2000, 1)), 2, axis=1).astype(np.float64)
        tracemalloc.start()
        try:
            scores = lof_scores(ref, ref[:400])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(scores, -1.0)
        assert peak < 8 * _BLOCK_BYTES

    def test_k_validated(self):
        ref = np.zeros((5, 2))
        with pytest.raises(ValidationError):
            lof_scores(ref, ref, k=5)
        with pytest.raises(ValidationError):
            lof_scores(ref, ref, k=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.True_, "2"])
    def test_non_integer_k_rejected(self, k):
        ref = np.arange(10.0)[:, None]
        with pytest.raises(ValidationError, match="integer"):
            lof_scores(ref, ref, k=k)

    def test_numpy_integer_k_accepted(self):
        ref = np.random.default_rng(13).normal(size=(30, 2))
        for k in (np.int64(4), np.int32(4), np.uint8(4)):
            np.testing.assert_array_equal(lof_scores(ref, ref[:5], k=k),
                                          lof_scores(ref, ref[:5], k=4))

    def test_no_coordinates_rejected(self):
        with pytest.raises(ValidationError):
            lof_scores(np.zeros((5, 0)), np.zeros((2, 0)), k=2)

    def test_nonfinite_rejected(self):
        ref = np.arange(10.0)[:, None]
        with pytest.raises(ValidationError):
            lof_scores(ref, np.array([[np.nan]]), k=2)


class TestNeighbourSearch:
    """The projection search returns the neighbourhoods of the full-row
    ``cdist`` search: the same indices in the same order, and distances
    equal to 1e-14 relative, however the rows tie, crowd one projection or
    sit far from the origin."""

    def _assert_matches_cdist(self, reference, k, queries):
        """The one search of ``_k_nearest`` against both modes of the
        oracle: its first m rows against the reference rows with self
        excluded, the rest against the queries. Returns the number of rows
        tied at their k-th distance, which only the lowest indices among
        the tied candidates settle."""
        m = reference.shape[0]
        got = _k_nearest(reference, queries, k)
        assert got[0].shape == got[1].shape == (m + queries.shape[0], k)
        tied = 0
        for rows, points, exclude_self in ((slice(None, m), reference, True),
                                           (slice(m, None), queries, False)):
            want = k_nearest_cdist(points, reference, k, exclude_self)
            np.testing.assert_array_equal(got[0][rows], want[0])
            np.testing.assert_allclose(got[1][rows], want[1], rtol=1e-14, atol=0)
            if points.shape[0] and k + 1 + exclude_self <= m:
                d = k_nearest_cdist(points, reference, k + 1, exclude_self)[1]
                tied += int(np.count_nonzero(d[:, k] == d[:, k - 1]))
        return tied

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_gaussian(self, dim):
        rng = np.random.default_rng(40 + dim)
        ref = rng.normal(size=(300, dim))
        queries = rng.normal(size=(120, dim)) * 1.5
        for k in (1, 5, 20):
            self._assert_matches_cdist(ref, k, queries)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rounded_coordinates_tie_at_the_kth_distance(self, dim):
        rng = np.random.default_rng(50 + dim)
        ref = np.round(rng.normal(size=(300, dim)), 1)
        queries = np.round(rng.normal(size=(100, dim)), 1)
        tied = sum(self._assert_matches_cdist(ref, k, queries) for k in (1, 4, 9))
        assert tied > 0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_every_point_repeated(self, k):
        # four copies of each point: a row's k nearest may all be copies,
        # with self among the candidates or not
        rng = np.random.default_rng(60)
        base = rng.normal(size=(40, 2))
        ref = np.repeat(base, 4, axis=0)
        queries = np.vstack([base[::3], rng.normal(size=(20, 2))])
        assert self._assert_matches_cdist(ref, k, queries) > 0

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_every_point_repeated_ten_times(self, k):
        # ten copies of each point tie every row at distance 0 for k < 10,
        # so each row picks the lowest-indexed of its copies
        rng = np.random.default_rng(61)
        base = rng.normal(size=(30, 2))
        ref = np.repeat(base, 10, axis=0)
        queries = np.vstack([base[::4], rng.normal(size=(20, 2))])
        assert self._assert_matches_cdist(ref, k, queries) > 0

    def test_near_rank_one_32d(self):
        rng = np.random.default_rng(70)
        direction = rng.normal(size=32)
        ref = (rng.normal(size=(600, 1)) * direction
               + 6e-4 * rng.normal(size=(600, 32)) * np.linalg.norm(direction) / np.sqrt(32))
        queries = rng.normal(size=(150, 1)) * direction * 1.2
        s = np.linalg.svd(ref - ref.mean(axis=0), compute_uv=False)
        assert 1e-4 < s[1] / s[0] < 1e-3
        self._assert_matches_cdist(ref, 20, queries + 1e-3 * rng.normal(size=(150, 32)))

    def test_k_at_the_ends(self):
        rng = np.random.default_rng(80)
        ref = rng.normal(size=(25, 3))
        queries = rng.normal(size=(10, 3))
        # identical rows tie every candidate with every other, so a row's
        # candidates are the whole reference
        same = np.full((16, 3), 0.25)
        for r, q in ((ref, queries), (same, np.vstack([same[:3], np.ones((2, 3))]))):
            for k in (1, r.shape[0] - 1):
                self._assert_matches_cdist(r, k, q)

    def test_empty_points(self):
        # no queries: the reference rows alone
        ref = np.random.default_rng(90).normal(size=(12, 2))
        self._assert_matches_cdist(ref, 3, ref[:0])

    def test_far_from_the_origin(self):
        # 1e6 from the origin and about 1e-3 apart: squared norms of the raw
        # rows would cancel to 1e-4 in the product, far above the squared
        # distances of 1e-6 it must order
        rng = np.random.default_rng(92)
        ref = 1e6 + np.cumsum(rng.uniform(0.5e-3, 1.5e-3, (400, 2)), axis=0)
        queries = ref[::7] + rng.normal(scale=1e-3, size=(58, 2))
        for k in (1, 5, 20):
            self._assert_matches_cdist(ref, k, queries)
        self._assert_matches_cdist(ref[:, :1], 5, queries[:, :1])

    def test_squares_underflow(self):
        # coordinates of 1e-160 or less: squared distances are subnormal or
        # 0, where rounding is absolute, not relative to the norms
        rng = np.random.default_rng(95)
        for scale in (1e-160, 1e-300):
            ref = scale * rng.normal(size=(200, 2))
            self._assert_matches_cdist(ref, 5, scale * rng.normal(size=(50, 2)))

    def test_gaussian_mixture_8d(self):
        # ten centres in 8-d: full rank, so the band around a row's
        # projection holds much of the reference
        rng = np.random.default_rng(93)
        centres = 3.0 * rng.normal(size=(10, 8))
        ref = centres[rng.integers(0, 10, 800)] + rng.normal(size=(800, 8))
        queries = centres[rng.integers(0, 10, 200)] + 1.5 * rng.normal(size=(200, 8))
        for k in (1, 20):
            self._assert_matches_cdist(ref, k, queries)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_reference_of_one_point(self, dim):
        # no spread, so no principal axis: every reference row ties with
        # every other, and the queries sit on the point or off it
        ref = np.full((40, dim), -2.5)
        queries = np.vstack([ref[:3], np.linspace(-4.0, 1.0, 6 * dim).reshape(6, dim)])
        for k in (1, 7, 39):
            assert self._assert_matches_cdist(ref, k, queries) > 0

    def test_band_wider_than_a_block(self, monkeypatch):
        # 32 floats per block: a row's first window of 8 * (k + 1) sorted
        # rows (k = 9), or the far query's band, exceeds a block, so such a
        # row is a block of its own
        rng = np.random.default_rng(94)
        ref = np.round(rng.normal(size=(200, 2)), 1)
        queries = np.vstack([rng.normal(size=(30, 2)), [[6.0, 0.0]]])
        monkeypatch.setattr("quantrep.quantile._BLOCK_BYTES", 32 * 8)
        for k in (1, 9):
            self._assert_matches_cdist(ref, k, queries)

    def test_lof_call_loads_no_scipy(self):
        # the search is numpy alone: scipy.spatial cost ood-eval about
        # 0.33 s of imports
        probe = ("import sys; import numpy as np; from quantrep import lof_scores; "
                 "rng = np.random.default_rng(91); "
                 "lof_scores(rng.normal(size=(60, 3)), rng.normal(size=(25, 3)), k=5); "
                 "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(quantrep.__file__))
        proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        is_id = np.array([True, True, False, False])
        assert auroc(scores, is_id) == 1.0

    def test_all_ties(self):
        scores = np.ones(10)
        is_id = np.arange(10) < 6
        assert auroc(scores, is_id) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.normal(size=200), 1)  # induce ties
        is_id = rng.integers(0, 2, 200).astype(bool)
        if is_id.all() or not is_id.any():
            is_id[0] = ~is_id[0]
        assert auroc(scores, is_id) == pytest.approx(
            auroc_pairwise(scores, is_id), abs=1e-12)

    def test_equals_midrank_loop_bitwise(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, rng.integers(1, 20), n).astype(np.float64)
            is_id = rng.integers(0, 2, n).astype(bool)
            is_id[:2] = [True, False]
            assert auroc(scores, is_id) == auroc_midrank_loop(scores, is_id)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=150)
        is_id = rng.integers(0, 2, 150).astype(bool)
        base = auroc(scores, is_id)
        assert auroc(np.exp(scores), is_id) == pytest.approx(base, abs=1e-12)
        assert auroc(3 * scores + 7, is_id) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError, match="OOD metrics need both ID and OOD samples"):
            auroc(np.ones(4), np.ones(4, dtype=bool))


class TestTnrAtTpr:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        is_id = np.array([True, True, False, False])
        assert tnr_at_tpr(scores, is_id) == 1.0

    def test_interleaved_identical_distributions(self):
        vals = np.arange(200.0)
        scores = np.concatenate([vals, vals])
        is_id = np.concatenate([np.ones(200, bool), np.zeros(200, bool)])
        assert tnr_at_tpr(scores, is_id) == pytest.approx(0.05, abs=1e-12)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=120)
        is_id = rng.integers(0, 2, 120).astype(bool)
        assert tnr_at_tpr(scores, is_id) == tnr_at_tpr_loop(scores, is_id)

    def test_equals_loop_bitwise(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(2, 400))
            scores = (rng.integers(0, rng.integers(1, 20), n).astype(np.float64)
                      if trial % 2 else rng.normal(size=n))
            is_id = rng.integers(0, 2, n).astype(bool)
            is_id[:2] = [True, False]
            assert tnr_at_tpr(scores, is_id) == tnr_at_tpr_loop(scores, is_id)


class TestDetectionAccuracy:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        is_id = np.array([True, True, False, False])
        assert detection_accuracy(scores, is_id) == 1.0

    def test_all_equal_majority(self):
        scores = np.ones(10)
        is_id = np.arange(10) < 6
        assert detection_accuracy(scores, is_id) == 0.6

    def test_matches_exhaustive_sweep(self):
        # bit for bit, on tied and untied scores
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(2, 400))
            scores = (rng.integers(0, rng.integers(1, 20), n).astype(np.float64)
                      if trial % 2 else rng.normal(size=n))
            is_id = rng.integers(0, 2, n).astype(bool)
            is_id[:2] = [True, False]
            assert detection_accuracy(scores, is_id) == detection_accuracy_sweep(scores, is_id)

    def test_cut_between_adjacent_floats(self):
        # a midpoint of 1 and the next float rounds onto 1; a cut between tie
        # groups still separates them
        scores = np.array([1.0, np.nextafter(1.0, 2.0)])
        is_id = np.array([False, True])
        assert detection_accuracy_sweep(scores, is_id) == 1.0
        assert detection_accuracy(scores, is_id) == 1.0


@pytest.mark.parametrize("metric", [auroc, tnr_at_tpr, detection_accuracy])
class TestRocInputs:
    """The three metrics read one ROC curve and share its input rules."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_score_rejected(self, metric, bad):
        scores = np.array([0.9, bad, 0.4, 0.2, 0.1, 0.3])
        with pytest.raises(ValidationError):
            metric(scores, np.array([True, True, True, False, False, False]))

    def test_length_mismatch_rejected(self, metric):
        with pytest.raises(ValidationError):
            metric(np.arange(4.0), np.array([True, False, True]))

    def test_single_class_rejected(self, metric):
        with pytest.raises(ValidationError, match="OOD metrics need both ID and OOD samples"):
            metric(np.arange(4.0), np.zeros(4, dtype=bool))


class TestRandomLabelModel:
    GRID = QuantileGrid(np.linspace(0.01, 0.99, 25), np.linspace(0.01, 0.99, 200))

    def test_two_moons_far_cluster_flagged(self):
        id_ds, ood_ds = gen_two_moons(150, 0.25, 80, (8.3, 2.0), seed=21)
        model = random_label_quantile_model(id_ds.features, 2,
                                            FitConfig(l2_reg=0.5), seed=2)
        ref = represent(model, id_ds.features).flattened()
        test_id, _ = gen_two_moons(80, 0.25, 10, (8.3, 2.0), seed=22)
        queries = np.vstack([test_id.features, ood_ds.features])
        is_id = np.concatenate([np.ones(test_id.n, bool), np.zeros(ood_ds.n, bool)])
        scores = lof_scores(ref, represent(model, queries).flattened(), k=20)
        assert auroc(scores, is_id) > 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(60, 2))
        m1 = random_label_quantile_model(feats, 2, FitConfig(), seed=5)
        m2 = random_label_quantile_model(feats, 2, FitConfig(), seed=5)
        np.testing.assert_array_equal(m1.tasks[0].dense_coefficients,
                                      m2.tasks[0].dense_coefficients)

    def test_gaussian_blob_radius_outliers(self):
        rng = np.random.default_rng(7)
        blob = rng.normal(size=(300, 2))
        model = random_label_quantile_model(blob, 2, FitConfig(l2_reg=0.5), seed=3)
        ref = represent(model, blob).flattened()
        inner = rng.normal(size=(60, 2)) * 0.8
        theta = rng.uniform(0, 2 * np.pi, 60)
        outer = np.column_stack([np.cos(theta), np.sin(theta)]) * rng.uniform(3.5, 5.0, (60, 1))
        queries = np.vstack([inner, outer])
        is_id = np.concatenate([np.ones(60, bool), np.zeros(60, bool)])
        scores = lof_scores(ref, represent(model, queries).flattened(), k=20)
        assert auroc(scores, is_id) > 0.9

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            random_label_quantile_model(np.zeros((3, 2)), 2)

    @pytest.mark.parametrize("classes,stored", [(2, [1]), (3, [0, 1, 2])])
    def test_stores_the_tasks_of_any_fit(self, classes, stored):
        x = np.random.default_rng(8).normal(size=(60, 2))
        model = random_label_quantile_model(x, classes, seed=1)
        assert [t.class_id for t in model.tasks] == stored


class TestMetricPath:
    """LOF on features @ metric_factor(model) equals LOF on the flattened
    representation of a model with linear anchors."""

    GRID = QuantileGrid(np.linspace(0.01, 0.99, 20), np.linspace(0.01, 0.99, 150))

    def _assert_same_lof(self, model, ref, queries, k=10):
        factor = metric_factor(model)
        via_metric = lof_scores(ref @ factor, queries @ factor, k=k)
        via_rep = lof_scores(represent(model, ref).flattened(),
                             represent(model, queries).flattened(), k=k)
        assert np.all(np.abs(via_metric - via_rep) <= 1e-9 * np.abs(via_rep))

    def test_binary_two_moons(self):
        train, ood = gen_two_moons(100, 0.25, 40, (8.3, 2.0), seed=31)
        base = fit_base_classifiers(train)
        model = fit_quantile_model(train, base[0], grid=self.GRID)
        assert len(model.tasks) == 1
        test_id, _ = gen_two_moons(50, 0.25, 1, (8.3, 2.0), seed=32)
        queries = np.vstack([test_id.features, ood.features])
        self._assert_same_lof(model, train.features, queries)

    def test_three_class_one_vs_rest(self):
        rng = np.random.default_rng(33)
        centers = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
        labels = np.repeat(np.arange(3), 60)
        feats = centers[labels] + rng.normal(size=(180, 3))
        train = Dataset(feats, labels, 3)
        model = fit_quantile_model(train, fit_base_classifiers(train), grid=self.GRID)
        assert len(model.tasks) == 3
        queries = rng.normal(size=(50, 3)) * 2.0
        self._assert_same_lof(model, train.features, queries)

    def test_rank_deficient_field_distances(self):
        # a duplicated feature column gives a rank-deficient metric
        rng = np.random.default_rng(34)
        x = rng.normal(size=(120, 1))
        feats = np.hstack([x, x, rng.normal(size=(120, 1))])
        train = Dataset(feats, (x[:, 0] + feats[:, 2] > 0).astype(int), 2)
        model = fit_quantile_model(train, fit_base_classifiers(train)[0],
                                   grid=self.GRID)
        factor = metric_factor(model)
        rep = represent(model, feats[:30]).flattened()
        proj = feats[:30] @ factor
        d_rep = np.linalg.norm(rep[:, None] - rep[None], axis=2)
        d_proj = np.linalg.norm(proj[:, None] - proj[None], axis=2)
        np.testing.assert_allclose(d_proj, d_rep, rtol=1e-9, atol=1e-9 * d_rep.max())
