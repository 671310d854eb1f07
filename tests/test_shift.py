import math
import tracemalloc

import numpy as np
import pytest

from quantrep import (
    ConfigError,
    Dataset,
    FitConfig,
    Transform,
    ValidationError,
    estimate_transform,
    fit_quantile_model,
    gen_gaussian_pair,
    matching_objective,
)
from quantrep.quantile import _BLOCK_BYTES, QuantileGrid, fit_base_classifiers, represent
from quantrep.shift import FieldGap, _affine_objective, _estimate_orthogonal

CENTERS = np.array([[0.0, 0.0], [1.0, 1.0]])
STDS = np.array([[0.1, 0.3], [0.3, 0.11]])
GRID = QuantileGrid(np.linspace(0.01, 0.99, 40), np.linspace(0.01, 0.99, 300))
FC = FitConfig(l2_reg=2.0)


def fit_model(data, fc=FC, grid=GRID):
    return fit_quantile_model(data, fit_base_classifiers(data, fc),
                              grid=grid, fit_config=fc)


class TestTransform:
    def test_identity(self):
        t = Transform("orthogonal-2d", angle=0.0)
        x = np.random.default_rng(0).normal(size=(10, 2))
        np.testing.assert_allclose(t.apply(x), x, atol=1e-15)

    def test_quarter_turn(self):
        t = Transform("orthogonal-2d", angle=math.pi / 2)
        out = t.apply(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = Transform("orthogonal-2d", angle=rng.uniform(0, 2 * math.pi),
                          reflect=bool(rng.integers(0, 2)))
            m = t.matrix
            np.testing.assert_allclose(m.T @ m, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("family,kwargs", [
        ("orthogonal-2d", {"angle": 1.234, "reflect": True}),
        ("affine", {"matrix": [[1.2, 0.3], [-0.4, 0.9]], "offset": [0.5, -1.0]}),
        ("orthogonal-2d", {"angle": -2.5}),
        ("affine", {"matrix": [[0.8, -0.2], [0.1, 1.3]]}),
    ])
    def test_apply_then_inverse_is_identity(self, family, kwargs):
        t = Transform(family, **kwargs)
        x = np.random.default_rng(2).normal(size=(30, 2))
        np.testing.assert_allclose(t.apply_inverse(t.apply(x)), x, atol=1e-10)
        np.testing.assert_allclose(t.apply(t.apply_inverse(x)), x, atol=1e-10)

    @pytest.mark.parametrize("reflect", [False, True])
    def test_rotation_inverse_is_the_transpose_bitwise(self, reflect):
        t = Transform("orthogonal-2d", angle=0.7, reflect=reflect)
        r = t.matrix
        x = np.random.default_rng(3).normal(size=(50, 2))
        np.testing.assert_array_equal(t.apply(x), x @ r.T)
        np.testing.assert_array_equal(t.apply_inverse(x), x @ r)
        np.testing.assert_array_equal(t.offset, [0.0, 0.0])

    def test_affine_maps_match_the_closed_forms_bitwise(self):
        a, b = np.array([[1.2, 0.3], [-0.4, 0.9]]), np.array([0.5, -1.0])
        t = Transform("affine", matrix=a, offset=b)
        x = np.random.default_rng(4).normal(size=(50, 2))
        np.testing.assert_array_equal(t.apply(x), x @ a.T + b)
        np.testing.assert_array_equal(t.apply_inverse(x), (x - b) @ np.linalg.inv(a).T)

    def test_singular_affine_rejected(self):
        with pytest.raises(ValidationError):
            Transform("affine", matrix=[[1.0, 1.0], [1.0, 1.0]])

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            Transform("projective")

    def test_dimension_mismatch(self):
        t = Transform("orthogonal-2d", angle=0.3)
        with pytest.raises(ValidationError):
            t.apply(np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            t.apply_inverse(np.zeros((4, 3)))


@pytest.fixture(scope="module")
def t0_model():
    data = gen_gaussian_pair(CENTERS, STDS, 300, seed=0)
    return data, fit_model(data)


class TestMatchingObjective:
    def test_self_match_is_zero(self, t0_model):
        data, model = t0_model
        t = Transform("orthogonal-2d", angle=0.0)
        assert matching_objective(model, model, t, data.features) <= 1e-12

    def test_identity_beats_rotations(self, t0_model):
        data, model = t0_model
        fresh = gen_gaussian_pair(CENTERS, STDS, 300, seed=5)
        model_t1 = fit_model(fresh)
        obj_id = matching_objective(model, model_t1, Transform("orthogonal-2d", angle=0.0),
                                    fresh.features)
        for deg in range(30, 360, 30):
            t = Transform("orthogonal-2d", angle=math.radians(deg))
            assert obj_id < matching_objective(model, model_t1, t, fresh.features)

    def test_permutation_invariant(self, t0_model):
        data, model = t0_model
        t = Transform("orthogonal-2d", angle=0.7)
        a = matching_objective(model, model, t, data.features)
        perm = np.random.default_rng(3).permutation(data.n)
        b = matching_objective(model, model, t, data.features[perm])
        assert a == pytest.approx(b, abs=1e-12)


def stacked_gap(m0, m1, back, x):
    """The objective as one expression over freshly stacked task logits,
    the t0 model's at the mapped-back samples ``back``."""
    logits1 = np.stack([t.logits(x) for t in m1.tasks])
    return float(np.mean(np.abs(
        np.stack([t.logits(back) for t in m0.tasks]) - logits1)))


def random_transforms(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(Transform("orthogonal-2d", angle=rng.uniform(0, 2 * math.pi),
                             reflect=bool(rng.integers(0, 2))))
        out.append(Transform("affine", matrix=np.eye(2) + rng.normal(0, 0.3, (2, 2)),
                             offset=rng.normal(0, 0.5, 2)))
    return out


def three_class(seed, n_per_class=80):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]])
    feats = np.vstack([c + rng.normal(0, 0.6, (n_per_class, 2)) for c in centers])
    return Dataset(feats, np.repeat(np.arange(3), n_per_class), 3)


@pytest.fixture(scope="module")
def binary_pair(t0_model):
    _, model = t0_model
    fresh = gen_gaussian_pair(CENTERS, STDS, 300, seed=11)
    return model, fit_model(fresh), fresh.features


@pytest.fixture(scope="module")
def three_class_pair():
    grid = QuantileGrid(np.linspace(0.01, 0.99, 20), np.linspace(0.01, 0.99, 150))
    d0, d1 = three_class(0), three_class(1)
    return fit_model(d0, grid=grid), fit_model(d1, grid=grid), d1.features


class TestFieldGap:
    @pytest.mark.parametrize("pair", ["binary_pair", "three_class_pair"])
    def test_equals_stacked_expression(self, pair, request):
        # the pulled-back coefficient difference sums in another order than
        # the stacked logits, so the two agree to rounding, not bitwise
        m0, m1, x = request.getfixturevalue(pair)
        gap = FieldGap(m0, m1, x)
        for tr in random_transforms(12, 50):
            ref = stacked_gap(m0, m1, tr.apply_inverse(x), x)
            assert gap(*tr.inverse_map()) == pytest.approx(ref, rel=1e-12)
            assert matching_objective(m0, m1, tr, x) == pytest.approx(ref, rel=1e-12)

    def test_interleaved_evaluators_do_not_alias(self, t0_model, binary_pair,
                                                  three_class_pair):
        m0, m1, _ = binary_pair
        # the swapped pair has the same buffer shape and different contents
        refs = [binary_pair, (m1, m0, t0_model[0].features), three_class_pair]
        gaps = [FieldGap(*ref) for ref in refs]
        for tr in random_transforms(13, 5):
            for gap, (m0, m1, x) in zip(gaps + gaps[::-1], refs + refs[::-1]):
                assert gap(*tr.inverse_map()) == pytest.approx(
                    stacked_gap(m0, m1, tr.apply_inverse(x), x), rel=1e-12)

    def test_grid_or_class_count_mismatch_raises(self, binary_pair, three_class_pair):
        m0, m1, x = binary_pair
        coarse = fit_model(gen_gaussian_pair(CENTERS, STDS, 50, seed=1),
                           grid=QuantileGrid(GRID.anchors, np.linspace(0.01, 0.99, 100)))
        with pytest.raises(ValidationError):
            FieldGap(m0, coarse, x)
        with pytest.raises(ValidationError):
            FieldGap(m0, three_class_pair[1], three_class_pair[2])
        with pytest.raises(ValidationError):
            matching_objective(three_class_pair[0], m1,
                               Transform("orthogonal-2d", angle=0.3), x)

    def test_dimension_mismatch_raises(self, binary_pair):
        m0, m1, x = binary_pair
        with pytest.raises(ValidationError):
            FieldGap(m0, m1, np.zeros((4, 3)))
        with pytest.raises(ValidationError):
            FieldGap(m0, m1, x)(np.eye(3), np.zeros(3))

    def test_binary_objective_matches_represent(self, binary_pair):
        # the objective runs over the one stored task; the class-0 mirror in
        # the whole representation has the same absolute gaps, reordered
        m0, m1, x = binary_pair
        assert len(m0.tasks) == len(m1.tasks) == 1
        for tr in random_transforms(14, 5):
            ref = float(np.mean(np.abs(represent(m0, tr.apply_inverse(x)).values
                                       - represent(m1, x).values)))
            assert matching_objective(m0, m1, tr, x) == pytest.approx(ref, rel=1e-12)
            ref = float(np.mean(np.abs(represent(m1, tr.apply_inverse(x)).values
                                       - represent(m0, x).values)))
            assert matching_objective(m1, m0, tr, x) == pytest.approx(ref, rel=1e-12)

    def test_evaluations_allocate_less_than_one_field(self, binary_pair):
        m0, m1, x = binary_pair
        gap = FieldGap(m0, m1, x)
        transforms = random_transforms(15, 10)
        field_bytes = x.shape[0] * GRID.n_dense * 8
        tracemalloc.start()
        try:
            for tr in transforms:
                gap(*tr.inverse_map())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes

    def test_build_and_calls_stay_within_two_blocks(self, binary_pair):
        # a sample whose whole logit field is over two row blocks: neither
        # building the evaluator nor calling it may hold that field
        m0, m1, _ = binary_pair
        x = gen_gaussian_pair(CENTERS, STDS, 500, seed=16).features
        assert x.shape[0] * GRID.n_dense * 8 > 2 * _BLOCK_BYTES
        transforms = random_transforms(17, 5)
        tracemalloc.start()
        try:
            gap = FieldGap(m0, m1, x)
            for tr in transforms:
                gap(*tr.inverse_map())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * _BLOCK_BYTES

    @pytest.mark.parametrize("p", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    def test_singular_inverse_map(self, binary_pair, p):
        # no Transform can hold a singular inverse map, but the evaluator
        # takes one; the affine search scores it inf without raising
        m0, m1, x = binary_pair
        p, q = np.array(p), np.array([0.2, -0.1])
        gap = FieldGap(m0, m1, x)
        assert gap(p, q) == pytest.approx(stacked_gap(m0, m1, x @ p.T + q, x), rel=1e-12)
        assert _affine_objective(np.concatenate([p.ravel(), q]), gap, 2) == np.inf
        eye = np.concatenate([np.eye(2).ravel(), q])
        assert _affine_objective(eye, gap, 2) == gap(np.eye(2), q)

    @pytest.mark.parametrize("pair", ["binary_pair", "three_class_pair"])
    def test_rotation_search_agrees_with_stacked_expression(self, pair, request):
        m0, m1, x = request.getfixturevalue(pair)
        est = _estimate_orthogonal(FieldGap(m0, m1, x))
        ref = _estimate_orthogonal(lambda p, q: stacked_gap(m0, m1, x @ p.T + q, x))
        assert est.transform.reflect == ref.transform.reflect
        diff = (est.transform.angle - ref.transform.angle + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) <= 1e-9
        assert ([(t.angle, t.reflect) for t in est.near_ties]
                == [(t.angle, t.reflect) for t in ref.near_ties])


class TestEstimateTransform:
    def test_rotation_recovery_single_seed(self, t0_model):
        data, model = t0_model
        true_angle = math.radians(123.0)
        truth = Transform("orthogonal-2d", angle=true_angle)
        fresh = gen_gaussian_pair(CENTERS, STDS, 300, seed=7)
        data_t1 = Dataset(truth.apply(fresh.features), fresh.labels, 2)
        est = estimate_transform("orthogonal-2d", model, data_t1, fit_config=FC)
        err = abs((math.degrees(est.transform.angle) - 123.0 + 180) % 360 - 180)
        assert not est.transform.reflect
        assert err < 5.0

    def test_identity_recovery(self, t0_model):
        data, model = t0_model
        fresh = gen_gaussian_pair(CENTERS, STDS, 300, seed=8)
        est = estimate_transform("orthogonal-2d", model, fresh, fit_config=FC)
        err = abs((math.degrees(est.transform.angle) + 180) % 360 - 180)
        assert not est.transform.reflect
        assert err < 5.0

    def test_point_symmetric_construction_ties(self):
        rng = np.random.default_rng(4)
        a = np.array([1.0, 1.0]) + rng.normal(0, 0.25, (60, 2))
        b = np.array([1.0, -1.0]) + rng.normal(0, 0.25, (60, 2))
        feats = np.vstack([a, -a, b, -b])
        labels = np.concatenate([np.zeros(120, int), np.ones(120, int)])
        d0 = Dataset(feats, labels, 2)
        model = fit_model(d0, fc=FitConfig())

        rng2 = np.random.default_rng(5)
        a2 = np.array([1.0, 1.0]) + rng2.normal(0, 0.25, (60, 2))
        b2 = np.array([1.0, -1.0]) + rng2.normal(0, 0.25, (60, 2))
        feats1 = -np.vstack([a2, -a2, b2, -b2])
        d1 = Dataset(feats1, labels, 2)
        model_t1 = fit_model(d1, fc=FitConfig())

        obj_pos = matching_objective(model, model_t1,
                                     Transform("orthogonal-2d", angle=0.0),
                                     d1.features)
        obj_neg = matching_objective(model, model_t1,
                                     Transform("orthogonal-2d", angle=math.pi),
                                     d1.features)
        assert abs(obj_pos - obj_neg) <= 1e-6

        est = estimate_transform("orthogonal-2d", model, d1, fit_config=FitConfig())
        assert not est.identifiable
        assert len(est.near_ties) > 0

    def test_affine_identity_recovery(self, t0_model):
        data, model = t0_model
        fresh = gen_gaussian_pair(CENTERS, STDS, 300, seed=9)
        est = estimate_transform("affine", model, fresh, fit_config=FC)
        np.testing.assert_allclose(est.transform.matrix, np.eye(2), atol=0.3)
        np.testing.assert_allclose(est.transform.offset, 0.0, atol=0.3)

    def test_affine_recovery_on_full_rank_field(self):
        # three overlapping classes give a rank-2 t0 field, so the objective
        # identifies the map; the search must reach the truth's objective
        grid = QuantileGrid(np.linspace(0.01, 0.99, 20), np.linspace(0.01, 0.99, 150))
        truth = Transform("affine", matrix=[[1.2, 0.2], [-0.1, 0.9]], offset=[0.4, -0.3])
        d0, fresh = three_class(0, 150), three_class(1, 150)
        d1 = Dataset(truth.apply(fresh.features), fresh.labels, 3)
        m0 = fit_model(d0, grid=grid)
        est = estimate_transform("affine", m0, d1, fit_config=FC)
        assert est.identifiable
        np.testing.assert_allclose(est.transform.matrix, truth.matrix, atol=0.3)
        np.testing.assert_allclose(est.transform.offset, truth.offset, atol=0.3)
        # the reported objective belongs to the reported transform
        m1 = fit_model(d1, grid=grid)
        assert est.objective == matching_objective(m0, m1, est.transform, d1.features)
        assert est.objective <= matching_objective(m0, m1, truth, d1.features)

    def test_unsupported_family(self, t0_model):
        data, model = t0_model
        with pytest.raises(ConfigError):
            estimate_transform("projective", model, data)

    def test_orthogonal_needs_2d(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(100, 3))
        labels = (feats[:, 0] > 0).astype(int)
        ds = Dataset(feats, labels, 2)
        grid = QuantileGrid(np.linspace(0.01, 0.99, 10), np.linspace(0.01, 0.99, 50))
        model = fit_quantile_model(ds, fit_base_classifiers(ds, FitConfig()),
                                   grid=grid, fit_config=FitConfig())
        with pytest.raises(ConfigError):
            estimate_transform("orthogonal-2d", model, ds)
