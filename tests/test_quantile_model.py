import numpy as np
import pytest

from quantrep import (
    Dataset,
    FitConfig,
    LinearClassifier,
    QuantileGrid,
    ValidationError,
    coefficient_cross_correlation,
    fit_quantile_model,
    load_model,
    monotonicity_violation_rate,
    raw_feature_correlation,
    represent,
    save_model,
)
from quantrep.quantile import QuantileRepresentation, fit_base_classifiers

from oracles import pearson_pair

SMALL_GRID = QuantileGrid(np.linspace(0.01, 0.99, 25),
                          np.linspace(0.01, 0.99, 200))


def separable_1d(n=200, cut=0.15, margin=0.15, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    x = x[np.abs(x - cut) > margin][:, None]
    y = (x[:, 0] > cut).astype(int)
    return Dataset(x, y, 2)


class TestFitQuantileModel:
    def test_anchor_boundaries_nonincreasing_in_tau(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        ds = Dataset(x, (x[:, 0] > 0).astype(int), 2)
        base = LinearClassifier(np.array([1.0]), 0.0)  # graded, well-calibrated
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        task = model.tasks[0]
        bounds = [-c.bias / c.weights[0] for c in task.anchor_classifiers
                  if not c.degenerate and abs(c.weights[0]) > 1e-12]
        assert len(bounds) >= 5
        assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))

    def test_constant_positive_base_gives_degenerate_anchors(self):
        x = np.linspace(-1, 1, 20)[:, None]
        ds = Dataset(x, (x[:, 0] > 0).astype(int), 2)
        base = LinearClassifier(np.zeros(1), 30.0)  # probability ~ 1 everywhere
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        for clf in model.tasks[0].anchor_classifiers:
            assert clf.degenerate
            assert clf.bias > 0
        rep = represent(model, x)
        assert np.all(rep.values[:, 1, :] > 0)
        assert np.ptp(rep.values[:, 1, :]) == 0.0

    def test_deterministic_given_seeds(self):
        ds = separable_1d(seed=3)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        m1 = fit_quantile_model(ds, base, grid=SMALL_GRID, fit_config=FitConfig(seed=9))
        m2 = fit_quantile_model(ds, base, grid=SMALL_GRID, fit_config=FitConfig(seed=9))
        np.testing.assert_array_equal(m1.tasks[0].dense_coefficients,
                                      m2.tasks[0].dense_coefficients)

    def test_weight_two_row_equals_duplicated_row(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] - 0.5 * x[:, 1] + rng.normal(0, 0.5, 60) > 0).astype(int)
        w = np.ones(60)
        w[:6] = 2.0
        weighted = Dataset(x, y, 2, weights=w)
        duplicated = Dataset(np.vstack([x, x[:6]]), np.concatenate([y, y[:6]]), 2)
        fc = FitConfig(l2_reg=0.1, max_iter=5000, tol=1e-12)
        a, b = (fit_quantile_model(ds, fit_base_classifiers(ds, fc), grid=SMALL_GRID,
                                   fit_config=fc).tasks[0].anchor_coefficients()
                for ds in (weighted, duplicated))
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_anchor_coefficients_unit_norm(self):
        ds = separable_1d(seed=4)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        co = model.tasks[0].anchor_coefficients()
        np.testing.assert_allclose(np.linalg.norm(co, axis=1), 1.0, atol=1e-12)

    def test_dense_matches_anchors_at_anchor_taus(self):
        ds = separable_1d(seed=5)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        task = model.tasks[0]
        from quantrep import interpolate_coefficients
        at_anchors = interpolate_coefficients(task.anchor_taus,
                                              task.anchor_coefficients(),
                                              task.anchor_taus)
        assert np.abs(at_anchors - task.anchor_coefficients()).max() < 1e-9

    def test_median_anchor_agrees_with_base(self):
        ds = separable_1d(seed=6)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        assert model.tasks[0].median_agreement >= 0.99

    def test_wrong_base_count_rejected(self):
        ds = separable_1d(seed=7)
        base = fit_base_classifiers(ds, FitConfig())[0]
        with pytest.raises(ValidationError):
            fit_quantile_model(ds, [base, base, base], grid=SMALL_GRID)


class TestRepresent:
    def test_binary_shape_with_default_grid(self):
        ds = separable_1d(n=60, seed=8)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base)
        rep = represent(model, ds.features)
        assert rep.values.shape == (ds.n, 2, 1000)
        assert np.all(np.isfinite(rep.values))

    def test_binary_mirror_is_negated_tau_reflection(self):
        ds = separable_1d(n=80, seed=9)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        rep = represent(model, ds.features[:5])
        np.testing.assert_array_equal(rep.values[:, 0, :],
                                      -rep.values[:, 1, ::-1])

    def test_deep_point_positive_from_small_tau(self):
        ds = separable_1d(seed=10)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        prof = represent(model, np.array([[1.95]])).values[0, 1]
        assert (prof >= 0).mean() > 0.9
        shallow = represent(model, np.array([[-1.95]])).values[0, 1]
        assert (shallow >= 0).mean() < 0.1

    def test_multiclass_shape(self):
        rng = np.random.default_rng(11)
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        feats = np.vstack([c + rng.normal(0, 0.4, (40, 2)) for c in centers])
        labels = np.repeat(np.arange(3), 40)
        ds = Dataset(feats, labels, 3)
        bases = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))
        model = fit_quantile_model(ds, bases, grid=SMALL_GRID)
        rep = represent(model, feats)
        assert rep.values.shape == (120, 3, 200)
        assert len(model.tasks) == 3

    def test_dimension_mismatch(self):
        ds = separable_1d(n=50, seed=12)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        with pytest.raises(ValidationError):
            represent(model, np.zeros((3, 2)))


class TestMonotonicity:
    def _rep(self, values):
        grid = QuantileGrid(np.linspace(0.01, 0.99, 10),
                            np.linspace(0.01, 0.99, values.shape[-1]))
        return QuantileRepresentation(values, grid)

    def test_increasing_profile_zero(self):
        values = np.linspace(-1, 1, 50)[None, None, :]
        assert monotonicity_violation_rate(self._rep(values)).aggregate == 0.0

    def test_decreasing_profile_one(self):
        values = np.linspace(1, -1, 50)[None, None, :]
        assert monotonicity_violation_rate(self._rep(values)).aggregate == 1.0

    def test_separable_end_to_end_below_one_percent(self):
        ds = separable_1d(n=300, seed=13)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base)
        rep = represent(model, ds.features)
        report = monotonicity_violation_rate(rep)
        assert report.aggregate < 0.01
        assert report.per_profile.shape == (ds.n, 2)

    def test_isotonic_projection_removes_violations(self):
        from quantrep import isotonic_projection
        rng = np.random.default_rng(20)
        values = np.cumsum(rng.normal(size=(4, 2, 60)), axis=2)
        rep = self._rep(values.reshape(8, 1, 60))
        projected = isotonic_projection(rep)
        assert monotonicity_violation_rate(projected).aggregate == 0.0
        # projection only raises values, never lowers them
        assert np.all(projected.values >= rep.values - 1e-15)


class TestCrossCorrelation:
    def test_duplicated_feature_column(self):
        rng = np.random.default_rng(14)
        col = rng.normal(size=100)
        feats = np.column_stack([col, col, rng.normal(size=100)])
        corr = raw_feature_correlation(feats)
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(15)
        corr = raw_feature_correlation(rng.normal(size=(80, 4)))
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(16)
        feats = rng.normal(size=(60, 3))
        corr = raw_feature_correlation(feats)
        for i in range(3):
            for j in range(3):
                assert corr[i, j] == pytest.approx(
                    pearson_pair(feats[:, i], feats[:, j]), abs=1e-12)

    def test_zero_variance_flagged_nan(self):
        feats = np.column_stack([np.ones(50), np.arange(50.0)])
        corr = raw_feature_correlation(feats)
        assert np.isnan(corr[0, 0]) and np.isnan(corr[0, 1])
        assert corr[1, 1] == 1.0

    def test_sign_agreement_with_raw_on_strong_entries(self):
        # two strongly correlated features plus pure noise: the coefficient
        # trajectories must agree in sign wherever raw correlation is strong
        rng = np.random.default_rng(17)
        u = rng.normal(size=300)
        feats = np.column_stack([u, u + 0.05 * rng.normal(size=300),
                                 rng.normal(size=300)])
        labels = (u + 0.3 * rng.normal(size=300) > 0).astype(int)
        ds = Dataset(feats, labels, 2)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID,
                                   fit_config=FitConfig(l2_reg=0.5))
        raw = raw_feature_correlation(feats)
        quant = coefficient_cross_correlation(model)
        strong = (np.abs(raw) > 0.8) & ~np.eye(3, dtype=bool)
        assert strong.any()
        assert np.all(np.sign(quant[strong]) == np.sign(raw[strong]))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = separable_1d(n=80, seed=18)
        base = fit_base_classifiers(ds, FitConfig(l2_reg=0.5))[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        path = save_model(model, tmp_path)
        back = load_model(path)
        np.testing.assert_array_equal(back.grid.anchors, model.grid.anchors)
        np.testing.assert_array_equal(back.grid.dense, model.grid.dense)
        np.testing.assert_array_equal(back.tasks[0].dense_coefficients,
                                      model.tasks[0].dense_coefficients)
        for a, b in zip(model.tasks[0].anchor_classifiers,
                        back.tasks[0].anchor_classifiers):
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.bias == b.bias
            assert b.normalized
        rep_a = represent(model, ds.features[:7])
        rep_b = represent(back, ds.features[:7])
        np.testing.assert_array_equal(rep_a.values, rep_b.values)

    def test_sidecar_is_little_endian_float64(self, tmp_path):
        ds = separable_1d(n=50, seed=19)
        base = fit_base_classifiers(ds, FitConfig())[0]
        model = fit_quantile_model(ds, base, grid=SMALL_GRID)
        save_model(model, tmp_path)
        raw = (tmp_path / "model_dense.bin").read_bytes()
        arr = np.frombuffer(raw, dtype="<f8").reshape(1, 200, 2)
        np.testing.assert_array_equal(arr[0], model.tasks[0].dense_coefficients)
