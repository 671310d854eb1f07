import math

import numpy as np
import pytest
from scipy.special import expit

from quantrep import (
    Dataset,
    FitConfig,
    LinearClassifier,
    QuantileGrid,
    ValidationError,
    fit_sigmoid_mae,
    fit_weighted_logistic,
)
from quantrep.datasets import LatentModelSpec, gen_latent_binary
from quantrep import quantile
from quantrep.linear import _DEGENERATE_LOGIT, _logistic_loss, _newton, _sigmoid
from quantrep.quantile import fit_base_classifiers, fit_quantile_model

from oracles import finite_difference_gradient, lbfgs_logistic, logistic_loss

TIGHT = FitConfig(l2_reg=0.1, max_iter=5000, tol=1e-12)


class TestWeightedLogistic:
    def test_separable_sign_and_accuracy(self):
        clf = fit_weighted_logistic(np.array([[-1.0], [1.0]]), np.array([0, 1]),
                                    config=FitConfig(l2_reg=0.1))
        assert clf.weights[0] > 0
        preds = (clf.decision(np.array([[-1.0], [1.0]])) >= 0).astype(int)
        assert preds.tolist() == [0, 1]

    def test_weight_scaling_with_matching_reg(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 2))
        y = (x @ np.array([1.0, -0.5]) + rng.normal(0, 0.5, 40) > 0).astype(int)
        w = rng.uniform(0.5, 2.0, 40)
        a = fit_weighted_logistic(x, y, w, FitConfig(l2_reg=0.3, max_iter=5000, tol=1e-12))
        b = fit_weighted_logistic(x, y, 2 * w, FitConfig(l2_reg=0.6, max_iter=5000, tol=1e-12))
        np.testing.assert_allclose(a.coefficients(), b.coefficients(), atol=1e-8)

    def test_double_weight_equals_duplicate_sample(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 2))
        y = (x[:, 0] + 0.3 * rng.normal(size=25) > 0).astype(int)
        w = np.ones(25)
        w[7] = 2.0
        a = fit_weighted_logistic(x, y, w, TIGHT)
        x_dup = np.vstack([x, x[7:8]])
        y_dup = np.concatenate([y, y[7:8]])
        b = fit_weighted_logistic(x_dup, y_dup, None, TIGHT)
        np.testing.assert_allclose(a.coefficients(), b.coefficients(), atol=1e-8)

    @pytest.mark.parametrize("n, l2_reg, tol", [(40, 0.1, 1e-8), (300, 1e-4, 1e-8),
                                                (300, 1e-4, 1e-5)])
    def test_converged_meets_relative_gradient_bound(self, n, l2_reg, tol):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        y = (x @ np.array([1.0, -0.5, 0.2]) + rng.normal(0, 0.7, n) > 0).astype(int)
        w = rng.uniform(0.5, 3.0, n)
        clf = fit_weighted_logistic(x, y, w, FitConfig(l2_reg=l2_reg, tol=tol))
        assert clf.converged
        _, grad = logistic_loss(clf.coefficients(), x, y, w, l2_reg)
        assert np.linalg.norm(grad) <= tol * max(1.0, w.sum())

    def test_iteration_cap_reports_nonconvergence(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + rng.normal(0, 1.0, 200) > 0).astype(int)
        assert not fit_weighted_logistic(x, y, config=FitConfig(max_iter=1)).converged
        assert fit_weighted_logistic(x, y).converged

    def test_single_class_returns_flagged_constant(self):
        clf = fit_weighted_logistic(np.array([[0.1], [0.2]]), np.array([1, 1]))
        assert clf.degenerate
        assert clf.weights[0] == 0.0
        assert clf.bias > 20
        assert expit(clf.bias) > 0.99

        clf0 = fit_weighted_logistic(np.array([[0.1], [0.2]]), np.array([0, 0]))
        assert clf0.bias < -20

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(ValidationError):
            fit_weighted_logistic(np.array([[np.nan], [1.0]]), np.array([0, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive and finite"):
            fit_weighted_logistic(np.array([[-1.0], [1.0]]), np.array([0, 1]),
                                  sample_weights=np.array([1.0, bad]))

    def test_convexity_of_objective(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, 30)
        w = rng.uniform(0.5, 2.0, 30)
        for _ in range(50):
            t1 = rng.normal(size=4)
            t2 = rng.normal(size=4)
            mid = (t1 + t2) / 2

            def obj(t):
                return _logistic_loss(t, x, y, w, 0.05)[0]

            assert obj(mid) <= (obj(t1) + obj(t2)) / 2 + 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        w = rng.uniform(0.5, 2.0, 20)

        def obj(t):
            return _logistic_loss(t, x, y, w, 0.05)[0]

        for _ in range(100):
            theta = rng.normal(0, 1.5, size=4)
            _, grad, _ = _logistic_loss(theta, x, y, w, 0.05)
            fd = finite_difference_gradient(obj, theta)
            assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_value_matches_independent_sum(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        w = rng.uniform(0.5, 2.0, 50)
        for _ in range(20):
            theta = rng.normal(0, 1.0, size=4)
            s = 2.0 * y - 1.0
            z = x @ theta[:3] + theta[3]
            ref = sum(wi * np.log1p(np.exp(-si * zi)) for wi, si, zi in zip(w, s, z))
            ref += 0.5 * 0.05 * float(theta[:3] @ theta[:3])
            assert _logistic_loss(theta, x, y, w, 0.05)[0] == pytest.approx(ref, rel=1e-12)

    def test_value_at_large_logits_is_hinge_limit(self):
        # log(1 + exp(-sz)) -> max(0, -sz) once |z| is large; exp would overflow
        x = np.array([[1.0], [-1.0], [2.0], [-3.0]])
        y = np.array([1, 1, 0, 0])
        w = np.array([1.0, 2.0, 0.5, 1.5])
        theta = np.array([1000.0, 3.0])
        z = x[:, 0] * theta[0] + theta[1]
        hinge = np.maximum(0.0, -(2.0 * y - 1.0) * z)
        value, grad, _ = _logistic_loss(theta, x, y, w, 1e-4)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert value == pytest.approx(float(w @ hinge) + 0.5e-4 * 1000.0 ** 2, rel=1e-15)

    def test_iterations_recorded(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2))
        y = (x[:, 0] + rng.normal(0, 1.0, 100) > 0).astype(int)
        clf = fit_weighted_logistic(x, y)
        assert clf.iterations > 0
        assert "iterations" not in clf.to_json_dict()
        assert fit_weighted_logistic(x, y, config=FitConfig(max_iter=1)).iterations == 1
        assert fit_weighted_logistic(x, np.ones(100)).iterations == 0

    @pytest.mark.parametrize("start", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                                       [0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_warm_start_must_be_a_finite_coefficient_vector(self, start):
        x = np.random.default_rng(3).normal(size=(20, 2))
        with pytest.raises(ValidationError, match="warm_start"):
            fit_weighted_logistic(x, np.arange(20) % 2, warm_start=start)

    def test_curvature_gives_finite_difference_hessian(self):
        # Newton's Hessian X~^T diag(curvature) X~ + diag(l2, .., l2, 0)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        w = rng.uniform(0.5, 2.0, 20)
        xt = np.column_stack([x, np.ones(20)])
        for _ in range(20):
            theta = rng.normal(0, 1.5, size=4)
            curv = _logistic_loss(theta, x, y, w, 0.05)[2]
            hess = (xt.T * curv) @ xt + np.diag([0.05, 0.05, 0.05, 0.0])
            fd = np.column_stack([finite_difference_gradient(
                lambda t, i=i: _logistic_loss(t, x, y, w, 0.05)[1][i], theta)
                for i in range(4)])
            assert np.abs(hess - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def _noisy_logistic_problem(seed, n, d):
    """Features, Bernoulli labels of a logistic model (not separable) and
    positive weights."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    coef = rng.normal(size=d + 1) / np.sqrt(d)
    y = (rng.uniform(size=n) < expit(x @ coef[:d] + coef[d])).astype(float)
    return x, y, rng.uniform(0.5, 2.0, n), rng


class TestNewtonAgainstLbfgs:
    """scipy's L-BFGS-B (``oracles.lbfgs_logistic``) is the referee of the
    Newton fits. Both stop at ||g|| <= tol * W, so at the default tol they
    meet to about 1e-7 relative (5e-8 seen); the bound is 1e-6 relative to
    max(1, max |coefficient|)."""

    @pytest.mark.parametrize("d", [1, 8, 32])
    @pytest.mark.parametrize("l2_reg", [0.0, 1e-4])
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_lbfgs(self, d, l2_reg, warm):
        for seed in range(3):
            x, y, w, rng = _noisy_logistic_problem(seed, 500, d)
            theta0 = np.zeros(d + 1)
            if warm:   # the optimum of a neighbouring problem, as anchors chain
                theta0 = lbfgs_logistic(x, y, w * rng.uniform(0.8, 1.2, w.size),
                                        l2_reg, theta0)[0]
            ref, ref_converged, _ = lbfgs_logistic(x, y, w, l2_reg, theta0, max_iter=5000)
            clf = fit_weighted_logistic(x, y, w, FitConfig(l2_reg=l2_reg),
                                        warm_start=theta0 if warm else None)
            assert ref_converged and clf.converged
            _, grad = logistic_loss(clf.coefficients(), x, y, w, l2_reg)
            assert np.linalg.norm(grad) <= 1e-8 * w.sum()
            assert (np.abs(clf.coefficients() - ref).max()
                    <= 1e-6 * max(1.0, np.abs(ref).max()))


class TestNewtonFallbacks:
    def test_duplicated_column_without_ridge(self):
        # the Hessian is exactly singular: the least-squares step splits the
        # weight evenly and the logits are those of the one-column fit
        x, y, w, _ = _noisy_logistic_problem(13, 300, 1)
        config = FitConfig(l2_reg=0.0)
        one = fit_weighted_logistic(x, y, w, config)
        two = fit_weighted_logistic(np.hstack([x, x]), y, w, config)
        assert one.converged and two.converged
        assert two.weights[0] == pytest.approx(two.weights[1], rel=1e-12)
        np.testing.assert_allclose(two.decision(np.hstack([x, x])), one.decision(x),
                                   rtol=0, atol=1e-8)

    def test_constant_scores_from_base_rate_take_no_step(self):
        # Platt's fit on constant scores: its base-rate start is the optimum
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        start = [0.0, math.log(0.75 / 0.25)]
        clf = fit_weighted_logistic(np.full((8, 1), 0.3), y,
                                    config=FitConfig(l2_reg=0.0), warm_start=start)
        assert clf.converged and clf.iterations == 0
        assert clf.coefficients().tolist() == start

    @pytest.mark.parametrize("warm", [False, True])
    def test_failed_line_search_ends_the_fit(self, warm):
        # a stop below rounding: once the loss cannot fall, the fit ends
        # non-converged where it stands instead of running to max_iter
        # (from a warm start, after one restart from zero)
        x, y, w, _ = _noisy_logistic_problem(14, 200, 3)
        fit = fit_weighted_logistic(x, y, w)
        clf = fit_weighted_logistic(x, y, w, FitConfig(tol=1e-300),
                                    warm_start=fit.coefficients() if warm else None)
        assert not clf.converged
        assert clf.iterations < 100
        np.testing.assert_allclose(clf.coefficients(), fit.coefficients(), atol=1e-7)

    @pytest.mark.parametrize("slope", [40.0, -40.0])
    def test_saturated_warm_start_falls_back_to_zero(self, slope):
        # +-40 x puts every margin where sigma(1 - sigma) rounds to 0, so the
        # Hessian vanishes, the line search fails and the fit restarts from
        # zero; 40 x costs less than the zero vector (40 < 200 log 2),
        # -40 x far more
        x = np.concatenate([np.linspace(-3, -1, 100), np.linspace(1, 3, 100)])
        y = (x > 0).astype(float)
        y[100] = 0.0                         # x = 1 flipped: not separable
        cold = fit_weighted_logistic(x, y, config=FitConfig(l2_reg=0.0))
        warm = fit_weighted_logistic(x, y, config=FitConfig(l2_reg=0.0),
                                     warm_start=[slope, 0.0])
        assert cold.converged and warm.converged
        np.testing.assert_allclose(warm.coefficients(), cold.coefficients(), atol=1e-7)

    def test_one_class_rows_are_constant_rows_of_the_stack(self):
        # one-class rows with the infinite starts that ``_anchor_fits`` gives
        # them, mixed into a stack of ordinary rows: they end before the
        # first step, and the ordinary rows are bit for bit those of a stack
        # without them
        x, y, w, rng = _noisy_logistic_problem(15, 200, 3)
        n, d = x.shape
        labels = np.stack([y, 1.0 - y, (x[:, 0] > 0).astype(float)])
        weights = np.stack([w, w[::-1], np.ones(n)])
        starts = rng.normal(0.0, 0.5, (3, d + 1))
        alone = _newton(x, labels, weights, starts, FitConfig())

        ones, zeros = np.zeros(d + 1), np.zeros(d + 1)
        ones[d], zeros[d] = np.inf, -np.inf
        order = [3, 0, 1, 4, 2]
        mixed = _newton(x, np.vstack([labels, np.ones(n), np.zeros(n)])[order],
                        np.vstack([weights, w, w])[order],
                        np.vstack([starts, ones, zeros])[order], FitConfig())
        theta, converged, steps, degenerate = mixed
        assert degenerate.tolist() == [True, False, False, True, False]
        assert theta[0].tolist() == [0.0] * d + [_DEGENERATE_LOGIT]
        assert theta[3].tolist() == [0.0] * d + [-_DEGENERATE_LOGIT]
        assert converged[[0, 3]].all() and steps[[0, 3]].tolist() == [0, 0]
        kept = [1, 2, 4]
        assert theta[kept].tobytes() == alone[0].tobytes()
        assert converged[kept].tolist() == alone[1].tolist() == [True] * 3
        assert steps[kept].tolist() == alone[2].tolist()
        assert not alone[3].any() and steps[kept].min() > 0


class TestDecision:
    def test_constant_classifier(self):
        clf = LinearClassifier(np.zeros(2), 0.3)
        np.testing.assert_allclose(clf.decision(np.random.default_rng(0).normal(size=(5, 2))), 0.3)

    def test_sigmoid_matches_expit(self):
        z = np.concatenate([np.linspace(-50.0, 50.0, 10001), [-1e308, 1e308]])
        assert np.abs(_sigmoid(z) - expit(z)).max() <= 2.0 ** -52

    def test_sigmoid_identity_at_zero(self):
        clf = LinearClassifier(np.zeros(1), 0.0)
        assert _sigmoid(clf.decision(np.array([[12.0]])))[0] == pytest.approx(0.5)

    def test_affine_in_features(self):
        clf = LinearClassifier(np.array([2.0, -1.0]), 0.7)
        x = np.array([[1.5, -0.5]])
        z1 = clf.decision(x)[0]
        z2 = clf.decision(2 * x)[0]
        assert z2 - z1 == pytest.approx(float(clf.weights @ x[0]), abs=1e-12)

    def test_one_d_input_is_one_feature(self):
        # as in fit_weighted_logistic: a 1-D array is n samples of one feature
        x = np.array([-2.0, -1.0, 0.5, 1.0, 3.0])
        clf = fit_weighted_logistic(x, np.array([0, 1, 0, 1, 1]))
        np.testing.assert_array_equal(clf.decision(x), clf.decision(x[:, None]))
        assert _sigmoid(clf.decision(x)).shape == (5,)

    def test_dimension_mismatch(self):
        clf = LinearClassifier(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValidationError):
            clf.decision(np.zeros((3, 3)))


class TestNormalize:
    """The anchor sweep stores each fit at unit L2 norm. Each test hands the
    sweep fixed raw fits, one per anchor tau, and reads the stored rows."""

    @staticmethod
    def stored_rows(raw, monkeypatch):
        coefs, count = np.stack([c.coefficients() for c in raw]), len(raw)
        monkeypatch.setattr(quantile, "_anchor_fits", lambda *a, **k: (
            coefs, np.ones(count, dtype=bool), np.zeros(count, dtype=bool), 0))
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(40, raw[0].weights.size)), np.arange(40) % 2, 2)
        grid = QuantileGrid(np.linspace(0.01, 0.99, len(raw)), np.linspace(0.01, 0.99, 50))
        base = LinearClassifier(np.ones(raw[0].weights.size), 0.0)
        return fit_quantile_model(ds, base, grid=grid).tasks[0].anchor_coefficients

    def test_three_four_five(self, monkeypatch):
        rows = self.stored_rows([LinearClassifier(np.array([3.0, 4.0]), 0.0)] * 5,
                                monkeypatch)
        np.testing.assert_allclose(rows[:, :2], [[0.6, 0.8]] * 5)
        assert np.all(rows[:, 2] == 0.0)

    def test_unit_norm_invariant(self, monkeypatch):
        rng = np.random.default_rng(5)
        raw = [LinearClassifier(rng.normal(size=3), rng.normal()) for _ in range(20)]
        rows = self.stored_rows(raw, monkeypatch)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12

    def test_sign_preserving(self, monkeypatch):
        rng = np.random.default_rng(6)
        raw = [LinearClassifier(rng.normal(size=2) * 10, rng.normal() * 10)
               for _ in range(20)]
        rows = self.stored_rows(raw, monkeypatch)
        x = rng.normal(size=(50, 2))
        for clf, row in zip(raw, rows):
            np.testing.assert_array_equal(np.sign(clf.decision(x)),
                                          np.sign(x @ row[:-1] + row[-1]))


class TestSigmoidMae:
    def test_separable_reaches_small_mae(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        clf = fit_sigmoid_mae(x, y, FitConfig(max_iter=3000, tol=1e-12))
        mae = np.abs(y - _sigmoid(clf.decision(x))).sum() / len(y)
        assert mae < 0.01

    def test_all_ones_drives_sigmoid_to_one(self):
        x = np.array([[0.3], [0.7]])
        y = np.array([1, 1])
        clf = fit_sigmoid_mae(x, y)
        mae = np.abs(y - _sigmoid(clf.decision(x))).sum() / len(y)
        assert mae < 0.01
        assert _sigmoid(clf.decision(x)).min() > 0.99

    def test_label_flip_negation_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 1))
        y = rng.integers(0, 2, 12)
        clf = LinearClassifier(rng.normal(size=1), rng.normal())
        flipped = LinearClassifier(-clf.weights, -clf.bias)
        a = np.abs(y - _sigmoid(clf.decision(x))).sum()
        bb = np.abs((1 - y) - _sigmoid(flipped.decision(x))).sum()
        assert a == pytest.approx(bb, abs=1e-12)


def test_every_latent_anchor_converges_at_default_config():
    # latent-binary 600x8: the benchmark's latent-m fit, at the CLI defaults
    spec = LatentModelSpec([1.0, -0.7, 0.5, 0.3, -0.2, 0.8, -0.4, 0.1])
    ds = gen_latent_binary(spec, 600, seed=1)
    bases = fit_base_classifiers(ds)
    model = fit_quantile_model(ds, bases)
    assert bases[0].converged
    assert model.tasks[0].fit_record["nonconverged_anchors"] == 0
    # 746 Newton steps is what warm-starting each anchor from the previous
    # one takes here; the median start must save steps, not cost them
    assert model.tasks[0].fit_record["anchor_iterations"] <= 746
