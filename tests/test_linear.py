import numpy as np
import pytest
from scipy.special import expit as sigmoid

from quantrep import (
    DegenerateClassifierError,
    FitConfig,
    LinearClassifier,
    ValidationError,
    fit_sigmoid_mae,
    fit_weighted_logistic,
    normalize_l2,
)
from quantrep.datasets import LatentModelSpec, gen_latent_binary
from quantrep.linear import _logistic_loss
from quantrep.quantile import fit_base_classifiers, fit_quantile_model

from oracles import finite_difference_gradient

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
        _, grad = _logistic_loss(clf.coefficients(), x, y, w, l2_reg, sigmoid)
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
        assert sigmoid(clf.bias) > 0.99

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
                return _logistic_loss(t, x, y, w, 0.05, sigmoid)[0]

            assert obj(mid) <= (obj(t1) + obj(t2)) / 2 + 1e-10

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        w = rng.uniform(0.5, 2.0, 20)

        def obj(t):
            return _logistic_loss(t, x, y, w, 0.05, sigmoid)[0]

        for _ in range(100):
            theta = rng.normal(0, 1.5, size=4)
            _, grad = _logistic_loss(theta, x, y, w, 0.05, sigmoid)
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
            assert _logistic_loss(theta, x, y, w, 0.05, sigmoid)[0] == pytest.approx(ref, rel=1e-12)

    def test_value_at_large_logits_is_hinge_limit(self):
        # log(1 + exp(-sz)) -> max(0, -sz) once |z| is large; exp would overflow
        x = np.array([[1.0], [-1.0], [2.0], [-3.0]])
        y = np.array([1, 1, 0, 0])
        w = np.array([1.0, 2.0, 0.5, 1.5])
        theta = np.array([1000.0, 3.0])
        z = x[:, 0] * theta[0] + theta[1]
        hinge = np.maximum(0.0, -(2.0 * y - 1.0) * z)
        value, grad = _logistic_loss(theta, x, y, w, 1e-4, sigmoid)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert value == pytest.approx(float(w @ hinge) + 0.5e-4 * 1000.0 ** 2, rel=1e-15)

    def test_iterations_recorded(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(100, 2))
        y = (x[:, 0] + rng.normal(0, 1.0, 100) > 0).astype(int)
        clf = fit_weighted_logistic(x, y)
        assert clf.iterations > 0
        assert normalize_l2(clf).iterations == clf.iterations
        assert "iterations" not in clf.to_json_dict()
        assert fit_weighted_logistic(x, y, config=FitConfig(max_iter=1)).iterations == 1
        assert fit_weighted_logistic(x, np.ones(100)).iterations == 0


class TestDecision:
    def test_constant_classifier(self):
        clf = LinearClassifier(np.zeros(2), 0.3)
        np.testing.assert_allclose(clf.decision(np.random.default_rng(0).normal(size=(5, 2))), 0.3)

    def test_sigmoid_identity_at_zero(self):
        clf = LinearClassifier(np.zeros(1), 0.0)
        assert clf.predict_proba(np.array([[12.0]]))[0] == pytest.approx(0.5)

    def test_affine_in_features(self):
        clf = normalize_l2(LinearClassifier(np.array([2.0, -1.0]), 0.7))
        x = np.array([[1.5, -0.5]])
        z1 = clf.decision(x)[0]
        z2 = clf.decision(2 * x)[0]
        assert z2 - z1 == pytest.approx(float(clf.weights @ x[0]), abs=1e-12)

    def test_dimension_mismatch(self):
        clf = LinearClassifier(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValidationError):
            clf.decision(np.zeros((3, 3)))


class TestNormalize:
    def test_three_four_five(self):
        clf = normalize_l2(LinearClassifier(np.array([3.0, 4.0]), 0.0))
        np.testing.assert_allclose(clf.weights, [0.6, 0.8])
        assert clf.bias == 0.0
        assert clf.normalized

    def test_idempotent(self):
        clf = normalize_l2(LinearClassifier(np.array([3.0, 4.0]), -2.0))
        again = normalize_l2(clf)
        assert np.abs(again.coefficients() - clf.coefficients()).max() < 1e-15

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            clf = normalize_l2(LinearClassifier(rng.normal(size=3), rng.normal()))
            assert abs(np.linalg.norm(clf.coefficients()) - 1.0) < 1e-12

    def test_sign_preserving(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            raw = LinearClassifier(rng.normal(size=2) * 10, rng.normal() * 10)
            x = rng.normal(size=(50, 2))
            np.testing.assert_array_equal(np.sign(raw.decision(x)),
                                          np.sign(normalize_l2(raw).decision(x)))

    def test_zero_classifier_rejected(self):
        with pytest.raises(DegenerateClassifierError):
            normalize_l2(LinearClassifier(np.zeros(2), 0.0))

    def test_argmax_stable_when_norms_equal(self):
        # one-vs-rest argmax can move under normalization only if the raw
        # coefficient norms differ; with equal norms it must not move
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 3))
        raw = []
        for _ in range(4):
            coef = rng.normal(size=4)
            coef = 2.5 * coef / np.linalg.norm(coef)
            raw.append(LinearClassifier(coef[:3], coef[3]))
        raw_logits = np.column_stack([c.decision(x) for c in raw])
        norm_logits = np.column_stack([normalize_l2(c).decision(x) for c in raw])
        np.testing.assert_array_equal(raw_logits.argmax(axis=1),
                                      norm_logits.argmax(axis=1))

    def test_argmax_difference_requires_unequal_norms(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 2))
        raw = [LinearClassifier(rng.normal(size=2) * s, rng.normal() * s)
               for s in (0.5, 3.0, 1.0)]
        raw_am = np.column_stack([c.decision(x) for c in raw]).argmax(axis=1)
        norm_am = np.column_stack(
            [normalize_l2(c).decision(x) for c in raw]).argmax(axis=1)
        diff = raw_am != norm_am
        # differences are allowed here (norms differ); just record the rate
        assert 0.0 <= diff.mean() <= 1.0


class TestSigmoidMae:
    def test_separable_reaches_small_mae(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        clf = fit_sigmoid_mae(x, y, FitConfig(max_iter=3000, tol=1e-12))
        mae = np.abs(y - clf.predict_proba(x)).sum() / len(y)
        assert mae < 0.01

    def test_all_ones_drives_sigmoid_to_one(self):
        x = np.array([[0.3], [0.7]])
        y = np.array([1, 1])
        clf = fit_sigmoid_mae(x, y)
        mae = np.abs(y - clf.predict_proba(x)).sum() / len(y)
        assert mae < 0.01
        assert clf.predict_proba(x).min() > 0.99

    def test_label_flip_negation_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 1))
        y = rng.integers(0, 2, 12)
        clf = LinearClassifier(rng.normal(size=1), rng.normal())
        flipped = LinearClassifier(-clf.weights, -clf.bias)
        a = np.abs(y - clf.predict_proba(x)).sum()
        bb = np.abs((1 - y) - flipped.predict_proba(x)).sum()
        assert a == pytest.approx(bb, abs=1e-12)


def test_every_latent_anchor_converges_at_default_config():
    # latent-binary 600x8: the benchmark's latent-m fit, at the CLI defaults
    spec = LatentModelSpec([1.0, -0.7, 0.5, 0.3, -0.2, 0.8, -0.4, 0.1])
    ds = gen_latent_binary(spec, 600, seed=1)
    bases = fit_base_classifiers(ds)
    model = fit_quantile_model(ds, bases)
    assert bases[0].converged
    assert [c.converged for c in model.tasks[0].anchor_classifiers] == [True] * 100
