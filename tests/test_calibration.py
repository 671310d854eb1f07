import numpy as np
import pytest

from quantrep import (
    FitConfig,
    LatentModelSpec,
    LatentOracle,
    QuantileGrid,
    QuantileModel,
    ValidationError,
    corrupt_features,
    corruption_sweep,
    ece,
    fit_quantile_model,
    gen_latent_binary,
    isotonic_fit,
    model_class_probabilities,
    msp_confidence,
    platt_apply,
    platt_fit,
)
from quantrep.calibration import _logit
from quantrep.quantile import QuantileTask

from oracles import ece_bruteforce, isotonic_minmax


def linear_1d_model(dense_coefficients):
    """Single-task binary model on one feature whose class-1 logit at x is
    w(tau) * x + b(tau), with (w, b) the rows of ``dense_coefficients``."""
    dense = np.asarray(dense_coefficients, dtype=np.float64)
    grid = QuantileGrid(np.linspace(0.0005, 0.9995, 10),
                        np.linspace(0.0005, 0.9995, dense.shape[0]))
    return QuantileModel(grid, [QuantileTask(1, [], dense)], 2, 1)


class TestQuantileProbability:
    def test_all_positive_profile(self):
        model = linear_1d_model(np.tile([0.0, 1.0], (1000, 1)))
        probs = model_class_probabilities(model, np.zeros((3, 1)))
        np.testing.assert_array_equal(probs[:, 1], 1.0)

    def test_crossing_at_tau_star(self):
        taus = np.linspace(0.0005, 0.9995, 1000)
        model = linear_1d_model(np.column_stack([np.zeros(1000), taus - 0.3]))
        p = model_class_probabilities(model, np.zeros((1, 1)))[0, 1]
        assert abs(p - 0.7) <= 1.1 / 1000  # within one grid step

    def test_binary_classes_complement(self):
        rng = np.random.default_rng(0)
        model = linear_1d_model(rng.normal(size=(1000, 2)))
        probs = model_class_probabilities(model, rng.normal(size=(20, 1)))
        assert np.abs(probs[:, 0] + probs[:, 1] - 1.0).max() <= 1e-12

    def test_oracle_probabilities_match_posterior(self):
        spec = LatentModelSpec(np.array([1.0]))
        oracle = LatentOracle(spec)
        train = gen_latent_binary(spec, 2000, seed=1)
        test = gen_latent_binary(spec, 5000, seed=2)
        grid = QuantileGrid(np.linspace(0.01, 0.99, 50), np.linspace(0.01, 0.99, 500))
        model = fit_quantile_model(train, oracle, grid=grid)
        probs = model_class_probabilities(model, test.features)
        mad = np.abs(probs[:, 1] - spec.posterior(test.features)).mean()
        assert mad < 0.02


class TestEce:
    def test_perfectly_calibrated_bins(self):
        conf = np.full(40, 0.7)
        correct = np.zeros(40)
        correct[:28] = 1.0  # 70% accuracy at 70% confidence
        value, _ = ece(conf, correct, m=5, binning="equal-width")
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_hand_value(self):
        value, _ = ece(np.array([0.9, 0.7]), np.array([1.0, 0.0]),
                       m=1, binning="equal-width")
        assert value == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("binning", ["equal-width", "quantile"])
    def test_matches_bruteforce(self, binning):
        rng = np.random.default_rng(3)
        conf = rng.uniform(0, 1, 200)
        correct = rng.integers(0, 2, 200).astype(float)
        m = 7
        value, table = ece(conf, correct, m=m, binning=binning)
        if binning == "equal-width":
            def bin_of(c):
                return min(int(np.floor(c * m)), m - 1)
        else:
            edges = table.edges

            def bin_of(c):
                return int(np.searchsorted(edges[1:-1], c, side="right"))
        ref = ece_bruteforce(conf, correct, table.edges, bin_of)
        assert value == pytest.approx(ref, abs=1e-12)

    def test_permutation_invariance_and_range(self):
        rng = np.random.default_rng(4)
        conf = rng.uniform(0, 1, 300)
        correct = rng.integers(0, 2, 300).astype(float)
        v1, _ = ece(conf, correct)
        perm = rng.permutation(300)
        v2, _ = ece(conf[perm], correct[perm])
        assert v1 == pytest.approx(v2, abs=1e-12)
        assert 0.0 <= v1 <= 1.0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(5)
        conf = rng.uniform(0, 1, 123)
        correct = rng.integers(0, 2, 123).astype(float)
        for binning in ("equal-width", "quantile"):
            _, table = ece(conf, correct, m=6, binning=binning)
            assert table.counts.sum() == 123

    def test_validation(self):
        with pytest.raises(ValidationError):
            ece(np.array([1.2]), np.array([1.0]))
        with pytest.raises(ValidationError):
            ece(np.array([0.5]), np.array([1.0]), m=0)

    def test_nan_confidence_rejected(self):
        with pytest.raises(ValidationError, match=r"\[0,1\]"):
            ece(np.array([np.nan, 0.5, 0.7, 0.9]), np.array([1.0, 0.0, 1.0, 1.0]))


class TestMspConfidence:
    def test_basic(self):
        conf, pred = msp_confidence(np.array([[0.2, 0.8]]))
        assert conf[0] == 0.8 and pred[0] == 1

    def test_tie_lowest_index(self):
        conf, pred = msp_confidence(np.array([[0.5, 0.5]]))
        assert pred[0] == 0

    def test_uniform(self):
        conf, _ = msp_confidence(np.full((4, 5), 0.2))
        np.testing.assert_allclose(conf, 0.2)


class TestPlatt:
    def test_calibrated_logit_stream_stays_calibrated(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, 4000)
        correct = (rng.uniform(size=4000) < p).astype(float)
        scores = _logit(p)
        before, _ = ece(p, correct, m=10, binning="quantile")
        ab = platt_fit(scores, correct)
        after, _ = ece(platt_apply(scores, ab), correct, m=10, binning="quantile")
        assert after <= before + 1e-3

    def test_constant_scores_give_base_rate(self):
        correct = np.array([1.0, 0.0, 1.0, 1.0])
        ab = platt_fit(np.full(4, 0.3), correct)
        assert abs(ab[0]) < 1e-6
        np.testing.assert_allclose(platt_apply(np.full(4, 0.3), ab), 0.75,
                                   atol=1e-6)

    def test_positive_slope_for_predictive_scores(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=500)
        correct = (rng.uniform(size=500) < 1 / (1 + np.exp(-2 * scores))).astype(float)
        a, _ = platt_fit(scores, correct)
        assert a > 0

    def test_single_outcome_gives_constant_map(self):
        # the one-label rule of fit_weighted_logistic: slope 0, bias +-25
        scores = np.array([0.1, 0.2, 0.7])
        assert platt_fit(scores, np.ones(3)) == (0.0, 25.0)
        assert platt_fit(scores, np.zeros(3)) == (0.0, -25.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            platt_fit(np.array([]), np.array([]))


class TestIsotonic:
    def test_monotone_means_fixed_point(self):
        scores = np.array([0.1, 0.1, 0.5, 0.5, 0.9, 0.9])
        correct = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        iso = isotonic_fit(scores, correct)
        np.testing.assert_allclose(iso(np.array([0.1, 0.5, 0.9])),
                                   [0.0, 0.5, 1.0])

    def test_all_correct_constant_one(self):
        iso = isotonic_fit(np.array([0.2, 0.5, 0.8]), np.ones(3))
        np.testing.assert_allclose(iso(np.array([0.1, 0.6, 0.95])), 1.0)

    def test_matches_minmax_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(3, 21))
            scores = np.round(rng.uniform(0, 1, n), 1)  # ties likely
            correct = rng.integers(0, 2, n).astype(float)
            iso = isotonic_fit(scores, correct)
            s_levels, fitted = isotonic_minmax(scores, correct)
            np.testing.assert_allclose(iso(s_levels), fitted, atol=1e-12)

    def test_nondecreasing_output(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0, 1, 100)
        correct = rng.integers(0, 2, 100).astype(float)
        iso = isotonic_fit(scores, correct)
        grid = np.linspace(0, 1, 200)
        out = iso(grid)
        assert np.all(np.diff(out) >= -1e-15)


@pytest.fixture(scope="module")
def latent_sweep():
    spec = LatentModelSpec(np.array([1.0, -0.7]), g_intercept=0.1)
    oracle = LatentOracle(spec)
    train = gen_latent_binary(spec, 3000, seed=10)
    test = gen_latent_binary(spec, 8000, seed=12)
    model = fit_quantile_model(train, oracle, fit_config=FitConfig())
    severities = [0.0, 0.5, 1.0, 1.5, 2.0]
    report = corruption_sweep(model, oracle, test, "gaussian-noise",
                              severities, seed=3)
    return report, severities


class TestCorruptionSweep:
    def test_severity_zero_is_exact_noop(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(50, 3))
        for kind in ("gaussian-noise", "feature-scaling", "feature-shift"):
            np.testing.assert_array_equal(corrupt_features(feats, kind, 0), feats)

    def test_corruption_seeded(self):
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(30, 2))
        a = corrupt_features(feats, "gaussian-noise", 1.0, seed=4)
        b = corrupt_features(feats, "gaussian-noise", 1.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_schema_and_methods(self, latent_sweep):
        report, severities = latent_sweep
        methods = {r.method for r in report.rows}
        assert methods == {"QUANT", "MSP", "QUANT+platt", "QUANT+isotonic"}
        assert len(report.rows) == 4 * len(severities)

    def test_accuracy_nonincreasing_under_noise(self, latent_sweep):
        report, _ = latent_sweep
        for method in ("QUANT", "MSP"):
            _, accs, _ = report.series(method)
            assert all(a2 <= a1 + 1e-12 for a1, a2 in zip(accs, accs[1:]))

    def test_isotonic_clean_ece_not_worse(self, latent_sweep):
        report, _ = latent_sweep
        _, _, quant = report.series("QUANT")
        _, _, iso = report.series("QUANT+isotonic")
        assert iso[0] <= quant[0] + 1e-9

    def test_corrections_do_not_fix_corrupted_ece(self, latent_sweep):
        report, _ = latent_sweep
        _, _, quant = report.series("QUANT")
        _, _, iso = report.series("QUANT+isotonic")
        _, _, platt = report.series("QUANT+platt")
        assert iso[-1] >= 0.8 * quant[-1]
        assert platt[-1] >= 0.8 * quant[-1]

    @pytest.mark.xfail(
        reason="with an oracle base both confidence streams are monotone in "
               "the same scalar score, so no systematic growth gap exists at "
               "this scale; see the acceptance notes", strict=False)
    def test_quant_ece_growth_below_msp_growth(self, latent_sweep):
        report, _ = latent_sweep
        _, _, quant = report.series("QUANT")
        _, _, msp = report.series("MSP")
        assert quant[-1] - quant[0] < msp[-1] - msp[0]

    def test_unsorted_severities_rejected(self, latent_sweep):
        spec = LatentModelSpec(np.array([1.0]))
        oracle = LatentOracle(spec)
        train = gen_latent_binary(spec, 200, seed=1)
        grid = QuantileGrid(np.linspace(0.01, 0.99, 10), np.linspace(0.01, 0.99, 50))
        model = fit_quantile_model(train, oracle, grid=grid)
        with pytest.raises(ValidationError):
            corruption_sweep(model, oracle, train, "gaussian-noise", [1.0, 0.5])
