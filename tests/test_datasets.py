import numpy as np
import pytest

from scipy.special import expit

from quantrep import (
    Dataset,
    LatentModelSpec,
    LatentOracle,
    ParseError,
    ValidationError,
    gen_gaussian_pair,
    gen_latent_binary,
    gen_two_moons,
    load_dataset,
    save_dataset,
)

from oracles import latent_posterior, normal_cdf


class TestDatasetInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), 2)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValidationError):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), 2, weights=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weights_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive and finite"):
            Dataset(np.zeros((2, 1)), np.array([0, 1]), 2, weights=np.array([1.0, bad]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_or_featureless_rejected(self, shape):
        with pytest.raises(ValidationError, match="at least one row and one feature"):
            Dataset(np.zeros(shape), np.zeros(shape[0], dtype=int), 2)


class TestFileIO:
    def test_small_csv_schema(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-1,2,1\n3,4,1\n")
        ds = load_dataset(path)
        assert (ds.n, ds.d, ds.k) == (3, 2, 2)
        assert ds.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("fmt", ["csv"])
    def test_round_trip_identity(self, tmp_path, fmt):
        rng = np.random.default_rng(7)
        ds = Dataset(rng.normal(size=(20, 3)) * 10.0 ** rng.integers(-8, 8, (20, 3)),
                     rng.integers(0, 4, 20), 4,
                     weights=rng.uniform(0.1, 5.0, 20))
        path = tmp_path / f"d.{fmt}"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.weights, ds.weights)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n0.5,0\nnot-a-number,1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert "line 3" in str(err.value)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0.5,1\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert "line 2" in str(err.value)


class TestTwoMoons:
    def test_zero_noise_points_on_unit_arcs(self):
        id_ds, _ = gen_two_moons(50, noise=0.0, ood_n=5, seed=3)
        upper = id_ds.features[id_ds.labels == 0]
        lower = id_ds.features[id_ds.labels == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_seed_determinism(self):
        a_id, a_ood = gen_two_moons(40, 0.1, 10, (5, 5), seed=11)
        b_id, b_ood = gen_two_moons(40, 0.1, 10, (5, 5), seed=11)
        np.testing.assert_array_equal(a_id.features, b_id.features)
        np.testing.assert_array_equal(a_ood.features, b_ood.features)

    def test_far_center_is_far_from_id(self):
        id_ds, ood_ds = gen_two_moons(100, 0.1, 50, (5, 5), seed=5)
        diffs = id_ds.features[:, None, :] - ood_ds.features[None, :, :]
        min_dist = np.sqrt((diffs ** 2).sum(axis=2)).min()
        assert min_dist > 2.0

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            gen_two_moons(1, 0.1, 5)
        with pytest.raises(ValidationError):
            gen_two_moons(10, -0.1, 5)


class TestGaussianPair:
    CENTERS = np.array([[0.0, 0.0], [1.0, 1.0]])
    STDS = np.array([[0.1, 0.3], [0.3, 0.11]])

    def test_sample_means_near_centers(self):
        n = 500
        ds = gen_gaussian_pair(self.CENTERS, self.STDS, n, seed=0)
        for c in range(2):
            mean = ds.features[ds.labels == c].mean(axis=0)
            np.testing.assert_array_less(
                np.abs(mean - self.CENTERS[c]), 3.0 * self.STDS[c] / np.sqrt(n))

    def test_degenerate_spread(self):
        stds = np.full((2, 2), 1e-9)
        ds = gen_gaussian_pair(self.CENTERS, stds, 50, seed=1)
        assert np.abs(ds.features[ds.labels == 0] - self.CENTERS[0]).max() < 1e-6

    def test_seed_sensitivity(self):
        a = gen_gaussian_pair(self.CENTERS, self.STDS, 50, seed=2)
        b = gen_gaussian_pair(self.CENTERS, self.STDS, 50, seed=3)
        assert not np.array_equal(a.features, b.features)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValidationError):
            gen_gaussian_pair(self.CENTERS, np.array([[0.1, 0.0], [0.3, 0.1]]), 10)


class TestLatentBinary:
    # the oracle's decision is the posterior's logit
    def test_posterior_at_symmetry_point(self):
        oracle = LatentOracle(LatentModelSpec(np.array([1.0])))
        assert expit(oracle.decision(np.array([[0.0]])))[0] == pytest.approx(0.5, abs=1e-15)

    def test_posterior_matches_normal_cdf(self):
        oracle = LatentOracle(LatentModelSpec(np.array([1.0])))
        x = 1.64485
        expected = normal_cdf(x)
        assert expected == pytest.approx(0.95, abs=1e-4)
        assert expit(oracle.decision(np.array([[x]])))[0] == pytest.approx(expected, abs=1e-12)

    def test_noiseless_limit_labels(self):
        spec = LatentModelSpec(np.array([1.0, -2.0]), g_intercept=0.3,
                               noise_scale=1e-13)
        ds = gen_latent_binary(spec, 500, seed=4)
        expected = (spec.latent_mean(ds.features) >= 0).astype(int)
        np.testing.assert_array_equal(ds.labels, expected)

    def test_heteroskedastic_scale(self):
        spec = LatentModelSpec(np.array([1.0, 0.0]),
                               noise_kind="heteroskedastic-gaussian",
                               noise_scale=(0.5, 0.25))
        x = np.array([[3.0, 4.0]])
        assert spec.noise_sigma(x)[0] == pytest.approx(0.5 + 0.25 * 5.0)

    def test_label_frequency_tracks_posterior_buckets(self):
        spec = LatentModelSpec(np.array([1.0]))
        ds = gen_latent_binary(spec, 50_000, seed=11)
        posterior = latent_posterior(spec, ds.features)
        delta = 0.05
        for lo in np.arange(0.0, 1.0, delta):
            mask = (posterior >= lo) & (posterior < lo + delta)
            if mask.sum() < 500:
                continue
            freq = ds.labels[mask].mean()
            assert abs(freq - (lo + delta / 2)) < 0.03

    def test_generator_is_pure(self):
        spec = LatentModelSpec(np.array([0.7, -0.4]), g_intercept=0.1)
        a = gen_latent_binary(spec, 64, seed=9)
        b = gen_latent_binary(spec, 64, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
