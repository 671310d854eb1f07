import numpy as np
import pytest

from quantrep import QuantileGrid, ValidationError, interpolate_coefficients
from quantrep.quantile import _natural_spline_second_derivs

from oracles import natural_spline_second_derivs_banded


class TestSecondDerivatives:
    """The numpy tridiagonal sweep against the banded LAPACK solve it
    replaced, bit for bit, so that model files stay byte-identical."""

    @staticmethod
    def assert_same_bits(x, y):
        ours = _natural_spline_second_derivs(x, y)
        ref = natural_spline_second_derivs_banded(x, y)
        assert ours.tobytes() == ref.tobytes()

    def test_random_grids(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = np.unique(rng.uniform(0.0, 1.0, int(rng.integers(4, 121))))
            self.assert_same_bits(x, rng.normal(0.0, 1.0, (x.size, int(rng.integers(1, 34)))))

    def test_default_grid(self):
        anchors = QuantileGrid().anchors
        rng = np.random.default_rng(0)
        for cols in (1, 3, 9, 33):
            rows = rng.normal(0.0, 1.0, (anchors.size, cols))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            self.assert_same_bits(anchors, rows)


class TestInterpolation:
    ANCHORS = np.linspace(0.01, 0.99, 100)
    DENSE = np.linspace(0.01, 0.99, 1000)

    def test_constant_rows_reproduced(self):
        rows = np.tile(np.array([1.5, -2.0, 0.25]), (100, 1))
        out = interpolate_coefficients(self.ANCHORS, rows, self.DENSE)
        assert np.abs(out - rows[0]).max() < 1e-12

    def test_linear_rows_reproduced(self):
        slope = np.array([2.0, -1.0])
        intercept = np.array([0.3, 4.0])
        rows = self.ANCHORS[:, None] * slope + intercept
        out = interpolate_coefficients(self.ANCHORS, rows, self.DENSE)
        expected = self.DENSE[:, None] * slope + intercept
        assert np.abs(out - expected).max() < 1e-10

    def test_exact_at_anchors(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(100, 4))
        out = interpolate_coefficients(self.ANCHORS, rows, self.ANCHORS)
        assert np.abs(out - rows).max() < 1e-12

    def test_smooth_function_recovered(self):
        rows = np.sin(2 * np.pi * self.ANCHORS)[:, None]
        out = interpolate_coefficients(self.ANCHORS, rows, self.DENSE)
        err = np.abs(out[:, 0] - np.sin(2 * np.pi * self.DENSE))
        # natural ends flatten the curvature, so the boundary error dominates
        assert err.max() < 2e-5
        assert err[50:-50].max() < 1e-7

    def test_no_extrapolation(self):
        rows = np.zeros((100, 1))
        with pytest.raises(ValidationError):
            interpolate_coefficients(self.ANCHORS, rows, np.array([0.005]))
        with pytest.raises(ValidationError):
            interpolate_coefficients(self.ANCHORS, rows, np.array([0.995]))

    def test_requires_four_anchors(self):
        with pytest.raises(ValidationError):
            interpolate_coefficients(np.array([0.1, 0.5, 0.9]), np.zeros((3, 1)),
                                     np.array([0.5]))

    def test_requires_increasing_anchors(self):
        with pytest.raises(ValidationError):
            interpolate_coefficients(np.array([0.1, 0.5, 0.4, 0.9]),
                                     np.zeros((4, 1)), np.array([0.5]))


class TestGridInvariants:
    def test_defaults_match_declared_values(self):
        grid = QuantileGrid()
        assert grid.anchors.size == 100
        assert grid.n_dense == 1000
        assert grid.anchors[0] == pytest.approx(0.01)
        assert grid.anchors[-1] == pytest.approx(0.99)
        assert np.allclose(np.diff(grid.dense), np.diff(grid.dense)[0])

    def test_dense_must_stay_inside_anchor_range(self):
        with pytest.raises(ValidationError):
            QuantileGrid(np.linspace(0.1, 0.9, 10), np.linspace(0.05, 0.9, 50))

    def test_needs_four_anchors(self):
        # the natural spline through the anchors is defined from four on
        with pytest.raises(ValidationError, match=">= 4 points"):
            QuantileGrid(np.linspace(0.1, 0.9, 3), np.linspace(0.1, 0.9, 20))
        assert QuantileGrid(np.linspace(0.1, 0.9, 4), np.linspace(0.1, 0.9, 20)).n_dense == 20

    def test_open_interval(self):
        with pytest.raises(ValidationError):
            QuantileGrid(np.linspace(0.0, 0.99, 10), np.linspace(0.01, 0.99, 50))
