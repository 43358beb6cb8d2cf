"""Tests for the Hessian / GPTQ machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    cholesky_inverse_factor,
    inverse_hessian,
    layer_hessian,
    pruning_saliency,
)


@pytest.fixture(scope="module")
def calib_small():
    rng = np.random.default_rng(0)
    return rng.normal(0, 1, (64, 16))


class TestLayerHessian:
    def test_formula(self, calib_small):
        h = layer_hessian(calib_small, damp_ratio=0.0)
        # damp_ratio=0 still adds nothing; check 2 X^T X
        assert np.allclose(h, 2 * calib_small.T @ calib_small)

    def test_damping_increases_diagonal(self, calib_small):
        h0 = layer_hessian(calib_small, 0.0)
        h1 = layer_hessian(calib_small, 0.1)
        assert np.all(np.diag(h1) > np.diag(h0))
        assert np.allclose(h1 - np.diag(np.diag(h1)), h0 - np.diag(np.diag(h0)))

    def test_symmetric(self, calib_small):
        h = layer_hessian(calib_small)
        assert np.allclose(h, h.T)

    def test_positive_definite_after_damping(self):
        # Rank-deficient calibration still yields PD Hessian.
        x = np.ones((4, 16))
        h = layer_hessian(x, 0.01)
        assert np.all(np.linalg.eigvalsh(h) > 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            layer_hessian(np.zeros(5))

    @pytest.mark.parametrize("damp", [np.nan, np.inf, -np.inf, -1.0, -1e-12])
    def test_rejects_non_finite_or_negative_damping(self, calib_small, damp):
        with pytest.raises(ValueError, match="damp_ratio"):
            layer_hessian(calib_small, damp)


class TestInverse:
    def test_inverse_property(self, calib_small):
        h = layer_hessian(calib_small)
        hinv = inverse_hessian(h)
        assert np.allclose(h @ hinv, np.eye(h.shape[0]), atol=1e-8)

    def test_cholesky_factor_reconstructs_inverse(self, calib_small):
        h = layer_hessian(calib_small)
        u = cholesky_inverse_factor(h)
        assert np.allclose(u.T @ u, inverse_hessian(h), atol=1e-8)

    def test_cholesky_upper_triangular(self, calib_small):
        u = cholesky_inverse_factor(layer_hessian(calib_small))
        assert np.allclose(u, np.triu(u))

    def test_diagonal_positive(self, calib_small):
        u = cholesky_inverse_factor(layer_hessian(calib_small))
        assert np.all(np.diag(u) > 0)


class TestSaliency:
    def test_zero_weight_zero_saliency(self):
        s = pruning_saliency(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert s[0] == 0.0 and s[1] == 1.0

    def test_scales_with_square(self):
        s = pruning_saliency(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert s[1] == pytest.approx(4 * s[0])

    def test_large_hinv_diag_lowers_saliency(self):
        """A direction the loss barely constrains (large [H^-1]_pp) is
        cheap to prune."""
        s = pruning_saliency(np.array([1.0, 1.0]), np.array([1.0, 10.0]))
        assert s[1] < s[0]

    @given(st.integers(4, 24))
    @settings(max_examples=20, deadline=None)
    def test_obs_update_reduces_output_error(self, d):
        """Quantizing one coordinate + OBS update never increases the
        layer-output error versus no update."""
        rng = np.random.default_rng(d)
        x = rng.normal(0, 1, (64, d))
        h = layer_hessian(x, 0.01)
        u = cholesky_inverse_factor(h)
        w = rng.normal(0, 1, d)
        q0 = np.round(w[0] * 2) / 2  # quantize coord 0 coarsely
        # no compensation
        w_plain = w.copy()
        w_plain[0] = q0
        # OBS compensation on remaining coords
        err = (w[0] - q0) / u[0, 0]
        w_obs = w.copy()
        w_obs[0] = q0
        w_obs[1:] -= err * u[0, 1:]
        e_plain = np.linalg.norm(x @ (w - w_plain))
        e_obs = np.linalg.norm(x @ (w - w_obs))
        assert e_obs <= e_plain + 1e-9
