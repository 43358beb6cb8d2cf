"""Hessian utilities for GPTQ-style post-training quantization.

The layer-wise PTQ objective (paper Eq. 3) is

    argmin_Q  sum_i || W_i X - Q_i X ||^2

whose second derivative w.r.t. any weight row is the shared Hessian
``H = 2 X X^T`` (it depends only on the calibration inputs). Following
GPTQ/OBS [Frantar et al. 2022; Hassibi et al. 1993], quantizing one input
dimension ``p`` and optimally updating the remaining *unquantized*
dimensions uses the inverse Hessian:

    err_p = (w_p - q_p) / [H^-1]_pp
    w_rest -= err_p * [H^-1]_{p, rest}

Both the per-column saliency used for pruning (``w_p^2 / [H^-1]_pp``, Algo. 1
L17) and the error-compensation updates (L31–36) read from ``H^-1``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "layer_hessian",
    "inverse_hessian",
    "cholesky_inverse_factor",
    "pruning_saliency",
]


def layer_hessian(calib_inputs: np.ndarray, damp_ratio: float = 0.01) -> np.ndarray:
    """Damped layer Hessian ``H = 2 X X^T + λ I``.

    ``calib_inputs`` has shape ``[n_samples, d_in]`` (rows are calibration
    vectors fed to the layer). ``λ`` is ``damp_ratio`` times the mean
    diagonal, the standard GPTQ damping that keeps ``H`` well conditioned.
    ``damp_ratio`` must be finite and non-negative (``ValueError``
    otherwise): a NaN would quietly turn every compensated weight into NaN.
    """
    if not 0.0 <= damp_ratio < math.inf:
        raise ValueError(
            f"damp_ratio must be finite and non-negative, got {damp_ratio!r}"
        )
    x = np.asarray(calib_inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"calibration inputs must be 2-D, got shape {x.shape}")
    h = 2.0 * (x.T @ x)
    mean_diag = float(np.mean(np.diag(h)))
    if mean_diag <= 0.0:
        mean_diag = 1.0
    h[np.diag_indices_from(h)] += damp_ratio * mean_diag
    return h


def inverse_hessian(hessian: np.ndarray) -> np.ndarray:
    """Inverse of the damped Hessian (symmetrized for numerical hygiene)."""
    inv = np.linalg.inv(hessian)
    return 0.5 * (inv + inv.T)


def cholesky_inverse_factor(hessian: np.ndarray) -> np.ndarray:
    """Upper-triangular Cholesky factor ``U`` of ``H^-1`` (GPTQ's form).

    With ``H^-1 = U^T U`` (``U`` upper triangular), quantizing column ``p``
    and updating only columns ``> p`` uses row ``U[p, p:]``:

        err_p = (w_p - q_p) / U[p, p]
        W[:, p+1:] -= err_p[:, None] * U[p, p+1:]

    which is exactly the OBS update restricted to the not-yet-quantized set.
    """
    inv = inverse_hessian(hessian)
    low = np.linalg.cholesky(inv)  # H^-1 = L L^T
    return np.ascontiguousarray(low.T)  # U = L^T, upper, H^-1 = U^T U


def pruning_saliency(weights: np.ndarray, hinv_diag: np.ndarray) -> np.ndarray:
    """OBS pruning saliency ``w_p^2 / [H^-1]_pp`` (Algo. 1 L17).

    Lower saliency = cheaper to prune. ``weights`` is ``[..., d]`` and
    ``hinv_diag`` broadcasts along the last axis.
    """
    return weights.astype(np.float64) ** 2 / hinv_diag
