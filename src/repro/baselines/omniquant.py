"""OmniQuant-lite [Shao et al. 2023]: learnable clipping + equivalent transform.

OmniQuant learns two sets of parameters by gradient descent; offline we
replace the learning with exhaustive grid search, which for per-group scalar
clip ratios finds the same optima:

* **LWC** (learnable weight clipping): per-group clip ratio γ ∈ grid that
  minimizes layer-output error of ``RTN(clip(W, γ·max))``;
* **LET** (learnable equivalent transformation): the SmoothQuant-style
  migration strength α, also grid-searched (weight-activation mode only).
"""

from __future__ import annotations

import numpy as np

from ..formats.scalar import int_max
from ..quant.activation import ActivationQuantizer, apply_migration
from .base import BaselineResult, group_float_scale

__all__ = ["quantize_omniquant"]

_CLIP_GRID = (1.0, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6)
_ALPHA_GRID = (0.3, 0.4, 0.5, 0.6, 0.7)


def _lwc_quantize(
    w: np.ndarray, x: np.ndarray | None, bits: int, group_size: int
) -> np.ndarray:
    """RTN with per-(row, group) clip ratio chosen to minimize group error.

    The error metric is Hessian-diagonal-weighted when calibration inputs
    are available (column importance ~ E[x_j^2]), else plain MSE.
    """
    maxq = int_max(bits)
    col_weight = None
    if x is not None:
        col_weight = np.mean(x**2, axis=0)
    out = np.empty_like(w)
    n = w.shape[-1]
    for g in range(0, n, group_size):
        sl = slice(g, min(g + group_size, n))
        block = w[:, sl]
        cw = col_weight[sl][None, :] if col_weight is not None else 1.0
        best_err = None
        best_q = None
        for ratio in _CLIP_GRID:
            scale = group_float_scale(block, bits, ratio)
            q = np.clip(np.rint(block / scale), -maxq, maxq) * scale
            err = np.sum((q - block) ** 2 * cw, axis=1)
            if best_err is None:
                best_err, best_q = err, q
            else:
                better = err < best_err
                best_err = np.where(better, err, best_err)
                best_q = np.where(better[:, None], q, best_q)
        out[:, sl] = best_q
    return out


def quantize_omniquant(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    act_bits: int | None = None,
    group_size: int = 128,
) -> BaselineResult:
    """OmniQuant-lite. Set ``act_bits`` for the weight-activation mode (LET)."""
    w = np.asarray(weights, dtype=np.float64)

    if act_bits is None or calib_inputs is None:
        dq = _lwc_quantize(w, calib_inputs, bits, group_size)
        return BaselineResult("omniquant", dq, float(bits), {"mode": "weight-only"})

    x = np.asarray(calib_inputs, dtype=np.float64)
    ref = x @ w.T
    ref_norm = max(float(np.linalg.norm(ref)), 1e-12)
    best = None
    for alpha in _ALPHA_GRID:
        ws, xs, scales = apply_migration(w, x, alpha)
        dq_s = _lwc_quantize(ws, xs, bits, group_size)
        act_q = ActivationQuantizer(scales, act_bits, group_size)
        out = act_q(x) @ (dq_s / scales[None, :]).T
        err = float(np.linalg.norm(out - ref)) / ref_norm
        if best is None or err < best[0]:
            best = (err, alpha, dq_s / scales[None, :], act_q)
    err, alpha, dq, act_q = best
    return BaselineResult(
        "omniquant",
        dq,
        float(bits),
        {"mode": "weight-activation", "alpha": alpha, "act_quantizer": act_q},
    )
