"""Atom-lite [Zhao et al. 2024]: mixed-precision channel reordering + GPTQ.

Atom reorders input channels by calibration activation magnitude, keeps the
top ``n_outlier_channels`` at 8 bits, quantizes the rest at the target
bit-width (group quantization with GPTQ compensation), and quantizes
activations per-token dynamically. EBW accounts for the 8-bit channels.
"""

from __future__ import annotations

import numpy as np

from ..methods.resources import HessianBundle
from ..quant.activation import ActivationQuantizer
from .base import BaselineResult
from .gptq import gptq_core

__all__ = ["quantize_atom"]


def quantize_atom(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    act_bits: int | None = None,
    n_outlier_channels: int = 16,
    group_size: int = 128,
    damp_ratio: float = 0.01,
    hessian: np.ndarray | HessianBundle | None = None,
) -> BaselineResult:
    """Atom-style quantization; keeps high-activation channels at 8 bits.

    A precomputed ``hessian`` (raw ``H`` or a store-provided
    :class:`~repro.methods.resources.HessianBundle`) skips the ``X^T X``
    build (``damp_ratio`` then rides the bundle); the channel ordering
    still reads the raw calibration magnitudes. Calibration inputs whose
    width is not the layer's ``d_in`` raise ``ValueError``.
    """
    w = np.asarray(weights, dtype=np.float64)
    d_in = w.shape[1]
    if calib_inputs is None:
        hessian_mat = np.eye(d_in)
        order = np.arange(d_in)
    else:
        x = np.asarray(calib_inputs, dtype=np.float64)
        if x.shape[-1] != d_in:
            raise ValueError(
                f"atom: calibration inputs are {x.shape[-1]} wide, but the "
                f"layer has {d_in} input columns"
            )
        bundle = (
            HessianBundle.wrap(hessian)
            if hessian is not None
            else HessianBundle(x, damp_ratio)
        )
        hessian_mat = bundle.h
        order = np.argsort(-np.max(np.abs(x), axis=0), kind="stable")

    k = min(n_outlier_channels, d_in)
    bits_per_col = np.full(d_in, bits, dtype=np.int32)
    bits_per_col[order[:k]] = 8

    # GPTQ runs in the reordered space so same-precision channels group
    # together (Atom's fused-kernel layout); results map back afterwards.
    perm = np.concatenate([order[:k], order[k:]])
    inv_perm = np.argsort(perm)
    h_p = hessian_mat[np.ix_(perm, perm)]
    # Atom grid-searches a per-group clip ratio; at 2 bits clipping is
    # essential (matching its published configuration).
    clip = 0.75 if bits <= 2 else 1.0
    dq_p = gptq_core(w[:, perm], h_p, bits_per_col[perm], group_size, clip_ratio=clip)
    dq = dq_p[:, inv_perm]

    ebw = (8.0 * k + bits * (d_in - k)) / d_in
    meta: dict = {"n_outlier_channels": k}
    if act_bits is not None:
        meta["act_quantizer"] = ActivationQuantizer(None, act_bits, group_size)
    return BaselineResult("atom", dq, ebw, meta)
