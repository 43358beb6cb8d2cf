"""OliVe [Guo et al. 2023]: outlier-victim pair quantization.

OliVe keeps memory aligned by quantizing outliers *in place* at the same
bit-width as inliers but in the wide-range "abfloat" format; the element
**adjacent** to each outlier is sacrificed ("victim") — pruned to zero and
reused as the format identifier. The paper's §3.2 critique is reproduced
faithfully: when two outliers are adjacent, the second one becomes the
victim and is destroyed, which is what craters OliVe's accuracy on modern
FMs with >0.5% adjacent outliers.

Abfloat: sign + exponent with a per-group adaptive bias,
``value = ±2^(e + bias)``; 4-bit gives e ∈ [0, 7].
"""

from __future__ import annotations

import numpy as np

from ..formats.scalar import int_max
from ..quant.kernel import BlockQuantKernel
from .base import BaselineResult, group_float_scale

__all__ = ["quantize_olive"]


def _abfloat_encode_each(values: np.ndarray, bits: int) -> np.ndarray:
    """Elementwise abfloat: each value is its own group, with its adaptive
    bias from itself — how OliVe encodes outliers in place."""
    e_levels = 2 ** (bits - 1)
    mag = np.abs(values)
    out = np.zeros_like(values)
    nz = mag > 0.0
    if np.any(nz):
        l2 = np.log2(mag[nz])
        bias = np.floor(l2) - (e_levels - 1)
        e = np.clip(np.rint(l2) - bias, 0, e_levels - 1)
        out[nz] = np.sign(values[nz]) * 2.0 ** (e + bias)
    return out


def quantize_olive(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    group_size: int = 128,
    sigma_threshold: float = 3.0,
) -> BaselineResult:
    """OliVe outlier-victim-pair quantization (ignores calibration data)."""
    w = np.asarray(weights, dtype=np.float64)
    d_in = w.shape[1]
    maxq = int_max(bits)
    dq = np.empty_like(w)
    n_victim_outliers = 0

    kernel = BlockQuantKernel(group_size, sigma_threshold)
    for lo, hi in kernel.blocks(d_in):
        block = w[:, lo:hi]
        omask = kernel.separate(block)
        scale = group_float_scale(np.where(omask, 0.0, block), bits)
        q = np.clip(np.rint(block / scale), -maxq, maxq) * scale
        width = block.shape[1]

        # Column-sequential scan over all rows at once: processing columns
        # left-to-right with a per-row victim mask replays OliVe's per-row
        # walk (kept in tests/kernel_oracle.py) exactly: a column's victim
        # flag can only be set by the column before it. The adjacent slot becomes the identifier and is
        # pruned — even if it is itself an outlier (OliVe's locality
        # assumption); an outlier already destroyed as a victim is skipped.
        victimized = np.zeros_like(omask)
        for c in np.nonzero(omask.any(axis=0))[0]:
            sel = omask[:, c] & ~victimized[:, c]
            if not sel.any():
                continue
            q[sel, c] = _abfloat_encode_each(block[sel, c], bits)
            victim = c + 1 if c + 1 < width else c - 1
            if victim >= 0:
                n_victim_outliers += int(np.count_nonzero(omask[sel, victim]))
                q[sel, victim] = 0.0
                victimized[sel, victim] = True
        dq[:, lo:hi] = q

    return BaselineResult(
        "olive",
        dq,
        float(bits),
        {"victim_outliers": n_victim_outliers, "group_size": group_size},
    )
