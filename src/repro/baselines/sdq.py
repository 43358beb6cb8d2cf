"""SDQ [Jeong et al. 2024]: sparse-decomposed quantization with rigid N:M.

SDQ decomposes ``W = W_dense + W_sparse`` where ``W_sparse`` is an N:M
structured (2:8 by default) high-precision correction holding the largest
residuals, and ``W_dense`` is low-bit RTN. Unlike MicroScopiQ the pattern is
*fixed* — exactly 2 reserved slots per 8 regardless of where outliers
actually are — and there is no Hessian coupling, the paper's two criticisms
(§8 "Unified pruning and quantization").
"""

from __future__ import annotations

import numpy as np

from ..formats.scalar import int_max
from ..quant.kernel import BlockQuantKernel
from .omniquant import _lwc_quantize
from .base import BaselineResult, rtn_group_quantize

__all__ = ["quantize_sdq"]


def quantize_sdq(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 2,
    sparse_n: int = 2,
    sparse_m: int = 8,
    group_size: int = 128,
) -> BaselineResult:
    """SDQ decomposition: ``W = dense(bits) + sparse N:M outliers(2*bits)``.

    Per ``sparse_m`` block the ``sparse_n`` largest-magnitude weights move
    to the sparse tensor (quantized at ``2*bits`` with a coarse per-128
    float scale shared across the whole group, as a structured-sparse
    kernel requires); the dense remainder is plain RTN. The rigid pattern
    means blocks with more than N outliers lose some, and blocks with none
    waste the reserved slots.
    """
    w = np.asarray(weights, dtype=np.float64)
    d_out, d_in = w.shape
    # The sparse tensor holds actual outliers (3σ rule) only, capped at N
    # per M block by the rigid pattern; overflow outliers stay in the dense
    # tensor and inflate its scale, and blocks without outliers waste their
    # reserved slots — both are SDQ's published limitations.
    omask = np.zeros(w.shape, dtype=bool)
    kernel = BlockQuantKernel(group_size)
    for lo, hi in kernel.blocks(d_in):
        omask[:, lo:hi] = kernel.separate(w[:, lo:hi])
    sparse_mask = np.zeros(w.shape, dtype=bool)
    pattern = BlockQuantKernel(sparse_m, detect_outliers=False)
    for lo, hi in pattern.blocks(d_in):
        block = np.where(omask[:, lo:hi], np.abs(w[:, lo:hi]), 0.0)
        n_keep = min(sparse_n, block.shape[1])
        top = np.argsort(-block, axis=1, kind="stable")[:, :n_keep]
        picked = np.zeros_like(block, dtype=bool)
        np.put_along_axis(picked, top, True, axis=1)
        sparse_mask[:, lo:hi] = picked & (block > 0.0)

    dense_part = np.where(sparse_mask, 0.0, w)
    dense_q = _lwc_quantize(dense_part, None, bits, group_size)
    dense_q = np.where(sparse_mask, 0.0, dense_q)

    # The sparse tensor shares one scale per output row (a structured-sparse
    # kernel streams the whole row's N:M values against a single scalar).
    hi_bits = 2 * bits
    maxq = int_max(hi_bits)
    sparse_vals = np.where(sparse_mask, w, 0.0)
    amax = np.max(np.abs(sparse_vals), axis=1, keepdims=True)
    scale = np.where(amax == 0.0, 1.0, amax / maxq)
    sparse_q = np.clip(np.rint(sparse_vals / scale), -maxq, maxq) * scale
    sparse_q = np.where(sparse_mask, sparse_q, 0.0)

    dq = dense_q + sparse_q
    # EBW: dense bits + N:M sparse values + per-M index bits.
    idx_bits = int(np.ceil(np.log2(sparse_m)))
    ebw = bits + sparse_n * (hi_bits + idx_bits) / sparse_m
    return BaselineResult("sdq", dq, ebw, {"pattern": f"{sparse_n}:{sparse_m}"})
