"""GPTQ [Frantar et al. 2022]: RTN + sequential OBS error compensation.

Columns quantize left-to-right; each column's rounding error is pushed onto
not-yet-quantized columns via the inverse-Hessian Cholesky factor. Group
scales (float, per 128 columns) are recomputed from the *updated* weights at
each group boundary.
"""

from __future__ import annotations

import numpy as np

from ..formats.scalar import int_max
from ..methods.resources import HessianBundle
from ..quant.kernel import BlockQuantKernel
from .base import BaselineResult, group_float_scale

__all__ = ["quantize_gptq", "gptq_core"]


def gptq_core(
    weights: np.ndarray,
    hessian: np.ndarray | HessianBundle,
    bits_per_col: np.ndarray,
    group_size: int = 128,
    clip_ratio: float = 1.0,
) -> np.ndarray:
    """Column-sequential GPTQ supporting a per-column bit-width.

    ``bits_per_col [d_in]`` lets Atom-style mixed-precision reuse the same
    engine (outlier channels at 8 bits, the rest at 4). Group scales (float,
    per ``group_size`` columns) are recomputed from the *updated* weights at
    each group boundary; each column's rounding error then propagates as a
    single-column OBS update (plain GPTQ).

    ``hessian`` is a raw damped ``H`` or a
    :class:`~repro.methods.resources.HessianBundle`; passing the bundle lets
    a multi-setting sweep reuse one Cholesky factorization instead of
    re-inverting ``H`` per setting.

    GPTQ recomputes *float* group scales from the updated weights at every
    boundary, so any lazy-batch (GEMM) deferral of the trailing updates
    reassociates their summation and perturbs the next group's scale in the
    last ulp — unlike MicroScopiQ's fixed power-of-two scales, that is
    observable. The walk therefore keeps the exact per-column update order,
    on a transposed working copy ``wt`` (``[d_in, d_out]``, C-contiguous) in
    which weight column ``p`` is the contiguous row ``wt[p]``. Each rank-1
    update ``u[p, p+1:, None] * err`` is written into a slice of one
    preallocated buffer and subtracted in place, allocating nothing per
    column. Each element gets the same IEEE product and subtraction, in the
    same order, as ``w[:, p+1:] -= np.outer(err, u[p, p+1:])`` on the
    untransposed weights (multiplication commutes exactly), and a group
    scale is a ``max`` over ``wt[lo:hi].T``, which no order changes; the
    untransposed walk is kept as the tests' oracle
    (``tests/kernel_oracle.py``) and asserted bit-identical. Beyond the walk,
    the speed comes from the engine's row-stacked shape batching, which is
    exactly row-independent. The result is a new C-contiguous
    ``[d_out, d_in]`` array, the layout every later forward's ``x @ w.T``
    reads.
    """
    wt = np.asarray(weights, dtype=np.float64).T.copy()
    d_in = wt.shape[0]
    u = HessianBundle.wrap(hessian).u_factor
    qt = np.zeros_like(wt)
    kernel = BlockQuantKernel(group_size, detect_outliers=False)
    update = np.empty_like(wt)
    for lo, hi in kernel.blocks(d_in):
        group_bits = int(bits_per_col[lo])
        group_maxq = int_max(group_bits)
        scale = group_float_scale(wt[lo:hi].T, group_bits, clip_ratio)[:, 0]
        for p in range(lo, hi):
            bits = int(bits_per_col[p])
            maxq = int_max(bits)
            # A column with more bits than the group reference keeps the group
            # scale but uses its own wider clip range.
            col_scale = scale * group_maxq / maxq if bits != group_bits else scale
            qt[p] = np.clip(np.rint(wt[p] / col_scale), -maxq, maxq) * col_scale
            # Single-column OBS update, in place on the trailing rows.
            err = (wt[p] - qt[p]) / u[p, p]
            if p + 1 < d_in:
                rows = update[p + 1 :]
                np.multiply(u[p, p + 1 :, None], err, out=rows)
                wt[p + 1 :] -= rows
    return qt.T.copy()


def quantize_gptq(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    group_size: int = 128,
    damp_ratio: float = 0.01,
    hessian: np.ndarray | HessianBundle | None = None,
) -> BaselineResult:
    """Uniform-precision GPTQ. Falls back to RTN math if no calibration.

    A precomputed ``hessian`` — a raw ``H`` or the engine-provided
    :class:`~repro.methods.resources.HessianBundle` — skips the ``X^T X``
    build (and, for a bundle, the inversion/factorization too).
    """
    w = np.asarray(weights, dtype=np.float64)
    d_in = w.shape[1]
    if hessian is None:
        if calib_inputs is None:
            bundle = HessianBundle(h=np.eye(d_in))
        else:
            bundle = HessianBundle(calib_inputs, damp_ratio)
    else:
        bundle = HessianBundle.wrap(hessian)
    bits_per_col = np.full(d_in, bits, dtype=np.int32)
    dq = gptq_core(w, bundle, bits_per_col, group_size)
    return BaselineResult("gptq", dq, float(bits), {"group_size": group_size})
