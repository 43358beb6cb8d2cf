"""The MicroScopiQ quantizer (paper §4, Algorithm 1), as named stages.

For every macro-block (MaB, 128 columns) of every row:

1. **Separate** inliers and outliers with the 3σ rule
   (:meth:`~repro.quant.kernel.BlockQuantKernel.separate`).
2. **Scale-fit**: one shared power-of-two inlier scale ``2**Isf`` per row
   (MX-INT-b_BM), snapped to the E8M0 grid (:func:`_fit_inlier_scale`).
3. Per micro-block (μB, 8 columns): cap outliers at ``B_μ/2``; **prune**
   the ``n`` least-important inliers (OBS saliency ``w²/[H⁻¹]_pp``,
   :func:`_select_prune_positions`) to free slots for the outliers' extra
   bits; **outlier-quantize** the outliers jointly to MX-FP with a shared
   microexponent, optionally pre-scaled by ``2**Isf``
   (:func:`_quantize_outlier_group`). All rows of a μB run these stages as
   one batch (:func:`~repro.quant.vector.vector_ub_quantize`).
4. **Compensate** the quantization error onto not-yet-quantized columns via
   the GPTQ/OBS update
   (:meth:`~repro.quant.kernel.BlockQuantKernel.propagate_block_error_gemm`).

Columns are processed strictly left-to-right along the input (dot-product)
dimension, so the inverse-Hessian Cholesky factor drives compensation exactly
as in GPTQ. The block-loop scaffolding (block walk, outlier separation, OBS
propagation) lives on the shared :class:`BlockQuantKernel` that the GPTQ-family
baselines reuse. The per-row walk the batched stages replaced is kept in
``tests/kernel_oracle.py`` as the tests' oracle.
"""

from __future__ import annotations

import numpy as np

from ..formats.fp import FPFormat
from ..formats.mx import outlier_format_for_bits, quantize_mx_fp_group
from ..formats.scalar import int_max, pow2_scale_exponent
from ..methods.resources import HessianBundle
from ..obs.metrics import METRICS
from ..obs.trace import trace
from .config import MicroScopiQConfig
from .kernel import BlockQuantKernel
from .packed import PackedLayer
from .vector import vector_ub_quantize

__all__ = ["quantize_matrix", "quantize_microscopiq"]


def _level1_field_range(fmt: FPFormat) -> tuple[int, int]:
    """Range of the MXScale level-1 field (7 bits for e1m2, 5 for e3m4).

    The field is a biased exponent (like E8M0) covering non-positive
    exponents: weight tensors are sub-unit scaled, and the paper's outlier
    pre-scaling by ``2**Isf`` further normalizes the level-1 exponent into a
    narrow negative band, which is what lets a 5-bit field suffice for e3m4.
    """
    field_bits = 8 - fmt.exp_bits
    return -(2**field_bits) + 1, 0


def _quantize_outlier_group(
    values: np.ndarray, config: MicroScopiQConfig, isf: int
) -> tuple[np.ndarray, int, int]:
    """Stage *outlier-quantize*: one μB's outliers → (dequant, level1, μX).

    With ``prescale_outliers`` the group is multiplied by ``2**Isf`` first
    (Isf is negative for all FMs we generate, shrinking the dynamic range the
    MXScale level-1 field must cover); the reconstruction folds the factor
    back, i.e. the effective scale is ``2**(l1 + μX - Isf)`` (paper §4.2).
    """
    if config.outlier_format == "mx-int":
        exp = int(pow2_scale_exponent(values, config.outlier_bits))
        scale = 2.0**exp
        m = int_max(config.outlier_bits)
        codes = np.clip(np.rint(values / scale), -m, m)
        return codes * scale, exp, 0

    fmt = outlier_format_for_bits(config.outlier_bits)
    pre = 2.0**isf if config.prescale_outliers else 1.0
    result = quantize_mx_fp_group(values * pre, fmt)
    lo, hi = _level1_field_range(fmt)
    l1 = result.level1_exp
    if lo <= l1 <= hi:
        dequant = result.dequant / pre
    else:
        # Level-1 exponent overflows its MXScale field: clamp and saturate.
        l1_clamped = int(np.clip(l1, lo, hi))
        sig = np.where(result.mantissa_codes < 0, 0.0, 1.0 + result.mantissa_codes / fmt.man_levels)
        dequant = result.signs * sig * 2.0 ** (l1_clamped + result.mu_x) / pre
        l1 = l1_clamped
    eff_l1 = l1 - (isf if config.prescale_outliers else 0)
    return dequant, eff_l1, result.mu_x


def _select_prune_positions(
    strategy: str,
    n: int,
    inlier_pos: np.ndarray,
    outlier_pos: np.ndarray,
    saliency: np.ndarray,
) -> list[int]:
    """Pick ``min(n, len(inlier_pos))`` μB-local positions to prune from
    ``inlier_pos``.

    ``saliency`` is indexed by μB-local position. "hessian" and "magnitude"
    use the provided saliency; "adjacent" mimics OliVe's victim-pair choice
    (the slot right of each outlier, falling back left, then least-salient).
    """
    if strategy in ("hessian", "magnitude"):
        order = np.argsort(saliency[inlier_pos], kind="stable")
        return [int(inlier_pos[i]) for i in order[:n]]

    chosen: list[int] = []
    available = set(int(p) for p in inlier_pos)
    for p in outlier_pos[: min(n, len(inlier_pos))]:
        pick = None
        for cand in (p + 1, p - 1):
            if cand in available:
                pick = cand
                break
        if pick is None:
            remaining = sorted(available, key=lambda q: saliency[q])
            pick = remaining[0]
        available.discard(pick)
        chosen.append(int(pick))
    return chosen


def _fit_inlier_scale(
    block: np.ndarray, omask: np.ndarray, imax: int, col_w: np.ndarray
) -> np.ndarray:
    """Stage *scale-fit*: per-row power-of-two inlier scale exponent (Step 1.2).

    The shared scale comes from inlier magnitudes only; Eq. 1's float scale
    is snapped to the E8M0 grid by trying the covering exponent and two
    tighter (clipping) candidates, keeping the per-row error minimizer.
    ``col_w`` weights the squared error by column importance — ones for
    plain MicroScopiQ, ``diag(H) ~ E[x²]`` for the LWC (Omni-MicroScopiQ)
    objective.
    """
    inlier_mag = np.where(omask, 0.0, np.abs(block))
    no_inliers = ~np.any(~omask, axis=1)
    amax = np.max(inlier_mag, axis=1)
    amax = np.where(no_inliers, np.max(np.abs(block), axis=1), amax)
    safe = np.where(amax == 0.0, 1.0, amax)
    isf = np.where(
        amax == 0.0, 0, np.ceil(np.log2(safe / imax))
    ).astype(np.int32)
    isf = np.clip(isf, -127, 127)
    inl = np.where(omask, 0.0, block)
    best_mse = None
    best_isf = isf.copy()
    for delta in (0, 1, 2):
        cand = isf - delta
        sc = 2.0 ** cand.astype(np.float64)
        qq = np.clip(np.rint(inl / sc[:, None]), -imax, imax) * sc[:, None]
        mse = np.sum((qq - inl) ** 2 * col_w, axis=1)
        if best_mse is None:
            best_mse = mse
        else:
            better = mse < best_mse
            best_mse = np.where(better, mse, best_mse)
            best_isf = np.where(better, cand, best_isf)
    return best_isf.astype(np.int32)


def _record_ub_meta(
    meta,
    row_ids: np.ndarray,
    ub_ids: np.ndarray,
    col_base: np.ndarray,
    out_mask: np.ndarray,
    pruned: np.ndarray,
    ub_count: np.ndarray,
    ub_scale: np.ndarray,
    perm_lists: dict,
) -> None:
    """Scatter one μB batch's :class:`~repro.quant.vector.UbRowMeta` into the
    global packer arrays. ``row_ids`` / ``ub_ids`` / ``col_base`` map each
    batch row to its matrix row, μB index, and μB start column."""
    rsel, jsel = np.nonzero(meta.out_valid)
    out_mask[row_ids[rsel], col_base[rsel] + meta.out_idx[rsel, jsel]] = True
    if meta.prune_idx.shape[1]:
        psel, qsel = np.nonzero(meta.prune_valid)
        pruned[row_ids[psel], col_base[psel] + meta.prune_idx[psel, qsel]] = True
    ub_count[row_ids, ub_ids] = meta.n_out
    ub_scale[row_ids, ub_ids, 0] = np.clip(meta.level1, -32768, 32767)
    ub_scale[row_ids, ub_ids, 1] = meta.mu_x
    for i in range(len(row_ids)):
        perm_lists[(int(row_ids[i]), int(ub_ids[i]))] = [
            (int(meta.out_idx[i, j]), int(meta.prune_idx[i, j]))
            for j in range(int(meta.n_prune[i]))
        ]


def quantize_matrix(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    config: MicroScopiQConfig | None = None,
    hessian: np.ndarray | HessianBundle | None = None,
) -> PackedLayer:
    """Quantize a ``[d_out, d_in]`` weight matrix with MicroScopiQ.

    ``calib_inputs [n, d_in]`` (or a precomputed ``hessian`` — a raw ``H``
    or a :class:`~repro.methods.resources.HessianBundle` from the engine's
    :class:`~repro.methods.resources.HessianStore`) enables the Hessian
    saliency and GPTQ error compensation; without either, saliency falls
    back to weight magnitude and no compensation is applied. A shared bundle
    makes its ``H⁻¹``/Cholesky factors compute once per calibration instead
    of once per (bits, knob) setting.

    The μB stages run batched across rows — and, without compensation,
    across a whole macro-block.
    """
    config = config or MicroScopiQConfig()
    with trace("kernel:quantize_matrix"):
        METRICS.incr("quant.kernel.vector_calls")
        return _quantize_matrix_impl(weights, calib_inputs, config, hessian)


def _quantize_matrix_impl(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None,
    config: MicroScopiQConfig,
    hessian: np.ndarray | HessianBundle | None,
) -> PackedLayer:
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {w.shape}")
    d_out, d_in = w.shape
    bm, bu = config.macro_block, config.micro_block
    imax = int_max(config.inlier_bits)

    if hessian is not None:
        bundle = HessianBundle.wrap(hessian)
    elif calib_inputs is not None:
        bundle = HessianBundle(calib_inputs, config.damp_ratio)
    else:
        bundle = None
    have_h = bundle is not None
    if have_h:
        hinv_diag = bundle.hinv_diag
        u_factor = bundle.u_factor if config.compensate else None
    else:
        hinv_diag = np.ones(d_in)
        u_factor = None

    n_mabs = (d_in + bm - 1) // bm
    n_ubs = (d_in + bu - 1) // bu
    q = np.zeros_like(w)
    isf_out = np.zeros((d_out, n_mabs), dtype=np.int32)
    out_mask = np.zeros(w.shape, dtype=bool)
    pruned = np.zeros(w.shape, dtype=bool)
    ub_count = np.zeros((d_out, n_ubs), dtype=np.uint8)
    ub_scale = np.full((d_out, n_ubs, 2), -128, dtype=np.int16)
    perm_lists: dict = {}

    kernel = BlockQuantKernel(
        bm, config.sigma_threshold, detect_outliers=config.outlier_format != "none"
    )

    meta_sinks = (out_mask, pruned, ub_count, ub_scale, perm_lists)

    for m_lo, m_hi in kernel.blocks(d_in):
        block = w[:, m_lo:m_hi]
        omask = kernel.separate(block)

        if config.lwc and have_h:
            col_w = bundle.h_diag[m_lo:m_hi][None, :]
        else:
            col_w = np.ones((1, m_hi - m_lo))
        isf = _fit_inlier_scale(block, omask, imax, col_w)
        isf_out[:, m_lo // bm] = isf
        scale = 2.0 ** isf.astype(np.float64)

        if u_factor is None:
            # No cross-μB propagation: every full μB of the MaB batches as an
            # independent virtual row through the same core.
            n_full = (m_hi - m_lo) // bu
            if n_full:
                span = n_full * bu
                wb_v = w[:, m_lo : m_lo + span].reshape(d_out, n_full, bu).reshape(-1, bu)
                om_v = omask[:, :span].reshape(d_out, n_full, bu).reshape(-1, bu)
                hd_v = np.tile(hinv_diag[m_lo : m_lo + span].reshape(n_full, bu), (d_out, 1))
                qb_v, meta = vector_ub_quantize(
                    wb_v,
                    om_v,
                    np.repeat(scale, n_full),
                    np.repeat(isf, n_full),
                    hd_v,
                    have_h,
                    config,
                )
                q[:, m_lo : m_lo + span] = qb_v.reshape(d_out, span)
                if meta is not None:
                    u_off = meta.rows % n_full
                    _record_ub_meta(
                        meta,
                        meta.rows // n_full,
                        m_lo // bu + u_off,
                        m_lo + u_off * bu,
                        *meta_sinks,
                    )
            # The ragged tail μB, if any, runs on real rows below.
            ub_starts = range(m_lo + n_full * bu, m_hi, bu)
        else:
            ub_starts = range(m_lo, m_hi, bu)

        for u_lo in ub_starts:
            u_hi = min(u_lo + bu, m_hi)
            qb, meta = vector_ub_quantize(
                w[:, u_lo:u_hi],  # current (compensated) snapshot of this μB
                omask[:, u_lo - m_lo : u_hi - m_lo],
                scale,
                isf,
                hinv_diag[u_lo:u_hi],
                have_h,
                config,
            )
            if meta is not None:
                n_rows = len(meta.rows)
                _record_ub_meta(
                    meta,
                    meta.rows,
                    np.full(n_rows, u_lo // bu),
                    np.full(n_rows, u_lo),
                    *meta_sinks,
                )
            q[:, u_lo:u_hi] = qb
            if u_factor is not None:
                kernel.propagate_block_error_gemm(w, q, u_factor, u_lo, u_hi)

    return PackedLayer(
        dequant=q,
        config=config,
        inlier_scale_exp=isf_out,
        outlier_mask=out_mask,
        pruned_mask=pruned,
        ub_outlier_count=ub_count,
        ub_scale=ub_scale,
        perm_lists=perm_lists,
    )


# Alias emphasizing the method name at call sites that compare quantizers.
quantize_microscopiq = quantize_matrix
