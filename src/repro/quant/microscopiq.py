"""The MicroScopiQ quantizer (paper §4, Algorithm 1), as named stages.

For every macro-block (MaB, 128 columns) of every row:

1. **Separate** inliers and outliers with the 3σ rule
   (:meth:`~repro.quant.kernel.BlockQuantKernel.separate`).
2. **Scale-fit**: one shared power-of-two inlier scale ``2**Isf`` per row
   (MX-INT-b_BM), snapped to the E8M0 grid (:func:`_fit_inlier_scale`);
   LWC rows weight its error by ``diag(H)``.
3. Per micro-block (μB, 8 columns): cap outliers at ``B_μ/2``; **prune**
   the ``n`` least-important inliers (OBS saliency ``w²/[H⁻¹]_pp``,
   :func:`_select_prune_positions`) to free slots for the outliers' extra
   bits; **outlier-quantize** the outliers jointly to MX-FP with a shared
   microexponent, optionally pre-scaled by ``2**Isf``
   (:func:`_quantize_outlier_group`). All rows of a μB run these stages as
   one batch (:func:`~repro.quant.vector.vector_ub_quantize`), from a plan
   of everything that depends only on the MaB's outlier mask, made once
   per MaB (:func:`~repro.quant.vector.plan_ubs`).
4. **Compensate** the quantization error onto not-yet-quantized columns via
   the GPTQ/OBS update
   (:meth:`~repro.quant.kernel.BlockQuantKernel.propagate_block_error_gemm`).

After the walk, the packer metadata of every μB step is concatenated and
scattered into the :class:`~repro.quant.packed.PackedLayer` once
(:func:`_scatter_ub_meta`).

Columns are processed strictly left-to-right along the input (dot-product)
dimension, so the inverse-Hessian Cholesky factor drives compensation exactly
as in GPTQ. The block-loop scaffolding (block walk, outlier separation, OBS
propagation) lives on the shared :class:`BlockQuantKernel` that the GPTQ-family
baselines reuse. The per-row walk the batched stages replaced is kept in
``tests/kernel_oracle.py`` as the tests' oracle.

Algorithm 1 is row-independent, so configurations that differ only in
``lwc`` — Omni-MicroScopiQ's LWC and plain scale-fit candidates — run as one
walk over their stacked rows (:func:`quantize_candidates`), each row's scale
fit following its candidate's flag.
"""

from __future__ import annotations

from typing import Sequence

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
from .vector import StepConstants, plan_ubs, vector_ub_quantize

__all__ = ["quantize_candidates", "quantize_matrix", "quantize_microscopiq"]


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
    mag = np.abs(block)
    amax = np.where(omask, 0.0, mag).max(axis=1)
    no_inliers = omask.all(axis=1)
    if no_inliers.any():
        amax = np.where(no_inliers, mag.max(axis=1), amax)
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
        sc = (2.0 ** cand.astype(np.float64))[:, None]
        # ((clip(rint(inl / sc)) * sc - inl) ** 2) * col_w, in one buffer.
        err = inl / sc
        np.rint(err, out=err)
        np.maximum(err, -imax, out=err)
        np.minimum(err, imax, out=err)
        err *= sc
        err -= inl
        np.square(err, out=err)
        err *= col_w
        mse = np.sum(err, axis=1)
        if best_mse is None:
            best_mse = mse
        else:
            better = mse < best_mse
            best_mse = np.where(better, mse, best_mse)
            best_isf = np.where(better, cand, best_isf)
    return best_isf.astype(np.int32)


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
    across a whole macro-block. Non-finite or empty weights, and calibration
    or a raw ``H`` that is non-finite or does not match ``d_in``, raise
    ``ValueError``.
    """
    return quantize_candidates(
        weights, calib_inputs, (config or MicroScopiQConfig(),), hessian
    )[0]


def quantize_candidates(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None,
    configs: Sequence[MicroScopiQConfig],
    hessian: np.ndarray | HessianBundle | None = None,
) -> list[PackedLayer]:
    """Quantize ``weights`` under each of ``configs`` in one walk.

    The candidates may differ only in ``lwc`` (``ValueError`` otherwise).
    Algorithm 1 is row-independent, so the walk runs once over the
    candidates' rows stacked ``[len(configs) · d_out, d_in]``, fitting the
    inlier scales of each LWC candidate's rows with the ``diag(H)`` weights:
    one μB step per column block and one Hessian bundle for all candidates.
    Part ``i`` equals ``quantize_matrix(weights, calib_inputs, configs[i],
    hessian)`` bit for bit and carries ``configs[i]``. With more than one
    candidate the parts are row views of one stacked layer, so a caller that
    keeps one should copy it (:meth:`PackedLayer.copy`).
    """
    configs = tuple(configs)
    base = configs[0]
    for cfg in configs[1:]:
        if cfg.with_(lwc=base.lwc) != base:
            raise ValueError(
                f"candidate configs may differ only in lwc: {cfg} vs {base}"
            )
    w = _checked_weights(weights, calib_inputs, hessian)
    d_out = w.shape[0]
    # The walk overwrites its matrix (compensation): one private copy, which
    # np.vstack makes when it stacks the candidates.
    work = np.vstack((w,) * len(configs)) if len(configs) > 1 else w.copy()
    lwc_rows = np.repeat([cfg.lwc for cfg in configs], d_out)
    with trace("kernel:quantize_matrix"):
        METRICS.incr("quant.kernel.vector_calls")
        packed = _quantize_matrix_impl(work, calib_inputs, base, hessian, lwc_rows)
    if len(configs) == 1:
        return [packed]
    parts = packed.split_rows([d_out] * len(configs))
    for part, cfg in zip(parts, configs):
        part.config = cfg
    return parts


def _checked_weights(weights, calib_inputs, hessian) -> np.ndarray:
    """``weights`` as float64, after rejecting input the walk cannot use: a
    NaN or ±inf would spread along its row through the compensation and
    poison the inlier scale, and an empty or mismatched shape fails deep in
    the walk, or not at all."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {w.shape}")
    if not w.size:
        raise ValueError(f"weights must have d_out, d_in >= 1, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(
            f"weights hold {int(w.size - np.isfinite(w).sum())} non-finite "
            "value(s) (NaN or ±inf)"
        )
    d_in = w.shape[1]
    if calib_inputs is not None:
        x = np.asarray(calib_inputs)
        if x.ndim != 2 or x.shape[1] != d_in:
            raise ValueError(
                f"calib_inputs must be [n, d_in={d_in}], got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("calib_inputs hold non-finite value(s) (NaN or ±inf)")
    if hessian is not None and not isinstance(hessian, HessianBundle):
        h = np.asarray(hessian)
        if h.shape != (d_in, d_in):
            raise ValueError(
                f"hessian must be [d_in, d_in] = [{d_in}, {d_in}], got shape {h.shape}"
            )
        if not np.isfinite(h).all():
            raise ValueError("hessian holds non-finite value(s) (NaN or ±inf)")
    return w


def _quantize_matrix_impl(
    w: np.ndarray,
    calib_inputs: np.ndarray | None,
    config: MicroScopiQConfig,
    hessian: np.ndarray | HessianBundle | None,
    lwc_rows: np.ndarray,
) -> PackedLayer:
    """One walk of Algorithm 1 over ``w``, a float64 working copy it
    overwrites. ``config.lwc`` is not read: the rows where ``lwc_rows`` is
    set fit their inlier scales LWC-weighted (when there is an ``H``)."""
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
    k = StepConstants.of(config)
    # diag(H⁻¹) is the Hessian prune saliency's denominator. It is factored
    # whenever there is an H, whatever the strategy, so the bundle computes
    # (and the store counts and persists) the same factors for every config.
    # Without an H the saliency is the weight magnitude and nothing is
    # compensated.
    hinv_diag = bundle.hinv_diag if have_h else None
    hd = hinv_diag if k.hessian_prune else None
    u_factor = bundle.u_factor if have_h and config.compensate else None
    h_diag = bundle.h_diag if have_h and lwc_rows.any() else None

    n_mabs = (d_in + bm - 1) // bm
    q = np.zeros_like(w)
    isf_out = np.zeros((d_out, n_mabs), dtype=np.int32)
    metas: list = []

    kernel = BlockQuantKernel(
        bm, config.sigma_threshold, detect_outliers=config.outlier_format != "none"
    )

    for m_lo, m_hi in kernel.blocks(d_in):
        block = w[:, m_lo:m_hi]
        omask = kernel.separate(block)

        if h_diag is None:
            col_w = np.ones((1, m_hi - m_lo))
        else:
            col_w = np.where(lwc_rows[:, None], h_diag[m_lo:m_hi], 1.0)
        isf = _fit_inlier_scale(block, omask, imax, col_w)
        isf_out[:, m_lo // bm] = isf
        scale = 2.0 ** isf.astype(np.float64)

        ub0, n_full = m_lo // bu, (m_hi - m_lo) // bu
        span = n_full * bu
        hd_mab = None if hd is None else hd[m_lo : m_lo + span].reshape(n_full, bu)
        steps = []
        if n_full and u_factor is None:
            # No cross-μB propagation: every full μB of the MaB batches as an
            # independent virtual row through one step.
            n_v = d_out * n_full
            (plan,) = plan_ubs(
                omask[:, :span].reshape(n_v, 1, bu), k, scale, isf, hd_mab, ub0, n_full
            )
            qb_v, meta = vector_ub_quantize(
                w[:, m_lo : m_lo + span].reshape(n_v, bu),
                plan,
                np.repeat(scale, n_full)[:, None],
                k,
            )
            q[:, m_lo : m_lo + span] = qb_v.reshape(d_out, span)
            if meta is not None:
                metas.append(meta)
        elif n_full:
            plans = plan_ubs(
                omask[:, :span].reshape(d_out, n_full, bu), k, scale, isf, hd_mab, ub0
            )
            steps = [(m_lo + i * bu, plan) for i, plan in enumerate(plans)]
        if span < m_hi - m_lo:
            # The ragged tail μB runs on real rows.
            hd_tail = None if hd is None else hd[None, m_lo + span : m_hi]
            (plan,) = plan_ubs(
                omask[:, None, span:], k, scale, isf, hd_tail, ub0 + n_full
            )
            steps.append((m_lo + span, plan))

        scale_ub = np.repeat(scale, bu).reshape(d_out, bu)
        for u_lo, plan in steps:
            u_hi = min(u_lo + bu, m_hi)
            qb, meta = vector_ub_quantize(
                w[:, u_lo:u_hi],  # current (compensated) snapshot of this μB
                plan,
                scale_ub[:, : u_hi - u_lo],
                k,
            )
            if meta is not None:
                metas.append(meta)
            q[:, u_lo:u_hi] = qb
            if u_factor is not None:
                kernel.propagate_block_error_gemm(w, q, u_factor, u_lo, u_hi)

    out_mask, pruned, ub_count, ub_scale, perm_lists = _scatter_ub_meta(
        metas, w.shape, config
    )
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


def _scatter_ub_meta(metas: list, shape: tuple[int, int], config: MicroScopiQConfig):
    """The packer's metadata — outlier and pruned masks, per-μB outlier
    counts and MXScales, permutation lists — from a walk's
    :class:`~repro.quant.vector.UbRowMeta` steps, concatenated and scattered
    once."""
    d_out, d_in = shape
    bu = config.micro_block
    n_ubs = (d_in + bu - 1) // bu
    out_mask = np.zeros(shape, dtype=bool)
    pruned = np.zeros(shape, dtype=bool)
    ub_count = np.zeros((d_out, n_ubs), dtype=np.uint8)
    ub_scale = np.full((d_out, n_ubs, 2), -128, dtype=np.int16)
    if not metas:
        return out_mask, pruned, ub_count, ub_scale, {}

    rows, ubs, out_idx, n_out, prune_idx, n_prune, level1, mu_x = map(
        np.concatenate, zip(*metas)
    )
    slot = np.arange(config.max_outliers_per_ub)
    base = ubs * bu
    for mask, idx, n in ((out_mask, out_idx, n_out), (pruned, prune_idx, n_prune)):
        r, j = np.nonzero(slot < n[:, None])
        mask[rows[r], base[r] + idx[r, j]] = True
    ub_count[rows, ubs] = n_out
    ub_scale[rows, ubs, 0] = np.clip(level1, -32768, 32767)
    ub_scale[rows, ubs, 1] = mu_x
    # (upper, lower) location pairs of every valid prune slot, row-major;
    # each (row, μB) takes its run of them.
    valid = slot < n_prune[:, None]
    pairs = list(zip(out_idx[valid].tolist(), prune_idx[valid].tolist()))
    ends = np.cumsum(n_prune).tolist()
    starts = [0] + ends[:-1]
    perm_lists = {
        key: pairs[s:e]
        for key, s, e in zip(zip(rows.tolist(), ubs.tolist()), starts, ends)
    }
    return out_mask, pruned, ub_count, ub_scale, perm_lists


# Alias emphasizing the method name at call sites that compare quantizers.
quantize_microscopiq = quantize_matrix
