"""The tests' oracles for the quantization kernels: the straightforward
per-row and per-column walks that ``src`` replaced with batched forms.

Each is the loop the library ran before its fast form, kept so the tests
can assert the fast form bit-identical to it:

* :func:`quantize_matrix_walk` — MicroScopiQ's Algorithm 1 one μB and one
  row at a time (:func:`_prune_and_quantize_outliers`), compensating with
  the column-by-column OBS update :func:`propagate_block_error`. It has the
  signature of ``repro.quant.microscopiq._quantize_matrix_impl`` and shares
  its stage helpers (scale fit, prune choice, outlier group).
* :func:`gptq_core_walk` — ``gptq_core`` on the untransposed weights.
* :func:`quantize_olive_walk` — OliVe's per-row victim walk.

:func:`oracle_kernels` is the seam that runs library code on the oracle:
``quantize_matrix`` calls :func:`quantize_matrix_walk`, and the engine stops
row-stacking same-shape layers, which gives the unbatched per-layer run.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.baselines.base import BaselineResult, group_float_scale
from repro.formats.scalar import int_max
from repro.methods.resources import HessianBundle
from repro.quant import engine, microscopiq
from repro.quant.config import MicroScopiQConfig
from repro.quant.kernel import BlockQuantKernel
from repro.quant.microscopiq import (
    _fit_inlier_scale,
    _quantize_outlier_group,
    _select_prune_positions,
)
from repro.quant.packed import PackedLayer


@contextmanager
def oracle_kernels():
    """Run ``quantize_matrix`` on :func:`quantize_matrix_walk`, and the
    engine's layers one kernel call each (no shape batching)."""
    with mock.patch.object(
        microscopiq, "_quantize_matrix_impl", quantize_matrix_walk
    ), mock.patch.object(engine, "_coalesce_tasks", lambda tasks: tasks):
        yield


def assert_packed_equal(a, b, context=""):
    assert np.array_equal(a.dequant, b.dequant), f"{context}: dequant differs"
    assert np.array_equal(a.inlier_scale_exp, b.inlier_scale_exp), context
    assert np.array_equal(a.outlier_mask, b.outlier_mask), context
    assert np.array_equal(a.pruned_mask, b.pruned_mask), context
    assert np.array_equal(a.ub_outlier_count, b.ub_outlier_count), context
    assert np.array_equal(a.ub_scale, b.ub_scale), context
    assert a.perm_lists == b.perm_lists, f"{context}: perm_lists differ"


# ------------------------------------------------------------------ OBS stage


def propagate_block_error(
    w: np.ndarray, q: np.ndarray, u_factor: np.ndarray, lo: int, hi: int
) -> None:
    """Stage *compensate*: OBS error propagation for columns ``[lo, hi)``.

    ``w[:, lo:hi]`` must still hold the pre-quantization (compensated)
    weights and ``q[:, lo:hi]`` their quantized values. Q for the block
    may have been chosen jointly from that snapshot, but the error terms
    must follow the sequential Cholesky conditioning: column ``p``'s
    error is measured against the weights *after* columns ``< p`` inside
    the block have pushed their updates (a local working copy), while
    updates beyond the block land directly on ``w``. With ``hi == lo+1``
    this degenerates to GPTQ's plain per-column update.
    """
    d_in = w.shape[1]
    w_work = w[:, lo:hi].copy()
    for p in range(lo, hi):
        j = p - lo
        err = (w_work[:, j] - q[:, p]) / u_factor[p, p]
        if j + 1 < w_work.shape[1]:
            w_work[:, j + 1 :] -= np.outer(err, u_factor[p, p + 1 : hi])
        if hi < d_in:
            w[:, hi:] -= np.outer(err, u_factor[p, hi:])


# ---------------------------------------------------------------- MicroScopiQ


def _prune_and_quantize_outliers(
    wb: np.ndarray,
    ub_omask: np.ndarray,
    qb: np.ndarray,
    config: MicroScopiQConfig,
    isf: np.ndarray,
    hinv_diag_ub: np.ndarray,
    have_h: bool,
) -> dict[int, tuple[np.ndarray, list[int], int, int]]:
    """Stages *prune* + *outlier-quantize* for one μB.

    Mutates ``qb`` in place (outlier slots get their MX-FP reconstruction,
    pruned slots go to zero) and returns, per affected row, the μB-local
    ``(outlier_positions, prune_positions, level1_exp, mu_x)`` metadata the
    packer records. Saliency for the whole μB is computed at once; the
    per-row prune choice for the sort-based strategies is one masked stable
    argsort (outliers pushed to the end with +inf) instead of a
    setdiff1d + fancy-index + argsort per row.
    """
    info: dict[int, tuple[np.ndarray, list[int], int, int]] = {}
    rows = np.nonzero(ub_omask.any(axis=1))[0]
    if not len(rows):
        return info
    cap = config.max_outliers_per_ub
    width = wb.shape[1]
    if config.prune_strategy == "hessian" and have_h:
        sal_ub = wb**2 / hinv_diag_ub[None, :]
    else:
        sal_ub = np.abs(wb)
    if config.prune_strategy in ("hessian", "magnitude"):
        order_ub = np.argsort(
            np.where(ub_omask, np.inf, sal_ub), axis=1, kind="stable"
        )
    else:
        order_ub = None
    for r in rows:
        local_out = np.nonzero(ub_omask[r])[0]
        demoted = len(local_out) > cap
        if demoted:
            # Demote the smallest-magnitude outliers to inliers
            # (the "outlier pruning" regime of Fig. 14 at tiny B_μ).
            mags = np.abs(wb[r, local_out])
            keep = local_out[np.argsort(-mags, kind="stable")[:cap]]
            local_out = np.sort(keep)
        n = len(local_out)
        if order_ub is not None and not demoted:
            # First n entries = the n least-salient inliers, in the
            # same stable order _select_prune_positions produces.
            k = min(n, width - n)
            prune_pos = [int(p) for p in order_ub[r, :k]]
        else:
            all_pos = np.arange(width)
            inlier_pos = np.setdiff1d(all_pos, local_out)
            prune_pos = _select_prune_positions(
                config.prune_strategy, n, inlier_pos, local_out, sal_ub[r]
            )

        deq, l1, mu_x = _quantize_outlier_group(
            wb[r, local_out], config, int(isf[r])
        )
        qb[r, local_out] = deq
        qb[r, prune_pos] = 0.0
        info[int(r)] = (local_out, prune_pos, l1, mu_x)
    return info


def quantize_matrix_walk(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None,
    config: MicroScopiQConfig,
    hessian: np.ndarray | HessianBundle | None,
) -> PackedLayer:
    """MicroScopiQ one μB at a time, one outlier-bearing row at a time."""
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

        for u_lo in range(m_lo, m_hi, bu):
            u_hi = min(u_lo + bu, m_hi)
            ub_idx = u_lo // bu
            cols = slice(u_lo, u_hi)
            wb = w[:, cols]  # current (compensated) snapshot of this μB
            ub_omask = omask[:, u_lo - m_lo : u_hi - m_lo]

            codes = np.clip(np.rint(wb / scale[:, None]), -imax, imax)
            qb = codes * scale[:, None]

            row_info = _prune_and_quantize_outliers(
                wb, ub_omask, qb, config, isf, hinv_diag[u_lo:u_hi], have_h
            )
            for r, (local_out, prune_pos, l1, mu_x) in row_info.items():
                out_mask[r, u_lo + local_out] = True
                pruned[r, u_lo + np.asarray(prune_pos, dtype=int)] = True
                ub_count[r, ub_idx] = len(local_out)
                ub_scale[r, ub_idx, 0] = np.clip(l1, -32768, 32767)
                ub_scale[r, ub_idx, 1] = mu_x
                perm_lists[(r, int(ub_idx))] = [
                    (int(o), int(p)) for o, p in zip(local_out, prune_pos)
                ]

            q[:, cols] = qb

            if u_factor is not None:
                propagate_block_error(w, q, u_factor, u_lo, u_hi)

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


# ----------------------------------------------------------------------- GPTQ


def gptq_core_walk(
    weights, hessian, bits_per_col, group_size=128, clip_ratio=1.0, obs_stage=False
):
    """``gptq_core`` as it was before it walked a transposed working copy:
    strided column reads and one ``np.outer`` temporary per column. With
    ``obs_stage`` each column's update goes through
    :func:`propagate_block_error` instead of being written out inline."""
    w = np.array(weights, dtype=np.float64)
    d_out, d_in = w.shape
    u = HessianBundle.wrap(hessian).u_factor
    q = np.zeros_like(w)
    kernel = BlockQuantKernel(group_size, detect_outliers=False)
    for lo, hi in kernel.blocks(d_in):
        group_bits = int(bits_per_col[lo])
        scale = group_float_scale(w[:, lo:hi], group_bits, clip_ratio)[:, 0]
        for p in range(lo, hi):
            bits = int(bits_per_col[p])
            maxq = 2 ** (bits - 1) - 1
            col_scale = scale * (2 ** (group_bits - 1) - 1) / maxq if bits != group_bits else scale
            q[:, p] = np.clip(np.rint(w[:, p] / col_scale), -maxq, maxq) * col_scale
            if obs_stage:
                propagate_block_error(w, q, u, p, p + 1)
            else:
                err = (w[:, p] - q[:, p]) / u[p, p]
                if p + 1 < d_in:
                    w[:, p + 1 :] -= np.outer(err, u[p, p + 1 :])
    return q


# ---------------------------------------------------------------------- OliVe


def _abfloat_encode(values: np.ndarray, bits: int) -> np.ndarray:
    """Round magnitudes to signed powers of two with an adaptive bias."""
    e_levels = 2 ** (bits - 1)  # exponent values per sign
    mag = np.abs(values)
    vmax = float(mag.max())
    if vmax == 0.0:
        return np.zeros_like(values)
    bias = int(np.floor(np.log2(vmax))) - (e_levels - 1)
    with np.errstate(divide="ignore"):
        e = np.rint(np.log2(np.where(mag == 0.0, 1e-30, mag))) - bias
    e = np.clip(e, 0, e_levels - 1)
    return np.sign(values) * 2.0 ** (e + bias)


def quantize_olive_walk(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    group_size: int = 128,
    sigma_threshold: float = 3.0,
) -> BaselineResult:
    """``quantize_olive`` one row at a time, each outlier its own abfloat
    group."""
    w = np.asarray(weights, dtype=np.float64)
    d_out, d_in = w.shape
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
        for r in range(d_out):
            cols = np.nonzero(omask[r])[0]
            victims: set[int] = set()
            for c in cols:
                if c in victims:
                    continue  # this outlier was already destroyed as a victim
                q[r, c] = _abfloat_encode(block[r, c : c + 1], bits)[0]
                # The adjacent slot becomes the identifier: prune it — even
                # if it is itself an outlier (OliVe's locality assumption).
                victim = c + 1 if c + 1 < width else c - 1
                if victim >= 0:
                    if omask[r, victim]:
                        n_victim_outliers += 1
                    q[r, victim] = 0.0
                    victims.add(victim)
        dq[:, lo:hi] = q

    return BaselineResult(
        "olive",
        dq,
        float(bits),
        {"victim_outliers": n_victim_outliers, "group_size": group_size},
    )
