"""Vectorized MicroScopiQ μB core: the quantization hot loop's one path.

:func:`vector_ub_quantize` runs the *quantize* / *prune* / *outlier-quantize*
stages of Algorithm 1 for a whole batch of independent rows at once: masked
stable argsorts replace the per-row demotion and prune loops, the per-μB
outlier groups quantize as one ``[rows, cap]`` batch
(:func:`_quantize_outlier_groups`), and the packer metadata comes back as
index arrays the caller scatters in one shot.

The per-row walk this replaced lives on as the tests' oracle
(``tests/kernel_oracle.py``); ``tests/test_vector_kernel.py`` asserts the two
bit-identical. Bit-identity notes (each is what makes the batch legal):

* Demotion ranks outliers with a full-width stable argsort over
  ``-|w|`` with ``+inf`` sentinels at inlier slots — tie-for-tie identical to
  the per-row stable argsort of the compacted magnitude array, because
  both order by ``(-|w|, position)``.
* Prune selection is one stable argsort of the saliency with ``+inf`` at
  kept-outlier slots; its first ``min(n, width - n)`` entries are the ``n``
  least-salient inliers :func:`~repro.quant.microscopiq._select_prune_positions`
  picks. The ``"adjacent"`` strategy has no sort form and calls that
  function row by row.
* The batched MX-FP search accumulates the candidate error sums
  *sequentially* over the element axis, which matches ``np.sum``'s scalar
  loop for fewer than 8 elements; with 8+ outliers per μB (``micro_block >=
  16``) numpy switches to 8-way pairwise accumulation, so the batch falls
  back to the per-group :func:`~repro.quant.microscopiq._quantize_outlier_group`
  to keep the sums bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.mx import outlier_format_for_bits
from ..formats.scalar import int_max, pow2_scale_exponent

__all__ = ["resolve_kernel_path", "vector_ub_quantize"]


def resolve_kernel_path() -> str:
    """Always ``"vector"``, the only kernel path.

    Kept for ``sweepbench/worker.py``'s run stamp, which still records a
    kernel path; delete it once the stamp stops asking.
    """
    return "vector"


# --------------------------------------------------------------------------
# Row-batched μB core
# --------------------------------------------------------------------------


@dataclass
class UbRowMeta:
    """Packer metadata for the outlier-bearing rows of one μB batch.

    All arrays are indexed by the batch's outlier-row axis (``rows[i]`` is
    the row's index in the input batch); ``out_idx`` / ``prune_idx`` carry
    μB-local column positions, padded to the batch maxima with the matching
    ``*_valid`` masks.
    """

    rows: np.ndarray  # [R] row indices into the input batch
    out_idx: np.ndarray  # [R, max_n] kept-outlier positions (ascending)
    out_valid: np.ndarray  # [R, max_n] bool
    n_out: np.ndarray  # [R] kept outliers per row
    prune_idx: np.ndarray  # [R, max_k] pruned-inlier positions
    prune_valid: np.ndarray  # [R, max_k] bool
    n_prune: np.ndarray  # [R] pruned slots per row
    level1: np.ndarray  # [R] effective level-1 exponents
    mu_x: np.ndarray  # [R] shared microexponents


def _quantize_outlier_groups(
    vals: np.ndarray, n_out: np.ndarray, isf_rows: np.ndarray, config
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched *outlier-quantize*: one padded group per row → (deq, l1, μX).

    ``vals [R, capm]`` holds each row's kept outliers left-aligned and
    zero-padded; every output is bit-identical to calling
    ``_quantize_outlier_group`` row by row (padding zeros are inert: they
    never move a group max and add exactly ``+0.0`` to the error sums).
    """
    n_rows, capm = vals.shape
    if config.outlier_format == "mx-int":
        exp = pow2_scale_exponent(vals, config.outlier_bits, axis=-1)
        scale = 2.0 ** exp.astype(np.float64)
        m = int_max(config.outlier_bits)
        codes = np.clip(np.rint(vals / scale), -m, m)
        return codes * scale, exp[:, 0].astype(np.int64), np.zeros(n_rows, np.int64)

    from .microscopiq import _level1_field_range, _quantize_outlier_group

    if capm >= 8:
        # np.sum switches to 8-way pairwise accumulation at 8 elements; keep
        # the per-group error sums bit-identical via the per-group routine.
        deq = np.zeros_like(vals)
        l1 = np.zeros(n_rows, np.int64)
        mu = np.zeros(n_rows, np.int64)
        for i in range(n_rows):
            n = int(n_out[i])
            d, e, m_x = _quantize_outlier_group(vals[i, :n], config, int(isf_rows[i]))
            deq[i, :n] = d
            l1[i] = e
            mu[i] = m_x
        return deq, l1, mu

    fmt = outlier_format_for_bits(config.outlier_bits)
    prescale = bool(config.prescale_outliers)
    if prescale:
        pre = 2.0 ** isf_rows.astype(np.float64)
    else:
        pre = np.ones(n_rows)
    v = vals * pre[:, None]
    mag = np.abs(v)
    vmax = mag.max(axis=1)
    zero = vmax == 0.0
    safe_vmax = np.where(zero, 1.0, vmax)

    l1 = np.ceil(np.log2(safe_vmax / fmt.max_value))  # float, integer-valued
    scaled = mag / (2.0**l1)[:, None]
    smax = np.where(zero, 1.0, scaled.max(axis=1))
    top_exp = np.floor(np.log2(smax))
    lo = np.maximum(0.0, top_exp - fmt.exp_levels + 1)
    hi = np.minimum(float(fmt.exp_levels - 1), top_exp)

    # One shared candidate axis covering every row's [lo, hi] μX range;
    # out-of-range candidates get +inf error, which preserves the per-group
    # search's first-minimum tie-break (the in-range window is contiguous).
    glo, ghi = int(lo.min()), int(hi.max())
    cand = np.arange(glo, ghi + 1, dtype=np.float64)
    pw = 2.0**cand
    man_levels = fmt.man_levels
    s3 = scaled[:, None, :]  # [R, C, capm] broadcast shape
    codes = np.clip(np.rint((s3 / pw[None, :, None] - 1.0) * man_levels), 0, man_levels - 1)
    recon = (1.0 + codes / man_levels) * pw[None, :, None]
    use_zero = s3 < recon - s3
    recon = np.where(use_zero, 0.0, recon)
    codes = np.where(use_zero, -1.0, codes)

    diff2 = (recon - s3) ** 2
    err = np.zeros((n_rows, cand.size))
    for j in range(capm):  # sequential: np.sum's accumulation order for n < 8
        err += diff2[:, :, j]
    ok = (cand[None, :] >= lo[:, None]) & (cand[None, :] <= hi[:, None])
    err = np.where(ok, err, np.inf)
    gi = np.argmin(err, axis=1)
    mu = (glo + gi).astype(np.int64)

    sel = gi[:, None, None]
    codes_r = np.take_along_axis(codes, sel, axis=1)[:, 0, :]
    recon_r = np.take_along_axis(recon, sel, axis=1)[:, 0, :]
    signs = np.where(v < 0, -1.0, 1.0)
    dequant = signs * recon_r * (2.0**l1)[:, None]

    # Level-1 MXScale field clamp (_quantize_outlier_group's epilogue).
    l1i = l1.astype(np.int64)
    lo_f, hi_f = _level1_field_range(fmt)
    in_range = (l1i >= lo_f) & (l1i <= hi_f)
    if not np.all(in_range | zero):
        l1c = np.clip(l1i, lo_f, hi_f)
        sig = np.where(codes_r < 0, 0.0, 1.0 + codes_r / man_levels)
        clamped = signs * sig * 2.0 ** (l1c + mu).astype(np.float64)[:, None]
        dequant = np.where(in_range[:, None], dequant, clamped)
        l1i = np.where(in_range, l1i, l1c)

    deq = dequant / pre[:, None]
    deq = np.where(zero[:, None], 0.0, deq)
    l1i = np.where(zero, 0, l1i)
    mu = np.where(zero, 0, mu)
    eff_l1 = l1i - (isf_rows.astype(np.int64) if prescale else 0)
    return deq, eff_l1, mu


def vector_ub_quantize(
    wb: np.ndarray,
    ub_omask: np.ndarray,
    scale: np.ndarray,
    isf: np.ndarray,
    hinv_diag_ub: np.ndarray,
    have_h: bool,
    config,
) -> tuple[np.ndarray, UbRowMeta | None]:
    """Stages *quantize* + *prune* + *outlier-quantize* for a row batch.

    ``wb [N, width]`` is a batch of independent μB rows (real rows of one μB,
    or virtual rows covering every full μB of an uncompensated macro-block);
    ``scale`` / ``isf`` are per-row, ``hinv_diag_ub`` is ``[width]`` or
    ``[N, width]``. Returns the quantized batch plus the packer metadata for
    outlier-bearing rows (``None`` when there are none).
    """
    imax = int_max(config.inlier_bits)
    codes = np.clip(np.rint(wb / scale[:, None]), -imax, imax)
    qb = codes * scale[:, None]

    rows = np.nonzero(ub_omask.any(axis=1))[0]
    if not len(rows):
        return qb, None

    cap = config.max_outliers_per_ub
    width = wb.shape[1]
    om = ub_omask[rows]
    wbr = wb[rows]
    counts = om.sum(axis=1)
    n_out = np.minimum(counts, cap)

    # Demotion: rank each row's outliers by (-|w|, position); keep the top
    # ``cap``. Rows under the cap keep all outliers (rank < count is a no-op).
    if np.any(counts > cap):
        neg = np.where(om, -np.abs(wbr), np.inf)
        order_desc = np.argsort(neg, axis=1, kind="stable")
        rank = np.empty_like(order_desc)
        np.put_along_axis(
            rank, order_desc, np.broadcast_to(np.arange(width), om.shape).copy(), axis=1
        )
        eff = om & (rank < n_out[:, None])
    else:
        eff = om

    # Kept-outlier positions, ascending, via one stable argsort per batch.
    capm = int(n_out.max())
    out_idx = np.argsort(~eff, axis=1, kind="stable")[:, :capm]
    out_valid = np.arange(capm)[None, :] < n_out[:, None]

    # Saliency + prune selection.
    hd = hinv_diag_ub if hinv_diag_ub.ndim == 2 else np.broadcast_to(hinv_diag_ub, wb.shape)
    if config.prune_strategy == "hessian" and have_h:
        sal = wbr**2 / hd[rows]
    else:
        sal = np.abs(wbr)
    n_prune = np.minimum(n_out, width - n_out)
    kmax = int(n_prune.max())
    if config.prune_strategy in ("hessian", "magnitude"):
        order_eff = np.argsort(np.where(eff, np.inf, sal), axis=1, kind="stable")
        prune_idx = order_eff[:, :kmax]
    else:
        from .microscopiq import _select_prune_positions

        all_pos = np.arange(width)
        prune_idx = np.zeros((len(rows), kmax), dtype=np.int64)
        for i in range(len(rows)):
            kept = out_idx[i, : n_out[i]]
            inlier_pos = np.setdiff1d(all_pos, kept)
            picks = _select_prune_positions(
                config.prune_strategy, int(n_out[i]), inlier_pos, kept, sal[i]
            )
            prune_idx[i, : n_prune[i]] = picks  # min(n, width - n) of them
    prune_valid = np.arange(kmax)[None, :] < n_prune[:, None]

    # Outlier groups: gather, batch-quantize, scatter back.
    vals = np.take_along_axis(wbr, out_idx, axis=1)
    vals = np.where(out_valid, vals, 0.0)
    deq, level1, mu_x = _quantize_outlier_groups(vals, n_out, isf[rows], config)

    sub = qb[rows]
    cur = np.take_along_axis(sub, out_idx, axis=1)
    np.put_along_axis(sub, out_idx, np.where(out_valid, deq, cur), axis=1)
    # Zero only the valid prune slots: the adjacent branch pads prune_idx
    # with position 0, which may also be one of the row's real picks.
    psel, qsel = np.nonzero(prune_valid)
    sub[psel, prune_idx[psel, qsel]] = 0.0
    qb[rows] = sub

    return qb, UbRowMeta(
        rows=rows,
        out_idx=out_idx,
        out_valid=out_valid,
        n_out=n_out,
        prune_idx=prune_idx,
        prune_valid=prune_valid,
        n_prune=n_prune,
        level1=level1,
        mu_x=mu_x,
    )
