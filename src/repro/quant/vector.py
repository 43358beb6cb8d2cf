"""Vectorized MicroScopiQ μB core: the quantization hot loop's one path.

A MicroScopiQ walk runs Algorithm 1's *quantize* / *prune* /
*outlier-quantize* stages once per micro-block (μB) step, for all the rows of
the step at once. A step works on arrays of at most a few hundred rows by
one μB, so its cost is the number of numpy calls it makes, not their
arithmetic. Two functions split that work:

* :func:`plan_ubs` computes, once per macro-block (MaB) and in one batch over
  all its μBs, everything a step needs that depends only on the MaB's
  outlier mask: each μB's outlier-bearing rows, their kept-outlier counts
  and positions, their prune counts, the valid-slot masks, and the rows'
  ``2**Isf`` (:class:`UbPlan`).
* :func:`vector_ub_quantize` runs one step from its plan: masked stable
  argsorts replace the per-row demotion and prune loops, the step's outlier
  groups quantize as one ``[rows, width]`` batch
  (:func:`_quantize_outlier_groups`), and gathers and scatters are fancy
  indexing. The packer metadata comes back as a :class:`UbRowMeta` of fixed
  width, which the walk concatenates and scatters once per matrix.

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
* In-place ``np.maximum`` / ``np.minimum`` stand in for ``np.clip``: the
  same float operation on every element. An outlier's sign is applied after
  its ``2**l1`` product rather than before, and the level-1 clamp reads the
  significand back as ``recon / 2**μX``: a sign flip and a power-of-two
  scaling are exact, so the values are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

from ..formats.mx import outlier_format_for_bits
from ..formats.scalar import int_max, pow2_scale_exponent
from .config import MicroScopiQConfig

__all__ = [
    "StepConstants",
    "UbPlan",
    "UbRowMeta",
    "plan_ubs",
    "resolve_kernel_path",
    "vector_ub_quantize",
]


def resolve_kernel_path() -> str:
    """Always ``"vector"``, the only kernel path.

    Kept for ``sweepbench/worker.py``'s run stamp, which still records a
    kernel path; delete it once the stamp stops asking.
    """
    return "vector"


# --------------------------------------------------------------------------
# Per-matrix constants and per-MaB plans
# --------------------------------------------------------------------------


class StepConstants(NamedTuple):
    """What a step reads from its :class:`~repro.quant.config.MicroScopiQConfig`,
    looked up once per matrix."""

    config: MicroScopiQConfig
    imax: int  # inlier code bound
    cap: int  # max_outliers_per_ub
    sort_prune: bool  # "hessian" / "magnitude": prune by one stable argsort
    hessian_prune: bool
    mx_int: bool
    omax: int  # MX-INT outlier code bound
    prescale: bool
    max_value: float  # of the MX-FP outlier element format
    exp_levels: int
    man_levels: int
    mu_cand: np.ndarray  # [exp_levels] every μX exponent, as floats
    mu_pow: np.ndarray  # [1, exp_levels, 1] their 2**μX
    l1_lo: int  # level-1 MXScale field range
    l1_hi: int

    @classmethod
    def of(cls, config: MicroScopiQConfig) -> StepConstants:
        from .microscopiq import _level1_field_range

        fmt = outlier_format_for_bits(config.outlier_bits)
        l1_lo, l1_hi = _level1_field_range(fmt)
        mu_cand = np.arange(fmt.exp_levels, dtype=np.float64)
        return cls(
            config=config,
            imax=int_max(config.inlier_bits),
            cap=config.max_outliers_per_ub,
            sort_prune=config.prune_strategy in ("hessian", "magnitude"),
            hessian_prune=config.prune_strategy == "hessian",
            mx_int=config.outlier_format == "mx-int",
            omax=int_max(config.outlier_bits),
            prescale=bool(config.prescale_outliers),
            max_value=fmt.max_value,
            exp_levels=fmt.exp_levels,
            man_levels=fmt.man_levels,
            mu_cand=mu_cand,
            mu_pow=(2.0**mu_cand)[None, :, None],
            l1_lo=l1_lo,
            l1_hi=l1_hi,
        )


@dataclass
class UbPlan:
    """One μB step's outlier-bearing rows: everything about them that
    depends only on the outlier mask.

    Arrays are indexed by the step's outlier-row axis (``rows[i]`` is the
    row's index in the step's batch); slot arrays are ``cap =
    max_outliers_per_ub`` wide.
    """

    rows: np.ndarray  # [R] batch rows holding an outlier
    ar: np.ndarray  # [R] 0..R-1, for per-row gathers
    om: np.ndarray  # [R, width] their outlier masks
    n_out: np.ndarray  # [R] kept outliers (the count, capped at cap)
    n_prune: np.ndarray  # [R] pruned inlier slots
    capm: int  # the step's widest kept-outlier group
    #: [R, cap] kept-outlier positions, ascending; ``None`` when a row of the
    #: step holds more than ``cap`` outliers, whose demotion ranks the
    #: (compensated) weights and so runs in the step.
    out_idx: Optional[np.ndarray]
    o_cols: Optional[np.ndarray]  # out_idx at the valid slots, row-major
    #: [R, capm] valid outlier slots; ``None`` when every row fills the
    #: group (no padding).
    valid: Optional[np.ndarray]
    prune_valid: np.ndarray  # [R, cap] valid prune slots
    o_rows: np.ndarray  # batch row of each valid outlier slot, row-major
    p_rows: np.ndarray  # batch row of each valid prune slot, row-major
    pre: np.ndarray  # [R, 1] 2**Isf of the row (the outlier pre-scale)
    hd: Optional[np.ndarray]  # [R, width] diag(H⁻¹) of the row's μB (Hessian prune)
    isf: np.ndarray  # [R] Isf, int64
    matrix_rows: np.ndarray  # [R] matrix row, for the packer
    ubs: np.ndarray  # [R] μB index, for the packer


class UbRowMeta(NamedTuple):
    """Packer metadata for the outlier-bearing rows of one μB step.

    Indexed by the step's outlier-row axis. ``out_idx`` / ``prune_idx`` hold
    μB-local positions at the fixed width ``max_outliers_per_ub`` (valid up
    to ``n_out`` / ``n_prune``), so a walk's steps concatenate field by
    field into one scatter.
    """

    rows: np.ndarray  # [R] matrix rows
    ubs: np.ndarray  # [R] μB indices
    out_idx: np.ndarray  # [R, cap] kept-outlier positions (ascending)
    n_out: np.ndarray  # [R] kept outliers per row
    prune_idx: np.ndarray  # [R, cap] pruned-inlier positions
    n_prune: np.ndarray  # [R] pruned slots per row
    level1: np.ndarray  # [R] effective level-1 exponents
    mu_x: np.ndarray  # [R] shared microexponents


def _slots(idx: np.ndarray, cap: int) -> np.ndarray:
    """The first ``cap`` columns of ``idx``, zero-padded on a ragged tail μB
    narrower than ``cap`` (the padding is never a valid slot)."""
    if idx.shape[1] >= cap:
        return idx[:, :cap]
    return np.pad(idx, ((0, 0), (0, cap - idx.shape[1])))


def plan_ubs(
    om3: np.ndarray,
    k: StepConstants,
    scale: np.ndarray,
    isf: np.ndarray,
    hd_ub: Optional[np.ndarray],
    ub0: int,
    fold: int = 1,
) -> List[Optional[UbPlan]]:
    """Plan the μB steps of one MaB from its outlier mask, in one batch.

    ``om3 [n, n_steps, width]`` holds ``n_steps`` steps of ``n`` batch rows.
    Batch row ``r`` of step ``b`` is matrix row ``r // fold`` at μB ``ub0 + b
    + r % fold``: ``fold > 1`` folds each matrix row into one virtual row
    per μB, as the uncompensated walk batches a whole MaB in one step.
    ``scale`` (``2**Isf``) and ``isf`` are per matrix row; ``hd_ub [μBs,
    width]`` holds ``diag(H⁻¹)`` per μB from ``ub0`` on (``None`` unless the
    prune saliency is the Hessian's). Returns one plan per step, ``None``
    where no row holds an outlier.
    """
    n, n_steps, width = om3.shape
    counts = om3.sum(axis=2)
    step, rows = np.nonzero(counts.T)  # step-major, rows ascending
    plans: List[Optional[UbPlan]] = [None] * n_steps
    if not len(rows):
        return plans
    counts = counts[rows, step]
    cap = k.cap
    n_out = np.minimum(counts, cap)
    n_prune = np.minimum(n_out, width - n_out)
    om = om3[rows, step]
    out_idx = _slots(np.argsort(~om, axis=1, kind="stable"), cap)
    slot = np.arange(cap)
    out_valid = slot < n_out[:, None]
    prune_valid = slot < n_prune[:, None]
    o_rows = np.repeat(rows, n_out)
    o_cols = out_idx[out_valid]
    p_rows = np.repeat(rows, n_prune)
    matrix_rows = rows // fold if fold > 1 else rows
    ubs = ub0 + step + (rows % fold if fold > 1 else 0)
    hd = None if hd_ub is None else hd_ub[ubs - ub0]
    pre = scale[matrix_rows][:, None]
    isf_rows = isf[matrix_rows].astype(np.int64)
    ar = np.arange(len(rows))

    bounds = np.searchsorted(step, np.arange(n_steps + 1))
    o_bounds = np.concatenate(([0], np.cumsum(n_out)))[bounds].tolist()
    p_bounds = np.concatenate(([0], np.cumsum(n_prune)))[bounds].tolist()
    bounds = bounds.tolist()
    used = [b for b in range(n_steps) if bounds[b] < bounds[b + 1]]
    starts = [bounds[b] for b in used]
    capms = np.maximum.reduceat(n_out, starts).tolist()
    full = (np.minimum.reduceat(n_out, starts) == capms).tolist()
    demotes = np.logical_or.reduceat(counts > cap, starts).tolist()
    for b, capm, no_pad, demote in zip(used, capms, full, demotes):
        s, e = bounds[b], bounds[b + 1]
        plans[b] = UbPlan(
            rows=rows[s:e],
            ar=ar[: e - s],
            om=om[s:e],
            n_out=n_out[s:e],
            n_prune=n_prune[s:e],
            capm=capm,
            out_idx=None if demote else out_idx[s:e],
            o_cols=None if demote else o_cols[o_bounds[b] : o_bounds[b + 1]],
            valid=None if no_pad else out_valid[s:e, :capm],
            prune_valid=prune_valid[s:e],
            o_rows=o_rows[o_bounds[b] : o_bounds[b + 1]],
            p_rows=p_rows[p_bounds[b] : p_bounds[b + 1]],
            pre=pre[s:e],
            hd=None if hd is None else hd[s:e],
            isf=isf_rows[s:e],
            matrix_rows=matrix_rows[s:e],
            ubs=ubs[s:e],
        )
    return plans


# --------------------------------------------------------------------------
# Row-batched μB step
# --------------------------------------------------------------------------


def _quantize_outlier_groups(
    vals: np.ndarray, plan: UbPlan, k: StepConstants
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched *outlier-quantize*: one padded group per row → (deq, l1, μX).

    ``vals [R, capm]`` holds each row's kept outliers left-aligned and
    zero-padded; every output is bit-identical to calling
    ``_quantize_outlier_group`` row by row (padding zeros are inert: they
    never move a group max and add exactly ``+0.0`` to the error sums).
    """
    n_rows, capm = vals.shape
    if k.mx_int:
        exp = pow2_scale_exponent(vals, k.config.outlier_bits, axis=-1)
        scale = 2.0 ** exp.astype(np.float64)
        codes = np.clip(np.rint(vals / scale), -k.omax, k.omax)
        return codes * scale, exp[:, 0].astype(np.int64), np.zeros(n_rows, np.int64)

    if capm >= 8:
        # np.sum switches to 8-way pairwise accumulation at 8 elements; keep
        # the per-group error sums bit-identical via the per-group routine.
        from .microscopiq import _quantize_outlier_group

        deq = np.zeros_like(vals)
        l1 = np.zeros(n_rows, np.int64)
        mu = np.zeros(n_rows, np.int64)
        for i, (n, isf) in enumerate(zip(plan.n_out.tolist(), plan.isf.tolist())):
            d, e, m_x = _quantize_outlier_group(vals[i, :n], k.config, isf)
            deq[i, :n] = d
            l1[i] = e
            mu[i] = m_x
        return deq, l1, mu

    v = vals * plan.pre if k.prescale else vals
    mag = np.abs(v)
    l1 = _row_max(mag)
    any_zero = np.count_nonzero(l1) < n_rows
    if any_zero:
        zero = l1 == 0.0
        l1[zero] = 1.0
    l1 /= k.max_value
    np.log2(l1, out=l1)
    np.ceil(l1, out=l1)  # float, integer-valued
    p1 = 2.0**l1
    scaled = mag
    scaled /= p1[:, None]
    top_exp = _row_max(scaled)
    if any_zero:
        top_exp[zero] = 1.0
    np.log2(top_exp, out=top_exp)
    np.floor(top_exp, out=top_exp)

    # One shared candidate axis covering every row's μX window [lo, hi] =
    # [max(0, top - E + 1), min(E - 1, top)] (integer-valued floats, so the
    # window bounds of the batch follow exactly from top's extremes).
    # Out-of-window candidates get +inf error, which preserves the per-group
    # search's first-minimum tie-break (every window is contiguous).
    e_top = float(k.exp_levels - 1)
    t = top_exp.tolist()
    t_min, t_max = min(t), max(t)
    glo, ghi = int(max(0.0, t_min - e_top)), int(min(e_top, t_max))
    cand, pw = k.mu_cand[glo : ghi + 1], k.mu_pow[:, glo : ghi + 1]
    man_levels = k.man_levels
    s3 = scaled[:, None, :]  # [R, C, capm] broadcast shape
    codes = s3 / pw
    codes -= 1.0
    codes *= man_levels
    np.rint(codes, out=codes)
    np.maximum(0.0, codes, out=codes)
    np.minimum(codes, man_levels - 1, out=codes)
    recon = codes / man_levels
    recon += 1.0
    recon *= pw
    # A dedicated zero encoding: elements closer to 0 than to the hidden-bit
    # floor reconstruct as 0 (the only zeros of recon).
    recon[s3 < recon - s3] = 0.0

    if glo == ghi:  # one candidate: every row takes it
        recon_r = recon[:, 0, :]
        mu = np.full(n_rows, glo)
    else:
        diff2 = recon - s3
        np.square(diff2, out=diff2)
        err = diff2[:, :, 0].copy()
        for j in range(1, capm):  # sequential: np.sum's accumulation order for n < 8
            err += diff2[:, :, j]
        if max(0.0, t_max - e_top) > glo:
            lo = top_exp - k.exp_levels
            lo += 1
            err[cand < lo[:, None]] = np.inf
        if min(e_top, t_min) < ghi:
            err[cand > top_exp[:, None]] = np.inf
        gi = np.argmin(err, axis=1)
        recon_r = recon[plan.ar, gi]
        mu = gi + glo
    # ±recon · 2**l1: a sign flip commutes exactly with the product.
    negative = v < 0
    dequant = recon_r * p1[:, None]
    np.negative(dequant, out=dequant, where=negative)

    # Level-1 MXScale field clamp (_quantize_outlier_group's epilogue).
    l1i = l1.astype(np.int64)
    l1_list = l1.tolist()
    if min(l1_list) < k.l1_lo or max(l1_list) > k.l1_hi:
        in_range = (l1i >= k.l1_lo) & (l1i <= k.l1_hi)
        l1c = np.clip(l1i, k.l1_lo, k.l1_hi)
        # recon = 1.m · 2**μX, or 0 for the zero code: dividing out the power
        # of two is exact and gives the significand.
        sig = recon_r / (2.0 ** mu.astype(np.float64))[:, None]
        signs = np.where(negative, -1.0, 1.0)
        clamped = signs * sig * 2.0 ** (l1c + mu).astype(np.float64)[:, None]
        dequant = np.where(in_range[:, None], dequant, clamped)
        l1i = np.where(in_range, l1i, l1c)

    if k.prescale:
        dequant /= plan.pre
    if any_zero:
        dequant[zero] = 0.0
        l1i[zero] = 0
        mu[zero] = 0
    if k.prescale:
        l1i -= plan.isf
    return dequant, l1i, mu


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=1)`` as a fresh array; a one-column ``a`` (the common
    one-outlier μB) skips the reduction."""
    return a[:, 0].copy() if a.shape[1] == 1 else a.max(axis=1)


def _demote(wbr: np.ndarray, plan: UbPlan, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank each row's outliers by ``(-|w|, position)`` and keep the top
    ``cap``: the kept-outlier mask and positions. Rows under the cap keep all
    their outliers (rank < count is a no-op)."""
    om = plan.om
    neg = np.where(om, -np.abs(wbr), np.inf)
    order_desc = np.argsort(neg, axis=1, kind="stable")
    rank = np.empty_like(order_desc)
    rank[plan.ar[:, None], order_desc] = np.arange(om.shape[1])
    eff = om & (rank < plan.n_out[:, None])
    return eff, _slots(np.argsort(~eff, axis=1, kind="stable"), cap)


def _adjacent_prune(
    wbr: np.ndarray, out_idx: np.ndarray, plan: UbPlan, k: StepConstants
) -> np.ndarray:
    """OliVe's victim choice has no sort form: pick row by row."""
    from .microscopiq import _select_prune_positions

    sal = np.abs(wbr)
    all_pos = np.arange(wbr.shape[1])
    prune_idx = np.zeros((len(wbr), k.cap), dtype=np.int64)
    for i, (n, n_prune) in enumerate(zip(plan.n_out.tolist(), plan.n_prune.tolist())):
        kept = out_idx[i, :n]
        inlier_pos = np.setdiff1d(all_pos, kept)
        picks = _select_prune_positions(
            k.config.prune_strategy, n, inlier_pos, kept, sal[i]
        )
        prune_idx[i, :n_prune] = picks  # min(n, width - n) of them
    return prune_idx


def vector_ub_quantize(
    wb: np.ndarray,
    plan: Optional[UbPlan],
    scale: np.ndarray,
    k: StepConstants,
) -> tuple[np.ndarray, Optional[UbRowMeta]]:
    """Stages *quantize* + *prune* + *outlier-quantize* for one μB step.

    ``wb [N, width]`` is a batch of independent μB rows (real rows of one μB,
    or virtual rows covering every full μB of an uncompensated macro-block);
    ``scale`` is each row's ``2**Isf``, ``[N, 1]`` or repeated to ``[N,
    width]`` (a full array keeps the products contiguous), and ``plan``
    comes from :func:`plan_ubs` (``None``: no row holds an outlier). Returns
    the quantized batch plus the packer metadata of its outlier-bearing rows
    (``None`` when there are none).
    """
    qb = wb / scale
    np.rint(qb, out=qb)
    np.maximum(qb, -k.imax, out=qb)
    np.minimum(qb, k.imax, out=qb)
    qb *= scale
    if plan is None:
        return qb, None

    wbr = wb[plan.rows]
    capm = plan.capm
    if plan.out_idx is None:
        eff, out_idx = _demote(wbr, plan, k.cap)
        o_cols = out_idx[:, :capm]
        o_cols = o_cols.ravel() if plan.valid is None else o_cols[plan.valid]
    else:
        eff, out_idx, o_cols = plan.om, plan.out_idx, plan.o_cols

    # Saliency + prune selection.
    if k.sort_prune:
        if plan.hd is not None:
            sal = wbr**2
            sal /= plan.hd
        else:
            sal = np.abs(wbr)
        sal[eff] = np.inf
        prune_idx = _slots(np.argsort(sal, axis=1, kind="stable"), k.cap)
    else:
        prune_idx = _adjacent_prune(wbr, out_idx, plan, k)

    # Outlier groups: gather, batch-quantize, scatter back.
    vals = wbr[plan.ar[:, None], out_idx[:, :capm]]
    if plan.valid is not None:
        vals[~plan.valid] = 0.0
    deq, level1, mu_x = _quantize_outlier_groups(vals, plan, k)
    qb[plan.o_rows, o_cols] = deq.ravel() if plan.valid is None else deq[plan.valid]
    # Zero only the valid prune slots: the adjacent branch pads prune_idx
    # with position 0, which may also be one of the row's real picks.
    qb[plan.p_rows, prune_idx[plan.prune_valid]] = 0.0

    return qb, UbRowMeta(
        rows=plan.matrix_rows,
        ubs=plan.ubs,
        out_idx=out_idx,
        n_out=plan.n_out,
        prune_idx=prune_idx,
        n_prune=plan.n_prune,
        level1=level1,
        mu_x=mu_x,
    )
