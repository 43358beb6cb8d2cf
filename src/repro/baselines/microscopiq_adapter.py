"""Adapters exposing MicroScopiQ (and Omni-MicroScopiQ) as baselines.

These wrap :func:`repro.quant.quantize_matrix` in the same
``BaselineResult`` interface as the comparison methods, handling the
weight-activation mode (α = 0.7 migration, §7.2) and the OmniQuant-enhanced
variant of Table 8 (LWC on inlier scales + LET grid search).
"""

from __future__ import annotations

import numpy as np

from ..quant.activation import ActivationQuantizer, apply_migration
from ..quant.config import MicroScopiQConfig
from ..quant.microscopiq import quantize_candidates
from .base import BaselineResult

__all__ = ["quantize_microscopiq_baseline", "quantize_omni_microscopiq"]


def _quantize_best(
    w: np.ndarray,
    calib_inputs: np.ndarray | None,
    configs: tuple[MicroScopiQConfig, ...],
    hessian: np.ndarray | None = None,
):
    """Quantize with each candidate config, keep the calibration-error
    minimizer (the grid-search equivalent of OmniQuant's learned choice).

    The candidates differ only in ``lwc``, so they share one walk over their
    stacked rows (:func:`~repro.quant.microscopiq.quantize_candidates`) and
    one error denominator ``‖X Wᵀ‖``. The first candidate wins a tie.
    Without calibration there is nothing to score, and only the first
    candidate is quantized.
    """
    if calib_inputs is None:
        configs = configs[:1]
    parts = quantize_candidates(w, calib_inputs, configs, hessian)
    if len(parts) == 1:
        return parts[0]
    den = max(float(np.linalg.norm(calib_inputs @ w.T)), 1e-12)
    best = None
    for packed in parts:
        err = float(np.linalg.norm(calib_inputs @ (w - packed.dequant).T) / den)
        if best is None or err < best[0]:
            best = (err, packed)
    # A part is a row view of the stacked walk: copy the winner so the
    # layer it goes into does not pin the other candidate's rows.
    return best[1].copy()


def _run(
    name: str,
    weights: np.ndarray,
    calib_inputs: np.ndarray | None,
    configs: tuple[MicroScopiQConfig, ...],
    act_bits: int | None,
    alpha_grid: tuple[float, ...],
    hessian: np.ndarray | None = None,
) -> BaselineResult:
    w = np.asarray(weights, dtype=np.float64)

    if act_bits is None or calib_inputs is None:
        # Weight-only: a store-provided Hessian short-circuits the X^T X
        # build. The migration path below rescales the inputs per α, so a
        # precomputed Hessian would no longer match and is not used there.
        packed = _quantize_best(w, calib_inputs, configs, hessian=hessian)
        return BaselineResult(name, packed.dequant, packed.ebw(), {"packed": packed})

    x = np.asarray(calib_inputs, dtype=np.float64)
    ref = x @ w.T
    ref_norm = max(float(np.linalg.norm(ref)), 1e-12)
    best = None
    for alpha in alpha_grid:
        ws, xs, scales = apply_migration(w, x, alpha)
        packed = _quantize_best(ws, xs, configs)
        act_q = ActivationQuantizer(scales, act_bits, configs[0].macro_block)
        dq = packed.dequant / scales[None, :]
        err = float(np.linalg.norm(act_q(x) @ dq.T - ref)) / ref_norm
        if best is None or err < best[0]:
            best = (err, alpha, dq, act_q, packed)
    err, alpha, dq, act_q, packed = best
    return BaselineResult(
        name,
        dq,
        packed.ebw(),
        {"alpha": alpha, "act_quantizer": act_q, "packed": packed},
    )


def quantize_microscopiq_baseline(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    act_bits: int | None = None,
    config: MicroScopiQConfig | None = None,
    hessian: np.ndarray | None = None,
) -> BaselineResult:
    """MicroScopiQ in baseline clothing. α fixed at 0.7 per the paper."""
    config = config or MicroScopiQConfig(inlier_bits=bits)
    return _run(
        "microscopiq", weights, calib_inputs, (config,), act_bits, (0.7,),
        hessian=hessian,
    )


def quantize_omni_microscopiq(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    act_bits: int | None = None,
    config: MicroScopiQConfig | None = None,
    hessian: np.ndarray | None = None,
) -> BaselineResult:
    """Omni-MicroScopiQ (Table 8): LWC inlier scales + LET α search.

    Per layer, the importance-weighted (LWC) and plain scale fits compete
    on calibration output error — the learned variant can therefore only
    match or improve on plain MicroScopiQ, as in the paper. Both candidates
    come out of one MicroScopiQ walk over their stacked rows, with one
    Hessian per calibration (per α with ``act_bits``). ``config`` overrides
    the base MicroScopiQ knobs (group sizes, outlier format, …); its LWC
    variant is derived from it."""
    base = config or MicroScopiQConfig(inlier_bits=bits)
    return _run(
        "omni-microscopiq",
        weights,
        calib_inputs,
        (base.with_(lwc=True), base),
        act_bits,
        (0.5, 0.6, 0.7, 0.8),
        hessian=hessian,
    )
