"""Microscaling (MX) block formats: MX-INT and MX-FP.

MX [OCP MX spec; Rouhani et al. 2023] represents a *group* of values with
shared scale factors:

* **MX-INT-b_k1** — one power-of-two scale ``2**Isf`` (an E8M0 exponent)
  shared by a group of ``k1`` elements, each stored as a ``b``-bit symmetric
  integer. Used for inliers (k1 = macro-block size, 128 by default).

* **MX-FP-b_{k1,k2}** — two-level scaling: a power-of-two level-1 scale per
  ``k1`` group plus a shared *microexponent* ``μX`` per ``k2`` sub-group.
  After sharing ``μX``, every element degenerates to a sign + mantissa pair
  ``(-1)^s * 1.m * 2^μX`` which integer PEs can process with shifts. Used for
  outliers (k1 = k2 = micro-block size, 8 by default).

The key accuracy lever studied in Fig. 14 of the paper emerges naturally
here: the wider the group sharing ``μX``, the more diverse the element
exponents, and the larger the clamping error of the shared exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import E1M2, E3M4, FPFormat
from .scalar import dequantize_int, pow2_scale_exponent, quantize_int

__all__ = [
    "MxIntResult",
    "MxFpResult",
    "quantize_mx_int",
    "quantize_mx_fp_group",
    "quantize_mx_fp",
    "outlier_format_for_bits",
]


def outlier_format_for_bits(bits: int) -> FPFormat:
    """The paper's outlier element format: e1m2 at 4 bits, e3m4 at 8 bits."""
    if bits == 4:
        return E1M2
    if bits == 8:
        return E3M4
    raise ValueError(f"unsupported outlier bit-width {bits}; expected 4 or 8")


@dataclass
class MxIntResult:
    """Output of an MX-INT group quantization."""

    codes: np.ndarray  # int32, shape of input
    scale_exp: np.ndarray  # Isf per group (int32)
    dequant: np.ndarray  # reconstructed float64 values
    bits: int
    group_size: int


@dataclass
class MxFpResult:
    """Output of a shared-microexponent MX-FP group quantization."""

    signs: np.ndarray  # ±1 per element
    mantissa_codes: np.ndarray  # int in [0, man_levels) per element
    level1_exp: int  # power-of-two level-1 scale exponent
    mu_x: int  # shared microexponent μX
    dequant: np.ndarray  # reconstructed values
    fmt: FPFormat

    @property
    def scale_exp(self) -> int:
        """Combined exponent ``level1_exp + μX`` applied to the significand."""
        return self.level1_exp + self.mu_x


def quantize_mx_int(x: np.ndarray, bits: int, group_size: int) -> MxIntResult:
    """MX-INT-b_k1 quantization along the last axis.

    The trailing axis is partitioned into contiguous groups of
    ``group_size``; each group shares one power-of-two scale. The last group
    may be ragged if the axis length is not a multiple of ``group_size``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    codes = np.empty(x.shape, dtype=np.int32)
    dequant = np.empty_like(x)
    n_groups = (n + group_size - 1) // group_size
    exps = np.empty(x.shape[:-1] + (n_groups,), dtype=np.int32)
    for g in range(n_groups):
        sl = slice(g * group_size, min((g + 1) * group_size, n))
        block = x[..., sl]
        e = pow2_scale_exponent(block, bits, axis=-1)
        scale = 2.0 ** e.astype(np.float64)
        c = quantize_int(block, scale, bits)
        codes[..., sl] = c
        dequant[..., sl] = dequantize_int(c, scale)
        exps[..., g] = np.squeeze(e, axis=-1)
    return MxIntResult(codes, exps, dequant, bits, group_size)


def quantize_mx_fp_group(values: np.ndarray, fmt: FPFormat) -> MxFpResult:
    """Quantize one group of nonzero values to MX-FP with a shared ``μX``.

    Steps (paper §4.2, Fig. 3 Step 2):

    1. level-1 power-of-two scale ``2**l1`` so the largest magnitude fits
       within the element format's dynamic range;
    2. per-element FP quantization is then constrained to a *single* shared
       exponent ``μX``, selected from the format's exponent range to minimize
       the group's squared reconstruction error;
    3. every element becomes ``sign * 1.m * 2**(μX + l1)``. Elements smaller
       than ``2**μX`` clamp to the hidden-bit floor — the source of the
       group-size error studied in Fig. 14.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot quantize an empty outlier group")
    mag = np.abs(values)
    vmax = float(mag.max())
    if vmax == 0.0:
        zero = np.zeros_like(values)
        return MxFpResult(np.ones_like(values), zero.astype(np.int32), 0, 0, zero, fmt)

    # Level-1 scale: smallest power of two with max(|v|)/2**l1 <= fmt.max_value.
    l1 = int(np.ceil(np.log2(vmax / fmt.max_value)))
    scaled = mag / 2.0**l1

    man_levels = fmt.man_levels
    top_exp = int(np.floor(np.log2(scaled.max())))
    lo = max(0, top_exp - fmt.exp_levels + 1)
    hi = min(fmt.exp_levels - 1, top_exp)
    # All candidate μX values at once ([C, 1] against [elements]) instead of
    # one numpy pass per candidate — this runs once per outlier group, which
    # is the hottest call site of a MicroScopiQ sweep.
    cand = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    pw = 2.0**cand
    codes = np.clip(np.rint((scaled[None, :] / pw - 1.0) * man_levels), 0, man_levels - 1)
    recon = (1.0 + codes / man_levels) * pw
    # A dedicated zero encoding: elements closer to 0 than to the
    # hidden-bit floor reconstruct as 0 (code -1).
    use_zero = scaled[None, :] < recon - scaled[None, :]
    recon = np.where(use_zero, 0.0, recon)
    codes = np.where(use_zero, -1, codes)
    err = np.sum((recon - scaled[None, :]) ** 2, axis=1)
    i = int(np.argmin(err))  # first minimum — same tie-break as the old loop
    mu_x = lo + i
    codes = codes[i].astype(np.int32)
    recon = recon[i]

    signs = np.where(values < 0, -1.0, 1.0)
    dequant = signs * recon * 2.0**l1
    return MxFpResult(signs, codes, l1, int(mu_x), dequant, fmt)


def quantize_mx_fp(x: np.ndarray, bits: int, group_size: int) -> np.ndarray:
    """Dense MX-FP round-trip along the last axis (groups share one μX).

    Used by the Table 7 ablation to evaluate MX-FP at various group sizes.
    Zero groups pass through unchanged.
    """
    fmt = outlier_format_for_bits(bits)
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty_like(flat)
    n = flat.shape[-1]
    for r in range(flat.shape[0]):
        for g in range(0, n, group_size):
            block = flat[r, g : g + group_size]
            if np.all(block == 0.0):
                out[r, g : g + group_size] = 0.0
            else:
                out[r, g : g + group_size] = quantize_mx_fp_group(block, fmt).dequant
    return out.reshape(x.shape)
