"""Round-to-nearest (RTN) group quantization — the no-frills baseline."""

from __future__ import annotations

import numpy as np

from ..formats.scalar import int_max
from .base import BaselineResult, rtn_group_quantize

__all__ = ["quantize_rtn"]


def quantize_rtn(
    weights: np.ndarray,
    calib_inputs: np.ndarray | None = None,
    bits: int = 4,
    group_size: int = 128,
    per_tensor: bool = False,
) -> BaselineResult:
    """Symmetric per-group RTN with a float scale. Ignores calibration data.

    ``per_tensor=True`` collapses to one static scale for the whole matrix —
    the QMamba-class baseline of Table 4, where a single large outlier sets
    the step size for every weight.
    """
    if per_tensor:
        w = np.asarray(weights, dtype=np.float64)
        maxq = int_max(bits)
        amax = float(np.max(np.abs(w)))
        scale = amax / maxq if amax > 0.0 else 1.0
        dq = np.clip(np.rint(w / scale), -maxq, maxq) * scale
        return BaselineResult("rtn", dq, float(bits), {"per_tensor": 1})
    dq = rtn_group_quantize(weights, bits, group_size)
    return BaselineResult("rtn", dq, float(bits), {"group_size": group_size})
