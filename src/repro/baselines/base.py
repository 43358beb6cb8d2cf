"""Common result container and helpers shared by all baseline quantizers.

Every baseline exposes ``quantize_<name>(weights, calib_inputs=None, bits=…)``
returning a :class:`BaselineResult`. The value-level ``dequant`` matrix is
what accuracy evaluation consumes; ``ebw`` carries the storage accounting
used by Table 1 and the memory-traffic models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from ..formats.scalar import int_max

__all__ = ["BaselineResult", "group_float_scale", "rtn_group_quantize"]


@dataclass
class BaselineResult:
    """Output of a baseline weight quantizer."""

    name: str
    dequant: np.ndarray
    ebw: float
    meta: Dict[str, Any] = field(default_factory=dict)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.dequant.T

    def reconstruction_error(
        self, reference: np.ndarray, calib: np.ndarray | None = None
    ) -> float:
        diff = reference - self.dequant
        if calib is None:
            return float(np.linalg.norm(diff) / max(np.linalg.norm(reference), 1e-12))
        num = np.linalg.norm(calib @ diff.T)
        den = max(float(np.linalg.norm(calib @ reference.T)), 1e-12)
        return float(num / den)

    def split_rows(self, sizes: list[int]) -> list[BaselineResult]:
        """Split a row-stacked result into per-layer results.

        Used by the engine's shape-batched dispatch (methods whose spec
        declares ``row_batchable``): the dequant rows are sliced per band,
        a ``meta["packed"]`` :class:`~repro.quant.packed.PackedLayer` is
        split via :meth:`PackedLayer.split_rows` (with each band's own EBW
        recomputed from its packed metadata), and all other meta entries —
        row-invariant by the ``row_batchable`` contract — are shared.
        """
        if sum(sizes) != self.dequant.shape[0]:
            raise ValueError(
                f"split_rows sizes {sizes} must sum to "
                f"d_out={self.dequant.shape[0]}"
            )
        packed = self.meta.get("packed")
        packed_parts = packed.split_rows(sizes) if packed is not None else None
        parts: list[BaselineResult] = []
        lo = 0
        for i, n in enumerate(sizes):
            hi = lo + n
            meta = dict(self.meta)
            ebw = self.ebw
            if packed_parts is not None:
                meta["packed"] = packed_parts[i]
                ebw = packed_parts[i].ebw()
            parts.append(BaselineResult(self.name, self.dequant[lo:hi], ebw, meta))
            lo = hi
        return parts


def group_float_scale(
    block: np.ndarray, bits: int, clip_ratio: float = 1.0
) -> np.ndarray:
    """Per-row float symmetric scale for one group (standard RTN scaling)."""
    maxq = int_max(bits)
    amax = np.max(np.abs(block), axis=-1, keepdims=True) * clip_ratio
    scale = amax / maxq
    return np.where(scale == 0.0, 1.0, scale)


def rtn_group_quantize(
    weights: np.ndarray, bits: int, group_size: int = 128, clip_ratio: float = 1.0
) -> np.ndarray:
    """Round-to-nearest group quantization along the last axis (float scale)."""
    w = np.asarray(weights, dtype=np.float64)
    maxq = int_max(bits)
    out = np.empty_like(w)
    n = w.shape[-1]
    for g in range(0, n, group_size):
        sl = slice(g, min(g + group_size, n))
        block = w[..., sl]
        scale = group_float_scale(block, bits, clip_ratio)
        out[..., sl] = np.clip(np.rint(block / scale), -maxq, maxq) * scale
    return out
