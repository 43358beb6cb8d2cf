"""Layer → systolic-array mapping descriptors.

A :class:`LayerSpec` is the bridge between the quantizer and the performance
model: weight-matrix geometry, bit budget, effective bit-width (memory
traffic), and the outlier micro-block density that determines ReCoN demand.

Mapping convention (paper Fig. 8): for ``y = W x`` with ``W [d_out, d_in]``,
PE *rows* take the reduction dimension (iActs broadcast along a row, partial
sums accumulate down the columns) and PE *columns* take output channels; in
2-bit mode each PE packs two adjacent output channels, doubling tile width.

**Outlier-aware packing.** Reduction order is commutative, so the offline
scheduler is free to permute which μBs land on which PE rows; it packs
outlier-containing μBs into as few rows as possible so that only those rows
detour through ReCoN (this is the mapping under which the paper's <3%
ReCoN conflict rates and small latency overheads are achievable). A tile
holding ``u`` outlier μBs therefore has ``ceil(u * B_μ / tile_cols)`` rows
needing ReCoN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quant.packed import PackedLayer

__all__ = ["LayerSpec"]


@dataclass
class LayerSpec:
    """Geometry + outlier structure of one quantized linear layer."""

    name: str
    d_out: int
    d_in: int
    bit_budget: int
    ebw: float
    outlier_ub_fraction: float  # fraction of μBs containing outliers
    micro_block: int = 8
    count: int = 1  # identical instances of this layer in the model

    def __post_init__(self) -> None:
        for field in ("d_out", "d_in", "micro_block", "count", "bit_budget"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"{field} must be >= 1, got {value}")
        if not (self.ebw > 0 and np.isfinite(self.ebw)):
            raise ValueError(f"ebw must be finite and > 0, got {self.ebw}")
        if not 0.0 <= self.outlier_ub_fraction <= 1.0:
            raise ValueError(
                f"outlier_ub_fraction must be in [0, 1], got {self.outlier_ub_fraction}"
            )

    @property
    def weight_bits(self) -> float:
        """Stored weight bits of one instance, metadata included."""
        return self.ebw * self.d_out * self.d_in

    @property
    def macs_per_input(self) -> int:
        """MACs per streamed input vector, one instance."""
        return self.d_out * self.d_in

    def outlier_rows_in_tile(self, tile_rows: int, tile_cols: int) -> int:
        """PE rows needing ReCoN in a tile, under outlier-aware packing."""
        ubs = tile_rows * tile_cols / self.micro_block
        outlier_ubs = self.outlier_ub_fraction * ubs
        return min(tile_rows, int(np.ceil(outlier_ubs * self.micro_block / tile_cols)))

    @classmethod
    def from_packed(cls, name: str, packed: PackedLayer, count: int = 1) -> LayerSpec:
        """Build from a quantized :class:`PackedLayer`."""
        return cls(
            name=name,
            d_out=packed.d_out,
            d_in=packed.d_in,
            bit_budget=packed.config.bit_budget,
            ebw=packed.ebw(),
            outlier_ub_fraction=packed.outlier_ub_fraction(),
            micro_block=packed.config.micro_block,
            count=count,
        )

    @classmethod
    def synthetic(
        cls,
        name: str,
        d_out: int,
        d_in: int,
        bit_budget: int = 2,
        outlier_fraction: float = 0.01,
        micro_block: int = 8,
        count: int = 1,
        ebw: float | None = None,
    ) -> LayerSpec:
        """Spec from geometry + an iid per-weight outlier rate."""
        ub_frac = 1.0 - (1.0 - outlier_fraction) ** micro_block
        if ebw is None:
            from ..formats.ebw import ebw_inlier, ebw_outlier

            ebw = ub_frac * ebw_outlier(bit_budget, micro_block) + (
                1 - ub_frac
            ) * ebw_inlier(bit_budget)
        return cls(name, d_out, d_in, bit_budget, float(ebw), ub_frac, micro_block, count)
