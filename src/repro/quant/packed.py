"""Packed representation of a MicroScopiQ-quantized layer.

A :class:`PackedLayer` records everything the paper's off-chip layout
(Fig. 5) stores — the aligned ``bb``-bit code grid plus hardware-managed
metadata (per-MaB inlier scale exponents, per-μB MXScale and permutation
lists) — alongside the value-level reconstruction used for accuracy
evaluation and the structural maps the accelerator simulator schedules from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from ..formats.ebw import ebw_inlier, ebw_outlier
from .config import MicroScopiQConfig

__all__ = ["PackedLayer", "PermEntry"]

# (upper_half_location, lower_half_location) within a micro-block — one entry
# of the paper's 6-bit {Upper_loc, Lower_loc} permutation-list element.
PermEntry = Tuple[int, int]


@dataclass
class PackedLayer:
    """A quantized ``[d_out, d_in]`` weight matrix with outlier metadata.

    Attributes:
        dequant: value-level reconstruction; pruned slots are exactly 0.
        config: the quantization configuration that produced this layer.
        inlier_scale_exp: ``Isf`` per (row, macro-block), int32.
        outlier_mask: True where the element was kept as a high-precision
            outlier (its Upper half occupies the original slot).
        pruned_mask: True where an inlier was pruned to host an outlier's
            Lower half.
        ub_outlier_count: outliers per (row, micro-block), uint8.
        ub_scale: per-(row, μB) packed MXScale ``(level1_exp, μX)``; rows of
            ``-128`` where the μB has no outliers.
        perm_lists: ``{(row, ub_index): [(upper_loc, lower_loc), ...]}`` —
            locations are element offsets inside the micro-block.
    """

    dequant: np.ndarray
    config: MicroScopiQConfig
    inlier_scale_exp: np.ndarray
    outlier_mask: np.ndarray
    pruned_mask: np.ndarray
    ub_outlier_count: np.ndarray
    ub_scale: np.ndarray
    perm_lists: Dict[Tuple[int, int], List[PermEntry]] = field(default_factory=dict)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.dequant.shape

    @property
    def d_out(self) -> int:
        return self.dequant.shape[0]

    @property
    def d_in(self) -> int:
        return self.dequant.shape[1]

    @property
    def n_outliers(self) -> int:
        return int(self.outlier_mask.sum())

    @property
    def n_pruned(self) -> int:
        return int(self.pruned_mask.sum())

    def outlier_ub_fraction(self) -> float:
        """Fraction of micro-blocks containing at least one outlier."""
        return float(np.mean(self.ub_outlier_count > 0))

    def ebw(self) -> float:
        """Effective bit-width of this layer per Eq. 4."""
        bb = self.config.bit_budget
        bu = self.config.micro_block
        frac = self.outlier_ub_fraction()
        return frac * ebw_outlier(bb, bu) + (1.0 - frac) * ebw_inlier(bb)

    def storage_bits(self) -> int:
        """Total stored bits: code grid + per-μB metadata (for memory sims)."""
        return int(round(self.ebw() * self.dequant.size))

    def rows_with_outliers_per_ub(self) -> np.ndarray:
        """Bool ``[d_out, n_ubs]`` map: which (row, μB) pairs need ReCoN."""
        return self.ub_outlier_count > 0

    def split_rows(self, sizes: List[int]) -> List[PackedLayer]:
        """Split into consecutive row bands of the given sizes.

        The engine's shape-batched dispatch stacks several layers' weight
        rows, quantizes once, and splits the packed result back per layer.
        Every per-row field is row-sliced (views — the quantization math is
        exactly row-independent for batchable methods, so each band equals
        the layer quantized alone); ``perm_lists`` keys are re-based to the
        band's local row indices.
        """
        if sum(sizes) != self.d_out:
            raise ValueError(
                f"split_rows sizes {sizes} must sum to d_out={self.d_out}"
            )
        parts: List[PackedLayer] = []
        lo = 0
        for n in sizes:
            hi = lo + n
            parts.append(
                PackedLayer(
                    dequant=self.dequant[lo:hi],
                    config=self.config,
                    inlier_scale_exp=self.inlier_scale_exp[lo:hi],
                    outlier_mask=self.outlier_mask[lo:hi],
                    pruned_mask=self.pruned_mask[lo:hi],
                    ub_outlier_count=self.ub_outlier_count[lo:hi],
                    ub_scale=self.ub_scale[lo:hi],
                    perm_lists={
                        (r - lo, u): entries
                        for (r, u), entries in self.perm_lists.items()
                        if lo <= r < hi
                    },
                )
            )
            lo = hi
        return parts

    def copy(self) -> PackedLayer:
        """A copy whose arrays own their memory. A :meth:`split_rows` band
        is a view that keeps the whole stacked layer alive; its copy does
        not."""
        return replace(
            self,
            dequant=self.dequant.copy(),
            inlier_scale_exp=self.inlier_scale_exp.copy(),
            outlier_mask=self.outlier_mask.copy(),
            pruned_mask=self.pruned_mask.copy(),
            ub_outlier_count=self.ub_outlier_count.copy(),
            ub_scale=self.ub_scale.copy(),
            perm_lists=dict(self.perm_lists),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the quantized layer: ``x @ W_q^T`` for ``x [..., d_in]``."""
        return x @ self.dequant.T

    def reconstruction_error(self, reference: np.ndarray, calib: np.ndarray | None = None) -> float:
        """Relative error vs. ``reference`` weights.

        Without calibration data this is the Frobenius-norm weight error;
        with ``calib [n, d_in]`` it is the paper's layer-output proxy error
        ``||(W - Q) X^T|| / ||W X^T||``.
        """
        diff = reference - self.dequant
        if calib is None:
            return float(np.linalg.norm(diff) / max(np.linalg.norm(reference), 1e-12))
        num = np.linalg.norm(calib @ diff.T)
        den = max(float(np.linalg.norm(calib @ reference.T)), 1e-12)
        return float(num / den)
