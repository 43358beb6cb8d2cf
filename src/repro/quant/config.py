"""Configuration for the MicroScopiQ quantizer.

Every design choice the paper ablates (Table 7, Fig. 14) is a field here so
the ablation benches can toggle them independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MicroScopiQConfig"]

_VALID_PRUNE = ("hessian", "magnitude", "adjacent")
_VALID_OUTLIER_FORMATS = ("mx-fp", "mx-int", "none")


@dataclass(frozen=True)
class MicroScopiQConfig:
    """Knobs of the MicroScopiQ PTQ framework (paper §4).

    Attributes:
        inlier_bits: per-element bit budget ``bb`` for inliers (2 or 4).
        outlier_bits: outlier precision; the paper fixes it to ``2 * bb``.
        macro_block: MaB size ``B_M`` — inlier scale-sharing group (128).
        micro_block: μB size ``B_μ`` — outlier scale-sharing group (8).
        row_block: GPTQ row-block ``rB`` for localized error compensation.
        sigma_threshold: the 3σ rule's multiplier for outlier detection.
        outlier_format: "mx-fp" (paper), "mx-int" (ablation), or "none"
            (outliers clipped into the inlier grid — the MX-INT-only row of
            Table 7).
        prescale_outliers: multiply outliers by ``2**Isf`` before outlier
            quantization (paper §4.2 pre-processing).
        prune_strategy: which inliers receive the redistributed outlier LSBs:
            "hessian" (paper, Algo. 1), "magnitude", or "adjacent"
            (OliVe-style, for the motivation study §3.2).
        compensate: apply GPTQ error compensation (Algo. 1 L31–36).
        damp_ratio: Hessian damping λ as a fraction of the mean diagonal.
        lwc: OmniQuant-style learnable weight clipping (Table 8) — per
            (row, MaB), pick the power-of-two inlier scale exponent among
            ``{Isf, Isf-1, Isf-2}`` that minimizes the group's squared error
            (tighter exponents clip the largest inliers).
    """

    inlier_bits: int = 2
    outlier_bits: int | None = None
    macro_block: int = 128
    micro_block: int = 8
    row_block: int = 128
    sigma_threshold: float = 3.0
    outlier_format: str = "mx-fp"
    prescale_outliers: bool = True
    prune_strategy: str = "hessian"
    compensate: bool = True
    damp_ratio: float = 0.01
    lwc: bool = False

    def __post_init__(self) -> None:
        if self.inlier_bits not in (2, 4):
            raise ValueError(f"inlier_bits must be 2 or 4, got {self.inlier_bits}")
        if self.outlier_format not in _VALID_OUTLIER_FORMATS:
            raise ValueError(
                f"outlier_format must be one of {_VALID_OUTLIER_FORMATS}, "
                f"got {self.outlier_format!r}"
            )
        if self.prune_strategy not in _VALID_PRUNE:
            raise ValueError(
                f"prune_strategy must be one of {_VALID_PRUNE}, got {self.prune_strategy!r}"
            )
        if self.outlier_bits is None:
            object.__setattr__(self, "outlier_bits", 2 * self.inlier_bits)
        if self.outlier_bits not in (4, 8):
            raise ValueError(f"outlier_bits must be 4 or 8, got {self.outlier_bits}")
        if self.micro_block < 2 or self.micro_block & (self.micro_block - 1):
            raise ValueError(f"micro_block must be a power of two >= 2, got {self.micro_block}")
        if self.macro_block % self.micro_block:
            raise ValueError(
                f"macro_block ({self.macro_block}) must be a multiple of "
                f"micro_block ({self.micro_block})"
            )

    @property
    def bit_budget(self) -> int:
        """The per-element bit budget ``bb`` (= inlier bits)."""
        return self.inlier_bits

    @property
    def max_outliers_per_ub(self) -> int:
        """Outlier cap per micro-block: ``B_μ / 2`` (Algo. 1 Step 2.0)."""
        return self.micro_block // 2

    def with_(self, **kwargs) -> MicroScopiQConfig:
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
