"""The eleven built-in quantization methods as declarative `MethodSpec`s.

Each spec wraps the corresponding ``repro.baselines`` kernel in a
:class:`BaselineAdapter` implementing the class-based lifecycle
(``prepare`` → ``quantize_layer``) and declares the capabilities the engine,
pipeline, and CLI previously hard-coded: who needs a Hessian, who accepts
``act_bits``, which keyword the group-size axis binds to, and the full
validated parameter schema. Outputs are bit-identical to the positional
``quantize_<name>`` functions — the adapters route the same arguments to the
same kernels, with the single upgrade that Hessian-aware methods receive a
lazy :class:`~repro.methods.resources.HessianBundle` (shared factors)
instead of rebuilding ``H``/``H⁻¹``/``U`` per call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Optional

from .resources import HessianBundle
from .spec import LayerContext, LayerResources, MethodParamError, MethodSpec, Param

__all__ = ["BaselineAdapter", "builtin_method_specs"]


@dataclass
class BaselineAdapter:
    """Adapter: classic ``quantize_<name>(weights, calib, **kw)`` kernel →
    the ``prepare``/``quantize_layer`` lifecycle.

    Stateless (safe to share across threads). Capability flags live ONLY on
    the owning :class:`MethodSpec` (``ctx.spec``): ``prepare`` asks the spec
    whether this setting wants a Hessian and what damping it would use, then
    resolves the bundle from the context's store so factor work coalesces
    across layers and settings.
    """

    fn: Callable
    hessian_kw: bool = False  # the kernel accepts a ``hessian=`` keyword

    def prepare(self, ctx: LayerContext) -> LayerResources:
        bundle: Optional[HessianBundle] = None
        spec = ctx.spec
        if (
            spec is not None
            and ctx.calib_inputs is not None
            and spec.wants_hessian(ctx.act_bits)
        ):
            damp = spec.damp_ratio(ctx.params)
            if ctx.hessian_store is not None:
                bundle = ctx.hessian_store.bundle(
                    ctx.calib_inputs, damp, ctx.calib_digest
                )
            else:
                bundle = HessianBundle(ctx.calib_inputs, damp)
        return LayerResources(calib_inputs=ctx.calib_inputs, hessian=bundle)

    def quantize_layer(self, weights, resources: Optional[LayerResources], **params):
        calib = resources.calib_inputs if resources is not None else None
        kwargs = dict(params)
        if self.hessian_kw and resources is not None and resources.hessian is not None:
            kwargs["hessian"] = resources.hessian
        return self.fn(weights, calib, **kwargs)


_CONFIG_FIELD_NAMES: Optional[frozenset] = None


def _config_fields() -> frozenset:
    global _CONFIG_FIELD_NAMES
    if _CONFIG_FIELD_NAMES is None:
        from ..quant.config import MicroScopiQConfig

        _CONFIG_FIELD_NAMES = frozenset(f.name for f in dataclass_fields(MicroScopiQConfig))
    return _CONFIG_FIELD_NAMES


@dataclass
class MicroScopiQAdapter(BaselineAdapter):
    """MicroScopiQ-family adapter: flat :class:`MicroScopiQConfig` field
    parameters (the pipeline's JSON-able form) fold into a ``config=``
    object, defaulting ``inlier_bits`` to the setting's weight bits —
    exactly the old harness ``_split_quant_kwargs`` behavior, now owned by
    the method itself."""

    def quantize_layer(self, weights, resources: Optional[LayerResources], **params):
        from ..quant.config import MicroScopiQConfig

        config_fields = _config_fields()
        cfg_kw = {k: v for k, v in params.items() if k in config_fields}
        rest = {k: v for k, v in params.items() if k not in config_fields}
        config = rest.pop("config", None)
        if cfg_kw:
            if config is not None:
                raise MethodParamError(
                    "pass either a config= object or flat MicroScopiQConfig "
                    f"fields, not both (got config= and {sorted(cfg_kw)})"
                )
            cfg_kw.setdefault("inlier_bits", rest.get("bits", 4))
            config = MicroScopiQConfig(**cfg_kw)
        return super().quantize_layer(weights, resources, config=config, **rest)


# ----------------------------------------------------------- schema helpers

def _group(default: int = 128) -> Param:
    return Param("group_size", default, (int,), "quantization group size (columns)")


def _sigma() -> Param:
    return Param("sigma_threshold", 3.0, (float, int), "the 3σ outlier rule multiplier")


def _microscopiq_params() -> tuple:
    """The MicroScopiQ schema: every :class:`MicroScopiQConfig` field as a
    flat parameter (the pipeline's form) plus the ``config=`` object for
    direct library calls."""
    from ..quant.config import MicroScopiQConfig

    return (
        Param("inlier_bits", None, (int,), "inlier bit budget bb (defaults to the setting's w_bits)", choices=(2, 4)),
        Param("outlier_bits", None, (int,), "outlier precision (default 2*bb)", choices=(4, 8)),
        Param("macro_block", 128, (int,), "MaB size B_M (inlier scale group)"),
        Param("micro_block", 8, (int,), "μB size B_μ (outlier scale group)"),
        Param("row_block", 128, (int,), "GPTQ row block rB"),
        _sigma(),
        Param("outlier_format", "mx-fp", (str,), "outlier number format", choices=("mx-fp", "mx-int", "none")),
        Param("prescale_outliers", True, (bool,), "pre-scale outliers by 2^Isf (§4.2)"),
        Param("prune_strategy", "hessian", (str,), "which inliers donate their slots", choices=("hessian", "magnitude", "adjacent")),
        Param("compensate", True, (bool,), "GPTQ/OBS error compensation"),
        Param("damp_ratio", 0.01, (float, int), "Hessian damping λ fraction"),
        Param("lwc", False, (bool,), "OmniQuant-style learnable weight clipping"),
        Param("config", None, (MicroScopiQConfig,), "a prebuilt MicroScopiQConfig (library calls only)"),
    )


def builtin_method_specs() -> tuple:
    """Construct the specs for all eleven built-in methods."""
    from ..baselines.atom import quantize_atom
    from ..baselines.awq import quantize_awq
    from ..baselines.gobo import quantize_gobo
    from ..baselines.gptq import quantize_gptq
    from ..baselines.microscopiq_adapter import (
        quantize_microscopiq_baseline,
        quantize_omni_microscopiq,
    )
    from ..baselines.olive import quantize_olive
    from ..baselines.omniquant import quantize_omniquant
    from ..baselines.rtn import quantize_rtn
    from ..baselines.sdq import quantize_sdq
    from ..baselines.smoothquant import quantize_smoothquant

    def adapter(fn, **kw) -> Callable:
        return lambda: BaselineAdapter(fn, **kw)

    ms_common = dict(
        params=_microscopiq_params(),
        needs_hessian=True,
        hessian_with_act=False,  # α migration rescales the calibration inputs
        act_aware=True,
        exports_packed=True,  # meta["packed"] PackedLayers feed codesign jobs
        group_param="macro_block",
    )
    return (
        MethodSpec(
            name="rtn",
            summary="round-to-nearest group quantization (no calibration)",
            make=adapter(quantize_rtn),
            params=(
                _group(),
                Param("per_tensor", False, (bool,), "one static scale for the whole tensor (QMamba-class)"),
            ),
            supports_per_tensor=True,
            # Per-(row, group) scales; the engine additionally refuses to
            # batch per_tensor=True calls (whole-tensor amax couples rows).
            row_batchable=True,
        ),
        MethodSpec(
            name="gptq",
            summary="RTN + sequential OBS error compensation [Frantar 2022]",
            make=adapter(quantize_gptq, hessian_kw=True),
            params=(
                _group(),
                Param("damp_ratio", 0.01, (float, int), "Hessian damping λ fraction"),
            ),
            needs_hessian=True,
            row_batchable=True,  # per-row scales, per-row OBS updates
        ),
        MethodSpec(
            name="awq",
            summary="activation-aware channel scaling + RTN [Lin 2024]",
            make=adapter(quantize_awq),
            params=(_group(),),
        ),
        MethodSpec(
            name="smoothquant",
            summary="α=0.5 difficulty migration + RTN [Xiao 2023]",
            make=adapter(quantize_smoothquant),
            params=(
                _group(),
                Param("alpha", 0.5, (float, int), "migration strength α"),
            ),
            act_aware=True,
        ),
        MethodSpec(
            name="omniquant",
            summary="grid-searched learnable clipping + equivalent transform [Shao 2023]",
            make=adapter(quantize_omniquant),
            params=(_group(),),
            act_aware=True,
            # Weight-only LWC picks clip ratios per (row, group); the α-grid
            # LET mode is excluded by the engine's weight-only batching gate.
            row_batchable=True,
        ),
        MethodSpec(
            name="atom",
            summary="mixed-precision channel reordering + GPTQ [Zhao 2024]",
            make=adapter(quantize_atom, hessian_kw=True),
            params=(
                _group(),
                Param("n_outlier_channels", 16, (int,), "channels kept at 8 bits"),
                Param("damp_ratio", 0.01, (float, int), "Hessian damping λ fraction"),
            ),
            needs_hessian=True,
            act_aware=True,
            # Channel order/bit map come from the (shared) calibration only;
            # the underlying gptq_core is per-row.
            row_batchable=True,
        ),
        MethodSpec(
            name="sdq",
            summary="rigid N:M sparse-decomposed quantization [Jeong 2024]",
            make=adapter(quantize_sdq),
            params=(
                _group(),
                Param("sparse_n", 2, (int,), "reserved slots per sparse block"),
                Param("sparse_m", 8, (int,), "sparse block size"),
            ),
            row_batchable=True,  # N:M masks, scales, and LWC are all per-row
        ),
        MethodSpec(
            name="olive",
            summary="outlier-victim pair quantization [Guo 2023]",
            make=adapter(quantize_olive),
            params=(_group(), _sigma()),
        ),
        MethodSpec(
            name="gobo",
            summary="centroid inliers + exact sparse outliers [Zadeh 2020]",
            make=adapter(quantize_gobo),
            params=(
                _sigma(),
                Param("sample_limit", 65536, (int,), "k-means sample cap"),
                Param("kmeans_iters", 0, (int,), "Lloyd refinement iterations"),
            ),
            group_param=None,  # bucketing is global; no group knob
        ),
        MethodSpec(
            name="microscopiq",
            summary="outlier-aware microscaling + redistribution pruning (the paper)",
            make=lambda: MicroScopiQAdapter(
                quantize_microscopiq_baseline, hessian_kw=True
            ),
            # Per-row inlier scales / μB walks / OBS rows. Deliberately NOT in
            # ms_common: omni-microscopiq's config competition scores whole
            # matrices and must stay unbatched.
            row_batchable=True,
            **ms_common,
        ),
        MethodSpec(
            name="omni-microscopiq",
            summary="MicroScopiQ + OmniQuant LWC/LET enhancement (Table 8)",
            make=lambda: MicroScopiQAdapter(
                quantize_omni_microscopiq, hessian_kw=True
            ),
            **ms_common,
        ),
    )
