"""Baseline quantizers the paper compares against (plus adapters)."""

from .atom import quantize_atom
from .awq import quantize_awq
from .base import BaselineResult, group_float_scale, rtn_group_quantize
from .gobo import quantize_gobo
from .gptq import gptq_core, quantize_gptq
from .microscopiq_adapter import quantize_microscopiq_baseline, quantize_omni_microscopiq
from .olive import quantize_olive
from .omniquant import quantize_omniquant
from .registry import get_quantizer
from .rtn import quantize_rtn
from .sdq import quantize_sdq
from .smoothquant import quantize_smoothquant

__all__ = [
    "BaselineResult",
    "get_quantizer",
    "gptq_core",
    "group_float_scale",
    "quantize_atom",
    "quantize_awq",
    "quantize_gobo",
    "quantize_gptq",
    "quantize_microscopiq_baseline",
    "quantize_olive",
    "quantize_omni_microscopiq",
    "quantize_omniquant",
    "quantize_rtn",
    "quantize_sdq",
    "quantize_smoothquant",
    "rtn_group_quantize",
]
