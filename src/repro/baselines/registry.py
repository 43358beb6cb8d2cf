"""Name → raw quantizer-function lookup (:func:`get_quantizer`).

The declarative :mod:`repro.methods` registry is the public one:
:class:`~repro.methods.MethodSpec` carries the capability flags and
validated parameter schema the engine, pipeline and CLI consult, and its
class-based lifecycle (``prepare``/``quantize_layer``) wraps these
functions::

    from repro.methods import get_method
    result = get_method("gptq").quantize(weights, calib, bits=4)

:func:`get_quantizer` returns the bare ``quantize_<name>(weights,
calib_inputs=None, **kwargs)`` kernel function, which the tests call
directly.
"""

from __future__ import annotations

from typing import Callable, Dict

from .atom import quantize_atom
from .awq import quantize_awq
from .gobo import quantize_gobo
from .gptq import quantize_gptq
from .microscopiq_adapter import quantize_microscopiq_baseline, quantize_omni_microscopiq
from .olive import quantize_olive
from .omniquant import quantize_omniquant
from .rtn import quantize_rtn
from .sdq import quantize_sdq
from .smoothquant import quantize_smoothquant

__all__ = ["get_quantizer"]

_FUNCTIONS: Dict[str, Callable] = {
    "rtn": quantize_rtn,
    "gptq": quantize_gptq,
    "awq": quantize_awq,
    "smoothquant": quantize_smoothquant,
    "omniquant": quantize_omniquant,
    "atom": quantize_atom,
    "sdq": quantize_sdq,
    "olive": quantize_olive,
    "gobo": quantize_gobo,
    "microscopiq": quantize_microscopiq_baseline,
    "omni-microscopiq": quantize_omni_microscopiq,
}


def get_quantizer(name: str) -> Callable:
    """Look up a raw quantizer kernel by name; raises with the known list on
    miss. Prefer :func:`repro.methods.get_method` for new code."""
    try:
        return _FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(_FUNCTIONS))
        raise KeyError(f"unknown quantizer {name!r}; known: {known}") from None
