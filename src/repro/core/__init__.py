"""Public API of the MicroScopiQ reproduction.

The paper's primary contribution — outlier-aware microscaling quantization
with pruning-based bit redistribution — is exposed here:

* :class:`MicroScopiQConfig` / :func:`quantize_matrix` — quantize one
  weight matrix (Algorithm 1), staged over the shared
  :class:`~repro.quant.kernel.BlockQuantKernel`;
* :class:`PackedLayer` — the quantized representation (code grid + MXScale
  + permutation lists) with dequantization and EBW accounting;
* :func:`quantize_model` — whole-model PTQ over any substrate implementing
  the linear-layer protocol, scheduled by :mod:`repro.quant.engine`
  (grouped calibration, Hessian store, shape batching);
* :class:`Substrate` / :data:`SUBSTRATES` — the protocol behind that duck
  typing and the registry of workload classes (LM / VLM / CNN / SSM) with
  their builders, calibration sets, and task metrics;
* :class:`MethodSpec` / :data:`METHODS` — the declarative quantization-
  method registry (capability flags, validated parameter schemas, the
  ``prepare``/``quantize_layer`` lifecycle) with
  :class:`HessianBundle` lazily-factored Hessian resources;
* the accelerator co-design lives in :mod:`repro.hw`, the GPU cost model
  in :mod:`repro.gpu`.

Quickstart::

    import numpy as np
    from repro.core import MicroScopiQConfig, quantize_matrix

    w = np.random.randn(256, 512) * 0.02
    x = np.random.randn(128, 512)
    packed = quantize_matrix(w, x, MicroScopiQConfig(inlier_bits=2))
    print(packed.ebw(), packed.reconstruction_error(w, x))
"""

from ..methods import (
    METHODS,
    HessianBundle,
    MethodSpec,
    Quantizer,
    get_method,
    register_method,
)
from ..quant.config import MicroScopiQConfig
from ..quant.engine import (
    HessianStore,
    QuantizationReport,
    default_hessian_store,
    quantize_model,
)
from ..quant.microscopiq import quantize_matrix, quantize_microscopiq
from ..quant.packed import PackedLayer
from .substrate import (
    SUBSTRATES,
    Substrate,
    SubstrateSpec,
    calibration_groups,
    get_substrate,
    known_substrates,
    register_substrate,
    substrate_families,
    substrate_for_model,
)

__all__ = [
    "HessianBundle",
    "HessianStore",
    "METHODS",
    "MethodSpec",
    "MicroScopiQConfig",
    "PackedLayer",
    "QuantizationReport",
    "Quantizer",
    "SUBSTRATES",
    "Substrate",
    "SubstrateSpec",
    "calibration_groups",
    "default_hessian_store",
    "get_method",
    "get_substrate",
    "known_substrates",
    "quantize_matrix",
    "quantize_microscopiq",
    "quantize_model",
    "register_method",
    "register_substrate",
    "substrate_families",
    "substrate_for_model",
]
