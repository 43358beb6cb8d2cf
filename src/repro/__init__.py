"""repro — a full reproduction of MicroScopiQ (ISCA 2025).

MicroScopiQ: Accelerating Foundational Models through Outlier-Aware
Microscaling Quantization (Ramachandran, Kundu, Krishna).

Subpackages:
    formats      — INT / minifloat / MX-INT / MX-FP number formats, EBW
    quant        — the MicroScopiQ quantizer (Hessian engine, outlier
                   handling, N:M redistribution pruning, packing)
    methods      — the first-class quantization-method API: MethodSpec
                   capability registry, Quantizer lifecycle, HessianBundle
                   resources and the in-memory HessianStore
    baselines    — RTN, GPTQ, AWQ, SmoothQuant, OmniQuant, Atom, SDQ,
                   OliVe, GOBO + the Omni-MicroScopiQ combination
    models       — synthetic FM substrates (transformer LM, VLM, CNN, SSM)
    eval         — corpora, perplexity, zero-shot tasks, PTQ harness
    hw           — the registry-driven accelerator simulation API:
                   HwArchSpec registry, per-substrate hardware workloads,
                   the simulate() entry point, and the functional PE/ReCoN
                   + cycle-level performance/area/energy models
    accelerator  — DEPRECATED shim over repro.hw
    gpu          — A100 kernel cost model and tensor-core variants
    core         — the high-level public API
    pipeline     — parallel experiment orchestration: declarative sweeps,
                   content-addressed result caching, the shared
                   SweepScheduler, the repro-sweep CLI
    serve        — the repro-serve HTTP sweep service: submit SweepSpecs
                   over JSON, stream progress (SSE), fetch merged results
    obs          — observability: span tracer, metrics registry, run ledger
    plugins      — entry-point discovery of third-party methods/substrates
"""

__version__ = "1.6.0"

from . import (
    accelerator,
    baselines,
    core,
    eval,
    formats,
    gpu,
    hw,
    methods,
    models,
    obs,
    pipeline,
    plugins,
    quant,
    serve,
)
from .core import (
    MicroScopiQConfig,
    PackedLayer,
    QuantizationReport,
    quantize_matrix,
    quantize_model,
)
from .methods import MethodSpec, get_method, register_method

__all__ = [
    "MethodSpec",
    "MicroScopiQConfig",
    "PackedLayer",
    "QuantizationReport",
    "accelerator",
    "baselines",
    "core",
    "eval",
    "formats",
    "get_method",
    "gpu",
    "hw",
    "methods",
    "models",
    "obs",
    "pipeline",
    "plugins",
    "quant",
    "quantize_matrix",
    "quantize_model",
    "register_method",
    "serve",
]
