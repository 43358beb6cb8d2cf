"""The pipeline's job kernel, on top of the substrate-generic engine.

``quantize_model`` is :func:`repro.quant.engine.quantize_model` itself — the
engine owns calibration grouping, the Hessian store and shape batching; any
model implementing the :class:`~repro.core.substrate.Substrate` protocol
quantizes through it.

``evaluate_setting`` is the self-contained experiment kernel the
:mod:`repro.pipeline` executors dispatch: build the model of any registered
substrate (LM / VLM / CNN / SSM), quantize one setting, evaluate the
substrate's task metric (perplexity / caption score / top-1 / sequence NLL),
and return a plain metrics dict. It rebuilds everything from its arguments
and takes its randomness from the caller-provided generator, so a given
(spec, seed) pair produces the same metrics in any process.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..obs.trace import trace
from ..quant.engine import QuantizationReport, quantize_model

__all__ = ["QuantizationReport", "evaluate_setting", "quantize_model"]


_FP_METHOD = "fp16"


def evaluate_setting(
    family: str,
    method: str = _FP_METHOD,
    w_bits: int = 4,
    act_bits: Optional[int] = None,
    quant_kwargs: Optional[Dict[str, Any]] = None,
    kv_bits: Optional[int] = None,
    kv_residual: int = 128,
    eval_sequences: int = 32,
    eval_seq_len: int = 32,
    rng: Optional[np.random.Generator] = None,
    substrate: str = "lm",
    calibration: str = "sequential",
    eval_kwargs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Quantize one (substrate × family × method × setting) and evaluate it.

    This is the pipeline's job kernel: a pure function of its arguments.
    ``substrate`` selects the workload class from the
    :data:`~repro.core.substrate.SUBSTRATES` registry, which supplies the
    model builder, default calibration, and the task evaluator — so the
    returned metrics dict is metric-polymorphic: ``ppl``/``nll``/``nll_se``
    for LMs, ``caption_score`` for VLMs, ``top1`` for CNNs, ``nll``/``top1``
    for SSMs, plus ``mean_ebw`` on quantized runs. ``eval_kwargs`` forwards
    substrate-specific evaluation knobs (e.g. the VLM shot count);
    ``calibration`` selects the engine's sequential-vs-parallel calibration
    ablation.

    ``rng`` is the only randomness source (the pipeline spawns it from the
    job's content hash); any stochastic step must draw from it so parallel
    and serial sweeps stay bit-identical. Deliberately no wall times here —
    metrics must be a deterministic function of the job so executors can be
    compared bit-for-bit; timing lives on the executor's
    :class:`~repro.pipeline.executor.JobOutcome`.
    """
    from ..core.substrate import get_substrate

    sub = get_substrate(substrate)
    rng = rng if rng is not None else np.random.default_rng(0)
    model = sub.build(family)
    metrics: Dict[str, Any] = {"family": family, "substrate": substrate, "method": method}

    if method != _FP_METHOD:
        # Flat JSON-able job kwargs go straight to the engine: the method's
        # spec validates them against its schema and its adapter folds
        # MicroScopiQConfig fields into a config= object where needed.
        report = quantize_model(
            model, method, w_bits, act_bits=act_bits, calibration=calibration,
            **dict(quant_kwargs or {}),
        )
        metrics["w_bits"] = w_bits
        metrics["act_bits"] = act_bits
        metrics["mean_ebw"] = report.mean_ebw
        if report.layer_packed:
            # Measured per-layer structure, lifted via LayerSpec.from_packed:
            # the co-design quant stage. Riding the ordinary accuracy metrics
            # (JSON-able, a handful of floats per layer) is what lets an
            # accuracy sweep and a codesign sweep over the same settings
            # share this job's cache cell as the expensive stage.
            metrics["layers"] = {
                name: {
                    "d_out": ls.d_out,
                    "d_in": ls.d_in,
                    "bit_budget": ls.bit_budget,
                    "micro_block": ls.micro_block,
                    "ebw": ls.ebw,
                    "outlier_ub_fraction": ls.outlier_ub_fraction,
                }
                for name, ls in report.layer_specs().items()
            }

    if kv_bits is not None:
        if substrate != "lm":
            raise ValueError(
                f"kv_bits applies to the lm substrate only, not {substrate!r}"
            )
        from ..quant.activation import quantize_kv_cache

        model.kv_quant = lambda k, v: quantize_kv_cache(
            k, v, bits=kv_bits, residual=kv_residual
        )

    with trace("evaluate", family=family, substrate=substrate, metric=sub.metric):
        metrics.update(
            sub.evaluate(
                model, eval_sequences, eval_seq_len, rng, **dict(eval_kwargs or {})
            )
        )
    model.clear_overrides()
    return metrics
