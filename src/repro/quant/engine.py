"""Model-level quantization engine: Hessian store + grouped layer dispatch.

:func:`quantize_model` schedules whole-model PTQ over any model implementing
the :class:`~repro.core.substrate.Substrate` protocol, driving any method
registered in the :mod:`repro.methods` registry through its class-based
lifecycle. It improves on the naive per-layer walk in three ways:

* **One calibration pass per group.** Layers whose calibration inputs are
  invariant to each other's overrides (``wq``/``wk``/``wv`` read the same
  RMSNorm output, ``w1``/``w3`` the same MLP input) are grouped by the
  substrate registry; the engine collects activations once per group instead
  of once per layer, and the result is bit-identical to the sequential walk
  (asserted in ``tests/test_substrates.py``). On the LM and VLM each
  group's collection resumes from the residual stream recorded where an
  earlier group's block began, as long as nothing upstream of it changed,
  so a sequential quantize runs O(L) block passes instead of replaying the
  forward from the embedding for every group (O(L²)).

* **Hessian store.** ``H = 2 X Xᵀ + λI`` depends only on the calibration
  activations and the damping — not on bits or method knobs — so methods
  whose spec declares ``needs_hessian`` receive a lazy
  :class:`~repro.methods.resources.HessianBundle` resolved through their
  ``prepare`` step from a content-fingerprinted
  :class:`~repro.methods.resources.HessianStore`. Layers sharing a group
  share activations and therefore one bundle; the bundle's inverse/Cholesky
  factors compute once per calibration rather than once per setting, and
  the store's optional disk tier extends the sharing to worker *processes*.

* **Executor dispatch.** Group members are independent, so they are
  dispatched through the :mod:`repro.pipeline.executor` interface
  (``dispatch="thread"``) and installed back in forward order — scheduling
  never changes results.

Per-method knowledge lives on the :class:`~repro.methods.MethodSpec`
(capability flags + parameter schema), not here: unknown quantizer keywords
are rejected up front with the method's schema in the error, and a method
declaring ``supported_substrates`` refuses incompatible models before any
layer is touched.

The ``calibration`` knob is the paper's sequential-vs-parallel calibration
ablation: ``"sequential"`` (default) calibrates each group on the
progressively quantized model, GPTQ-style; ``"parallel"`` calibrates every
layer once on the full-precision model, which maximizes Hessian reuse across
settings and removes all cross-group ordering constraints, at some accuracy
cost on later layers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..methods import LayerContext, MethodSpec, get_method
from ..methods.resources import (
    HessianBundle,
    HessianStore,
    default_hessian_store,
)
from ..obs.metrics import METRICS
from ..obs.trace import Span, trace
from .activation import ActivationQuantizer

__all__ = [
    "CALIBRATION_MODES",
    "HessianBundle",
    "HessianStore",
    "QuantizationReport",
    "default_hessian_store",
    "quantize_model",
]

CALIBRATION_MODES = ("sequential", "parallel")


@dataclass
class QuantizationReport:
    """What happened when a model was quantized.

    ``layer_packed`` is the packed-layer export hook: methods whose spec
    declares ``exports_packed`` return a structural
    :class:`~repro.quant.packed.PackedLayer` under ``meta["packed"]``, and
    the engine collects it here per layer — the measured outlier micro-block
    maps the co-design pipeline lifts into hardware workloads instead of the
    per-family iid rates.
    """

    method: str
    w_bits: int
    act_bits: Optional[int]
    layer_ebw: Dict[str, float] = field(default_factory=dict)
    layer_meta: Dict[str, dict] = field(default_factory=dict)
    layer_packed: Dict[str, Any] = field(default_factory=dict)

    @property
    def mean_ebw(self) -> float:
        vals = list(self.layer_ebw.values())
        return float(np.mean(vals)) if vals else 0.0

    def layer_specs(self) -> Dict[str, Any]:
        """Measured per-layer :class:`~repro.hw.mapping.LayerSpec`\\ s, lifted
        from the packed layers via :meth:`LayerSpec.from_packed` — geometry,
        EBW, and the *measured* ``outlier_ub_fraction`` of each quantized
        matrix. Empty for methods that don't export packed layers."""
        from ..hw.mapping import LayerSpec

        return {
            name: LayerSpec.from_packed(name, packed)
            for name, packed in self.layer_packed.items()
        }


@dataclass
class _LayerTask:
    """One dispatchable unit: quantize a single named layer."""

    name: str
    weights: np.ndarray
    acts: np.ndarray

    @property
    def label(self) -> str:  # executor progress hook compatibility
        return self.name


@dataclass
class _BatchTask:
    """Several same-shape layers row-stacked into one kernel invocation.

    The engine's shape batching: layers of one calibration group whose
    weights share ``d_in`` and whose calibration inputs are byte-identical
    are quantized as a single ``[sum(d_out), d_in]`` matrix (legal only for
    ``row_batchable`` methods in weight-only mode) and split back per layer
    afterwards — bit-identical to dispatching them separately, but the
    kernel's per-column work amortizes across the stacked rows.
    """

    names: List[str]
    weights: np.ndarray  # vstack of the member layers' weights
    acts: np.ndarray  # the shared calibration inputs
    sizes: List[int]  # member d_out's, in `names` order

    @property
    def name(self) -> str:
        return "+".join(self.names)

    @property
    def label(self) -> str:
        return f"batch({self.name})"


def _coalesce_tasks(tasks: List[_LayerTask]) -> List[Any]:
    """Group same-(d_in, calibration) layers into :class:`_BatchTask`\\ s.

    Singleton groups stay plain :class:`_LayerTask`\\ s. The calibration key
    is a content fingerprint, not an identity check, so substrates that
    return equal-but-distinct activation arrays per layer still coalesce.
    """
    buckets: Dict[Any, List[_LayerTask]] = {}
    for task in tasks:
        key = (
            task.weights.shape[1],
            HessianStore.fingerprint(task.acts, 0.0),
        )
        buckets.setdefault(key, []).append(task)
    units: List[Any] = []
    for members in buckets.values():
        if len(members) < 2:
            units.extend(members)
            continue
        units.append(
            _BatchTask(
                names=[t.name for t in members],
                weights=np.vstack([t.weights for t in members]),
                acts=members[0].acts,
                sizes=[t.weights.shape[0] for t in members],
            )
        )
    return units


def _make_layer_kernel(
    spec: MethodSpec,
    w_bits: int,
    act_bits: Optional[int],
    base_params: Dict[str, Any],
    store: Optional[HessianStore],
    substrate: Optional[str],
    parent_span: Optional[Span] = None,
):
    """Bind a per-layer lifecycle driver for executor dispatch.

    ``parent_span`` is the engine's open span: layer spans parent to it
    explicitly because thread dispatch runs the kernel on pool threads,
    where the tracer's thread-local stack doesn't see the engine span.
    """
    quantizer = spec.make()
    # Methods that don't accept act_bits still get their activations
    # fake-quantized by the install loop — the old engine's contract.
    eff_act = act_bits if spec.act_aware else None

    def run_one(task) -> Any:
        call = dict(base_params)
        call["bits"] = w_bits
        if eff_act is not None:
            call["act_bits"] = eff_act
        ctx = LayerContext(
            name=task.name,
            weights=task.weights,
            calib_inputs=task.acts,
            w_bits=w_bits,
            act_bits=eff_act,
            params=call,
            hessian_store=store,
            substrate=substrate,
            spec=spec,
        )
        resources = quantizer.prepare(ctx)
        return quantizer.quantize_layer(task.weights, resources, **call)

    def kernel(task):
        if isinstance(task, _BatchTask):
            with trace(
                "layer_batch",
                parent=parent_span or None,
                layers=task.name,
                count=len(task.names),
            ):
                METRICS.incr("engine.layer_batches")
                METRICS.incr("engine.batched_layers", len(task.names))
                return run_one(task).split_rows(task.sizes)
        with trace("layer", parent=parent_span or None, layer=task.name):
            return run_one(task)

    return kernel


def _make_dispatcher(dispatch: str, workers: Optional[int]):
    from ..pipeline.executor import SerialExecutor, ThreadExecutor

    if dispatch == "serial":
        return SerialExecutor()
    if dispatch == "thread":
        return ThreadExecutor(workers=workers)
    raise KeyError(f"unknown dispatch {dispatch!r}; known: serial, thread")


def quantize_model(
    model,
    method: Union[str, MethodSpec],
    w_bits: int,
    act_bits: Optional[int] = None,
    calib=None,
    calibration: str = "sequential",
    dispatch: str = "serial",
    workers: Optional[int] = None,
    hessian_store: Optional[HessianStore] = None,
    groups: Optional[List[List[str]]] = None,
    **quantizer_kwargs,
) -> QuantizationReport:
    """Quantize every linear of ``model`` in place (via overrides).

    ``model`` is anything implementing the
    :class:`~repro.core.substrate.Substrate` protocol; ``method`` is a
    registry name (or a :class:`~repro.methods.MethodSpec` directly).
    Re-entrant: clears any previous overrides first. ``calib`` defaults to
    the owning substrate's standard calibration inputs; unregistered
    duck-typed models must pass their own.

    ``quantizer_kwargs`` are validated against the method's parameter schema
    before any work happens — an unknown keyword raises
    :class:`~repro.methods.MethodParamError` naming the schema instead of
    crashing (or silently vanishing) inside the kernel.

    Args:
        calibration: ``"sequential"`` collects activations group by group on
            the progressively quantized model (GPTQ-style; the reference
            semantics); ``"parallel"`` calibrates everything once on the FP
            model (the paper's parallel-calibration ablation).
        dispatch: ``"serial"`` or ``"thread"`` — how group members are
            dispatched. Bit-identical either way.
        workers: thread-pool width for ``dispatch="thread"``.
        hessian_store: Hessian memo; defaults to the process-wide store
            (whose disk tier attaches from ``REPRO_HESSIAN_DIR``).
        groups: calibration groups override; defaults to the substrate
            registry's grouping (singletons for unregistered models).

    Methods whose spec declares ``row_batchable`` have same-shape layers of a
    calibration group row-stacked into one kernel invocation (weight-only
    mode; bit-identical to separate dispatch, asserted in
    ``tests/test_vector_kernel.py``).
    """
    if calibration not in CALIBRATION_MODES:
        raise ValueError(
            f"unknown calibration mode {calibration!r}; known: "
            f"{', '.join(CALIBRATION_MODES)}"
        )
    from ..core.substrate import calibration_groups, substrate_for_model

    spec = method if isinstance(method, MethodSpec) else get_method(method)
    spec.validate_params(quantizer_kwargs)

    model.clear_overrides()
    sub = substrate_for_model(model)
    if sub is not None:
        spec.check_substrate(sub.name)
    if calib is None:
        if sub is None:
            raise ValueError(
                f"{type(model).__name__} is not a registered substrate and has "
                "no default calibration set; pass calib="
            )
        calib = sub.calibration(model)
    if groups is None:
        groups = calibration_groups(model)
    # The old per-layer walk quantized every linear unconditionally; the
    # grouped schedule must keep that guarantee — a groups override (or a
    # registry grouping drifting out of sync with a model) that drops or
    # duplicates a layer would otherwise leave weights silently at full
    # precision.
    flat = [name for group in groups for name in group]
    if sorted(flat) != sorted(model.linear_names):
        raise ValueError(
            "calibration groups must partition model.linear_names exactly; "
            f"got {flat} vs {list(model.linear_names)}"
        )
    store = hessian_store if hessian_store is not None else default_hessian_store()
    pool = _make_dispatcher(dispatch, workers)
    report = QuantizationReport(spec.name, w_bits, act_bits)
    METRICS.incr("engine.models")

    # Row-stacking is legal only when the kernel call is exactly
    # row-independent: batchable method, weight-only mode (act_bits would
    # reach the kernel otherwise), and no whole-tensor scale.
    batchable = (
        spec.row_batchable
        and (act_bits is None or not spec.act_aware)
        and not quantizer_kwargs.get("per_tensor")
    )

    with trace(
        "engine",
        method=spec.name,
        w_bits=w_bits,
        substrate=sub.name if sub is not None else "",
        calibration=calibration,
        dispatch=dispatch,
    ) as engine_span:
        kernel = _make_layer_kernel(
            spec, w_bits, act_bits, quantizer_kwargs, store,
            sub.name if sub is not None else None,
            parent_span=engine_span or None,
        )

        if calibration == "parallel":
            # One FP calibration pass, all layers in one stage: maximal
            # reuse, no progressive requantization (the ablation arm).
            stage_plan = [[name for group in groups for name in group]]
            with trace("calibrate", layers=len(stage_plan[0])):
                acts_all = model.collect_calibration(calib)
            METRICS.incr("engine.calibration_passes")
        else:
            stage_plan = groups
            acts_all = None
            # Targeted calibration: substrates whose collect_calibration
            # accepts ``names`` stop the forward at the deepest layer the
            # group needs and skip the logits head. Bit-identical (the
            # forward prefix is the same computation); duck-typed models
            # without the parameter get the full collection.
            try:
                targeted = "names" in inspect.signature(
                    model.collect_calibration
                ).parameters
            except (TypeError, ValueError):
                targeted = False

        for group in stage_plan:
            METRICS.incr("engine.groups")
            METRICS.incr("engine.layers", len(group))
            if acts_all is not None:
                acts = acts_all
            else:
                with trace("calibrate", layers=len(group)):
                    if targeted:
                        acts = model.collect_calibration(calib, names=group)
                    else:
                        acts = model.collect_calibration(calib)
                METRICS.incr("engine.calibration_passes")
            tasks = [
                _LayerTask(name, model.weights[name], acts[name]) for name in group
            ]
            units = _coalesce_tasks(tasks) if batchable else tasks
            results: Dict[str, Any] = {}
            for outcome in pool.run(kernel, units):
                if not outcome.ok:
                    raise RuntimeError(
                        f"quantizing layer {outcome.job.name!r} failed: "
                        f"{outcome.error['type']}: {outcome.error['message']}"
                    )
                if isinstance(outcome.job, _BatchTask):
                    results.update(zip(outcome.job.names, outcome.metrics))
                else:
                    results[outcome.job.name] = outcome.metrics
            # Install in forward order regardless of completion order.
            for name in group:
                result = results[name]
                model.set_override(name, result.dequant)
                act_q = result.meta.get("act_quantizer")
                if act_bits is not None and act_q is None:
                    act_q = ActivationQuantizer(None, act_bits)
                if act_q is not None:
                    model.act_quant[name] = act_q
                report.layer_ebw[name] = result.ebw
                report.layer_meta[name] = {
                    k: v
                    for k, v in result.meta.items()
                    if isinstance(v, (int, float, str))
                }
                packed = result.meta.get("packed")
                if packed is not None:
                    report.layer_packed[name] = packed
    return report
