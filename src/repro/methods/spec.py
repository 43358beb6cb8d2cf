"""Declarative quantization-method specs and the class-based lifecycle.

PR 2 made *substrates* first-class; this module does the same for *methods*.
A :class:`MethodSpec` carries everything the engine, the pipeline, and the
CLI previously hard-coded per method:

* **capability flags** — ``needs_hessian`` (wants a precomputed
  :class:`~repro.methods.resources.HessianBundle`), ``hessian_with_act``
  (whether that bundle is still valid in weight-activation mode; migration
  methods rescale their calibration per α, invalidating it), ``act_aware``
  (accepts ``act_bits``), ``supports_per_tensor`` (static per-tensor scale),
  ``group_param`` (which keyword the sweep's group-size axis maps onto), and
  ``supported_substrates`` (``None`` = every workload class);
* a validated **param schema** — the method's public knobs with typed
  defaults; unknown or ill-typed parameters raise
  :class:`MethodParamError` *before* any job runs instead of threading
  through ``**kwargs`` into a kernel crash;
* a **quantizer factory** — builds the class-based :class:`Quantizer` whose
  explicit lifecycle (``prepare(layer_ctx) → resources`` then
  ``quantize_layer(weights, resources, **params)``) replaces the positional
  ``quantize_<name>(weights, calib_inputs, **kwargs)`` calling convention.

``prepare`` is where per-layer environment acquisition lives: it consumes
the layer's calibration activations and (for Hessian-aware methods) resolves
a :class:`HessianBundle` from the engine's store, so the expensive factor
work is shared across settings, threads, and — via the store's disk tier —
worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from .resources import HessianBundle, HessianStore

__all__ = [
    "LayerContext",
    "LayerResources",
    "MethodParamError",
    "MethodSpec",
    "MethodSubstrateError",
    "Param",
    "Quantizer",
]


class MethodParamError(ValueError):
    """An unknown or invalid method parameter, caught at spec-build time."""


class MethodSubstrateError(ValueError):
    """A method asked to run on a substrate it does not support."""


@dataclass(frozen=True)
class Param:
    """One entry of a method's parameter schema.

    ``kinds`` are the accepted Python types (``bool`` is checked before
    ``int`` so flags can't silently pass as integers); ``choices`` optionally
    pins a closed value set. ``None`` is always accepted when ``default`` is
    ``None`` (optional parameters).
    """

    name: str
    default: Any = None
    kinds: Tuple[type, ...] = (int,)
    doc: str = ""
    choices: Optional[Tuple[Any, ...]] = None

    def check(self, value: Any, method: str) -> None:
        if value is None and self.default is None:
            return
        if isinstance(value, bool) and bool not in self.kinds:
            raise MethodParamError(
                f"method {method!r}: parameter {self.name!r} expects "
                f"{self._kind_names()}, got bool {value!r}"
            )
        if not isinstance(value, self.kinds):
            raise MethodParamError(
                f"method {method!r}: parameter {self.name!r} expects "
                f"{self._kind_names()}, got {type(value).__name__} {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise MethodParamError(
                f"method {method!r}: parameter {self.name!r} must be one of "
                f"{self.choices}, got {value!r}"
            )

    def _kind_names(self) -> str:
        return "/".join(k.__name__ for k in self.kinds)

    def describe(self) -> str:
        """``name=default`` schema line for error messages and the CLI."""
        return f"{self.name}={self.default!r}"


@dataclass
class LayerContext:
    """Everything ``prepare`` may draw on for one layer of one setting.

    The engine builds one per dispatched layer; standalone use (tests, the
    one-shot :meth:`MethodSpec.quantize` convenience) fills just the fields
    it has. ``params`` are the *validated* method parameters for this call.
    ``spec`` is the owning :class:`MethodSpec` — the single source of the
    capability flags adapters consult in ``prepare``.
    """

    name: str
    weights: np.ndarray
    calib_inputs: Optional[np.ndarray] = None
    w_bits: int = 4
    act_bits: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    hessian_store: Optional[HessianStore] = None
    substrate: Optional[str] = None
    spec: Optional[MethodSpec] = None


@dataclass
class LayerResources:
    """What ``prepare`` resolved for a layer: calibration + Hessian factors.

    ``hessian`` is a lazy :class:`HessianBundle` (or ``None`` for
    calibration-free / migration-mode calls); nothing is computed until the
    quantizer actually touches a factor.
    """

    calib_inputs: Optional[np.ndarray] = None
    hessian: Optional[HessianBundle] = None


@runtime_checkable
class Quantizer(Protocol):
    """The class-based method lifecycle the engine drives per layer."""

    def prepare(self, ctx: LayerContext) -> LayerResources:
        """Acquire per-layer resources (calibration, Hessian bundle)."""
        ...

    def quantize_layer(self, weights: np.ndarray, resources: Optional[LayerResources], **params):
        """Quantize one weight matrix using prepared ``resources``;
        returns a :class:`~repro.baselines.base.BaselineResult`."""
        ...


@dataclass(frozen=True)
class MethodSpec:
    """One registered quantization method: capabilities, schema, factory.

    Attributes:
        name: registry key (``"gptq"``, ``"microscopiq"``, …).
        summary: one-line description for the CLI capability table.
        make: zero-arg factory returning a (stateless, thread-safe)
            :class:`Quantizer` instance.
        params: the public parameter schema; every keyword a caller may pass
            beyond the universal ``bits`` / ``act_bits``.
        needs_hessian: ``prepare`` should resolve a
            :class:`HessianBundle` (the method reads H / H⁻¹ / U).
        hessian_with_act: the precomputed bundle stays valid when
            ``act_bits`` is set (False for migration-style methods that
            rescale their calibration inputs per α).
        act_aware: accepts an ``act_bits`` keyword (weight-activation mode).
        supports_per_tensor: offers a static whole-tensor scale mode.
        group_param: keyword the sweep's ``group_sizes`` axis binds to
            (``"group_size"``, ``"macro_block"``, or ``None`` for methods
            with no group knob).
        exports_packed: quantize_layer results carry a structural
            :class:`~repro.quant.packed.PackedLayer` under ``meta["packed"]``
            — the per-layer outlier micro-block map the co-design pipeline
            lifts into measured hardware workloads
            (:meth:`repro.hw.LayerSpec.from_packed`). Methods without it
            cannot run ``kind="codesign"`` jobs.
        row_batchable: the kernel is exactly row-independent in weight-only
            mode — quantizing ``vstack(W_a, W_b)`` against shared calibration
            inputs yields bit-identical rows to quantizing ``W_a`` and
            ``W_b`` separately. The engine uses this to stack
            same-shape layers of a calibration group into one kernel
            invocation (see :func:`repro.quant.engine.quantize_model`).
            Methods with any cross-row coupling (AWQ's whole-matrix α
            search, GoBo's global k-means, SmoothQuant's per-column
            ``max|W|`` migration scales, OliVe's aggregate victim counter,
            Omni-MicroScopiQ's whole-matrix config competition) must leave
            this False.
        supported_substrates: workload classes the method can quantize;
            ``None`` means every registered substrate.
        damp_param: which parameter carries the Hessian damping λ.
        version: optional spec version hashed into pipeline job identities,
            so cached results invalidate when a plugin's numerics change
            (builtins ride ``repro.__version__`` instead and leave this
            ``None`` — omitting it keeps job hashes stable).
        source: where the spec came from (``"builtin"`` or the plugin
            distribution name, filled by the plugin loader).
    """

    name: str
    summary: str
    make: Callable[[], Quantizer]
    params: Tuple[Param, ...] = ()
    needs_hessian: bool = False
    hessian_with_act: bool = True
    act_aware: bool = False
    supports_per_tensor: bool = False
    exports_packed: bool = False
    row_batchable: bool = False
    group_param: Optional[str] = "group_size"
    supported_substrates: Optional[Tuple[str, ...]] = None
    damp_param: str = "damp_ratio"
    version: Optional[str] = None
    source: str = "builtin"

    # ------------------------------------------------------------ the schema
    def param_schema(self) -> Dict[str, Param]:
        return {p.name: p for p in self.params}

    def describe_schema(self) -> str:
        return ", ".join(p.describe() for p in self.params) or "(no parameters)"

    def validate_params(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Check ``params`` against the schema; returns them unchanged.

        Unknown names and type/choice violations raise
        :class:`MethodParamError` listing the full schema — this is the
        fail-fast replacement for the old ``**kwargs`` threading, and it runs
        both at pipeline spec-build time and again at the engine boundary.
        """
        schema = self.param_schema()
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise MethodParamError(
                f"method {self.name!r} got unknown parameter(s) "
                f"{', '.join(repr(u) for u in unknown)}; its schema is: "
                f"{self.describe_schema()}"
            )
        for key, value in params.items():
            schema[key].check(value, self.name)
        return params

    def defaults(self) -> Dict[str, Any]:
        return {p.name: p.default for p in self.params}

    # --------------------------------------------------------- compatibility
    def supports_substrate(self, substrate: str) -> bool:
        return (
            self.supported_substrates is None
            or substrate in self.supported_substrates
        )

    def check_substrate(self, substrate: str) -> None:
        if not self.supports_substrate(substrate):
            known = ", ".join(self.supported_substrates or ())
            raise MethodSubstrateError(
                f"method {self.name!r} does not support substrate "
                f"{substrate!r}; supported: {known or 'none declared'}"
            )

    def damp_ratio(self, params: Dict[str, Any]) -> float:
        """The damping λ this call would use for its Hessian."""
        value = params.get(self.damp_param)
        if value is None:
            config = params.get("config")
            if config is not None and hasattr(config, "damp_ratio"):
                return float(config.damp_ratio)
            schema = self.param_schema().get(self.damp_param)
            value = schema.default if schema is not None else 0.01
        return float(value if value is not None else 0.01)

    def wants_hessian(self, act_bits: Optional[int]) -> bool:
        """Whether ``prepare`` should resolve a bundle for this setting."""
        return self.needs_hessian and (act_bits is None or self.hessian_with_act)

    # ------------------------------------------------------------ one-shot
    def quantize(
        self,
        weights: np.ndarray,
        calib_inputs: Optional[np.ndarray] = None,
        *,
        bits: int = 4,
        act_bits: Optional[int] = None,
        hessian_store: Optional[HessianStore] = None,
        substrate: Optional[str] = None,
        **params,
    ):
        """Run the full lifecycle on one matrix (the library convenience).

        Equivalent to what the engine does per layer: validate, ``prepare``,
        ``quantize_layer``. Returns the method's
        :class:`~repro.baselines.base.BaselineResult`.
        """
        if substrate is not None:
            self.check_substrate(substrate)
        self.validate_params(params)
        call = dict(params, bits=bits)
        if act_bits is not None:
            if not self.act_aware:
                raise MethodParamError(
                    f"method {self.name!r} is weight-only; it does not take act_bits"
                )
            call["act_bits"] = act_bits
        quantizer = self.make()
        ctx = LayerContext(
            name="<standalone>",
            weights=weights,
            calib_inputs=calib_inputs,
            w_bits=bits,
            act_bits=act_bits if self.act_aware else None,
            params=call,
            hessian_store=hessian_store,
            substrate=substrate,
            spec=self,
        )
        resources = quantizer.prepare(ctx)
        return quantizer.quantize_layer(weights, resources, **call)

    # ------------------------------------------------------------ reporting
    def capabilities(self) -> Dict[str, Any]:
        """Flat capability dict for the CLI table and plugin listings."""
        return {
            "name": self.name,
            "hessian": self.needs_hessian,
            "act": self.act_aware,
            "per_tensor": self.supports_per_tensor,
            "packed": self.exports_packed,
            "row_batchable": self.row_batchable,
            "group_param": self.group_param,
            "substrates": (
                "all"
                if self.supported_substrates is None
                else ",".join(self.supported_substrates)
            ),
            "params": self.describe_schema(),
            "source": self.source,
        }
