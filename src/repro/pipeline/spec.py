"""Declarative experiment specs and their enumeration into hashable jobs.

An :class:`ExperimentSpec` pins down ONE experiment completely, along a
**kind** axis:

* ``kind="accuracy"`` — which substrate (LM / VLM / CNN / SSM, from the
  :data:`~repro.core.substrate.SUBSTRATES` registry) and model family,
  which quantization method (any :mod:`repro.baselines.registry` entry,
  ``"fp16"`` for the full-precision reference), the bit setting, optional
  method-specific knobs, the engine's calibration mode, optional KV-cache
  quantization, and the evaluation corpus size;
* ``kind="hw"`` — the (substrate, family) pair is resolved through the
  :mod:`repro.hw` workload registry and simulated on the named ``arch``
  (``hw_kwargs`` carries the array/streaming knobs, validated against the
  arch's and the simulator's ``Param`` schemas at build time);
* ``kind="codesign"`` — the **stage graph** closing the paper's co-design
  loop: ``run_quant_stage → lift_layerspecs → run_hw_job``. The quant stage
  is an ordinary accuracy job (quantize + evaluate) whose per-layer packed
  statistics are lifted via :meth:`~repro.hw.LayerSpec.from_packed` into a
  :class:`~repro.hw.MeasuredWorkload`, then simulated on ``arch`` — one
  merged metrics dict (``ppl``/``top1`` *and* latency/energy/area/EBW)
  under one content hash, from the *same* quantized weights.

``kind`` defaults to ``"auto"``: ``arch`` unset means accuracy, set means
hardware — exactly the pre-kind semantics, with byte-identical job hashes.

A :class:`SweepSpec` describes a *grid* — the cross-product of substrates ×
models × methods × weight/activation bits × outlier formats × group sizes ×
calibration modes, plus the hardware axes: ``archs`` and the first-class
grid axes ``prefills`` / ``batches`` / ``n_recons`` (enumerated like
``w_bits``, schema-validated at build, and normalized out of identities for
kernels that ignore them). ``kind="codesign"`` crosses the quantization
grid *with* the hardware axes instead of keeping them disjoint. (substrate,
family) pairs the registries cannot build are skipped, so one sweep can
span every workload class at once.

A :class:`Job` is the atomic unit of work the executor dispatches and the
cache keys on. Its identity is a stable SHA-256 over the canonical JSON of
the spec plus :data:`HASH_VERSION` and the sweep seed — *not* Python's
``hash()``, so it is identical across processes, interpreter restarts, and
``PYTHONHASHSEED`` values. The per-job RNG seed is spawned from that hash,
which is what makes serial and parallel sweeps bit-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CALIBRATION_MODES",
    "FP_METHOD",
    "HASH_VERSION",
    "JOB_KINDS",
    "ExperimentSpec",
    "Job",
    "SweepSpec",
    "known_methods",
]

FP_METHOD = "fp16"
DEFAULT_SUBSTRATE = "lm"

#: The job-*identity* version hashed into every :class:`Job`, decoupled from
#: the package ``repro.__version__``. Bump it ONLY when kernel numerics
#: change (which must invalidate every cached cell); ordinary releases
#: advance the package version without rolling job hashes, so existing
#: caches survive. Pinned at 1.3.0 through the 1.4.0 release: the co-design
#: redesign left every accuracy/hw job's arithmetic untouched, and only
#: codesign / grid-axis specs (whose identity dicts are new) hash fresh.
HASH_VERSION = "1.3.0"

#: The resolved job kinds (``"auto"`` on a spec resolves to one of these).
JOB_KINDS = ("accuracy", "hw", "codesign")

# Single source of truth for the engine's calibration-mode knob.
from ..quant.engine import CALIBRATION_MODES  # noqa: E402


def _uses_corpus_shape(substrate: str) -> bool:
    """Whether eval_sequences/eval_seq_len shape this substrate's evaluation.

    Unknown substrate names conservatively keep the fields in the identity
    (they fail later, at build time, with the registry's error message).
    """
    try:
        from ..core.substrate import get_substrate

        return get_substrate(substrate).uses_corpus_shape
    except KeyError:
        return True

def known_methods() -> List[str]:
    """Registry methods plus the full-precision reference."""
    from ..methods import known_method_names

    return [FP_METHOD] + known_method_names()


def _method_spec(method: str):
    """The registered :class:`~repro.methods.MethodSpec`, or ``None`` for
    the full-precision reference."""
    if method == FP_METHOD:
        return None
    from ..methods import get_method

    return get_method(method)


def _plugin_versions(spec: ExperimentSpec) -> Dict[str, str]:
    """Spec-declared versions hashed into the job identity.

    Builtins leave their ``version`` unset and ride ``repro.__version__``;
    a plugin that stamps one gets its cache entries invalidated whenever the
    version (i.e. its numerics) changes. Omitted versions contribute
    nothing, so hashes stay stable for everything unversioned.
    """
    versions: Dict[str, str] = {}
    if spec.job_kind != "hw" and spec.method != FP_METHOD:
        m = _method_spec(spec.method)
        if m is not None and m.version is not None:
            versions["method"] = str(m.version)
    from ..core.substrate import SUBSTRATES

    sub = SUBSTRATES.get(spec.substrate)
    if sub is not None and sub.version is not None:
        versions["substrate"] = str(sub.version)
    if spec.arch is not None:
        from ..hw import get_arch

        arch = get_arch(spec.arch)
        if arch.version is not None:
            versions["arch"] = str(arch.version)
    return versions


def _canonical(obj: Any) -> Any:
    """Normalize to JSON-stable primitives (tuples → lists, sorted dicts)."""
    if isinstance(obj, dict):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"unhashable spec value {obj!r} ({type(obj).__name__})")


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified experiment (substrate × model × method × setting).

    Attributes:
        family: model family name known to the substrate's registry entry
            (:func:`repro.core.substrate.substrate_families`).
        substrate: workload class — ``"lm"`` (default), ``"vlm"``,
            ``"cnn"``, or ``"ssm"``.
        method: quantizer registry name, or ``"fp16"`` for no quantization.
        w_bits: weight bit-width (ignored for ``fp16``).
        act_bits: activation bit-width, or ``None`` for weight-only.
        quant_kwargs: extra method keywords as a sorted item tuple — for
            MicroScopiQ these are :class:`~repro.quant.MicroScopiQConfig`
            fields, for other baselines plain quantizer keywords.
        calibration: quantization engine calibration mode, ``"sequential"``
            (GPTQ-style progressive, the default) or ``"parallel"`` (one FP
            calibration pass — the paper's ablation arm).
        kv_bits / kv_residual: optional KIVI-style KV-cache quantization
            applied at evaluation time (LM substrate only).
        eval_sequences / eval_seq_len: evaluation corpus shape (LM corpora;
            the other substrates use fixed per-family evaluation bundles).
        eval_kwargs: substrate-specific evaluation knobs as a sorted item
            tuple (e.g. ``(("shots", 8),)`` for the VLM shot count).
        arch: accelerator name from the :mod:`repro.hw` registry; when set
            (with ``kind`` left at ``"auto"``), this spec is a *hardware*
            job (the quantization/evaluation fields are ignored and
            normalized out of the identity).
        hw_kwargs: hardware knobs as a sorted item tuple — array dimensions,
            streaming shape, design parameters — validated against the
            simulator's :data:`~repro.hw.SIM_PARAMS` plus the arch's own
            ``Param`` schema.
        kind: ``"auto"`` (hardware iff ``arch`` is set — the pre-1.4
            semantics, hash-identical), or an explicit job kind from
            :data:`JOB_KINDS`. ``"codesign"`` needs *both* sides: a
            quantization setting whose method exports packed layers AND an
            ``arch`` to simulate the lifted workload on.
        label: free-form tag carried through to results (not hashed).
    """

    family: str
    substrate: str = DEFAULT_SUBSTRATE
    method: str = FP_METHOD
    w_bits: int = 4
    act_bits: Optional[int] = None
    quant_kwargs: Tuple[Tuple[str, Any], ...] = ()
    calibration: str = "sequential"
    kv_bits: Optional[int] = None
    kv_residual: int = 128
    eval_sequences: int = 32
    eval_seq_len: int = 32
    eval_kwargs: Tuple[Tuple[str, Any], ...] = ()
    arch: Optional[str] = None
    hw_kwargs: Tuple[Tuple[str, Any], ...] = ()
    kind: str = "auto"
    label: str = ""

    @property
    def job_kind(self) -> str:
        """The resolved kind: ``"accuracy"``, ``"hw"``, or ``"codesign"``."""
        if self.kind != "auto":
            return self.kind
        return "hw" if self.arch is not None else "accuracy"

    def __post_init__(self) -> None:
        for ax in ("quant_kwargs", "eval_kwargs", "hw_kwargs"):
            val = getattr(self, ax)
            if isinstance(val, dict):
                object.__setattr__(self, ax, tuple(sorted(val.items())))
            _canonical(dict(getattr(self, ax)))  # validate hashability early
        if self.kind not in ("auto",) + JOB_KINDS:
            raise KeyError(
                f"unknown job kind {self.kind!r}; known: auto, "
                f"{', '.join(JOB_KINDS)}"
            )
        if self.calibration not in CALIBRATION_MODES:
            raise KeyError(
                f"unknown calibration mode {self.calibration!r}; known: "
                f"{', '.join(CALIBRATION_MODES)}"
            )
        kind = self.job_kind
        if kind in ("hw", "codesign"):
            if self.arch is None:
                raise ValueError(f"kind={kind!r} jobs need arch= set")
            # Hardware-side validation at spec-build time: unknown archs,
            # parameters outside the arch + simulator schemas, unsupported
            # arch × substrate pairs, and substrates with no hardware
            # workload generator all fail here, before any job is hashed.
            from ..hw import check_hw_kwargs, get_arch, workload_families

            arch = get_arch(self.arch)  # raises KeyError on unknown arch
            check_hw_kwargs(arch, dict(self.hw_kwargs))
            arch.check_substrate(self.substrate)
            workload_families(self.substrate)  # raises on uncovered substrate
            if kind == "hw":
                return
        else:
            if self.arch is not None:
                raise ValueError(
                    "kind='accuracy' jobs take no arch=; drop it or use "
                    "kind='codesign' for the joint stage graph"
                )
            if self.hw_kwargs:
                raise ValueError(
                    "hw_kwargs only apply to hardware jobs; set arch= as well"
                )
        # Method-capability validation at spec-build time: an unknown method,
        # a parameter outside the method's schema, or an unsupported
        # method × substrate pair must surface here — before any job is
        # enumerated, hashed, or dispatched — not as a kernel crash later.
        spec = _method_spec(self.method)  # raises KeyError on unknown method
        if spec is not None:
            spec.validate_params(dict(self.quant_kwargs))
            from ..core.substrate import SUBSTRATES

            if self.substrate in SUBSTRATES:  # unknown names fail at build
                spec.check_substrate(self.substrate)
        if kind == "codesign":
            # The quant stage must be able to export measured packed layers
            # for the lift — the fp16 reference and non-packing methods have
            # no outlier micro-block structure to measure.
            if spec is None:
                raise ValueError(
                    "kind='codesign' needs a quantization method; the fp16 "
                    "reference has no packed layers to lift"
                )
            if not spec.exports_packed:
                capable = sorted(
                    name for name in known_methods()
                    if name != FP_METHOD and _method_spec(name).exports_packed
                )
                raise ValueError(
                    f"method {self.method!r} does not export packed layers, "
                    f"so its measured workload cannot be lifted; "
                    f"codesign-capable methods: {', '.join(capable) or 'none'}"
                )

    def quant_stage(self) -> ExperimentSpec:
        """The quantize-and-evaluate stage of a codesign job, as the
        ordinary accuracy spec it is — same family/method/setting, hardware
        fields stripped. Its job hash is the content address under which the
        stage result is cached, which is exactly why an accuracy sweep and a
        codesign sweep over the same settings share the expensive stage."""
        return replace(self, arch=None, hw_kwargs=(), kind="accuracy", label="")

    def key(self) -> Dict[str, Any]:
        """Canonical identity dict — everything that defines the result.

        Fields the kernel ignores are normalized away so equivalent
        experiments share one content hash — bit widths, quantizer kwargs,
        and the calibration mode under ``fp16``; the LM corpus shape on
        substrates whose evaluation bundles are fixed per family; every
        quantization/evaluation field on pure hardware jobs (the simulator
        reads only ``arch`` + ``hw_kwargs``). That is what lets overlapping
        sweeps serve shared cells from cache. Codesign jobs keep *both*
        sides and add a ``kind`` marker; accuracy and hardware keys carry no
        marker at all, so their hashes are byte-identical to the pre-kind
        layout and every existing cache cell survives. Spec-declared plugin
        versions (method/substrate/arch) hash in when present, so a version
        bump invalidates exactly that plugin's cells.
        """
        kind = self.job_kind
        hw = kind == "hw"
        fp = hw or self.method == FP_METHOD
        corpus = not hw and _uses_corpus_shape(self.substrate)
        key = {
            "family": self.family,
            "substrate": self.substrate,
            "method": None if hw else self.method,
            "w_bits": None if fp else self.w_bits,
            "act_bits": None if fp else self.act_bits,
            "quant_kwargs": {} if fp else dict(self.quant_kwargs),
            "calibration": None if fp else self.calibration,
            "kv_bits": None if hw else self.kv_bits,
            "kv_residual": self.kv_residual if not hw and self.kv_bits is not None else None,
            "eval_sequences": self.eval_sequences if corpus else None,
            "eval_seq_len": self.eval_seq_len if corpus else None,
            "eval_kwargs": {} if hw else dict(self.eval_kwargs),
            "arch": self.arch if kind != "accuracy" else None,
            "hw_kwargs": dict(self.hw_kwargs) if kind != "accuracy" else {},
            "plugin_versions": _plugin_versions(self),
        }
        if kind == "codesign":
            key["kind"] = kind
        return _canonical(key)

    def with_(self, **kwargs) -> ExperimentSpec:
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Job:
    """A dispatchable unit: one spec + the sweep seed + its content hash."""

    spec: ExperimentSpec
    seed: int = 0
    version: str = ""

    @property
    def job_hash(self) -> str:
        """Stable SHA-256 of (spec key, :data:`HASH_VERSION`, sweep seed).

        Pure hardware jobs normalize the seed away: the simulator is
        deterministic and draws no randomness, so identical simulations
        must share one cache cell across differently-seeded sweeps — the
        same principle that drops ignored quantization fields from
        :meth:`ExperimentSpec.key`. Codesign jobs keep it (their quant
        stage's evaluation draws from the job-spawned RNG).
        """
        version = self.version or HASH_VERSION
        seed = None if self.spec.job_kind == "hw" else self.seed
        payload = {"spec": self.spec.key(), "version": version, "seed": seed}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def quant_stage(self) -> Job:
        """The quant stage of a codesign job, as a dispatchable accuracy
        job — same seed and version, hash equal to the equivalent standalone
        accuracy job's (the point of stage sharing)."""
        return Job(self.spec.quant_stage(), seed=self.seed, version=self.version)

    @property
    def spawn_seed(self) -> int:
        """Deterministic per-job RNG seed, spawned from the job hash.

        Serial, process-pool and remote executors all hand the job kernel
        the same seed, so any stochastic step inside a job draws an identical
        stream regardless of scheduling — bit-identical sweeps.
        """
        return int(self.job_hash[:16], 16)

    @property
    def label(self) -> str:
        return self.spec.label or describe(self.spec)


def describe(spec: ExperimentSpec) -> str:
    """Short human-readable job name, e.g. ``llama3-8b/microscopiq W2A8``.

    Includes every identity field beyond the family/method/bits triple
    (substrate prefix when not the LM, quant kwargs as ``g64``/``k=v``, the
    calibration ablation arm, KV setting, eval knobs, non-default eval
    shape): two distinct settings in one sweep must never share a label,
    since the CLI pivot and ``SweepResult.by_label`` key on it.
    """
    prefix = "" if spec.substrate == DEFAULT_SUBSTRATE else f"{spec.substrate}:"
    if spec.job_kind == "hw":
        parts = [f"{k}={v}" for k, v in spec.hw_kwargs]
        kwargs = f" [{','.join(parts)}]" if parts else ""
        return f"{prefix}{spec.family}/{spec.arch}{kwargs}"
    if spec.job_kind == "codesign":
        # Both halves of the stage graph: the quant setting, then the arch.
        quant = describe(spec.quant_stage())
        parts = [f"{k}={v}" for k, v in spec.hw_kwargs]
        kwargs = f" [{','.join(parts)}]" if parts else ""
        return f"{quant} => {spec.arch}{kwargs}"
    if spec.method == FP_METHOD:
        setting = "W16A16"
    else:
        setting = f"W{spec.w_bits}A{spec.act_bits if spec.act_bits else 16}"
    extra = f"+kv{spec.kv_bits}r{spec.kv_residual}" if spec.kv_bits else ""
    parts = []
    if spec.method != FP_METHOD:
        for k, v in spec.quant_kwargs:
            if k in ("group_size", "macro_block"):
                parts.append(f"g{v}")
            else:
                parts.append(f"{k}={v}")
        if spec.calibration != "sequential":
            parts.append(f"calib={spec.calibration}")
    for k, v in spec.eval_kwargs:
        if isinstance(v, (tuple, list)):
            v = "+".join(str(x) for x in v)
        parts.append(f"{k}={v}")
    if (spec.eval_sequences, spec.eval_seq_len) != (32, 32) and _uses_corpus_shape(
        spec.substrate
    ):
        parts.append(f"ev{spec.eval_sequences}x{spec.eval_seq_len}")
    kwargs = f" [{','.join(parts)}]" if parts else ""
    return f"{prefix}{spec.family}/{spec.method} {setting}{extra}{kwargs}"


def _group_kwargs(method: str, group_size: Optional[int]) -> Dict[str, Any]:
    """How ``method`` consumes a group size: the keyword its spec declares
    as ``group_param`` (MicroScopiQ's macro-block vs. the baselines'
    ``group_size``), or nothing for methods with no group knob."""
    spec = _method_spec(method)
    if group_size is None or spec is None or spec.group_param is None:
        return {}
    return {spec.group_param: int(group_size)}


@dataclass(frozen=True)
class SweepSpec:
    """A grid of experiments: the cross-product of the axes below.

    ``substrates`` crosses the grid over workload classes; each family is
    paired only with the substrates that can build it, so a mixed sweep like
    ``substrates=("lm", "cnn"), families=("opt-6.7b", "resnet50")`` runs
    exactly the two valid combinations. ``group_sizes`` maps onto each
    method's natural group knob (MicroScopiQ macro-block vs. baseline
    ``group_size``); ``outlier_formats`` applies to MicroScopiQ-family
    methods only. ``None`` in either axis means "method default" and
    attaches nothing. ``calibrations`` sweeps the engine's
    sequential-vs-parallel calibration ablation.

    ``archs`` is the *hardware* axis: under the default ``kind="auto"``,
    each named accelerator is paired with every (substrate, family)
    combination the :mod:`repro.hw` workload registry can build — an
    independent set of simulation jobs riding the same cache and executors
    (the quantization axes don't cross into it). ``kind="codesign"``
    instead crosses the quantization grid *with* the arch axis: one joint
    ``quantize → lift → simulate`` job per valid combination, so a single
    sweep produces accuracy and hardware metrics from the same quantized
    weights. ``kind="accuracy"`` / ``kind="hw"`` restrict the sweep to one
    side (and reject axes of the other).

    ``prefills`` / ``batches`` / ``n_recons`` are first-class hardware grid
    axes (the Fig. 17-style scaling studies), enumerated like ``w_bits``
    and schema-validated at build: each value lands in the job's
    ``hw_kwargs`` — so their hashes equal the equivalent hand-written
    ``hw_kwargs`` specs — and values are *not* attached to kernels that
    ignore them (``prefill`` on CNN/SSM workloads, ``batch`` on
    transformers, ``n_recon`` on archs without a ReCoN knob), normalizing
    them out of those identities so the grid collapses to the distinct
    cells. ``hw_kwargs`` carries shared simulation knobs, schema-routed to
    the archs that accept them (a promoted key may ride either the axis or
    ``hw_kwargs``, not both). ``method_params`` / ``arch_params`` pin extra
    schema-validated parameters on one method or arch by name (the CLI's
    ``--param method.key=value`` form).
    """

    families: Tuple[str, ...]
    methods: Tuple[str, ...]
    substrates: Tuple[str, ...] = (DEFAULT_SUBSTRATE,)
    w_bits: Tuple[int, ...] = (4,)
    act_bits: Tuple[Optional[int], ...] = (None,)
    group_sizes: Tuple[Optional[int], ...] = (None,)
    outlier_formats: Tuple[Optional[str], ...] = (None,)
    calibrations: Tuple[str, ...] = ("sequential",)
    quant_kwargs: Tuple[Tuple[str, Any], ...] = ()
    archs: Tuple[Optional[str], ...] = (None,)
    hw_kwargs: Tuple[Tuple[str, Any], ...] = ()
    prefills: Tuple[Optional[int], ...] = (None,)
    batches: Tuple[Optional[int], ...] = (None,)
    n_recons: Tuple[Optional[int], ...] = (None,)
    kind: str = "auto"
    method_params: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    arch_params: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    kv_bits: Optional[int] = None
    kv_residual: int = 128
    eval_sequences: int = 32
    eval_seq_len: int = 32
    seed: int = 0
    extra_specs: Tuple[ExperimentSpec, ...] = ()

    def __post_init__(self) -> None:
        for ax in ("families", "methods", "substrates", "w_bits", "act_bits",
                   "group_sizes", "outlier_formats", "calibrations", "archs",
                   "prefills", "batches", "n_recons", "extra_specs"):
            val = getattr(self, ax)
            if not isinstance(val, tuple):
                object.__setattr__(self, ax, tuple(val))
        for ax in ("quant_kwargs", "hw_kwargs"):
            if isinstance(getattr(self, ax), dict):
                object.__setattr__(
                    self, ax, tuple(sorted(getattr(self, ax).items()))
                )
        for ax in ("method_params", "arch_params"):
            val = getattr(self, ax)
            if isinstance(val, dict):
                val = tuple(
                    (name, tuple(sorted(dict(kw).items())))
                    for name, kw in sorted(val.items())
                )
            else:
                val = tuple(
                    (name, tuple(sorted(dict(kw).items()))) for name, kw in val
                )
            object.__setattr__(self, ax, val)
        from ..core.substrate import get_substrate, substrate_families

        swept_arch_names = [a for a in self.archs if a is not None]
        fam_universe: set = set()
        hw_only_subs: List[str] = []
        for sub in self.substrates:
            try:
                get_substrate(sub)  # raises with the known list on miss
            except KeyError:
                # Substrates with only a hardware workload generator (the
                # `gemm` probe class) are valid when an archs axis is swept.
                from ..hw import HW_WORKLOADS

                if sub in HW_WORKLOADS and swept_arch_names:
                    hw_only_subs.append(sub)
                    continue
                raise
            fam_universe.update(substrate_families(sub))
        if hw_only_subs:
            from ..hw import can_build_workload

            def _hw_family_ok(fam: str) -> bool:
                return any(can_build_workload(s, fam) for s in hw_only_subs)
        else:
            def _hw_family_ok(fam: str) -> bool:
                return False
        for fam in self.families:
            if fam not in fam_universe and not _hw_family_ok(fam):
                known = ", ".join(sorted(fam_universe))
                raise KeyError(
                    f"unknown family {fam!r} for substrates "
                    f"{'/'.join(self.substrates)}; known: {known}"
                )
        valid = set(known_methods())
        for m in self.methods:
            if m not in valid:
                raise KeyError(
                    f"unknown method {m!r}; known: {', '.join(sorted(valid))}"
                )
        if self.quant_kwargs:
            # Sweep-level kwargs route only to the methods whose schema
            # accepts them (like group_sizes maps onto each method's group
            # knob) — but a key no swept method accepts is a typo, not a
            # no-op, and must fail the build.
            schemas = []
            for m in self.methods:
                m_spec = _method_spec(m)
                schemas.append(set(m_spec.param_schema()) if m_spec is not None else set())
            for key, _ in self.quant_kwargs:
                if not any(key in schema for schema in schemas):
                    raise KeyError(
                        f"quant_kwargs key {key!r} is not a parameter of any "
                        f"swept method ({', '.join(self.methods)})"
                    )
        for c in self.calibrations:
            if c not in CALIBRATION_MODES:
                raise KeyError(
                    f"unknown calibration mode {c!r}; known: "
                    f"{', '.join(CALIBRATION_MODES)}"
                )
        if self.kind not in ("auto",) + JOB_KINDS:
            raise KeyError(
                f"unknown sweep kind {self.kind!r}; known: auto, "
                f"{', '.join(JOB_KINDS)}"
            )
        swept_archs = [a for a in self.archs if a is not None]
        self._check_kind(swept_archs)
        self._check_grid_axes(swept_archs)
        if swept_archs or self.arch_params or self.hw_kwargs:
            from ..hw import SIM_PARAMS, get_arch

            arch_specs = {a: get_arch(a) for a in swept_archs}  # raises on miss
            if self.hw_kwargs and not swept_archs:
                raise KeyError("hw_kwargs given but no archs are swept")
            sim_keys = {p.name for p in SIM_PARAMS}
            for key, _ in self.hw_kwargs:
                # Like quant_kwargs: schema-routed, but a key no swept arch
                # (nor the simulator) accepts is a typo, not a no-op.
                if key not in sim_keys and not any(
                    key in a.param_schema() for a in arch_specs.values()
                ):
                    raise KeyError(
                        f"hw_kwargs key {key!r} is not a simulation parameter "
                        f"or a parameter of any swept arch "
                        f"({', '.join(swept_archs)})"
                    )
            for name, kw in self.arch_params:
                if name not in arch_specs:
                    raise KeyError(
                        f"arch_params name {name!r} is not a swept arch "
                        f"({', '.join(swept_archs) or 'none'})"
                    )
                from ..hw import check_hw_kwargs

                check_hw_kwargs(arch_specs[name], dict(kw))
        for name, kw in self.method_params:
            if name not in self.methods:
                raise KeyError(
                    f"method_params name {name!r} is not a swept method "
                    f"({', '.join(self.methods) or 'none'})"
                )
            m_spec = _method_spec(name)
            if m_spec is not None:
                m_spec.validate_params(dict(kw))
            elif kw:
                raise KeyError("the fp16 reference takes no method parameters")

    def _check_kind(self, swept_archs: List[str]) -> None:
        """Kind-vs-axes coherence, caught at build time like every typo."""
        if self.kind == "accuracy" and swept_archs:
            raise KeyError(
                "archs given but kind='accuracy' sweeps enumerate no "
                "hardware jobs; drop the archs or use kind='auto'/'hw'/'codesign'"
            )
        if self.kind in ("hw", "codesign") and not swept_archs:
            raise KeyError(f"kind={self.kind!r} given but no archs are swept")
        if self.kind == "hw" and self.methods:
            raise KeyError(
                "methods given but kind='hw' sweeps enumerate no "
                "quantization jobs; drop the methods or use kind='auto'"
            )
        if self.kind == "codesign":
            capable = [
                m for m in self.methods
                if m != FP_METHOD and _method_spec(m).exports_packed
            ]
            if not capable:
                raise KeyError(
                    "kind='codesign' needs at least one swept method that "
                    "exports packed layers (the lift source); got: "
                    f"{', '.join(self.methods) or 'none'}"
                )

    def _promoted_axes(self) -> Dict[str, Tuple[Optional[int], ...]]:
        """The promoted hardware grid axes that are actually swept."""
        axes = {
            "prefill": self.prefills,
            "batch": self.batches,
            "n_recon": self.n_recons,
        }
        return {k: v for k, v in axes.items() if tuple(v) != (None,)}

    def _check_grid_axes(self, swept_archs: List[str]) -> None:
        """Validate the prefills/batches/n_recons axes: schema-typed values,
        no double-specification via ``hw_kwargs``, and at least one swept
        kernel that consumes each axis (an axis nothing reads is a typo,
        not a no-op — the quant_kwargs/hw_kwargs philosophy)."""
        promoted = self._promoted_axes()
        if not promoted:
            return
        hw_keys = {k for k, _ in self.hw_kwargs}
        pinned = {k for _, kw in self.arch_params for k, _ in kw}
        for key in promoted:
            if key in hw_keys:
                raise ValueError(
                    f"{key!r} is both a grid axis and an hw_kwargs entry; "
                    f"pass it one way (the axis form enumerates, hw_kwargs "
                    f"pins one value)"
                )
            if key in pinned:
                # A targeted pin overrides last in _hw_kwargs_grid — it
                # would silently collapse every axis point to one cell.
                raise ValueError(
                    f"{key!r} is both a grid axis and an arch_params pin; "
                    f"pass it one way (the axis form enumerates, the pin "
                    f"fixes one value)"
                )
        if not swept_archs:
            raise KeyError(
                f"grid axis {'/'.join(promoted)} given but no archs are "
                "swept (hardware grid axes only shape hardware/codesign jobs)"
            )
        from ..hw import SIM_PARAMS, get_arch, workload_shape_params

        sim_schema = {p.name: p for p in SIM_PARAMS}
        for key, values in promoted.items():
            if key in sim_schema:
                schema = sim_schema[key]
                consumed = any(
                    key in workload_shape_params(s) for s in self.substrates
                )
                what = f"workload of any swept substrate ({', '.join(self.substrates)})"
            else:  # n_recon and future arch-schema axes
                schemas = [
                    get_arch(a).param_schema().get(key) for a in swept_archs
                ]
                schema = next((s for s in schemas if s is not None), None)
                consumed = schema is not None
                what = f"parameter of any swept arch ({', '.join(swept_archs)})"
            if not consumed:
                raise KeyError(f"grid axis {key!r} is not consumed by the {what}")
            for v in values:
                if v is not None:
                    schema.check(v, "grid axis")

    def specs(self) -> List[ExperimentSpec]:
        """Enumerate the grid (plus ``extra_specs``), de-duplicated.

        (substrate, family) pairs the registry cannot build are skipped, so
        mixed-substrate sweeps enumerate exactly the valid combinations.
        """
        from ..core.substrate import SUBSTRATES, substrate_families

        # Hardware-only workload substrates (not in the accuracy registry)
        # contribute no quantization cells; the hw axis resolves them.
        sub_families = {
            s: set(substrate_families(s)) if s in SUBSTRATES else None
            for s in self.substrates
        }
        out: List[ExperimentSpec] = []
        seen = set()

        def add(spec: ExperimentSpec) -> None:
            k = json.dumps(spec.key(), sort_keys=True)
            if k not in seen:
                seen.add(k)
                out.append(spec)

        if self.kind in ("auto", "accuracy"):
            for sub, fam, method, wb, ab, cal, kw in self._quant_grid(sub_families):
                add(
                    ExperimentSpec(
                        family=fam,
                        substrate=sub,
                        method=method,
                        w_bits=wb,
                        act_bits=ab,
                        quant_kwargs=tuple(sorted(kw.items())),
                        calibration=cal,
                        kv_bits=self.kv_bits,
                        kv_residual=self.kv_residual,
                        eval_sequences=self.eval_sequences,
                        eval_seq_len=self.eval_seq_len,
                    )
                )
        if self.kind in ("auto", "hw"):
            for spec in self._hw_specs(sub_families):
                add(spec)
        if self.kind == "codesign":
            for spec in self._codesign_specs(sub_families):
                add(spec)
        for spec in self.extra_specs:
            add(spec)
        return out

    def _quant_grid(self, sub_families):
        """The valid quantization combinations: (sub, family, method, w_bits,
        act_bits, calibration, routed kwargs) tuples, invalid pairs skipped."""
        per_method = dict(self.method_params)
        grid = itertools.product(
            self.substrates, self.families, self.methods, self.w_bits,
            self.act_bits, self.group_sizes, self.outlier_formats,
            self.calibrations,
        )
        for sub, fam, method, wb, ab, gs, ofmt, cal in grid:
            if sub_families[sub] is None or fam not in sub_families[sub]:
                continue
            spec_obj = _method_spec(method)
            if spec_obj is not None and not spec_obj.supports_substrate(sub):
                continue  # like unbuildable families: skip invalid pairs
            if method == FP_METHOD:
                kw: Dict[str, Any] = {}  # the FP reference ignores quantizer knobs
            else:
                schema = spec_obj.param_schema()
                kw = {k: v for k, v in self.quant_kwargs if k in schema}
                kw.update(_group_kwargs(method, gs))
                if ofmt is not None and "outlier_format" in schema:
                    kw["outlier_format"] = ofmt
                kw.update(dict(per_method.get(method, ())))
            yield sub, fam, method, wb, None if method == FP_METHOD else ab, cal, kw

    def _hw_kwargs_grid(self, arch, sub) -> List[Dict[str, Any]]:
        """Enumerate one arch × substrate cell's ``hw_kwargs`` over the
        promoted grid axes: schema-routed shared knobs, then one dict per
        (prefill, batch, n_recon) combination — axis values attach ONLY to
        kernels that consume them (the substrate's workload shape params,
        the arch's own schema), so ignored values normalize out of the
        identity and the grid collapses to its distinct cells. Targeted
        ``arch_params`` override last, like everywhere else."""
        from ..hw import SIM_PARAMS, workload_shape_params

        sim_keys = {p.name for p in SIM_PARAMS}
        schema = set(arch.param_schema()) | sim_keys
        base = {k: v for k, v in self.hw_kwargs if k in schema}
        pinned = dict(dict(self.arch_params).get(arch.name, ()))
        shape = workload_shape_params(sub)
        grids: List[Dict[str, Any]] = []
        for prefill, batch, n_recon in itertools.product(
            self.prefills, self.batches, self.n_recons
        ):
            kw = dict(base)
            if prefill is not None and "prefill" in shape:
                kw["prefill"] = prefill
            if batch is not None and "batch" in shape:
                kw["batch"] = batch
            if n_recon is not None and "n_recon" in arch.param_schema():
                kw["n_recon"] = n_recon
            kw.update(pinned)
            grids.append(kw)
        return grids

    def _hw_specs(self, sub_families) -> List[ExperimentSpec]:
        """The hardware axis: one simulation job per valid
        (substrate, family, arch, grid-axis point); pairs without a hardware
        workload or outside an arch's substrate support are skipped like
        unbuildable families."""
        swept = [a for a in self.archs if a is not None]
        if not swept:
            return []
        from ..hw import can_build_workload, get_arch

        out: List[ExperimentSpec] = []
        for sub in self.substrates:
            for fam in self.families:
                if not can_build_workload(sub, fam):
                    continue
                # Accuracy-registry substrates keep their family universe;
                # hardware-only ones (sub_families None) accept whatever the
                # workload factory can build (pattern families like gemm's).
                if sub_families[sub] is not None and fam not in sub_families[sub]:
                    continue
                for name in swept:
                    arch = get_arch(name)
                    if not arch.supports_substrate(sub):
                        continue
                    for kw in self._hw_kwargs_grid(arch, sub):
                        out.append(
                            ExperimentSpec(
                                family=fam,
                                substrate=sub,
                                arch=name,
                                hw_kwargs=tuple(sorted(kw.items())),
                            )
                        )
        return out

    def _codesign_specs(self, sub_families) -> List[ExperimentSpec]:
        """The stage-graph cross: the quantization grid × the hardware axes,
        one ``kind="codesign"`` job per combination both sides can build —
        the method exports packed layers to lift, the (substrate, family)
        pair has a hardware workload, the arch supports the substrate."""
        from ..hw import can_build_workload, get_arch

        swept = [a for a in self.archs if a is not None]
        out: List[ExperimentSpec] = []
        for sub, fam, method, wb, ab, cal, kw in self._quant_grid(sub_families):
            if method == FP_METHOD or not _method_spec(method).exports_packed:
                continue  # nothing measured to lift: skip like invalid pairs
            if not can_build_workload(sub, fam):
                continue
            for name in swept:
                arch = get_arch(name)
                if not arch.supports_substrate(sub):
                    continue
                for hw_kw in self._hw_kwargs_grid(arch, sub):
                    out.append(
                        ExperimentSpec(
                            family=fam,
                            substrate=sub,
                            method=method,
                            w_bits=wb,
                            act_bits=ab,
                            quant_kwargs=tuple(sorted(kw.items())),
                            calibration=cal,
                            kv_bits=self.kv_bits,
                            kv_residual=self.kv_residual,
                            eval_sequences=self.eval_sequences,
                            eval_seq_len=self.eval_seq_len,
                            arch=name,
                            hw_kwargs=tuple(sorted(hw_kw.items())),
                            kind="codesign",
                        )
                    )
        return out

    def jobs(self, version: str = "") -> List[Job]:
        """The grid as dispatchable, content-hashed jobs."""
        return [Job(spec, seed=self.seed, version=version) for spec in self.specs()]

    @staticmethod
    def from_specs(
        specs: Iterable[ExperimentSpec], seed: int = 0, **kwargs
    ) -> SweepSpec:
        """A sweep that is just an explicit list of experiments (no grid)."""
        return SweepSpec(
            families=(), methods=(), extra_specs=tuple(specs), seed=seed, **kwargs
        )
