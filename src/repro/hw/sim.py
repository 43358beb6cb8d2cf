"""The one simulation entry point: ``simulate(arch, workload, cfg) → SimReport``.

Replaces the seed-era ``simulate_arch_inference`` / ``energy_of`` /
``total_accelerator_area`` call soup with a single call that returns every
quantity the benchmarks pivot on — latency, energy split, area breakdown,
EBW, and ReCoN contention — in one dataclass. Two passes feed the report:

* the **precision-mix pass** executes the arch's iso-accuracy profile
  (per-tier packing/EBW, alignment and decode penalties), numerically
  identical to the seed-era inference loop;
* the **native pass** runs the workload once per streaming phase at a fixed
  bit budget with the outlier-aware native EBW and no arch penalties — the
  arch-independent reference the ReCoN microbenchmarks (Fig. 16/18a) read.

:data:`SIM_PARAMS` is the shared simulation-knob schema; together with each
arch's own :class:`~repro.methods.spec.Param` schema it validates the
pipeline's ``hw_kwargs`` at spec-build time. :func:`run_hw_job` is the
pipeline job kernel: a pure function of the experiment spec, so hardware
points content-hash, cache, and parallelize exactly like accuracy points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..methods.spec import MethodParamError, Param
from ..obs.trace import trace
from .archs import HwArchSpec, HwParamError, get_arch
from .area import AreaBreakdown, compute_density_tops_mm2, sram_area_mm2
from .config import AcceleratorConfig
from .energy import EnergyParams, EnergyReport, energy_of
from .mapping import LayerSpec
from .systolic import GemmStats, simulate_gemm
from .workloads import HwWorkload, build_workload

__all__ = [
    "SIM_PARAMS",
    "NativePhase",
    "SimReport",
    "check_hw_kwargs",
    "run_hw_job",
    "run_measured_hw_job",
    "simulate",
]


# Simulation-wide knobs, shared by every arch; design-specific knobs live on
# each spec (`HwArchSpec.params`). Together they are the schema the pipeline
# validates `hw_kwargs` against at spec-build time.
SIM_PARAMS: Tuple[Param, ...] = (
    Param("rows", 64, (int,), "PE array rows"),
    Param("cols", 64, (int,), "PE array columns (power of two)"),
    Param("prefill", 128, (int,), "prompt tokens per prefill (transformer workloads)"),
    Param("decode_tokens", 32, (int,), "generated tokens (transformer workloads)"),
    Param("batch", 1, (int,), "inputs per inference (CNN images / SSM sequences / GEMM vectors)"),
    Param("bit_budget", 2, (int,), "native-pass weight bit budget", choices=(2, 4, 8)),
    Param("dram_gbps", 256.0, (float, int), "off-chip (HBM2) bandwidth, GB/s"),
    Param("sram_gbps", 64.0, (float, int), "L2-to-buffer bandwidth, GB/s"),
    Param("freq_ghz", 1.0, (float, int), "clock frequency, GHz"),
    Param("buffer_kb", None, (float, int), "on-chip buffer size for the total-area figure (default: the config's buffers)"),
    Param("l2_kb", 2048.0, (float, int), "L2 size for the total-area figure, KB"),
    Param("outlier_fraction", None, (float,), "per-weight outlier rate override (gemm probe workloads)"),
)

_SIM_SCHEMA: Dict[str, Param] = {p.name: p for p in SIM_PARAMS}
_CFG_KEYS = ("rows", "cols", "dram_gbps", "sram_gbps", "freq_ghz")
_SHAPE_KEYS = ("prefill", "decode_tokens", "batch", "bit_budget", "outlier_fraction")


def check_hw_kwargs(arch: HwArchSpec, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Validate pipeline ``hw_kwargs`` against ``SIM_PARAMS`` + the arch schema.

    Unknown keys and type/choice violations raise :class:`HwParamError`
    listing both schemas — the hardware twin of method-kwarg validation,
    run before any job is hashed or dispatched.
    """
    arch_schema = arch.param_schema()
    unknown = sorted(set(kwargs) - set(_SIM_SCHEMA) - set(arch_schema))
    if unknown:
        sim = ", ".join(p.describe() for p in SIM_PARAMS)
        raise HwParamError(
            f"arch {arch.name!r} got unknown hw parameter(s) "
            f"{', '.join(repr(u) for u in unknown)}; simulation schema: {sim}; "
            f"arch schema: {arch.describe_schema()}"
        )
    for key, value in kwargs.items():
        schema = arch_schema.get(key, _SIM_SCHEMA.get(key))
        try:
            schema.check(value, arch.name)
        except MethodParamError as exc:
            raise HwParamError(f"arch {exc}") from None
    return kwargs


@dataclass
class NativePhase:
    """One streaming phase of the native (arch-independent) pass."""

    phase: str
    stats: GemmStats
    executions: float = 1.0


@dataclass
class SimReport:
    """Everything one hardware simulation produced, in one place.

    ``cycles``/``stats``/``energy`` come from the precision-mix pass (the
    Fig. 12/13 inference comparison); ``area`` is the component breakdown at
    the simulated array dimensions; ``native`` holds the per-phase
    native-EBW pass (Fig. 16/18a microbenchmarks); ``gpu`` carries the
    kernel cost model's numbers for ``kind="gpu"`` archs.
    """

    arch: str
    workload: str
    substrate: str
    freq_ghz: float = 1.0
    cycles: float = 0.0
    stats: Optional[GemmStats] = None
    energy: Optional[EnergyReport] = None
    ebw_bits: float = 0.0
    area: Optional[AreaBreakdown] = None
    density_tops_mm2: Optional[float] = None
    area_overhead_pct: Optional[float] = None
    sram_mm2: Optional[float] = None
    native: List[NativePhase] = field(default_factory=list)
    gpu: Optional[Dict[str, float]] = None

    @property
    def latency_ms(self) -> float:
        return self.cycles / (self.freq_ghz * 1e6)

    @property
    def conflict_pct(self) -> float:
        return self.stats.conflict_pct if self.stats is not None else 0.0

    @property
    def total_area_mm2(self) -> Optional[float]:
        """Compute area + buffers + L2 (the Fig. 17 comparison)."""
        if self.area is None or self.sram_mm2 is None:
            return None
        return self.area.total_mm2 + self.sram_mm2

    @property
    def native_cycles(self) -> float:
        """Native-pass inference cycles: Σ phase executions × phase cycles."""
        return sum(p.executions * p.stats.cycles for p in self.native)

    def metrics(self) -> Dict[str, Any]:
        """The flat JSON-able form pipeline jobs cache and pivot on."""
        out: Dict[str, Any] = {
            "arch": self.arch,
            "workload": self.workload,
            "substrate": self.substrate,
        }
        if self.gpu is not None:
            out.update(self.gpu)
            return out
        out.update(
            cycles=self.cycles,
            latency_ms=self.latency_ms,
            ebw_bits=self.ebw_bits,
        )
        if self.stats is not None:
            st = self.stats
            out.update(
                compute_cycles=st.compute_cycles,
                dram_cycles=st.dram_cycles,
                sram_cycles=st.sram_cycles,
                macs=st.macs,
                dram_bits=st.dram_bits,
                sram_bits=st.sram_bits,
                recon_accesses=st.recon_accesses,
                recon_conflicts=st.recon_conflicts,
                recon_values=st.recon_values,
                conflict_pct=st.conflict_pct,
            )
        if self.energy is not None:
            en = self.energy
            out.update(
                energy_nj=en.total_nj,
                energy_core_nj=en.core_dynamic_nj,
                energy_dram_nj=en.dram_nj,
                energy_sram_nj=en.sram_nj,
                energy_static_nj=en.static_nj,
            )
        if self.area is not None:
            out.update(
                area_mm2=self.area.total_mm2,
                area_um2=self.area.total_um2,
                area_components={c.name: c.total_um2 for c in self.area.components},
                area_overhead_pct=self.area_overhead_pct,
                density_tops_mm2=self.density_tops_mm2,
                sram_mm2=self.sram_mm2,
                total_area_mm2=self.total_area_mm2,
            )
        if self.native:
            out["native"] = {
                p.phase: {
                    "cycles": p.stats.cycles,
                    "conflict_pct": p.stats.conflict_pct,
                    "recon_accesses": p.stats.recon_accesses,
                    "executions": p.executions,
                }
                for p in self.native
            }
            out["native_cycles"] = self.native_cycles
        return out


def _strip_recon(spec: LayerSpec) -> LayerSpec:
    """The same layer with outlier traffic removed (non-ReCoN designs)."""
    return LayerSpec(
        spec.name, spec.d_out, spec.d_in, spec.bit_budget, spec.ebw, 0.0,
        spec.micro_block, spec.count,
    )


def _mix_pass(arch: HwArchSpec, workload: HwWorkload, cfg: AcceleratorConfig) -> GemmStats:
    """The iso-accuracy precision-mix inference (seed-identical arithmetic)."""

    def run(spec: LayerSpec, m: int, pack: float) -> GemmStats:
        st = simulate_gemm(spec, m, cfg, pack=pack)
        st.dram_cycles *= arch.unaligned_penalty
        st.cycles = max(st.compute_cycles, st.dram_cycles, st.sram_cycles)
        return st

    total = GemmStats()
    for bits, frac in arch.precision_mix:
        pack = arch.pack_by_bits[bits] if arch.pack_by_bits else None
        for unit in workload.units(bits, ebw=arch.ebw_by_bits.get(bits)):
            spec = unit.spec if arch.uses_recon else _strip_recon(unit.spec)
            layer_total = GemmStats()
            for stream in unit.streams:
                layer_total = layer_total.merged_with(
                    run(spec, stream.m, pack), scale=stream.repeat * stream.executions
                )
            total = total.merged_with(layer_total, scale=frac * spec.count)
    return total


def _native_pass(
    workload: HwWorkload, cfg: AcceleratorConfig, bit_budget: int
) -> List[NativePhase]:
    """Per-phase workload pass at native EBW, no arch penalties or packing."""
    phases: Dict[str, NativePhase] = {}
    for unit in workload.units(bit_budget, ebw=None):
        for stream in unit.streams:
            unit_stats = GemmStats().merged_with(
                simulate_gemm(unit.spec, stream.m, cfg), scale=stream.repeat
            )
            phase = phases.get(stream.phase)
            if phase is None:
                phase = phases[stream.phase] = NativePhase(
                    stream.phase, GemmStats(), stream.executions
                )
            phase.stats = phase.stats.merged_with(unit_stats, scale=unit.spec.count)
    return list(phases.values())


def _gpu_report(arch: HwArchSpec, workload: HwWorkload) -> SimReport:
    from ..gpu.cost_model import decode_step_ms, token_throughput

    geometry = getattr(workload, "geometry", None)
    if geometry is None:
        raise HwParamError(
            f"arch {arch.name!r} (GPU kernel cost model) needs a transformer "
            f"workload; got {workload.name!r} ({workload.substrate})"
        )
    decode_ms = decode_step_ms(arch.gpu_method, geometry)
    return SimReport(
        arch=arch.name,
        workload=workload.name,
        substrate=workload.substrate,
        cycles=decode_ms * 1e6,
        gpu={
            "decode_ms": decode_ms,
            "tokens_per_s": token_throughput(arch.gpu_method, geometry),
        },
    )


def simulate(
    arch: HwArchSpec | str,
    workload: HwWorkload,
    cfg: Optional[AcceleratorConfig] = None,
    *,
    arch_knobs: Optional[Dict[str, Any]] = None,
    native_bit_budget: int = 2,
    buffer_kb: Optional[float] = None,
    l2_kb: float = 2048.0,
    include_native: bool = True,
    include_area: bool = True,
) -> SimReport:
    """Simulate ``workload`` on ``arch``: the single hardware entry point.

    Args:
        arch: an :class:`HwArchSpec` or a registry name.
        workload: any :class:`~repro.hw.workloads.HwWorkload`.
        cfg: array/bandwidth configuration (defaults to the paper's 64×64).
        arch_knobs: design-specific parameters from the arch's ``Param``
            schema, forwarded to its area builder (``n_recon`` additionally
            configures the performance model's ReCoN count through ``cfg``).
        native_bit_budget: bit budget of the native reference pass.
        buffer_kb: buffer size for the total-area figure (defaults to the
            config's weight + activation buffers).
        l2_kb: L2 size for the total-area figure.
        include_native / include_area: skip the extra passes when only the
            precision-mix inference is needed.
    """
    if isinstance(arch, str):
        arch = get_arch(arch)
    cfg = cfg or AcceleratorConfig()
    if arch.kind == "gpu":
        return _gpu_report(arch, workload)

    total = _mix_pass(arch, workload, cfg)
    energy = energy_of(
        total,
        EnergyParams(
            mac_bits=arch.mac_bits,
            unaligned_dram_penalty=arch.unaligned_penalty,
            decode_pj_per_mac=arch.decode_pj_per_mac,
            # Specs without an area model fall back to the energy model's
            # representative leakage area instead of failing the sim.
            area_mm2=(
                arch.area_mm2
                if arch.area_builder is not None
                else EnergyParams.area_mm2
            ),
            freq_ghz=cfg.freq_ghz,
        ),
    )
    report = SimReport(
        arch=arch.name,
        workload=workload.name,
        substrate=workload.substrate,
        freq_ghz=cfg.freq_ghz,
        cycles=total.cycles,
        stats=total,
        energy=energy,
        ebw_bits=arch.ebw_bits(),
    )
    if include_area and arch.area_builder is not None:
        knobs = dict(arch_knobs or {})
        if "n_recon" in arch.param_schema():
            knobs.setdefault("n_recon", cfg.n_recon)
        area = arch.area(cfg.rows, cfg.cols, **knobs)
        report.area = area
        report.area_overhead_pct = area.overhead_pct(arch.area_baseline)
        report.density_tops_mm2 = compute_density_tops_mm2(
            area, cfg.rows, cfg.cols, arch.density_macs_per_pe, cfg.freq_ghz
        )
        if buffer_kb is None:
            buffer_kb = float(cfg.weight_buffer_kb + cfg.act_buffer_kb)
        report.sram_mm2 = sram_area_mm2(buffer_kb) + sram_area_mm2(l2_kb)
    if include_native:
        report.native = _native_pass(workload, cfg, native_bit_budget)
    return report


# ------------------------------------------------------------ pipeline glue --


def _hw_call(substrate: str, arch_name: str, hw_kwargs: Dict[str, Any]):
    """Shared job setup: validated knobs → (arch, shape, cfg, simulate kwargs)."""
    arch = get_arch(arch_name)
    kwargs = check_hw_kwargs(arch, dict(hw_kwargs))
    arch.check_substrate(substrate)

    def knob(key: str) -> Any:
        return kwargs.get(key, _SIM_SCHEMA[key].default)

    # Design-specific knobs (the arch's own Param schema, defaults applied)
    # are forwarded to the area builder; `n_recon` additionally sets the
    # performance model's ReCoN count.
    arch_knobs = {k: v for k, v in arch.defaults().items() if v is not None}
    arch_knobs.update((k, v) for k, v in kwargs.items() if k in arch.param_schema())
    n_recon = arch_knobs.get("n_recon", 1)

    shape = {k: knob(k) for k in _SHAPE_KEYS}
    cfg = AcceleratorConfig(
        rows=knob("rows"),
        cols=knob("cols"),
        n_recon=n_recon if isinstance(n_recon, int) else 1,
        dram_gbps=float(knob("dram_gbps")),
        sram_gbps=float(knob("sram_gbps")),
        freq_ghz=float(knob("freq_ghz")),
    )
    buffer_kb = knob("buffer_kb")
    sim_kwargs = dict(
        arch_knobs=arch_knobs,
        native_bit_budget=shape["bit_budget"],
        buffer_kb=None if buffer_kb is None else float(buffer_kb),
        l2_kb=float(knob("l2_kb")),
    )
    return arch, shape, cfg, sim_kwargs


def run_hw_job(
    substrate: str, family: str, arch_name: str, hw_kwargs: Dict[str, Any]
) -> Dict[str, Any]:
    """The pipeline's hardware job kernel: spec fields in, flat metrics out.

    A pure function of its arguments (the simulator is deterministic), so
    hardware jobs are cacheable by content hash and bit-identical across
    serial, process and remote executors.
    """
    arch, shape, cfg, sim_kwargs = _hw_call(substrate, arch_name, hw_kwargs)
    workload = build_workload(substrate, family, **shape)
    with trace(
        "kernel:simulate", arch=arch.name, substrate=substrate, family=family
    ):
        return simulate(arch, workload, cfg, **sim_kwargs).metrics()


def run_measured_hw_job(
    substrate: str,
    family: str,
    arch_name: str,
    hw_kwargs: Dict[str, Any],
    layers: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """The co-design pipeline's hardware stage: simulate on *measured* stats.

    ``layers`` is the quant stage's per-layer lift (geometry, EBW, and the
    measured ``outlier_ub_fraction`` of each quantized matrix — what
    :func:`~repro.eval.harness.evaluate_setting` exports for packed-layer
    methods). The (substrate, family) base workload supplies streaming and
    full-size geometry; :class:`~repro.hw.workloads.MeasuredWorkload`
    substitutes the measured outlier structure for the iid per-family rates,
    so latency / energy / EBW come from the same quantization the accuracy
    metrics did. Pure and deterministic like :func:`run_hw_job`; metrics
    additionally carry the measured-vs-iid lift summary.
    """
    from .workloads import MeasuredWorkload

    arch, shape, cfg, sim_kwargs = _hw_call(substrate, arch_name, hw_kwargs)
    base = build_workload(substrate, family, **shape)
    # Outlier-aware (ReCoN) archs store outliers in the measured μB
    # structure, so their EBW follows the lift; fixed-format archs keep
    # their per-tier stored bits/weight (GPU cost models read neither).
    workload = MeasuredWorkload.from_layer_stats(
        base, layers, use_measured_ebw=getattr(arch, "uses_recon", True)
    )
    with trace(
        "kernel:simulate", arch=arch.name, substrate=substrate, family=family,
        measured=True,
    ):
        metrics = simulate(arch, workload, cfg, **sim_kwargs).metrics()

    measured = dict(workload.roles)
    matched = [
        u.spec.outlier_ub_fraction
        for u in base.units(shape["bit_budget"])
        if MeasuredWorkload.role_of(u.spec.name) in measured
    ]
    metrics["measured_outlier_ub_fraction"] = (
        sum(f for f, _ in measured.values()) / len(measured) if measured else 0.0
    )
    metrics["iid_outlier_ub_fraction"] = (
        sum(matched) / len(matched) if matched else 0.0
    )
    metrics["measured_mean_ebw"] = (
        sum(float(st["ebw"]) for st in layers.values()) / len(layers)
        if layers
        else 0.0
    )
    metrics["measured_roles"] = {role: f for role, (f, _) in measured.items()}
    return metrics
