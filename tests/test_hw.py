"""The repro.hw registry: spec conformance, workloads, sim, and pipeline glue.

Covers the acceptance surface of the `repro.hw` redesign:

* registry conformance — every builtin arch simulates every substrate's
  hardware workload; area breakdowns sum; the simulator is deterministic
  across executors;
* golden values — the registry/pipeline path reproduces the seed-era
  numbers (Table 5 areas/density, Table 6 throughput, Fig. 13 latency)
  bit-for-bit;
* spec-build-time validation — unknown archs, unknown/ill-typed hw
  parameters (with the schema in the error), unsupported arch × substrate
  pairs;
* the deprecated :mod:`repro.accelerator` shim;
* pipeline integration — hardware jobs hash stably, normalize quantization
  fields out of their identity, cache, and run through the CLI (including
  the ``--archs``/``--param``/``describe`` surface and arch plugins with
  version-sensitive job hashes).
"""

from __future__ import annotations

import sys
import warnings

import pytest

from repro.hw import (
    ARCHS,
    GEOMETRIES,
    AcceleratorConfig,
    HwArchSpec,
    HwParamError,
    HwWorkload,
    SimReport,
    build_workload,
    check_hw_kwargs,
    get_arch,
    known_arch_names,
    run_hw_job,
    simulate,
    simulate_arch_inference,
    workload_families,
    workload_substrates,
)
from repro.pipeline import ExperimentSpec, SweepSpec, run_sweep
from repro.pipeline.spec import Job, describe

SYSTOLIC = [n for n, a in ARCHS.items() if a.kind == "systolic"]
GPU = [n for n, a in ARCHS.items() if a.kind == "gpu"]

# Small streaming shapes keep the conformance sweep fast.
FAST = {"prefill": 1, "decode_tokens": 1}


class TestRegistry:
    def test_builtin_archs_present(self):
        assert {"microscopiq-v1", "microscopiq-v2", "olive", "gobo",
                "olaccel", "ant", "adaptivfloat"} <= set(SYSTOLIC)
        assert {"gpu-trtllm-fp16", "gpu-atom-w4a4", "gpu-ms-noopt",
                "gpu-ms-optim", "gpu-ms-mtc"} <= set(GPU)
        assert known_arch_names() == sorted(ARCHS)

    def test_get_arch_unknown_lists_known(self):
        with pytest.raises(KeyError, match="unknown arch.*known:"):
            get_arch("tpu-v9")

    def test_every_substrate_has_workload_families(self):
        for sub in ("lm", "vlm", "cnn", "ssm", "gemm"):
            assert sub in workload_substrates()
            assert workload_families(sub), f"no hw families for {sub}"

    def test_workload_families_cover_substrate_registries(self):
        """CNN and SSM generators emit LayerSpecs for every family in their
        substrate registries (the ROADMAP item this PR closes)."""
        from repro.models.cnn import CNN_PROFILES
        from repro.models.ssm import SSM_PROFILES

        assert set(workload_families("cnn")) == set(CNN_PROFILES)
        assert set(workload_families("ssm")) == set(SSM_PROFILES)
        for sub in ("cnn", "ssm"):
            for family in workload_families(sub):
                workload = build_workload(sub, family)
                assert isinstance(workload, HwWorkload)
                units = workload.units(2)
                assert units and all(u.spec.d_out > 0 for u in units)

    def test_cnn_workload_is_im2col_lowered(self):
        from repro.models.cnn import CNN_PROFILES

        profile = CNN_PROFILES["resnet50"]
        units = build_workload("cnn", "resnet50").units(2)
        assert len(units) == len(profile.channels)
        assert units[0].spec.d_in == 3 * 9  # c_in * k*k at the stem
        # One streamed vector per output pixel at the full resolution.
        assert units[0].streams[0].m == profile.img_hw ** 2

    def test_ssm_workload_scans(self):
        from repro.models.ssm import SSM_PROFILES

        profile = SSM_PROFILES["vmamba-s"]
        units = build_workload("ssm", "vmamba-s").units(2)
        names = [u.spec.name.rsplit(".", 1)[1] for u in units]
        assert names == ["w_in", "w_gate_a", "w_gate_b", "w_out"]
        # Input projections repeat once per recurrence step.
        assert units[0].streams[0].repeat == profile.seq_len
        assert units[-1].streams[0].repeat == 1.0

    def test_gemm_workload_parses_family(self):
        wl = build_workload("gemm", "512x256", outlier_fraction=0.02)
        (unit,) = wl.units(2)
        assert (unit.spec.d_out, unit.spec.d_in) == (512, 256)
        with pytest.raises(KeyError, match="4096x4096"):
            build_workload("gemm", "not-a-shape")


class TestArchSpec:
    def test_area_breakdowns_sum(self):
        for name in SYSTOLIC:
            arch = ARCHS[name]
            breakdown = arch.area()
            assert breakdown.total_um2 == sum(
                c.total_um2 for c in breakdown.components
            )
            assert breakdown.total_mm2 == pytest.approx(breakdown.total_um2 / 1e6)
            assert arch.area_mm2 > 0

    def test_unknown_area_knob_lists_schema(self):
        with pytest.raises(HwParamError, match="schema"):
            ARCHS["olive"].area(n_recon=4)

    def test_param_type_violation(self):
        with pytest.raises(HwParamError, match="expects int"):
            check_hw_kwargs(ARCHS["microscopiq-v2"], {"n_recon": "many"})

    def test_sim_param_choice_violation(self):
        with pytest.raises(HwParamError, match="must be one of"):
            check_hw_kwargs(ARCHS["microscopiq-v2"], {"bit_budget": 3})

    def test_ebw_bits_is_mix_weighted(self):
        v2 = ARCHS["microscopiq-v2"]
        assert v2.ebw_bits() == pytest.approx(0.8 * 2.36 + 0.2 * 4.15)

    def test_capabilities_dict(self):
        caps = ARCHS["microscopiq-v2"].capabilities()
        assert caps["kind"] == "systolic" and caps["recon"]
        assert "n_recon" in caps["params"]


class TestSimulate:
    @pytest.mark.parametrize("arch", SYSTOLIC)
    @pytest.mark.parametrize(
        "sub,family",
        [("lm", "phi3-3.8b"), ("vlm", "vila-7b"), ("cnn", "vgg16"),
         ("ssm", "vim-s"), ("gemm", "256x256")],
    )
    def test_every_arch_simulates_every_substrate(self, arch, sub, family):
        workload = build_workload(sub, family, **FAST)
        report = simulate(arch, workload)
        assert isinstance(report, SimReport)
        assert report.cycles > 0 and report.latency_ms > 0
        assert report.energy.total_nj > 0
        assert report.stats.macs > 0
        metrics = report.metrics()
        assert metrics["substrate"] == sub and metrics["arch"] == arch

    @pytest.mark.parametrize("arch", GPU)
    def test_gpu_archs_simulate_transformers(self, arch):
        report = simulate(arch, build_workload("lm", "opt-6.7b"))
        assert report.gpu["tokens_per_s"] > 0
        assert report.metrics()["decode_ms"] == report.gpu["decode_ms"]

    def test_gpu_archs_reject_non_transformer_workloads(self):
        with pytest.raises(HwParamError, match="transformer"):
            simulate("gpu-atom-w4a4", build_workload("cnn", "resnet50"))

    def test_simulate_matches_legacy_entry_point(self):
        geom = GEOMETRIES["llama2-7b"]
        legacy = simulate_arch_inference("microscopiq-v2", geom, prefill=4, decode_tokens=8)
        report = simulate(
            "microscopiq-v2",
            build_workload("lm", "llama2-7b", prefill=4, decode_tokens=8),
        )
        assert report.cycles == legacy.cycles
        assert report.energy.total_nj == legacy.energy.total_nj

    def test_non_recon_archs_strip_outlier_traffic(self):
        report = simulate("olive", build_workload("lm", "phi3-3.8b", **FAST))
        assert report.stats.recon_accesses == 0

    def test_native_pass_reports_phases(self):
        report = simulate(
            "microscopiq-v2", build_workload("lm", "phi3-3.8b", prefill=4, decode_tokens=8)
        )
        phases = {p.phase: p for p in report.native}
        assert set(phases) == {"prefill", "decode"}
        assert phases["decode"].executions == 8.0
        assert report.native_cycles == (
            phases["prefill"].stats.cycles + 8.0 * phases["decode"].stats.cycles
        )

    def test_simulate_is_deterministic(self):
        a = run_hw_job("cnn", "resnet50", "microscopiq-v2", dict(FAST))
        b = run_hw_job("cnn", "resnet50", "microscopiq-v2", dict(FAST))
        assert a == b

    def test_arch_without_area_model_still_simulates(self):
        minimal = HwArchSpec(
            name="bare", summary="no area model",
            pack_by_bits={4: 1}, ebw_by_bits={4: 4.0},
        )
        report = simulate(minimal, build_workload("lm", "opt-6.7b", **FAST))
        assert report.cycles > 0 and report.energy.total_nj > 0
        assert report.area is None
        assert "area_mm2" not in report.metrics()

    def test_arch_knobs_reach_the_area_builder(self):
        from repro.hw import AreaBreakdown, AreaComponent, Param

        def lane_area(rows=64, cols=64, lanes=4):
            return AreaBreakdown(
                "laned", [AreaComponent("PE array", 2.0, rows * cols),
                          AreaComponent("Lanes", 10.0, lanes)]
            )

        laned = HwArchSpec(
            name="laned", summary="knobbed area",
            pack_by_bits={4: 1}, ebw_by_bits={4: 4.0},
            area_builder=lane_area,
            params=(Param("lanes", 4, (int,), "outlier lanes"),),
        )
        base = simulate(laned, build_workload("lm", "opt-6.7b", **FAST))
        wide = simulate(
            laned, build_workload("lm", "opt-6.7b", **FAST), arch_knobs={"lanes": 8}
        )
        assert wide.area.total_um2 == base.area.total_um2 + 40.0

    def test_run_hw_job_forwards_arch_knobs_and_defaults(self):
        from repro.hw import AreaBreakdown, AreaComponent, Param, register_arch

        def lane_area(rows=64, cols=64, lanes=4):
            return AreaBreakdown(
                "laned2", [AreaComponent("Lanes", 10.0, lanes)]
            )

        spec = HwArchSpec(
            name="laned2", summary="knobbed area",
            pack_by_bits={4: 1}, ebw_by_bits={4: 4.0},
            area_builder=lane_area,
            params=(Param("lanes", 6, (int,), "outlier lanes"),),
        )
        register_arch(spec)
        try:
            defaulted = run_hw_job("lm", "opt-6.7b", "laned2", dict(FAST))
            assert defaulted["area_um2"] == 60.0  # the Param default, not 4
            knobbed = run_hw_job("lm", "opt-6.7b", "laned2", dict(FAST, lanes=9))
            assert knobbed["area_um2"] == 90.0
        finally:
            ARCHS.pop("laned2", None)


class TestGoldenValues:
    """The registry path reproduces the seed-era numbers bit-for-bit."""

    def test_table5_areas(self):
        from repro.hw import compute_density_tops_mm2, gobo_area, microscopiq_area, olive_area

        m = run_hw_job("lm", "llama2-7b", "microscopiq-v2", dict(FAST))
        assert m["area_mm2"] == microscopiq_area().total_mm2 == pytest.approx(0.01278275)
        assert m["density_tops_mm2"] == compute_density_tops_mm2(
            microscopiq_area(), 64, 64, 2.0
        )
        o = run_hw_job("lm", "llama2-7b", "olive", dict(FAST))
        assert o["area_mm2"] == olive_area().total_mm2
        g = run_hw_job("lm", "llama2-7b", "gobo", dict(FAST))
        assert g["area_mm2"] == gobo_area().total_mm2 == pytest.approx(0.2160424)
        assert g["area_overhead_pct"] == gobo_area().overhead_pct(("Group PE",))

    def test_table6_throughput(self):
        from repro.gpu import token_throughput

        for method in ("trtllm-fp16", "ms-mtc"):
            m = run_hw_job("lm", "llama2-13b", f"gpu-{method}", {})
            assert m["tokens_per_s"] == token_throughput(method, "llama2-13b")

    def test_fig13_latency(self):
        iso = {"rows": 216, "cols": 256, "dram_gbps": 2039.0, "sram_gbps": 2039.0,
               "prefill": 1, "decode_tokens": 32}
        cfg = AcceleratorConfig(rows=216, cols=256, dram_gbps=2039.0, sram_gbps=2039.0)
        for arch in ("microscopiq-v1", "microscopiq-v2"):
            m = run_hw_job("lm", "llama2-7b", arch, iso)
            direct = simulate_arch_inference(
                arch, GEOMETRIES["llama2-7b"], prefill=1, decode_tokens=32, cfg=cfg
            )
            assert m["latency_ms"] == direct.latency_ms
            assert m["energy_nj"] == direct.energy.total_nj


class TestDeprecatedShim:
    def test_import_warns_and_matches(self):
        import repro.accelerator as legacy

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn = legacy.simulate_arch_inference
        assert any(issubclass(w.category, DeprecationWarning) for w in caught)
        assert fn is simulate_arch_inference

    def test_legacy_archs_view_is_systolic_only(self):
        import repro.accelerator as legacy

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            view = legacy.ARCHS
        assert set(view) == set(SYSTOLIC)

    def test_submodule_aliases(self):
        from repro.accelerator.workloads import GEOMETRIES as legacy_geoms

        assert legacy_geoms is GEOMETRIES
        assert sys.modules["repro.accelerator.systolic"] is sys.modules["repro.hw.systolic"]

    def test_unknown_attribute_raises(self):
        import repro.accelerator as legacy

        with pytest.raises(AttributeError):
            legacy.definitely_not_a_thing


class TestPipelineIntegration:
    def test_hw_spec_identity_ignores_quant_fields(self):
        a = ExperimentSpec(family="llama2-7b", arch="microscopiq-v2")
        b = a.with_(method="rtn", w_bits=2, act_bits=4, eval_sequences=99,
                    kv_bits=2, calibration="parallel")
        assert a.key() == b.key()
        assert Job(a).job_hash == Job(b).job_hash

    def test_hw_kwargs_are_identity(self):
        a = ExperimentSpec(family="llama2-7b", arch="microscopiq-v2")
        b = a.with_(hw_kwargs=(("n_recon", 2),))
        assert Job(a).job_hash != Job(b).job_hash

    def test_unknown_arch_fails_at_build(self):
        with pytest.raises(KeyError, match="unknown arch"):
            ExperimentSpec(family="llama2-7b", arch="nope")

    def test_unknown_hw_param_fails_at_build_with_schema(self):
        with pytest.raises(HwParamError, match="schema"):
            ExperimentSpec(
                family="llama2-7b", arch="olive", hw_kwargs=(("n_recon", 2),)
            )

    def test_arch_substrate_mismatch_fails_at_build(self):
        with pytest.raises(HwParamError, match="does not support"):
            ExperimentSpec(family="resnet50", substrate="cnn", arch="gpu-atom-w4a4")

    def test_hw_kwargs_without_arch_rejected(self):
        with pytest.raises(ValueError, match="hw_kwargs"):
            ExperimentSpec(family="llama2-7b", hw_kwargs=(("rows", 8),))

    def test_label_is_unique_per_setting(self):
        a = describe(ExperimentSpec(family="llama2-7b", arch="microscopiq-v2"))
        b = describe(
            ExperimentSpec(
                family="llama2-7b", arch="microscopiq-v2", hw_kwargs=(("n_recon", 2),)
            )
        )
        assert a != b and "microscopiq-v2" in a

    def test_grid_pairs_archs_with_valid_substrates(self):
        sweep = SweepSpec(
            families=("resnet50", "vmamba-s"),
            methods=(),
            substrates=("cnn", "ssm"),
            archs=("microscopiq-v2", "gpu-atom-w4a4"),
        )
        specs = sweep.specs()
        # gpu archs support lm/vlm only: just the 2 systolic jobs remain.
        assert {(s.substrate, s.family, s.arch) for s in specs} == {
            ("cnn", "resnet50", "microscopiq-v2"),
            ("ssm", "vmamba-s", "microscopiq-v2"),
        }

    def test_grid_routes_hw_kwargs_by_schema(self):
        sweep = SweepSpec(
            families=("llama2-7b",),
            methods=(),
            archs=("microscopiq-v2", "olive"),
            hw_kwargs=(("n_recon", 2), ("prefill", 1)),
        )
        by_arch = {s.arch: dict(s.hw_kwargs) for s in sweep.specs()}
        assert by_arch["microscopiq-v2"] == {"n_recon": 2, "prefill": 1}
        assert by_arch["olive"] == {"prefill": 1}  # n_recon filtered out

    def test_sweep_hw_kwargs_typo_guard(self):
        with pytest.raises(KeyError, match="not a simulation parameter"):
            SweepSpec(
                families=("llama2-7b",), methods=(),
                archs=("olive",), hw_kwargs=(("rowz", 8),),
            )

    def test_arch_params_validate(self):
        with pytest.raises(HwParamError):
            SweepSpec(
                families=("llama2-7b",), methods=(), archs=("olive",),
                arch_params={"olive": {"n_recon": 2}},
            )

    def test_hw_jobs_cache_and_match_across_executors(self, tmp_path):
        sweep = SweepSpec(
            families=("resnet50",), methods=(), substrates=("cnn",),
            archs=("microscopiq-v2", "olive"), hw_kwargs=tuple(sorted(FAST.items())),
        )
        first = run_sweep(sweep, cache_dir=str(tmp_path), executor="serial")
        assert first.ok and first.cache_hits == 0
        replay = run_sweep(sweep, cache_dir=str(tmp_path), executor="serial")
        assert replay.cache_hits == len(replay.outcomes) == 2
        pooled = run_sweep(sweep, cache_dir=None, executor="process", workers=2)
        assert pooled.ok
        assert {o.job.job_hash: o.metrics for o in first.outcomes} == {
            o.job.job_hash: o.metrics for o in pooled.outcomes
        }

    def test_mixed_quant_and_hw_grid(self):
        sweep = SweepSpec(
            families=("opt-6.7b",), methods=("rtn",), archs=("gpu-atom-w4a4",),
        )
        kinds = {(s.method if s.arch is None else s.arch) for s in sweep.specs()}
        assert kinds == {"rtn", "gpu-atom-w4a4"}

    def test_seed_is_normalized_out_of_hw_job_identity(self):
        """The simulator is deterministic: differently-seeded sweeps must
        share hardware cache cells (quantization cells still re-key)."""
        hw = ExperimentSpec(family="llama2-7b", arch="microscopiq-v2")
        assert Job(hw, seed=0).job_hash == Job(hw, seed=7).job_hash
        quant = ExperimentSpec(family="opt-6.7b", method="rtn")
        assert Job(quant, seed=0).job_hash != Job(quant, seed=7).job_hash

    def test_gemm_probe_substrate_sweeps_from_the_grid(self, tmp_path):
        """Hardware-only workload substrates are reachable from SweepSpec
        (and therefore the CLI), including pattern families."""
        sweep = SweepSpec(
            families=("512x256",), methods=(), substrates=("gemm",),
            archs=("microscopiq-v2",), hw_kwargs=(("n_recon", 2),),
        )
        (spec,) = sweep.specs()
        assert (spec.substrate, spec.family, spec.arch) == (
            "gemm", "512x256", "microscopiq-v2"
        )
        result = run_sweep(sweep, cache_dir=str(tmp_path))
        assert result.ok
        assert result[spec]["native"]["batch"]["cycles"] > 0

    def test_gemm_substrate_without_archs_still_unknown(self):
        with pytest.raises(KeyError, match="unknown substrate"):
            SweepSpec(families=("512x256",), methods=("rtn",), substrates=("gemm",))


class TestArchVersionHashing:
    def test_version_bump_rolls_hash_and_omission_is_stable(self):
        from dataclasses import replace

        from repro.hw import register_arch

        base = ARCHS["olive"]
        spec = ExperimentSpec(family="llama2-7b", arch="olive")
        h0 = Job(spec).job_hash
        try:
            register_arch(replace(base, version="2.0"))
            assert Job(spec).job_hash != h0, "version bump must roll the hash"
            register_arch(replace(base, version=None))
            assert Job(spec).job_hash == h0, "omitted version must hash stably"
        finally:
            register_arch(base)

    def test_method_and_substrate_versions_hash(self):
        from dataclasses import replace

        from repro.core.substrate import SUBSTRATES, register_substrate
        from repro.methods import get_method, register_method

        spec = ExperimentSpec(family="opt-6.7b", method="rtn")
        h0 = Job(spec).job_hash
        base_m = get_method("rtn")
        base_s = SUBSTRATES["lm"]
        try:
            register_method(replace(base_m, version="7"))
            h1 = Job(spec).job_hash
            assert h1 != h0
            register_substrate(replace(base_s, version="3"))
            assert Job(spec).job_hash not in (h0, h1)
        finally:
            register_method(base_m)
            register_substrate(base_s)
        assert Job(spec).job_hash == h0


_ARCH_PLUGIN = """
from repro.hw import HwArchSpec, microscopiq_area

repro_plugin = HwArchSpec(
    name="toy-npu",
    summary="a plugin accelerator",
    precision_mix=((4, 1.0),),
    mac_bits=4,
    pack_by_bits={4: 1},
    ebw_by_bits={4: 4.5},
    area_builder=microscopiq_area,
    version="1",
)
"""


class TestArchPlugins:
    @pytest.fixture
    def toy_plugin(self, tmp_path, monkeypatch):
        (tmp_path / "toy_hw_plugin.py").write_text(_ARCH_PLUGIN)
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "toy_hw_plugin")
        yield
        ARCHS.pop("toy-npu", None)
        sys.modules.pop("toy_hw_plugin", None)

    def test_plugin_arch_registers_and_simulates(self, toy_plugin):
        from repro import plugins

        records = plugins.load_plugins(force=True)
        mine = [r for r in records if r.name == "toy_hw_plugin"]
        assert mine and mine[0].ok and "arch" in mine[0].kinds
        arch = get_arch("toy-npu")
        assert arch.source.startswith("env:")
        metrics = run_hw_job("lm", "opt-6.7b", "toy-npu", dict(FAST))
        assert metrics["cycles"] > 0

    def test_plugin_arch_sweeps_through_cli(self, toy_plugin, tmp_path, capsys):
        from repro import plugins
        from repro.pipeline.cli import main

        # A fresh CLI process discovers REPRO_PLUGINS at startup; in-process
        # the loader's idempotence cache survives the previous test, so
        # force the rediscovery it would do naturally.
        plugins.load_plugins(force=True)
        assert main([
            "sweep", "--families", "opt-6.7b", "--archs", "toy-npu",
            "--param", "prefill=1", "--param", "decode_tokens=1",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "toy-npu" in out
