"""Tests for the systolic performance model, area, energy, and arch models."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.hw import (
    ARCHS,
    GEOMETRIES,
    HW_WORKLOADS,
    AcceleratorConfig,
    EnergyParams,
    LayerSpec,
    build_workload,
    compute_density_tops_mm2,
    energy_of,
    gobo_area,
    layer_specs,
    microscopiq_area,
    noc_integration_overhead,
    olive_area,
    recon_contention,
    simulate,
    simulate_arch_inference,
    simulate_gemm,
    simulate_layers,
    sram_area_mm2,
    systolic,
)

# The cycle-simulated designs; the full registry also holds the ``gpu-*``
# kernel-cost-model archs.
SYSTOLIC_ARCHS = {n: s for n, s in ARCHS.items() if s.kind == "systolic"}


def _arrivals_reference(offsets, m, n_tiles, period, tile_rows):
    """The per-request loop ``systolic._build_arrivals`` replaced, verbatim."""
    horizon = (n_tiles - 1) * period + tile_rows + m + 5
    arrivals = np.zeros(horizon, dtype=np.int64)
    for t in range(n_tiles):
        base = t * period
        shift = (t * 23) % max(1, tile_rows)
        for off in offsets:
            # Sync-buffer depth differences add a few cycles of arrival
            # jitter (deterministic hash, reproducible across runs).
            jitter = (t * 7 + int(off) * 13) % 4
            o = base + (int(off) + shift) % tile_rows + jitter
            arrivals[o : o + m] += 1
    return arrivals


@pytest.fixture(scope="module")
def cfg():
    return AcceleratorConfig()


@pytest.fixture(scope="module")
def spec():
    return LayerSpec.synthetic("t", 4096, 4096, bit_budget=2, outlier_fraction=0.012)


class TestConfig:
    def test_bandwidth_conversion(self, cfg):
        assert cfg.dram_bits_per_cycle == pytest.approx(2048.0)
        assert cfg.sram_bits_per_cycle == pytest.approx(512.0)

    def test_recon_stages(self, cfg):
        assert cfg.recon_stages == 7  # log2(64)+1

    def test_rejects_non_pow2_cols(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(cols=60)


class TestLayerSpec:
    def test_weight_bits_uses_ebw(self, spec):
        assert spec.weight_bits == pytest.approx(spec.ebw * 4096 * 4096)

    def test_outlier_rows_clustering(self, spec):
        k = spec.outlier_rows_in_tile(64, 128)
        # clustered: far fewer rows than the naive per-row expectation
        assert 1 <= k <= 8

    def test_from_packed(self, packed_w2):
        s = LayerSpec.from_packed("l", packed_w2)
        assert s.ebw == pytest.approx(packed_w2.ebw())
        assert s.outlier_ub_fraction == pytest.approx(packed_w2.outlier_ub_fraction())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("outlier_ub_fraction", 1.5),
            ("outlier_ub_fraction", -0.1),
            ("d_out", 0),
            ("d_out", -64),
            ("d_in", 0),
            ("micro_block", 0),
            ("count", 0),
            ("count", -1),
            ("bit_budget", 0),
            ("bit_budget", -2),
            ("ebw", float("nan")),
            ("ebw", float("inf")),
            ("ebw", -2.0),
            ("ebw", 0.0),
        ],
    )
    def test_rejects_degenerate_spec(self, field, value):
        kwargs = dict(
            name="x", d_out=8, d_in=8, bit_budget=2, ebw=2.0, outlier_ub_fraction=0.1
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            LayerSpec(**kwargs)


class TestBuildArrivals:
    """The difference-array request timeline equals the per-request loop."""

    @staticmethod
    def _check(offsets, m, n_tiles, period, tile_rows):
        got = systolic._build_arrivals(offsets, m, n_tiles, period, tile_rows)
        want = _arrivals_reference(offsets, m, n_tiles, period, tile_rows)
        args = (offsets.tolist(), m, n_tiles, period, tile_rows)
        assert got.dtype == np.int64, args
        assert len(got) == (n_tiles - 1) * period + tile_rows + m + 5, args
        assert np.array_equal(got, want), args

    def test_matches_loop_on_seeded_grid(self):
        rng = np.random.default_rng(14)
        for tile_rows in (1, 2, 7, 64, 80):
            for m in (1, 3, 64, 200):
                for n_tiles in (1, 2, 23, 64):
                    period = int(rng.integers(m, m + 301))
                    k = int(rng.integers(1, tile_rows + 1))
                    for offsets in (
                        np.array([], dtype=np.int64),
                        np.linspace(0, tile_rows - 1, k).astype(np.int64),
                        # more draws than rows, so offsets repeat
                        rng.integers(0, tile_rows, size=tile_rows + 3),
                    ):
                        self._check(offsets, m, n_tiles, period, tile_rows)
        for period_pad in (0, 300):  # the ends of [m, m + 300]
            self._check(np.array([0, 3, 3, 9]), 17, 64, 17 + period_pad, 10)

    def test_matches_loop_on_lm_workload_calls(self, monkeypatch):
        # A memo warmed by earlier tests would hide the calls to capture.
        systolic._contention.cache_clear()
        seen = {}
        build = systolic._build_arrivals

        def spy(offsets, m, n_tiles, period, tile_rows):
            seen[(tuple(offsets.tolist()), m, n_tiles, period, tile_rows)] = offsets
            return build(offsets, m, n_tiles, period, tile_rows)

        monkeypatch.setattr(systolic, "_build_arrivals", spy)
        for family in HW_WORKLOADS["lm"].families():
            for prefill in (1, 32, 128):
                workload = build_workload("lm", family, prefill=prefill)
                for arch in SYSTOLIC_ARCHS:
                    simulate(arch, workload)
        monkeypatch.undo()

        assert any(len(offsets) for offsets in seen.values())
        for (_, m, n_tiles, period, tile_rows), offsets in seen.items():
            self._check(offsets, m, n_tiles, period, tile_rows)


class TestReconMemo:
    """The memoized contention run equals a fresh one, on the hw-grid shape."""

    #: Distinct tile schedules in the grid, i.e. the memo's misses when cold
    #: (6,804 contention calls in all).
    GRID_SCHEDULES = 87

    @pytest.fixture(scope="class")
    def grid(self):
        """``hw-grid``'s systolic simulations as ``label → simulate args``:
        every systolic arch × LM family × prefill {1, 32, 128}, plus
        n_recon {2, 4} on the two MicroScopiQ designs."""
        grid = {}
        for family in HW_WORKLOADS["lm"].families():
            for prefill in (1, 32, 128):
                workload = build_workload("lm", family, prefill=prefill)
                for arch in SYSTOLIC_ARCHS:
                    grid[arch, family, prefill, 1] = (arch, workload, None, None)
                for arch in ("microscopiq-v1", "microscopiq-v2"):
                    for n in (2, 4):
                        grid[arch, family, prefill, n] = (
                            arch, workload, AcceleratorConfig(n_recon=n), {"n_recon": n}
                        )
        return grid

    @staticmethod
    def _reports(grid):
        return {
            label: asdict(simulate(arch, workload, cfg, arch_knobs=knobs))
            for label, (arch, workload, cfg, knobs) in grid.items()
        }

    def test_cached_results_match_fresh_runs(self, grid, monkeypatch):
        systolic._contention.cache_clear()
        seen = {}
        memo = systolic._contention

        def spy(*key):
            result = memo(*key)
            seen.setdefault(key, set()).add(result)
            return result

        monkeypatch.setattr(systolic, "_contention", spy)
        self._reports(grid)
        monkeypatch.undo()

        assert any(key[0] for key in seen)  # some schedules have outlier rows
        for key, results in seen.items():
            k_out, tile_rows, m, sim_tiles, period, n_recon = key
            offsets = np.linspace(0, tile_rows - 1, k_out).astype(np.int64)
            fresh = recon_contention(
                systolic._build_arrivals(offsets, m, sim_tiles, period, tile_rows),
                n_recon,
            )
            assert results == {fresh}, key

    def test_reports_equal_cold_and_warm(self, grid):
        cold = {}
        for label, args in grid.items():
            systolic._contention.cache_clear()
            cold.update(self._reports({label: args}))
        assert self._reports(grid) == cold

    def test_grid_runs_each_schedule_once(self, grid):
        systolic._contention.cache_clear()
        self._reports(grid)
        info = systolic._contention.cache_info()
        assert info.maxsize is not None
        assert info.misses <= self.GRID_SCHEDULES
        assert info.hits + info.misses == 6804


class TestContention:
    def test_no_requests(self):
        assert recon_contention(np.zeros(4, dtype=np.int64), 1) == (0, 0, 0)

    def test_single_stream_no_conflicts(self):
        arrivals = np.zeros(20, dtype=np.int64)
        arrivals[3:13] = 1
        total, delayed, extra = recon_contention(arrivals, 1)
        assert total == 10 and delayed == 0 and extra == 0

    def test_oversubscription_delays(self):
        arrivals = np.full(10, 2, dtype=np.int64)
        total, delayed, extra = recon_contention(arrivals, 1)
        assert total == 20 and delayed > 0 and extra > 0

    def test_more_units_fewer_conflicts(self):
        arrivals = np.full(10, 3, dtype=np.int64)
        d1 = recon_contention(arrivals, 1)[1]
        d2 = recon_contention(arrivals, 2)[1]
        d4 = recon_contention(arrivals, 4)[1]
        assert d1 >= d2 >= d4


class TestSimulateGemm:
    def test_decode_is_memory_bound(self, spec, cfg):
        st = simulate_gemm(spec, 1, cfg)
        assert st.cycles == max(st.dram_cycles, st.sram_cycles)

    def test_macs_counted(self, spec, cfg):
        st = simulate_gemm(spec, 4, cfg)
        assert st.macs == 4 * 4096 * 4096

    def test_packing_halves_tiles_at_bb2(self, cfg):
        s2 = LayerSpec.synthetic("a", 4096, 4096, bit_budget=2, outlier_fraction=0.0)
        s4 = LayerSpec.synthetic("b", 4096, 4096, bit_budget=4, outlier_fraction=0.0)
        assert simulate_gemm(s2, 1, cfg).n_tiles == simulate_gemm(s4, 1, cfg).n_tiles / 2

    def test_lower_ebw_less_dram_time(self, cfg):
        s2 = LayerSpec.synthetic("a", 2048, 2048, bit_budget=2, outlier_fraction=0.01)
        s4 = LayerSpec.synthetic("b", 2048, 2048, bit_budget=4, outlier_fraction=0.01)
        assert simulate_gemm(s2, 1, cfg).dram_cycles < simulate_gemm(s4, 1, cfg).dram_cycles

    def test_conflicts_decrease_with_recon_units(self, spec):
        pcts = [
            simulate_gemm(spec, 1, AcceleratorConfig(n_recon=n)).conflict_pct
            for n in (1, 2, 4, 8)
        ]
        assert pcts[0] >= pcts[1] >= pcts[2] >= pcts[3]
        assert pcts[3] == 0.0

    def test_no_outliers_no_recon_traffic(self, cfg):
        s = LayerSpec.synthetic("a", 1024, 1024, bit_budget=2, outlier_fraction=0.0)
        st = simulate_gemm(s, 8, cfg)
        assert st.recon_accesses == 0 and st.conflict_pct == 0.0

    def test_rejects_zero_m(self, spec, cfg):
        with pytest.raises(ValueError):
            simulate_gemm(spec, 0, cfg)

    def test_simulate_layers_scales_by_count(self, cfg):
        s = LayerSpec.synthetic("a", 512, 512, count=3)
        one = simulate_gemm(s, 1, cfg)
        tot = simulate_layers([s], 1, cfg)
        assert tot.cycles == pytest.approx(3 * one.cycles)


class TestArea:
    def test_table5_microscopiq(self):
        assert microscopiq_area().total_mm2 == pytest.approx(0.0128, abs=0.001)

    def test_table5_olive(self):
        assert olive_area().total_mm2 == pytest.approx(0.0115, abs=0.001)

    def test_table5_gobo(self):
        assert gobo_area().total_mm2 == pytest.approx(0.216, abs=0.005)

    def test_ms_overhead_below_olive(self):
        """Table 5: MicroScopiQ 8.63% compute overhead < OliVe 9.90%."""
        ms = microscopiq_area().overhead_pct(("Base PE",))
        ol = olive_area().overhead_pct(("Base PE",))
        assert ms < ol
        assert ms < 12.0

    def test_density_ordering(self):
        ms2 = compute_density_tops_mm2(microscopiq_area(), 64, 64, 2.0)
        ol = compute_density_tops_mm2(olive_area(), 64, 64, 0.5)
        gb = compute_density_tops_mm2(gobo_area(), 64, 64, 1.0)
        assert ms2 > ol > gb
        assert ms2 / ol > 1.5  # paper: "nearly 2x"
        assert ms2 / gb > 10.0  # paper: "14x"

    def test_recon_overhead_shrinks_with_array_size(self):
        """Fig. 17: ReCoN % of compute area drops as the array grows
        (128x128 has ~3% overhead for a single unit)."""
        def frac(rows, cols):
            b = microscopiq_area(rows, cols)
            return b.by_name()["ReCoN"] / b.total_um2

        assert frac(8, 8) > frac(64, 64) > frac(128, 128)
        assert frac(128, 128) < 0.04

    def test_multiple_recon_units_scale_area(self):
        a1 = microscopiq_area(n_recon=1).total_mm2
        a8 = microscopiq_area(n_recon=8).total_mm2
        assert a8 > a1
        assert a8 / a1 < 1.6  # paper: 8 units = 1.58x compute area

    def test_sram_area_monotone(self):
        assert sram_area_mm2(2048) > sram_area_mm2(512)

    def test_noc_integration_overheads(self):
        mtia = noc_integration_overhead("mtia")
        eyeriss = noc_integration_overhead("eyeriss-v2")
        assert mtia["overhead_pct"] == pytest.approx(3.0)
        assert eyeriss["overhead_pct"] == pytest.approx(2.3)
        with pytest.raises(ValueError):
            noc_integration_overhead("tpu")


class TestEnergy:
    def test_components_positive(self, spec, cfg):
        st = simulate_gemm(spec, 4, cfg)
        rep = energy_of(st, EnergyParams(mac_bits=2))
        assert rep.core_dynamic_nj > 0
        assert rep.dram_nj > 0
        assert rep.sram_nj > 0
        assert rep.static_nj > 0
        assert rep.total_nj == pytest.approx(
            rep.core_dynamic_nj + rep.dram_nj + rep.sram_nj + rep.static_nj
        )

    def test_low_precision_macs_cheaper(self, spec, cfg):
        st = simulate_gemm(spec, 4, cfg)
        e2 = energy_of(st, EnergyParams(mac_bits=2)).core_dynamic_nj
        e16 = energy_of(st, EnergyParams(mac_bits=16)).core_dynamic_nj
        assert e2 < e16

    def test_unaligned_penalty_raises_dram(self, spec, cfg):
        st = simulate_gemm(spec, 4, cfg)
        base = energy_of(st, EnergyParams()).dram_nj
        pen = energy_of(st, EnergyParams(unaligned_dram_penalty=1.3)).dram_nj
        assert pen == pytest.approx(1.3 * base)


class TestArchComparison:
    @pytest.fixture(scope="class")
    def results(self):
        geom = GEOMETRIES["llama2-7b"]
        return {
            a: simulate_arch_inference(a, geom, prefill=1, decode_tokens=16)
            for a in SYSTOLIC_ARCHS
        }

    def test_v2_is_fastest(self, results):
        best = min(results, key=lambda a: results[a].cycles)
        assert best == "microscopiq-v2"

    def test_v1_and_v2_beat_every_baseline(self, results):
        baselines = [a for a in results if not a.startswith("microscopiq")]
        for a in baselines:
            assert results["microscopiq-v1"].cycles < results[a].cycles
            assert results["microscopiq-v2"].cycles < results[a].cycles

    def test_v2_speedup_band(self, results):
        """Paper: avg 2.47x for v2, 1.50x for v1 (we accept 1.2-4x)."""
        baselines = [a for a in results if not a.startswith("microscopiq")]
        avg = np.mean([results[a].cycles for a in baselines])
        assert 1.5 < avg / results["microscopiq-v2"].cycles < 4.5
        assert 1.1 < avg / results["microscopiq-v1"].cycles < 3.0

    def test_gobo_slowest_and_most_dram_energy(self, results):
        assert results["gobo"].cycles == max(r.cycles for r in results.values())
        assert results["gobo"].energy.dram_nj == max(
            r.energy.dram_nj for r in results.values()
        )

    def test_v2_lowest_energy(self, results):
        best = min(results, key=lambda a: results[a].energy.total_nj)
        assert best == "microscopiq-v2"

    def test_workload_geometries_available(self):
        assert "llama3-8b" in GEOMETRIES
        specs = layer_specs(GEOMETRIES["llama3-8b"], bit_budget=2)
        assert len(specs) == 7
        assert all(s.count == 32 for s in specs)

    def test_gqa_models_have_smaller_kv(self):
        specs = {s.name.split(".")[1]: s for s in layer_specs(GEOMETRIES["llama3-8b"])}
        assert specs["wk"].d_out < specs["wq"].d_out
