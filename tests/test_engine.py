"""Tests for the model-level quantization engine (repro.quant.engine).

Covers the Hessian store (content-keyed sharing within a model, across
settings, and its LRU bound), the grouped parallel layer dispatch
(bit-identical to the pre-refactor per-layer serial walk), the
sequential-vs-parallel calibration ablation knob, and the benchmark guard:
a 2-setting same-calibration sweep must be cheaper than 2× a 1-setting
sweep because the store computes each Hessian once.
"""

import time

import numpy as np
import pytest
from kernel_oracle import oracle_kernels

from repro.baselines.registry import get_quantizer
from repro.models import build_model
from repro.quant.engine import HessianStore, quantize_model


class OneLayer:
    """Minimal duck-typed substrate: one wide linear, external calibration."""

    def __init__(self, d_out=8, d_in=768, seed=0):
        rng = np.random.default_rng(seed)
        self.weights = {"w": rng.normal(0, 1, (d_out, d_in)) / np.sqrt(d_in)}
        self.overrides: dict = {}
        self.act_quant: dict = {}
        self.linear_names = ["w"]

    def collect_calibration(self, calib):
        return {"w": calib}

    def set_override(self, name, weight):
        self.overrides[name] = weight

    def clear_overrides(self):
        self.overrides.clear()
        self.act_quant.clear()


class TestHessianStore:
    def test_fingerprint_keys_on_content_and_damp(self):
        a = np.random.default_rng(0).normal(0, 1, (32, 8))
        assert HessianStore.fingerprint(a, 0.01) == HessianStore.fingerprint(a.copy(), 0.01)
        assert HessianStore.fingerprint(a, 0.01) != HessianStore.fingerprint(a, 0.02)
        b = a.copy()
        b[0, 0] += 1e-9
        assert HessianStore.fingerprint(a, 0.01) != HessianStore.fingerprint(b, 0.01)

    def test_hit_miss_counters(self):
        store = HessianStore()
        a = np.random.default_rng(1).normal(0, 1, (32, 8))
        h1 = store.hessian(a, 0.01)
        h2 = store.hessian(a, 0.01)
        assert store.misses == 1 and store.hits == 1
        assert h1 is h2
        store.hessian(a, 0.05)
        assert store.misses == 2

    def test_lru_bound(self):
        store = HessianStore(max_entries=2)
        rng = np.random.default_rng(2)
        acts = [rng.normal(0, 1, (16, 4)) for _ in range(3)]
        for a in acts:
            store.hessian(a, 0.01)
        assert len(store) == 2
        store.hessian(acts[0], 0.01)  # evicted -> recomputed
        assert store.misses == 4

    def test_clear(self):
        store = HessianStore()
        store.hessian(np.ones((4, 2)), 0.01)
        store.clear()
        assert len(store) == 0 and store.misses == 0

    def test_concurrent_requests_coalesce(self):
        """A whole group asking for the same Hessian at once must compute it
        exactly once — co-members wait for the first caller's result."""
        import threading

        store = HessianStore()
        acts = np.random.default_rng(3).normal(0, 1, (512, 96))
        results = []

        def worker():
            results.append(store.hessian(acts, 0.01))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.misses == 1 and store.hits == 5
        assert all(r is results[0] for r in results)


def _prerefactor_serial_walk(model, method, w_bits, calib):
    """The pre-engine reference semantics: per-layer collect + quantize."""
    model.clear_overrides()
    quantizer = get_quantizer(method)
    dequants = {}
    for name in model.linear_names:
        acts = model.collect_calibration(calib)[name]
        result = quantizer(model.weights[name], acts, bits=w_bits)
        model.set_override(name, result.dequant)
        dequants[name] = result.dequant
    model.clear_overrides()
    return dequants


class TestGroupedDispatch:
    @pytest.mark.parametrize("dispatch,workers", [("serial", None), ("thread", 4)])
    def test_bit_identical_to_serial_walk(self, dispatch, workers):
        from repro.core.substrate import get_substrate

        sub = get_substrate("lm")
        model = sub.build("opt-6.7b")
        calib = sub.calibration(model)
        ref = _prerefactor_serial_walk(model, "microscopiq", 4, calib)
        quantize_model(
            model, "microscopiq", 4, calib=calib,
            dispatch=dispatch, workers=workers, hessian_store=HessianStore(),
        )
        for name in model.linear_names:
            assert np.array_equal(model.overrides[name], ref[name]), name
        model.clear_overrides()

    def test_store_shared_within_model(self):
        """wq/wk/wv (and w1/w3) share activations, hence one Hessian: the
        opt-6.7b analog has 2 blocks x 7 linears but only 2 x 4 distinct
        calibration groups."""
        model = build_model("opt-6.7b")
        store = HessianStore()
        with oracle_kernels():  # one kernel call per layer
            quantize_model(model, "microscopiq", 4, hessian_store=store)
        n_layers = model.profile.n_layers
        assert store.misses == 4 * n_layers
        assert store.hits == 3 * n_layers
        model.clear_overrides()

        # The engine's shape batching goes further: wq/wk/wv (and w1/w3)
        # coalesce into one kernel invocation each, so every distinct
        # Hessian is requested exactly once — same 4 per block, zero re-hits.
        model = build_model("opt-6.7b")
        store = HessianStore()
        quantize_model(model, "microscopiq", 4, hessian_store=store)
        assert store.misses == 4 * n_layers
        assert store.hits == 0
        model.clear_overrides()

    def test_layer_failure_raises(self):
        model = OneLayer()
        acts = np.zeros((4, 8))  # wrong d_in: quantizer must fail loudly
        with pytest.raises(RuntimeError, match="quantizing layer"):
            quantize_model(model, "gptq", 4, calib=acts, groups=[["w"]])

    def test_groups_must_partition_linear_names(self):
        """A groups override that drops a layer must be rejected, not leave
        it silently unquantized."""
        model = build_model("opt-6.7b")
        bad = [[model.linear_names[0]]]  # everything else omitted
        with pytest.raises(ValueError, match="partition"):
            quantize_model(model, "rtn", 4, groups=bad)


class TestCalibrationModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            quantize_model(build_model("opt-6.7b"), "rtn", 4, calibration="warp")

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(KeyError, match="dispatch"):
            quantize_model(build_model("opt-6.7b"), "rtn", 4, dispatch="carrier-pigeon")

    def test_parallel_calibration_reuses_store_across_settings(self):
        model = build_model("opt-6.7b")
        store = HessianStore()
        quantize_model(model, "microscopiq", 4, calibration="parallel", hessian_store=store)
        first = store.misses
        quantize_model(model, "microscopiq", 2, calibration="parallel", hessian_store=store)
        assert store.misses == first  # second setting: all Hessians hit
        model.clear_overrides()

    def test_parallel_differs_from_sequential(self):
        """Progressive requantization changes later layers' calibration, so
        the ablation arms must diverge somewhere past the first group."""
        model = build_model("opt-6.7b")
        quantize_model(model, "microscopiq", 2, calibration="sequential",
                       hessian_store=HessianStore())
        seq = {n: model.overrides[n].copy() for n in model.linear_names}
        quantize_model(model, "microscopiq", 2, calibration="parallel",
                       hessian_store=HessianStore())
        par = {n: model.overrides[n].copy() for n in model.linear_names}
        model.clear_overrides()
        # First group (layer-0 wq/wk/wv) sees FP inputs either way.
        for n in ("layers.0.wq", "layers.0.wk", "layers.0.wv"):
            assert np.array_equal(seq[n], par[n])
        assert any(
            not np.array_equal(seq[n], par[n]) for n in model.linear_names
        )


class TestBenchmarkGuard:
    """The Hessian store must make a 2-setting same-calibration sweep
    cheaper than 2x a 1-setting sweep (sharing the Hessian work)."""

    @staticmethod
    def _sweep(bits_list, store, acts):
        model = OneLayer()
        start = time.perf_counter()
        for bits in bits_list:
            quantize_model(
                model, "gptq", bits, calib=acts, hessian_store=store,
                groups=[["w"]],
            )
        return time.perf_counter() - start

    def test_two_setting_sweep_cheaper_than_twice_one(self):
        acts = np.random.default_rng(1).normal(0, 1, (6144, 768))
        self._sweep([4], HessianStore(), acts)  # warm numpy/BLAS paths
        # min-of-2 on BOTH sides so scheduler noise biases them the same way
        # (a single noisy t_two against a min t_one would flake on shared CI).
        t_one = min(self._sweep([4], HessianStore(), acts) for _ in range(2))
        stores = [HessianStore(), HessianStore()]
        t_two = min(self._sweep([4, 2], s, acts) for s in stores)
        # Deterministic core of the guard: the second setting computed no
        # new Hessian at all.
        assert all(s.misses == 1 and s.hits == 1 for s in stores)
        # Wall-clock guard (typical ratio ~1.7 on one core; see CHANGES.md).
        assert t_two < 2.0 * t_one, f"{t_two:.3f}s !< 2x {t_one:.3f}s"
        print(
            f"\nhessian-store guard: 1-setting {t_one*1000:.0f}ms, "
            f"2-setting shared {t_two*1000:.0f}ms ({t_two/t_one:.2f}x < 2x)"
        )
