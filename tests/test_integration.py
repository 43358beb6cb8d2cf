"""Cross-module integration: quantizer -> model eval -> accelerator sim."""

import numpy as np
import pytest

from repro.hw import AcceleratorConfig, LayerSpec, simulate_layers
from repro.core import MicroScopiQConfig, quantize_matrix, quantize_model
from repro.eval import eval_corpus, perplexity
from repro.models import build_model
from repro.quant import quantize_kv_cache


class TestQuantizedModelToAccelerator:
    """The full co-design path: PTQ a model, feed the packed layers'
    structure into the cycle simulator."""

    @pytest.fixture(scope="class")
    def model_and_specs(self):
        model = build_model("llama2-7b")
        report = quantize_model(model, "microscopiq", 2)
        specs = []
        for name in model.linear_names:
            packed = quantize_matrix(
                model.weights[name], None, MicroScopiQConfig(inlier_bits=2)
            )
            specs.append(LayerSpec.from_packed(name, packed))
        model.clear_overrides()
        return report, specs

    def test_specs_carry_quantizer_ebw(self, model_and_specs):
        report, specs = model_and_specs
        for s in specs:
            assert 2.0 <= s.ebw <= 6.0

    def test_simulation_runs_on_real_packed_layers(self, model_and_specs):
        _, specs = model_and_specs
        stats = simulate_layers(specs, 1, AcceleratorConfig())
        assert stats.cycles > 0
        assert stats.dram_bits == pytest.approx(
            sum(s.weight_bits + s.d_in * 8 for s in specs)
        )

    def test_recon_demand_follows_outliers(self, model_and_specs):
        _, specs = model_and_specs
        stats = simulate_layers(specs, 1, AcceleratorConfig())
        assert stats.recon_accesses > 0


class TestWeightActivationSetting:
    def test_w4a4_quantizes_both(self):
        model = build_model("phi3-3.8b")
        corpus = eval_corpus(model, 8, 16)
        fp = perplexity(model, corpus)
        quantize_model(model, "microscopiq", 4, act_bits=4)
        wa = perplexity(model, corpus)
        quantize_model(model, "microscopiq", 4)
        wo = perplexity(model, corpus)
        model.clear_overrides()
        assert fp <= wo <= wa * 1.01  # act quant adds (only) a little error

    def test_kv_cache_quant_composes(self):
        rng = np.random.default_rng(0)
        k = rng.normal(0, 1, (256, 64))
        v = rng.normal(0, 1, (256, 64))
        kq, vq = quantize_kv_cache(k, v, bits=4, residual=128)
        # attention scores with quantized KV stay close; recent tokens exact
        q = rng.normal(0, 1, (1, 64))
        s_fp = q @ k.T
        s_q = q @ kq.T
        rel = np.linalg.norm(s_q - s_fp) / np.linalg.norm(s_fp)
        assert rel < 0.35
        assert np.array_equal(s_q[0, -128:], s_fp[0, -128:])


class TestPublicApi:
    def test_core_exports(self):
        import repro

        assert repro.MicroScopiQConfig is MicroScopiQConfig
        w = np.random.default_rng(0).normal(0, 0.02, (16, 64))
        packed = repro.quantize_matrix(w, None, MicroScopiQConfig(inlier_bits=4))
        assert packed.ebw() >= 4.0

    def test_version(self):
        import repro

        assert repro.__version__
