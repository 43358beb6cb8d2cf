"""Tests for the A100 GPU kernel cost model (Table 6 / Fig. 13 shapes)."""

import pytest

from repro.gpu import A100, GPU_METHODS, decode_step_ms, token_throughput


@pytest.fixture(scope="module")
def normalized():
    out = {}
    for model in ("llama2-13b", "llama3-8b"):
        base = token_throughput("trtllm-fp16", model)
        out[model] = {m: token_throughput(m, model) / base for m in GPU_METHODS}
    return out


class TestTable6Shapes:
    def test_baseline_is_one(self, normalized):
        for model in normalized:
            assert normalized[model]["trtllm-fp16"] == pytest.approx(1.0)

    def test_noopt_slower_than_fp16(self, normalized):
        """The un-optimized kernel underperforms FP16 (Table 6's 0.98/0.92)."""
        for model in normalized:
            assert normalized[model]["ms-noopt"] < 1.0

    def test_optim_comparable_to_atom(self, normalized):
        """'achieves similar performance to SoTA technique Atom' (§7.6)."""
        for model in normalized:
            ratio = normalized[model]["ms-optim"] / normalized[model]["atom-w4a4"]
            assert 0.7 < ratio < 1.4

    def test_mtc_is_best(self, normalized):
        for model in normalized:
            best = max(normalized[model], key=normalized[model].get)
            assert best == "ms-mtc"

    def test_quantized_methods_beat_fp16(self, normalized):
        for model in normalized:
            for m in ("atom-w4a4", "ms-optim", "ms-mtc"):
                assert normalized[model][m] > 1.0


class TestCostModel:
    def test_decode_latency_positive(self):
        assert decode_step_ms("trtllm-fp16", "llama2-7b") > 0

    def test_bigger_model_slower(self):
        assert decode_step_ms("trtllm-fp16", "llama2-13b") > decode_step_ms(
            "trtllm-fp16", "llama2-7b"
        )

    def test_fp16_memory_bound(self):
        """FP16 decode time is ~weights/HBM-bandwidth."""
        from repro.hw.workloads import GEOMETRIES

        geom = GEOMETRIES["llama2-7b"]
        lower_ms = geom.quantized_params * 2 / (A100.hbm_gbps * 1e6)
        assert decode_step_ms("trtllm-fp16", "llama2-7b") >= lower_ms

    def test_large_vocab_compresses_gains(self, normalized):
        """LLaMA-3's 128K-entry FP16 head damps quantization speedups
        (the Table 6 llama3-8b column)."""
        assert normalized["llama3-8b"]["ms-mtc"] < normalized["llama2-13b"]["ms-mtc"]

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            decode_step_ms("awq", "llama2-7b")
