"""Tests for the quantization methods and the cross-method orderings the
paper's tables rely on.

Every method runs through the first-class :mod:`repro.methods` lifecycle
(``MethodSpec.quantize`` → ``prepare`` → ``quantize_layer``).
"""

import math

import numpy as np
import pytest
from kernel_oracle import gptq_core_walk

import repro.baselines as baselines
from repro.baselines import get_quantizer, gptq_core
from repro.eval.harness import evaluate_setting
from repro.methods import METHODS, get_method, known_method_names
from repro.methods.resources import HessianBundle
from repro.pipeline import ResultCache, SweepSpec, run_sweep
from repro.quant.outliers import outlier_mask

ALL_METHODS = known_method_names()


@pytest.fixture(scope="module")
def results_w4(weights, calib):
    return {m: METHODS[m].quantize(weights, calib, bits=4) for m in ALL_METHODS}


@pytest.fixture(scope="module")
def results_w2(weights, calib):
    return {m: METHODS[m].quantize(weights, calib, bits=2) for m in ALL_METHODS}


class TestCommonContract:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_shape_preserved(self, results_w4, weights, method):
        assert results_w4[method].dequant.shape == weights.shape

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_finite(self, results_w4, method):
        assert np.all(np.isfinite(results_w4[method].dequant))

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_ebw_positive(self, results_w4, method):
        assert results_w4[method].ebw > 0

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_error_sane_at_w4(self, results_w4, weights, calib, method):
        err = results_w4[method].reconstruction_error(weights, calib)
        assert 0 < err < 0.6

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_deterministic(self, weights, calib, method):
        a = METHODS[method].quantize(weights, calib, bits=4).dequant
        b = METHODS[method].quantize(weights, calib, bits=4).dequant
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_w4_better_than_w2(self, results_w4, results_w2, weights, calib, method):
        e4 = results_w4[method].reconstruction_error(weights, calib)
        e2 = results_w2[method].reconstruction_error(weights, calib)
        assert e4 < e2

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_no_calibration_fallback(self, weights, method):
        res = METHODS[method].quantize(weights, None, bits=4)
        assert np.all(np.isfinite(res.dequant))

    def test_registry_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown"):
            get_quantizer("nope")
        with pytest.raises(KeyError, match="unknown method"):
            get_method("nope")


class TestOrderings:
    """The cross-method orderings that define the paper's tables."""

    def test_gptq_beats_rtn_at_w4(self, results_w4, weights, calib):
        assert results_w4["gptq"].reconstruction_error(weights, calib) < (
            results_w4["rtn"].reconstruction_error(weights, calib)
        )

    def test_microscopiq_beats_gptq_at_w4(self, results_w4, weights, calib):
        assert results_w4["microscopiq"].reconstruction_error(weights, calib) < (
            results_w4["gptq"].reconstruction_error(weights, calib)
        )

    def test_microscopiq_beats_olive_both_widths(
        self, results_w4, results_w2, weights, calib
    ):
        for res in (results_w4, results_w2):
            assert res["microscopiq"].reconstruction_error(weights, calib) < (
                res["olive"].reconstruction_error(weights, calib)
            )

    def test_ms_w2_beats_olive_w4(self, results_w4, results_w2, weights, calib):
        """The Fig. 2(b) headline: MicroScopiQ at W2 ≥ OliVe at W4."""
        assert results_w2["microscopiq"].reconstruction_error(weights, calib) < (
            results_w4["olive"].reconstruction_error(weights, calib)
        )

    def test_microscopiq_beats_omniquant_at_w2(self, results_w2, weights, calib):
        assert results_w2["microscopiq"].reconstruction_error(weights, calib) < (
            results_w2["omniquant"].reconstruction_error(weights, calib)
        )

    def test_microscopiq_beats_sdq_at_w2(self, results_w2, weights, calib):
        assert results_w2["microscopiq"].reconstruction_error(weights, calib) < (
            results_w2["sdq"].reconstruction_error(weights, calib)
        )

    def test_omni_ms_no_worse_than_ms(self, results_w2, weights, calib):
        assert results_w2["omni-microscopiq"].reconstruction_error(weights, calib) <= (
            results_w2["microscopiq"].reconstruction_error(weights, calib) * 1.05
        )

    def test_ebw_ordering_matches_table1(self, results_w2):
        """Group A (GOBO) highest EBW, Group B (OliVe) = bb, MS slightly
        above bb (Table 1's 18.17 / 2 / 2.36 ordering)."""
        assert results_w2["olive"].ebw == 2.0
        assert 2.0 < results_w2["microscopiq"].ebw < 3.0
        assert results_w2["gobo"].ebw > results_w2["microscopiq"].ebw
        # at the paper's ~4.5% outlier rate GOBO reaches its 15.6+ bits
        from repro.formats import gobo_ebw

        assert gobo_ebw(0.045) > 15.0


class TestOlive:
    def test_victims_are_zeroed(self, weights, calib):
        res = METHODS["olive"].quantize(weights, calib, bits=4)
        # every outlier has an adjacent zero (the identifier/victim)
        omask = np.zeros(weights.shape, dtype=bool)
        for g in range(0, weights.shape[1], 128):
            sl = slice(g, min(g + 128, weights.shape[1]))
            omask[:, sl] = outlier_mask(weights[:, sl], 3.0, axis=-1)
        rows, cols = np.nonzero(omask)
        n_checked = 0
        for r, c in zip(rows[:100], cols[:100]):
            left = res.dequant[r, c - 1] if c > 0 else np.nan
            right = res.dequant[r, c + 1] if c + 1 < weights.shape[1] else np.nan
            if res.dequant[r, c] == 0.0:
                continue  # this outlier was itself destroyed as a victim
            assert left == 0.0 or right == 0.0
            n_checked += 1
        assert n_checked > 0

    def test_adjacent_outliers_destroyed(self):
        """§3.2: adjacent outliers force OliVe to prune a real outlier."""
        rng = np.random.default_rng(0)
        w = rng.normal(0, 0.02, (8, 128))
        w[0, 10], w[0, 11] = 0.5, -0.6
        res = METHODS["olive"].quantize(w, None, bits=4)
        assert res.meta["victim_outliers"] >= 1
        assert res.dequant[0, 11] == 0.0 or res.dequant[0, 10] == 0.0

    def test_outliers_encoded_as_pow2(self):
        rng = np.random.default_rng(1)
        w = rng.normal(0, 0.02, (4, 128))
        w[1, 50] = 0.73
        res = METHODS["olive"].quantize(w, None, bits=4)
        v = abs(res.dequant[1, 50])
        assert v > 0
        assert np.isclose(np.log2(v), round(np.log2(v)))


class TestGobo:
    def test_outliers_stored_exactly(self, weights):
        res = METHODS["gobo"].quantize(weights, None, bits=4)
        omask = outlier_mask(weights, 3.0, axis=None)
        assert np.array_equal(res.dequant[omask], weights[omask])

    def test_inliers_use_centroids(self, weights):
        res = METHODS["gobo"].quantize(weights, None, bits=4)
        omask = outlier_mask(weights, 3.0, axis=None)
        uniq = np.unique(res.dequant[~omask])
        assert len(uniq) <= 16


class TestSdq:
    def test_nm_pattern_respected(self, weights):
        res = METHODS["sdq"].quantize(weights, None, bits=2)
        assert res.meta["pattern"] == "2:8"

    def test_ebw_accounts_for_sparse(self, weights):
        res = METHODS["sdq"].quantize(weights, None, bits=2)
        assert res.ebw > 2.0


class TestAtom:
    def test_high_activation_channels_protected(self, weights, calib):
        res = METHODS["atom"].quantize(weights, calib, bits=4)
        assert res.meta["n_outlier_channels"] == 16
        assert res.ebw > 4.0

    def test_act_quantizer_attached_in_wa_mode(self, weights, calib):
        res = METHODS["atom"].quantize(weights, calib, bits=4, act_bits=8)
        assert "act_quantizer" in res.meta

    @pytest.mark.parametrize("width", [48, 80])
    def test_calibration_width_must_match_layer(self, width):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, (16, 64))
        x = rng.normal(0, 1, (40, width))
        with pytest.raises(ValueError, match=f"{width} wide.* 64 input columns"):
            get_method("atom").quantize(w, x, bits=4)


class TestSmoothQuant:
    def test_act_quantizer_present(self, weights, calib):
        res = METHODS["smoothquant"].quantize(weights, calib, bits=4)
        assert "act_quantizer" in res.meta

    def test_deployed_numerics_identity(self, weights, calib):
        """dequant (original space) + rescaling act quantizer reproduce
        Q_act(x/s) @ Q_w(W·s)^T exactly."""
        res = METHODS["smoothquant"].quantize(weights, calib, bits=8)
        s = res.meta["scales"]
        aq = res.meta["act_quantizer"]
        lhs = aq(calib) @ res.dequant.T
        from repro.quant import quantize_activations

        rhs = quantize_activations(calib / s, 8) @ (res.dequant * s).T
        assert np.allclose(lhs, rhs, atol=1e-8)


class TestAwqOmniquant:
    def test_awq_alpha_selected(self, weights, calib):
        res = METHODS["awq"].quantize(weights, calib, bits=4)
        assert 0.0 <= res.meta["alpha"] <= 1.0

    def test_awq_no_worse_than_rtn(self, results_w4, weights, calib):
        assert results_w4["awq"].reconstruction_error(weights, calib) <= (
            results_w4["rtn"].reconstruction_error(weights, calib) * 1.001
        )

    def test_omniquant_clipping_beats_rtn_at_w2(self, results_w2, weights, calib):
        assert results_w2["omniquant"].reconstruction_error(weights, calib) < (
            results_w2["rtn"].reconstruction_error(weights, calib)
        )

    def test_omniquant_wa_mode_returns_act_quantizer(self, weights, calib):
        res = METHODS["omniquant"].quantize(weights, calib, bits=4, act_bits=8)
        assert "act_quantizer" in res.meta
        assert res.meta["mode"] == "weight-activation"


# Uniform widths, then Atom-style mixes: (outlier-channel bits, other bits).
_GPTQ_BITS = [(2, 2), (4, 4), (8, 8), (8, 4), (8, 2)]
# (group_size, clip_ratio, pass a HessianBundle instead of the raw H).
_GPTQ_SETTINGS = [
    (g, c, bundle) for g in (128, 32) for c in (1.0, 0.75) for bundle in (False, True)
]
_GPTQ_SHAPES = [(o, i) for o in (1, 7, 288, 768) for i in (1, 5, 96, 130, 384)]


class TestGptqCoreTransposedWalk:
    """``gptq_core`` walks a transposed, C-contiguous working copy. Each
    output must equal the oracle's untransposed column walk bit for bit and
    come back C-contiguous ``[d_out, d_in]``. The oracle writes each
    column's update out inline (``vector``) or runs it through the oracle's
    OBS stage ``propagate_block_error`` (``reference``)."""

    @pytest.mark.parametrize("update", ["vector", "reference"])
    @pytest.mark.parametrize("d_out, d_in", _GPTQ_SHAPES)
    def test_equals_untransposed_walk(self, d_out, d_in, update):
        rng = np.random.default_rng(1000 * d_out + d_in)
        w = rng.normal(0.0, 0.02, (d_out, d_in))
        w[rng.random(w.shape) < 0.01] *= 6.0
        x = rng.normal(0.0, 1.0, (2 * d_in + 4, d_in))
        h = x.T @ x + 0.01 * np.eye(d_in)
        for k, (hi_bits, lo_bits) in enumerate(_GPTQ_BITS):
            bits_per_col = np.where(rng.random(d_in) < 0.15, hi_bits, lo_bits)
            # Each shape sees every width once, under a setting that rotates
            # through all eight across the grid.
            group_size, clip, bundle = _GPTQ_SETTINGS[(k + d_out + d_in) % 8]
            hessian = HessianBundle(h=h) if bundle else h
            args = (w, hessian, bits_per_col, group_size, clip)
            got = gptq_core(*args)
            assert got.flags["C_CONTIGUOUS"] and got.shape == (d_out, d_in)
            want = gptq_core_walk(*args, obs_stage=update == "reference")
            assert np.array_equal(got, want)

    def test_leaves_its_arguments_alone(self):
        rng = np.random.default_rng(7)
        w = np.asfortranarray(rng.normal(0.0, 1.0, (12, 40)))
        h = np.eye(40) * 2.0
        snapshot = w.copy()
        gptq_core(w, h, np.full(40, 4), 16)
        assert np.array_equal(w, snapshot)


# The baselines whose integer grids need a sign bit and one magnitude bit.
_INT_BASELINES = ["atom", "awq", "gptq", "olive", "omniquant", "rtn", "sdq", "smoothquant"]


class TestOneBitWeights:
    """A 1-bit symmetric integer grid has no magnitude level: every method
    either raises or stays finite, and a sweep never caches a NaN."""

    @pytest.mark.parametrize("name", _INT_BASELINES)
    def test_integer_baselines_raise(self, weights, calib, name):
        quantize = getattr(baselines, f"quantize_{name}")
        with pytest.raises(ValueError, match="got 1"):
            quantize(weights, calib, bits=1)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_evaluate_setting_finite_or_raises(self, method):
        try:
            metrics = evaluate_setting(
                "opt-6.7b", method, w_bits=1, eval_sequences=8, eval_seq_len=24
            )
        except (ValueError, RuntimeError):
            return
        floats = [v for v in metrics.values() if isinstance(v, float)]
        assert floats and all(math.isfinite(v) for v in floats)

    def test_sweep_reports_failure_and_caches_nothing(self, tmp_path):
        spec = SweepSpec(
            families=("opt-6.7b",), methods=("gptq",), w_bits=(1,),
            eval_sequences=8, eval_seq_len=24,
        )
        result = run_sweep(spec, cache_dir=str(tmp_path), executor="serial")
        assert not result.ok and len(result.failures()) == 1
        assert list(ResultCache(str(tmp_path)).entries()) == []
