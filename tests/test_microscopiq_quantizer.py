"""Tests for the MicroScopiQ quantizer (Algorithm 1) and PackedLayer."""

import numpy as np
import pytest

from repro.formats.ebw import ebw_inlier, ebw_outlier
from repro.quant import MicroScopiQConfig, quantize_matrix
from tests.conftest import make_outlier_matrix


class TestPackedStructure:
    def test_shapes(self, packed_w2, weights):
        assert packed_w2.dequant.shape == weights.shape
        assert packed_w2.shape == weights.shape

    def test_pruned_slots_are_exactly_zero(self, packed_w2):
        assert np.all(packed_w2.dequant[packed_w2.pruned_mask] == 0.0)

    def test_one_prune_per_outlier(self, packed_w2):
        assert packed_w2.n_pruned == packed_w2.n_outliers

    def test_masks_disjoint(self, packed_w2):
        assert not np.any(packed_w2.outlier_mask & packed_w2.pruned_mask)

    def test_outlier_cap_respected(self, packed_w2):
        cap = packed_w2.config.max_outliers_per_ub
        assert packed_w2.ub_outlier_count.max() <= cap

    def test_perm_list_entries_match_counts(self, packed_w2):
        for (r, ub), entries in packed_w2.perm_lists.items():
            assert len(entries) == packed_w2.ub_outlier_count[r, ub]

    def test_perm_list_locations_in_range(self, packed_w2):
        bu = packed_w2.config.micro_block
        for entries in packed_w2.perm_lists.values():
            for up, lo in entries:
                assert 0 <= up < bu and 0 <= lo < bu and up != lo

    def test_perm_lists_only_for_outlier_ubs(self, packed_w2):
        keys = set(packed_w2.perm_lists)
        expected = set(zip(*np.nonzero(packed_w2.ub_outlier_count)))
        assert keys == {(int(r), int(u)) for r, u in expected}

    def test_ub_scale_set_only_with_outliers(self, packed_w2):
        has = packed_w2.ub_outlier_count > 0
        assert np.all(packed_w2.ub_scale[~has, 0] == -128)
        assert np.all(packed_w2.ub_scale[has, 0] != -128)

    def test_metadata_maps_to_mask(self, packed_w2):
        bu = packed_w2.config.micro_block
        for (r, ub), entries in packed_w2.perm_lists.items():
            for up, lo in entries:
                assert packed_w2.outlier_mask[r, ub * bu + up]
                assert packed_w2.pruned_mask[r, ub * bu + lo]


class TestEbw:
    def test_ebw_between_inlier_and_outlier_bounds(self, packed_w2):
        bb, bu = 2, 8
        assert ebw_inlier(bb) <= packed_w2.ebw() <= ebw_outlier(bb, bu)

    def test_ebw_near_paper_value(self, packed_w2):
        assert 2.0 < packed_w2.ebw() < 2.8  # paper: 2.36 on real FMs

    def test_storage_bits(self, packed_w2):
        assert packed_w2.storage_bits() == int(
            round(packed_w2.ebw() * packed_w2.dequant.size)
        )

    def test_w4_ebw(self, packed_w4):
        assert 4.0 < packed_w4.ebw() < 4.8  # paper: 4.15


class TestReconstruction:
    def test_forward_matches_dequant_matmul(self, packed_w2, calib):
        out = packed_w2.forward(calib)
        assert np.allclose(out, calib @ packed_w2.dequant.T)

    def test_w4_more_accurate_than_w2(self, packed_w2, packed_w4, weights, calib):
        assert packed_w4.reconstruction_error(weights, calib) < (
            packed_w2.reconstruction_error(weights, calib)
        )

    def test_outliers_preserved_within_mantissa_step(self, packed_w4, weights):
        """Kept outliers reconstruct with e3m4 accuracy (~6% relative)."""
        mask = packed_w4.outlier_mask
        rel = np.abs(packed_w4.dequant[mask] - weights[mask]) / np.abs(weights[mask])
        assert np.median(rel) < 0.10

    def test_error_much_lower_than_no_outlier_handling(self, weights, calib):
        cfg_ms = MicroScopiQConfig(inlier_bits=2)
        cfg_none = MicroScopiQConfig(inlier_bits=2, outlier_format="none")
        e_ms = quantize_matrix(weights, calib, cfg_ms).reconstruction_error(
            weights, calib
        )
        e_none = quantize_matrix(weights, calib, cfg_none).reconstruction_error(
            weights, calib
        )
        assert e_ms < 0.7 * e_none


class TestAblationToggles:
    """Each Table 7 knob must move the error in the documented direction."""

    def test_compensation_helps(self, weights, calib):
        base = MicroScopiQConfig(inlier_bits=2)
        e_on = quantize_matrix(weights, calib, base).reconstruction_error(weights, calib)
        e_off = quantize_matrix(
            weights, calib, base.with_(compensate=False)
        ).reconstruction_error(weights, calib)
        assert e_on < e_off

    def test_mx_fp_outliers_beat_mx_int(self, weights, calib):
        base = MicroScopiQConfig(inlier_bits=2)
        e_fp = quantize_matrix(weights, calib, base).reconstruction_error(weights, calib)
        e_int = quantize_matrix(
            weights, calib, base.with_(outlier_format="mx-int")
        ).reconstruction_error(weights, calib)
        assert e_fp <= e_int * 1.02

    def test_hessian_pruning_no_worse_than_adjacent(self, weights, calib):
        """Unlike OliVe, the 'adjacent' ablation here still protects
        outliers, so the gap is small — Hessian selection must simply never
        lose. (The OliVe baseline's *outlier-destroying* adjacency is
        covered in test_baselines.)"""
        base = MicroScopiQConfig(inlier_bits=2)
        e_h = quantize_matrix(weights, calib, base).reconstruction_error(weights, calib)
        e_adj = quantize_matrix(
            weights, calib, base.with_(prune_strategy="adjacent")
        ).reconstruction_error(weights, calib)
        assert e_h <= e_adj * 1.02

    def test_prescale_outliers_no_worse(self, weights, calib):
        base = MicroScopiQConfig(inlier_bits=2)
        e_pre = quantize_matrix(weights, calib, base).reconstruction_error(weights, calib)
        e_raw = quantize_matrix(
            weights, calib, base.with_(prescale_outliers=False)
        ).reconstruction_error(weights, calib)
        assert e_pre <= e_raw * 1.05

    def test_lwc_no_worse(self, weights, calib):
        base = MicroScopiQConfig(inlier_bits=2)
        e = quantize_matrix(weights, calib, base).reconstruction_error(weights, calib)
        e_lwc = quantize_matrix(
            weights, calib, base.with_(lwc=True)
        ).reconstruction_error(weights, calib)
        assert e_lwc <= e * 1.05


class TestGroupSizes:
    @pytest.mark.parametrize("bu", [4, 8, 16])
    def test_micro_block_sizes_run(self, weights, calib, bu):
        cfg = MicroScopiQConfig(inlier_bits=2, micro_block=bu, macro_block=128)
        packed = quantize_matrix(weights, calib, cfg)
        assert packed.ub_outlier_count.max() <= bu // 2

    def test_ragged_matrix(self, calib):
        """d_in not a multiple of MaB or μB still quantizes correctly."""
        w = make_outlier_matrix(d_out=20, d_in=150, seed=3)
        x = calib[:, :150]
        packed = quantize_matrix(w, x, MicroScopiQConfig(inlier_bits=4))
        assert packed.dequant.shape == w.shape
        assert packed.reconstruction_error(w, x) < 0.3

    def test_tiny_matrix(self):
        w = make_outlier_matrix(d_out=4, d_in=16, seed=4)
        packed = quantize_matrix(w, None, MicroScopiQConfig(inlier_bits=4))
        assert packed.dequant.shape == w.shape


class TestNMPattern:
    def test_structured_pruning_pattern(self, packed_w2):
        """(B_μ - n):B_μ — each μB has exactly n pruned slots for its n
        outliers (§4.3)."""
        bu = packed_w2.config.micro_block
        d_in = packed_w2.d_in
        for (r, ub), entries in list(packed_w2.perm_lists.items())[:50]:
            sl = slice(ub * bu, min((ub + 1) * bu, d_in))
            assert packed_w2.pruned_mask[r, sl].sum() == len(entries)


class TestNoCalibration:
    def test_runs_without_calibration(self, weights):
        packed = quantize_matrix(weights, None, MicroScopiQConfig(inlier_bits=4))
        assert packed.reconstruction_error(weights) < 0.25

    def test_calibration_improves_output_error(self, weights, calib):
        cfg = MicroScopiQConfig(inlier_bits=2)
        with_c = quantize_matrix(weights, calib, cfg).reconstruction_error(
            weights, calib
        )
        without = quantize_matrix(weights, None, cfg).reconstruction_error(
            weights, calib
        )
        assert with_c < without


class TestDeterminism:
    def test_repeatable(self, weights, calib):
        cfg = MicroScopiQConfig(inlier_bits=2)
        a = quantize_matrix(weights, calib, cfg)
        b = quantize_matrix(weights, calib, cfg)
        assert np.array_equal(a.dequant, b.dequant)
        assert a.perm_lists == b.perm_lists

    def test_input_not_mutated(self, weights, calib):
        w0 = weights.copy()
        quantize_matrix(weights, calib, MicroScopiQConfig())
        assert np.array_equal(weights, w0)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            quantize_matrix(np.zeros(8), None, MicroScopiQConfig())


def _hostile_input(case):
    """``quantize_matrix`` arguments for one bad input: a 16×64 matrix and
    40×64 calibration with one thing wrong."""
    rng = np.random.default_rng(5)
    w = rng.normal(0.0, 0.02, (16, 64))
    x = rng.normal(0.0, 1.0, (40, 64))
    h = None
    if case == "nan-weight":
        w[3, 7] = np.nan
    elif case == "inf-weight":
        w[3, 7] = np.inf
    elif case == "neg-inf-weight":
        w[0, 0] = -np.inf
    elif case == "no-rows":
        w = w[:0]
    elif case == "no-columns":
        w, x = w[:, :0], None
    elif case == "calib-1d":
        x = x[0]
    elif case == "calib-nan":
        x[2, 5] = np.nan
    elif case == "calib-other-d-in":
        x = x[:, :32]
    elif case == "hessian-nan":
        h = x.T @ x
        h[4, 4] = np.nan
    elif case == "hessian-other-shape":
        h = np.eye(32)
    return w, x, h


class TestHostileInput:
    """Every unusable input raises one ``ValueError`` naming it, at the
    entry: a NaN or ±inf weight used to come back as NaN along its row (the
    compensation spreads it), NaN calibration raised an untyped conversion
    error deep in the outlier stage, a mismatched ``d_in`` a broadcast
    error, and an empty matrix a NaN ``ebw()`` or an empty-slice warning."""

    @pytest.mark.parametrize(
        "case,message",
        [
            pytest.param(case, message, id=case)
            for case, message in (
                ("nan-weight", r"weights hold 1 non-finite value"),
                ("inf-weight", r"weights hold 1 non-finite value"),
                ("neg-inf-weight", r"weights hold 1 non-finite value"),
                ("no-rows", r"weights must have d_out, d_in >= 1, got shape \(0, 64\)"),
                ("no-columns", r"weights must have d_out, d_in >= 1, got shape \(16, 0\)"),
                ("calib-1d", r"calib_inputs must be \[n, d_in=64\], got shape \(64,\)"),
                ("calib-nan", r"calib_inputs hold non-finite value"),
                ("calib-other-d-in", r"calib_inputs must be \[n, d_in=64\], got shape \(40, 32\)"),
                ("hessian-nan", r"hessian holds non-finite value"),
                ("hessian-other-shape", r"hessian must be \[d_in, d_in\] = \[64, 64\]"),
            )
        ],
    )
    def test_rejected_with_a_typed_error(self, case, message):
        w, x, h = _hostile_input(case)
        with pytest.raises(ValueError, match=message):
            quantize_matrix(w, x, MicroScopiQConfig(inlier_bits=4), hessian=h)
