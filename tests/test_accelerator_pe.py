"""Tests for the multi-precision PE (Eq. 5 multiplier tree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    MODE_2B,
    MODE_4B,
    MultiPrecisionPE,
    OutlierHalfProduct,
    pe_multiply_2b,
    pe_multiply_4b,
)


class TestMultiplierTree:
    def test_exhaustive_4b(self):
        """All 16 weights x all 256 iActs: the tree is bit-exact."""
        for w in range(-8, 8):
            for a in range(-128, 128):
                assert pe_multiply_4b(w, a) == w * a

    @given(st.integers(-2, 1), st.integers(-2, 1), st.integers(-128, 127))
    @settings(max_examples=100, deadline=None)
    def test_2b_pair_exact(self, wh, wl, a):
        rh, rl = pe_multiply_2b(wh, wl, a)
        assert rh == wh * a and rl == wl * a

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            pe_multiply_4b(8, 0)

    def test_rejects_out_of_range_iact(self):
        with pytest.raises(ValueError):
            pe_multiply_4b(0, 200)


class TestPE:
    def test_inlier_4b_accumulates(self):
        pe = MultiPrecisionPE(weights=5, mode=MODE_4B)
        assert pe.step(iact=10, iacc=7) == 57

    def test_inlier_2b_dual_accumulate(self):
        pe = MultiPrecisionPE(weights=(1, -1), mode=MODE_2B)
        hi, lo = pe.step(iact=10, iacc=(100, 200))
        assert hi == 110 and lo == 190

    def test_outlier_half_offloads(self):
        pe = MultiPrecisionPE(weights=1, mode=MODE_4B, outlier_half="upper")
        out = pe.step(iact=32, iacc=8)
        assert isinstance(out, OutlierHalfProduct)
        assert out.res == 32 and out.iacc == 8 and out.magnitude_bits == 2

    def test_outlier_2b_half(self):
        pe = MultiPrecisionPE(weights=(1, 0), mode=MODE_2B, outlier_half="lower")
        out = pe.step(iact=16, iacc=3)
        assert isinstance(out, OutlierHalfProduct)
        assert out.magnitude_bits == 1

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            MultiPrecisionPE(weights=0, mode="16b")

    def test_rejects_bad_half(self):
        with pytest.raises(ValueError):
            MultiPrecisionPE(weights=0, outlier_half="middle")
