"""Tests for ReCoN: the Fig. 8 walkthrough and randomized correctness.

The key invariant: for any μB with distributed outlier halves, routing the
PE row's raw outputs through ReCoN produces exactly the partial sums the
*dequantized* weights would produce — i.e., the NoC fully abstracts the
MX-FP outlier format from the INT PEs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import OutlierHalfProduct, ReCoN, ReconTrace, merge_halves


def build_ports(cols, outliers, inliers, iact, iaccs):
    """Assemble a PE row's output vector.

    ``outliers``: list of (upper_col, lower_col, sign, m1, m0) with the
    outlier's true value sign*(1 + m1/2 + m0/4) at upper_col and its Lower
    half hosted at (pruned) lower_col. ``inliers``: {col: int_code}.
    """
    ports = [None] * cols
    for pid, (up, lo, s, m1, m0) in enumerate(outliers):
        ports[up] = OutlierHalfProduct("upper", s * m1 * iact, iaccs[up], s, iact, 1, pid)
        ports[lo] = OutlierHalfProduct("lower", s * m0 * iact, iaccs[lo], s, iact, 1, pid)
    for c, code in inliers.items():
        ports[c] = code * iact + iaccs[c]
    for c in range(cols):
        if ports[c] is None:
            ports[c] = iaccs[c]  # zero weight
    return ports


def reference_output(cols, outliers, inliers, iact, iaccs):
    out = np.array(iaccs, dtype=float)
    for up, _lo, s, m1, m0 in outliers:
        out[up] += s * (1 + m1 / 2 + m0 / 4) * iact
    for c, code in inliers.items():
        out[c] += code * iact
    return out


class TestFig8Walkthrough:
    def test_expected_56(self):
        """Paper §5.6: outlier 1.5 (1.10b), iAct 32, iAcc 8 -> 56."""
        net = ReCoN(4)
        iaccs = [8, 10, 16, 16]
        ports = build_ports(
            4, outliers=[(0, 3, 1, 1, 0)], inliers={1: 1, 2: -1}, iact=32, iaccs=iaccs
        )
        out = net.route(ports)
        ref = reference_output(4, [(0, 3, 1, 1, 0)], {1: 1, 2: -1}, 32, iaccs)
        assert out == ref.tolist()
        assert out[0] == 56.0

    def test_trace_counts(self):
        net = ReCoN(4)
        tr = ReconTrace()
        ports = build_ports(4, [(0, 3, 1, 1, 0)], {1: 1, 2: -1}, 32, [8, 10, 16, 16])
        net.route(ports, tr)
        assert tr.merges == 1
        assert tr.passes == 2
        assert tr.swaps >= 1


class TestRandomizedCorrectness:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([4, 8, 16]),
        st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, seed, cols, n_outliers):
        rng = np.random.default_rng(seed)
        n_outliers = min(n_outliers, cols // 2)
        positions = rng.permutation(cols)
        outliers = []
        used = set()
        for i in range(n_outliers):
            up, lo = int(positions[2 * i]), int(positions[2 * i + 1])
            used |= {up, lo}
            outliers.append(
                (up, lo, int(rng.choice([-1, 1])), int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            )
        inliers = {
            int(c): int(rng.integers(-1, 2)) for c in positions[2 * n_outliers :]
        }
        iact = int(rng.integers(-128, 128))
        iaccs = rng.integers(-100, 100, cols).astype(float).tolist()
        net = ReCoN(cols)
        out = net.route(build_ports(cols, outliers, inliers, iact, iaccs))
        ref = reference_output(cols, outliers, inliers, iact, iaccs)
        assert np.allclose(out, ref)


class TestMergeHalves:
    def test_negative_outlier(self):
        """sign = -1 flips both mantissa products and the hidden bit."""
        iact = 16
        up = OutlierHalfProduct("upper", -1 * 1 * iact, 5.0, -1, iact, 1)
        lo = OutlierHalfProduct("lower", -1 * 1 * iact, 0.0, -1, iact, 1)
        # value = -(1 + 1/2 + 1/4) = -1.75; contribution -28 + iacc 5
        assert merge_halves(up, lo) == pytest.approx(-1.75 * iact + 5.0)

    def test_bb4_shifts(self):
        """At bb=4 halves carry 2 mantissa bits: shifts are >>2 and >>4."""
        iact = 8
        up = OutlierHalfProduct("upper", 3 * iact, 0.0, 1, iact, 2)
        lo = OutlierHalfProduct("lower", 2 * iact, 0.0, 1, iact, 2)
        expect = (3 / 4 + 2 / 16 + 1.0) * iact
        assert merge_halves(up, lo) == pytest.approx(expect)

    def test_rejects_wrong_order(self):
        up = OutlierHalfProduct("upper", 0, 0.0, 1, 0, 1)
        with pytest.raises(ValueError):
            merge_halves(up, up)


class TestNetworkValidation:
    def test_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            ReCoN(6)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            ReCoN(4).route([0.0] * 5)

    def test_rejects_unbalanced_halves(self):
        net = ReCoN(4)
        ports = [OutlierHalfProduct("upper", 0, 0.0, 1, 0, 1), 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            net.route(ports)

    def test_stage_count(self):
        assert ReCoN(64).n_stages == 7  # log2(64) + 1
