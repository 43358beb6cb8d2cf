"""Regenerate the quantizer golden snapshots (tests/data/golden_quantizers.npz).

Run from the repo root against a KNOWN-GOOD revision only:

    PYTHONPATH=src python tests/data/make_golden.py

The snapshot pins the exact ``dequant`` matrices and EBW values of every
registered quantization method on the shared test fixture (planted-outlier
weights + correlated calibration), at W4/W2 weight-only plus two
weight-activation settings. ``tests/test_golden_snapshots.py`` asserts the
live quantizers reproduce these bit for bit, so any refactor of the method
API, the engine, or the kernels that changes numerics — even in the last
ulp — fails loudly instead of silently drifting the paper tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from conftest import make_outlier_matrix  # noqa: E402

from repro.baselines import get_quantizer  # noqa: E402
from repro.methods import known_method_names  # noqa: E402

OUT = Path(__file__).resolve().parent / "golden_quantizers.npz"

# (tag, extra kwargs) settings every method is snapshotted under; the
# weight-activation arm only applies to the act-aware methods.
WEIGHT_ONLY = [("w4", {"bits": 4}), ("w2", {"bits": 2})]
WEIGHT_ACT = [("w4a8", {"bits": 4, "act_bits": 8})]
ACT_AWARE = ("smoothquant", "omniquant", "atom", "microscopiq", "omni-microscopiq")


def fixture_weights() -> np.ndarray:
    return make_outlier_matrix()


def fixture_calib() -> np.ndarray:
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 1.0, (256, 256))
    cov = a @ a.T / 256
    return rng.multivariate_normal(np.zeros(256), cov, size=128)


def main() -> None:
    weights = fixture_weights()
    calib = fixture_calib()
    blobs: dict[str, np.ndarray] = {}
    for method in sorted(known_method_names()):
        settings = list(WEIGHT_ONLY)
        if method in ACT_AWARE:
            settings += WEIGHT_ACT
        for tag, kwargs in settings:
            res = get_quantizer(method)(weights, calib, **kwargs)
            blobs[f"{method}/{tag}/dequant"] = res.dequant
            blobs[f"{method}/{tag}/ebw"] = np.float64(res.ebw)
            print(f"{method:18s} {tag:5s} ebw={res.ebw:.3f}")
    np.savez_compressed(OUT, **blobs)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes, {len(blobs)} arrays)")


if __name__ == "__main__":
    main()
