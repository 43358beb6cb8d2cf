"""Bit-identity of every method against the pre-refactor golden snapshots.

``tests/data/golden_quantizers.npz`` pins the exact ``dequant`` matrices and
EBW values every registered method produced on the shared fixture *before*
the ``repro.methods`` API refactor (generated by ``tests/data/make_golden.py``
at the PR-2 revision). Both calling conventions must reproduce them, up to
the BLAS rounding tolerance described below:

* the legacy positional kernels (``get_quantizer(name)(w, calib, ...)``);
* the first-class lifecycle (``get_method(name).quantize(...)``, i.e.
  ``prepare`` → ``HessianBundle`` resources → ``quantize_layer``).

Any numeric drift — a reordered reduction, a changed damping default, an
eagerly- vs lazily-computed factor — fails here before it can silently move
the paper tables.

The snapshot was written by one numpy/BLAS build, and another build may
round a GEMM or a Cholesky differently in the last bits (gptq and atom
differ by up to 15.6·eps·max|golden| on numpy 2.4.6 with scipy-openblas
0.3.31). So ``dequant`` is compared with |Δ| ≤ 64·eps·max|golden| per
matrix — a drift from a code change is many orders larger — while EBW
stays exact. Comparisons inside one process (library vs the tests'
oracle, executors, frontends) keep ``np.array_equal`` in their own suites.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import get_quantizer
from repro.methods import get_method, known_method_names

GOLDEN = Path(__file__).parent / "data" / "golden_quantizers.npz"

# Settings snapshotted per method; the weight-activation arm exists only for
# the act-aware methods (see tests/data/make_golden.py).
_ACT_AWARE = ("smoothquant", "omniquant", "atom", "microscopiq", "omni-microscopiq")


def _settings(method: str):
    base = [("w4", {"bits": 4}), ("w2", {"bits": 2})]
    if method in _ACT_AWARE:
        base.append(("w4a8", {"bits": 4, "act_bits": 8}))
    return base


def _cases():
    for method in known_method_names():
        for tag, kwargs in _settings(method):
            yield pytest.param(method, tag, kwargs, id=f"{method}-{tag}")


#: Per-matrix tolerance against the committed snapshot, in units of
#: eps·max|golden| (see the module docstring).
ULP_SCALE = 64


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.is_file(), "run tests/data/make_golden.py at a known-good rev"
    return np.load(GOLDEN)


def _toolchain() -> str:
    """The running numpy version and BLAS build, for failure messages."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy without mode="dicts"
        build = "unknown BLAS"
    return f"numpy {np.__version__}, {build}"


def _assert_matches_golden(res, golden, method: str, tag: str, api: str) -> None:
    expected = golden[f"{method}/{tag}/dequant"]
    assert res.dequant.shape == expected.shape
    diff = float(np.max(np.abs(res.dequant - expected), initial=0.0))
    bound = ULP_SCALE * np.finfo(expected.dtype).eps * float(
        np.max(np.abs(expected), initial=0.0)
    )
    assert diff <= bound, (
        f"{method} {tag}: {api} dequant drifted from the golden snapshot by "
        f"{diff:.3g} > {bound:.3g} ({ULP_SCALE}·eps·max|golden|) on {_toolchain()}"
    )
    assert res.ebw == float(golden[f"{method}/{tag}/ebw"])


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("method,tag,kwargs", _cases())
    def test_lifecycle_api_matches_golden(self, golden, weights, calib, method, tag, kwargs):
        res = get_method(method).quantize(weights, calib, **kwargs)
        _assert_matches_golden(res, golden, method, tag, "lifecycle")

    @pytest.mark.parametrize("method,tag,kwargs", _cases())
    def test_legacy_kernels_match_golden(self, golden, weights, calib, method, tag, kwargs):
        res = get_quantizer(method)(weights, calib, **kwargs)
        _assert_matches_golden(res, golden, method, tag, "kernel")

    def test_snapshot_covers_every_registered_method(self, golden):
        snapshotted = {k.split("/")[0] for k in golden.files}
        assert snapshotted == set(known_method_names()), (
            "method registry and golden snapshot drifted apart — regenerate "
            "tests/data/make_golden.py after registering a new builtin"
        )
