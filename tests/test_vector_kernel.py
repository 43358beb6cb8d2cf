"""The vectorized quantization kernels against the tests' oracle.

The library runs batched μB quantization inside ``quantize_matrix``, the
GEMM-form OBS block update, vectorized gptq/olive inner loops, and the
engine's row-stacked shape batching — all of which must be
**bit-identical** to the per-row walks kept in :mod:`kernel_oracle`. This
suite pins that contract:

* the one-path stub ``resolve_kernel_path`` that ``sweepbench`` stamps;
* library-vs-oracle equality across all registered baselines and across
  representative MicroScopiQ configs, including full
  :class:`~repro.quant.packed.PackedLayer` structural equality;
* a randomized ragged-shape property test (``d_in % micro_block != 0``,
  ``d_in % macro_block != 0``), and the two ``prune_strategy="adjacent"``
  regressions;
* ``propagate_block_error_gemm`` against the oracle's column loop;
* the engine's shape batching: same model bits as the oracle's unbatched
  run, batches actually formed for ``row_batchable`` methods and refused
  for the rest;
* ``split_rows`` round-trips for :class:`PackedLayer` and
  :class:`BaselineResult`;
* the memory contract: Hessian bundles drop their activation reference
  once ``H`` exists, and disk-served bundles never hold one;
* :meth:`SweepResult.pareto` frontier correctness.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from kernel_oracle import (
    assert_packed_equal,
    gptq_core_walk,
    oracle_kernels,
    propagate_block_error,
    quantize_olive_walk,
)

from repro.baselines import get_quantizer
from repro.methods import get_method, known_method_names
from repro.quant.config import MicroScopiQConfig
from repro.quant.kernel import BlockQuantKernel
from repro.quant.microscopiq import quantize_matrix
from repro.quant.vector import resolve_kernel_path
from tests.conftest import make_outlier_matrix


@contextmanager
def on_oracles():
    """Everything the per-row walks used to cover: :func:`oracle_kernels`
    plus GPTQ's untransposed column walk (``gptq``, ``atom``)."""
    with oracle_kernels(), mock.patch(
        "repro.baselines.gptq.gptq_core", gptq_core_walk
    ), mock.patch("repro.baselines.atom.gptq_core", gptq_core_walk):
        yield


def oracle_quantize(quantize, method, *args, **kwargs):
    """``quantize(*args, **kwargs)`` (``method``'s library entry point) run
    on the oracles. OliVe's registered function is bound at import, so its
    oracle is called directly."""
    if method == "olive":
        return quantize_olive_walk(*args, **kwargs)
    with on_oracles():
        return quantize(*args, **kwargs)


def oracle_matrix(weights, calib=None, config=None):
    """``quantize_matrix`` on the oracle's per-row walk."""
    with oracle_kernels():
        return quantize_matrix(weights, calib, config)


def assert_result_equal(a, b, context=""):
    assert np.array_equal(a.dequant, b.dequant), f"{context}: dequant differs"
    assert a.ebw == b.ebw, f"{context}: ebw differs"
    pa, pb = a.meta.get("packed"), b.meta.get("packed")
    assert (pa is None) == (pb is None), context
    if pa is not None:
        assert_packed_equal(pa, pb, context)
    for key in a.meta:
        if key in ("packed", "act_quantizer"):
            continue
        va, vb = a.meta[key], b.meta.get(key)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f"{context}: meta[{key}] differs"
        else:
            assert va == vb, f"{context}: meta[{key}] differs"


# ------------------------------------------------------------- path stub


class TestKernelPathResolution:
    def test_default_is_vector(self, monkeypatch):
        # The environment variable that used to pick a path is ignored.
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert resolve_kernel_path() == "vector"

    def test_override_restored_on_error(self):
        """The oracle seam must not outlive its block, or every later
        library run in the process would silently be the oracle."""
        from repro.quant import engine, microscopiq

        impl, coalesce = microscopiq._quantize_matrix_impl, engine._coalesce_tasks
        with pytest.raises(RuntimeError):
            with oracle_kernels():
                assert microscopiq._quantize_matrix_impl is not impl
                assert engine._coalesce_tasks is not coalesce
                raise RuntimeError("boom")
        assert microscopiq._quantize_matrix_impl is impl
        assert engine._coalesce_tasks is coalesce


# ------------------------------------------------- every baseline vs. oracle


_ACT_AWARE = ("smoothquant", "omniquant", "atom", "microscopiq", "omni-microscopiq")


def _settings(method: str):
    base = [("w4", {"bits": 4}), ("w2", {"bits": 2})]
    if method in _ACT_AWARE:
        base.append(("w4a8", {"bits": 4, "act_bits": 8}))
    return base


def _method_cases():
    for method in known_method_names():
        for tag, kwargs in _settings(method):
            yield pytest.param(method, kwargs, id=f"{method}-{tag}")


class TestEveryBaselineBothPaths:
    @pytest.mark.parametrize("method,kwargs", _method_cases())
    def test_vector_matches_reference(self, weights, calib, method, kwargs):
        quantize = get_method(method).quantize
        ref = oracle_quantize(quantize, method, weights, calib, **kwargs)
        vec = quantize(weights, calib, **kwargs)
        assert_result_equal(ref, vec, f"{method} {kwargs}")

    @pytest.mark.parametrize("method", sorted(known_method_names()))
    def test_vector_matches_reference_without_calibration(self, weights, method):
        quantize = get_quantizer(method)
        ref = oracle_quantize(quantize, method, weights, None, bits=4)
        vec = quantize(weights, None, bits=4)
        assert_result_equal(ref, vec, f"{method} no-calib")


# -------------------------------------------------- microscopiq config sweep


_CONFIGS = {
    "default-w4": MicroScopiQConfig(inlier_bits=4),
    "default-w2": MicroScopiQConfig(inlier_bits=2),
    "no-compensate": MicroScopiQConfig(inlier_bits=4, compensate=False),
    "mx-int": MicroScopiQConfig(inlier_bits=4, outlier_format="mx-int"),
    "no-outlier-format": MicroScopiQConfig(inlier_bits=4, outlier_format="none"),
    "magnitude-prune": MicroScopiQConfig(inlier_bits=4, prune_strategy="magnitude"),
    "adjacent-prune": MicroScopiQConfig(inlier_bits=4, prune_strategy="adjacent"),
    "no-prescale": MicroScopiQConfig(inlier_bits=4, prescale_outliers=False),
    "ub4": MicroScopiQConfig(inlier_bits=4, micro_block=4),
    "ub16": MicroScopiQConfig(inlier_bits=4, micro_block=16),
    "lwc": MicroScopiQConfig(inlier_bits=4, lwc=True),
}


class TestMicroScopiQConfigs:
    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    @pytest.mark.parametrize("with_calib", [True, False], ids=["calib", "nocalib"])
    def test_config_bit_identical(self, weights, calib, name, with_calib):
        cfg = _CONFIGS[name]
        x = calib if with_calib else None
        ref = oracle_matrix(weights, x, cfg)
        vec = quantize_matrix(weights, x, cfg)
        assert_packed_equal(ref, vec, name)

    @pytest.mark.parametrize("seed", range(6))
    def test_ragged_shapes_property(self, seed):
        """Randomized shapes with d_in not a multiple of the micro- or
        macro-block: the tail μB/MaB paths must agree too."""
        rng = np.random.default_rng(seed)
        d_out = int(rng.integers(3, 24))
        d_in = int(rng.integers(17, 300))
        micro = int(rng.choice([4, 8, 16]))
        macro = micro * int(rng.choice([2, 4, 16]))
        w = make_outlier_matrix(d_out=d_out, d_in=d_in, seed=seed + 100)
        x = np.random.default_rng(seed + 500).normal(0, 1, (64, d_in))
        cfg = MicroScopiQConfig(
            inlier_bits=4,
            micro_block=micro,
            macro_block=macro,
            compensate=bool(seed % 2),
        )
        ref = oracle_matrix(w, x, cfg)
        vec = quantize_matrix(w, x, cfg)
        assert_packed_equal(ref, vec, f"seed={seed} {d_out}x{d_in} ub={micro}")


class TestAdjacentPrune:
    """``prune_strategy="adjacent"`` (OliVe's victim choice) on the two
    inputs that broke it."""

    def test_pruned_slot_at_position_zero_reads_zero(self):
        # Row 0 prunes μB positions 0 and 3; row 1 prunes four slots, so
        # row 0's picks are padded to four — with position 0.
        w = np.random.default_rng(0).normal(0, 0.02, (2, 128))
        w[0, 0] = 0.05
        w[0, 1:3] = 1.0
        w[1, 0:4] = 1.0
        cfg = MicroScopiQConfig(inlier_bits=4, prune_strategy="adjacent", compensate=False)
        vec = quantize_matrix(w, None, cfg)
        assert vec.pruned_mask[0, 0] and vec.dequant[0, 0] == 0.0
        assert_packed_equal(oracle_matrix(w, None, cfg), vec, "no calibration")

        x = np.random.default_rng(1).normal(0, 1, (64, 128))
        cfg = MicroScopiQConfig(inlier_bits=4, prune_strategy="adjacent")
        vec = quantize_matrix(w, x, cfg)
        assert not vec.dequant[vec.pruned_mask].any()
        assert_packed_equal(oracle_matrix(w, x, cfg), vec, "compensated")

    def test_tail_ub_with_more_outliers_than_inliers(self):
        # The 1-column tail macro-block's only entry is an outlier: there
        # is no inlier to give up its slot.
        w = np.random.default_rng(2).normal(0, 0.02, (1, 129))
        w[0, 128] = 1.0
        cfg = MicroScopiQConfig(inlier_bits=4, prune_strategy="adjacent")
        vec = quantize_matrix(w, None, cfg)
        assert vec.outlier_mask[0, 128] and not vec.pruned_mask[0, 128]
        assert_packed_equal(oracle_matrix(w, None, cfg), vec, "tail")


# ----------------------------------------------------------- OBS GEMM update


class TestPropagateBlockErrorGemm:
    """The GEMM form's contract (see its docstring) against the oracle's
    column loop: error terms follow the identical sequential conditioning;
    only the *summation order* of the trailing updates may differ, at ulp
    scale. Full bit-identity is an
    end-to-end property of the quantizers (asserted above on goldens and
    random matrices), not a per-call guarantee on arbitrary floats."""

    @staticmethod
    def _problem(d_in=96, d_out=12, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (256, d_in))
        h = 2.0 * x.T @ x + 0.01 * np.eye(d_in)
        u = np.ascontiguousarray(np.linalg.cholesky(np.linalg.inv(h)).T)
        w0 = rng.normal(0, 1, (d_out, d_in))
        q = np.round(w0 * 4) / 4
        return w0, q, u

    def test_single_column_block_is_exact(self):
        # hi == lo+1: the GEMM is one outer product — identical fp ops.
        w0, q, u = self._problem()
        for lo in range(w0.shape[1]):
            w_ref, w_gemm = w0.copy(), w0.copy()
            propagate_block_error(w_ref, q, u, lo, lo + 1)
            BlockQuantKernel.propagate_block_error_gemm(w_gemm, q, u, lo, lo + 1)
            assert np.array_equal(w_ref, w_gemm), f"column {lo}"

    @pytest.mark.parametrize("block", [7, 8, 32])
    def test_wide_blocks_agree_to_ulp(self, block):
        w0, q, u = self._problem()
        d_in = w0.shape[1]
        for lo in range(0, d_in, block):
            hi = min(lo + block, d_in)
            w_ref, w_gemm = w0.copy(), w0.copy()
            propagate_block_error(w_ref, q, u, lo, hi)
            BlockQuantKernel.propagate_block_error_gemm(w_gemm, q, u, lo, hi)
            # Columns at or before the block are untouched by both forms.
            assert np.array_equal(w_ref[:, :hi], w0[:, :hi])
            assert np.array_equal(w_gemm[:, :hi], w0[:, :hi])
            np.testing.assert_allclose(
                w_ref, w_gemm, rtol=1e-12, atol=1e-13,
                err_msg=f"block [{lo},{hi})",
            )


# ------------------------------------------------------- engine shape batching


class TestEngineShapeBatching:
    def _quantize(self, method, path, **kw):
        """Quantize opt-6.7b with the library (``path="vector"``) or on the
        oracles, unbatched (``path="reference"``)."""
        from repro.models import build_model
        from repro.quant.engine import HessianStore, quantize_model

        model = build_model("opt-6.7b")
        with on_oracles() if path == "reference" else nullcontext():
            report = quantize_model(
                model, method, 4, hessian_store=HessianStore(), **kw,
            )
        overrides = {n: model.overrides[n].copy() for n in model.linear_names}
        model.clear_overrides()
        return overrides, report

    def _batches_formed(self, fn):
        from repro.obs.metrics import METRICS

        before = METRICS.snapshot().get("engine.layer_batches", 0)
        out = fn()
        return out, METRICS.snapshot().get("engine.layer_batches", 0) - before

    @pytest.mark.parametrize("method", ["microscopiq", "gptq", "rtn"])
    def test_batched_vector_matches_reference(self, method):
        ref, ref_report = self._quantize(method, "reference")
        (out, report), n_batches = self._batches_formed(
            lambda: self._quantize(method, "vector")
        )
        assert n_batches > 0, "no batches formed for a row_batchable method"
        for name in ref:
            assert np.array_equal(ref[name], out[name]), name
        assert ref_report.layer_ebw == report.layer_ebw
        assert ref_report.layer_meta == report.layer_meta

    def test_non_batchable_method_stays_unbatched(self):
        (_, _), n_batches = self._batches_formed(
            lambda: self._quantize("olive", "vector")
        )
        assert n_batches == 0

    def test_per_tensor_rtn_stays_unbatched(self):
        (_, _), n_batches = self._batches_formed(
            lambda: self._quantize("rtn", "vector", per_tensor=True)
        )
        assert n_batches == 0

    def test_reference_path_never_batches(self):
        (_, _), n_batches = self._batches_formed(
            lambda: self._quantize("rtn", "reference")
        )
        assert n_batches == 0

    def test_packed_layers_survive_batching(self):
        _, ref_report = self._quantize("microscopiq", "reference")
        _, vec_report = self._quantize("microscopiq", "vector")
        assert set(ref_report.layer_packed) == set(vec_report.layer_packed)
        for name in ref_report.layer_packed:
            assert_packed_equal(
                ref_report.layer_packed[name], vec_report.layer_packed[name], name
            )


# ------------------------------------------------------------------ split_rows


class TestSplitRows:
    def test_packed_split_rows_rebases_rows(self, packed_w4):
        d_out = packed_w4.d_out
        sizes = [d_out // 3, d_out // 3, d_out - 2 * (d_out // 3)]
        parts = packed_w4.split_rows(sizes)
        lo = 0
        for part, n in zip(parts, sizes):
            hi = lo + n
            assert part.d_out == n
            assert np.array_equal(part.dequant, packed_w4.dequant[lo:hi])
            assert np.array_equal(
                part.ub_outlier_count, packed_w4.ub_outlier_count[lo:hi]
            )
            for (r, u), entries in part.perm_lists.items():
                assert 0 <= r < n
                assert packed_w4.perm_lists[(r + lo, u)] == entries
            lo = hi
        total = sum(len(p.perm_lists) for p in parts)
        assert total == len(packed_w4.perm_lists)

    def test_packed_split_rows_validates_sizes(self, packed_w4):
        with pytest.raises(ValueError, match="sum to d_out"):
            packed_w4.split_rows([1, 2])

    def test_baseline_result_split_recomputes_packed_ebw(self, weights, calib):
        res = get_quantizer("microscopiq")(weights, calib, bits=4)
        parts = res.split_rows([weights.shape[0] // 2,
                                weights.shape[0] - weights.shape[0] // 2])
        for part in parts:
            assert part.ebw == part.meta["packed"].ebw()
        joined = np.vstack([p.dequant for p in parts])
        assert np.array_equal(joined, res.dequant)

    def test_baseline_result_split_validates_sizes(self, weights, calib):
        res = get_quantizer("rtn")(weights, None, bits=4)
        with pytest.raises(ValueError, match="sum to"):
            res.split_rows([1])


# ------------------------------------------------------------- memory contract


class TestHessianMemoryContract:
    def test_bundle_drops_acts_after_h(self):
        from repro.methods.resources import HessianBundle

        acts = np.random.default_rng(0).normal(0, 1, (64, 16))
        bundle = HessianBundle(acts, 0.01)
        assert bundle.acts is not None
        bundle.h
        assert bundle.acts is None

    def test_disk_served_bundle_never_holds_acts(self, tmp_path):
        from repro.methods.resources import HessianStore

        acts = np.random.default_rng(1).normal(0, 1, (64, 16))
        first = HessianStore(disk_root=tmp_path)
        first.bundle(acts, 0.01).h
        second = HessianStore(disk_root=tmp_path)
        bundle = second.bundle(acts, 0.01)
        assert bundle.acts is None  # factors came from disk; nothing pinned
        assert bundle.h_builds == 0


# ------------------------------------------------------------------- pareto


class TestPareto:
    def _result(self, points):
        """A SweepResult over synthetic hw outcomes carrying (x, y) pairs."""
        from repro.pipeline.runner import SweepResult
        from repro.pipeline.spec import ExperimentSpec, Job
        from repro.pipeline.executor import JobOutcome

        outcomes = []
        jobs = []
        for i, (ppl, energy) in enumerate(points):
            spec = ExperimentSpec(
                family="opt-6.7b", method="microscopiq", w_bits=4,
                arch="microscopiq-v2", kind="codesign", label=f"p{i}",
            )
            job = Job(spec, seed=i)
            jobs.append(job)
            outcomes.append(JobOutcome(
                job=job, metrics={"ppl": ppl, "energy_nj": energy},
            ))
        return SweepResult(jobs=jobs, outcomes=outcomes)

    def test_frontier_drops_dominated_points(self):
        result = self._result([
            (10.0, 5.0),   # frontier
            (12.0, 3.0),   # frontier (better energy)
            (12.0, 6.0),   # dominated by (10, 5)
            (11.0, 5.0),   # dominated by (10, 5)
        ])
        frontier = result.pareto("ppl", "energy_nj")["opt-6.7b"]
        assert [(p["x"], p["y"]) for p in frontier] == [(10.0, 5.0), (12.0, 3.0)]

    def test_frontier_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = [(float(a), float(b)) for a, b in rng.uniform(1, 100, (40, 2))]
        frontier = self._result(pts).pareto("ppl", "energy_nj")["opt-6.7b"]
        got = {(p["x"], p["y"]) for p in frontier}
        expect = {
            (ax, ay)
            for ax, ay in pts
            if not any(
                (bx, by) != (ax, ay) and bx <= ax and by <= ay
                for bx, by in pts
            )
        }
        assert got == expect

    def test_auto_metric_respects_substrate_direction(self):
        # With maximize_x default (auto): ppl minimizes, so higher-ppl points
        # need lower energy to survive; forcing maximize_x flips that.
        result = self._result([(10.0, 5.0), (20.0, 5.0)])
        lo = result.pareto("auto", "energy_nj")["opt-6.7b"]
        assert [(p["x"], p["y"]) for p in lo] == [(10.0, 5.0)]
        hi = result.pareto("ppl", "energy_nj", maximize_x=True)["opt-6.7b"]
        assert [(p["x"], p["y"]) for p in hi] == [(20.0, 5.0)]

    def test_jobs_missing_either_metric_are_skipped(self):
        from repro.pipeline.runner import SweepResult
        from repro.pipeline.spec import ExperimentSpec, Job
        from repro.pipeline.executor import JobOutcome

        spec = ExperimentSpec(family="opt-6.7b", method="rtn", w_bits=4)
        job = Job(spec, seed=0)
        accuracy_only = JobOutcome(job=job, metrics={"ppl": 9.0})
        result = SweepResult(jobs=[job], outcomes=[accuracy_only])
        assert result.pareto("ppl", "energy_nj") == {}
