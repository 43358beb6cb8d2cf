"""End-to-end sweep behavior: caching, determinism, parallel speedup.

The acceptance gate: a ≥24-job sweep through the process pool must beat the
serial executor when the machine has the cores for it, and an immediate
identical re-run must be answered entirely from the content-addressed cache
with equal results. The last test pins bit-identity of Hessian methods
across the caller's BLAS pool size and the executors.
"""

from __future__ import annotations

import os
import time

import pytest
from blas_oracle import openblas_num_threads

from repro.methods import default_hessian_store
from repro.pipeline import ExperimentSpec, SweepSpec, run_sweep

CHEAP = dict(eval_sequences=8, eval_seq_len=24)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fail_on_w3(job):
    from repro.pipeline.runner import execute_job

    if job.spec.w_bits == 3:
        raise ValueError("w3 kernel bug")
    return execute_job(job)


def test_run_sweep_end_to_end_with_cache(tmp_path):
    spec = SweepSpec(
        families=("opt-6.7b",), methods=("fp16", "rtn"), w_bits=(4, 2), **CHEAP
    )
    first = run_sweep(spec, cache_dir=str(tmp_path), executor="serial")
    assert first.ok and first.cache_hits == 0
    ppl = first.pivot("family", "method", metric="ppl")
    assert ppl["opt-6.7b"]["rtn"] > ppl["opt-6.7b"]["fp16"] > 1.0

    again = run_sweep(spec, cache_dir=str(tmp_path), executor="serial")
    assert again.hit_rate == 1.0
    assert again.metrics_by_hash() == first.metrics_by_hash()
    assert again.telemetry["computed"] == 0

    # A partially-overlapping sweep only computes the new cells.
    wider = SweepSpec(
        families=("opt-6.7b",), methods=("fp16", "rtn"), w_bits=(4, 2, 8), **CHEAP
    )
    partial = run_sweep(wider, cache_dir=str(tmp_path), executor="serial")
    assert partial.telemetry["computed"] == 1
    assert partial.cache_hits == len(first.outcomes)


def test_sweep_seed_invalidates_cache(tmp_path):
    spec = SweepSpec(families=("opt-6.7b",), methods=("rtn",), seed=0, **CHEAP)
    run_sweep(spec, cache_dir=str(tmp_path), executor="serial")
    reseeded = SweepSpec(families=("opt-6.7b",), methods=("rtn",), seed=1, **CHEAP)
    result = run_sweep(reseeded, cache_dir=str(tmp_path), executor="serial")
    assert result.cache_hits == 0


def test_failures_are_reported_and_never_cached(tmp_path):
    spec = SweepSpec(families=("opt-6.7b",), methods=("rtn",), w_bits=(2, 3), **CHEAP)
    broken = run_sweep(
        spec, cache_dir=str(tmp_path), executor="serial", kernel=_fail_on_w3
    )
    assert not broken.ok
    assert len(broken.failures()) == 1
    assert broken.failures()[0].error["type"] == "ValueError"
    with pytest.raises(KeyError, match="failed"):
        broken[broken.failures()[0].job.spec]

    # The fixed kernel recomputes the failed cell (failures are not cached)
    # while the good cell comes back as a hit.
    fixed = run_sweep(spec, cache_dir=str(tmp_path), executor="serial")
    assert fixed.ok
    assert fixed.cache_hits == 1 and fixed.telemetry["computed"] == 1


def test_result_aggregation_helpers():
    spec = SweepSpec(families=("opt-6.7b",), methods=("fp16", "rtn"), w_bits=(4, 2), **CHEAP)
    result = run_sweep(spec, executor="serial")
    assert result.value(method="fp16") == pytest.approx(
        result.pivot()["opt-6.7b"]["fp16"]
    )
    table = result.as_table("method", "w_bits", metric="ppl")
    assert ("rtn", 2) in table and ("rtn", 4) in table
    with pytest.raises(KeyError, match="expected 1"):
        result.value(method="rtn")  # ambiguous: two bit settings
    labels = result.by_label(metric="ppl")
    # Non-default eval shapes are part of the label (distinct settings must
    # never collide in label-keyed views).
    assert "opt-6.7b/rtn W2A16 [ev8x24]" in labels


def test_explicit_spec_lists_and_labels():
    steps = [
        ExperimentSpec(family="opt-6.7b", label="reference", **CHEAP),
        ExperimentSpec(
            family="opt-6.7b", method="microscopiq", w_bits=2,
            quant_kwargs={"compensate": False, "inlier_bits": 2}, label="no-comp", **CHEAP
        ),
    ]
    result = run_sweep(steps, executor="serial")
    assert result.ok
    assert set(result.by_label()) == {"reference", "no-comp"}
    assert result[steps[1]]["ppl"] > result[steps[0]]["ppl"]


def test_acceptance_speedup_and_cache_hits(tmp_path):
    """ISSUE acceptance: ≥24 jobs, process pool vs serial, then 100% hits."""
    spec = SweepSpec(
        families=("opt-6.7b",),
        methods=("rtn",),
        w_bits=(2, 3, 4, 5, 6, 8),
        group_sizes=(32, 64, 128, 256),
        **CHEAP,
    )
    jobs = spec.jobs()
    assert len(jobs) >= 24

    t0 = time.perf_counter()
    serial = run_sweep(spec, cache_dir=None, executor="serial")
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_sweep(spec, cache_dir=str(tmp_path), executor="process", workers=None)
    t_parallel = time.perf_counter() - t0

    assert serial.ok and parallel.ok
    # Deterministic per-job seeding: serial and process-pool sweeps are
    # bit-identical, scheduling order notwithstanding.
    assert serial.metrics_by_hash() == parallel.metrics_by_hash()

    cpus = _usable_cpus()
    if cpus >= 4:
        # "Measurably faster" — conservative bound; the win grows with cores.
        assert t_parallel < t_serial * 0.9, (
            f"process pool ({t_parallel:.2f}s on {cpus} CPUs) not faster "
            f"than serial ({t_serial:.2f}s)"
        )
    elif cpus >= 2:
        # On 2-3 (possibly shared/loaded) cores, fork + pool startup can eat
        # most of the win for short jobs; only guard against a pathological
        # slowdown so CI runners don't flake.
        assert t_parallel < t_serial * 1.5, (
            f"process pool ({t_parallel:.2f}s on {cpus} CPUs) pathologically "
            f"slower than serial ({t_serial:.2f}s)"
        )

    # Immediate identical re-run: pure cache, equal results.
    rerun = run_sweep(spec, cache_dir=str(tmp_path), executor="process")
    assert rerun.hit_rate == 1.0
    assert rerun.telemetry["computed"] == 0
    assert rerun.metrics_by_hash() == parallel.metrics_by_hash()


@pytest.mark.skipif(
    openblas_num_threads("set") is None, reason="no OpenBLAS set-symbol in this process"
)
def test_hessian_methods_bit_identical_across_blas_pools_and_executors():
    """LAPACK's rounding depends on its thread count (``inv`` and
    ``cholesky`` differ at 1 and 2 threads from n = 128 up; llama2-13b is
    144 wide), so gptq/atom metrics stay equal only if every job runs at one
    count, whatever the caller's pool and whichever executor runs it."""
    spec = SweepSpec(
        families=("llama2-13b",), methods=("gptq", "atom"), w_bits=(4,), **CHEAP
    )

    def sweep(executor, workers=None):
        default_hessian_store().clear()  # factorize afresh in every sweep
        result = run_sweep(spec, executor=executor, workers=workers)
        assert result.ok, executor
        return result.metrics_by_hash()

    get, set_ = openblas_num_threads("get"), openblas_num_threads("set")
    original, by_pool = get(), {}
    try:
        for size in (1, 2):
            set_(size)
            by_pool[size] = sweep("serial")
    finally:
        set_(original)
    assert by_pool[1] == by_pool[2]
    for name in ("thread", "process"):
        assert sweep(name, workers=2) == by_pool[1], name
