"""Units for the pipeline's spec enumeration, hashing, cache, and executors."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from blas_oracle import openblas_num_threads

import repro
from repro.pipeline import (
    ExperimentSpec,
    Job,
    ResultCache,
    SerialExecutor,
    SweepSpec,
    ThreadExecutor,
    make_executor,
)

# ---------------------------------------------------------------------- spec


def test_sweep_enumerates_cross_product():
    spec = SweepSpec(
        families=("opt-6.7b", "llama2-7b"),
        methods=("rtn", "gptq"),
        w_bits=(4, 2),
        act_bits=(None, 8),
    )
    jobs = spec.jobs()
    assert len(jobs) == 2 * 2 * 2 * 2
    assert len({j.job_hash for j in jobs}) == len(jobs)


def test_fp16_jobs_deduplicate_across_bit_settings():
    spec = SweepSpec(families=("opt-6.7b",), methods=("fp16", "rtn"), w_bits=(4, 2))
    jobs = spec.jobs()
    # fp16 ignores w_bits, so the grid collapses its two cells into one.
    assert sum(j.spec.method == "fp16" for j in jobs) == 1
    assert sum(j.spec.method == "rtn" for j in jobs) == 2


def test_group_size_axis_maps_to_method_knob():
    spec = SweepSpec(
        families=("opt-6.7b",),
        methods=("rtn", "microscopiq", "gobo"),
        group_sizes=(64,),
    )
    by_method = {j.spec.method: dict(j.spec.quant_kwargs) for j in spec.jobs()}
    assert by_method["rtn"] == {"group_size": 64}
    assert by_method["microscopiq"] == {"macro_block": 64}
    assert by_method["gobo"] == {}  # GOBO has no group knob


def test_unknown_family_and_method_raise():
    with pytest.raises(KeyError, match="unknown family"):
        SweepSpec(families=("gpt-9",), methods=("rtn",))
    with pytest.raises(KeyError, match="unknown method"):
        SweepSpec(families=("opt-6.7b",), methods=("quantum",))


def test_job_hash_depends_on_spec_seed_and_version():
    spec = ExperimentSpec(family="opt-6.7b", method="rtn", w_bits=4)
    base = Job(spec, seed=0)
    assert Job(spec, seed=0).job_hash == base.job_hash
    assert Job(spec, seed=1).job_hash != base.job_hash
    assert Job(spec, seed=0, version="0.0.0").job_hash != base.job_hash
    assert Job(spec.with_(w_bits=2), seed=0).job_hash != base.job_hash
    # The label is presentation-only: it must not change the identity.
    assert Job(spec.with_(label="pretty"), seed=0).job_hash == base.job_hash


def test_job_hash_stable_across_interpreters_and_hash_seeds():
    """Content addressing must not depend on PYTHONHASHSEED or process state."""
    spec = ExperimentSpec(family="opt-6.7b", method="rtn", w_bits=4)
    local = Job(spec, seed=3).job_hash
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(src))
    code = (
        "from repro.pipeline import ExperimentSpec, Job;"
        "spec = ExperimentSpec(family='opt-6.7b', method='rtn', w_bits=4);"
        "print(Job(spec, seed=3).job_hash)"
    )
    remote = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert remote == local


def test_spawn_seeds_are_deterministic_and_distinct():
    spec = SweepSpec(families=("opt-6.7b",), methods=("rtn",), w_bits=(2, 3, 4, 5))
    seeds = [j.spawn_seed for j in spec.jobs()]
    assert seeds == [j.spawn_seed for j in spec.jobs()]
    assert len(set(seeds)) == len(seeds)
    assert all(s == int(j.job_hash[:16], 16) for s, j in zip(seeds, spec.jobs()))


def test_quant_kwargs_must_be_jsonable():
    with pytest.raises(TypeError, match="unhashable spec value"):
        ExperimentSpec(family="opt-6.7b", quant_kwargs={"bad": object()})


# --------------------------------------------------------------------- cache


def test_cache_roundtrip_and_miss(tmp_path):
    cache = ResultCache(tmp_path / "c")
    h = "ab" + "0" * 62
    assert cache.get(h) is None and h not in cache
    cache.put(h, {"metrics": {"ppl": 7.5}, "label": "x"})
    rec = cache.get(h)
    assert rec["metrics"] == {"ppl": 7.5} and rec["hash"] == h
    assert h in cache
    assert cache.stats()["entries"] == 1


def test_cache_survives_corrupt_and_foreign_records(tmp_path):
    cache = ResultCache(tmp_path)
    h = "cd" + "1" * 62
    path = cache.path_for(h)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get(h) is None  # corruption reads as a miss, not a crash
    path.write_text(json.dumps({"schema": 999}))
    assert cache.get(h) is None  # unknown schema likewise
    cache.put(h, {"metrics": {"ppl": 1.0}})
    assert cache.get(h)["metrics"]["ppl"] == 1.0  # and can be overwritten


def test_cache_clean(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.put(f"{i:02d}" + "f" * 62, {"metrics": {}})
    assert cache.clean(older_than=3600.0) == 0  # everything is fresh
    assert cache.clean() == 3
    assert cache.stats()["entries"] == 0


def test_cache_rejects_malformed_hash(tmp_path):
    with pytest.raises(ValueError, match="malformed job hash"):
        ResultCache(tmp_path).path_for("../../etc/passwd")


# ----------------------------------------------------------------- executors


def _toy_kernel(job):
    return {"seed": job.spawn_seed, "label": job.label}


def _angry_kernel(job):
    if job.spec.w_bits == 3:
        raise RuntimeError("three shall not pass")
    return {"ok": True}


TOY_JOBS = SweepSpec(
    families=("opt-6.7b",), methods=("rtn",), w_bits=(2, 3, 4, 5, 6, 8)
).jobs()


@pytest.mark.parametrize("name", ["serial", "thread", "process"])
def test_executors_agree_with_serial(name):
    reference = {o.job.job_hash: o.metrics for o in SerialExecutor().run(_toy_kernel, TOY_JOBS)}
    pool = make_executor(name, workers=2)
    got = {o.job.job_hash: o.metrics for o in pool.run(_toy_kernel, TOY_JOBS)}
    assert got == reference
    assert len(got) == len(TOY_JOBS)


@pytest.mark.parametrize("name", ["serial", "thread", "process"])
def test_executor_captures_failures_without_dying(name):
    pool = make_executor(name, workers=2)
    outcomes = list(pool.run(_angry_kernel, TOY_JOBS))
    failed = [o for o in outcomes if not o.ok]
    assert len(outcomes) == len(TOY_JOBS)
    assert len(failed) == 1
    assert failed[0].error["type"] == "RuntimeError"
    assert "three shall not pass" in failed[0].error["message"]
    assert all(o.metrics == {"ok": True} for o in outcomes if o.ok)


_openblas_get = openblas_num_threads("get")
needs_openblas = pytest.mark.skipif(
    _openblas_get is None, reason="no OpenBLAS get-symbol in this process"
)


def _blas_threads_kernel(job):
    return {"blas_threads": _openblas_get()}


def _job_blas_threads(name):
    outcomes = list(make_executor(name, workers=2).run(_blas_threads_kernel, TOY_JOBS))
    assert len(outcomes) == len(TOY_JOBS) and all(o.ok for o in outcomes)
    return {o.metrics["blas_threads"] for o in outcomes}


@needs_openblas
def test_every_executor_runs_jobs_at_one_blas_thread():
    """Serial, thread and process jobs all run with OpenBLAS at one thread,
    whatever the caller's pool, and the caller's pool is as it was after
    each run: a machine-sized one comes back, one already at 1 stays 1."""
    get, set_ = _openblas_get, openblas_num_threads("set")
    original = get()
    try:
        for size in (2, 1):
            set_(size)
            caller = get()
            for name in ("serial", "thread", "process"):
                assert _job_blas_threads(name) == {1}, (name, caller)
                assert get() == caller, (name, caller)
    finally:
        set_(original)
    assert get() == original


def _blas_threads_at_start_and_end(job):
    start = _openblas_get()
    time.sleep(0.0005)  # let the other workers' jobs enter and leave meanwhile
    return {"start": start, "end": _openblas_get()}


@needs_openblas
def test_one_blas_thread_scope_survives_oversubscribed_thread_pool():
    """Many more threads than CPUs, switching often: a per-call save/restore
    would let one job's exit restore the caller's pool under a running job,
    or leave the caller with a job's pool of 1."""
    get, set_ = _openblas_get, openblas_num_threads("set")
    original, interval = get(), sys.getswitchinterval()
    pool = ThreadExecutor(workers=4 * (os.cpu_count() or 1), chunk_size=4)
    try:
        set_(2)
        caller = get()
        sys.setswitchinterval(1e-5)
        t0 = time.perf_counter()
        outcomes = list(pool.run(_blas_threads_at_start_and_end, TOY_JOBS * 40))
        elapsed = time.perf_counter() - t0
        after = get()
    finally:
        sys.setswitchinterval(interval)
        set_(original)
    assert elapsed < 30.0
    assert len(outcomes) == len(TOY_JOBS) * 40 and all(o.ok for o in outcomes)
    assert {(o.metrics["start"], o.metrics["end"]) for o in outcomes} == {(1, 1)}
    assert after == caller


def test_make_executor_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown executor"):
        make_executor("gpu-cluster")


def test_executors_run_empty_job_lists():
    for name in ("serial", "thread", "process"):
        assert list(make_executor(name, workers=2).run(_toy_kernel, [])) == []
