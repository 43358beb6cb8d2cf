"""Units for the pipeline's spec enumeration, hashing, cache, and executors."""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pipeline import (
    ExperimentSpec,
    Job,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    SweepSpec,
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


def _openblas_num_threads(verb):
    """OpenBLAS's ``{verb}_num_threads`` in the library this process loaded,
    or ``None`` without ``/proc``, OpenBLAS or the symbol."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes = [] if verb == "get" else [ctypes.c_int]
                    fn.restype = ctypes.c_int if verb == "get" else None
                    return fn
    return None


def _blas_threads_kernel(job):
    return {"blas_threads": _openblas_num_threads("get")()}


def _worker_blas_threads(workers):
    outcomes = list(ProcessExecutor(workers=workers).run(_blas_threads_kernel, TOY_JOBS))
    assert len(outcomes) == len(TOY_JOBS) and all(o.ok for o in outcomes)
    return {o.metrics["blas_threads"] for o in outcomes}


@pytest.mark.skipif(
    _openblas_num_threads("get") is None, reason="no OpenBLAS get-symbol in this process"
)
def test_process_pool_caps_worker_blas_threads():
    """Process workers split the CPUs: each caps the machine-sized BLAS pool
    it inherits at its share, never raises a pool already limited, and leaves
    the parent's pool as it was."""
    get, set_ = _openblas_num_threads("get"), _openblas_num_threads("set")
    parent = get()
    share = max(1, min(parent, len(os.sched_getaffinity(0)) // 2))
    assert _worker_blas_threads(2) == {share}
    assert get() == parent
    assert _worker_blas_threads(1) == {parent}
    assert get() == parent
    set_(1)
    try:
        assert _worker_blas_threads(1) == {1}
    finally:
        set_(parent)
    assert get() == parent


def test_make_executor_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown executor"):
        make_executor("gpu-cluster")


def test_executors_run_empty_job_lists():
    for name in ("serial", "thread", "process"):
        assert list(make_executor(name, workers=2).run(_toy_kernel, [])) == []
