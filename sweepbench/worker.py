"""One measurement, in a fresh interpreter started by ``run.py``.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 sweepbench/worker.py setup  --workload W --seed N --cache DIR
    python3 sweepbench/worker.py sweep  --workload W --seed N --cache DIR \\
        [--replay-share F] [--min-replays K] [--write-reference]
    python3 sweepbench/worker.py traced --workload W --seed N --cache DIR

Every mode first does the set-up ``setup_s`` measures — import ``repro``,
build and enumerate the workload's ``SweepSpec``, open the result cache —
and then writes ``ready <jobs>`` on its protocol channel (the original
stdout; the program's own prints go to stderr), so the parent can time the
set-up from outside. ``sweep`` then times one cold ``run_sweep`` against
the empty cache and warm re-runs of the same grid; ``traced`` does one cold
sweep and one warm pass with every layer's public functions wrapped (see
``spans.py``). Both check the outputs and finish with one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

from workloads import WORKLOADS, check_reference, outputs_by_label, write_reference


def emit(channel, obj: Any) -> None:
    channel.write((obj if isinstance(obj, str) else json.dumps(obj)) + "\n")
    channel.flush()


def setup(workload: str, seed: int, cache_dir: str):
    import repro  # noqa: F401  (the import is what set-up time measures)
    from repro.pipeline import ResultCache

    spec = WORKLOADS[workload].spec(seed)
    jobs = spec.jobs()
    ResultCache(cache_dir)
    return spec, len(jobs)


def cpu_seconds() -> float:
    """User + system CPU of this process (all its threads) and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def sweep(spec, cache_dir: str):
    from repro.pipeline import run_sweep

    return run_sweep(spec, cache_dir=cache_dir, executor="serial", trace=False)


def check_sweep(result, n_jobs: int, warm: bool) -> List[str]:
    errors = [
        f"job {o.job.label} failed: {(o.error or {}).get('message', '?')}"
        for o in result.failures()
    ]
    if len(result.outcomes) != n_jobs:
        errors.append(f"{len(result.outcomes)} outcomes for {n_jobs} jobs")
    if warm and result.cache_hits != n_jobs:
        errors.append(f"warm pass: {result.cache_hits}/{n_jobs} cache hits")
    return errors


def check_replay(cold_out: Dict[str, Any], result) -> List[str]:
    if outputs_by_label(result) != cold_out:
        return ["a warm pass's outputs differ from the cold sweep's"]
    return []


def digest(outputs: Dict[str, Any]) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blas_threads():
    """OpenBLAS's pool size, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def stamp() -> Dict[str, Any]:
    import platform

    import numpy as np
    from repro.quant.vector import resolve_kernel_path

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": thread_count(),
        "kernel_path": resolve_kernel_path(),
    }


def run_sweep_mode(args, spec, n_jobs: int) -> Dict[str, Any]:
    wl = WORKLOADS[args.workload]
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    cold = sweep(spec, args.cache)
    sweep_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    errors = check_sweep(cold, n_jobs, warm=False)
    cold_out = outputs_by_label(cold)
    if args.write_reference:
        write_reference(wl.name, args.seed, cold_out)
    else:
        errors += check_reference(wl, args.seed, cold_out)

    passes: List[float] = []
    failed = len(cold.failures())
    budget = args.replay_share * sweep_s
    replay_start = time.perf_counter()
    while len(passes) < args.min_replays or time.perf_counter() - replay_start < budget:
        t = time.perf_counter()
        warm = sweep(spec, args.cache)
        passes.append(time.perf_counter() - t)
        failed += len(warm.failures())
        errors += check_sweep(warm, n_jobs, warm=True) + check_replay(cold_out, warm)
        if errors:
            break
    return {
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "replay_passes": passes,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": n_jobs * (1 + len(passes)),
        "failed": failed,
        "digest": digest(cold_out),
        "errors": errors[:20],
        "stamp": stamp(),
    }


def run_traced_mode(args, spec, n_jobs: int) -> Dict[str, Any]:
    from repro.obs import METRICS

    import spans

    wl = WORKLOADS[args.workload]
    rec = spans.SpanRecorder()
    spans.install(rec)
    scheduler = rec.wrap("pipeline.scheduler", sweep)
    before = METRICS.snapshot()

    t0 = time.perf_counter()
    cold = scheduler(spec, args.cache)
    sweep_s = time.perf_counter() - t0
    cold_end = len(rec.spans)
    warm = scheduler(spec, args.cache)
    counters = METRICS.delta(before)

    cold_out = outputs_by_label(cold)
    errors = (
        check_sweep(cold, n_jobs, warm=False)
        + check_sweep(warm, n_jobs, warm=True)
        + check_replay(cold_out, warm)
        + check_reference(wl, args.seed, cold_out)
        + rec.check_nesting()
    )

    rows = rec.aggregate()
    warm_rows = rec.aggregate(since=cold_end)
    m: Dict[str, float] = {}
    for name, row in rows.items():
        for key in ("calls", "total_s", "self_s"):
            m[f"{name}.{key}"] = row[key]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = counters.get("result_cache.hits", 0), counters.get("result_cache.misses", 0)
    bundle_calls = rows["methods.hessian.bundle"]["calls"]
    gemm = rows["hw.systolic.simulate_gemm"]
    m.update({
        "pipeline.jobs": n_jobs,
        "pipeline.spec.hashes_per_job": ratio(warm_rows["pipeline.spec.job_hash"]["calls"], n_jobs),
        "pipeline.cache.hit_ratio": ratio(hits, hits + misses),
        "pipeline.stage.quant_hits": cold.telemetry.get("quant_stage_hits", 0),
        "models.calibrate_share": ratio(
            rows["models.calibrate"]["total_s"], rows["quant.engine.quantize_model"]["total_s"]
        ),
        "methods.hessian.reuse_ratio": ratio(
            counters.get("hessian.store.hits", 0) + counters.get("hessian.store.disk_hits", 0),
            bundle_calls,
        ),
        "hw.systolic.us_per_gemm": ratio(gemm["total_s"], gemm["calls"]) * 1e6,
        "eval.evaluate_setting.sweep_share": ratio(
            rows["eval.evaluate_setting"]["total_s"], sweep_s
        ),
        "hw.sim.simulate.sweep_share": ratio(rows["hw.sim.simulate"]["total_s"], sweep_s),
        "pipeline.telemetry.compute_s": cold.telemetry.get("compute_s", 0.0),
        "pipeline.outside.kernel_s": rec.top_level_seconds(
            ("eval.evaluate_setting", "hw.sim.simulate", "hw.workloads.build"), until=cold_end
        ),
        "trace.sweep_s": sweep_s,
    })
    for name, _ in spans.COUNTERS:
        m[name] = counters.get(name, 0)
    return {
        "metrics": m,
        "attempted": 2 * n_jobs,
        "failed": len(cold.failures()) + len(warm.failures()),
        "digest": digest(cold_out),
        "errors": errors[:20],
        "spans": rec.to_json(),
        "stamp": stamp(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "sweep", "traced"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--replay-share", type=float, default=0.05,
                    help="warm re-runs last this share of the cold sweep's time")
    ap.add_argument("--min-replays", type=int, default=10)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    # The parent reads only this channel; anything the program writes to
    # stdout lands on stderr.
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    spec, n_jobs = setup(args.workload, args.seed, args.cache)
    emit(channel, f"ready {n_jobs}")
    if args.mode == "sweep":
        emit(channel, run_sweep_mode(args, spec, n_jobs))
    elif args.mode == "traced":
        emit(channel, run_traced_mode(args, spec, n_jobs))
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
