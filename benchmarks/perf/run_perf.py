"""Span-driven performance harness for the pipeline's canonical hot paths.

Where ``benchmarks/`` reproduces the paper's *figures*, this directory tracks
the reproduction's *speed*. Each bench runs one canonical hot path under the
:mod:`repro.obs` tracer and reads its numbers off the span tree — the same
spans ``repro-sweep trace`` renders — so a regression here localizes to a
named span, not just a wall-clock delta:

* ``quantize_matrix`` — the single-matrix MicroScopiQ kernel
  (``kernel:quantize_matrix``), median of N repeats;
* ``engine.<substrate>/<family>`` — one whole-model MicroScopiQ engine
  quantize per substrate, with the engine span broken down into calibrate /
  layer / kernel time; ``engine.lm.gptq`` runs GPTQ W4 on the same LM,
  where the ``layer`` self time is GPTQ's column walk, and
  ``engine.lm.omni`` runs Omni-MicroScopiQ W4 on it, whose two candidates
  share one ``kernel:quantize_matrix`` walk per layer;
* ``sweep`` — a small codesign sweep against a fresh cache, then the
  identical sweep again (pure cache lookups), on the ``serial`` and
  ``process`` ×2 executors, each pair in a fresh interpreter: wall,
  job-compute and CPU seconds (this process and its reaped children);
* ``simulate`` — accelerator-simulation throughput (``kernel:simulate``
  calls per second), cold (the ReCoN contention memo cleared before each
  call) and warm;
* ``corpus`` — cold sampling of the synthetic evaluation data (an LM's
  evaluation and calibration corpora, a VLM's reference captions), timed
  by wall clock with the per-process caches cleared before each repeat.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--repeats N] [--out PATH]

The emitted ``BENCH_pipeline.json`` (repo root by default) is checked in as
the perf snapshot of record: regenerate it alongside changes that move these
numbers, and diff it in review like any other artifact.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import (  # noqa: E402
    disable_tracing,
    enable_tracing,
    span_seconds,
    span_self_seconds,
    walk_spans,
)

BENCH_SCHEMA = 1

#: One representative family per substrate for the whole-model engine bench.
ENGINE_MODELS = [
    ("lm", "opt-6.7b"),
    ("cnn", "resnet50"),
    ("ssm", "vmamba-s"),
    ("vlm", "llava1.5-7b"),
]


def _capture(name: str, fn) -> Dict[str, Any]:
    """Run ``fn`` under a detached span capture; return its span tree."""
    tracer = enable_tracing()
    cap = tracer.capture(name)
    with cap:
        fn()
    tree = cap.to_dict()
    assert tree is not None, f"bench {name!r} recorded no spans"
    return tree


def _by_name(tree: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Aggregate a span tree: per span name, call count / total / self time."""
    agg: Dict[str, Dict[str, float]] = {}
    for node, _depth in walk_spans(tree):
        row = agg.setdefault(node["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span_seconds(node)
        row["self_s"] += span_self_seconds(node)
    for row in agg.values():
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
    return agg


def bench_quantize_matrix(repeats: int) -> Dict[str, Any]:
    from repro.quant.microscopiq import quantize_matrix

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((256, 256)).astype(np.float64)
    calib = rng.standard_normal((64, 256)).astype(np.float64)  # (samples, d_in)
    quantize_matrix(weights, calib)  # warm caches/JIT-free, but fair
    times = []
    for _ in range(repeats):
        tree = _capture("bench:quantize_matrix", lambda: quantize_matrix(weights, calib))
        times.append(_by_name(tree)["kernel:quantize_matrix"]["total_s"])
    return {
        "matrix": "256x256 weights, 64 calib samples",
        "repeats": repeats,
        "median_s": round(statistics.median(times), 6),
        "min_s": round(min(times), 6),
    }


def bench_engine(
    substrate: str, family: str, method: str = "microscopiq"
) -> Dict[str, Any]:
    from repro.core.substrate import get_substrate
    from repro.quant.engine import quantize_model

    model = get_substrate(substrate).build(family)
    tree = _capture(
        f"bench:engine:{substrate}",
        lambda: quantize_model(model, method, 4),
    )
    agg = _by_name(tree)
    spans = {
        name: agg[name]
        for name in ("engine", "calibrate", "layer", "kernel:quantize_matrix")
        if name in agg
    }
    return {
        "family": family,
        "total_s": agg["engine"]["total_s"],
        "layers": int(agg.get("layer", {}).get("calls", 0)),
        "spans": spans,
    }


#: The executors ``bench_sweep`` compares: (name, workers).
SWEEP_EXECUTORS = (("serial", None), ("process", 2))


def _cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sweep_pair(executor: str, workers) -> Dict[str, Any]:
    """One cold then one warm codesign sweep on ``executor``."""
    from repro.pipeline.runner import run_sweep
    from repro.pipeline.spec import SweepSpec

    spec = SweepSpec(
        families=("opt-6.7b",),
        methods=("microscopiq",),
        w_bits=(2, 4),
        archs=("microscopiq-v2",),
        kind="codesign",
    )
    pair: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as cache_dir:
        for phase in ("cold", "warm"):
            cpu0 = _cpu_seconds()
            result = run_sweep(
                spec, cache_dir=cache_dir, executor=executor, workers=workers,
                progress=False, trace=True,
            )
            cpu_s = _cpu_seconds() - cpu0
            assert not result.failures(), f"perf sweep failed on {executor}"
            t = result.telemetry
            pair[phase] = {
                "jobs": t["total"],
                "cache_hits": t["cache_hits"],
                "wall_s": t["elapsed_s"],
                "compute_s": t["compute_s"],
                "lookup_s": t["lookup_s"],
                "cpu_s": round(cpu_s, 3),
            }
    return pair


def bench_sweep() -> Dict[str, Any]:
    # A fresh interpreter per executor, so each cold sweep also starts from
    # empty in-process caches (models, corpora, Hessians), as a new
    # ``repro-sweep`` invocation does.
    ctx = multiprocessing.get_context("spawn")
    executors: Dict[str, Any] = {}
    for name, workers in SWEEP_EXECUTORS:
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            label = f"{name} x{workers}" if workers else name
            executors[label] = pool.submit(_sweep_pair, name, workers).result()
    return {"spec": "opt-6.7b × microscopiq × W{2,4} ⇒ microscopiq-v2 codesign",
            "executors": executors}


def bench_simulate(repeats: int) -> Dict[str, Any]:
    from repro.hw import systolic
    from repro.hw.sim import run_hw_job

    def calls(cold: bool) -> None:
        for _ in range(repeats):
            if cold:
                systolic._contention.cache_clear()
            run_hw_job("lm", "opt-6.7b", "microscopiq-v2", {})

    run_hw_job("lm", "opt-6.7b", "microscopiq-v2", {})  # warm registry lookups
    t0 = time.perf_counter()
    tree = _capture("bench:simulate", lambda: calls(cold=True))
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    _capture("bench:simulate:warm", lambda: calls(cold=False))
    warm_wall = time.perf_counter() - t0
    sim = _by_name(tree)["kernel:simulate"]
    return {
        "workload": "lm/opt-6.7b on microscopiq-v2",
        "repeats": repeats,
        "sim_total_s": sim["total_s"],
        "calls_per_s": round(repeats / cold_wall, 2),
        "warm_calls_per_s": round(repeats / warm_wall, 2),
    }


def bench_corpus(repeats: int) -> Dict[str, Any]:
    from repro.core import substrate
    from repro.eval import corpus
    from repro.models import transformer

    model = transformer.build_model("opt-6.7b")
    lm_times, vlm_times = [], []
    for _ in range(repeats):
        # Cold sampling, and the model builds inside it generate weights
        # afresh, as a new process would.
        corpus._cached_sample.cache_clear()
        substrate._vlm_bundle.cache_clear()
        transformer._family_weights.cache_clear()
        t0 = time.perf_counter()
        corpus.eval_corpus(model)
        corpus.calibration_tokens(model)
        t1 = time.perf_counter()
        substrate._vlm_bundle("llava1.5-7b")
        lm_times.append(t1 - t0)
        vlm_times.append(time.perf_counter() - t1)
    totals = [a + b for a, b in zip(lm_times, vlm_times)]
    return {
        "workload": "lm/opt-6.7b eval_corpus + calibration_tokens, "
                    "vlm/llava1.5-7b reference captions",
        "repeats": repeats,
        "median_s": round(statistics.median(totals), 6),
        "min_s": round(min(totals), 6),
        "lm_median_s": round(statistics.median(lm_times), 6),
        "vlm_median_s": round(statistics.median(vlm_times), 6),
    }


def run(repeats: int) -> Dict[str, Any]:
    benches: Dict[str, Any] = {}
    print(f"quantize_matrix x{repeats} ...", flush=True)
    benches["quantize_matrix"] = bench_quantize_matrix(repeats)
    for substrate, family in ENGINE_MODELS:
        print(f"engine quantize {substrate}/{family} ...", flush=True)
        benches[f"engine.{substrate}"] = bench_engine(substrate, family)
    print("engine quantize lm/opt-6.7b with gptq ...", flush=True)
    benches["engine.lm.gptq"] = bench_engine("lm", "opt-6.7b", method="gptq")
    print("engine quantize lm/opt-6.7b with omni-microscopiq ...", flush=True)
    benches["engine.lm.omni"] = bench_engine("lm", "opt-6.7b", method="omni-microscopiq")
    print("cold/warm sweep ...", flush=True)
    benches["sweep"] = bench_sweep()
    print(f"simulate x{repeats} ...", flush=True)
    benches["simulate"] = bench_simulate(repeats)
    print(f"corpus x{repeats} ...", flush=True)
    benches["corpus"] = bench_corpus(repeats)
    return {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "benches": benches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9,
                        help="repeat count for the kernel micro-benches")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pipeline.json"),
                        help="where to write the JSON snapshot")
    args = parser.parse_args(argv)
    try:
        report = run(args.repeats)
    finally:
        disable_tracing()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, bench in report["benches"].items():
        if name == "sweep":
            for label, pair in bench["executors"].items():
                cold = pair["cold"]
                print(f"  {'sweep ' + label:20s} cold {cold['wall_s']:.2f}s wall, "
                      f"{cold['cpu_s']:.2f}s cpu / warm {pair['warm']['wall_s']:.3f}s")
            continue
        key = next(k for k in ("median_s", "total_s", "sim_total_s") if k in bench)
        print(f"  {name:20s} {bench[key]:.4f}s ({key})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
