"""Oracle-vs-library kernel benchmark: the quantization perf-regression lane.

``run_perf.py`` tracks the pipeline's absolute speed; this harness tracks the
*speedup contract* of the vectorized MicroScopiQ kernel. Every bench runs
twice — once on the tests' oracle (``tests/kernel_oracle.py``: the per-row
walk, engine shape batching off), recorded as ``reference``, and once on the
library, recorded as ``vector`` — and records, per substrate:

* whole-model engine wall-clock (the ``engine`` span),
* ``kernel:quantize_matrix`` self-time and call count (calls drop on the
  library run because the engine coalesces same-shape layers into one
  stacked invocation),
* the ``engine.layer_batches`` counter delta,

plus a single-matrix micro-bench (median of N repeats) and a bit-identity
smoke (the library must produce byte-equal packed layers to the oracle — the
fast path is an optimization, never a different quantizer).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/run_quant.py [--repeats N] [--out PATH]

The emitted ``BENCH_quant.json`` (repo root) is checked in as the snapshot
of record. CI runs ``--check``, which re-measures and compares the
reference/vector speedup *ratios* against the snapshot — ratios cancel out
machine speed, so the lane is portable across runners — failing when the
library's advantage has regressed by more than ``--tolerance`` (25% by
default), or when the library and the oracle stop being bit-identical.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from kernel_oracle import oracle_kernels  # noqa: E402

from repro.obs import disable_tracing, enable_tracing, span_seconds, span_self_seconds, walk_spans  # noqa: E402
from repro.obs.metrics import METRICS  # noqa: E402

BENCH_SCHEMA = 1
#: The two sides of every bench: the tests' oracle and the library.
KERNEL_PATHS = ("reference", "vector")


def _on(path: str):
    """The scope a bench side runs in."""
    return oracle_kernels() if path == "reference" else nullcontext()

#: One representative family per substrate (mirrors run_perf.ENGINE_MODELS).
ENGINE_MODELS = [
    ("lm", "opt-6.7b"),
    ("cnn", "resnet50"),
    ("ssm", "vmamba-s"),
    ("vlm", "llava1.5-7b"),
]


def _capture(name: str, fn) -> Dict[str, Any]:
    tracer = enable_tracing()
    cap = tracer.capture(name)
    with cap:
        fn()
    tree = cap.to_dict()
    assert tree is not None, f"bench {name!r} recorded no spans"
    return tree


def _by_name(tree: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
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


def bench_engine(substrate: str, family: str, repeats: int) -> Dict[str, Any]:
    """Whole-model engine quantize per side: best-of-``repeats``."""
    from repro.core.substrate import get_substrate
    from repro.quant.engine import HessianStore, quantize_model

    out: Dict[str, Any] = {"family": family}
    for path in KERNEL_PATHS:
        best = None
        for _ in range(repeats):
            model = get_substrate(substrate).build(family)
            batches_before = METRICS.snapshot().get("engine.layer_batches", 0)
            with _on(path):
                tree = _capture(
                    f"bench:engine:{substrate}:{path}",
                    lambda: quantize_model(
                        model, "microscopiq", 4, hessian_store=HessianStore(),
                    ),
                )
            agg = _by_name(tree)
            sample = {
                "total_s": agg["engine"]["total_s"],
                "kernel_self_s": agg.get("kernel:quantize_matrix", {}).get("self_s", 0.0),
                "kernel_calls": int(agg.get("kernel:quantize_matrix", {}).get("calls", 0)),
                "layer_batches": int(
                    METRICS.snapshot().get("engine.layer_batches", 0) - batches_before
                ),
            }
            model.clear_overrides()
            if best is None or sample["total_s"] < best["total_s"]:
                best = sample
        out[path] = best
    out["wall_speedup"] = round(out["reference"]["total_s"] / out["vector"]["total_s"], 3)
    ref_self, vec_self = out["reference"]["kernel_self_s"], out["vector"]["kernel_self_s"]
    out["kernel_self_speedup"] = round(ref_self / vec_self, 3) if vec_self else None
    return out


def bench_quantize_matrix(repeats: int) -> Dict[str, Any]:
    """Single-matrix micro-bench per side (median of repeats)."""
    from repro.quant.microscopiq import quantize_matrix

    rng = np.random.default_rng(0)
    weights = rng.standard_normal((256, 256)).astype(np.float64)
    calib = rng.standard_normal((64, 256)).astype(np.float64)
    out: Dict[str, Any] = {"matrix": "256x256 weights, 64 calib samples", "repeats": repeats}
    for path in KERNEL_PATHS:
        times = []
        with _on(path):
            quantize_matrix(weights, calib)  # warm
            for _ in range(repeats):
                tree = _capture(
                    f"bench:quantize_matrix:{path}",
                    lambda: quantize_matrix(weights, calib),
                )
                times.append(_by_name(tree)["kernel:quantize_matrix"]["total_s"])
        out[path] = {"median_s": round(statistics.median(times), 6),
                     "min_s": round(min(times), 6)}
    out["speedup"] = round(out["reference"]["median_s"] / out["vector"]["median_s"], 3)
    return out


def check_bit_identity() -> None:
    """The library must be an optimization of the oracle, not a different
    quantizer."""
    from repro.quant.microscopiq import quantize_matrix

    rng = np.random.default_rng(7)
    weights = rng.standard_normal((96, 200))  # ragged: 200 % 128 != 0
    weights[rng.random(weights.shape) < 0.01] *= 8.0
    calib = rng.standard_normal((48, 200))
    with oracle_kernels():
        ref = quantize_matrix(weights, calib)
    vec = quantize_matrix(weights, calib)
    assert np.array_equal(ref.dequant, vec.dequant), "library diverged from oracle (dequant)"
    assert np.array_equal(ref.outlier_mask, vec.outlier_mask), "library diverged from oracle (mask)"
    assert ref.perm_lists == vec.perm_lists, "library diverged from oracle (perm lists)"


def run(repeats: int, engine_repeats: int) -> Dict[str, Any]:
    check_bit_identity()
    benches: Dict[str, Any] = {}
    print(f"quantize_matrix x{repeats} per side ...", flush=True)
    benches["quantize_matrix"] = bench_quantize_matrix(repeats)
    for substrate, family in ENGINE_MODELS:
        print(f"engine quantize {substrate}/{family}, oracle and library ...", flush=True)
        benches[f"engine.{substrate}"] = bench_engine(substrate, family, engine_repeats)
    return {
        "schema": BENCH_SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeats": repeats,
        "benches": benches,
    }


def _speedups(report: Dict[str, Any]) -> Dict[str, float]:
    """The machine-independent numbers: reference/vector ratios per bench."""
    out: Dict[str, float] = {}
    for name, bench in report["benches"].items():
        if "speedup" in bench:
            out[f"{name}.speedup"] = bench["speedup"]
        if bench.get("wall_speedup") is not None:
            out[f"{name}.wall_speedup"] = bench["wall_speedup"]
        if bench.get("kernel_self_speedup") is not None:
            out[f"{name}.kernel_self_speedup"] = bench["kernel_self_speedup"]
    return out


def check(snapshot_path: Path, repeats: int, engine_repeats: int, tolerance: float) -> int:
    snapshot = json.loads(snapshot_path.read_text())
    fresh = run(repeats, engine_repeats)
    expected, measured = _speedups(snapshot), _speedups(fresh)
    failures = []
    for key, want in sorted(expected.items()):
        got = measured.get(key)
        if got is None:
            failures.append(f"{key}: missing from fresh run (snapshot {want:.2f}x)")
            continue
        # Only enforce where the snapshot shows a real advantage: a bench
        # sitting at ~1x (e.g. cnn, three unbatchable odd-shaped layers) has
        # no speedup to protect and its ratio is pure scheduler noise.
        if want < 1.2:
            print(f"  {key:45s} snapshot {want:6.2f}x  measured {got:6.2f}x  [info]")
            continue
        floor = want * (1.0 - tolerance)
        status = "ok" if got >= floor else "REGRESSED"
        print(f"  {key:45s} snapshot {want:6.2f}x  measured {got:6.2f}x  [{status}]")
        if got < floor:
            failures.append(
                f"{key}: {got:.2f}x < {floor:.2f}x (snapshot {want:.2f}x - {tolerance:.0%})"
            )
    if failures:
        print("\nperf regression check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    enforced = sum(1 for want in expected.values() if want >= 1.2)
    print(f"\nperf check OK: {enforced} speedup ratios within {tolerance:.0%} of snapshot")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9,
                        help="repeat count for the single-matrix micro-bench")
    parser.add_argument("--engine-repeats", type=int, default=3,
                        help="best-of-N for the whole-model engine benches")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_quant.json"),
                        help="where to write the JSON snapshot")
    parser.add_argument("--check", action="store_true",
                        help="compare fresh speedup ratios against the checked-in "
                             "snapshot instead of rewriting it")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression of each speedup ratio")
    args = parser.parse_args(argv)
    try:
        if args.check:
            return check(Path(args.out), args.repeats, args.engine_repeats, args.tolerance)
        report = run(args.repeats, args.engine_repeats)
    finally:
        disable_tracing()
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, bench in sorted(report["benches"].items()):
        if "wall_speedup" in bench:
            print(f"  {name:20s} wall {bench['wall_speedup']:.2f}x, "
                  f"kernel self {bench['kernel_self_speedup']}x "
                  f"({bench['reference']['kernel_calls']} -> "
                  f"{bench['vector']['kernel_calls']} calls)")
        else:
            print(f"  {name:20s} {bench['speedup']:.2f}x median")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
