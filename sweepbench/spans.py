"""Outside-in per-layer tracing: wrap each layer's public functions.

Nothing under ``src/`` is edited. :func:`install` replaces the public entry
points of each layer (module functions, methods, properties, classmethods)
with wrappers that record one span per call — name, start, end, parent —
into an in-memory :class:`SpanRecorder`. Re-entrant calls into a layer that
is already open (``MicroScopiQAdapter.quantize_layer`` calling its base
class, ``MeasuredWorkload.from_layer_stats`` calling ``build_workload``)
record nothing, so a layer's ``total_s`` never counts the same interval
twice.

The recorder keeps a single stack: the benchmark always runs the sweep with
``executor="serial"`` in one thread, so calls nest strictly in time.
:meth:`SpanRecorder.check_nesting` verifies that after the fact.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Layer:
    name: str
    feeds: Tuple[str, ...]  # the end-to-end metrics a change here should move


#: The per-layer rows, top of the stack first (README.md lists the public
#: functions each wraps and the workload it mostly runs on).
LAYERS: Tuple[Layer, ...] = (
    Layer("pipeline.scheduler", ("sweep_s", "replay_s")),
    Layer("pipeline.spec.jobs", ("setup_s", "replay_s")),
    Layer("pipeline.spec.job_hash", ("replay_s",)),
    Layer("pipeline.cache.get", ("replay_s",)),
    Layer("pipeline.cache.put", ("sweep_s",)),
    Layer("obs.ledger.append", ("replay_s",)),
    Layer("eval.evaluate_setting", ("sweep_s",)),
    Layer("eval.corpus", ("sweep_s",)),
    Layer("quant.engine.quantize_model", ("sweep_s",)),
    Layer("models.calibrate", ("sweep_s",)),
    Layer("methods.quantize_layer", ("sweep_s", "cpu_s")),
    Layer("methods.hessian.bundle", ("sweep_s",)),
    Layer("hw.sim.simulate", ("sweep_s",)),
    Layer("hw.systolic.simulate_gemm", ("sweep_s",)),
    Layer("hw.workloads.build", ("sweep_s",)),
)


class SpanRecorder:
    """In-memory span list: ``[name, start, end, parent_index]`` rows."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self._open: set = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in rec._open:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            row = [name, time.perf_counter(), 0.0, parent]
            rec.spans.append(row)
            rec._stack.append(idx)
            rec._open.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                rec._stack.pop()
                rec._open.discard(name)

        return wrapper

    # ------------------------------------------------------------ analysis
    def check_nesting(self) -> List[str]:
        """Spans whose interval escapes their parent's (should be none)."""
        bad = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                bad.append(f"span {i} {name}: never closed")
            elif parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    bad.append(f"span {i} {name}: outside parent {p[0]}")
        return bad

    def aggregate(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds (total minus the
        part of the interval covered by direct child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        rows: Dict[str, Dict[str, float]] = {
            layer.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        for i in range(since, len(self.spans)):
            name, start, end, _ = self.spans[i]
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
        return rows

    def top_level_seconds(self, names, since: int = 0, until: Optional[int] = None) -> float:
        """Seconds covered by spans named in ``names`` that have no ancestor
        also named in ``names`` (their union, since spans nest)."""
        names = set(names)
        total = 0.0
        stop = len(self.spans) if until is None else until
        for i in range(since, stop):
            name, start, end, parent = self.spans[i]
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


# ------------------------------------------------------------ installing

def _patch_function(module, attr: str, wrapper: Callable) -> None:
    """Point every ``repro`` module global bound to ``module.attr`` at the
    wrapper, so ``from x import f`` aliases are traced too."""
    orig = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def _patch_attr(cls, attr: str, layer: str, rec: SpanRecorder) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, property):
        new = property(rec.wrap(layer, raw.fget))
    elif isinstance(raw, classmethod):
        new = classmethod(rec.wrap(layer, raw.__func__))
    else:
        new = rec.wrap(layer, raw)
    setattr(cls, attr, new)


def _classes_defining(modules, attr: str):
    seen = []
    for mod in modules:
        for value in vars(mod).values():
            if (
                isinstance(value, type)
                and value.__module__ == mod.__name__
                and attr in value.__dict__
                and value not in seen
            ):
                seen.append(value)
    return seen


def install(rec: SpanRecorder) -> None:
    """Wrap every layer's public functions (all but ``pipeline.scheduler``,
    which the caller wraps around its own ``run_sweep`` call)."""
    from repro.eval import corpus, harness
    from repro.hw import sim, systolic, workloads
    from repro.methods import get_method, known_method_names
    from repro.methods.resources import HessianStore
    from repro.models import cnn, ssm, transformer, vlm
    from repro.obs.ledger import RunLedger
    from repro.pipeline.cache import ResultCache
    from repro.pipeline.spec import Job, SweepSpec
    from repro.quant import engine

    _patch_attr(SweepSpec, "jobs", "pipeline.spec.jobs", rec)
    _patch_attr(Job, "job_hash", "pipeline.spec.job_hash", rec)
    _patch_attr(ResultCache, "get", "pipeline.cache.get", rec)
    _patch_attr(ResultCache, "put", "pipeline.cache.put", rec)
    _patch_attr(RunLedger, "append", "obs.ledger.append", rec)
    _patch_attr(HessianStore, "bundle", "methods.hessian.bundle", rec)
    _patch_attr(workloads.MeasuredWorkload, "from_layer_stats", "hw.workloads.build", rec)

    for module, attr, layer in (
        (harness, "evaluate_setting", "eval.evaluate_setting"),
        (corpus, "eval_corpus", "eval.corpus"),
        (corpus, "calibration_tokens", "eval.corpus"),
        (engine, "quantize_model", "quant.engine.quantize_model"),
        (sim, "simulate", "hw.sim.simulate"),
        (systolic, "simulate_gemm", "hw.systolic.simulate_gemm"),
        (workloads, "build_workload", "hw.workloads.build"),
    ):
        _patch_function(module, attr, rec.wrap(layer, getattr(module, attr)))

    for cls in _classes_defining((transformer, vlm, cnn, ssm), "collect_calibration"):
        _patch_attr(cls, "collect_calibration", "models.calibrate", rec)

    quantizer_classes = []
    for method in known_method_names():
        for cls in type(get_method(method).make()).__mro__:
            if "quantize_layer" in cls.__dict__ and cls not in quantizer_classes:
                quantizer_classes.append(cls)
    for cls in quantizer_classes:
        _patch_attr(cls, "quantize_layer", "methods.quantize_layer", rec)


# --------------------------------------------------------- metric catalog

#: ``repro.obs.METRICS`` counters reported as exact deltas over the traced
#: region, with the direction a gain moves them.
COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("result_cache.hits", "higher"),
    ("result_cache.misses", "lower"),
    ("result_cache.puts", "lower"),
    ("hessian.store.hits", "higher"),
    ("hessian.store.misses", "lower"),
    ("hessian.store.factorizations", "lower"),
    ("engine.calibration_passes", "lower"),
    ("engine.layers", "lower"),
    ("engine.layer_batches", "higher"),
    ("quant.kernel.vector_calls", "lower"),
    ("pipeline.quant_stage_hits", "higher"),
)

#: ``python -X importtime`` rows (cumulative) → metric name.
IMPORTS: Tuple[Tuple[str, str], ...] = (
    ("numpy", "setup.import.numpy_s"),
    ("repro.hw", "setup.import.repro.hw_s"),
    ("repro.methods", "setup.import.repro.methods_s"),
    ("repro.accelerator", "setup.import.repro.accelerator_s"),
    ("repro.pipeline", "setup.import.repro.pipeline_s"),
)

#: Ratios and derived numbers: name, unit, better, what it is (its base).
DERIVED: Tuple[Tuple[str, str, str, str], ...] = (
    ("pipeline.jobs", "count", "lower", "jobs in the grid"),
    ("pipeline.spec.hashes_per_job", "calls/job", "lower",
     "Job.job_hash calls in the warm pass / pipeline.jobs"),
    ("pipeline.cache.hit_ratio", "ratio", "higher",
     "result_cache.hits / (result_cache.hits + result_cache.misses)"),
    ("pipeline.stage.quant_hits", "count", "higher",
     "telemetry quant_stage_hits of the cold sweep"),
    ("models.calibrate_share", "ratio", "lower",
     "models.calibrate.total_s / quant.engine.quantize_model.total_s"),
    ("methods.hessian.reuse_ratio", "ratio", "higher",
     "(hessian.store.hits + disk_hits) / methods.hessian.bundle.calls"),
    ("hw.systolic.us_per_gemm", "us", "lower",
     "hw.systolic.simulate_gemm.total_s / .calls, host microseconds"),
    ("eval.evaluate_setting.sweep_share", "ratio", "lower",
     "eval.evaluate_setting.total_s / trace.sweep_s"),
    ("hw.sim.simulate.sweep_share", "ratio", "lower",
     "hw.sim.simulate.total_s / trace.sweep_s"),
    ("pipeline.telemetry.compute_s", "s", "lower",
     "the program's own telemetry compute_s for the cold sweep"),
    ("pipeline.outside.kernel_s", "s", "lower",
     "cold-sweep seconds inside evaluate_setting, simulate or workload builds"),
    ("trace.sweep_s", "s", "lower", "wall seconds of the traced cold sweep"),
    ("trace.overhead_s", "s", "lower", "trace.sweep_s minus an untraced cold sweep"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every metric a traced run reports: ``(name, unit, better)``."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out += [
            (f"{layer.name}.calls", "count", "lower"),
            (f"{layer.name}.total_s", "s", "lower"),
            (f"{layer.name}.self_s", "s", "lower"),
        ]
    out += [(name, unit, better) for name, unit, better, _ in DERIVED]
    out += [(name, "count", better) for name, better in COUNTERS]
    out += [(name, "s", "lower") for _, name in IMPORTS]
    return out
