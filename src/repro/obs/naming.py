"""The documented observability vocabulary: span names and metric keys.

``report``/``trace`` attribution only works because every subsystem publishes
under *stable, documented* names — a typo'd counter key or an ad-hoc span
name silently fragments the rollups (two keys for one thing, or a span no
view knows to look for). This module is the single source of truth the rest
of the stack is checked against: ``repro-lint``'s ``obs-metric-name`` /
``obs-span-name`` rules (:mod:`repro.analysis.rules.obsnames`) flag any
``trace(...)`` span or ``METRICS`` key not listed here.

Adding a new instrumentation site is therefore a two-line change by design:
name the span/counter at the call site *and* document it here. The lint
failure until both exist is the point — the vocabulary can't drift from the
code.

Span names are ``noun`` or ``layer:noun`` (``stage:quant``,
``kernel:simulate``); metric keys are dotted ``layer.noun`` paths
(``hessian.store.hits``). :func:`valid_span_name` / :func:`valid_metric_name`
are the membership predicates the lint rule (and tests) use.
"""

from __future__ import annotations

__all__ = [
    "METRIC_NAMES",
    "SPAN_NAMES",
    "valid_metric_name",
    "valid_span_name",
]

#: Every documented span name, by stack layer (top to bottom):
#: sweep → job → stage:* → engine/evaluate → layer/calibrate → kernel:*.
SPAN_NAMES = frozenset({
    # pipeline layer (runner / scheduler / executor)
    "sweep",
    "job",
    "stage:quant",
    "stage:lift",
    "stage:hw",
    "stage:eval",
    # engine layer (whole-model quantization walk)
    "engine",
    "calibrate",
    "layer",
    "layer_batch",
    # evaluation layer (substrate metric harness)
    "evaluate",
    # kernel layer (the innermost compute regions)
    "kernel:quantize_matrix",
    "kernel:simulate",
})

#: Every documented METRICS counter/gauge key, by owning subsystem.
METRIC_NAMES = frozenset({
    # Hessian store (repro.methods.resources)
    "hessian.store.hits",
    "hessian.store.misses",
    "hessian.store.h_builds",
    "hessian.store.inversions",
    "hessian.store.factorizations",
    # result cache (repro.pipeline.cache)
    "result_cache.hits",
    "result_cache.misses",
    "result_cache.puts",
    "result_cache.refused",
    # quantization engine (repro.quant.engine)
    "engine.models",
    "engine.groups",
    "engine.layers",
    "engine.calibration_passes",
    "engine.layer_batches",
    "engine.batched_layers",
    # sweep pipeline (repro.pipeline.scheduler)
    "pipeline.jobs_computed",
    "pipeline.quant_stage_hits",
    "pipeline.hw_stage_hits",
    "pipeline.inflight_dedup",
    # quantization kernel (repro.quant.microscopiq)
    "quant.kernel.vector_calls",
    # sweep service (repro.serve.server / repro.serve.client)
    "serve.auth.rejected",
    "serve.client.retries",
    # distributed execution (repro.dist)
    "dist.coordinator.tasks_queued",
    "dist.coordinator.tasks_completed",
    "dist.coordinator.cache_hits",
    "dist.coordinator.dedup_hits",
    "dist.coordinator.leases_expired",
    "dist.coordinator.stale_pushes",
    "dist.worker.tasks_run",
    "dist.remote.tasks_dispatched",
})


def valid_span_name(name: str) -> bool:
    """Whether ``name`` is a documented span name."""
    return name in SPAN_NAMES


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a documented metric key."""
    return name in METRIC_NAMES
