"""Observability: structured tracing, unified metrics, persistent run ledger.

Three dependency-free layers the rest of the stack publishes into:

* :mod:`repro.obs.trace` — hierarchical spans (``trace("name", **attrs)`` /
  ``@traced``) over sweep → job → stage → engine → kernel, opt-out cheap via
  a shared no-op span when disabled; toggled by :func:`enable_tracing` or the
  ``REPRO_TRACE`` environment variable.
* :mod:`repro.obs.metrics` — the process-wide :data:`METRICS` counter/gauge
  registry the Hessian store, result cache, engine, and stage book publish
  into (per-object attributes stay as views of each object's own share).
* :mod:`repro.obs.ledger` — the persistent per-sweep JSONL record under
  ``<cache>/runs/`` that ``repro-sweep report`` / ``trace`` query.
"""

from .ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    new_run_id,
    render_run,
    render_span_tree,
    validate_record,
)
from .metrics import METRICS, MetricsRegistry, merge_deltas
from .trace import (
    NULL_SPAN,
    Span,
    TRACE_ENV,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    env_enabled,
    set_tracer,
    span_seconds,
    span_self_seconds,
    trace,
    traced,
    tracing_enabled,
    walk_spans,
)

__all__ = [
    "LEDGER_SCHEMA",
    "METRICS",
    "MetricsRegistry",
    "NULL_SPAN",
    "RunLedger",
    "Span",
    "TRACE_ENV",
    "Tracer",
    "current_tracer",
    "disable_tracing",
    "enable_tracing",
    "env_enabled",
    "merge_deltas",
    "new_run_id",
    "render_run",
    "render_span_tree",
    "set_tracer",
    "span_seconds",
    "span_self_seconds",
    "trace",
    "traced",
    "tracing_enabled",
    "validate_record",
    "walk_spans",
]
