"""Unified counter/gauge registry: one process-wide view of every subsystem.

Before this module, reuse accounting was scattered across per-object
attributes — ``HessianStore.hits``, the stage book's ``quant_stage_hits``,
ad-hoc telemetry dict entries — and evaporated with the objects that owned
them. :data:`METRICS` is the process-wide :class:`MetricsRegistry` those
subsystems now *also* publish into, under stable dotted names::

    hessian.store.hits / misses / h_builds / inversions /
                  factorizations
    result_cache.hits / misses / puts
    engine.models / groups / layers / calibration_passes /
           layer_batches / batched_layers
    pipeline.jobs_computed / quant_stage_hits / hw_stage_hits /
             inflight_dedup
    quant.kernel.vector_calls
    serve.auth.rejected

The full key set is machine-readable in :mod:`repro.obs.naming`
(``METRIC_NAMES``) — ``repro-lint``'s ``obs-metric-name`` rule rejects any
``METRICS`` key not documented there, so this list cannot silently drift.

The per-object attributes survive as views of each object's own share (the
existing assertion-style tests keep working); the registry answers the
process-wide question — and, snapshotted before/after a sweep, the
*per-run* question the run ledger records. Worker processes carry their own
registry; the executor ships each job's counter delta back on the
:class:`~repro.pipeline.executor.JobOutcome` so multi-process sweeps still
produce one coherent set of totals.

Counters are monotonic (``incr``), gauges are last-write-wins (``set``);
both are thread-safe and dependency-free.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "merge_deltas",
]


class MetricsRegistry:
    """A flat, thread-safe map of dotted metric names to numeric values."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    # ------------------------------------------------------------- updates
    def incr(self, name: str, amount: float = 1) -> float:
        """Add ``amount`` to counter ``name`` (created at 0); returns the
        new value. Negative amounts are allowed."""
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    # --------------------------------------------------------------- reads
    def value(self, name: str) -> float:
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            return self._gauges.get(name, 0)

    def snapshot(self) -> Dict[str, float]:
        """Every metric, one flat dict (counters and gauges together)."""
        with self._lock:
            out = dict(self._counters)
            out.update(self._gauges)
            return out

    def delta(self, before: Optional[Dict[str, float]]) -> Dict[str, float]:
        """What changed since ``before`` (a prior :meth:`snapshot`), counters
        as differences, gauges as current values; zero rows dropped."""
        before = before or {}
        with self._lock:
            out = {
                name: value - before.get(name, 0)
                for name, value in self._counters.items()
                if value != before.get(name, 0)
            }
            out.update(
                (name, value)
                for name, value in self._gauges.items()
                if value != before.get(name)
            )
            return out

    def reset(self) -> None:
        """Zero everything — test isolation only; production code never
        resets (per-run numbers come from :meth:`snapshot` + :meth:`delta`)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._counters) + len(self._gauges)


def merge_deltas(*deltas: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Sum several counter-delta dicts (e.g. the local delta plus every
    foreign worker's shipped delta) into one; ``None`` entries are skipped."""
    out: Dict[str, float] = {}
    for delta in deltas:
        for name, value in (delta or {}).items():
            out[name] = out.get(name, 0) + value
    return out


#: The process-wide registry every instrumented subsystem publishes into.
METRICS = MetricsRegistry()
