"""Lightweight sweep progress + telemetry.

A :class:`ProgressTracker` counts what the runner feeds it — computed jobs,
cache hits, in-flight-attached jobs, failures, per-job seconds — and turns
every update into one structured **progress event** dispatched to its sinks.
The terminal ticker is itself just the default sink (:class:`TickerSink`,
installed when a ``stream`` is given), so the CLI ticker, the scheduler's
per-submission :class:`~repro.pipeline.scheduler.SweepHandle` event log, and
the sweep service's SSE subscribers all fan out from one code path instead
of each re-implementing progress plumbing.

The ticker renders a single rate-limited line so tight cache-hit loops don't
flood the terminal. Everything here is deliberately dependency-free (no
tqdm/rich): the pipeline must run in bare CI containers.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, TextIO, Tuple

__all__ = ["ProgressTracker", "TickerSink"]

#: A progress-event callback: receives one JSON-able event dict per update.
EventSink = Callable[[Dict[str, Any]], None]


class TickerSink:
    """The terminal renderer, as an event sink.

    Consumes the same event stream every other subscriber sees: ``job``
    events render the rate-limited one-line ticker (failures print their
    label and error class immediately — failures are rare by construction,
    so the line bypasses the rate limit without being able to flood it);
    the final ``end`` event forces a last line.
    """

    def __init__(self, stream: TextIO, min_interval: float = 0.25):
        self.stream = stream
        self.min_interval = min_interval
        self._last_print = 0.0

    def __call__(self, event: Dict[str, Any]) -> None:
        if event.get("event") == "end":
            self._tick(event, force=True)
            return
        if not event.get("ok", True):
            print(
                f"FAILED {event.get('label') or '<unlabeled job>'}"
                f" ({event.get('error_type') or 'Error'})".ljust(78),
                file=self.stream, flush=True,
            )
        self._tick(event)

    def _tick(self, event: Dict[str, Any], force: bool = False) -> None:
        done = int(event.get("done", 0))
        total = int(event.get("total", 0))
        now = time.perf_counter()
        if not force and done < total and now - self._last_print < self.min_interval:
            return
        self._last_print = now
        msg = (
            f"[{done}/{total}] {event.get('cache_hits', 0)} cached · "
            f"{event.get('failures', 0)} failed · "
            f"{event.get('jobs_per_s', 0.0):.2f} jobs/s"
        )
        label = event.get("label", "")
        if label:
            msg += f" · {label}"
        end = "\n" if done >= total else "\r"
        print(msg.ljust(78), end=end, file=self.stream, flush=True)


@dataclass
class ProgressTracker:
    """Counters + event fan-out for one sweep.

    ``stream`` installs a :class:`TickerSink`; ``sinks`` adds arbitrary
    extra subscribers (the scheduler hands each submission's handle in
    here). Every :meth:`update` emits one ``job`` event carrying the job's
    identity plus the running totals, and :meth:`finish` emits a final
    ``end`` event with the summary, so a subscriber needs no other state.
    """

    total: int
    stream: Optional[TextIO] = None
    min_interval: float = 0.25
    sinks: Tuple[EventSink, ...] = ()
    done: int = 0
    computed: int = 0
    cache_hits: int = 0
    attached: int = 0
    failures: int = 0
    compute_seconds: float = 0.0
    lookup_seconds: float = 0.0
    _started: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        # update() may be called from several threads; the counters and
        # the emitted snapshot must move together.
        self._lock = threading.Lock()
        self._all_sinks: Tuple[EventSink, ...] = tuple(self.sinks)
        if self.stream is not None:
            self._all_sinks = (
                TickerSink(self.stream, self.min_interval),
            ) + self._all_sinks

    def update(
        self, *, from_cache: bool = False, ok: bool = True, seconds: float = 0.0,
        label: str = "", error_type: str = "", job_hash: str = "",
        attached: bool = False,
    ) -> None:
        """Record one finished job and emit its progress event.

        ``seconds`` is compute time for computed jobs and real cache-lookup
        time for hits (so ``summary()`` no longer reports a warm sweep as
        zero-cost). ``attached=True`` marks a job served by attaching to
        another submission's in-flight execution (the sweep service's
        cross-client dedup) — counted apart from both compute and cache.
        """
        with self._lock:
            self.done += 1
            if attached:
                self.attached += 1
                self.lookup_seconds += seconds
            elif from_cache:
                self.cache_hits += 1
                self.lookup_seconds += seconds
            else:
                self.computed += 1
                self.compute_seconds += seconds
            if not ok:
                self.failures += 1
            event = {
                "event": "job",
                "label": label,
                "job_hash": job_hash,
                "ok": ok,
                "from_cache": bool(from_cache and not attached),
                "attached": attached,
                "error_type": error_type,
                "seconds": round(seconds, 6),
                "done": self.done,
                "total": self.total,
                "computed": self.computed,
                "cache_hits": self.cache_hits,
                "attached_jobs": self.attached,
                "failures": self.failures,
                "elapsed_s": round(self.elapsed, 3),
                "jobs_per_s": round(self.throughput, 3),
            }
        # Sinks run outside the lock: a slow ticker or SSE subscriber must
        # not serialize the workers (events are already consistent snapshots).
        self._emit(event)

    def _emit(self, event: Dict[str, Any]) -> None:
        for sink in self._all_sinks:
            sink(event)

    # ------------------------------------------------------------- reporting
    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    @property
    def throughput(self) -> float:
        """Jobs per wall-clock second so far."""
        return self.done / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "attached": self.attached,
            "failures": self.failures,
            "elapsed_s": round(self.elapsed, 3),
            "compute_s": round(self.compute_seconds, 3),
            "lookup_s": round(self.lookup_seconds, 6),
            "jobs_per_s": round(self.throughput, 3),
            "hit_rate": round(self.hit_rate, 4),
        }

    def finish(self) -> Dict[str, Any]:
        """Emit the final ``end`` event (the ticker's forced last line) and
        return the summary."""
        summary = self.summary()
        self._emit({
            "event": "end",
            "done": self.done,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "jobs_per_s": summary["jobs_per_s"],
            "summary": summary,
        })
        return summary


def default_stream(enabled: bool) -> Optional[TextIO]:
    return sys.stderr if enabled else None
