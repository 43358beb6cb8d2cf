"""Reusable sweep scheduler: submissions → stages → executor → results.

:class:`SweepScheduler` is the engine both frontends share. The CLI's
:func:`~repro.pipeline.runner.run_sweep` creates a transient scheduler and
runs one submission synchronously in the calling thread — behavior- and
hash-identical to the pre-scheduler runner. The sweep service
(``repro-serve``) keeps one long-lived scheduler, feeds it a submission
queue, and hands each client a :class:`SweepHandle` carrying live job
states, a progress-event log for SSE subscribers, cancellation, and the
eventual :class:`~repro.pipeline.runner.SweepResult`.

**One stage loop.** Every job the cache misses is an ordered list of
content-addressed stages — accuracy ``[quant]``, hardware ``[hw]``,
codesign ``[quant, lift, hw]`` (the lift runs here, in-process, while the
hardware task is built). Each pass advances all unfinished jobs one stage
through :meth:`SweepScheduler._advance`: it dedups the requested stages by
address, serves what the sweep already read or the cache holds, claims the
rest, runs the owned ones on one executor pool, awaits the attached ones,
caches each fresh result before resolving its claim, and settles each job
the moment its last stage lands — so progress and SSE events stream.

**Cross-submission in-flight dedup.** The content hashes that make the
result cache safe to share across processes also make *concurrent*
submissions safe to share work: before dispatching its pool, a submission
claims every stage address it must compute in the scheduler's in-flight
book. The first claimant owns the computation; later claimants attach to
the owner's future and settle without recomputing — counted in
``pipeline.inflight_dedup`` and ``telemetry["inflight_dedup"]``. If an
owner abandons a claim (cancelled or crashed mid-sweep), attached
submissions re-claim and compute the stage themselves, so dedup never turns
one client's cancellation into another's failure.

Everything here is stdlib + the existing pipeline machinery — the executor
pools, stage kernels, result cache, metrics registry, and run ledger are
the same objects the one-shot path uses, which is what makes the service's
results bit-identical to the CLI's.
"""

from __future__ import annotations

import hashlib
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple, Union

from ..methods.resources import HESSIAN_DIR_ENV
from ..obs.ledger import RunLedger
from ..obs.metrics import METRICS, merge_deltas
from ..obs.trace import NULL_SPAN, current_tracer
from .cache import ResultCache
from .executor import JobOutcome, _call, blas_info, make_executor
from .progress import ProgressTracker, default_stream
from .runner import (
    SweepResult,
    _HwStageTask,
    _hw_stage_kernel,
    _hw_stage_task,
    _merge_codesign,
    execute_job,
    task_key,
)
from .spec import ExperimentSpec, Job, SweepSpec

__all__ = [
    "SweepCancelled",
    "SweepHandle",
    "SweepScheduler",
    "sweep_digest",
]

#: Handle states, in lifecycle order. ``done``/``failed``/``cancelled`` are
#: terminal.
SWEEP_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


class SweepCancelled(RuntimeError):
    """Raised out of a submission that was cancelled before it finished."""


def sweep_digest(jobs: Sequence[Job]) -> str:
    """Order-independent content digest of a job set (the ledger's
    ``spec_digest`` — two submissions of the same grid share it)."""
    return _digest(j.job_hash for j in jobs)


def _digest(hashes: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(hashes)).encode()).hexdigest()


class _JobFuture:
    """One in-flight computation another submission can attach to.

    Resolves exactly once with a :class:`JobOutcome`, or is *abandoned*
    (outcome stays ``None``) when its owner exits without resolving it —
    waiters must then re-claim and compute themselves.
    """

    __slots__ = ("outcome", "abandoned", "_event")

    def __init__(self) -> None:
        self.outcome: Optional[JobOutcome] = None
        self.abandoned = False
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


class _InflightBook:
    """The scheduler-wide claim table: content hash → in-flight future.

    ``claim`` returns ``(future, owner)``; the first claimant of a hash owns
    it (and must eventually ``resolve`` or ``abandon``), later claimants
    attach. Resolved/abandoned entries leave the table immediately — once a
    result is resolved it is in the cache, so future submissions hit disk,
    not the book.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._futures: Dict[str, _JobFuture] = {}

    def claim(self, key: str) -> Tuple[_JobFuture, bool]:
        with self._lock:
            fut = self._futures.get(key)
            if fut is not None:
                return fut, False
            fut = _JobFuture()
            self._futures[key] = fut
            return fut, True

    def resolve(self, key: str, outcome: JobOutcome) -> None:
        with self._lock:
            fut = self._futures.pop(key, None)
        if fut is not None and not fut.done:
            fut.outcome = outcome
            fut._event.set()

    def abandon(self, key: str, fut: _JobFuture) -> None:
        with self._lock:
            if self._futures.get(key) is fut:
                del self._futures[key]
        if not fut.done:
            fut.abandoned = True
            fut._event.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._futures)


class SweepHandle:
    """One submission's live view: state, per-job states, progress events,
    cancellation, and the eventual result.

    Thread-safe; produced by :meth:`SweepScheduler.submit` (service path) or
    used transiently inside :meth:`SweepScheduler.run` (CLI path). The
    progress-event log is append-only and replayed to late subscribers, so
    an SSE client attaching mid-sweep sees the full history.
    """

    def __init__(
        self,
        sweep_id: str,
        sweep: SweepSpec,
        jobs: List[Job],
        options: Dict[str, Any],
    ) -> None:
        self.sweep_id = sweep_id
        self.sweep = sweep
        self.jobs = jobs
        #: Each job's content hash, computed once; everything keys on these.
        self.hashes = [j.job_hash for j in jobs]
        self.options = options
        self.spec_digest = _digest(self.hashes)
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set once the submission has registered all its in-flight claims —
        #: after this, an overlapping submission is guaranteed to dedup.
        self.claimed = threading.Event()
        #: Set on entering a terminal state.
        self.finished = threading.Event()
        self._lock = threading.Lock()
        self._state = "queued"
        self._cancel = threading.Event()
        self._result: Optional[SweepResult] = None
        self._error: Optional[Dict[str, str]] = None
        self._job_states: Dict[str, str] = dict.fromkeys(self.hashes, "queued")
        self._progress: Dict[str, Any] = {}
        self._events: List[Dict[str, Any]] = []
        self._subscribers: List[queue.SimpleQueue[Dict[str, Any]]] = []
        self._seq = 0

    # ------------------------------------------------------------------ state
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def error(self) -> Optional[Dict[str, str]]:
        with self._lock:
            return dict(self._error) if self._error else None

    def cancel(self) -> bool:
        """Request cancellation; returns False if already terminal.

        Queued submissions settle ``cancelled`` when the worker dequeues
        them; running ones stop at the next cancellation point (between
        jobs — an in-flight kernel call finishes first).
        """
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
        self._cancel.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until terminal (or timeout); returns the current state."""
        self.finished.wait(timeout)
        return self.state

    def result(self, timeout: Optional[float] = None) -> SweepResult:
        """The submission's :class:`SweepResult`; raises on failure,
        cancellation, or timeout."""
        if not self.finished.wait(timeout):
            raise TimeoutError(
                f"sweep {self.sweep_id} still {self.state!r} after {timeout}s"
            )
        with self._lock:
            if self._state == "done":
                assert self._result is not None
                return self._result
            if self._state == "cancelled":
                raise SweepCancelled(f"sweep {self.sweep_id} was cancelled")
            err = self._error or {"type": "RuntimeError", "message": "unknown"}
        raise RuntimeError(
            f"sweep {self.sweep_id} failed: {err.get('type')}: {err.get('message')}"
        )

    # --------------------------------------------------------------- progress
    def progress(self) -> Dict[str, Any]:
        """A JSON-able status snapshot (the service's poll payload)."""
        with self._lock:
            run_id = None
            if self._result is not None:
                run_id = self._result.telemetry.get("run_id")
            out = {
                "sweep_id": self.sweep_id,
                "state": self._state,
                "label": self.options.get("label", ""),
                "cancelled": self._cancel.is_set(),
                "n_jobs": len(self.jobs),
                "spec_digest": self.spec_digest,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": dict(self._error) if self._error else None,
                "run_id": run_id,
            }
            out.update(self._progress)
        return out

    def job_states(self) -> List[Dict[str, str]]:
        """Per-job state rows, in submission order."""
        with self._lock:
            states = dict(self._job_states)
        return [
            {"hash": h, "label": j.label, "state": states[h]}
            for j, h in zip(self.jobs, self.hashes)
        ]

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def subscribe(self) -> Tuple[List[Dict[str, Any]], queue.SimpleQueue]:
        """Atomically snapshot past events and register a live queue — no
        event is lost or duplicated across the boundary."""
        q: queue.SimpleQueue[Dict[str, Any]] = queue.SimpleQueue()
        with self._lock:
            past = list(self._events)
            self._subscribers.append(q)
        return past, q

    def unsubscribe(self, q: queue.SimpleQueue) -> None:
        with self._lock:
            if q in self._subscribers:
                self._subscribers.remove(q)

    # ----------------------------------------------------- scheduler plumbing
    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._seq += 1
            event = dict(event, sweep_id=self.sweep_id, seq=self._seq)
            self._events.append(event)
            subs = list(self._subscribers)
        for q in subs:
            q.put(event)

    def _progress_sink(self, event: Dict[str, Any]) -> None:
        """The :class:`ProgressTracker` sink: track job states + running
        totals, then fan the event out to subscribers."""
        if event.get("event") == "job":
            h = event.get("job_hash") or ""
            with self._lock:
                if h in self._job_states:
                    if not event.get("ok", True):
                        state = "failed"
                    elif event.get("attached"):
                        state = "attached"
                    elif event.get("from_cache"):
                        state = "cached"
                    else:
                        state = "done"
                    self._job_states[h] = state
                self._progress = {
                    k: event[k]
                    for k in (
                        "done", "total", "computed", "cache_hits",
                        "attached_jobs", "failures", "elapsed_s", "jobs_per_s",
                    )
                    if k in event
                }
        self._emit(event)

    def _set_state(self, state: str) -> None:
        with self._lock:
            self._state = state
            if state == "running":
                self.started_at = time.time()
        self._emit({"event": "state", "state": state})

    def _finish(
        self,
        state: str,
        result: Optional[SweepResult] = None,
        error: Optional[Dict[str, str]] = None,
    ) -> None:
        with self._lock:
            self._state = state
            self._result = result
            self._error = error
            if state == "cancelled":
                for h, s in self._job_states.items():
                    if s == "queued":
                        self._job_states[h] = "cancelled"
            self.finished_at = time.time()
        self._emit({"event": "state", "state": state, "error": error})
        self.finished.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SweepHandle({self.sweep_id!r}, state={self.state!r}, "
            f"n_jobs={len(self.jobs)})"
        )


@dataclass
class _Stage:
    """One stage address requested in a pass: the task that computes it and
    the unfinished jobs (in job order) waiting on it."""

    key: str  # the claim address (see runner.task_key)
    task: Any
    runs: List[_Run] = field(default_factory=list)

    @property
    def address(self) -> str:
        """Where the result is cached: hw stages drop the claim prefix."""
        return self.task.stage_hash if isinstance(self.task, _HwStageTask) else self.key

    @property
    def is_own_job(self) -> bool:
        """Whether the stage is one of the sweep's own pending jobs."""
        return any(run.hash == self.key for run in self.runs)


@dataclass(slots=True)
class _Run:
    """A pending job walking its stage list. ``staged`` marks a codesign
    job under the canonical kernel — ``[quant, lift, hw]``, with the quant
    metrics held in ``quant`` between passes; every other job is one stage,
    the job itself."""

    job: Job
    hash: str
    staged: bool
    quant: Optional[Dict[str, Any]] = None
    seconds: float = 0.0
    worker: str = ""
    spans: List[Dict[str, Any]] = field(default_factory=list)
    attached: bool = False


@dataclass
class _Submission:
    """What one running submission accumulates across its passes."""

    handle: SweepHandle
    reads: Optional[ResultCache]  # the cache to serve from (None: recompute)
    cache: Optional[ResultCache]
    tracker: ProgressTracker
    outcomes: Dict[str, JobOutcome] = field(default_factory=dict)
    # Claims this submission owns and must resolve or abandon. Abandoning on
    # the way out (cancellation, crash) wakes attached submissions so they
    # re-claim and recover.
    owned: List[Tuple[str, _JobFuture]] = field(default_factory=list)
    foreign_counters: List[Dict[str, float]] = field(default_factory=list)
    quant_stage_hits: int = 0
    hw_stage_hits: int = 0
    inflight_dedup: int = 0


class SweepScheduler:
    """The shared sweep engine behind ``run_sweep`` and ``repro-serve``.

    Synchronous path: :meth:`run` executes one submission in the calling
    thread (what :func:`~repro.pipeline.runner.run_sweep` uses). Service
    path: :meth:`submit` enqueues a :class:`SweepHandle` onto a bounded
    worker pool (``max_concurrent`` submissions in flight); both paths share
    the result cache, the in-flight claim book, and the run ledger, so any
    mix of them dedups work.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        max_concurrent: int = 2,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.cache_dir = cache_dir
        self.executor = executor
        self.workers = workers
        self.max_concurrent = max_concurrent
        self._inflight = _InflightBook()
        self._handles: Dict[str, SweepHandle] = {}
        self._queue: queue.Queue[Optional[SweepHandle]] = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------ submission
    def _make_handle(
        self,
        sweep: Union[SweepSpec, Sequence[ExperimentSpec]],
        *,
        label: str = "",
        executor: Optional[str] = None,
        workers: Optional[int] = None,
        recompute: bool = False,
        kernel: Callable[[Job], Dict[str, Any]] = execute_job,
        stream: Optional[TextIO] = None,
        hold: Optional[threading.Event] = None,
    ) -> SweepHandle:
        if not isinstance(sweep, SweepSpec):
            sweep = SweepSpec.from_specs(sweep)
        jobs = sweep.jobs()  # spec-build errors surface here, pre-queue
        options = {
            "label": str(label),
            "executor": executor if executor is not None else self.executor,
            "workers": workers if workers is not None else self.workers,
            "recompute": bool(recompute),
            "kernel": kernel,
            "stream": stream,
            "hold": hold,
        }
        handle = SweepHandle("", sweep, jobs, options)
        with self._lock:
            self._counter += 1
            handle.sweep_id = f"sw-{self._counter:04d}-{handle.spec_digest[:8]}"
            self._handles[handle.sweep_id] = handle
        return handle

    def submit(self, sweep, **options) -> SweepHandle:
        """Enqueue a sweep for background execution; returns its handle.

        Raises the usual spec-build errors (``ValueError``/``KeyError``)
        before queueing — the service maps those to HTTP 400s. Accepts the
        per-submission options of :meth:`run` plus ``label`` and a test-only
        ``hold`` event gating execution after in-flight claims are placed.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        handle = self._make_handle(sweep, **options)
        self._ensure_started()
        self._queue.put(handle)
        return handle

    def run(
        self,
        sweep: Union[SweepSpec, Sequence[ExperimentSpec]],
        *,
        progress: bool = False,
        recompute: bool = False,
        kernel: Callable[[Job], Dict[str, Any]] = execute_job,
        executor: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> SweepResult:
        """Execute one submission synchronously in the calling thread and
        return its result (exceptions propagate — the ``run_sweep`` path)."""
        handle = self._make_handle(
            sweep,
            executor=executor,
            workers=workers,
            recompute=recompute,
            kernel=kernel,
            stream=default_stream(progress),
        )
        self._run_submission(handle, reraise=True)
        return handle.result(timeout=0)

    # --------------------------------------------------------------- queries
    def get(self, sweep_id: str) -> Optional[SweepHandle]:
        """A handle by id — exact or unique prefix."""
        with self._lock:
            if sweep_id in self._handles:
                return self._handles[sweep_id]
            prefixed = [
                h for sid, h in self._handles.items() if sid.startswith(sweep_id)
            ]
        return prefixed[0] if len(prefixed) == 1 else None

    def sweeps(self) -> List[SweepHandle]:
        """All handles, oldest first."""
        with self._lock:
            return sorted(self._handles.values(), key=lambda h: h.created_at)

    def stats(self) -> Dict[str, Any]:
        handles = self.sweeps()
        by_state: Dict[str, int] = {}
        for h in handles:
            by_state[h.state] = by_state.get(h.state, 0) + 1
        return {
            "sweeps": len(handles),
            "by_state": by_state,
            "inflight_claims": len(self._inflight),
            "max_concurrent": self.max_concurrent,
            "executor": self.executor,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
        }

    # -------------------------------------------------------------- lifecycle
    def _ensure_started(self) -> None:
        with self._lock:
            if self._threads:
                return
            for i in range(self.max_concurrent):
                t = threading.Thread(
                    target=self._worker, name=f"sweep-worker-{i}", daemon=True
                )
                t.start()
                self._threads.append(t)

    def _worker(self) -> None:
        while True:
            handle = self._queue.get()
            if handle is None:
                return
            self._run_submission(handle)

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions, cancel queued ones, stop workers."""
        with self._lock:
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        if wait:
            for t in threads:
                t.join()
        # Anything still queued never ran: settle it cancelled.
        while True:
            try:
                handle = self._queue.get_nowait()
            except queue.Empty:
                break
            if handle is not None and not handle.finished.is_set():
                handle._finish("cancelled")

    # -------------------------------------------------------------- execution
    def _run_submission(
        self, handle: SweepHandle, reraise: bool = False
    ) -> Optional[SweepResult]:
        if handle.cancelled:
            handle._finish("cancelled")
            if reraise:
                raise SweepCancelled(f"sweep {handle.sweep_id} was cancelled")
            return None
        handle._set_state("running")
        try:
            result = self._execute(handle)
        except SweepCancelled:
            handle._finish("cancelled")
            if reraise:
                raise
            return None
        except BaseException as exc:
            handle._finish(
                "failed", error={"type": type(exc).__name__, "message": str(exc)}
            )
            if reraise:
                raise
            return None
        handle._finish("done", result=result)
        return result

    def _check_cancel(self, handle: SweepHandle) -> None:
        if handle.cancelled:
            raise SweepCancelled(f"sweep {handle.sweep_id} was cancelled")

    def _execute(self, handle: SweepHandle) -> SweepResult:
        opts = handle.options
        jobs = handle.jobs
        executor: str = opts["executor"]
        workers: Optional[int] = opts["workers"]
        kernel = opts["kernel"]
        cache = ResultCache(self.cache_dir) if self.cache_dir is not None else None
        if cache is not None:
            # Point the process-wide Hessian store's disk tier next to the
            # result cache — through the environment, so process-pool workers
            # inherit it and share Hessian work across processes and runs.
            # Deliberately left set after the sweep: later jobs of the same
            # session keep hitting the shared tier.
            os.environ[HESSIAN_DIR_ENV] = cache.hessian_tier_target()
        else:
            # No result cache ⇒ no disk tier either: a stale export from an
            # earlier sweep would silently resurrect that sweep's (possibly
            # deleted) cache directory with orphaned blobs.
            os.environ.pop(HESSIAN_DIR_ENV, None)
        tracer = current_tracer()
        started_at = time.time()
        counters_before = METRICS.snapshot()
        tracker = ProgressTracker(
            total=len(jobs),
            stream=opts.get("stream"),
            sinks=(handle._progress_sink,),
        )
        sub = _Submission(handle, None if opts["recompute"] else cache, cache, tracker)

        try:
            runs: List[_Run] = []
            for job, h in zip(jobs, handle.hashes):
                self._check_cancel(handle)
                record, lookup_s = None, 0.0
                if sub.reads is not None:
                    t0 = time.perf_counter()
                    record = sub.reads.get(h)
                    lookup_s = time.perf_counter() - t0
                if record is not None and record.get("metrics") is not None:
                    sub.outcomes[h] = JobOutcome(
                        job,
                        metrics=record["metrics"],
                        seconds=float(record.get("seconds", 0.0)),
                        from_cache=True,
                    )
                    tracker.update(
                        from_cache=True, seconds=lookup_s, label=job.label, job_hash=h,
                    )
                else:  # a custom kernel runs codesign jobs whole, as one stage
                    staged = kernel is execute_job and job.spec.job_kind == "codesign"
                    runs.append(_Run(job, h, staged))
            # A job's first stage runs the sweep's kernel; only codesign jobs
            # have a second, the lifted hardware stage.
            for fn in (kernel, _hw_stage_kernel):
                self._advance(sub, fn, runs)
                runs = [r for r in runs if r.hash not in sub.outcomes]
        finally:
            for key, fut in sub.owned:
                if not fut.done:
                    self._inflight.abandon(key, fut)

        outcomes = [sub.outcomes[h] for h in handle.hashes]
        telemetry = tracker.finish()
        telemetry["executor"] = executor
        telemetry["quant_stage_hits"] = sub.quant_stage_hits
        telemetry["hw_stage_hits"] = sub.hw_stage_hits
        telemetry["inflight_dedup"] = sub.inflight_dedup
        telemetry["sweep_id"] = handle.sweep_id
        # Publish the sweep-level counters, then report this run's delta —
        # local activity plus whatever foreign pool workers shipped back.
        METRICS.incr("pipeline.jobs_computed", tracker.computed)
        if sub.quant_stage_hits:
            METRICS.incr("pipeline.quant_stage_hits", sub.quant_stage_hits)
        if sub.hw_stage_hits:
            METRICS.incr("pipeline.hw_stage_hits", sub.hw_stage_hits)
        counters = merge_deltas(METRICS.delta(counters_before), *sub.foreign_counters)
        telemetry["counters"] = counters
        telemetry["hessian"] = {
            key: int(counters.get(f"hessian.store.{key}", 0))
            for key in (
                "hits", "disk_hits", "misses", "h_builds", "inversions",
                "factorizations",
            )
        }
        spans_tree = None
        if tracer is not None:
            spans_tree = {
                "name": "sweep",
                "attrs": {"executor": executor, "n_jobs": len(jobs)},
                "seconds": round(time.time() - started_at, 6),
                "children": [o.spans for o in outcomes if o.spans],
            }
        result = SweepResult(jobs=jobs, outcomes=outcomes, telemetry=telemetry)
        if cache is not None:
            ledger_jobs = []
            for o, h in zip(outcomes, handle.hashes):
                entry = {
                    "hash": h,
                    "label": o.job.label,
                    "kind": o.job.spec.job_kind,
                    "ok": o.ok,
                    "from_cache": o.from_cache,
                    "seconds": round(o.seconds, 6),
                }
                if o.error is not None:
                    entry["error_type"] = o.error.get("type", "Error")
                if o.worker and not o.from_cache:
                    entry["worker"] = o.worker
                ledger_jobs.append(entry)
            record = {
                "hostname": socket.gethostname(),
                "blas": blas_info(),
                "started_at": started_at,
                "finished_at": time.time(),
                "wall_s": telemetry["elapsed_s"],
                "compute_s": telemetry["compute_s"],
                "lookup_s": telemetry["lookup_s"],
                "spec_digest": handle.spec_digest,
                "sweep_id": handle.sweep_id,
                "executor": executor,
                "workers": workers or 0,
                "n_jobs": len(jobs),
                "cache_hits": tracker.cache_hits,
                "failures": tracker.failures,
                "quant_stage_hits": sub.quant_stage_hits,
                "hw_stage_hits": sub.hw_stage_hits,
                "traced": tracer is not None,
                "counters": counters,
                "jobs": ledger_jobs,
                "spans": spans_tree,
            }
            if sub.inflight_dedup:
                record["inflight_dedup"] = sub.inflight_dedup
            if opts.get("label"):
                record["label"] = opts["label"]
            telemetry["run_id"] = RunLedger(cache.root / "runs").append(record)
        return result

    def _advance(
        self, sub: _Submission, fn: Callable[[Any], Dict[str, Any]], runs: List[_Run]
    ) -> None:
        """Move every unfinished job one stage forward — the one path every
        job kind takes: dedup the requested stages by address, serve what
        the sweep already read or the cache holds, claim the rest, run the
        owned ones on one pool, then await the attached ones."""
        handle = sub.handle
        stages: Dict[str, _Stage] = {}
        for run in runs:
            if not run.staged:
                key, task = run.hash, run.job
            elif run.quant is None:
                task = run.job.quant_stage()
                key = task.job_hash
            else:  # the lift, in-process: build the job's hardware stage
                tracer = current_tracer()
                attrs = {"family": run.job.spec.family, "arch": run.job.spec.arch}
                lift = tracer.capture("stage:lift", **attrs) if tracer else NULL_SPAN
                try:
                    with lift:
                        task = _hw_stage_task(run.job, run.quant)
                except RuntimeError as exc:  # the quant stage left nothing to lift
                    self._settle(sub, run, JobOutcome(run.job, error={
                        "type": "RuntimeError", "message": str(exc), "traceback": "",
                    }))
                    continue
                if tracer:
                    run.spans.append(lift.to_dict())
                key = task_key(task)
            stage = stages.get(key)
            if stage is None:
                stage = stages[key] = _Stage(key, task)
            elif key == run.hash:  # the sweep's own job doubles as the stage
                stage.task = task
            stage.runs.append(run)

        # Claim every stage before dispatching any: placing all claims up
        # front maximizes the dedup window (a submission arriving mid-pool
        # still attaches to unstarted stages).
        own: List[_Stage] = []
        waits: List[Tuple[_Stage, _JobFuture]] = []
        for stage in stages.values():
            metrics = self._served(sub, stage)
            if metrics is not None:
                self._land(sub, stage, JobOutcome(stage.task, metrics=metrics))
                continue
            fut, owner = self._inflight.claim(stage.key)
            if owner:
                own.append(stage)
                sub.owned.append((stage.key, fut))
            else:
                waits.append((stage, fut))
                sub.inflight_dedup += 1
                METRICS.incr("pipeline.inflight_dedup")
        if not handle.claimed.is_set():
            handle.claimed.set()
            hold = handle.options.get("hold")
            if hold is not None:  # test hook: freeze here, claims placed
                while not hold.wait(0.02):
                    self._check_cancel(handle)

        if own:
            # One stage can't use a pool; don't pay fork/setup.
            executor = handle.options["executor"]
            name = "serial" if executor == "auto" and len(own) == 1 else executor
            pool = make_executor(name, handle.options["workers"])
            for outcome in pool.run(fn, [stage.task for stage in own]):
                self._land(sub, stages[task_key(outcome.job)], outcome, fresh=True)
                self._check_cancel(handle)
        # Waiting after our own pool keeps this deadlock-free: owners resolve
        # from their pool loops, which never wait on attachments.
        for stage, fut in waits:
            self._check_cancel(handle)
            outcome, attached = self._await_future(sub, stage, fut, fn)
            self._land(sub, stage, outcome, fresh=not attached, attached=attached)

    def _served(self, sub: _Submission, stage: _Stage) -> Optional[Dict[str, Any]]:
        """A stage result the sweep already read or the cache holds, if
        usable — a quant stage must carry the layer statistics to lift
        (older records recompute, refreshing the cell)."""
        if stage.key in sub.outcomes:  # one of the sweep's own cached jobs
            metrics = sub.outcomes[stage.key].metrics
        elif sub.reads is None or stage.is_own_job:
            return None  # the sweep read its own pending job and missed
        else:
            metrics = (sub.reads.get(stage.address) or {}).get("metrics")
        if metrics and (isinstance(stage.task, _HwStageTask) or metrics.get("layers")):
            return metrics
        return None

    def _land(
        self,
        sub: _Submission,
        stage: _Stage,
        outcome: JobOutcome,
        fresh: bool = False,
        attached: bool = False,
    ) -> None:
        """A stage result arrived — served (neither flag), computed here
        (``fresh``), or from another submission (``attached``): cache a
        fresh one before resolving its claim, then hand it to every job
        that asked for it."""
        task = stage.task
        if fresh:
            if outcome.counters and outcome.worker != f"pid-{os.getpid()}":
                sub.foreign_counters.append(outcome.counters)
            # Failures are never cached: a fixed kernel or environment should
            # recompute them on the next sweep instead of replaying the error.
            if sub.cache is not None and outcome.ok:
                hw = isinstance(task, _HwStageTask)
                sub.cache.put(stage.address, task.record(outcome) if hw else outcome.record())
            self._inflight.resolve(stage.key, outcome)
        # A codesign job's stage is a hit unless the job is the first to
        # consume a stage dispatched for it that is not one of the sweep's
        # own jobs.
        dispatched = fresh or attached
        own_job = stage.is_own_job
        for i, run in enumerate(stage.runs):
            if run.staged and not (dispatched and i == 0 and not own_job):
                if run.quant is None:
                    sub.quant_stage_hits += 1
                else:
                    sub.hw_stage_hits += 1
            if fresh and i == 0:  # the work happened once: one job carries it
                run.seconds += outcome.seconds
                run.worker = outcome.worker
                if outcome.spans:
                    run.spans.append(outcome.spans)
            run.attached = attached
            if not outcome.ok or not run.staged:
                self._settle(sub, run, outcome)
            elif run.quant is None:
                run.quant = outcome.metrics  # lifted on the next pass
            else:
                metrics = _merge_codesign(run.job, run.quant, outcome.metrics)
                self._settle(sub, run, JobOutcome(run.job, metrics=metrics))

    def _settle(self, sub: _Submission, run: _Run, outcome: JobOutcome) -> None:
        """A job is finished: record its outcome, cache a merged codesign
        result, and report it."""
        spans = run.spans[0] if run.spans else None
        if run.staged and run.spans:
            children = [c for node in run.spans for c in node.get("children") or [node]]
            attrs = {"label": run.job.label, "hash": run.hash, "kind": "codesign", "staged": True}
            spans = {
                "name": "job",
                "attrs": attrs,
                "seconds": round(sum(float(c.get("seconds", 0.0)) for c in children), 6),
                "children": children,
            }
        settled = JobOutcome(
            run.job,
            metrics=outcome.metrics,
            error=None if outcome.ok else dict(outcome.error),
            seconds=run.seconds,
            from_cache=outcome.ok and (run.attached or outcome.from_cache),
            worker=run.worker,
            spans=spans,
        )
        if run.staged and settled.ok and sub.cache is not None:
            sub.cache.put(run.hash, settled.record())
        sub.outcomes[run.hash] = settled
        sub.tracker.update(
            from_cache=False, ok=settled.ok, seconds=settled.seconds, label=run.job.label,
            error_type=(settled.error or {}).get("type", ""), job_hash=run.hash,
            attached=run.attached,
        )

    def _await_future(
        self,
        sub: _Submission,
        stage: _Stage,
        fut: _JobFuture,
        fn: Callable[[Any], Dict[str, Any]],
    ) -> Tuple[JobOutcome, bool]:
        """Wait for another submission's in-flight stage; returns
        ``(outcome, attached)``. If the owner abandons the claim, re-claim
        and compute here (``attached=False``) so dedup never propagates a
        neighbor's cancellation."""
        while True:
            while not fut.wait(0.05):
                self._check_cancel(sub.handle)
            if fut.outcome is not None:
                return fut.outcome, True
            fut, owner = self._inflight.claim(stage.key)
            if owner:
                sub.owned.append((stage.key, fut))
                return _call(fn, stage.task), False
