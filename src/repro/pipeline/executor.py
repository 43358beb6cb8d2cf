"""Job executors: serial, thread-pool, and process-pool behind one interface.

Every executor takes a picklable kernel ``fn(job) -> dict`` and a list of
:class:`~repro.pipeline.spec.Job`\\ s and yields one :class:`JobOutcome` per
job *in completion order*. A job that raises records an error outcome (type,
message, traceback) instead of killing the sweep — crashed cells show up in
``SweepResult.failures()`` rather than as a dead run.

Dispatch is bounded: at most ``workers × chunk_size`` futures are in flight
at a time (each job is still submitted individually), so huge sweeps don't
materialize thousands of pending futures up front and progress callbacks see
a steady completion stream instead of one burst at the end.

The process pool uses the ``fork`` start method where available (the kernel
closes over nothing, but fork skips re-importing numpy per worker). Each
process worker caps its OpenBLAS pool at its share of the CPUs
(:func:`_cap_blas_threads`); otherwise every worker would keep the pool numpy
sized to the whole machine, and ``n`` workers would run ``n`` times as many
BLAS threads as there are CPUs. A variable such as ``OPENBLAS_NUM_THREADS``
set after fork cannot do this: the library read it once, when it loaded in
the parent. Thread pools suit kernels dominated by GIL-releasing numpy ops;
serial is the reference implementation the parallel paths are asserted
bit-identical to.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..obs.metrics import METRICS
from ..obs.trace import current_tracer
from .spec import Job

__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "ProcessExecutor",
    "RemoteExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "default_workers",
    "make_executor",
]


@dataclass
class JobOutcome:
    """What happened to one job: its metrics or its failure, plus timing.

    ``spans`` (the job's serialized span tree, when tracing is on) and
    ``counters`` (the metric delta this job produced in its worker) ride the
    same wire as the metrics — that is how a multi-process sweep still yields
    one coherent trace and one set of counter totals.
    """

    job: Job
    metrics: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    seconds: float = 0.0
    from_cache: bool = False
    worker: str = ""
    spans: Optional[Dict[str, Any]] = None
    counters: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def record(self) -> Dict[str, Any]:
        """The cacheable JSON form of this outcome."""
        return {
            "job": self.job.spec.key(),
            "label": self.job.label,
            "seed": self.job.seed,
            "metrics": self.metrics,
            "error": self.error,
            "seconds": self.seconds,
        }


def _call(fn: Callable[[Job], Dict[str, Any]], job: Job) -> JobOutcome:
    """Run one job, capturing timing and any exception (module-level so it
    pickles for the process pool)."""
    # The executor also dispatches stage/layer tasks that merely quack like
    # jobs (label only) — identity attrs are best-effort.
    tracer = current_tracer()
    before = METRICS.snapshot() if tracer is not None else None
    capture = None
    if tracer is not None:
        capture = tracer.capture(
            "job",
            label=getattr(job, "label", ""),
            hash=getattr(job, "job_hash", "") or getattr(job, "stage_hash", ""),
            kind=getattr(getattr(job, "spec", None), "job_kind", ""),
        )
    start = time.perf_counter()
    try:
        if capture is not None:
            with capture:
                metrics = fn(job)
        else:
            metrics = fn(job)
        return JobOutcome(
            job,
            metrics=metrics,
            seconds=time.perf_counter() - start,
            worker=f"pid-{os.getpid()}",
            spans=capture.to_dict() if capture is not None else None,
            counters=METRICS.delta(before) if before is not None else None,
        )
    except Exception as exc:  # deliberate: one bad job must not kill the sweep
        return JobOutcome(
            job,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(limit=20),
            },
            seconds=time.perf_counter() - start,
            worker=f"pid-{os.getpid()}",
            spans=capture.to_dict() if capture is not None else None,
            counters=METRICS.delta(before) if before is not None else None,
        )


def default_workers() -> int:
    """Worker count matched to the CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


# OpenBLAS's (get, set) pool-size symbols: the scipy-openblas build numpy's
# wheels ship (64-bit ints, then 32), then a system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _cap_blas_threads(workers: int) -> None:
    """Process-pool initializer: cap this worker's OpenBLAS pool at
    ``max(1, min(current pool, usable CPUs // workers))``.

    The library is found in ``/proc/self/maps`` and driven through its own
    setter, the only thing that changes a pool already loaded (a forked child
    inherits the parent's library, environment read and all). The cap only
    lowers the pool, so one the user already limited stays as it is. Never
    raises, as a failing initializer breaks the whole pool: without
    ``/proc``, OpenBLAS or its symbols it does nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return
    for lib in libs:
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            current = get()
            cap = max(1, min(current, default_workers() // workers))
            if cap < current:
                set_(cap)
            break


@dataclass
class SerialExecutor:
    """In-process reference executor; parallel results must match it."""

    name = "serial"
    workers: int = 1

    def run(
        self, fn: Callable[[Job], Dict[str, Any]], jobs: Sequence[Job]
    ) -> Iterator[JobOutcome]:
        for job in jobs:
            yield _call(fn, job)


@dataclass
class _PoolExecutor:
    """Shared chunked-dispatch logic for thread and process pools."""

    workers: Optional[int] = None
    chunk_size: Optional[int] = None

    def _make_pool(self, n: int) -> Executor:
        raise NotImplementedError

    def run(
        self, fn: Callable[[Job], Dict[str, Any]], jobs: Sequence[Job]
    ) -> Iterator[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return
        n = self.workers or default_workers()
        n = max(1, min(n, len(jobs)))
        chunk = self.chunk_size or max(1, min(8, len(jobs) // (2 * n) or 1))
        with self._make_pool(n) as pool:
            pending = set()
            it = iter(jobs)
            exhausted = False
            # Keep ~chunk jobs per worker in flight; yield as they complete.
            while pending or not exhausted:
                while not exhausted and len(pending) < n * chunk:
                    job = next(it, None)
                    if job is None:
                        exhausted = True
                        break
                    pending.add(pool.submit(_call, fn, job))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    yield fut.result()


@dataclass
class ThreadExecutor(_PoolExecutor):
    name = "thread"

    def _make_pool(self, n: int) -> Executor:
        return ThreadPoolExecutor(max_workers=n, thread_name_prefix="repro-sweep")


@dataclass
class ProcessExecutor(_PoolExecutor):
    name = "process"

    def _make_pool(self, n: int) -> Executor:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=n, mp_context=ctx, initializer=_cap_blas_threads, initargs=(n,)
        )


@dataclass
class RemoteExecutor:
    """Dispatch to a ``repro-dist`` coordinator's worker fleet.

    Same contract as the pools — outcomes in completion order, bit-identical
    metrics (workers derive each job's RNG seed from its hash, exactly as a
    local executor would). ``workers`` is accepted for interface symmetry but
    ignored: fleet size is however many ``repro-dist worker`` processes are
    pulling. ``url`` defaults to ``REPRO_DIST_URL``.
    """

    name = "remote"
    workers: Optional[int] = None
    url: str = ""
    poll: float = 0.1
    timeout: float = 600.0

    def run(
        self, fn: Callable[[Job], Dict[str, Any]], jobs: Sequence[Job]
    ) -> Iterator[JobOutcome]:
        from ..dist.remote import run_remote  # lazy: dist is optional plumbing

        yield from run_remote(
            fn, jobs, url=self.url, poll=self.poll, timeout=self.timeout
        )


EXECUTORS: Dict[str, Callable[..., Any]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "remote": RemoteExecutor,
}


def make_executor(name: str = "auto", workers: Optional[int] = None):
    """Build an executor by name; ``"auto"`` picks a process pool when more
    than one CPU is available and serial otherwise (pool overhead would only
    slow a single-CPU box down). That choice rests on the process workers
    splitting the CPUs between them: each caps its BLAS pool at its share
    (:func:`_cap_blas_threads`) instead of taking a machine-sized one."""
    if name == "auto":
        name = "process" if (workers or default_workers()) > 1 else "serial"
    try:
        cls = EXECUTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; known: auto, {', '.join(sorted(EXECUTORS))}"
        ) from None
    if cls is SerialExecutor:
        return cls()
    return cls(workers=workers)
