"""Job executors: serial and process-pool behind one interface.

Every executor takes a picklable kernel ``fn(job) -> dict`` and a list of
:class:`~repro.pipeline.spec.Job`\\ s and yields one :class:`JobOutcome` per
job *in completion order*. A job that raises records an error outcome (type,
message, traceback) instead of killing the sweep — crashed cells show up in
``SweepResult.failures()`` rather than as a dead run.

The process pool bounds its dispatch: at most eight jobs per worker, and
about half the sweep, are in flight at a time (each job is still submitted
individually), so huge sweeps
don't materialize thousands of pending futures up front, a cancelled sweep
wastes little work, and progress callbacks see a steady completion stream
instead of one burst at the end.

Every job runs at one BLAS thread, whichever executor runs it: :func:`_call`
enters :data:`ONE_BLAS_THREAD`, which sets the process's OpenBLAS pool to one
thread while any job is in and restores the caller's size when the last one
leaves. LAPACK's rounding depends on the thread count, so one count
everywhere is what makes serial, process and ``repro-dist`` results
bit-identical on any machine; at this project's matrix sizes a second BLAS
thread buys little wall time and keeps a second core busy. A variable such
as ``OPENBLAS_NUM_THREADS`` cannot do this: the library reads it once, when
it loads. The process pool uses the ``fork`` start method where available (the
kernel closes over nothing, but fork skips re-importing numpy per worker).
Serial is the reference implementation the parallel paths are asserted
bit-identical to.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.metrics import METRICS
from ..obs.trace import NULL_SPAN, current_tracer
from .spec import Job

__all__ = [
    "EXECUTORS",
    "JobOutcome",
    "ProcessExecutor",
    "RemoteExecutor",
    "SerialExecutor",
    "check_executor",
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
    """Run one job at one BLAS thread, capturing timing and any exception
    (module-level so it pickles for the process pool)."""
    # The scheduler also dispatches stage tasks that merely quack like jobs
    # (label only) — identity attrs are best-effort.
    tracer = current_tracer()
    before = METRICS.snapshot() if tracer is not None else None
    capture = NULL_SPAN
    if tracer is not None:
        capture = tracer.capture(
            "job",
            label=getattr(job, "label", ""),
            hash=getattr(job, "job_hash", "") or getattr(job, "stage_hash", ""),
            kind=getattr(getattr(job, "spec", None), "job_kind", ""),
        )
    metrics = error = None
    start = time.perf_counter()
    try:
        with ONE_BLAS_THREAD, capture:
            metrics = fn(job)
    except Exception as exc:  # deliberate: one bad job must not kill the sweep
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }
    return JobOutcome(
        job,
        metrics=metrics,
        error=error,
        seconds=time.perf_counter() - start,
        worker=f"pid-{os.getpid()}",
        spans=capture.to_dict(),
        counters=METRICS.delta(before) if before is not None else None,
    )


def default_workers() -> int:
    """Worker count matched to the CPUs this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


# OpenBLAS's symbol prefixes and suffixes: the scipy-openblas build numpy's
# wheels ship (64-bit ints, then 32), then a system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


_Pool = Tuple[Callable[[], int], Callable[[int], None]]


@functools.lru_cache(maxsize=1)
def _openblas() -> Tuple[Tuple[_Pool, ...], Optional[str]]:
    """Each loaded OpenBLAS's ``(get, set)`` pool-size pair, and the first
    one's ``"name version"``; looked up once per process, on first use.

    The libraries are found in ``/proc/self/maps`` and driven through their
    own setters, the only thing that changes a pool already loaded. Without
    ``/proc``, OpenBLAS or its symbols this finds nothing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return (), None
    pools: List[_Pool] = []
    library = None
    for lib in libs:
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if config is not None and library is None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                # "OpenBLAS 0.3.31 DYNAMIC_ARCH ... MAX_THREADS=64"
                library = " ".join((config() or b"").decode(errors="replace").split()[:2])
            break
    return tuple(pools), library or None


class _OneBlasThread:
    """The scope every job kernel runs in: OpenBLAS at one thread.

    The pool is process-global, and jobs can run concurrently (``repro-serve``
    runs ``max_concurrent`` submissions on threads of one process), so a
    per-call save/restore would lose updates. Instead a depth count under a
    lock sets the pool to 1 when the first job enters and restores the
    caller's size when the last one leaves; scopes nest. A forked child
    starts at depth 0 with a fresh lock, as the parent may have forked while
    one of its threads held it. Never raises: without OpenBLAS it does
    nothing. Caller code outside any job shares the pool, so it runs at one
    thread too while a job is in.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: List[int] = []
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork_in_child)

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        with self._lock:
            self._depth = 0

    def __enter__(self) -> _OneBlasThread:
        with self._lock:
            if self._depth == 0:
                pools, _ = _openblas()
                self._saved = [get() for get, _ in pools]
                for _, set_ in pools:
                    set_(1)
            self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), threads in zip(_openblas()[0], self._saved):
                    set_(threads)


#: The one-BLAS-thread scope (:class:`_OneBlasThread`); :func:`_call`,
#: :func:`~repro.pipeline.runner.execute_job` and each layer kernel of
#: :func:`~repro.quant.engine.quantize_model` enter it.
ONE_BLAS_THREAD = _OneBlasThread()


def blas_info() -> Dict[str, Any]:
    """Which BLAS computes the jobs and at how many threads, for the run
    ledger: ``{"library": "OpenBLAS 0.3.31", "job_threads": 1}``.
    ``job_threads`` is ``None`` when no pool setter was found (the jobs then
    run at the caller's pool), and ``library`` when no OpenBLAS names its
    version."""
    pools, library = _openblas()
    return {"library": library, "job_threads": 1 if pools else None}


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
class ProcessExecutor:
    """A ``fork``-started process pool, at most eight jobs per worker in
    flight (see the module docstring)."""

    name = "process"
    workers: Optional[int] = None

    def run(
        self, fn: Callable[[Job], Dict[str, Any]], jobs: Sequence[Job]
    ) -> Iterator[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return
        n = self.workers or default_workers()
        n = max(1, min(n, len(jobs)))
        in_flight = n * max(1, min(8, len(jobs) // (2 * n) or 1))
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=n, mp_context=ctx) as pool:
            pending = set()
            it = iter(jobs)
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < in_flight:
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
class RemoteExecutor:
    """Dispatch to a ``repro-dist`` coordinator's worker fleet.

    Same contract as the local executors — outcomes in completion order, bit-identical
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
    "process": ProcessExecutor,
    "remote": RemoteExecutor,
}


def check_executor(name: str) -> str:
    """``name`` if it is ``"auto"`` or registered in :data:`EXECUTORS`, else a
    ``KeyError`` naming the known ones. The scheduler checks a name where it
    takes one, so an unknown name fails before any cache read."""
    if name != "auto" and name not in EXECUTORS:
        raise KeyError(
            f"unknown executor {name!r}; known: auto, {', '.join(sorted(EXECUTORS))}"
        )
    return name


def make_executor(name: str = "auto", workers: Optional[int] = None):
    """Build an executor by name; ``"auto"`` picks a process pool when more
    than one CPU is available and serial otherwise (pool overhead would only
    slow a single-CPU box down). With every job at one BLAS thread
    (:data:`ONE_BLAS_THREAD`) the process pool is the fastest where it has
    the CPUs: on a 2-vCPU VM, cold seed-0 sweepbench grids took 3.2–3.3 s
    on ``process`` ×2 against 5.3–5.9 s serial (``accuracy``), and 1.4–1.5 s
    against 1.6–2.1 s (``codesign``), all with bit-identical results. Cheap
    hardware grids are the exception: ``hw-grid`` took 0.33–0.41 s on
    ``process`` ×2 against 0.20–0.26 s serial."""
    if check_executor(name) == "auto":
        name = "process" if (workers or default_workers()) > 1 else "serial"
    cls = EXECUTORS[name]
    return cls() if cls is SerialExecutor else cls(workers=workers)
