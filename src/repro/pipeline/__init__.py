"""Experiment orchestration: declarative sweeps, caching, parallel execution.

The pipeline turns the repo's per-table benchmark scripts into one reusable
substrate:

* :mod:`~repro.pipeline.spec` — :class:`ExperimentSpec` / :class:`SweepSpec`
  grids enumerated into content-hashed :class:`Job`\\ s;
* :mod:`~repro.pipeline.cache` — a content-addressed on-disk result store, so
  overlapping sweeps only compute what's new;
* :mod:`~repro.pipeline.executor` — serial / process / remote execution with
  per-job timing and failure capture;
* :mod:`~repro.pipeline.runner` — :func:`run_sweep` wiring the above into a
  :class:`SweepResult` with pivot/aggregation helpers;
* :mod:`~repro.pipeline.scheduler` — the reusable :class:`SweepScheduler`
  behind both :func:`run_sweep` and the ``repro-serve`` service: submission
  queue, per-submission :class:`SweepHandle`\\ s, cross-submission in-flight
  dedup;
* :mod:`~repro.pipeline.progress` — throughput / cache-hit telemetry with
  event-sink fan-out (ticker, SSE subscribers);
* :mod:`~repro.pipeline.cli` — the ``repro-sweep`` / ``python -m
  repro.pipeline`` command line (including the service-backed
  ``submit`` / ``watch`` / ``results`` modes).

Quickstart::

    from repro.pipeline import SweepSpec, run_sweep

    spec = SweepSpec(
        families=("opt-6.7b", "llama3-8b"),
        methods=("fp16", "rtn", "microscopiq"),
        w_bits=(4, 2),
    )
    result = run_sweep(spec, cache_dir=".repro-cache", executor="auto")
    print(result.pivot("family", "method", metric="ppl"))
"""

from .cache import ResultCache
from .executor import (
    EXECUTORS,
    JobOutcome,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    make_executor,
)
from .progress import ProgressTracker
from .runner import (
    SweepResult,
    execute_job,
    hw_stage_hash,
    resolve_metric,
    run_codesign_job,
    run_sweep,
)
from .scheduler import SweepCancelled, SweepHandle, SweepScheduler, sweep_digest
from .spec import (
    CALIBRATION_MODES,
    FP_METHOD,
    HASH_VERSION,
    JOB_KINDS,
    ExperimentSpec,
    Job,
    SweepSpec,
    known_methods,
)

__all__ = [
    "CALIBRATION_MODES",
    "EXECUTORS",
    "ExperimentSpec",
    "FP_METHOD",
    "HASH_VERSION",
    "JOB_KINDS",
    "Job",
    "JobOutcome",
    "ProcessExecutor",
    "ProgressTracker",
    "ResultCache",
    "SerialExecutor",
    "SweepCancelled",
    "SweepHandle",
    "SweepResult",
    "SweepScheduler",
    "SweepSpec",
    "default_workers",
    "execute_job",
    "hw_stage_hash",
    "known_methods",
    "make_executor",
    "resolve_metric",
    "run_codesign_job",
    "run_sweep",
    "sweep_digest",
]
