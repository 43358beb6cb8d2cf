"""The distributed wire format: tasks and outcomes as JSON.

A *task* is one of the two closure-free units the sweep scheduler already
dispatches to its pools — a full :class:`~repro.pipeline.spec.Job` (run by
:func:`~repro.pipeline.runner.execute_job`) or a codesign hardware stage
(:class:`~repro.pipeline.runner._HwStageTask`, run by its stage kernel).
Both serialize losslessly: specs ride as their ``dataclasses.asdict`` form
and are rebuilt through :func:`repro.serve.server.build_experiment_spec`
(the same normalization the sweep service uses), so a decoded job's
``job_hash`` — and therefore its spawned RNG seed — is byte-identical to
the submitter's. That is the whole bit-identity story: a worker on another
host derives exactly the seed a local executor would have.

Task *keys* are the pipeline's own claim addresses
(:func:`~repro.pipeline.runner.task_key`: ``job_hash`` for jobs,
``hw:<stage_hash>`` for hardware stages), so the coordinator's fleet-wide
claims speak the same addresses the scheduler's in-process
``_InflightBook`` does.

An *outcome* is the JSON shadow of :class:`~repro.pipeline.executor.JobOutcome`
minus the job object itself (the collector re-attaches its own): metrics or
error, seconds, worker identity, and the spans/counters the worker captured
so ``repro-sweep report`` attributes fleet work per worker.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Union

from ..pipeline.executor import JobOutcome
from ..pipeline.runner import _HwStageTask, _hw_stage_kernel, execute_job, task_key
from ..pipeline.spec import Job

__all__ = [
    "decode_outcome",
    "decode_task",
    "encode_outcome",
    "encode_task",
    "kernel_for",
    "task_key",
]

Task = Union[Job, _HwStageTask]


def encode_task(task: Task) -> Dict[str, Any]:
    if isinstance(task, _HwStageTask):
        return {
            "kind": "hw_stage",
            "stage_hash": task.stage_hash,
            "job": _encode_job(task.job),
            "layers": [
                [name, [[k, v] for k, v in stats]] for name, stats in task.layers
            ],
        }
    return {"kind": "job", **_encode_job(task)}


def _encode_job(job: Job) -> Dict[str, Any]:
    return {
        "spec": asdict(job.spec),
        "seed": job.seed,
        "version": job.version,
    }


def _decode_job(payload: Dict[str, Any]) -> Job:
    from ..serve.server import build_experiment_spec  # shared normalization

    return Job(
        spec=build_experiment_spec(payload["spec"]),
        seed=int(payload.get("seed", 0)),
        version=str(payload.get("version", "")),
    )


def decode_task(payload: Dict[str, Any]) -> Task:
    kind = payload.get("kind", "job")
    if kind == "job":
        return _decode_job(payload)
    if kind == "hw_stage":
        layers = {
            str(name): {str(k): v for k, v in stats}
            for name, stats in payload.get("layers", [])
        }
        return _HwStageTask(
            job=_decode_job(payload["job"]),
            stage_hash=str(payload["stage_hash"]),
            layers=_HwStageTask.pack_layers(layers),
        )
    raise ValueError(f"unknown task kind {kind!r}")


def kernel_for(task: Task):
    """The canonical kernel for a decoded task — the only two functions a
    worker will ever run (arbitrary callables don't cross the wire)."""
    if isinstance(task, _HwStageTask):
        return _hw_stage_kernel
    return execute_job


def encode_outcome(outcome: JobOutcome) -> Dict[str, Any]:
    return {
        "metrics": outcome.metrics,
        "error": outcome.error,
        "seconds": outcome.seconds,
        "from_cache": outcome.from_cache,
        "worker": outcome.worker,
        "spans": outcome.spans,
        "counters": outcome.counters,
    }


def decode_outcome(payload: Dict[str, Any], task: Task) -> JobOutcome:
    """A :class:`JobOutcome` over the collector's own task object, so the
    scheduler's bookkeeping (hashes, labels, stage settlement) sees exactly
    the objects it dispatched."""
    return JobOutcome(
        job=task,
        metrics=payload.get("metrics"),
        error=payload.get("error"),
        seconds=float(payload.get("seconds", 0.0)),
        from_cache=bool(payload.get("from_cache", False)),
        worker=str(payload.get("worker", "")),
        spans=payload.get("spans"),
        counters=payload.get("counters"),
    )
