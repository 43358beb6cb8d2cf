"""The ``repro-dist worker``: pull a task, run the kernel, push the outcome.

Work-stealing from the worker's side is just a pull loop: ask the
coordinator for a task, run it through the same pure kernel a local
executor would use (:func:`execute_job` or the codesign stage kernel), and
push the resulting :class:`JobOutcome` back in wire form. Determinism needs
no help — a decoded job re-derives its RNG seed from its own hash — so the
worker's real responsibilities are the distributed-failure edges:

* **leases** — a daemon thread renews the in-flight task's lease at a third
  of its period; if this process dies, renewal stops, the lease expires,
  and the coordinator re-queues the task for someone else;
* **epochs** — pushes echo the epoch the task was pulled under; a 410 means
  the coordinator restarted, so the result is discarded (the new incarnation
  re-queues whatever it still wants) and the loop just re-pulls;
* **attribution** — every outcome is stamped with this worker's fleet-wide
  identity (``host:pid-N``) and carries the counter delta the task produced
  here, whether or not tracing is on, so the submitter's merged telemetry
  (and ``repro-sweep report``) adds up across hosts.

Hessians are not shared between workers: each worker process keeps its own
in-memory :class:`~repro.methods.resources.HessianStore`.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
from typing import Any, Dict, Optional

from ..obs.metrics import METRICS
from ..obs.trace import current_tracer, enable_tracing, set_tracer
from ..pipeline.executor import _call
from ..pipeline.spec import Job
from ..serve.client import ServeError
from .client import CoordinatorClient
from .wire import decode_task, encode_outcome, kernel_for, task_key

__all__ = ["DistWorker"]


class DistWorker:
    """One pulling/pushing loop around a :class:`CoordinatorClient`."""

    def __init__(
        self,
        client: CoordinatorClient,
        worker_id: str = "",
        poll: float = 0.2,
    ):
        self.client = client
        self.worker_id = worker_id or f"{socket.gethostname()}:pid-{os.getpid()}"
        self.poll = poll
        self.tasks_run = 0

    # ------------------------------------------------------------ execution
    def run_one(self, pulled: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one pulled task; returns the outcome in wire form."""
        task = decode_task(pulled["task"])
        key = str(pulled["key"])
        derived = task_key(task)
        if derived != key:
            # The payload does not hash to the key it was queued under —
            # refuse rather than cache/settle a result at the wrong address.
            raise ValueError(
                f"task payload hashes to {derived!r}, not the queued {key!r}"
            )
        prev_tracer = current_tracer()
        installed = False
        if bool(pulled.get("traced")) and prev_tracer is None:
            enable_tracing()
            installed = True
        before = METRICS.snapshot()
        try:
            outcome = _call(kernel_for(task), task)
        finally:
            if installed:
                set_tracer(prev_tracer)
        # Counters always ride back (even untraced — _call only captures
        # them under a tracer) so the submitter's fleet-merged totals hold.
        outcome = dataclasses.replace(
            outcome, worker=self.worker_id, counters=METRICS.delta(before)
        )
        self.tasks_run += 1
        METRICS.incr("dist.worker.tasks_run")
        record = (
            outcome.record() if isinstance(task, Job) and outcome.ok else None
        )
        return {"outcome": encode_outcome(outcome), "record": record}

    # ----------------------------------------------------------------- loop
    def _renewer(
        self, key: str, lease_id: str, epoch: str, lease_s: float,
        stop: threading.Event,
    ) -> None:
        interval = max(0.05, lease_s / 3.0)
        while not stop.wait(interval):
            try:
                self.client.renew(key, lease_id, epoch)
            except ServeError:
                return  # lease lost / coordinator gone; push will sort it out
            except Exception:
                return

    def run_forever(
        self,
        max_jobs: Optional[int] = None,
        max_idle_s: Optional[float] = None,
        quiet: bool = True,
    ) -> int:
        """Pull until stopped; returns the number of tasks executed.

        ``max_jobs`` / ``max_idle_s`` bound the loop for tests and batch
        fleets (a worker that has drained the queue, or found the
        coordinator unreachable, for ``max_idle_s`` seconds exits instead
        of polling forever).
        """
        executed = 0
        idle_since = time.monotonic()

        def drained() -> bool:
            return max_idle_s is not None and time.monotonic() - idle_since >= max_idle_s

        while max_jobs is None or executed < max_jobs:
            try:
                pulled = self.client.pull(self.worker_id)
            except ServeError as exc:
                if exc.status != 0:
                    raise
                # Coordinator unreachable: wait it out, but no longer than
                # an empty queue would be waited out.
                if drained():
                    break
                time.sleep(max(self.poll, 0.5))
                continue
            if pulled.get("key") is None:
                if drained():
                    break
                time.sleep(self.poll)
                continue
            idle_since = time.monotonic()
            key = str(pulled["key"])
            lease_id = str(pulled.get("lease_id", ""))
            epoch = str(pulled.get("epoch", ""))
            stop = threading.Event()
            renewer = threading.Thread(
                target=self._renewer,
                args=(key, lease_id, epoch, float(pulled.get("lease_s", 30.0)), stop),
                name=f"repro-dist-renew-{key[:12]}",
                daemon=True,
            )
            renewer.start()
            try:
                result = self.run_one(pulled)
            finally:
                stop.set()
            executed += 1
            if not quiet:
                err = result["outcome"].get("error")
                state = f"failed ({err['type']})" if err else "ok"
                print(f"[{self.worker_id}] {key[:16]}… {state}")
            try:
                self.client.push(
                    key, lease_id, epoch,
                    result["outcome"], record=result["record"],
                )
            except ServeError as exc:
                if exc.status == 410:
                    # Coordinator restarted since our pull: this result's
                    # bookkeeping is gone. Drop it and pull from the new
                    # incarnation (which re-queued anything it still wants).
                    if not quiet:
                        print(f"[{self.worker_id}] stale epoch; discarding {key[:16]}…")
                    continue
                if exc.status in (0, 404):
                    continue  # unreachable or forgotten — nothing to settle
                raise
        return executed
