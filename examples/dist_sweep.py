"""Distributed sweep walkthrough: coordinator, worker fleet, remote executor.

``repro-dist`` runs sweeps on a work-stealing fleet: a coordinator owns the
job queue and a fleet-wide in-flight book with expiring leases; workers
pull tasks, run the same pure kernels a local executor would (each builds
the Hessians its own tasks need), and push :class:`JobOutcome`\\ s back. The
submitter is just ``run_sweep(..., executor="remote")`` — results are
bit-identical to serial because every job re-derives its RNG seed from its
own content hash, no matter which host runs it.

This example hosts everything in one process (an in-thread coordinator and
one in-thread worker) so it runs anywhere. A real fleet is the same three
pieces as shells::

    host-a$ repro-dist coordinator --cache-dir .repro-cache
    host-a$ repro-dist worker --coordinator http://127.0.0.1:8643
    host-b$ REPRO_SERVE_TOKEN=... repro-dist worker --coordinator http://host-a:8643
    laptop$ repro-sweep sweep ... --executor remote --coordinator http://host-a:8643

Run:  python examples/dist_sweep.py
"""

import os
import tempfile
import threading

from repro.dist import CoordinatorClient, DistWorker, start_in_thread
from repro.dist.remote import DIST_URL_ENV
from repro.pipeline import SweepSpec, run_sweep

sweep = SweepSpec(
    families=("opt-6.7b",),
    methods=("rtn", "gptq"),
    w_bits=(4,),
    eval_sequences=8,
    eval_seq_len=24,
)

with tempfile.TemporaryDirectory() as tmp:
    # 1. The coordinator: queue + leases, on a free port.
    server, _ = start_in_thread(
        port=0, cache_dir=os.path.join(tmp, "coordinator"), lease_s=30.0
    )
    print(f"coordinator up at {server.url} (epoch {server.core.epoch})")

    # 2. One worker pulling from it. Real fleets run `repro-dist worker`
    #    on each host; --max-idle-s makes this one exit once drained.
    worker = DistWorker(CoordinatorClient(server.url), poll=0.05)
    fleet = threading.Thread(
        target=lambda: worker.run_forever(max_idle_s=60.0), daemon=True
    )
    fleet.start()

    try:
        # 3. Submit through the remote executor, then rerun serially and
        #    compare — the distributed run must be bit-identical.
        os.environ[DIST_URL_ENV] = server.url
        remote = run_sweep(
            sweep, cache_dir=os.path.join(tmp, "submitter"), executor="remote"
        )
        serial = run_sweep(
            sweep, cache_dir=os.path.join(tmp, "serial"), executor="serial"
        )
    finally:
        os.environ.pop(DIST_URL_ENV, None)
        server.shutdown()

    for r_out, s_out in zip(remote.outcomes, serial.outcomes):
        match = "==" if r_out.metrics == s_out.metrics else "!="
        print(f"  {r_out.job.label}: remote {match} serial "
              f"(ran on {r_out.worker})")
    assert [o.metrics for o in remote.outcomes] == \
        [o.metrics for o in serial.outcomes], "distributed run diverged"

    stats = server.core.stats()
    print(f"fleet stats: {stats['tasks']}")
    print(f"worker {worker.worker_id} executed {worker.tasks_run} task(s)")
    print("distributed results bit-identical to serial")
