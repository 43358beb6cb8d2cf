"""Multi-host work-stealing execution.

A coordinator owns the fleet-wide job queue and the cross-host in-flight
claim book (leases); workers pull tasks, run the same pure kernels local
executors use, and push outcomes back. ``--executor remote`` on any sweep
entry point dispatches through it, bit-identical to a serial run. Each
worker builds the Hessians its own tasks need, in its own memory.

Submodules import lazily where it matters (``repro.pipeline`` must not pay
for HTTP plumbing); the public names here are convenience re-exports.
"""

from .client import CoordinatorClient
from .coordinator import Coordinator, CoordinatorServer, start_in_thread
from .remote import DIST_URL_ENV, run_remote
from .wire import decode_outcome, decode_task, encode_outcome, encode_task, task_key
from .worker import DistWorker

__all__ = [
    "Coordinator",
    "CoordinatorClient",
    "CoordinatorServer",
    "DIST_URL_ENV",
    "DistWorker",
    "decode_outcome",
    "decode_task",
    "encode_outcome",
    "encode_task",
    "run_remote",
    "start_in_thread",
    "task_key",
]
