"""``repro-dist``: the coordinator/worker pair as console subcommands.

A two-host fleet is three shells::

    host-a$ repro-dist coordinator --cache-dir .repro-cache
    host-a$ repro-dist worker --coordinator http://127.0.0.1:8643
    host-b$ REPRO_SERVE_TOKEN=… repro-dist worker --coordinator http://host-a:8643

after which any submitter runs ``repro-sweep run … --executor remote
--coordinator http://host-a:8643`` (or sets ``REPRO_DIST_URL``).
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional

from .. import __version__
from . import coordinator as coordinator_mod
from .client import DEFAULT_COORDINATOR, CoordinatorClient
from .remote import DIST_URL_ENV
from .worker import DistWorker

__all__ = ["main"]


def _worker_main(args: argparse.Namespace) -> int:
    url = args.coordinator or os.environ.get(DIST_URL_ENV) or DEFAULT_COORDINATOR
    client = CoordinatorClient(url, timeout=args.timeout)
    worker = DistWorker(client, worker_id=args.worker_id, poll=args.poll)
    print(f"repro-dist worker {worker.worker_id} pulling from {url}")
    try:
        executed = worker.run_forever(
            max_jobs=args.max_jobs, max_idle_s=args.max_idle_s, quiet=args.quiet
        )
    except KeyboardInterrupt:
        executed = worker.tasks_run
    print(f"repro-dist worker {worker.worker_id}: {executed} task(s) executed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dist",
        description="Multi-host work-stealing execution for repro sweeps.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "coordinator",
        add_help=False,  # the coordinator owns its own argparse + help
        help="run the fleet coordinator (queue + claims)",
    )

    worker = sub.add_parser("worker", help="run one pull/execute/push worker")
    worker.add_argument(
        "--coordinator", default="",
        help=f"coordinator URL (default: ${DIST_URL_ENV} or {DEFAULT_COORDINATOR})",
    )
    worker.add_argument(
        "--worker-id", default="",
        help="fleet-wide identity (default: <hostname>:pid-<pid>)",
    )
    worker.add_argument("--poll", type=float, default=0.2,
                        help="seconds between pulls when the queue is empty")
    worker.add_argument("--timeout", type=float, default=60.0,
                        help="per-request HTTP timeout")
    worker.add_argument("--max-jobs", type=int, default=None,
                        help="exit after this many tasks (default: run forever)")
    worker.add_argument("--max-idle-s", type=float, default=None,
                        help="exit after this long with an empty queue or an "
                             "unreachable coordinator")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress per-task lines")

    args, rest = parser.parse_known_args(argv)
    if args.command == "coordinator":
        return coordinator_mod.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return _worker_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
