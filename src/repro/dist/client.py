"""Client for the ``repro-dist`` coordinator.

:class:`CoordinatorClient` is the task-queue face (submit / pull / renew /
push / collect), a thin subclass of :class:`~repro.serve.client.ServeClient`
so auth, timeouts, error decoding, and connection retries all behave exactly
like the sweep service's client.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..serve.client import ServeClient

__all__ = ["CoordinatorClient"]

DEFAULT_COORDINATOR = "http://127.0.0.1:8643"


class CoordinatorClient(ServeClient):
    """Method-per-endpoint client for the coordinator's task API."""

    def __init__(
        self,
        base_url: str = DEFAULT_COORDINATOR,
        timeout: float = 60.0,
        token: Optional[str] = None,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        super().__init__(
            base_url, timeout=timeout, token=token, retries=retries, backoff=backoff
        )

    def submit_tasks(self, tasks: List[Dict[str, Any]]) -> Dict[str, Any]:
        """``tasks`` are ``{"key", "task", "traced"}`` wire entries."""
        return self._request("POST", "/api/tasks", {"tasks": tasks})

    def pull(self, worker: str) -> Dict[str, Any]:
        return self._request("POST", "/api/tasks/pull", {"worker": worker})

    def renew(self, key: str, lease_id: str, epoch: str) -> Dict[str, Any]:
        return self._request(
            "POST", "/api/tasks/renew",
            {"key": key, "lease_id": lease_id, "epoch": epoch},
        )

    def push(
        self,
        key: str,
        lease_id: str,
        epoch: str,
        outcome: Dict[str, Any],
        record: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": key, "lease_id": lease_id, "epoch": epoch, "outcome": outcome,
        }
        if record is not None:
            payload["record"] = record
        return self._request("POST", "/api/tasks/push", payload)

    def collect(self, keys: List[str]) -> Dict[str, Any]:
        return self._request("POST", "/api/tasks/collect", {"keys": keys})
