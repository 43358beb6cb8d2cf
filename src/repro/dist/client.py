"""Clients for the ``repro-dist`` coordinator.

:class:`CoordinatorClient` is the task-queue face (submit / pull / renew /
push / collect), a thin subclass of :class:`~repro.serve.client.ServeClient`
so auth, timeouts, error decoding, and connection retries all behave exactly
like the sweep service's client.

:class:`HttpBlobStore` is the Hessian-tier face: it satisfies the
:class:`~repro.pipeline.cache.BlobStore` protocol over the coordinator's
``/api/blobs`` relay, so ``REPRO_HESSIAN_DIR=http://coordinator:8643``
gives workers without shared disk the same fleet-wide build coalescing a
shared directory tier provides. Like the directory store it
degrades gracefully: an unreachable relay reads as a miss and a claim you
can't register is treated as owned (build locally rather than stall).
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional
from urllib.parse import quote

from ..serve.client import ServeClient, ServeError

__all__ = ["CoordinatorClient", "HttpBlobStore"]

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


class HttpBlobStore:
    """:class:`BlobStore` over a coordinator's ``/api/blobs`` relay."""

    def __init__(self, base_url: str, timeout: float = 30.0, token: Optional[str] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = (
            token if token is not None else os.environ.get("REPRO_SERVE_TOKEN")
        ) or None

    def _headers(self, content_type: Optional[str] = None) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if content_type is not None:
            headers["Content-Type"] = content_type
        return headers

    def _blob_url(self, key: str, action: str = "") -> str:
        url = f"{self.base_url}/api/blobs/{quote(key, safe='')}"
        return f"{url}/{action}" if action else url

    def _post_json(self, url: str, payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        req = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers=self._headers("application/json"),
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
            return json.loads(body.decode()) if body else {}
        except (urllib.error.URLError, OSError, ValueError):
            return None

    # ----------------------------------------------------------- protocol
    def get(self, key: str) -> Optional[bytes]:
        req = urllib.request.Request(
            self._blob_url(key), headers=self._headers(), method="GET"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read()
        except (urllib.error.URLError, OSError):
            return None  # 404 and unreachable both read as a miss

    def put(self, key: str, data: bytes) -> None:
        req = urllib.request.Request(
            self._blob_url(key),
            data=bytes(data),
            headers=self._headers("application/octet-stream"),
            method="PUT",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                resp.read()
        except (urllib.error.URLError, OSError):
            pass  # publishing is best-effort; the tier is an accelerator

    def claim(self, key: str, ttl: float = 60.0) -> bool:
        reply = self._post_json(self._blob_url(key, "claim"), {"ttl": ttl})
        if reply is None:
            return True  # unreachable relay: build locally, never stall
        return bool(reply.get("owner", True))

    def release(self, key: str) -> None:
        self._post_json(self._blob_url(key, "release"), {})

    def clean(self, older_than: Optional[float] = None) -> int:
        reply = self._post_json(
            f"{self.base_url}/api/blobs/clean", {"older_than": older_than}
        )
        if reply is None:
            raise ServeError(0, f"cannot reach blob relay at {self.base_url}")
        return int(reply.get("removed", 0))
