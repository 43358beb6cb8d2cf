"""Content-addressed result store, and the Hessian tier's blob stores.

Each completed job is one JSON record keyed by the job's content hash
(:attr:`repro.pipeline.spec.Job.job_hash` — spec + ``repro.__version__`` +
sweep seed). Because the address *is* the content identity, re-runs and
partially-overlapping sweeps only compute the jobs whose hash is absent;
bumping ``repro.__version__`` or the sweep seed naturally invalidates
everything.

:class:`ResultCache` keeps one file per record at
``<root>/<hh>/<hash>.json``, ``hh`` being the first two hex digits (a
fan-out shard so huge sweeps don't create million-entry directories). Each
file is written atomically (tempfile + ``os.replace``), so concurrent
writers — a sweep's worker threads, the distributed coordinator's handler
threads — and a crashed or killed worker can never leave a half-written
record that later poisons a sweep. A record holding a non-finite number is
refused, so a NaN or infinite metric recomputes instead of replaying.

The sibling :class:`BlobStore` protocol is the same idea for the Hessian
disk tier's binary blobs (:class:`repro.methods.resources.HessianStore`),
plus a *claim* primitive — a fleet-wide advisory lock with a staleness TTL
that lets concurrent workers coalesce on one O(n·d²) Hessian build / O(d³)
factorization instead of each paying it. :func:`make_blob_store` resolves a
target to a store: a plain path (:class:`DirectoryBlobStore`) or an
``http(s)://`` URL (the distributed coordinator's blob relay, so a fleet
without shared disk still shares one tier).

Unreadable records and blobs are treated as misses and overwritten.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Protocol, Union, runtime_checkable

from ..obs.metrics import METRICS

__all__ = [
    "BlobStore",
    "DirectoryBlobStore",
    "ResultCache",
    "make_blob_store",
]

_SCHEMA = 1


def _check_hash(job_hash: str) -> str:
    if len(job_hash) < 8 or not all(c in "0123456789abcdef" for c in job_hash):
        raise ValueError(f"malformed job hash {job_hash!r}")
    return job_hash


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a sibling tempfile + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --------------------------------------------------------------------------
# result records
# --------------------------------------------------------------------------


class ResultCache:
    """Dictionary-flavored view of the result store, keyed by job hash.

    Lookup traffic is counted per instance (``hits``/``misses``/``puts``)
    and published to the process-wide :data:`repro.obs.metrics.METRICS`
    registry under ``result_cache.*``. Maintenance scans (``entries`` /
    ``clean`` / ``stats``) deliberately don't count — only actual lookups do.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # One instance serves every worker thread of a sweep; the counters
        # are the only mutable state (record writes are atomic on their own).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def hessian_tier_target(self) -> str:
        """The Hessian disk tier beside the records — what the scheduler
        exports as ``REPRO_HESSIAN_DIR`` and ``repro-sweep clean`` purges."""
        return str(self.root / "hessians")

    def path_for(self, job_hash: str) -> Path:
        """The record's file (also the hash validator: malformed hashes
        raise)."""
        _check_hash(job_hash)
        return self.root / job_hash[:2] / f"{job_hash}.json"

    @staticmethod
    def _load(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError):  # missing, unreadable, or not JSON
            return None
        if isinstance(record, dict) and record.get("schema") == _SCHEMA:
            return record
        return None

    # ------------------------------------------------------------------ reads
    def get(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on miss/corruption."""
        record = self._load(self.path_for(job_hash))
        if record is None:
            with self._lock:
                self.misses += 1
            METRICS.incr("result_cache.misses")
        else:
            with self._lock:
                self.hits += 1
            METRICS.incr("result_cache.hits")
        return record

    def __contains__(self, job_hash: str) -> bool:
        return self.get(job_hash) is not None

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All readable records, in stable (hash-sorted) order."""
        for path in sorted(self.root.glob("??/*.json")):
            record = self._load(path)
            if record is not None:
                yield record

    # ----------------------------------------------------------------- writes
    def put(self, job_hash: str, record: Dict[str, Any]) -> Optional[Path]:
        """Atomically persist ``record`` under ``job_hash``; returns its file.

        A record holding a NaN or infinite number is refused: nothing is
        written, ``result_cache.refused`` is counted, ``None`` is returned,
        and the job recomputes on the next sweep."""
        path = self.path_for(job_hash)
        record = dict(record)
        record.setdefault("schema", _SCHEMA)
        record.setdefault("hash", job_hash)
        record.setdefault("created_at", time.time())
        try:
            # One `dumps` call runs the C encoder; `dump` streams through the
            # pure-Python one. The bytes are the same.
            text = json.dumps(record, sort_keys=True, allow_nan=False)
        except ValueError:
            METRICS.incr("result_cache.refused")
            return None
        with self._lock:
            self.puts += 1
        METRICS.incr("result_cache.puts")
        _write_atomic(path, text.encode("utf-8"))
        return path

    # ------------------------------------------------------------ maintenance
    def remove(self, job_hash: str) -> bool:
        try:
            self.path_for(job_hash).unlink()
            return True
        except FileNotFoundError:
            return False

    def clean(self, older_than: Optional[float] = None) -> int:
        """Delete cached results; with ``older_than`` (seconds), only stale
        ones. Returns the number of records removed."""
        removed = 0
        now = time.time()
        for path in list(self.root.glob("??/*.json")):
            if older_than is not None:
                record = self._load(path)
                age = now - float((record or {}).get("created_at", 0.0))
                if record is not None and age < older_than:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count and on-disk footprint."""
        paths = list(self.root.glob("??/*.json"))
        return {
            "root": str(self.root),
            "entries": len(paths),
            "bytes": sum(p.stat().st_size for p in paths),
        }


# --------------------------------------------------------------------------
# Hessian-tier blobs
# --------------------------------------------------------------------------


@runtime_checkable
class BlobStore(Protocol):
    """Binary blobs keyed by content fingerprint, plus build claims.

    ``claim``/``release`` is a fleet-wide advisory lock: the first caller to
    claim a key owns the (expensive) computation behind it, everyone else
    polls until the owner's blob lands or the claim goes stale (``ttl``
    seconds — a crashed owner's claim is broken, never waited on forever).
    """

    def get(self, key: str) -> Optional[bytes]:
        ...

    def put(self, key: str, data: bytes) -> None:
        ...

    def claim(self, key: str, ttl: float = 60.0) -> bool:
        """``True`` if this caller now owns the claim (including by breaking
        a stale one), ``False`` while someone else holds it."""
        ...

    def release(self, key: str) -> None:
        ...

    def clean(self, older_than: Optional[float] = None) -> int:
        ...


class DirectoryBlobStore:
    """Content-addressed binary blobs at ``<root>/<hh>/<key><suffix>``.

    The Hessian tier's layout: ``.npz`` blobs, with pre-factor-tier ``.npy``
    legacy blobs still readable. Claims are ``O_EXCL`` lock files under
    ``<root>/.claims/``; staleness is the lock file's mtime.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        suffix: str = ".npz",
        legacy_suffixes: tuple = (".npy",),
    ):
        self.root = Path(root)
        self.suffix = suffix
        self.legacy_suffixes = tuple(legacy_suffixes)

    def _path(self, key: str, suffix: Optional[str] = None) -> Path:
        return self.root / key[:2] / f"{key}{suffix or self.suffix}"

    def get(self, key: str) -> Optional[bytes]:
        for suffix in (self.suffix, *self.legacy_suffixes):
            try:
                return self._path(key, suffix).read_bytes()
            except OSError:
                continue
        return None

    def put(self, key: str, data: bytes) -> None:
        try:
            _write_atomic(self._path(key), data)
        except OSError:
            pass  # a read-only or full disk never fails the sweep

    # ----------------------------------------------------------------- claims
    def _claim_path(self, key: str) -> Path:
        return self.root / ".claims" / f"{key}.lock"

    def claim(self, key: str, ttl: float = 60.0) -> bool:
        path = self._claim_path(key)
        for attempt in (0, 1):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                os.write(fd, f"pid-{os.getpid()}".encode())
                os.close(fd)
                return True
            except FileExistsError:
                if attempt:
                    return False
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # vanished between open and stat: retry
                if age <= ttl:
                    return False
                # Stale claim — the owner crashed mid-build. Break it and
                # retry the exclusive create (a racing breaker simply loses
                # the second O_EXCL round and keeps waiting).
                try:
                    path.unlink()
                except OSError:
                    pass
                METRICS.incr("cache.backend.claims_broken")
            except OSError:
                return True  # unwritable tier: claims degrade to no-ops
        return False

    def release(self, key: str) -> None:
        try:
            self._claim_path(key).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------ maintenance
    def clean(self, older_than: Optional[float] = None) -> int:
        removed = 0
        # Maintenance-only age policy; never runs inside execute_job.
        now = time.time()
        patterns = [f"??/*{self.suffix}"] + [f"??/*{s}" for s in self.legacy_suffixes]
        for pattern in patterns:
            for blob in list(self.root.glob(pattern)):
                try:
                    if older_than is not None and now - blob.stat().st_mtime < older_than:
                        continue
                    blob.unlink()
                    removed += 1
                except OSError:
                    pass
        for stray in list(self.root.glob(".claims/*.lock")):
            try:
                if older_than is None or now - stray.stat().st_mtime >= older_than:
                    stray.unlink()
            except OSError:
                pass
        for shard in [*self.root.glob("??"), *self.root.glob(".claims")]:
            try:
                shard.rmdir()  # only succeeds when empty
            except OSError:
                pass
        return removed


def make_blob_store(target: Union[str, os.PathLike, BlobStore]) -> BlobStore:
    """A blob store from a target: a :class:`BlobStore` passes through; an
    ``http(s)://`` URL talks to a distributed coordinator's blob relay; any
    other ``scheme://`` target raises ``ValueError``; anything else is a
    directory root."""
    if isinstance(target, BlobStore) and not isinstance(target, (str, os.PathLike)):
        return target
    spec = str(target)
    if spec.startswith(("http://", "https://")):
        from ..dist.client import HttpBlobStore  # local import: dist is optional

        return HttpBlobStore(spec)
    if "://" in spec:
        raise ValueError(
            f"unsupported Hessian-tier target {spec!r}: use a directory path "
            "or an http(s):// coordinator URL"
        )
    return DirectoryBlobStore(spec)
