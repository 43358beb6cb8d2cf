"""Content-addressed result store over pluggable storage backends.

Each completed job is one JSON record keyed by the job's content hash
(:attr:`repro.pipeline.spec.Job.job_hash` — spec + ``repro.__version__`` +
sweep seed). Because the address *is* the content identity, re-runs and
partially-overlapping sweeps only compute the jobs whose hash is absent;
bumping ``repro.__version__`` or the sweep seed naturally invalidates
everything.

*Where* the records live is a :class:`CacheBackend`:

* :class:`DirectoryBackend` (the default) keeps the original layout — one
  file at ``<root>/<hh>/<hash>.json`` with ``hh`` the first two hex digits
  (a fan-out shard so huge sweeps don't create million-entry directories),
  written atomically (tempfile + ``os.replace``) so a crashed or killed
  worker can never leave a half-written record that later poisons a sweep.
* :class:`SQLiteBackend` keeps them in one WAL-mode ``cache.db`` — safe
  under concurrent writers (the distributed coordinator's many handler
  threads), with ``entries()``/``clean()`` served by indexed queries
  instead of directory scans, and a ``VACUUM`` after large deletes so a
  purged cache actually returns its disk.

The sibling :class:`BlobStore` protocol is the same idea for the Hessian
disk tier's binary blobs (:class:`repro.methods.resources.HessianStore`),
plus a *claim* primitive — a fleet-wide advisory lock with a staleness TTL
that lets concurrent workers coalesce on one O(n·d²) Hessian build / O(d³)
factorization instead of each paying it. :func:`make_blob_store` resolves a
target string to a backend: a plain path (directory layout), ``sqlite://``
(blob table in WAL-mode SQLite), or ``http(s)://`` (the distributed
coordinator's blob relay, so a fleet without shared disk still shares one
tier).

Unreadable records and blobs are treated as misses and overwritten, on
every backend.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Protocol, Union, runtime_checkable

from ..obs.metrics import METRICS

__all__ = [
    "BACKEND_ENV",
    "BlobStore",
    "CacheBackend",
    "DirectoryBackend",
    "DirectoryBlobStore",
    "ResultCache",
    "SQLiteBackend",
    "SQLiteBlobStore",
    "make_blob_store",
    "make_cache_backend",
]

_SCHEMA = 1

#: Environment variable selecting the record-store backend (``dir``/``sqlite``).
#: The scheduler, the CLI, and the serve daemon all build their
#: :class:`ResultCache` without an explicit backend, so one exported variable
#: switches the whole stack.
BACKEND_ENV = "REPRO_CACHE_BACKEND"

#: Row-delete count past which the SQLite backends VACUUM after a clean.
_VACUUM_THRESHOLD = 64


def _check_hash(job_hash: str) -> str:
    if len(job_hash) < 8 or not all(c in "0123456789abcdef" for c in job_hash):
        raise ValueError(f"malformed job hash {job_hash!r}")
    return job_hash


def _valid_record(record: Any) -> bool:
    return isinstance(record, dict) and record.get("schema") == _SCHEMA


# --------------------------------------------------------------------------
# protocols
# --------------------------------------------------------------------------


@runtime_checkable
class CacheBackend(Protocol):
    """Storage for JSON result records, keyed by content hash.

    Implementations own durability and layout only; identity (hashing),
    schema stamping, and hit/miss accounting stay in :class:`ResultCache`.
    """

    name: str

    def read(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on miss/corruption/schema skew."""
        ...

    def write(self, job_hash: str, record: Dict[str, Any]) -> None:
        """Durably persist ``record`` (atomic per record)."""
        ...

    def remove(self, job_hash: str) -> bool:
        ...

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All readable records, in stable (hash-sorted) order."""
        ...

    def clean(self, older_than: Optional[float] = None) -> int:
        """Delete records (all, or only ones older than ``older_than``
        seconds); returns how many were removed."""
        ...

    def stats(self) -> Dict[str, Any]:
        ...


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


# --------------------------------------------------------------------------
# directory backends (the original layout, behavior-identical)
# --------------------------------------------------------------------------


class DirectoryBackend:
    """One JSON file per record at ``<root>/<hh>/<hash>.json``."""

    name = "dir"

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, job_hash: str) -> Path:
        _check_hash(job_hash)
        return self.root / job_hash[:2] / f"{job_hash}.json"

    def read(self, job_hash: str) -> Optional[Dict[str, Any]]:
        return self._load(self.path_for(job_hash))

    @staticmethod
    def _load(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        return record if _valid_record(record) else None

    def write(self, job_hash: str, record: Dict[str, Any]) -> None:
        path = self.path_for(job_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                # One `dumps` call runs the C encoder; `dump` streams through
                # the pure-Python one. The bytes are the same.
                f.write(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def remove(self, job_hash: str) -> bool:
        try:
            self.path_for(job_hash).unlink()
            return True
        except FileNotFoundError:
            return False

    def entries(self) -> Iterator[Dict[str, Any]]:
        for path in sorted(self.root.glob("??/*.json")):
            record = self._load(path)
            if record is not None:
                yield record

    def clean(self, older_than: Optional[float] = None) -> int:
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
        paths = list(self.root.glob("??/*.json"))
        return {
            "root": str(self.root),
            "backend": self.name,
            "entries": len(paths),
            "bytes": sum(p.stat().st_size for p in paths),
        }


class DirectoryBlobStore:
    """Content-addressed binary blobs at ``<root>/<hh>/<key><suffix>``.

    The Hessian tier's original layout: ``.npz`` blobs, with pre-factor-tier
    ``.npy`` legacy blobs still readable. Claims are ``O_EXCL`` lock files
    under ``<root>/.claims/``; staleness is the lock file's mtime.
    """

    name = "dir"

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
            except (FileNotFoundError, OSError):
                continue
        return None

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        try:
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


# --------------------------------------------------------------------------
# SQLite backends (WAL mode, concurrent writers, indexed maintenance)
# --------------------------------------------------------------------------


class _SQLiteBase:
    """Shared connection plumbing: one WAL-mode connection per thread.

    ``sqlite3`` connections aren't thread-shareable; a thread-local one per
    handler/worker thread plus WAL journaling gives concurrent readers and
    a single uncontended writer at a time (writers queue on the database
    lock with a busy timeout instead of failing).
    """

    _DDL: str = ""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(str(self.path), timeout=30.0)
            conn.isolation_level = None  # autocommit; VACUUM needs it
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(self._DDL)
            self._local.conn = conn
        return conn

    def _maybe_vacuum(self, removed: int) -> None:
        if removed >= _VACUUM_THRESHOLD:
            self._conn().execute("VACUUM")
            METRICS.incr("cache.backend.vacuums")

    def _file_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.stat(f"{self.path}{suffix}").st_size
            except OSError:
                pass
        return total


class SQLiteBackend(_SQLiteBase):
    """Result records in one ``cache.db`` table, indexed by age."""

    name = "sqlite"
    FILENAME = "cache.db"

    _DDL = """
    CREATE TABLE IF NOT EXISTS records (
        hash TEXT PRIMARY KEY,
        created_at REAL NOT NULL,
        record TEXT NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_records_created ON records(created_at);
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        super().__init__(self.root / self.FILENAME)

    def read(self, job_hash: str) -> Optional[Dict[str, Any]]:
        _check_hash(job_hash)
        row = self._conn().execute(
            "SELECT record FROM records WHERE hash = ?", (job_hash,)
        ).fetchone()
        if row is None:
            return None
        try:
            record = json.loads(row[0])
        except json.JSONDecodeError:
            return None
        return record if _valid_record(record) else None

    def write(self, job_hash: str, record: Dict[str, Any]) -> None:
        _check_hash(job_hash)
        self._conn().execute(
            "INSERT OR REPLACE INTO records(hash, created_at, record) VALUES (?, ?, ?)",
            (
                job_hash,
                float(record.get("created_at", 0.0)),
                json.dumps(record, sort_keys=True),
            ),
        )

    def remove(self, job_hash: str) -> bool:
        _check_hash(job_hash)
        cur = self._conn().execute("DELETE FROM records WHERE hash = ?", (job_hash,))
        return bool(cur.rowcount)

    def entries(self) -> Iterator[Dict[str, Any]]:
        for (raw,) in self._conn().execute(
            "SELECT record FROM records ORDER BY hash"
        ):
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if _valid_record(record):
                yield record

    def clean(self, older_than: Optional[float] = None) -> int:
        conn = self._conn()
        if older_than is None:
            cur = conn.execute("DELETE FROM records")
        else:
            # The indexed query `repro-sweep clean` runs — no record parse,
            # no directory scan, just the created_at index.
            cutoff = time.time() - older_than
            cur = conn.execute(
                "DELETE FROM records WHERE created_at <= ?", (cutoff,)
            )
        removed = cur.rowcount
        self._maybe_vacuum(removed)
        return removed

    def stats(self) -> Dict[str, Any]:
        (entries,) = self._conn().execute("SELECT COUNT(*) FROM records").fetchone()
        return {
            "root": str(self.root),
            "backend": self.name,
            "entries": int(entries),
            "bytes": self._file_bytes(),
        }


class SQLiteBlobStore(_SQLiteBase):
    """Hessian-tier blobs + claims in one WAL-mode database file."""

    name = "sqlite"

    _DDL = """
    CREATE TABLE IF NOT EXISTS blobs (
        key TEXT PRIMARY KEY,
        created_at REAL NOT NULL,
        data BLOB NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_blobs_created ON blobs(created_at);
    CREATE TABLE IF NOT EXISTS claims (
        key TEXT PRIMARY KEY,
        created_at REAL NOT NULL
    );
    """

    def get(self, key: str) -> Optional[bytes]:
        row = self._conn().execute(
            "SELECT data FROM blobs WHERE key = ?", (key,)
        ).fetchone()
        return bytes(row[0]) if row is not None else None

    def put(self, key: str, data: bytes) -> None:
        self._conn().execute(
            "INSERT OR REPLACE INTO blobs(key, created_at, data) VALUES (?, ?, ?)",
            (key, time.time(), sqlite3.Binary(data)),
        )

    def claim(self, key: str, ttl: float = 60.0) -> bool:
        conn = self._conn()
        now = time.time()
        cur = conn.execute(
            "INSERT OR IGNORE INTO claims(key, created_at) VALUES (?, ?)",
            (key, now),
        )
        if cur.rowcount:
            return True
        cur = conn.execute(
            "UPDATE claims SET created_at = ? WHERE key = ? AND created_at <= ?",
            (now, key, now - ttl),
        )
        if cur.rowcount:
            METRICS.incr("cache.backend.claims_broken")
            return True
        return False

    def release(self, key: str) -> None:
        self._conn().execute("DELETE FROM claims WHERE key = ?", (key,))

    def clean(self, older_than: Optional[float] = None) -> int:
        conn = self._conn()
        if older_than is None:
            cur = conn.execute("DELETE FROM blobs")
            conn.execute("DELETE FROM claims")
        else:
            cutoff = time.time() - older_than
            cur = conn.execute("DELETE FROM blobs WHERE created_at <= ?", (cutoff,))
            conn.execute("DELETE FROM claims WHERE created_at <= ?", (cutoff,))
        removed = cur.rowcount
        self._maybe_vacuum(removed)
        return removed


# --------------------------------------------------------------------------
# factories
# --------------------------------------------------------------------------


def make_cache_backend(name: str, root: Union[str, os.PathLike]) -> CacheBackend:
    """A record-store backend by name (``dir``/``directory`` or ``sqlite``)."""
    normalized = (name or "dir").strip().lower()
    if normalized in ("dir", "directory", "fs"):
        return DirectoryBackend(root)
    if normalized == "sqlite":
        return SQLiteBackend(root)
    raise ValueError(
        f"unknown cache backend {name!r}; known: dir, sqlite"
    )


def make_blob_store(target: Union[str, os.PathLike, BlobStore]) -> BlobStore:
    """A blob store from a target: a :class:`BlobStore` passes through; a
    ``sqlite://<path>`` URL opens a blob table; an ``http(s)://`` URL talks
    to a distributed coordinator's blob relay; anything else is a directory
    root in the original tier layout."""
    if isinstance(target, BlobStore) and not isinstance(target, (str, os.PathLike)):
        return target
    spec = str(target)
    if spec.startswith("sqlite://"):
        return SQLiteBlobStore(spec[len("sqlite://"):])
    if spec.startswith(("http://", "https://")):
        from ..dist.client import HttpBlobStore  # local import: dist is optional

        return HttpBlobStore(spec)
    return DirectoryBlobStore(spec)


# --------------------------------------------------------------------------
# the cache frontend
# --------------------------------------------------------------------------


class ResultCache:
    """Dictionary-flavored view of the result store, keyed by job hash.

    Identity, schema stamping, and traffic accounting live here; storage is
    the injected :class:`CacheBackend` (default: resolved from the
    ``REPRO_CACHE_BACKEND`` environment variable, falling back to ``sqlite``
    when the root already holds a ``cache.db`` and the original directory
    layout otherwise — an existing cache keeps working either way).

    Lookup traffic is counted per instance (``hits``/``misses``/``puts``)
    and published to the process-wide :data:`repro.obs.metrics.METRICS`
    registry under ``result_cache.*``. Maintenance scans (``entries`` /
    ``clean`` / ``stats``) deliberately don't count — only actual lookups do.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        backend: Union[str, CacheBackend, None] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        if backend is None or (isinstance(backend, str) and backend in ("", "auto")):
            env = os.environ.get(BACKEND_ENV, "").strip()
            backend = env or (
                "sqlite"
                if (self.root / SQLiteBackend.FILENAME).exists()
                else "dir"
            )
        if isinstance(backend, str):
            backend = make_cache_backend(backend, self.root)
        self.backend: CacheBackend = backend
        # One instance serves every worker thread of a sweep; the counters
        # are the only mutable state (backend writes are atomic on their own).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    @property
    def backend_name(self) -> str:
        return getattr(self.backend, "name", type(self.backend).__name__)

    def hessian_tier_target(self) -> str:
        """The disk-tier target string matching this cache's backend — what
        the scheduler exports as ``REPRO_HESSIAN_DIR`` so the Hessian store
        rides the same storage the result records do."""
        if self.backend_name == "sqlite":
            return f"sqlite://{self.root / 'hessians.db'}"
        return str(self.root / "hessians")

    # ------------------------------------------------------------- addressing
    def path_for(self, job_hash: str) -> Path:
        """The record's address in the canonical directory layout (also the
        hash validator — malformed hashes raise regardless of backend)."""
        _check_hash(job_hash)
        return self.root / job_hash[:2] / f"{job_hash}.json"

    # ------------------------------------------------------------------ reads
    def get(self, job_hash: str) -> Optional[Dict[str, Any]]:
        """The stored record, or ``None`` on miss/corruption."""
        record = self.backend.read(job_hash)
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
        return self.backend.entries()

    # ----------------------------------------------------------------- writes
    def put(self, job_hash: str, record: Dict[str, Any]) -> Path:
        """Atomically persist ``record`` under ``job_hash``; returns its
        canonical (directory-layout) address."""
        with self._lock:
            self.puts += 1
        METRICS.incr("result_cache.puts")
        path = self.path_for(job_hash)
        record = dict(record)
        record.setdefault("schema", _SCHEMA)
        record.setdefault("hash", job_hash)
        record.setdefault("created_at", time.time())
        self.backend.write(job_hash, record)
        return path

    # ------------------------------------------------------------ maintenance
    def remove(self, job_hash: str) -> bool:
        return self.backend.remove(job_hash)

    def clean(self, older_than: Optional[float] = None) -> int:
        """Delete cached results; with ``older_than`` (seconds), only stale
        ones. Returns the number of records removed."""
        return self.backend.clean(older_than)

    def stats(self) -> Dict[str, Any]:
        """Entry count and on-disk footprint."""
        return self.backend.stats()
