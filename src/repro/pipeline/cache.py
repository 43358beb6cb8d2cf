"""Content-addressed result store.

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

Unreadable records are treated as misses and overwritten. Nothing else
under the root is read: a ``hessians/`` directory left by an older version
is ignored.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..obs.metrics import METRICS

__all__ = ["ResultCache"]

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
