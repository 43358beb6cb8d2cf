"""Persistent run ledger: one JSONL record per sweep, queryable after the fact.

Every :func:`~repro.pipeline.runner.run_sweep` against a cache directory
appends one record to ``<cache>/runs/runs.jsonl`` — the sweep's spec digest,
executor, per-job outcomes (hash, label, kind, seconds, cache/fail status),
the counter delta the sweep produced, and (when tracing was on) the full
span tree. The sweep used to evaporate the moment its process exited; the
ledger is what ``repro-sweep report`` / ``repro-sweep trace`` read, and the
substrate the planned ``repro-serve`` dashboard and the perf-trajectory lane
query.

Records are append-only, one JSON object per line, written with a single
``os.write`` so concurrent sweeps against one cache interleave at line
granularity; unreadable lines are skipped on read (the result-cache
corruption philosophy). :func:`validate_record` is the schema check CI runs
against freshly emitted ledgers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from .trace import span_seconds, span_self_seconds, walk_spans

__all__ = [
    "LEDGER_SCHEMA",
    "RunLedger",
    "new_run_id",
    "render_run",
    "render_span_tree",
    "validate_record",
]

#: Current schema. 2 added multi-host attribution: a top-level ``hostname``
#: and a per-computed-job ``worker`` (``host:pid-N`` for distributed runs,
#: ``pid-N`` for local pools). Both are additive and optional, so schema-1
#: records written by older versions still validate. So is the later
#: ``blas`` object, ``{"library": "OpenBLAS 0.3.31", "job_threads": 1}``: the
#: BLAS loaded by the process that wrote the record and the pool size its
#: jobs run at (``None``: no setter found, so the caller's pool). A
#: ``remote`` sweep's record describes the submitter, not the fleet.
LEDGER_SCHEMA = 2

_KNOWN_SCHEMAS = (None, 1, LEDGER_SCHEMA)

#: Required top-level fields and their types (the CI-validated contract).
_REQUIRED = {
    "schema": int,
    "run_id": str,
    "started_at": (int, float),
    "wall_s": (int, float),
    "spec_digest": str,
    "executor": str,
    "n_jobs": int,
    "cache_hits": int,
    "failures": int,
    "traced": bool,
    "counters": dict,
    "jobs": list,
}

_JOB_REQUIRED = {
    "hash": str,
    "label": str,
    "kind": str,
    "ok": bool,
    "from_cache": bool,
    "seconds": (int, float),
}


def new_run_id(spec_digest: str, started_at: Optional[float] = None) -> str:
    """A human-sortable run id: UTC timestamp + spec digest + pid.

    The pid disambiguates two sweeps of the same spec landing in the same
    second (parallel CI shards against one cache).
    """
    stamp = time.strftime(
        "%Y%m%dT%H%M%S", time.gmtime(started_at if started_at is not None else time.time())
    )
    return f"{stamp}-{spec_digest[:8]}-{os.getpid()}"


def validate_record(record: Any) -> List[str]:
    """Schema errors of one ledger record (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    for name, kinds in _REQUIRED.items():
        if name not in record:
            errors.append(f"missing field {name!r}")
        elif not isinstance(record[name], kinds) or isinstance(record[name], bool) != (
            kinds is bool
        ):
            errors.append(
                f"field {name!r} is {type(record[name]).__name__}, "
                f"expected {kinds.__name__ if isinstance(kinds, type) else '/'.join(k.__name__ for k in kinds)}"
            )
    if record.get("schema") not in _KNOWN_SCHEMAS:
        errors.append(f"unknown schema version {record.get('schema')!r}")
    if "hostname" in record and not isinstance(record["hostname"], str):
        errors.append(
            f"field 'hostname' is {type(record['hostname']).__name__}, expected str"
        )
    blas = record.get("blas", {})
    if not isinstance(blas, dict) or not all(
        isinstance(blas.get(key), (kind, type(None))) and not isinstance(blas.get(key), bool)
        for key, kind in (("library", str), ("job_threads", int))
    ):
        errors.append(
            f"field 'blas' is {blas!r}, expected {{library: str|null, job_threads: int|null}}"
        )
    for i, job in enumerate(record.get("jobs") or []):
        if not isinstance(job, dict):
            errors.append(f"jobs[{i}] is {type(job).__name__}, expected object")
            continue
        for name, kinds in _JOB_REQUIRED.items():
            if name not in job:
                errors.append(f"jobs[{i}] missing field {name!r}")
            elif not isinstance(job[name], kinds):
                errors.append(f"jobs[{i}].{name} has wrong type {type(job[name]).__name__}")
        if "worker" in job and not isinstance(job["worker"], str):
            errors.append(
                f"jobs[{i}].worker has wrong type {type(job['worker']).__name__}"
            )
    spans = record.get("spans")
    if record.get("traced") and spans is not None:
        if not isinstance(spans, dict) or "name" not in spans or "seconds" not in spans:
            errors.append("spans is not a span tree (needs name + seconds)")
    return errors


class RunLedger:
    """Append/query interface over one cache's ``runs/runs.jsonl``."""

    FILENAME = "runs.jsonl"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    # ------------------------------------------------------------------ write
    def append(self, record: Dict[str, Any]) -> str:
        """Persist one run record; fills ``schema``/``run_id`` if absent and
        returns the run id. One ``os.write`` per record keeps concurrent
        appenders line-atomic in practice."""
        record = dict(record)
        record.setdefault("schema", LEDGER_SCHEMA)
        if "run_id" not in record:
            record["run_id"] = new_run_id(
                record.get("spec_digest", "nospec"), record.get("started_at")
            )
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return record["run_id"]

    # ------------------------------------------------------------------- read
    def records(self) -> Iterator[Dict[str, Any]]:
        """Every readable record, oldest first; corrupt lines are skipped."""
        try:
            f = open(self.path, encoding="utf-8")
        except (FileNotFoundError, OSError):
            return
        with f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record

    def runs(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most-recent-first run records (``limit`` caps the list)."""
        out = list(self.records())
        out.reverse()
        return out if limit is None else out[:limit]

    def history(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The machine-readable history envelope — the one shape both
        ``repro-sweep report --json`` and the serve daemon's ``/api/runs``
        endpoint return, so tooling parses them interchangeably."""
        runs = self.runs(limit=limit)
        return {
            "path": str(self.path),
            "schema": LEDGER_SCHEMA,
            "total": len(self),
            "returned": len(runs),
            "runs": runs,
        }

    # ------------------------------------------------------------ maintenance
    def compact(
        self, older_than: Optional[float] = None, now: Optional[float] = None
    ) -> int:
        """Rewrite the JSONL keeping only schema-valid records younger than
        ``older_than`` seconds; returns how many lines were dropped.

        ``older_than=None`` drops everything (matching
        :meth:`~repro.pipeline.cache.ResultCache.clean` semantics — the
        no-age ``repro-sweep clean`` is a full purge). Corrupt and
        schema-invalid lines are always dropped: compaction is the one
        moment the append-only file gets to heal. The rewrite is atomic
        (tempfile + ``os.replace``), so concurrent readers see either the
        old or the new file, never a torn one.
        """
        if now is None:
            now = time.time()
        try:
            with open(self.path, encoding="utf-8") as f:
                lines = [line for line in f.read().split("\n") if line.strip()]
        except (FileNotFoundError, OSError):
            return 0
        kept: List[str] = []
        removed = 0
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                removed += 1
                continue
            if validate_record(record):
                removed += 1
                continue
            if older_than is None:
                removed += 1
                continue
            age = now - float(record.get("started_at", 0.0))
            if age >= older_than:
                removed += 1
                continue
            kept.append(line)
        if not removed:
            return 0
        if not kept:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass
            return removed
        tmp = self.path.with_suffix(".jsonl.tmp")
        tmp.write_text("\n".join(kept) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)
        return removed

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """One record by id — exact, unique prefix, or ``"last"``."""
        records = self.runs()
        if not records:
            return None
        if run_id in ("last", "latest", ""):
            return records[0]
        exact = [r for r in records if r.get("run_id") == run_id]
        if exact:
            return exact[0]
        prefixed = [r for r in records if str(r.get("run_id", "")).startswith(run_id)]
        return prefixed[0] if len(prefixed) == 1 else None

    def __len__(self) -> int:
        return sum(1 for _ in self.records())


# ----------------------------------------------------------------- rendering


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:10.2f}"


def render_span_tree(tree: Optional[Dict[str, Any]], max_depth: int = 12) -> List[str]:
    """A span tree as aligned text lines: total / self milliseconds + names.

    ``self`` is the node's own time (total minus children) — the column to
    scan for where the time actually went, since totals double-count their
    descendants.
    """
    if not tree:
        return ["(no spans recorded — run the sweep with --trace / REPRO_TRACE=1)"]
    lines = [f"{'total ms':>10}  {'self ms':>10}  span"]
    for node, depth in walk_spans(tree):
        if depth > max_depth:
            continue
        attrs = node.get("attrs") or {}
        shown = {k: v for k, v in attrs.items() if k not in ("hash",)}
        suffix = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(shown.items())) + "]"
            if shown
            else ""
        )
        lines.append(
            f"{_fmt_ms(span_seconds(node))}  {_fmt_ms(span_self_seconds(node))}  "
            f"{'  ' * depth}{node.get('name', '?')}{suffix}"
        )
    return lines


def _age(epoch: float) -> str:
    delta = max(0.0, time.time() - epoch)
    if delta < 90:
        return f"{delta:.0f}s ago"
    if delta < 5400:
        return f"{delta / 60:.0f}m ago"
    if delta < 129600:
        return f"{delta / 3600:.1f}h ago"
    return f"{delta / 86400:.1f}d ago"


def render_run(record: Dict[str, Any], slowest: int = 8) -> List[str]:
    """One run record as the ``repro-sweep report`` detail block."""
    lines = [
        f"run {record.get('run_id', '?')}  ({_age(float(record.get('started_at', 0)))}, "
        f"executor={record.get('executor', '?')}, traced={record.get('traced', False)})",
        f"  jobs: {record.get('n_jobs', 0)} total · {record.get('cache_hits', 0)} cached · "
        f"{record.get('failures', 0)} failed · wall {record.get('wall_s', 0.0):.2f}s · "
        f"compute {record.get('compute_s', 0.0):.2f}s",
    ]
    blas = record.get("blas")
    if isinstance(blas, dict):
        threads = blas.get("job_threads")
        lines.append(
            f"  blas: {blas.get('library') or 'unknown'} · "
            + (f"job threads {threads}" if threads else "jobs at the caller's pool")
        )
    reuse = []
    for key, label in (
        ("quant_stage_hits", "quant-stage"),
        ("hw_stage_hits", "hw-stage"),
    ):
        if record.get(key):
            reuse.append(f"{record[key]} {label}")
    if reuse:
        lines.append(f"  stage reuse: {', '.join(reuse)}")
    counters = record.get("counters") or {}
    for prefix, title in (
        ("hessian.store.", "hessian"),
        ("result_cache.", "result-cache"),
        ("engine.", "engine"),
        # How many quantize_matrix calls the MicroScopiQ kernel served.
        ("quant.kernel.", "kernel"),
        # Fleet activity (remote executor) and blob-tier claim traffic.
        ("dist.", "dist"),
        ("cache.backend.", "cache-backend"),
    ):
        row = {
            k[len(prefix):]: v for k, v in sorted(counters.items()) if k.startswith(prefix)
        }
        if row:
            lines.append(
                f"  {title}: " + ", ".join(f"{k}={int(v)}" for k, v in row.items())
            )
    spans = record.get("spans")
    if isinstance(spans, dict):
        # Wall self-time actually spent inside quantize_matrix (complements
        # the call counter above with where the time went).
        kernels = [
            span_self_seconds(node)
            for node, _depth in walk_spans(spans)
            if node.get("name") == "kernel:quantize_matrix"
        ]
        if kernels:
            lines.append(
                f"  kernel self-time: {sum(kernels):.3f}s/{len(kernels)} calls"
            )
    jobs = [j for j in record.get("jobs", []) if not j.get("from_cache")]
    by_worker: Dict[str, int] = {}
    for job in jobs:
        worker = str(job.get("worker", ""))
        if worker:
            by_worker[worker] = by_worker.get(worker, 0) + 1
    # Only worth a line when the work actually spread across identities
    # (multi-host fleet or a local pool's several processes).
    if len(by_worker) > 1 or any(":" in w for w in by_worker):
        host = record.get("hostname", "")
        prefix = f"  workers (submitted from {host}): " if host else "  workers: "
        lines.append(
            prefix
            + ", ".join(
                f"{w}={n}" for w, n in sorted(by_worker.items(), key=lambda kv: -kv[1])
            )
        )
    jobs.sort(key=lambda j: -float(j.get("seconds", 0.0)))
    if jobs:
        lines.append(f"  slowest computed jobs (of {len(jobs)}):")
        for job in jobs[:slowest]:
            mark = "" if job.get("ok", True) else "  FAILED"
            lines.append(
                f"    {float(job.get('seconds', 0.0)):8.3f}s  "
                f"{job.get('kind', '?'):9s} {job.get('label', '?')}{mark}"
            )
    failures = [j for j in record.get("jobs", []) if not j.get("ok", True)]
    for job in failures:
        lines.append(
            f"  FAILED {job.get('label', '?')}: {job.get('error_type', 'Error')}"
        )
    return lines
