"""The result store, and the absence of a Hessian disk tier.

The contract under test: :class:`ResultCache` keeps one sorted-JSON file per
record at ``<root>/<hh>/<hash>.json`` — same records in, same records out,
atomic under concurrent writers, and a record holding a non-finite number is
never written. Storage has no setting: ``--cache-backend`` is refused
outright. Hessians live only in memory: a sweep writes no ``hessians/``
directory, ignores ``REPRO_HESSIAN_DIR``, and never reads an old one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dist.cli import main as dist_main
from repro.methods import resources
from repro.obs import METRICS
from repro.pipeline import SweepSpec, run_sweep
from repro.pipeline.cache import ResultCache
from repro.pipeline.cli import main as sweep_main

H1 = "a" * 16
H2 = "b" * 16
H3 = "c" * 16


def record(label: str) -> dict:
    return {"label": label, "metrics": {"ppl": 1.0}, "seconds": 0.5}


@pytest.fixture(params=["dir"])
def cache(tmp_path):
    """A fresh result store (``dir``: its one on-disk layout)."""
    return ResultCache(tmp_path)


def tmp_files(root: Path) -> list:
    return list(root.rglob("*.tmp"))


def run_threads(target, args_list, timeout: float = 60.0) -> None:
    """Run ``target(*args)`` per entry on its own thread; every thread must
    finish within ``timeout`` and raise nothing."""
    errors = []

    def guarded(*args):
        try:
            target(*args)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=args, daemon=True) for args in args_list
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


# ------------------------------------------------------------------ records


class TestBackendParity:
    """ResultCache's record semantics over its directory layout."""

    def test_round_trip_and_counters(self, cache):
        assert cache.get(H1) is None and cache.misses == 1
        cache.put(H1, record("cell"))
        got = cache.get(H1)
        assert got["label"] == "cell" and got["hash"] == H1
        assert cache.hits == 1 and cache.puts == 1
        assert H1 in cache

    def test_entries_sorted_and_stats(self, cache):
        for h, label in ((H2, "two"), (H1, "one")):
            cache.put(h, record(label))
        labels = [r["label"] for r in cache.entries()]
        assert labels == ["one", "two"]  # hash-sorted
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert "backend" not in stats

    def test_remove_and_full_clean(self, cache):
        cache.put(H1, record("a"))
        cache.put(H2, record("b"))
        assert cache.remove(H1) is True
        assert cache.remove(H1) is False
        assert cache.clean() == 1
        assert cache.stats()["entries"] == 0

    def test_age_based_clean(self, cache):
        cache.put(H1, dict(record("old"), created_at=time.time() - 3600))
        cache.put(H2, record("fresh"))
        assert cache.clean(older_than=60.0) == 1
        assert [r["label"] for r in cache.entries()] == ["fresh"]

    def test_malformed_hash_rejected(self, cache):
        with pytest.raises(ValueError, match="malformed"):
            cache.put("../../etc/passwd", record("evil"))
        with pytest.raises(ValueError, match="malformed"):
            cache.get("short")

    def test_directory_file_is_sorted_json(self, tmp_path):
        rec = {
            "schema": 1,
            "hash": H1,
            "created_at": 1700000000.25,
            "label": "μB W2 ⇒ microscopiq-v2",
            "metrics": {"ppl": 12.345678901234567, "cycles": 1e21, "tiny": 5e-324},
            "native": [{"phase": "prefill", "stats": {"macs": 3.0, "n": None}}],
            "hw_kwargs": {"prefill": 128, "n_recon": 2, "flags": [True, False]},
            "error": None,
        }
        cache = ResultCache(tmp_path)
        path = cache.put(H1, rec)
        assert path == cache.path_for(H1) == tmp_path / H1[:2] / f"{H1}.json"
        written = path.read_bytes()
        assert written == json.dumps(rec, sort_keys=True).encode("utf-8")
        assert cache.get(H1) == rec

    def test_undecodable_record_is_a_miss(self, cache):
        path = cache.path_for(H1)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe{")  # neither UTF-8 nor JSON
        assert cache.get(H1) is None and cache.misses == 1
        cache.put(H1, record("fixed"))
        assert cache.get(H1)["label"] == "fixed"


class TestNonFiniteRefused:
    """A NaN or infinite number never reaches the store, so it never replays."""

    @pytest.mark.parametrize("metrics", [
        {"ppl": float("nan")},
        {"ppl": 1.0, "hw": {"cycles": [1.0, float("inf")]}},
    ], ids=["nan", "nested-inf"])
    def test_refused_record_leaves_no_file(self, cache, metrics):
        before = METRICS.snapshot()
        assert cache.put(H1, dict(record("bad"), metrics=metrics)) is None
        assert not cache.path_for(H1).exists()
        assert tmp_files(cache.root) == []
        assert cache.get(H1) is None
        assert cache.puts == 0 and cache.stats()["entries"] == 0
        delta = METRICS.delta(before)
        assert delta.get("result_cache.refused") == 1
        assert "result_cache.puts" not in delta

    def test_refusal_keeps_the_previous_record(self, cache):
        cache.put(H1, record("good"))
        assert cache.put(H1, dict(record("bad"), metrics={"ppl": float("-inf")})) is None
        assert cache.get(H1)["label"] == "good"


class TestBackendResolution:
    def test_default_is_directory_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(H1, record("a"))
        assert cache.path_for(H1).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [H1[:2]]

    def test_legacy_database_files_are_ignored(self, tmp_path):
        (tmp_path / "cache.db").write_bytes(b"SQLite format 3\x00")
        cache = ResultCache(tmp_path)
        assert cache.get(H1) is None  # its jobs simply recompute
        cache.put(H1, record("a"))
        assert cache.stats()["entries"] == 1
        assert [r["label"] for r in cache.entries()] == ["a"]

    @pytest.mark.parametrize("command", ["sweep", "show", "clean"])
    def test_cache_backend_flag_is_gone(self, tmp_path, command):
        with pytest.raises(SystemExit) as exit_:
            sweep_main([command, "--cache-dir", str(tmp_path), "--cache-backend", "dir"])
        assert exit_.value.code == 2

    def test_coordinator_cache_backend_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:
            dist_main(["coordinator", "--port", "0", "--cache-dir", str(tmp_path),
                       "--cache-backend", "dir"])
        assert exit_.value.code == 2

    def test_import_does_not_load_sqlite3(self):
        src = Path(repro.__file__).resolve().parents[1]
        code = "import sys, repro, repro.pipeline; print('sqlite3' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == "False"


# --------------------------------------------------------------- concurrency


class TestConcurrentWriters:
    def test_concurrent_writers(self, cache):
        def write(i: int) -> None:
            for j in range(20):
                cache.put(f"{i:02d}{j:02d}" + "0" * 12, record(f"w{i}-{j}"))

        run_threads(write, [(i,) for i in range(8)])
        assert cache.stats()["entries"] == 160
        assert len(list(cache.entries())) == 160
        assert tmp_files(cache.root) == []

    def test_racing_puts_on_one_hash(self, cache):
        # Big enough that a torn write could not parse as any one record.
        payloads = {
            f"w{i}": dict(record(f"w{i}"), blob=[i] * 20000) for i in range(8)
        }
        barrier = threading.Barrier(len(payloads), timeout=30)

        def write(label: str) -> None:
            barrier.wait()
            for _ in range(5):
                cache.put(H3, payloads[label])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers as finely as possible
        try:
            run_threads(write, [(k,) for k in payloads])
        finally:
            sys.setswitchinterval(interval)
        got = cache.get(H3)
        assert got is not None
        expected = payloads[got["label"]]
        assert got["blob"] == expected["blob"]
        assert cache.stats()["entries"] == 1
        assert tmp_files(cache.root) == []


# ------------------------------------------------------------ no Hessian tier

GPTQ_SWEEP = dict(
    families=("opt-6.7b",), methods=("gptq",), w_bits=(4,),
    eval_sequences=8, eval_seq_len=24,
)


def cold_sweep(cache_dir, monkeypatch, **kw):
    """A serial GPTQ sweep on a fresh process-wide Hessian store, so its
    Hessians are built (or loaded) rather than hit in memory."""
    monkeypatch.setattr(resources, "_DEFAULT_STORE", resources.HessianStore())
    return run_sweep(
        SweepSpec(**GPTQ_SWEEP), cache_dir=str(cache_dir), executor="serial", **kw
    )


def metrics_of(result) -> list:
    return [o.metrics for o in result.outcomes]


class TestNoHessianTier:
    """Hessians live in memory only: nothing under the cache, nothing from
    ``REPRO_HESSIAN_DIR``, and an old ``hessians/`` directory is ignored."""

    def test_cold_sweep_writes_no_hessian_directory(self, tmp_path, monkeypatch):
        result = cold_sweep(tmp_path, monkeypatch)
        assert result.telemetry["hessian"]["h_builds"] >= 1
        assert not (tmp_path / "hessians").exists()

    @pytest.mark.parametrize("target", ["path", "sqlite:///x.db"])
    def test_hessian_dir_env_is_read_by_nothing(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        reference = cold_sweep(tmp_path / "ref", monkeypatch)
        env = str(tmp_path / "tier") if target == "path" else target
        monkeypatch.setenv("REPRO_HESSIAN_DIR", env)
        result = cold_sweep(tmp_path / "env", monkeypatch)
        assert metrics_of(result) == metrics_of(reference)
        assert result.telemetry["hessian"] == reference.telemetry["hessian"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["env", "ref"]
        for cache in ("env", "ref"):
            assert not (tmp_path / cache / "hessians").exists()

    def test_old_hessian_directory_is_ignored(self, tmp_path, monkeypatch):
        first = cold_sweep(tmp_path, monkeypatch)
        blob = tmp_path / "hessians" / "ab" / ("ab" * 32 + ".npz")
        blob.parent.mkdir(parents=True, exist_ok=True)
        np.savez(blob, **{"v1:h": np.eye(4)})
        again = cold_sweep(tmp_path, monkeypatch, recompute=True)
        assert metrics_of(again) == metrics_of(first)
        assert again.telemetry["hessian"] == first.telemetry["hessian"]
        assert sweep_main(["show", "--cache-dir", str(tmp_path)]) == 0
        assert sweep_main(["clean", "--cache-dir", str(tmp_path)]) == 0
        assert blob.exists()  # clean leaves the old directory alone
