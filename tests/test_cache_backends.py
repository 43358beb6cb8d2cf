"""The result store and the Hessian tier's blob stores.

The contract under test: :class:`ResultCache` keeps one sorted-JSON file per
record at ``<root>/<hh>/<hash>.json`` — same records in, same records out,
atomic under concurrent writers, and a record holding a non-finite number is
never written. The blob-store side carries the fleet-coordination load:
``claim``/``release`` must hand one Hessian build to exactly one of N
concurrent stores, with stale claims (a crashed owner) broken after the TTL
rather than waited on forever. Storage has no setting: ``--cache-backend``
and ``sqlite://`` tier targets are refused outright.
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
from repro.dist import start_in_thread
from repro.dist.cli import main as dist_main
from repro.dist.client import HttpBlobStore
from repro.methods.resources import HESSIAN_DIR_ENV, HessianStore, default_hessian_store
from repro.obs import METRICS
from repro.pipeline.cache import (
    BlobStore,
    DirectoryBlobStore,
    ResultCache,
    make_blob_store,
)
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

    def test_protocol_conformance(self, tmp_path):
        assert isinstance(DirectoryBlobStore(tmp_path / "b"), BlobStore)
        assert isinstance(HttpBlobStore("http://127.0.0.1:1"), BlobStore)


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

    def test_unknown_backend_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for target in ("sqlite:///x.db", "sqlite://hessians.db", "s3://bucket/tier"):
            with pytest.raises(ValueError, match="unsupported Hessian-tier target"):
                make_blob_store(target)
        # A stale tier export fails loudly instead of creating ./sqlite:/
        monkeypatch.setenv(HESSIAN_DIR_ENV, "sqlite:///x.db")
        with pytest.raises(ValueError, match="unsupported"):
            default_hessian_store()
        monkeypatch.delenv(HESSIAN_DIR_ENV)
        default_hessian_store()
        assert list(tmp_path.iterdir()) == []

    def test_hessian_tier_target_matches_backend(self, tmp_path):
        assert ResultCache(tmp_path).hessian_tier_target() == str(tmp_path / "hessians")

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


# --------------------------------------------------------------- blob stores


@pytest.fixture
def relay(tmp_path):
    """A coordinator's blob relay over a directory tier."""
    server, _ = start_in_thread(port=0, cache_dir=str(tmp_path / "coord"))
    yield server.url
    server.shutdown()


@pytest.fixture(params=["dir", "http"])
def blobs(request, tmp_path):
    if request.param == "dir":
        return DirectoryBlobStore(tmp_path / "blobs")
    return HttpBlobStore(request.getfixturevalue("relay"))


class TestBlobStores:
    def test_get_put_round_trip(self, blobs):
        assert blobs.get("ab" * 8) is None
        blobs.put("ab" * 8, b"\x01\x02")
        assert blobs.get("ab" * 8) == b"\x01\x02"

    def test_claim_is_exclusive_until_released(self, blobs):
        assert blobs.claim("abcd:h") is True
        assert blobs.claim("abcd:h") is False
        blobs.release("abcd:h")
        assert blobs.claim("abcd:h") is True

    def test_stale_claim_is_broken(self, blobs):
        assert blobs.claim("abcd:h", ttl=0.05) is True
        time.sleep(0.1)
        before = METRICS.snapshot()
        assert blobs.claim("abcd:h", ttl=0.05) is True  # broken, re-owned
        assert METRICS.delta(before).get("cache.backend.claims_broken") == 1

    def test_clean_removes_blobs(self, blobs):
        blobs.put("ab" * 8, b"x")
        blobs.put("cd" * 8, b"y")
        assert blobs.clean() == 2
        assert blobs.get("ab" * 8) is None

    def test_age_based_clean_keeps_fresh(self, blobs):
        blobs.put("ab" * 8, b"x")
        assert blobs.clean(older_than=3600.0) == 0
        assert blobs.get("ab" * 8) == b"x"


class TestMakeBlobStore:
    def test_target_routing(self, tmp_path):
        assert isinstance(make_blob_store(tmp_path / "t"), DirectoryBlobStore)
        assert isinstance(make_blob_store(str(tmp_path / "t")), DirectoryBlobStore)
        assert isinstance(make_blob_store("http://127.0.0.1:1"), HttpBlobStore)

    def test_store_instance_passes_through(self, tmp_path):
        store = DirectoryBlobStore(tmp_path / "t")
        assert make_blob_store(store) is store


# -------------------------------------------------- fleet-wide coalescing


class TestClaimCoalescing:
    """Independent HessianStores over one shared tier: one build total."""

    @pytest.mark.parametrize("tier_kind", ["dir", "http"])
    def test_concurrent_stores_build_once(self, request, tmp_path, tier_kind):
        target = (
            str(tmp_path / "tier")
            if tier_kind == "dir"
            else request.getfixturevalue("relay")
        )
        acts = np.random.default_rng(0).normal(0, 1, (96, 24))
        stores = [HessianStore(disk_root=target) for _ in range(3)]
        before = METRICS.snapshot()
        results: list = [None] * len(stores)
        barrier = threading.Barrier(len(stores), timeout=30)

        def build(i: int) -> None:
            barrier.wait()
            results[i] = stores[i].bundle(acts, 0.01).h

        run_threads(build, [(i,) for i in range(len(stores))])
        delta = METRICS.delta(before)
        # Claims made the race converge on exactly one O(n·d²) build,
        # fleet-wide; the waiters adopted the published blob.
        assert delta.get("hessian.store.h_builds") == 1
        assert all(np.array_equal(r, results[0]) for r in results[1:])
