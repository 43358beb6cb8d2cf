"""Pluggable cache storage: the backend protocols and their implementations.

The contract under test: :class:`ResultCache` behaves identically over the
directory layout (the original, default backend) and the SQLite store —
same records in, same records out, same clean/entries/stats semantics — so
switching ``REPRO_CACHE_BACKEND`` is a pure storage decision. The blob-store
side carries the fleet-coordination load: ``claim``/``release`` must hand
one Hessian build to exactly one of N concurrent stores, on every backend,
with stale claims (a crashed owner) broken after the TTL rather than waited
on forever.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.methods.resources import HessianStore
from repro.obs import METRICS
from repro.pipeline.cache import (
    BlobStore,
    CacheBackend,
    DirectoryBackend,
    DirectoryBlobStore,
    ResultCache,
    SQLiteBackend,
    SQLiteBlobStore,
    make_blob_store,
    make_cache_backend,
)

H1 = "a" * 16
H2 = "b" * 16
H3 = "c" * 16


def record(label: str) -> dict:
    return {"label": label, "metrics": {"ppl": 1.0}, "seconds": 0.5}


@pytest.fixture(params=["dir", "sqlite"])
def backend_name(request):
    return request.param


# ------------------------------------------------------------------ parity


class TestBackendParity:
    """Same ResultCache behavior over either backend."""

    def test_round_trip_and_counters(self, tmp_path, backend_name):
        cache = ResultCache(tmp_path, backend=backend_name)
        assert cache.backend_name == backend_name
        assert cache.get(H1) is None and cache.misses == 1
        cache.put(H1, record("cell"))
        got = cache.get(H1)
        assert got["label"] == "cell" and got["hash"] == H1
        assert cache.hits == 1 and cache.puts == 1
        assert H1 in cache

    def test_entries_sorted_and_stats(self, tmp_path, backend_name):
        cache = ResultCache(tmp_path, backend=backend_name)
        for h, label in ((H2, "two"), (H1, "one")):
            cache.put(h, record(label))
        labels = [r["label"] for r in cache.entries()]
        assert labels == ["one", "two"]  # hash-sorted on both backends
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert stats["backend"] == backend_name

    def test_remove_and_full_clean(self, tmp_path, backend_name):
        cache = ResultCache(tmp_path, backend=backend_name)
        cache.put(H1, record("a"))
        cache.put(H2, record("b"))
        assert cache.remove(H1) is True
        assert cache.remove(H1) is False
        assert cache.clean() == 1
        assert cache.stats()["entries"] == 0

    def test_age_based_clean(self, tmp_path, backend_name):
        cache = ResultCache(tmp_path, backend=backend_name)
        cache.put(H1, dict(record("old"), created_at=time.time() - 3600))
        cache.put(H2, record("fresh"))
        assert cache.clean(older_than=60.0) == 1
        assert [r["label"] for r in cache.entries()] == ["fresh"]

    def test_malformed_hash_rejected(self, tmp_path, backend_name):
        cache = ResultCache(tmp_path, backend=backend_name)
        with pytest.raises(ValueError, match="malformed"):
            cache.put("../../etc/passwd", record("evil"))
        with pytest.raises(ValueError, match="malformed"):
            cache.get("short")

    def test_directory_file_is_sorted_json(self, tmp_path):
        rec = {
            "schema": 1,
            "label": "μB W2 ⇒ microscopiq-v2",
            "metrics": {"ppl": 12.345678901234567, "cycles": 1e21, "tiny": 5e-324},
            "native": [{"phase": "prefill", "stats": {"macs": 3.0, "n": None}}],
            "hw_kwargs": {"prefill": 128, "n_recon": 2, "flags": [True, False]},
            "error": None,
        }
        backend = DirectoryBackend(tmp_path)
        backend.write(H1, rec)
        written = backend.path_for(H1).read_bytes()
        assert written == json.dumps(rec, sort_keys=True).encode("utf-8")
        assert backend.read(H1) == rec

    def test_protocol_conformance(self, tmp_path):
        assert isinstance(DirectoryBackend(tmp_path / "d"), CacheBackend)
        assert isinstance(SQLiteBackend(tmp_path / "s"), CacheBackend)
        assert isinstance(DirectoryBlobStore(tmp_path / "b"), BlobStore)
        assert isinstance(SQLiteBlobStore(tmp_path / "b.db"), BlobStore)


class TestBackendResolution:
    def test_env_selects_backend(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "sqlite")
        assert ResultCache(tmp_path).backend_name == "sqlite"

    def test_existing_db_autodetected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        ResultCache(tmp_path, backend="sqlite").put(H1, record("a"))
        reopened = ResultCache(tmp_path)  # no explicit backend
        assert reopened.backend_name == "sqlite"
        assert reopened.get(H1)["label"] == "a"

    def test_default_is_directory_layout(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_BACKEND", raising=False)
        cache = ResultCache(tmp_path)
        assert cache.backend_name == "dir"
        cache.put(H1, record("a"))
        assert cache.path_for(H1).exists()  # the original on-disk layout

    def test_unknown_backend_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown cache backend"):
            make_cache_backend("redis", tmp_path)

    def test_hessian_tier_target_matches_backend(self, tmp_path):
        assert ResultCache(
            tmp_path / "d", backend="dir"
        ).hessian_tier_target().endswith("hessians")
        assert ResultCache(
            tmp_path / "s", backend="sqlite"
        ).hessian_tier_target().startswith("sqlite://")


# --------------------------------------------------------------- concurrency


class TestSQLiteConcurrency:
    def test_concurrent_writers(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sqlite")
        errors = []

        def write(i: int) -> None:
            try:
                for j in range(20):
                    h = f"{i:02d}{j:02d}" + "0" * 12
                    cache.put(h, record(f"w{i}-{j}"))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats()["entries"] == 160

    def test_large_clean_vacuums(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sqlite")
        for i in range(70):  # past the VACUUM threshold of 64
            cache.put(f"{i:04d}" + "e" * 12, record(f"r{i}"))
        before = METRICS.snapshot()
        assert cache.clean() == 70
        assert METRICS.delta(before).get("cache.backend.vacuums") == 1

    def test_small_clean_does_not_vacuum(self, tmp_path):
        cache = ResultCache(tmp_path, backend="sqlite")
        cache.put(H1, record("a"))
        before = METRICS.snapshot()
        assert cache.clean() == 1
        assert "cache.backend.vacuums" not in METRICS.delta(before)


# --------------------------------------------------------------- blob stores


@pytest.fixture(params=["dir", "sqlite"])
def blobs(request, tmp_path):
    if request.param == "dir":
        return DirectoryBlobStore(tmp_path / "blobs")
    return SQLiteBlobStore(tmp_path / "blobs.db")


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
        assert isinstance(
            make_blob_store(f"sqlite://{tmp_path}/t.db"), SQLiteBlobStore
        )
        from repro.dist.client import HttpBlobStore

        assert isinstance(make_blob_store("http://127.0.0.1:1"), HttpBlobStore)

    def test_store_instance_passes_through(self, tmp_path):
        store = SQLiteBlobStore(tmp_path / "t.db")
        assert make_blob_store(store) is store


# -------------------------------------------------- fleet-wide coalescing


class TestClaimCoalescing:
    """Two independent HessianStores over one shared tier: one build total."""

    @pytest.mark.parametrize("tier_kind", ["dir", "sqlite"])
    def test_concurrent_stores_build_once(self, tmp_path, tier_kind):
        target = (
            str(tmp_path / "tier")
            if tier_kind == "dir"
            else f"sqlite://{tmp_path}/tier.db"
        )
        acts = np.random.default_rng(0).normal(0, 1, (96, 24))
        stores = [HessianStore(disk_root=target) for _ in range(3)]
        before = METRICS.snapshot()
        results: list = [None] * len(stores)
        barrier = threading.Barrier(len(stores))

        def build(i: int) -> None:
            barrier.wait()
            results[i] = stores[i].bundle(acts, 0.01).h

        threads = [
            threading.Thread(target=build, args=(i,)) for i in range(len(stores))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        delta = METRICS.delta(before)
        # Claims made the race converge on exactly one O(n·d²) build,
        # fleet-wide; the waiters adopted the published blob.
        assert delta.get("hessian.store.h_builds") == 1
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    def test_sqlite_tier_round_trips_factors(self, tmp_path):
        target = f"sqlite://{tmp_path}/tier.db"
        acts = np.random.default_rng(1).normal(0, 1, (96, 24))
        first = HessianStore(disk_root=target)
        bundle = first.bundle(acts, 0.01)
        u = bundle.u_factor  # builds h, inverts, factorizes, persists all
        second = HessianStore(disk_root=target)
        loaded = second.bundle(acts, 0.01)
        assert second.disk_hits == 1 and second.misses == 0
        assert np.array_equal(loaded.u_factor, u)
        assert loaded.h_builds == 0 and loaded.factorizations == 0

    def test_clean_disk_covers_sqlite_targets(self, tmp_path):
        target = f"sqlite://{tmp_path}/tier.db"
        acts = np.random.default_rng(2).normal(0, 1, (64, 16))
        HessianStore(disk_root=target).bundle(acts, 0.01).h
        assert HessianStore.clean_disk(target, older_than=3600.0) == 0
        assert HessianStore.clean_disk(target) == 1
