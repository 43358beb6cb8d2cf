"""The HessianStore's content-addressed disk tier and its cross-process use.

The tier exists so ``--executor process`` sweeps stop recomputing Hessians
per worker: blobs live beside the ResultCache (``<cache>/hessians``), are
addressed by the same (activations, damp) fingerprint as the in-memory tier,
and are written atomically. The blob is an ``.npz`` of version-tagged
factor arrays — ``H`` plus ``hinv_diag``/``u_factor`` as they are first
computed — so a fresh process pays zero O(d³) work for fingerprints an
earlier run factorized. Coverage:

* fresh-store reuse (a second store over the same tier computes nothing —
  including factorizations);
* two genuinely fresh *processes* sharing one tier — the second's miss
  *and* factorization counters are 0 (the acceptance criteria);
* partial blobs (``H`` only) load what they have and recompute the rest;
  corrupt blobs and legacy ``.npy`` blobs degrade gracefully;
* the ``REPRO_HESSIAN_DIR`` wiring: ``run_sweep`` exports the tier location
  and the process-wide default store picks it up;
* a real ``--executor process`` CLI sweep leaves blobs behind and re-serves
  them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.methods.resources import HESSIAN_DIR_ENV, HessianStore, default_hessian_store
from repro.models import build_model
from repro.quant.engine import quantize_model


@pytest.fixture
def acts():
    return np.random.default_rng(0).normal(0, 1, (128, 32))


class TestDiskTier:
    def test_fresh_store_rereads_instead_of_recomputing(self, tmp_path, acts):
        first = HessianStore(disk_root=tmp_path)
        h = first.bundle(acts, 0.01).h
        assert first.misses == 1
        blobs = list(tmp_path.glob("??/*.npz"))
        assert len(blobs) == 1  # persisted content-addressed

        # A fresh store (≈ a fresh worker process) resolves from disk.
        second = HessianStore(disk_root=tmp_path)
        bundle = second.bundle(acts, 0.01)
        assert second.disk_hits == 1 and second.misses == 0
        assert np.array_equal(bundle.h, h)
        assert bundle.h_builds == 0  # loaded, not rebuilt

    def test_blob_is_written_only_when_h_is_actually_built(self, tmp_path, acts):
        store = HessianStore(disk_root=tmp_path)
        store.bundle(acts, 0.01)  # lazy: nothing touched yet
        assert not list(tmp_path.glob("??/*.npz"))

    def test_factors_are_appended_to_the_blob(self, tmp_path, acts):
        first = HessianStore(disk_root=tmp_path)
        bundle = first.bundle(acts, 0.01)
        bundle.h
        (blob,) = tmp_path.glob("??/*.npz")
        with np.load(blob) as data:
            assert set(data.files) == {"v1:h"}
        u = bundle.u_factor
        diag = bundle.hinv_diag
        with np.load(blob) as data:
            assert set(data.files) == {"v1:h", "v1:hinv_diag", "v1:u_factor"}

        # A fresh store gets the factors for free: no inversion, no Cholesky.
        second = HessianStore(disk_root=tmp_path)
        loaded = second.bundle(acts, 0.01)
        assert np.array_equal(loaded.u_factor, u)
        assert np.array_equal(loaded.hinv_diag, diag)
        assert loaded.h_builds == 0
        assert loaded.inversions == 0 and loaded.factorizations == 0

    def test_partial_blob_loads_h_and_recomputes_factors(self, tmp_path, acts):
        first = HessianStore(disk_root=tmp_path)
        ref = first.bundle(acts, 0.01)
        u = ref.u_factor  # blob now holds h + factors
        (blob,) = tmp_path.glob("??/*.npz")
        with np.load(blob) as data:
            h = data["v1:h"]
        with open(blob, "wb") as f:  # rewrite as an h-only (partial) blob
            np.savez(f, **{"v1:h": h})

        second = HessianStore(disk_root=tmp_path)
        bundle = second.bundle(acts, 0.01)
        assert np.array_equal(bundle.h, h)
        assert bundle.h_builds == 0  # h came from disk...
        assert np.array_equal(bundle.u_factor, u)
        assert bundle.factorizations == 1  # ...the factor was recomputed
        assert second.disk_hits == 1 and second.misses == 0

    def test_corrupt_blob_falls_back_to_recompute(self, tmp_path, acts):
        first = HessianStore(disk_root=tmp_path)
        h = first.bundle(acts, 0.01).h
        (blob,) = tmp_path.glob("??/*.npz")
        blob.write_bytes(b"not a numpy file")
        second = HessianStore(disk_root=tmp_path)
        bundle = second.bundle(acts, 0.01)
        # The listing promised a hit, but the (eager) load failed, so the
        # counters re-classify it immediately: reuse assertions must not
        # pass on work that was actually recomputed.
        assert second.disk_hits == 0 and second.misses == 1
        assert np.array_equal(bundle.h, h)  # rebuilt from activations
        assert bundle.h_builds == 1

    def test_legacy_npy_blob_still_loads(self, tmp_path, acts):
        """Blobs written by the pre-factor tier (raw ``H`` as ``.npy``)
        resolve as h-only partial blobs instead of recomputing."""
        reference = HessianStore(disk_root=tmp_path / "ref")
        h = reference.bundle(acts, 0.01).h
        key = HessianStore.fingerprint(acts, 0.01)
        legacy = tmp_path / "tier" / key[:2] / f"{key}.npy"
        legacy.parent.mkdir(parents=True)
        np.save(legacy, h)

        store = HessianStore(disk_root=tmp_path / "tier")
        bundle = store.bundle(acts, 0.01)
        assert store.disk_hits == 1 and store.misses == 0
        assert np.array_equal(bundle.h, h)
        assert bundle.h_builds == 0

    def test_damp_is_part_of_the_disk_address(self, tmp_path, acts):
        store = HessianStore(disk_root=tmp_path)
        store.bundle(acts, 0.01).h
        store.bundle(acts, 0.05).h
        assert len(list(tmp_path.glob("??/*.npz"))) == 2

    def test_quantize_model_whole_run_reuses_tier(self, tmp_path):
        model = build_model("opt-6.7b")
        first = HessianStore(disk_root=tmp_path)
        quantize_model(model, "gptq", 4, hessian_store=first)
        assert first.misses > 0
        model.clear_overrides()

        second = HessianStore(disk_root=tmp_path)
        quantize_model(model, "gptq", 4, hessian_store=second)
        assert second.misses == 0, "fresh store recomputed despite the disk tier"
        assert second.disk_hits == first.misses
        model.clear_overrides()


_WORKER = """
import sys
import numpy as np
from repro.methods.resources import HessianStore
from repro.models import build_model
from repro.quant.engine import quantize_model

store = HessianStore(disk_root=sys.argv[1])
model = build_model("opt-6.7b")
quantize_model(model, "gptq", 4, hessian_store=store)
print(f"misses={store.misses} disk_hits={store.disk_hits} "
      f"factorizations={store.factorizations} layers={len(model.overrides)}")
"""


class TestCrossProcessReuse:
    def test_second_fresh_process_has_zero_misses_and_factorizations(self, tmp_path):
        """Two genuinely fresh interpreters over one tier: the first
        populates it (Hessians *and* Cholesky factors), the second computes
        no Hessian and pays zero O(d³) factorizations."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        env.pop(HESSIAN_DIR_ENV, None)
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _WORKER, str(tmp_path)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(dict(kv.split("=") for kv in proc.stdout.split()))
        assert int(runs[0]["misses"]) > 0 and int(runs[0]["disk_hits"]) == 0
        assert int(runs[0]["factorizations"]) > 0
        assert int(runs[1]["misses"]) == 0, "second process recomputed Hessians"
        assert int(runs[1]["disk_hits"]) == int(runs[0]["misses"])
        assert int(runs[1]["factorizations"]) == 0, (
            "the disk tier should have served gptq's Cholesky factors"
        )


class TestEnvWiring:
    def test_default_store_attaches_and_detaches_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(HESSIAN_DIR_ENV, str(tmp_path))
        assert default_hessian_store().disk_root == tmp_path
        monkeypatch.delenv(HESSIAN_DIR_ENV)
        assert default_hessian_store().disk_root is None

    def test_run_sweep_exports_tier_beside_result_cache(self, tmp_path, monkeypatch):
        from repro.pipeline import ExperimentSpec, run_sweep

        monkeypatch.delenv(HESSIAN_DIR_ENV, raising=False)
        # An earlier test in the process may already hold this Hessian in
        # the process-wide store, and then no blob would be written.
        default_hessian_store().clear()
        cache = tmp_path / "cache"
        spec = ExperimentSpec(
            family="opt-6.7b", method="gptq", w_bits=4,
            eval_sequences=8, eval_seq_len=16,
        )
        result = run_sweep([spec], cache_dir=str(cache), executor="serial")
        assert result.ok
        assert os.environ[HESSIAN_DIR_ENV] == str(cache / "hessians")
        blobs = list((cache / "hessians").glob("??/*.npz"))
        assert blobs, "sweep jobs did not persist Hessians next to the cache"
        # The hessians subdir must be invisible to the ResultCache's record
        # enumeration (its shard glob is two-hex-char directories).
        from repro.pipeline.cache import ResultCache

        records = list(ResultCache(cache).entries())
        assert len(records) == 1

    def test_cli_process_sweep_populates_and_reuses_tier(self, tmp_path, monkeypatch):
        """--executor process end to end: blobs appear, and a second sweep
        over new settings re-serves them (the ``w2`` jobs need exactly the
        Hessians the ``w4`` jobs persisted — parallel calibration)."""
        from repro.pipeline.cli import main

        monkeypatch.delenv(HESSIAN_DIR_ENV, raising=False)
        cache = str(tmp_path / "cache")
        argv = [
            "sweep",
            "--families", "opt-6.7b",
            "--methods", "gptq",
            "--w-bits", "4",
            "--calibrations", "parallel",
            "--eval-sequences", "8", "--eval-seq-len", "16",
            "--cache-dir", cache,
            "--executor", "process", "--workers", "2",
            "--quiet",
        ]
        assert main(argv) == 0
        hessians = Path(cache) / "hessians"
        first_blobs = {p.name for p in hessians.glob("??/*.npz")}
        assert first_blobs, "process workers did not persist Hessians"

        argv[argv.index("--w-bits") + 1] = "2"  # new setting, same calibration
        assert main(argv) == 0
        second_blobs = {p.name for p in hessians.glob("??/*.npz")}
        assert second_blobs == first_blobs, (
            "the W2 sweep should have needed no Hessian the W4 sweep had not "
            "already persisted"
        )
