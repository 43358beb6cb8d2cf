"""The co-design stage graph: `kind` axis, grid axes, staging, resolvers.

Covers the PR-5 redesign end to end:

* spec-level `kind` validation and the byte-identity guarantee — accuracy
  and hardware job hashes are pinned against pre-refactor golden values so
  every existing cache cell provably survives;
* `kind="codesign"` jobs: one sweep → accuracy AND hardware metrics from
  the same quantized weights, lifted `outlier_ub_fraction` ≠ the iid
  per-family default, inline kernel ≡ staged scheduler;
* stage caching: accuracy↔codesign quant-stage sharing (same-process,
  `--executor process`, and entirely fresh processes), seed-free hw-stage
  sharing across differently-seeded sweeps;
* the promoted `prefills`/`batches`/`n_recons` grid axes: enumeration,
  identity normalization, hash equality with hand-written `hw_kwargs`;
* the per-job default-metric resolver behind `metric="auto"` and the
  strict `KeyError` contract of `value()`/`as_table()`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.pipeline import (
    HASH_VERSION,
    ExperimentSpec,
    Job,
    ResultCache,
    SweepSpec,
    execute_job,
    hw_stage_hash,
    resolve_metric,
    run_codesign_job,
    run_sweep,
)
from repro.pipeline.spec import describe

FAMILY = "opt-6.7b"  # the smallest LM analog with a published hw geometry
ARCH = "microscopiq-v2"


def _codesign_sweep(seed: int = 0, **kw) -> SweepSpec:
    return SweepSpec(
        families=(FAMILY,),
        methods=("microscopiq",),
        w_bits=(4,),
        archs=(ARCH,),
        kind="codesign",
        seed=seed,
        **kw,
    )


def _accuracy_sweep(**kw) -> SweepSpec:
    return SweepSpec(families=(FAMILY,), methods=("microscopiq",), w_bits=(4,), **kw)


def _two_arch_sweep() -> SweepSpec:
    """Two codesign jobs sharing one quant stage, each with its own hw stage."""
    return SweepSpec(
        families=(FAMILY,),
        methods=("microscopiq",),
        w_bits=(4,),
        archs=(ARCH, "microscopiq-v1"),
        kind="codesign",
    )


# ------------------------------------------------------------- spec validity


class TestKindSpecs:
    def test_codesign_requires_arch(self):
        with pytest.raises(ValueError, match="need arch"):
            ExperimentSpec(family=FAMILY, method="microscopiq", kind="codesign")

    def test_codesign_rejects_fp16(self):
        with pytest.raises(ValueError, match="fp16"):
            ExperimentSpec(family=FAMILY, arch=ARCH, kind="codesign")

    def test_codesign_rejects_non_packing_method_naming_capable(self):
        with pytest.raises(ValueError, match="microscopiq"):
            ExperimentSpec(family=FAMILY, method="rtn", arch=ARCH, kind="codesign")

    def test_accuracy_kind_rejects_arch(self):
        with pytest.raises(ValueError, match="codesign"):
            ExperimentSpec(family=FAMILY, arch=ARCH, kind="accuracy")

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            ExperimentSpec(family=FAMILY, kind="both")

    def test_job_kind_resolution(self):
        assert ExperimentSpec(family=FAMILY).job_kind == "accuracy"
        assert ExperimentSpec(family=FAMILY, arch=ARCH).job_kind == "hw"
        spec = ExperimentSpec(
            family=FAMILY, method="microscopiq", arch=ARCH, kind="codesign"
        )
        assert spec.job_kind == "codesign"

    def test_quant_stage_is_the_equivalent_accuracy_job(self):
        cd = ExperimentSpec(
            family=FAMILY, method="microscopiq", w_bits=4, arch=ARCH,
            hw_kwargs=(("prefill", 1),), kind="codesign",
        )
        acc = ExperimentSpec(family=FAMILY, method="microscopiq", w_bits=4)
        assert cd.quant_stage().key() == acc.key()
        assert Job(cd, seed=5).quant_stage().job_hash == Job(acc, seed=5).job_hash

    def test_codesign_label_names_both_halves(self):
        cd = ExperimentSpec(
            family=FAMILY, method="microscopiq", arch=ARCH, kind="codesign"
        )
        label = describe(cd)
        assert "microscopiq W4" in label and ARCH in label and "=>" in label
        assert label != describe(cd.quant_stage())
        assert label != describe(ExperimentSpec(family=FAMILY, arch=ARCH))

    def test_sweep_kind_validation(self):
        with pytest.raises(KeyError, match="kind='accuracy'"):
            SweepSpec(families=(FAMILY,), methods=("rtn",), archs=(ARCH,),
                      kind="accuracy")
        with pytest.raises(KeyError, match="no archs"):
            SweepSpec(families=(FAMILY,), methods=("microscopiq",), kind="codesign")
        with pytest.raises(KeyError, match="kind='hw'"):
            SweepSpec(families=(FAMILY,), methods=("rtn",), archs=(ARCH,), kind="hw")
        with pytest.raises(KeyError, match="packed"):
            SweepSpec(families=(FAMILY,), methods=("rtn", "fp16"), archs=(ARCH,),
                      kind="codesign")

    def test_codesign_sweep_skips_incapable_combos(self):
        # rtn rides along but has no packed layers; fp16 likewise; opt-175b
        # has no published hw geometry. Only the capable cell remains.
        sweep = SweepSpec(
            families=(FAMILY, "opt-175b"),
            methods=("microscopiq", "rtn", "fp16"),
            archs=(ARCH,),
            kind="codesign",
        )
        specs = sweep.specs()
        assert {(s.family, s.method, s.job_kind) for s in specs} == {
            (FAMILY, "microscopiq", "codesign")
        }

    def test_kind_hw_enumerates_only_hardware(self):
        sweep = SweepSpec(families=(FAMILY,), methods=(), archs=(ARCH,), kind="hw")
        assert {s.job_kind for s in sweep.specs()} == {"hw"}


# ----------------------------------------------------------- hash stability


# Captured from the 1.3.0 tree (pre-kind, pre-grid-axis) — the byte-identity
# contract: every accuracy/hw cache cell written before this redesign must
# keep its address.
GOLDEN_HASHES = {
    # (spec kwargs, seed) -> pre-refactor job hash
    ("acc_rtn", 0): "8071ce86df135452951f82ca7e06a380fa936697547f41ddcb6338f6e702f29f",
    ("acc_rtn", 3): "ce03881099c4b8094926076104b3ddd1387ff2bf540bbe94b601cf757bc666d8",
    ("acc_ms", 0): "c3bd0a854b0b455905e39609db1132caa7e7ab856b82aff24a0a75af35a84fae",
    ("acc_fp", 0): "774910dc4cdf259008e336eceb8ddd77169fd1b9406ea705cc10ee2b957fed85",
    ("acc_cnn", 0): "7e5b219155cfb759e8ed0539e343cb0d5be45985a3dac6522d6d095d96322a87",
    ("hw_ms2", 0): "852d07fc2b3c08018126481efccf4f538e9950c4684da1c36aa30e0f132f4d3a",
    ("hw_kw", 0): "61625b16a46e655198f8b430567962b90956e31a7b6e165081f942b059b6e465",
    ("hw_gpu", 0): "219fcca18c97e7ab68190ff10f07096c4ca9b4471fb26162c1362791d9e35b96",
}

GOLDEN_SPECS = {
    "acc_rtn": dict(family="opt-6.7b", method="rtn", w_bits=4),
    "acc_ms": dict(family="llama3-8b", method="microscopiq", w_bits=2,
                   quant_kwargs=(("micro_block", 8),), calibration="parallel"),
    "acc_fp": dict(family="llama2-7b"),
    "acc_cnn": dict(family="resnet50", substrate="cnn", method="rtn", w_bits=4),
    "hw_ms2": dict(family="llama2-7b", arch="microscopiq-v2"),
    "hw_kw": dict(family="llama2-7b", arch="microscopiq-v2",
                  hw_kwargs=(("n_recon", 2), ("prefill", 1))),
    "hw_gpu": dict(family="opt-6.7b", arch="gpu-atom-w4a4"),
}


class TestHashByteIdentity:
    def test_accuracy_and_hw_hashes_match_pre_refactor_golden(self):
        for (name, seed), expected in GOLDEN_HASHES.items():
            spec = ExperimentSpec(**GOLDEN_SPECS[name])
            assert Job(spec, seed=seed).job_hash == expected, (name, seed)

    def test_explicit_kind_hashes_equal_auto(self):
        for name, kwargs in GOLDEN_SPECS.items():
            kind = "hw" if kwargs.get("arch") else "accuracy"
            auto = Job(ExperimentSpec(**kwargs), seed=0).job_hash
            explicit = Job(ExperimentSpec(**kwargs, kind=kind), seed=0).job_hash
            assert auto == explicit, name

    def test_package_version_is_decoupled_from_job_identity(self):
        # 1.3.0 -> 1.4.0 rolled the package version but NOT the hash epoch:
        # pre-refactor cells stay addressable.
        assert repro.__version__ != HASH_VERSION
        spec = ExperimentSpec(**GOLDEN_SPECS["acc_rtn"])
        assert Job(spec).job_hash == Job(spec, version=HASH_VERSION).job_hash
        assert Job(spec, version="0.0.0").job_hash != Job(spec).job_hash

    def test_codesign_hash_is_new_and_keeps_seed(self):
        cd = ExperimentSpec(
            family="llama2-7b", method="microscopiq", arch="microscopiq-v2",
            kind="codesign",
        )
        h = Job(cd, seed=0).job_hash
        assert h != GOLDEN_HASHES[("hw_ms2", 0)]
        assert h != Job(cd.quant_stage(), seed=0).job_hash
        # The quant stage's evaluation draws from the seed: codesign re-keys.
        assert Job(cd, seed=7).job_hash != h
        assert cd.key()["kind"] == "codesign"
        assert "kind" not in cd.quant_stage().key()


# --------------------------------------------------------- the stage graph


@pytest.fixture(scope="class")
def codesign_session(tmp_path_factory):
    """One cached codesign run shared by the read-only assertions."""
    cache = str(tmp_path_factory.mktemp("codesign-cache"))
    result = run_sweep(_codesign_sweep(), cache_dir=cache, executor="serial")
    assert result.ok, result.failures()
    return cache, result


class TestCodesignJobs:
    def test_one_cell_carries_both_metric_families(self, codesign_session):
        _, result = codesign_session
        (metrics,) = [o.metrics for o in result.outcomes]
        # Accuracy side (the substrate's task metric + quantization stats)…
        assert metrics["ppl"] > 0 and metrics["mean_ebw"] > 0
        # …and hardware side (latency/energy/area/EBW) in the same dict.
        for key in ("latency_ms", "energy_nj", "area_mm2", "ebw_bits", "cycles"):
            assert metrics[key] > 0, key
        assert metrics["kind"] == "codesign"
        assert metrics["arch"] == ARCH

    def test_lifted_outlier_fraction_is_measured_not_iid(self, codesign_session):
        _, result = codesign_session
        (metrics,) = [o.metrics for o in result.outcomes]
        measured = metrics["measured_outlier_ub_fraction"]
        iid = metrics["iid_outlier_ub_fraction"]
        assert measured > 0 and iid > 0
        assert measured != iid, "lift must differ from the iid per-family default"
        # The per-role lift is real data: roles match the transformer block.
        assert set(metrics["measured_roles"]) == {
            "wq", "wk", "wv", "wo", "w1", "w2", "w3"
        }
        # Measured EBW mirrors the quant report's accounting.
        assert metrics["measured_mean_ebw"] == pytest.approx(metrics["mean_ebw"])

    def test_inline_kernel_matches_staged_scheduler(self, codesign_session):
        _, result = codesign_session
        (job,) = result.jobs
        assert execute_job(job) == result.outcomes[0].metrics
        assert run_codesign_job(job) == result.outcomes[0].metrics

    def test_codesign_ppl_equals_the_accuracy_jobs(self, codesign_session):
        cache, result = codesign_session
        acc = run_sweep(_accuracy_sweep(), cache_dir=cache, executor="serial")
        assert acc.ok
        # Served from the codesign sweep's quant stage: zero fresh computes.
        assert acc.cache_hits == 1
        (cd,) = [o.metrics for o in result.outcomes]
        (am,) = [o.metrics for o in acc.outcomes]
        assert am["ppl"] == cd["ppl"]
        assert am["layers"] == cd["layers"]

    def test_replay_is_a_full_cache_hit(self, codesign_session):
        cache, result = codesign_session
        replay = run_sweep(_codesign_sweep(), cache_dir=cache, executor="serial")
        assert replay.cache_hits == len(replay.outcomes) == 1
        assert replay.outcomes[0].metrics == result.outcomes[0].metrics


class TestStageCaching:
    def test_accuracy_sweep_then_codesign_reports_quant_stage_hits(self, tmp_path):
        cache = str(tmp_path / "cache")
        acc = run_sweep(_accuracy_sweep(), cache_dir=cache, executor="serial")
        assert acc.ok and acc.telemetry["quant_stage_hits"] == 0
        cd = run_sweep(_codesign_sweep(), cache_dir=cache, executor="serial")
        assert cd.ok
        assert cd.telemetry["quant_stage_hits"] == 1
        assert cd.telemetry["hw_stage_hits"] == 0
        assert cd.cache_hits == 0  # the merged cell itself was new
        assert cd.outcomes[0].metrics["ppl"] == acc.outcomes[0].metrics["ppl"]

    def test_quant_stage_hits_with_process_executor(self, tmp_path):
        cache = str(tmp_path / "cache")
        assert run_sweep(_accuracy_sweep(), cache_dir=cache, executor="process",
                         workers=2).ok
        cd = run_sweep(_codesign_sweep(), cache_dir=cache, executor="process",
                       workers=2)
        assert cd.ok and cd.telemetry["quant_stage_hits"] == 1

    def test_quant_stage_hits_across_fresh_processes(self, tmp_path):
        """The sharing is on-disk content addressing, not process state:
        an accuracy sweep in one interpreter feeds a codesign sweep in
        another."""
        cache = str(tmp_path / "cache")
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def run(body: str) -> str:
            code = (
                "import json;"
                "from repro.pipeline import SweepSpec, run_sweep;"
                f"sweep = SweepSpec({body});"
                f"r = run_sweep(sweep, cache_dir={cache!r}, executor='serial');"
                "assert r.ok, r.failures();"
                "print(json.dumps(r.telemetry))"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            return json.loads(out)

        acc = run(
            f"families=({FAMILY!r},), methods=('microscopiq',), w_bits=(4,)"
        )
        assert acc["quant_stage_hits"] == 0
        cd = run(
            f"families=({FAMILY!r},), methods=('microscopiq',), w_bits=(4,), "
            f"archs=({ARCH!r},), kind='codesign'"
        )
        assert cd["quant_stage_hits"] == 1
        assert cd["cache_hits"] == 0

    def test_differently_seeded_codesign_sweeps_share_hw_stage(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_sweep(_codesign_sweep(seed=0), cache_dir=cache, executor="serial")
        assert first.ok
        second = run_sweep(_codesign_sweep(seed=9), cache_dir=cache, executor="serial")
        assert second.ok
        # New seed → new quant stage (its evaluation RNG differs), but the
        # lifted layer stats are deterministic, so the hw stage is shared.
        assert second.cache_hits == 0
        assert second.telemetry["hw_stage_hits"] == 1
        m0, m9 = first.outcomes[0].metrics, second.outcomes[0].metrics
        assert m0["hw_stage_hash"] == m9["hw_stage_hash"]
        assert m0["quant_stage_hash"] != m9["quant_stage_hash"]
        assert m0["latency_ms"] == m9["latency_ms"]

    @pytest.mark.parametrize(
        "accuracy_first", [True, False], ids=["accuracy-first", "codesign-first"]
    )
    def test_mixed_sweep_computes_the_shared_quant_stage_once(
        self, tmp_path, accuracy_first
    ):
        """One sweep holding the accuracy job AND its codesign twin, in
        either order: the accuracy cell doubles as the quant stage, so the
        store ends up with exactly accuracy + codesign + hw-stage records."""
        cache = tmp_path / "cache"
        acc_spec = ExperimentSpec(family=FAMILY, method="microscopiq", w_bits=4)
        cd_spec = acc_spec.with_(arch=ARCH, kind="codesign")
        specs = [acc_spec, cd_spec] if accuracy_first else [cd_spec, acc_spec]
        result = run_sweep(specs, cache_dir=str(cache), executor="serial")
        assert result.ok and len(result.outcomes) == 2
        assert result[acc_spec]["ppl"] == result[cd_spec]["ppl"]
        assert result.telemetry["quant_stage_hits"] == 1
        entries = list(ResultCache(cache).entries())
        assert len(entries) == 3

    def test_failing_quant_stage_fails_every_consumer(self, tmp_path, monkeypatch):
        """A quant stage that raises fails both codesign jobs built on it
        with its error type, caches nothing, and recomputes once fixed."""
        import repro.eval.harness as harness

        def broken(**kwargs):
            raise ValueError("injected quant-stage failure")

        monkeypatch.setattr(harness, "evaluate_setting", broken)
        cache = str(tmp_path / "cache")
        sweep = _two_arch_sweep()
        result = run_sweep(sweep, cache_dir=cache, executor="serial")
        assert len(result.failures()) == len(result.outcomes) == 2
        assert {o.error["type"] for o in result.outcomes} == {"ValueError"}
        store = ResultCache(cache)
        for job in sweep.jobs():
            assert store.get(job.job_hash) is None
            assert store.get(job.quant_stage().job_hash) is None

        monkeypatch.undo()
        rerun = run_sweep(sweep, cache_dir=cache, executor="serial")
        assert rerun.ok, rerun.failures()
        assert rerun.cache_hits == 0 and rerun.telemetry["computed"] == 2

    def test_quant_stage_without_layers_fails_the_lift(self, tmp_path, monkeypatch):
        """Quant metrics with nothing to lift fail each codesign job with a
        RuntimeError naming the method, and no job record is cached."""
        import repro.eval.harness as harness

        real = harness.evaluate_setting

        def without_layers(**kwargs):
            metrics = dict(real(**kwargs))
            metrics.pop("layers", None)
            return metrics

        monkeypatch.setattr(harness, "evaluate_setting", without_layers)
        cache = str(tmp_path / "cache")
        result = run_sweep(_two_arch_sweep(), cache_dir=cache, executor="serial")
        assert len(result.failures()) == len(result.outcomes) == 2
        store = ResultCache(cache)
        for o in result.outcomes:
            assert o.error["type"] == "RuntimeError"
            assert "'microscopiq'" in o.error["message"]
            assert store.get(o.job.job_hash) is None

    def test_accuracy_record_without_layers_is_recomputed(self, tmp_path):
        """A cached accuracy cell that predates the lift cannot serve as a
        quant stage: the codesign sweep recomputes it once, shares it
        between its two jobs, and refreshes the record."""
        cache = str(tmp_path / "cache")
        acc = run_sweep(_accuracy_sweep(), cache_dir=cache, executor="serial")
        assert acc.ok
        (job,) = acc.jobs
        store = ResultCache(cache)
        record = store.get(job.job_hash)
        del record["metrics"]["layers"]
        store.put(job.job_hash, record)

        cd = run_sweep(_two_arch_sweep(), cache_dir=cache, executor="serial")
        assert cd.ok, cd.failures()
        assert cd.telemetry["quant_stage_hits"] == 1
        assert store.get(job.job_hash)["metrics"]["layers"]

    def test_job_seconds_account_for_every_fresh_stage(self, tmp_path):
        """Each stage computed this sweep lands its seconds on exactly one
        job, so the jobs' seconds add up to the stage records' and
        ``compute_s`` reports the quant stage too."""
        cache = str(tmp_path / "cache")
        result = run_sweep(_two_arch_sweep(), cache_dir=cache, executor="serial")
        assert result.ok and result.telemetry["computed"] == 2
        store = ResultCache(cache)
        stage_hashes = {o.metrics["quant_stage_hash"] for o in result.outcomes}
        stage_hashes |= {o.metrics["hw_stage_hash"] for o in result.outcomes}
        assert len(stage_hashes) == 3
        stage_s = sum(float(store.get(h)["seconds"]) for h in stage_hashes)
        job_s = sum(o.seconds for o in result.outcomes)
        assert job_s == pytest.approx(stage_s, rel=1e-9)
        assert result.telemetry["compute_s"] == pytest.approx(job_s, abs=5e-4)

    def test_fixed_format_archs_keep_their_stored_ebw(self, tmp_path):
        """GOBO stores every weight at 15.6 bits whatever the lift measured:
        on a non-ReCoN fixed-format arch the measured workload's mix pass is
        identical to the iid one (stored EBW honored, outliers stripped), so
        the codesign hw numbers equal the plain hw job's. On the ReCoN arch
        the measured μB structure IS the storage format, so they differ."""
        cache = str(tmp_path / "cache")
        cd = run_sweep(
            SweepSpec(
                families=(FAMILY,), methods=("microscopiq",), w_bits=(4,),
                archs=("gobo", ARCH), kind="codesign",
            ),
            cache_dir=cache, executor="serial",
        )
        assert cd.ok
        hw = run_sweep(
            SweepSpec(families=(FAMILY,), methods=(), archs=("gobo", ARCH)),
            cache_dir=cache, executor="serial",
        )
        assert hw.ok
        by_arch = lambda result: {
            o.job.spec.arch: o.metrics for o in result.outcomes
        }
        cd_m, hw_m = by_arch(cd), by_arch(hw)
        assert cd_m["gobo"]["cycles"] == hw_m["gobo"]["cycles"]
        assert cd_m["gobo"]["dram_bits"] == hw_m["gobo"]["dram_bits"]
        assert cd_m[ARCH]["dram_bits"] != hw_m[ARCH]["dram_bits"]

    def test_gpu_cost_model_codesign_merges_throughput(self, tmp_path):
        """The GPU cost model reads the transformer geometry (forwarded
        through the measured workload): a gpu-arch codesign cell merges
        ppl with tokens_per_s."""
        result = run_sweep(
            SweepSpec(
                families=(FAMILY,), methods=("microscopiq",), w_bits=(4,),
                archs=("gpu-atom-w4a4",), kind="codesign",
            ),
            cache_dir=str(tmp_path), executor="serial",
        )
        assert result.ok, result.failures()
        (m,) = [o.metrics for o in result.outcomes]
        assert m["ppl"] > 0 and m["tokens_per_s"] > 0

    def test_duplicate_labels_do_not_cross_wire_hw_stages(self, tmp_path):
        """`label` is a free-form, non-hashed tag: two codesign jobs sharing
        one must still settle independently (phase 2 routes results by stage
        hash, never by label)."""
        a = ExperimentSpec(family=FAMILY, method="microscopiq", w_bits=4,
                           arch=ARCH, kind="codesign", label="x")
        b = a.with_(w_bits=2)
        result = run_sweep([a, b], cache_dir=str(tmp_path), executor="serial")
        assert result.ok, result.failures()
        assert len(result.outcomes) == 2
        # Distinct settings produced distinct lifts and distinct hw numbers.
        assert result[a]["hw_stage_hash"] != result[b]["hw_stage_hash"]
        assert result[a]["mean_ebw"] != result[b]["mean_ebw"]

    def test_pending_hw_stages_dedup_within_one_sweep(self, tmp_path):
        """Two codesign jobs whose lifts land on the same stage address
        (here: only the evaluation corpus shape differs, which never changes
        the deterministic quantization) share one pending simulation."""
        a = ExperimentSpec(family=FAMILY, method="microscopiq", w_bits=4,
                           arch=ARCH, kind="codesign", eval_sequences=16)
        b = a.with_(eval_sequences=24)
        result = run_sweep([a, b], cache_dir=str(tmp_path), executor="serial")
        assert result.ok, result.failures()
        assert result.telemetry["hw_stage_hits"] == 1
        assert result[a]["hw_stage_hash"] == result[b]["hw_stage_hash"]
        assert result[a]["latency_ms"] == result[b]["latency_ms"]
        assert result[a]["quant_stage_hash"] != result[b]["quant_stage_hash"]

    def test_hw_stage_hash_is_content_addressed(self):
        spec = ExperimentSpec(
            family=FAMILY, method="microscopiq", arch=ARCH, kind="codesign"
        )
        layers = {"layers.0.wq": {"outlier_ub_fraction": 0.05, "micro_block": 8,
                                  "ebw": 4.5, "d_out": 8, "d_in": 8, "bit_budget": 4}}
        h = hw_stage_hash(spec, layers)
        assert h == hw_stage_hash(spec, dict(layers))  # deterministic
        bumped = {k: dict(v, outlier_ub_fraction=0.06) for k, v in layers.items()}
        assert hw_stage_hash(spec, bumped) != h  # the lift IS the identity
        other_arch = spec.with_(arch="microscopiq-v1")
        assert hw_stage_hash(other_arch, layers) != h


# ----------------------------------------------------------- the grid axes


class TestGridAxes:
    def test_axis_values_enumerate_like_w_bits(self):
        sweep = SweepSpec(
            families=("llama2-7b",), methods=(), archs=(ARCH,),
            prefills=(1, 64), n_recons=(1, 2),
        )
        kwargs = [dict(s.hw_kwargs) for s in sweep.specs()]
        assert len(kwargs) == 4
        assert {(k["prefill"], k["n_recon"]) for k in kwargs} == {
            (1, 1), (1, 2), (64, 1), (64, 2)
        }

    def test_axis_hash_equals_handwritten_hw_kwargs(self):
        sweep = SweepSpec(
            families=("llama2-7b",), methods=(), archs=(ARCH,), prefills=(1,),
        )
        (spec,) = sweep.specs()
        hand = ExperimentSpec(
            family="llama2-7b", arch=ARCH, hw_kwargs=(("prefill", 1),)
        )
        assert Job(spec).job_hash == Job(hand).job_hash

    def test_ignored_axes_normalize_out_of_identities(self):
        # prefill shapes transformers only, batch shapes cnn only: the
        # 2×2 axis grid collapses to 2 cells per substrate.
        sweep = SweepSpec(
            families=("llama2-7b", "resnet50"), methods=(),
            substrates=("lm", "cnn"), archs=(ARCH,),
            prefills=(1, 64), batches=(1, 4),
        )
        by_sub = {}
        for s in sweep.specs():
            by_sub.setdefault(s.substrate, []).append(dict(s.hw_kwargs))
        assert by_sub["lm"] == [{"prefill": 1}, {"prefill": 64}]
        assert by_sub["cnn"] == [{"batch": 1}, {"batch": 4}]

    def test_axis_conflicting_with_hw_kwargs_rejected(self):
        with pytest.raises(ValueError, match="both a grid axis"):
            SweepSpec(
                families=("llama2-7b",), methods=(), archs=(ARCH,),
                prefills=(1,), hw_kwargs=(("prefill", 2),),
            )

    def test_axis_conflicting_with_arch_params_pin_rejected(self):
        # A targeted pin overrides last; left unchecked it would silently
        # collapse every n_recons point to one cell.
        with pytest.raises(ValueError, match="arch_params pin"):
            SweepSpec(
                families=("llama2-7b",), methods=(), archs=(ARCH,),
                n_recons=(1, 2, 4), arch_params={ARCH: {"n_recon": 2}},
            )

    def test_axis_nothing_consumes_rejected(self):
        with pytest.raises(KeyError, match="grid axis 'prefill'"):
            SweepSpec(
                families=("resnet50",), methods=(), substrates=("cnn",),
                archs=(ARCH,), prefills=(1,),
            )
        with pytest.raises(KeyError, match="grid axis 'n_recon'"):
            SweepSpec(
                families=("llama2-7b",), methods=(), archs=("olive",),
                n_recons=(2,),
            )
        with pytest.raises(KeyError, match="no archs"):
            SweepSpec(families=("llama2-7b",), methods=("rtn",), prefills=(1,))

    def test_axis_values_are_schema_checked(self):
        with pytest.raises(Exception, match="prefill"):
            SweepSpec(
                families=("llama2-7b",), methods=(), archs=(ARCH,),
                prefills=("many",),
            )

    def test_codesign_crosses_grid_axes(self, tmp_path):
        sweep = _codesign_sweep(n_recons=(1, 4))
        specs = sweep.specs()
        assert {dict(s.hw_kwargs)["n_recon"] for s in specs} == {1, 4}
        assert all(s.job_kind == "codesign" for s in specs)
        result = run_sweep(sweep, cache_dir=str(tmp_path), executor="serial")
        assert result.ok
        # One quantization feeds both design points: the second job's hw
        # stage differs (n_recon) but its quant stage is shared in-sweep.
        assert result.telemetry["quant_stage_hits"] == 1
        m1, m4 = [o.metrics for o in result.outcomes]
        assert m1["ppl"] == m4["ppl"]
        assert m1["quant_stage_hash"] == m4["quant_stage_hash"]
        assert m1["hw_stage_hash"] != m4["hw_stage_hash"]


# ------------------------------------------------------- metric resolution


class TestMetricResolver:
    @pytest.fixture(scope="class")
    def mixed(self, tmp_path_factory):
        """One accuracy + one hardware job across two substrates."""
        cache = str(tmp_path_factory.mktemp("mixed-cache"))
        sweep = SweepSpec(
            families=("opt-6.7b", "resnet50"),
            methods=("rtn",),
            substrates=("lm", "cnn"),
            archs=(ARCH,),
            eval_sequences=8,
            eval_seq_len=16,
        )
        result = run_sweep(sweep, cache_dir=cache, executor="serial")
        assert result.ok
        return result

    def test_resolver_picks_per_job_metrics(self, mixed):
        by_kind = {}
        for o in mixed.outcomes:
            by_kind.setdefault((o.job.spec.job_kind, o.job.spec.substrate),
                               resolve_metric(o))
        assert by_kind[("accuracy", "lm")] == "ppl"
        assert by_kind[("accuracy", "cnn")] == "top1"
        assert by_kind[("hw", "lm")] == "latency_ms"

    def test_pivot_auto_aggregates_mixed_sweeps(self, mixed):
        pivot = mixed.pivot("family", "method")  # metric="auto" default
        # Every cell resolved without a caller-named metric, no Nones.
        values = [v for row in pivot.values() for v in row.values()]
        assert values and all(v is not None for v in values)

    def test_value_auto_resolves_substrate_metric(self, mixed):
        top1 = mixed.value(family="resnet50", substrate="cnn", method="rtn")
        assert 0 <= top1 <= 100

    def test_value_raises_naming_metric_and_available_keys(self, mixed):
        with pytest.raises(KeyError, match="'nonexistent'.*available.*ppl"):
            mixed.value(metric="nonexistent", family="opt-6.7b",
                        substrate="lm", method="rtn", arch=None)

    def test_as_table_raises_instead_of_silent_none(self, mixed):
        with pytest.raises(KeyError, match="'caption_score'.*available"):
            mixed.as_table("family", metric="caption_score")

    def test_pivot_stays_lenient_for_explicit_metrics(self, mixed):
        # "arch" separates accuracy (None) from hardware columns, so the
        # explicit hardware metric leaves accuracy cells None, not raising.
        pivot = mixed.pivot("family", "arch", metric="latency_ms")
        flat = [v for row in pivot.values() for v in row.values()]
        assert any(v is None for v in flat)  # accuracy cells have no latency
        assert any(v is not None for v in flat)  # hw cells do

    def test_gpu_archs_resolve_to_throughput(self, tmp_path):
        sweep = SweepSpec(
            families=("opt-6.7b",), methods=(), archs=("gpu-atom-w4a4",),
        )
        result = run_sweep(sweep, cache_dir=str(tmp_path), executor="serial")
        assert result.ok
        assert resolve_metric(result.outcomes[0]) == "tokens_per_s"
        assert result.value(family="opt-6.7b", arch="gpu-atom-w4a4") > 0

    def test_codesign_resolves_to_task_metric(self, tmp_path):
        result = run_sweep(_codesign_sweep(), cache_dir=str(tmp_path),
                           executor="serial")
        assert result.ok
        assert resolve_metric(result.outcomes[0]) == "ppl"
        assert result.value(family=FAMILY, method="microscopiq") == \
            result.outcomes[0].metrics["ppl"]
