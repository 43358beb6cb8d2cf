"""Observability stack: tracer, metrics registry, run ledger, frontends.

The last class is the subsystem's acceptance gate: a traced 2-method ×
2-bit codesign sweep must produce a schema-valid ledger record whose span
tree covers the quant / lift / hw stages with per-node self-times that sum
(telescoping) to each job's recorded wall time within 5% — across the
serial AND the process executor — and the disabled-mode instrumentation
left in the hot paths must cost under 3% of a traced job's runtime.
"""

from __future__ import annotations

import time
import timeit

import pytest

from repro.obs import (
    LEDGER_SCHEMA,
    METRICS,
    NULL_SPAN,
    MetricsRegistry,
    RunLedger,
    current_tracer,
    enable_tracing,
    merge_deltas,
    render_run,
    render_span_tree,
    set_tracer,
    span_seconds,
    span_self_seconds,
    trace,
    traced,
    validate_record,
    walk_spans,
)
from repro.pipeline import SweepSpec, run_sweep

CHEAP = dict(eval_sequences=8, eval_seq_len=24)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends untraced, whatever it does in between."""
    prev = set_tracer(None)
    yield
    set_tracer(prev)


# --------------------------------------------------------------------- tracer


class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = enable_tracing()
        with trace("outer", k="v") as outer:
            with trace("mid"):
                with trace("inner"):
                    time.sleep(0.001)
        assert tracer.roots == [outer]
        tree = outer.to_dict()
        assert tree["name"] == "outer" and tree["attrs"] == {"k": "v"}
        names = [node["name"] for node, _ in walk_spans(tree)]
        assert names == ["outer", "mid", "inner"]
        depths = [d for _, d in walk_spans(tree)]
        assert depths == [0, 1, 2]
        # Parents run at least as long as their children.
        assert tree["seconds"] >= tree["children"][0]["seconds"]
        assert tree["children"][0]["children"][0]["seconds"] >= 0.001

    def test_sibling_spans_attach_to_common_parent(self):
        enable_tracing()
        with trace("parent") as parent:
            with trace("a"):
                pass
            with trace("b"):
                pass
        tree = parent.to_dict()
        assert [c["name"] for c in tree["children"]] == ["a", "b"]

    def test_current_span_tracks_the_stack(self):
        tracer = enable_tracing()
        assert tracer.current() is None
        with trace("outer") as outer:
            assert tracer.current() is outer
            with trace("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_disabled_mode_is_a_shared_noop(self):
        assert current_tracer() is None
        span = trace("anything", k="v")
        assert span is NULL_SPAN and trace("other") is NULL_SPAN  # one object
        with span as s:
            assert s.to_dict() is None and s.seconds == 0.0

    def test_exception_annotates_and_propagates(self):
        enable_tracing()
        with pytest.raises(ValueError):
            with trace("root") as root:
                with trace("bad"):
                    raise ValueError("boom")
        tree = root.to_dict()
        assert tree["children"][0]["attrs"]["error"] == "ValueError"

    def test_traced_decorator_names_and_attrs(self):
        tracer = enable_tracing()

        @traced("kernel:fake", flavor="test")
        def work(x):
            return x * 2

        @traced
        def bare():
            return 1

        assert work(21) == 42 and bare() == 1
        names = [r.name for r in tracer.roots]
        assert names == ["kernel:fake", "TestTracer.test_traced_decorator_names_and_attrs.<locals>.bare"]
        assert tracer.roots[0].attrs == {"flavor": "test"}

    def test_capture_is_detached_from_roots(self):
        tracer = enable_tracing()
        cap = tracer.capture("job", label="x")
        with cap:
            with trace("stage"):
                pass
        assert tracer.roots == []  # detached: the caller owns the tree
        tree = cap.to_dict()
        assert tree["name"] == "job"
        assert [c["name"] for c in tree["children"]] == ["stage"]

    def test_grafted_dict_children_pass_through(self):
        enable_tracing()
        shipped = {"name": "job", "attrs": {}, "seconds": 1.0, "children": []}
        with trace("sweep") as sweep:
            pass
        sweep.add_child(shipped)
        assert sweep.to_dict()["children"] == [shipped]

    def test_enable_is_idempotent_and_set_restores(self):
        first = enable_tracing()
        assert enable_tracing() is first
        prev = set_tracer(None)
        assert prev is first and current_tracer() is None
        set_tracer(prev)
        assert current_tracer() is first

    def test_serialized_helpers(self):
        tree = {"name": "a", "seconds": 1.0,
                "children": [{"name": "b", "seconds": 0.25, "children": []},
                             {"name": "c", "seconds": 0.5, "children": []}]}
        assert span_seconds(tree) == 1.0 and span_seconds(None) == 0.0
        assert span_self_seconds(tree) == 0.25
        assert [n["name"] for n, _ in walk_spans(tree)] == ["a", "b", "c"]
        assert list(walk_spans(None)) == []


# -------------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        assert reg.incr("hits") == 1
        assert reg.incr("hits", 4) == 5
        reg.set("depth", 3.0)
        reg.set("depth", 7.0)  # last write wins
        assert reg.value("hits") == 5 and reg.value("depth") == 7.0
        assert reg.value("never") == 0
        assert len(reg) == 2
        assert reg.snapshot() == {"hits": 5, "depth": 7.0}

    def test_negative_incr_reclassifies(self):
        reg = MetricsRegistry()
        reg.incr("hits")
        reg.incr("hits", -1)  # a hit taken back after the fact
        assert reg.value("hits") == 0

    def test_delta_drops_zero_rows(self):
        reg = MetricsRegistry()
        reg.incr("a", 2)
        before = reg.snapshot()
        reg.incr("b", 3)
        reg.incr("a", 1)
        reg.incr("a", -1)  # nets to zero → dropped
        assert reg.delta(before) == {"b": 3}
        assert reg.delta(None) == {"a": 2, "b": 3}

    def test_merge_deltas(self):
        merged = merge_deltas({"a": 1, "b": 2}, None, {"a": 3}, {})
        assert merged == {"a": 4, "b": 2}
        assert merge_deltas() == {}

    def test_reset_for_test_isolation(self):
        reg = MetricsRegistry()
        reg.incr("x")
        reg.set("g", 1)
        reg.reset()
        assert len(reg) == 0 and reg.snapshot() == {}

    def test_global_registry_is_a_metrics_registry(self):
        assert isinstance(METRICS, MetricsRegistry)


# --------------------------------------------------------------------- ledger


def _record(run_id="r1", **over):
    base = dict(
        schema=LEDGER_SCHEMA, run_id=run_id, started_at=1000.0, wall_s=1.5,
        spec_digest="abc123", executor="serial", n_jobs=2, cache_hits=1,
        failures=0, traced=False, counters={"engine.models": 1.0},
        jobs=[{"hash": "h1", "label": "j1", "kind": "accuracy", "ok": True,
               "from_cache": True, "seconds": 0.0},
              {"hash": "h2", "label": "j2", "kind": "hw", "ok": True,
               "from_cache": False, "seconds": 1.2}],
    )
    base.update(over)
    return base


class TestRunLedger:
    def test_append_fills_schema_and_run_id(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        rid = ledger.append({"spec_digest": "deadbeef", "started_at": 1000.0})
        import os
        assert rid == f"19700101T001640-deadbeef-{os.getpid()}"
        [rec] = ledger.records()
        assert rec["schema"] == LEDGER_SCHEMA and rec["run_id"] == rid

    def test_round_trip_order_and_get(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for rid in ("aaa-1", "bbb-2", "ccc-3"):
            ledger.append(_record(run_id=rid))
        assert len(ledger) == 3
        assert [r["run_id"] for r in ledger.records()] == ["aaa-1", "bbb-2", "ccc-3"]
        assert [r["run_id"] for r in ledger.runs()] == ["ccc-3", "bbb-2", "aaa-1"]
        assert [r["run_id"] for r in ledger.runs(limit=2)] == ["ccc-3", "bbb-2"]
        assert ledger.get("bbb-2")["run_id"] == "bbb-2"  # exact
        assert ledger.get("cc")["run_id"] == "ccc-3"  # unique prefix
        assert ledger.get("last")["run_id"] == "ccc-3"
        assert ledger.get("zzz") is None
        ledger.append(_record(run_id="cc-dup"))
        assert ledger.get("cc") is None  # ambiguous prefix

    def test_corrupt_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.append(_record(run_id="good-1"))
        with open(ledger.path, "a", encoding="utf-8") as f:
            f.write("{truncated garbage\n\n[1,2,3]\n")
        ledger.append(_record(run_id="good-2"))
        assert [r["run_id"] for r in ledger.records()] == ["good-1", "good-2"]

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        assert len(ledger) == 0 and ledger.runs() == [] and ledger.get("last") is None

    def test_validate_record(self):
        assert validate_record(_record()) == []
        assert validate_record([]) == ["record is list, expected object"]
        errors = validate_record({})
        assert "missing field 'run_id'" in errors
        assert validate_record(_record(n_jobs="two")) == [
            "field 'n_jobs' is str, expected int"
        ]
        assert validate_record(_record(schema=99)) == ["unknown schema version 99"]
        bad_job = validate_record(_record(jobs=[{"hash": "h"}]))
        assert any("jobs[0] missing field 'label'" in e for e in bad_job)
        traced_bad = validate_record(_record(traced=True, spans={"nope": 1}))
        assert traced_bad == ["spans is not a span tree (needs name + seconds)"]
        traced_ok = validate_record(
            _record(traced=True,
                    spans={"name": "sweep", "seconds": 1.0, "children": []})
        )
        assert traced_ok == []

    def test_validate_blas_object(self):
        for blas in (
            {"library": "OpenBLAS 0.3.31", "job_threads": 1},
            {"library": None, "job_threads": None},
        ):
            assert validate_record(_record(blas=blas)) == [], blas
        for blas in (
            "OpenBLAS",
            {"library": 3, "job_threads": 1},
            {"library": "OpenBLAS 0.3.31", "job_threads": "1"},
            {"library": "OpenBLAS 0.3.31", "job_threads": True},
        ):
            errors = validate_record(_record(blas=blas))
            assert errors and all("blas" in e for e in errors), blas

    def test_sweep_record_names_its_blas(self, tmp_path, capsys):
        from repro.pipeline.cli import main
        from repro.pipeline.executor import blas_info

        spec = SweepSpec(families=("opt-6.7b",), methods=("fp16",), **CHEAP)
        run_sweep(spec, cache_dir=str(tmp_path), executor="serial", progress=False)
        record = RunLedger(tmp_path / "runs").get("last")
        assert validate_record(record) == []
        assert record["blas"] == blas_info()
        assert set(record["blas"]) == {"library", "job_threads"}
        assert record["blas"]["job_threads"] in (1, None)
        assert main(["report", "--cache-dir", str(tmp_path)]) == 0
        assert "  blas: " in capsys.readouterr().out


class TestRendering:
    def test_render_span_tree(self):
        tree = {"name": "sweep", "attrs": {"executor": "serial"}, "seconds": 1.0,
                "children": [{"name": "job",
                              "attrs": {"label": "x", "hash": "deadbeef"},
                              "seconds": 0.75, "children": []}]}
        lines = render_span_tree(tree)
        assert "span" in lines[0]
        assert "sweep [executor=serial]" in lines[1]
        assert "  job [label=x]" in lines[2]  # indented, hash hidden
        assert "deadbeef" not in "\n".join(lines)

    def test_render_span_tree_empty(self):
        [line] = render_span_tree(None)
        assert "REPRO_TRACE" in line

    def test_render_span_tree_max_depth(self):
        deep = {"name": "d0", "seconds": 1.0, "children": []}
        node = deep
        for i in range(1, 5):
            child = {"name": f"d{i}", "seconds": 0.1, "children": []}
            node["children"] = [child]
            node = child
        lines = render_span_tree(deep, max_depth=1)
        text = "\n".join(lines)
        assert "d0" in text and "d1" in text
        assert "d2" not in text and "d4" not in text

    def test_render_run(self):
        lines = render_run(_record(
            quant_stage_hits=3,
            jobs=[{"hash": "h1", "label": "slow-one", "kind": "codesign",
                   "ok": True, "from_cache": False, "seconds": 2.0},
                  {"hash": "h2", "label": "broken", "kind": "accuracy",
                   "ok": False, "from_cache": False, "seconds": 0.1,
                   "error_type": "ValueError"}],
        ))
        text = "\n".join(lines)
        assert "run r1" in text
        assert "3 quant-stage" in text
        assert "engine: models=1" in text
        assert "slow-one" in text
        assert "FAILED broken: ValueError" in text

    def test_render_run_blas(self):
        text = "\n".join(render_run(_record(
            blas={"library": "OpenBLAS 0.3.31", "job_threads": 1}
        )))
        assert "blas: OpenBLAS 0.3.31 · job threads 1" in text
        text = "\n".join(render_run(_record(
            blas={"library": None, "job_threads": None}
        )))
        assert "blas: unknown · jobs at the caller's pool" in text
        assert "blas:" not in "\n".join(render_run(_record()))


# ------------------------------------------------------------------ frontends


class TestCliFrontends:
    def test_report_and_trace_subcommands(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        cache = str(tmp_path / "cache")
        spec_args = [
            "sweep", "--families", "opt-6.7b", "--methods", "fp16",
            "--eval-sequences", "8", "--eval-seq-len", "24",
            "--cache-dir", cache, "--trace", "--quiet",
        ]
        assert main(spec_args) == 0
        out = capsys.readouterr().out
        assert "runs/runs.jsonl" in out

        assert main(["report", "--cache-dir", cache]) == 0
        report = capsys.readouterr().out
        assert "1 run(s)" in report and "traced=True" in report

        assert main(["trace", "--cache-dir", cache]) == 0  # run_id defaults to last
        rendered = capsys.readouterr().out
        assert "sweep [" in rendered and "job [" in rendered

        assert main(["trace", "definitely-not-a-run", "--cache-dir", cache]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_report_empty_cache(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        assert main(["report", "--cache-dir", str(tmp_path / "empty")]) == 0
        assert "no runs recorded yet" in capsys.readouterr().out


# ----------------------------------------------------- sweep integration gate


def _parent_names(tree):
    """``(name, parent name)`` for every node below the root."""
    return [
        (child["name"], node["name"])
        for node, _ in walk_spans(tree)
        for child in node.get("children", ())
    ]


def _assert_job_tree_telescopes(job_node):
    """Self-times over a job subtree must sum to its total within 5%."""
    total = span_seconds(job_node)
    self_sum = sum(span_self_seconds(n) for n, _ in walk_spans(job_node))
    assert total > 0
    assert self_sum == pytest.approx(total, rel=0.05)


class TestTracedSweepAcceptance:
    """The PR's acceptance gate, per executor."""

    SPEC = dict(
        families=("opt-6.7b",),
        methods=("microscopiq", "omni-microscopiq"),  # both export packed
        w_bits=(2, 4),
        archs=("microscopiq-v2",),
        kind="codesign",
        **CHEAP,
    )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_traced_codesign_sweep(self, tmp_path, executor):
        spec = SweepSpec(**self.SPEC)
        result = run_sweep(
            spec, cache_dir=str(tmp_path), executor=executor, workers=2,
            progress=False, trace=True,
        )
        assert result.ok and len(result.outcomes) == 4
        assert current_tracer() is None  # run_sweep restored the tracer

        # --- ledger record: present, schema-valid, traced
        ledger = RunLedger(tmp_path / "runs")
        record = ledger.get(result.telemetry["run_id"])
        assert record is not None
        assert validate_record(record) == []
        assert record["traced"] is True
        assert record["executor"] == executor
        assert record["n_jobs"] == 4 and record["failures"] == 0

        # --- span tree: sweep root covering every job, all three stages
        tree = record["spans"]
        assert tree["name"] == "sweep"
        job_nodes = [c for c in tree["children"] if c["name"] == "job"]
        assert len(job_nodes) == 4
        names = {n["name"] for n, _ in walk_spans(tree)}
        assert {"stage:quant", "stage:lift", "stage:hw",
                "engine", "kernel:quantize_matrix", "kernel:simulate"} <= names

        # --- layer spans nest under their engine, kernels under a layer
        parent_of = _parent_names(tree)
        layers = [p for n, p in parent_of if n in ("layer", "layer_batch")]
        kernels = [p for n, p in parent_of if n == "kernel:quantize_matrix"]
        assert layers and set(layers) == {"engine"}
        assert kernels and set(kernels) <= {"layer", "layer_batch"}

        # --- self-times telescope to each job's wall time within 5%
        for job_node in job_nodes:
            _assert_job_tree_telescopes(job_node)

        # --- counters made it into telemetry and the record (process
        # executors ship worker-side deltas back over the outcome wire).
        # Hessian activity shows as builds on a cold store or hits on a warm
        # one (the process-wide store may be pre-warmed by earlier tests).
        for counters in (result.telemetry["counters"], record["counters"]):
            assert counters.get("engine.models", 0) >= 2  # ≥1 per method
            hessian_activity = sum(
                v for k, v in counters.items() if k.startswith("hessian.store.")
            )
            assert hessian_activity > 0
        hess = result.telemetry["hessian"]
        assert set(hess) == {"hits", "misses", "h_builds", "inversions",
                             "factorizations"}
        assert hess["h_builds"] + hess["hits"] > 0

    def test_warm_rerun_appends_untraced_fast_record(self, tmp_path):
        spec = SweepSpec(**self.SPEC)
        run_sweep(spec, cache_dir=str(tmp_path), executor="serial",
                  progress=False, trace=True)
        warm = run_sweep(spec, cache_dir=str(tmp_path), executor="serial",
                         progress=False, trace=False)
        assert warm.hit_rate == 1.0
        assert warm.telemetry["lookup_s"] > 0  # real lookup time, not zero
        ledger = RunLedger(tmp_path / "runs")
        assert len(ledger) == 2
        record = ledger.get("last")
        assert record["traced"] is False and record["cache_hits"] == 4
        assert validate_record(record) == []
        assert all(j["from_cache"] for j in record["jobs"])


class TestDisabledOverhead:
    def test_disabled_instrumentation_under_3_percent(self, tmp_path):
        """S spans × per-call no-op cost must stay < 3% of the job's time."""
        spec = SweepSpec(families=("opt-6.7b",), methods=("microscopiq",),
                         w_bits=(4,), archs=("microscopiq-v2",),
                         kind="codesign", **CHEAP)
        result = run_sweep(spec, cache_dir=str(tmp_path), executor="serial",
                           progress=False, trace=True)
        assert result.ok
        record = RunLedger(tmp_path / "runs").get("last")
        [job_node] = [c for c in record["spans"]["children"]
                      if c["name"] == "job"]
        n_spans = sum(1 for _ in walk_spans(job_node))
        job_seconds = span_seconds(job_node)
        assert n_spans > 10 and job_seconds > 0

        assert current_tracer() is None
        reps = 10_000
        per_call = timeit.timeit(
            "t('x', a=1).__enter__()", globals={"t": trace}, number=reps
        ) / reps
        assert n_spans * per_call < 0.03 * job_seconds, (
            f"{n_spans} spans × {per_call * 1e9:.0f}ns no-op = "
            f"{n_spans * per_call * 1e3:.3f}ms ≥ 3% of {job_seconds * 1e3:.1f}ms job"
        )


class TestResultCacheCounters:
    def test_get_put_counted_entries_not(self, tmp_path):
        from repro.pipeline.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        h1 = "ab" * 32  # cache paths require hex job hashes
        before = METRICS.snapshot()
        assert cache.get(h1) is None
        cache.put(h1, {"hash": h1, "label": "x", "metrics": {}})
        assert cache.get(h1) is not None
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)
        delta = METRICS.delta(before)
        assert delta.get("result_cache.hits") == 1
        assert delta.get("result_cache.misses") == 1
        assert delta.get("result_cache.puts") == 1

        # Maintenance reads (entries/clean) must not skew the hit accounting.
        before = METRICS.snapshot()
        assert len(list(cache.entries())) == 1
        assert cache.hits == 1 and METRICS.delta(before) == {}
