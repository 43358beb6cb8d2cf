"""High-level sweep driver: spec → stages → cache → executor → result.

:func:`run_sweep` is the one call the benchmarks, the CLI, and the examples
all go through. It enumerates a :class:`~repro.pipeline.spec.SweepSpec` into
jobs, answers everything it can from the content-addressed
:class:`~repro.pipeline.cache.ResultCache`, dispatches only the missing work
to the chosen executor, persists fresh results, and returns a
:class:`SweepResult` with the aggregation helpers the per-table/figure
drivers pivot on.

The job kernel (:func:`execute_job`) is a module-level function of the job
alone — no closures, no shared state — so it pickles cleanly into worker
processes and so a job's result is a pure function of its content hash.
Its RNG is spawned from that hash (``job.spawn_seed``) and it runs at one
BLAS thread, which is what makes serial, thread, and process sweeps
bit-identical.

**Stages.** Inside :func:`run_sweep` every job is an ordered list of
content-addressed stages: an accuracy job is ``[quant]``, a hardware job
``[hw]``, and a ``kind="codesign"`` job ``[quant, lift, hw]`` — quantize +
evaluate via :func:`~repro.eval.harness.evaluate_setting`, lift the
measured per-layer packed statistics (:func:`_hw_stage_task`, done in the
scheduler's process while it builds the hardware task), simulate the lifted
:class:`~repro.hw.MeasuredWorkload`, and merge accuracy and hardware
metrics under the job's own content hash. A codesign job's quant stage is
an ordinary accuracy job cached under its accuracy-job hash — so an
accuracy sweep and a codesign sweep over the same settings share the
expensive stage in either order — and its hardware stage is cached under a
content hash of its actual inputs (arch + knobs + the lifted layer
statistics), which is seed-free because quantization is deterministic:
differently-seeded codesign sweeps share hw-stage cells. Stage reuse is
reported in ``SweepResult.telemetry`` as ``quant_stage_hits`` /
``hw_stage_hits``. :func:`run_codesign_job` runs the same chain inline, in
one call.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs.trace import TRACE_ENV, current_tracer, enable_tracing, set_tracer, trace
from .executor import ONE_BLAS_THREAD, JobOutcome
from .spec import HASH_VERSION, ExperimentSpec, Job, SweepSpec, _canonical

__all__ = [
    "SweepResult",
    "execute_job",
    "hw_stage_hash",
    "resolve_metric",
    "run_codesign_job",
    "run_sweep",
    "task_key",
]


def _quant_stage_metrics(job: Job) -> Dict[str, Any]:
    """Run the quantize-and-evaluate stage of ``job`` (any non-hw kind)."""
    spec = job.spec
    from ..eval.harness import evaluate_setting

    with trace(
        "stage:quant",
        method=spec.method,
        family=spec.family,
        substrate=spec.substrate,
        w_bits=spec.w_bits,
    ):
        return evaluate_setting(
            family=spec.family,
            method=spec.method,
            w_bits=spec.w_bits,
            act_bits=spec.act_bits,
            quant_kwargs=dict(spec.quant_kwargs),
            kv_bits=spec.kv_bits,
            kv_residual=spec.kv_residual,
            eval_sequences=spec.eval_sequences,
            eval_seq_len=spec.eval_seq_len,
            rng=np.random.default_rng(job.spawn_seed),
            substrate=spec.substrate,
            calibration=spec.calibration,
            eval_kwargs=dict(spec.eval_kwargs),
        )


def hw_stage_hash(spec: ExperimentSpec, layers: Dict[str, Any], version: str = "") -> str:
    """Content address of a codesign job's hardware stage.

    A function of what the simulator actually reads — the arch, its knobs,
    the (substrate, family) workload geometry, and the *lifted layer
    statistics* — and of nothing else. The sweep seed only shapes the quant
    stage's evaluation randomness, never the deterministic quantization the
    lift measures, so differently-seeded codesign sweeps land on the same
    hw-stage address and share the cell.
    """
    payload = _canonical(
        {
            "stage": "codesign-hw",
            "substrate": spec.substrate,
            "family": spec.family,
            "arch": spec.arch,
            "hw_kwargs": dict(spec.hw_kwargs),
            "layers": layers,
            "version": version or HASH_VERSION,
        }
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class _HwStageTask:
    """A dispatchable hardware stage: the codesign job + its lifted layers.

    Module-level and closure-free so it pickles into process-pool workers;
    quacks enough like a Job (``label``) for the executor's progress hooks.
    ``stage_hash`` is the task's identity on the way back from the pool —
    labels are free-form user tags and may collide across jobs.
    """

    job: Job
    stage_hash: str
    layers: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]

    @property
    def label(self) -> str:
        return f"{self.job.label} [hw stage]"

    def layer_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: dict(stats) for name, stats in self.layers}

    @staticmethod
    def pack_layers(layers: Dict[str, Any]) -> Tuple:
        return tuple(
            (name, tuple(sorted(stats.items()))) for name, stats in sorted(layers.items())
        )

    def record(self, outcome: JobOutcome) -> Dict[str, Any]:
        """The cacheable JSON form of this stage's outcome."""
        return {
            "stage": "codesign-hw",
            "label": self.label,
            "metrics": outcome.metrics,
            "seconds": outcome.seconds,
        }


def task_key(task: Union[Job, _HwStageTask]) -> str:
    """A task's claim address — in the scheduler's in-flight book and in a
    ``repro-dist`` coordinator's fleet-wide one: jobs (and quant stages,
    which are accuracy jobs) by job hash, hardware stages as
    ``hw:<stage hash>`` (stage and job addresses are separate namespaces)."""
    if isinstance(task, _HwStageTask):
        return f"hw:{task.stage_hash}"
    return task.job_hash


def _hw_stage_task(job: Job, quant_metrics: Dict[str, Any]) -> _HwStageTask:
    """The lift: a codesign job's hardware stage, built from the measured
    per-layer statistics its quant stage exported."""
    layers = quant_metrics.get("layers")
    if not layers:
        raise RuntimeError(
            f"codesign job {job.label!r}: the quant stage exported no packed "
            f"layer statistics to lift (method {job.spec.method!r})"
        )
    return _HwStageTask(
        job, hw_stage_hash(job.spec, layers, job.version), _HwStageTask.pack_layers(layers)
    )


def _hw_stage_kernel(task: _HwStageTask) -> Dict[str, Any]:
    """The lifted hardware stage: simulate the measured workload."""
    from ..hw import run_measured_hw_job

    spec = task.job.spec
    with trace(
        "stage:hw", arch=spec.arch, substrate=spec.substrate, family=spec.family
    ):
        return run_measured_hw_job(
            spec.substrate, spec.family, spec.arch, dict(spec.hw_kwargs),
            task.layer_dict(),
        )


def _merge_codesign(
    job: Job, quant_metrics: Dict[str, Any], hw_metrics: Dict[str, Any]
) -> Dict[str, Any]:
    """One merged metrics dict: accuracy metrics + hardware metrics + the
    stage addresses (both deterministic functions of the job, so the merge
    is identical whether the stages ran inline, staged, or from cache)."""
    layers = quant_metrics["layers"]  # lifted already: the hw stage ran on them
    merged = dict(quant_metrics)
    merged.update(hw_metrics)
    merged["kind"] = "codesign"
    merged["quant_stage_hash"] = job.quant_stage().job_hash
    merged["hw_stage_hash"] = hw_stage_hash(job.spec, layers, job.version)
    return merged


def run_codesign_job(
    job: Job, quant_metrics: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The codesign kernel, inline: quantize → lift → simulate → merge.

    A pure function of the job (given ``quant_metrics``, of the stage
    result, which is itself pure), so codesign jobs cache and parallelize
    like everything else; :func:`run_sweep` calls the same stage functions
    through its staged scheduler instead, to share stage results across
    jobs and sweeps.
    """
    if quant_metrics is None:
        quant_metrics = _quant_stage_metrics(job.quant_stage())
    with trace("stage:lift", family=job.spec.family, arch=job.spec.arch):
        task = _hw_stage_task(job, quant_metrics)
    return _merge_codesign(job, quant_metrics, _hw_stage_kernel(task))


def execute_job(job: Job) -> Dict[str, Any]:
    """The canonical job kernel, routed by the spec's resolved kind:

    * ``accuracy`` — quantize one setting and evaluate it;
    * ``hw`` — simulate the (substrate, family) workload on the named
      accelerator;
    * ``codesign`` — the full stage chain (:func:`run_codesign_job`).

    Everything is rebuilt from the spec inside the call (model, corpora,
    quantizer state) and all randomness flows from the job-hash-spawned seed
    (the hardware simulator is deterministic and draws none). It runs at one
    BLAS thread, as every executor runs it, so the result is identical no
    matter which executor or worker runs it, or whether one does.
    """
    spec = job.spec
    kind = spec.job_kind
    with ONE_BLAS_THREAD:
        if kind == "codesign":
            return run_codesign_job(job)
        if kind == "hw":
            from ..hw import run_hw_job

            return run_hw_job(spec.substrate, spec.family, spec.arch, dict(spec.hw_kwargs))
        return _quant_stage_metrics(job)


def resolve_metric(outcome: JobOutcome) -> str:
    """The default metric of one outcome, from its substrate and kind.

    Accuracy and codesign jobs resolve to the substrate's task metric
    (``ppl`` / ``caption_score`` / ``top1`` / ``nll`` — a codesign job's
    headline is its quality; the hardware numbers ride under their own
    names). Pure hardware jobs resolve to ``latency_ms`` (GPU cost models to
    ``tokens_per_s``). This is what lets a mixed accuracy+hardware sweep
    aggregate with ``metric="auto"`` and no caller-named metrics.
    """
    spec = outcome.job.spec
    if spec.job_kind == "hw":
        metrics = outcome.metrics or {}
        return "latency_ms" if "latency_ms" in metrics else "tokens_per_s"
    from ..core.substrate import get_substrate

    return get_substrate(spec.substrate).metric


@dataclass
class SweepResult:
    """Outcomes of one sweep, in job order, plus pivot/aggregation helpers.

    The aggregation helpers default to ``metric="auto"``: each job's metric
    resolves per outcome through :func:`resolve_metric`, so mixed
    accuracy + hardware + codesign sweeps aggregate without callers naming
    metrics. An explicit metric name applies to every job; ``value`` and
    ``as_table`` raise a :class:`KeyError` naming the metric and the job's
    available metric keys when it is absent (``pivot`` stays lenient and
    leaves missing cells ``None`` — figures often span heterogeneous jobs).
    """

    jobs: List[Job]
    outcomes: List[JobOutcome]
    telemetry: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------- accessors
    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def cache_hits(self) -> int:
        return sum(o.from_cache for o in self.outcomes)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.outcomes) if self.outcomes else 0.0

    def failures(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def metrics_by_hash(self) -> Dict[str, Optional[Dict[str, Any]]]:
        return {o.job.job_hash: o.metrics for o in self.outcomes}

    def __getitem__(self, spec: Union[ExperimentSpec, Job]) -> Dict[str, Any]:
        """Metrics for one experiment; raises if it failed or is absent."""
        if isinstance(spec, Job):
            match = lambda o: o.job.job_hash == spec.job_hash
        else:
            key = spec.key()
            match = lambda o: o.job.spec.key() == key
        for o in self.outcomes:
            if match(o):
                if o.metrics is None:
                    err = (o.error or {}).get("message", "missing")
                    raise KeyError(f"job {o.job.label!r} failed: {err}")
                return o.metrics
        raise KeyError(f"no such job in sweep: {spec!r}")

    # ---------------------------------------------------------- aggregation
    def _metric_of(self, outcome: JobOutcome, metric: str) -> Any:
        """One outcome's metric value under auto-resolution, strict on
        absence: the error names the metric and what the job does have."""
        name = resolve_metric(outcome) if metric == "auto" else metric
        metrics = outcome.metrics or {}
        if name not in metrics:
            raise KeyError(
                f"metric {name!r} is not in job {outcome.job.label!r} "
                f"metrics; available: {', '.join(sorted(metrics))}"
            )
        return metrics[name]

    def value(self, metric: str = "auto", **spec_fields) -> Any:
        """The single ``metric`` of the unique job matching ``spec_fields``
        (e.g. ``value(family="opt-6.7b", method="rtn", w_bits=4)``);
        ``"auto"`` resolves per the job's substrate and kind."""
        hits = [
            o
            for o in self.outcomes
            if all(getattr(o.job.spec, k) == v for k, v in spec_fields.items())
        ]
        if len(hits) != 1:
            raise KeyError(f"{spec_fields} matched {len(hits)} jobs, expected 1")
        if hits[0].metrics is None:
            raise KeyError(f"job {hits[0].job.label!r} failed")
        return self._metric_of(hits[0], metric)

    def as_table(
        self, *fields: str, metric: str = "auto", skip_failed: bool = True
    ) -> Dict[Any, Any]:
        """Flat dict keyed by spec-field tuples — the per-table form the
        benchmark drivers consume (``as_table("family", "method")``)."""
        out: Dict[Any, Any] = {}
        for o in self.outcomes:
            if o.metrics is None:
                if skip_failed:
                    continue
                raise KeyError(f"job {o.job.label!r} failed")
            key = tuple(getattr(o.job.spec, f) for f in fields)
            out[key[0] if len(key) == 1 else key] = self._metric_of(o, metric)
        return out

    def pivot(
        self, row: str = "family", col: str = "method", metric: str = "auto"
    ) -> Dict[Any, Dict[Any, Any]]:
        """Nested ``{row_value: {col_value: metric}}`` — the per-figure form.
        Lenient: a job without the (explicitly named) metric contributes
        ``None`` rather than raising, since figures often mix job kinds."""
        out: Dict[Any, Dict[Any, Any]] = {}
        for o in self.outcomes:
            if o.metrics is None:
                continue
            r = getattr(o.job.spec, row)
            c = getattr(o.job.spec, col)
            name = resolve_metric(o) if metric == "auto" else metric
            out.setdefault(r, {})[c] = o.metrics.get(name)
        return out

    def pivot_table(self, metric: str = "auto") -> Dict[str, Any]:
        """The family × setting pivot as one JSON-able table — the shape the
        CLI printer, the service's results endpoint, and the HTML view all
        render from. Columns are job labels with their family prefix
        stripped; rows are families; missing cells stay absent (lenient,
        like :meth:`pivot`)."""
        columns: List[str] = []
        rows: Dict[str, Dict[str, Any]] = {}
        for o in self.outcomes:
            if o.metrics is None:
                continue
            spec = o.job.spec
            prefix = (
                f"{spec.family}/"
                if spec.substrate == "lm"
                else f"{spec.substrate}:{spec.family}/"
            )
            label = o.job.label
            col = label[len(prefix):] if label.startswith(prefix) else label
            if col not in columns:
                columns.append(col)
            name = resolve_metric(o) if metric == "auto" else metric
            rows.setdefault(spec.family, {})[col] = o.metrics.get(name)
        return {"metric": metric, "columns": columns, "rows": rows}

    def pareto(
        self,
        x: str = "auto",
        y: str = "energy_nj",
        *,
        group_by: str = "family",
        maximize_x: Optional[bool] = None,
        maximize_y: bool = False,
    ) -> Dict[Any, List[Dict[str, Any]]]:
        """Per-group non-dominated frontiers over two metrics.

        The co-design question in one call: for each ``group_by`` value
        (family, by default), which settings are Pareto-optimal on
        ``(x, y)`` — typically the substrate's quality metric vs. the
        hardware stage's ``energy_nj``? Only jobs carrying *both* metrics
        contribute (codesign jobs do; pure accuracy or pure hw jobs are
        skipped, like :meth:`pivot`'s leniency).

        ``x="auto"`` resolves per job through :func:`resolve_metric`, and
        ``maximize_x=None`` then follows the substrate's metric direction
        (``top1``/``caption_score`` maximize, ``ppl``/``nll`` minimize);
        ``y`` defaults to ``energy_nj``, minimized. Returns
        ``{group: [point, ...]}`` with each point a JSON-able dict
        (``label`` / ``method`` / ``x_metric`` / ``x`` / ``y_metric`` /
        ``y``), frontier sorted by ``x`` ascending.
        """
        from ..core.substrate import get_substrate

        grouped: Dict[Any, List[Dict[str, Any]]] = {}
        for o in self.outcomes:
            if o.metrics is None:
                continue
            xn = resolve_metric(o) if x == "auto" else x
            yn = resolve_metric(o) if y == "auto" else y
            if xn not in o.metrics or yn not in o.metrics:
                continue
            if maximize_x is None:
                mx = x == "auto" and get_substrate(
                    o.job.spec.substrate
                ).higher_is_better
            else:
                mx = maximize_x
            point = {
                "label": o.job.label,
                "method": o.job.spec.method,
                "x_metric": xn,
                "x": float(o.metrics[xn]),
                "y_metric": yn,
                "y": float(o.metrics[yn]),
                # Oriented (minimize-both) coordinates for the dominance test.
                "_ox": -float(o.metrics[xn]) if mx else float(o.metrics[xn]),
                "_oy": -float(o.metrics[yn]) if maximize_y else float(o.metrics[yn]),
            }
            grouped.setdefault(getattr(o.job.spec, group_by), []).append(point)

        out: Dict[Any, List[Dict[str, Any]]] = {}
        for group, points in grouped.items():
            frontier = [
                a
                for a in points
                if not any(
                    b is not a
                    and b["_ox"] <= a["_ox"]
                    and b["_oy"] <= a["_oy"]
                    and (b["_ox"] < a["_ox"] or b["_oy"] < a["_oy"])
                    for b in points
                )
            ]
            frontier.sort(key=lambda p: p["x"])
            out[group] = [
                {k: v for k, v in p.items() if not k.startswith("_")}
                for p in frontier
            ]
        return out

    def by_label(self, metric: Optional[str] = None) -> Dict[str, Any]:
        """``{job label: metrics (or one metric)}`` for explicit-step sweeps."""
        out: Dict[str, Any] = {}
        for o in self.outcomes:
            if o.metrics is not None:
                out[o.job.label] = o.metrics if metric is None else o.metrics.get(metric)
        return out

    def records(self) -> List[Dict[str, Any]]:
        """JSON-ready list of per-job records (spec key + metrics/error)."""
        return [
            dict(o.record(), hash=o.job.job_hash, from_cache=o.from_cache)
            for o in self.outcomes
        ]


def run_sweep(
    sweep: Union[SweepSpec, Sequence[ExperimentSpec]],
    cache_dir: Optional[str] = None,
    executor: str = "auto",
    workers: Optional[int] = None,
    progress: bool = False,
    recompute: bool = False,
    kernel: Callable[[Job], Dict[str, Any]] = execute_job,
    trace: Optional[bool] = None,
) -> SweepResult:
    """Run every job of ``sweep``, computing only what the cache lacks.

    Each job the cache misses runs as its list of content-addressed stages
    — accuracy ``[quant]``, hardware ``[hw]``, codesign ``[quant, lift,
    hw]`` — advanced one stage per pass for all jobs at once. A stage is
    cached and claimed under its own address, so jobs that share one (an
    accuracy cell and its codesign twins, codesign jobs over several archs,
    a concurrent submission) compute it once: a codesign sweep over
    settings an accuracy sweep already cached reuses those cells (counted
    in ``telemetry["quant_stage_hits"]``), and hardware stages are cached
    by stage content, seed-free (``telemetry["hw_stage_hits"]``). A
    freshly computed stage's seconds count toward exactly one job — the
    first, in job order, to consume it — so job seconds and
    ``telemetry["compute_s"]`` include quant stages computed for codesign
    jobs.

    When a cache directory is given, every run appends one record — spec
    digest, per-job outcomes, counter delta, span tree when traced — to the
    run ledger at ``<cache>/runs/runs.jsonl`` (queried by ``repro-sweep
    report`` / ``trace``); its id lands in ``telemetry["run_id"]``.

    Args:
        sweep: a :class:`SweepSpec` or an explicit list of
            :class:`ExperimentSpec` steps.
        cache_dir: directory of the content-addressed result store; ``None``
            disables persistence (everything recomputes).
        executor: ``"serial"``, ``"thread"``, ``"process"``, or ``"auto"``.
        workers: pool width (defaults to the usable CPU count).
        progress: print a live ticker to stderr.
        recompute: ignore cached entries (but still refresh them on disk).
        kernel: job function — override for testing only (a custom kernel
            also disables stage decomposition; codesign jobs then run
            through it whole).
        trace: ``True`` enables span tracing for this sweep (and exports
            ``REPRO_TRACE=1`` so pool workers join in), ``False`` disables
            it, ``None`` (default) keeps whatever
            :func:`repro.obs.enable_tracing` / ``REPRO_TRACE`` already chose.
            The previous tracer and environment are restored afterwards.
    """
    prev_tracer = current_tracer()
    prev_env = os.environ.get(TRACE_ENV)
    if trace is True:
        enable_tracing()
        os.environ[TRACE_ENV] = "1"
    elif trace is False:
        set_tracer(None)
        os.environ[TRACE_ENV] = "0"
    try:
        # Local import: the scheduler module imports this one's kernels.
        from .scheduler import SweepScheduler

        return SweepScheduler(
            cache_dir=cache_dir, executor=executor, workers=workers
        ).run(sweep, progress=progress, recompute=recompute, kernel=kernel)
    finally:
        if trace is not None:
            set_tracer(prev_tracer)
            if prev_env is None:
                os.environ.pop(TRACE_ENV, None)
            else:
                os.environ[TRACE_ENV] = prev_env
