"""Command-line front end: ``python -m repro.pipeline`` / ``repro-sweep``.

Six subcommands:

* ``sweep`` — enumerate a grid (substrates × families × methods × bits ×
  group sizes × calibration modes, plus the hardware axes: ``--archs`` and
  the first-class grid axes ``--prefills`` / ``--batches`` /
  ``--n-recons``), run it through the cache + executor, print the pivot
  table, optionally dump JSON records. ``--kind codesign`` (shorthand:
  ``--codesign``) crosses the quantization grid *with* the arch axis into
  joint quantize → lift → simulate jobs whose cells carry accuracy AND
  hardware metrics from the same quantized weights; ``--param
  [target.]key=value`` pins schema-validated method or arch parameters;
  ``--list-families`` / ``--list-methods`` (a capability table: hessian?
  act? per-tensor? packed? substrates, parameter schema) /
  ``--list-substrates`` / ``--list-archs`` (the accelerator registry) /
  ``--list-plugins`` (entry-point-discovered methods, substrates, and
  archs) print the valid axis values and exit;
* ``describe`` — full parameter docs and capability flags of one method or
  arch;
* ``show``  — summarize what the cache already holds;
* ``report`` — recent runs from the run ledger (``<cache>/runs/``):
  outcomes, stage reuse, counter attribution, slowest jobs;
* ``trace`` — one run's span tree (total/self times per span); record
  spans with ``sweep --trace`` or ``REPRO_TRACE=1``;
* ``clean`` — purge cached results and compact the run ledger (optionally
  only entries older than ``--older-than`` seconds / ``--max-age-hours``
  hours);
* ``submit`` / ``watch`` / ``results`` — the same grid flags as ``sweep``,
  but run through a ``repro-serve`` daemon (``--server``, default
  ``http://127.0.0.1:8642`` or ``REPRO_SERVE_URL``): submit enqueues and by
  default live-streams progress, watch re-attaches to a running
  submission's SSE stream, results fetches the merged pivot / Pareto /
  records of a finished one.

Plugins are loaded at startup, so entry-point / ``REPRO_PLUGINS`` methods,
substrates, and archs are first-class axis values everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .cache import BACKEND_ENV, ResultCache
from .executor import EXECUTORS, default_workers
from .runner import run_sweep
from .spec import CALIBRATION_MODES, JOB_KINDS, SweepSpec, known_methods

__all__ = ["main", "build_parser"]

DEFAULT_CACHE = ".repro-cache"


def _act_bits(text: str) -> Optional[int]:
    """'none'/'fp'/'16' all mean full-precision activations."""
    return None if text.lower() in ("none", "fp", "16") else int(text)


def _group_size(text: str) -> Optional[int]:
    """'none' means the method's default group size; 16 is a real size."""
    return None if text.lower() == "none" else int(text)


def _param_value(text: str):
    """Typed value for a ``--param`` assignment: none/bool/int/float/str."""
    low = text.lower()
    if low == "none":
        return None
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_params(assignments: List[str]):
    """Split repeated ``--param [target.]key=value`` assignments.

    Returns ``(unqualified {key: value}, qualified {target: {key: value}})``;
    the target form (``gptq.damp_ratio=0.02`` / ``microscopiq-v2.n_recon=4``)
    disambiguates when several swept methods or archs share a key.
    """
    plain: dict = {}
    targeted: dict = {}
    for text in assignments:
        key, sep, value = text.partition("=")
        if not sep or not key:
            raise ValueError(
                f"--param expects [target.]key=value, got {text!r}"
            )
        target, dot, name = key.partition(".")
        if dot and target and name:
            targeted.setdefault(target, {})[name] = _param_value(value)
        else:
            plain[key] = _param_value(value)
    return plain, targeted


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    """The sweep-grid axis flags, shared verbatim by ``sweep`` (local run)
    and ``submit`` (run through a ``repro-serve`` daemon) — one flag set,
    one spec builder, two execution paths."""
    p.add_argument("--families", nargs="+", default=[], metavar="FAMILY",
                   help="model families (see --list-families)")
    p.add_argument("--methods", nargs="+", default=[], metavar="METHOD",
                   help="quantization methods (see --list-methods)")
    p.add_argument(
        "--substrates", nargs="+", default=["lm"], metavar="SUBSTRATE",
        help="workload classes to sweep (see --list-substrates); families "
             "are paired only with the substrates that can build them",
    )
    p.add_argument("--w-bits", nargs="+", type=int, default=[4])
    p.add_argument(
        "--act-bits", nargs="+", type=_act_bits, default=[None],
        help="activation bits per setting; 'none' = weight-only",
    )
    p.add_argument(
        "--group-sizes", nargs="+", type=_group_size, default=[None],
        help="quantization group sizes; 'none' = method default",
    )
    p.add_argument(
        "--outlier-formats", nargs="+", default=[None],
        choices=[None, "mx-fp", "mx-int", "none"],
        help="MicroScopiQ outlier format axis",
    )
    p.add_argument(
        "--calibrations", nargs="+", default=["sequential"],
        choices=list(CALIBRATION_MODES),
        help="engine calibration modes (the sequential-vs-parallel ablation)",
    )
    p.add_argument(
        "--archs", nargs="+", default=[], metavar="ARCH",
        help="accelerators to simulate (see --list-archs); adds one hardware "
             "job per valid substrate × family × arch combination (or, with "
             "--kind codesign, crosses into the quantization grid)",
    )
    p.add_argument(
        "--kind", default="auto", choices=["auto"] + list(JOB_KINDS),
        help="job kind: 'auto' (quantization grid + independent hardware "
             "axis), 'accuracy' / 'hw' (one side only), or 'codesign' "
             "(joint quantize → lift → simulate jobs: accuracy AND hardware "
             "metrics per cell from the same quantized weights)",
    )
    p.add_argument(
        "--codesign", action="store_true",
        help="shorthand for --kind codesign",
    )
    p.add_argument(
        "--prefills", nargs="+", type=int, default=[None], metavar="N",
        help="hardware grid axis: prompt tokens per prefill, enumerated "
             "like --w-bits (transformer workloads; ignored kernels are "
             "normalized out)",
    )
    p.add_argument(
        "--batches", nargs="+", type=int, default=[None], metavar="N",
        help="hardware grid axis: inputs per inference (CNN images / SSM "
             "sequences / GEMM vectors)",
    )
    p.add_argument(
        "--n-recons", nargs="+", type=int, default=[None], metavar="N",
        help="hardware grid axis: ReCoN units per array (archs with an "
             "n_recon knob)",
    )
    p.add_argument(
        "--param", action="append", default=[], metavar="[TARGET.]KEY=VALUE",
        help="set a schema-validated method or arch parameter (repeatable); "
             "unqualified keys route to every swept method/arch whose schema "
             "accepts them, 'gptq.damp_ratio=0.02' pins one target",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-sequences", type=int, default=32)
    p.add_argument("--eval-seq-len", type=int, default=32)


def _add_cache_backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-backend", default=None, choices=["auto", "dir", "sqlite"],
        help="result-cache storage backend: 'dir' (one JSON file per "
             "result, the default layout), 'sqlite' (indexed single-file "
             "store; faster clean/entries, safe concurrent writers), or "
             "'auto' (detect from the cache directory / "
             f"{BACKEND_ENV} env)",
    )


def _apply_cache_backend(args: argparse.Namespace) -> None:
    """Export the chosen backend so every ResultCache this process (and its
    pool workers) builds against the cache directory agrees on it."""
    if getattr(args, "cache_backend", None):
        os.environ[BACKEND_ENV] = args.cache_backend


def _add_server_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--server",
        default=os.environ.get("REPRO_SERVE_URL", "http://127.0.0.1:8642"),
        help="base URL of the repro-serve daemon (default: REPRO_SERVE_URL "
             "env, else http://127.0.0.1:8642)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Parallel, cached experiment sweeps over the MicroScopiQ reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run a (substrates × models × methods × settings) grid"
    )
    _add_grid_args(sweep)
    sweep.add_argument("--cache-dir", default=DEFAULT_CACHE)
    _add_cache_backend_arg(sweep)
    sweep.add_argument("--no-cache", action="store_true")
    sweep.add_argument(
        "--executor", default="auto", choices=["auto"] + sorted(EXECUTORS)
    )
    sweep.add_argument(
        "--coordinator", default=None, metavar="URL",
        help="repro-dist coordinator URL for --executor remote "
             "(default: REPRO_DIST_URL env)",
    )
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--recompute", action="store_true")
    sweep.add_argument(
        "--trace", action=argparse.BooleanOptionalAction, default=None,
        help="record a span tree for this sweep into the run ledger "
             "(--no-trace forces tracing off; default follows REPRO_TRACE)",
    )
    sweep.add_argument(
        "--metric", default="auto",
        help="metric column to pivot on; 'auto' uses each substrate's task "
             "metric (ppl / caption_score / top1 / nll)",
    )
    sweep.add_argument(
        "--pareto", nargs=2, metavar=("X", "Y"), default=None,
        help="print the per-family Pareto frontier over two metrics instead "
             "of the pivot table (e.g. --pareto auto energy_nj: quality vs. "
             "energy; only jobs carrying both metrics contribute)",
    )
    sweep.add_argument("--json", dest="json_out", metavar="PATH",
                       help="write per-job records as JSON")
    sweep.add_argument("--quiet", action="store_true")
    sweep.add_argument("--list-families", action="store_true",
                       help="print the known families per substrate and exit")
    sweep.add_argument("--list-methods", action="store_true",
                       help="print the method capability table (hessian? "
                            "act? per-tensor? substrates, params) and exit")
    sweep.add_argument("--list-substrates", action="store_true",
                       help="print the registered substrates and exit")
    sweep.add_argument("--list-archs", action="store_true",
                       help="print the accelerator registry (kind, precision "
                            "mix, substrates, params) and exit")
    sweep.add_argument("--list-plugins", action="store_true",
                       help="print entry-point/REPRO_PLUGINS-discovered "
                            "methods, substrates, and archs and exit")

    describe = sub.add_parser(
        "describe",
        help="print full parameter docs and capabilities of one method or arch",
    )
    describe.add_argument("name", help="a method or arch registry name")

    show = sub.add_parser("show", help="summarize the result cache")
    show.add_argument("--cache-dir", default=DEFAULT_CACHE)
    _add_cache_backend_arg(show)
    show.add_argument("--limit", type=int, default=20)

    report = sub.add_parser(
        "report", help="recent sweep runs from the run ledger"
    )
    report.add_argument("--cache-dir", default=DEFAULT_CACHE)
    report.add_argument("--limit", type=int, default=5,
                        help="how many recent runs to show")
    report.add_argument("--slowest", type=int, default=8,
                        help="slowest computed jobs per run")
    report.add_argument(
        "--json", dest="json_out", action="store_true",
        help="print the machine-readable history envelope instead of the "
             "human report (the exact payload repro-serve's /api/runs "
             "endpoint returns)",
    )

    trace_cmd = sub.add_parser(
        "trace", help="render one run's span tree (total/self times)"
    )
    trace_cmd.add_argument(
        "run_id", nargs="?", default="last",
        help="run id (or unique prefix) from 'report'; default: latest run",
    )
    trace_cmd.add_argument("--cache-dir", default=DEFAULT_CACHE)
    trace_cmd.add_argument("--max-depth", type=int, default=12)

    clean = sub.add_parser("clean", help="delete cached results")
    clean.add_argument("--cache-dir", default=DEFAULT_CACHE)
    _add_cache_backend_arg(clean)
    clean.add_argument(
        "--older-than", type=float, default=None, metavar="SECONDS",
        help="only remove entries older than this many seconds",
    )
    clean.add_argument(
        "--max-age-hours", type=float, default=None, metavar="HOURS",
        help="only remove entries older than this many hours",
    )

    submit = sub.add_parser(
        "submit",
        help="run the same grid through a repro-serve daemon instead of "
             "this process",
    )
    _add_grid_args(submit)
    _add_server_arg(submit)
    submit.add_argument("--label", default="",
                        help="free-form tag shown in the service's listings")
    submit.add_argument(
        "--executor", default=None, choices=["auto"] + sorted(EXECUTORS),
        help="executor the daemon should use (default: the daemon's own)",
    )
    submit.add_argument("--workers", type=int, default=None)
    submit.add_argument("--recompute", action="store_true")
    submit.add_argument(
        "--watch", action=argparse.BooleanOptionalAction, default=True,
        help="stream progress until the sweep finishes and print its "
             "results (--no-watch just prints the sweep id and returns)",
    )

    watch = sub.add_parser(
        "watch", help="stream a submitted sweep's live progress (SSE)"
    )
    watch.add_argument("sweep_id", help="id (or unique prefix) from 'submit'")
    _add_server_arg(watch)

    results = sub.add_parser(
        "results", help="fetch a finished sweep's merged results"
    )
    results.add_argument("sweep_id", help="id (or unique prefix) from 'submit'")
    _add_server_arg(results)
    results.add_argument("--metric", default="auto")
    results.add_argument(
        "--pareto", nargs=2, metavar=("X", "Y"), default=None,
        help="print the per-family Pareto frontier over two metrics instead "
             "of the pivot table",
    )
    results.add_argument("--json", dest="json_out", metavar="PATH",
                         help="write the full results payload as JSON")
    return parser


def _substrate_metric(substrate: str) -> str:
    from ..core.substrate import get_substrate

    return get_substrate(substrate).metric


# The promoted hardware grid axes: simulation/arch knobs that are ALSO
# enumerable sweep axes (like --w-bits), surfaced wherever schemas print.
_GRID_AXES = {"prefill": "--prefills", "batch": "--batches", "n_recon": "--n-recons"}
_GRID_AXES_NOTE = (
    "grid axes: "
    + ", ".join(f"{k} ({flag})" for k, flag in _GRID_AXES.items())
    + " enumerate like --w-bits; values are normalized out of jobs whose "
    "kernels ignore them"
)


def _print_method_table() -> None:
    """The capability table: one row per method, fp16 reference included."""
    from ..methods import METHODS

    header = ("method", "hessian", "act", "per-tensor", "packed", "group-knob",
              "substrates", "source")
    rows = [("fp16", "-", "-", "-", "-", "-", "all", "builtin")]
    schemas = [("fp16", "(no parameters — the full-precision reference)")]
    for name in sorted(METHODS):
        caps = METHODS[name].capabilities()
        rows.append((
            name,
            "yes" if caps["hessian"] else "-",
            "yes" if caps["act"] else "-",
            "yes" if caps["per_tensor"] else "-",
            "yes" if caps["packed"] else "-",
            caps["group_param"] or "-",
            caps["substrates"],
            caps["source"],
        ))
        schemas.append((name, caps["params"]))
    widths = [max(len(str(r[i])) for r in [header] + rows) + 2 for i in range(len(header))]
    print("methods:")
    print("  " + "".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  " + "".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print("\nparameters:")
    for name, schema in schemas:
        print(f"  {name}: {schema}")


def _print_arch_table() -> None:
    """The accelerator registry: one row per arch, schema lines below."""
    from ..hw import ARCHS, SIM_PARAMS

    header = ("arch", "kind", "precision-mix", "recon", "substrates",
              "version", "source")
    rows = []
    schemas = []
    for name in sorted(ARCHS):
        caps = ARCHS[name].capabilities()
        rows.append((
            name, caps["kind"], caps["mix"],
            "yes" if caps["recon"] else "-",
            caps["substrates"], caps["version"], caps["source"],
        ))
        schemas.append((name, caps["params"]))
    widths = [max(len(str(r[i])) for r in [header] + rows) + 2 for i in range(len(header))]
    print("archs:")
    print("  " + "".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  " + "".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print("\narch parameters:")
    for name, schema in schemas:
        print(f"  {name}: {schema}")
    print("\nshared simulation parameters (every arch):")
    print("  " + ", ".join(p.describe() for p in SIM_PARAMS))
    print(_GRID_AXES_NOTE)


def _print_plugin_listing() -> None:
    from ..plugins import loaded_plugins

    records = loaded_plugins()
    if not records:
        print("plugins: none discovered (entry-point groups repro.methods / "
              "repro.substrates / repro.hw, or REPRO_PLUGINS=module:attr,...)")
        return
    print("plugins:")
    for rec in records:
        if rec.ok:
            what = ", ".join(
                f"{kind} {name!r}" for kind, name in zip(rec.kinds, rec.registered)
            ) or "nothing registered"
            print(f"  {rec.source} [{rec.name}]: {what}")
        else:
            print(f"  {rec.source} [{rec.name}]: FAILED — {rec.error}")


def _print_listings(args: argparse.Namespace) -> bool:
    """Handle the discovery flags; returns True if any listing was printed."""
    from ..core.substrate import SUBSTRATES, substrate_families

    listed = False
    if args.list_substrates:
        print("substrates:")
        for name in sorted(SUBSTRATES):
            spec = SUBSTRATES[name]
            print(f"  {name:5s} metric={spec.metric:13s} {spec.paper_scope}")
        listed = True
    if args.list_families:
        print("families:")
        for name in sorted(SUBSTRATES):
            print(f"  {name}: {', '.join(substrate_families(name))}")
        listed = True
    if args.list_methods:
        _print_method_table()
        listed = True
    if args.list_archs:
        _print_arch_table()
        listed = True
    if args.list_plugins:
        _print_plugin_listing()
        listed = True
    return listed


def _print_params(params, indent: str = "  ") -> None:
    for p in params:
        kinds = "/".join(k.__name__ for k in p.kinds)
        line = f"{indent}{p.name} ({kinds}, default {p.default!r})"
        if p.choices is not None:
            line += f" choices={list(p.choices)}"
        if p.name in _GRID_AXES:
            line += f" [grid axis: {_GRID_AXES[p.name]}]"
        print(line)
        if p.doc:
            print(f"{indent}    {p.doc}")


def _cmd_describe(args: argparse.Namespace) -> int:
    """Full Param docs + capability flags of one method or arch."""
    from ..core.substrate import SUBSTRATES
    from ..hw import ARCHS, SIM_PARAMS
    from ..methods import METHODS

    name = args.name
    if name in METHODS:
        spec = METHODS[name]
        print(f"method {spec.name}: {spec.summary}")
        print(f"  source: {spec.source}"
              + (f", version {spec.version}" if spec.version else ""))
        caps = spec.capabilities()
        print(f"  capabilities: hessian={caps['hessian']} act={caps['act']} "
              f"per_tensor={caps['per_tensor']} packed={caps['packed']} "
              f"group_knob={caps['group_param'] or '-'}")
        if caps["packed"]:
            print("  codesign: exports packed layers — usable as the quant "
                  "stage of --kind codesign jobs")
        print(f"  substrates: {caps['substrates']}")
        print("  parameters:")
        _print_params(spec.params, "    ")
        return 0
    if name == "fp16":
        print("method fp16: the full-precision reference (no parameters)")
        return 0
    if name in ARCHS:
        spec = ARCHS[name]
        print(f"arch {spec.name}: {spec.summary}")
        print(f"  kind: {spec.kind}  source: {spec.source}"
              + (f", version {spec.version}" if spec.version else ""))
        if spec.kind == "systolic":
            mix = " + ".join(f"{frac:.0%} of layers at W{b}" for b, frac in spec.precision_mix)
            print(f"  precision mix: {mix}")
            print(f"  mac bits: {spec.mac_bits}  recon: {spec.uses_recon}  "
                  f"unaligned dram x{spec.unaligned_penalty}  "
                  f"decode {spec.decode_pj_per_mac} pJ/MAC")
            print(f"  ebw bits/weight: "
                  + ", ".join(f"W{b}={e}" for b, e in sorted(spec.ebw_by_bits.items())))
            if spec.area_builder is not None:
                print(f"  compute area (64x64 default): {spec.area_mm2:.4f} mm^2")
        else:
            print(f"  gpu kernel: {spec.gpu_method}")
        print(f"  substrates: all" if spec.supported_substrates is None
              else f"  substrates: {', '.join(spec.supported_substrates)}")
        print("  arch parameters:")
        _print_params(spec.params, "    ")
        print("  shared simulation parameters:")
        _print_params(SIM_PARAMS, "    ")
        print(f"  {_GRID_AXES_NOTE}")
        return 0
    if name in SUBSTRATES:
        spec = SUBSTRATES[name]
        print(f"substrate {spec.name}: {spec.paper_scope}")
        print(f"  metric: {spec.metric} "
              f"({'higher' if spec.higher_is_better else 'lower'} is better)")
        print(f"  families: {', '.join(spec.families())}")
        return 0
    known = sorted(set(METHODS) | set(ARCHS) | set(SUBSTRATES) | {"fp16"})
    print(f"error: unknown method/arch {name!r}; known: {', '.join(known)}",
          file=sys.stderr)
    return 2


def _print_pivot_table(table: dict) -> None:
    """Render a :meth:`SweepResult.pivot_table` payload — shared by the
    local ``sweep`` path and the service-backed ``results`` path (which
    gets the same dict over the wire)."""
    columns: List[str] = table.get("columns") or []
    rows: dict = table.get("rows") or {}
    if not columns:
        print("no successful jobs")
        return
    width = max(12, *(len(c) for c in columns)) + 2
    fam_w = max(8, *(len(f) for f in rows)) + 2
    print("family".ljust(fam_w) + "".join(c.rjust(width) for c in columns))
    for fam, row in rows.items():
        cells = []
        for c in columns:
            v = row.get(c)
            cells.append(("-" if v is None else f"{v:.3f}").rjust(width))
        print(fam.ljust(fam_w) + "".join(cells))


def _print_pivot(result, metric: str) -> None:
    # Columns are full settings ("rtn W2A16"), not bare method names — a
    # multi-bit sweep must not collapse its settings into one cell.
    # Per-outcome metric resolution (pivot_table's metric="auto") means
    # hardware jobs pivot on latency (GPU cost models on throughput),
    # accuracy and codesign jobs on the substrate's task metric.
    _print_pivot_table(result.pivot_table(metric))


def _print_pareto(result, x: str, y: str) -> None:
    frontiers = result.pareto(x, y)
    if not any(frontiers.values()):
        print(f"no jobs carry both {x!r} and {y!r} metrics "
              "(the Pareto view needs codesign-style jobs)")
        return
    for family, points in frontiers.items():
        if not points:
            continue
        xn, yn = points[0]["x_metric"], points[0]["y_metric"]
        print(f"{family} — Pareto frontier ({xn} vs {yn}), "
              f"{len(points)} non-dominated:")
        label_w = max(len(p["label"]) for p in points) + 2
        for p in points:
            print(f"  {p['label'].ljust(label_w)}"
                  f"{xn}={p['x']:.4g}  {yn}={p['y']:.4g}")


def _route_params(args: argparse.Namespace):
    """Turn repeated ``--param`` flags into SweepSpec parameter fields.

    Unqualified keys route by schema: to ``quant_kwargs`` when any swept
    method accepts them, to ``hw_kwargs`` when the simulator or a swept arch
    does (both when ambiguous — each side filters by schema). Qualified keys
    pin one method (``method_params``) or arch (``arch_params``).
    """
    plain, targeted = _parse_params(args.param)
    from ..hw import SIM_PARAMS, get_arch
    from .spec import _method_spec

    method_schemas: set = set()
    for m in args.methods:
        try:
            m_spec = _method_spec(m)
        except KeyError:
            continue  # SweepSpec reports unknown methods with the full list
        if m_spec is not None:
            method_schemas |= set(m_spec.param_schema())
    hw_schemas = {p.name for p in SIM_PARAMS}
    for a in args.archs:
        try:
            hw_schemas |= set(get_arch(a).param_schema())
        except KeyError:
            pass  # SweepSpec reports unknown archs with the full list
    quant_kwargs: dict = {}
    hw_kwargs: dict = {}
    for key, value in plain.items():
        routed = False
        if key in method_schemas:
            quant_kwargs[key] = value
            routed = True
        if key in hw_schemas and args.archs:
            hw_kwargs[key] = value
            routed = True
        if not routed:
            raise KeyError(
                f"--param key {key!r} is not a parameter of any swept "
                f"method or arch (use 'target.{key}=...' or check "
                f"'repro-sweep describe <name>')"
            )
    method_params: dict = {}
    arch_params: dict = {}
    for target, kw in targeted.items():
        if target in args.methods:
            method_params[target] = kw
        elif target in args.archs:
            arch_params[target] = kw
        else:
            raise KeyError(
                f"--param target {target!r} is not a swept method or arch "
                f"({', '.join([*args.methods, *args.archs]) or 'none swept'})"
            )
    return quant_kwargs, hw_kwargs, method_params, arch_params


def _grid_args_usable(args: argparse.Namespace) -> Optional[int]:
    """Shared up-front validation for ``sweep`` and ``submit``; returns an
    exit code when the grid flags can't make a sweep, else None."""
    if not args.families or not (args.methods or args.archs):
        print(
            "error: --families plus --methods and/or --archs are required "
            "(use --list-families / --list-methods / --list-archs / "
            "--list-substrates to discover valid names)",
            file=sys.stderr,
        )
        return 2
    if args.codesign and args.kind not in ("auto", "codesign"):
        print(
            f"error: --codesign contradicts --kind {args.kind}; drop one",
            file=sys.stderr,
        )
        return 2
    return None


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """One SweepSpec from the shared grid flags (raises the spec's own
    KeyError/ValueError on invalid axis values) — the single builder behind
    both the local and the service-backed sweep paths."""
    quant_kwargs, hw_kwargs, method_params, arch_params = _route_params(args)
    return SweepSpec(
        families=tuple(args.families),
        methods=tuple(args.methods),
        substrates=tuple(args.substrates),
        w_bits=tuple(args.w_bits),
        act_bits=tuple(args.act_bits),
        group_sizes=tuple(args.group_sizes),
        outlier_formats=tuple(f for f in args.outlier_formats),
        calibrations=tuple(args.calibrations),
        archs=tuple(args.archs) or (None,),
        kind="codesign" if args.codesign else args.kind,
        prefills=tuple(args.prefills),
        batches=tuple(args.batches),
        n_recons=tuple(args.n_recons),
        quant_kwargs=quant_kwargs,
        hw_kwargs=hw_kwargs,
        method_params=method_params,
        arch_params=arch_params,
        eval_sequences=args.eval_sequences,
        eval_seq_len=args.eval_seq_len,
        seed=args.seed,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if _print_listings(args):
        return 0
    code = _grid_args_usable(args)
    if code is not None:
        return code
    try:
        spec = _spec_from_args(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    _apply_cache_backend(args)
    if args.coordinator:
        from ..dist.remote import DIST_URL_ENV

        # Through the environment so the RemoteExecutor (and any process-pool
        # workers that end up dispatching stages) resolve the same fleet.
        os.environ[DIST_URL_ENV] = args.coordinator
    result = run_sweep(
        spec,
        cache_dir=None if args.no_cache else args.cache_dir,
        executor=args.executor,
        workers=args.workers,
        progress=not args.quiet,
        recompute=args.recompute,
        trace=args.trace,
    )
    t = result.telemetry
    stages = ""
    if t.get("quant_stage_hits") or t.get("hw_stage_hits"):
        stages = (
            f" · stage reuse: {t['quant_stage_hits']} quant, "
            f"{t['hw_stage_hits']} hw"
        )
    hs = t.get("hessian") or {}
    if any(hs.values()):
        stages += (
            f" · hessian: {hs.get('hits', 0)} hits, "
            f"{hs.get('disk_hits', 0)} disk, {hs.get('misses', 0)} misses, "
            f"{hs.get('factorizations', 0)} factorizations"
        )
    print(
        f"{t['done']}/{t['total']} jobs · {t['cache_hits']} cache hits · "
        f"{t['failures']} failures · {t['elapsed_s']:.2f}s wall "
        f"({t['jobs_per_s']:.2f} jobs/s, executor={t['executor']}, "
        f"workers≤{args.workers or default_workers()})" + stages
    )
    if t.get("run_id"):
        print(f"run {t['run_id']} appended to "
              f"{args.cache_dir}/runs/runs.jsonl (see 'repro-sweep report')")
    if args.pareto:
        _print_pareto(result, args.pareto[0], args.pareto[1])
    else:
        _print_pivot(result, args.metric)
    for o in result.failures():
        print(f"FAILED {o.job.label}: {o.error['type']}: {o.error['message']}",
              file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump({"telemetry": t, "records": result.records()}, f, indent=2)
        print(f"wrote {args.json_out}")
    return 1 if result.failures() else 0


def _cmd_show(args: argparse.Namespace) -> int:
    _apply_cache_backend(args)
    cache = ResultCache(args.cache_dir)
    stats = cache.stats()
    print(f"cache {stats['root']} [{cache.backend_name}]: "
          f"{stats['entries']} results, {stats['bytes']} bytes")
    for i, record in enumerate(cache.entries()):
        if i >= args.limit:
            print(f"... ({stats['entries'] - args.limit} more)")
            break
        metrics = record.get("metrics") or {}
        substrate = (record.get("job") or {}).get("substrate", "lm")
        try:
            metric = _substrate_metric(substrate)
        except KeyError:
            metric = "ppl"
        value = metrics.get(metric)
        line = f"  {record.get('hash', '?')[:12]}  {record.get('label', '?'):40s}"
        if value is not None:
            line += f"  {metric}={value:.3f}"
        print(line)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..obs import RunLedger, render_run

    ledger = RunLedger(ResultCache(args.cache_dir).root / "runs")
    if args.json_out:
        # The same envelope repro-serve's /api/runs endpoint returns — one
        # record shape for the human report, the service, and tooling.
        print(json.dumps(ledger.history(limit=args.limit), indent=2))
        return 0
    runs = ledger.runs(limit=args.limit)
    if not runs:
        print(f"no runs recorded yet under {ledger.root} "
              "(any cached 'repro-sweep sweep' appends one)")
        return 0
    total = len(ledger)
    print(f"{total} run(s) in {ledger.path}; showing {len(runs)} most recent")
    for record in runs:
        print()
        for line in render_run(record, slowest=args.slowest):
            print(line)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..obs import RunLedger, render_span_tree

    ledger = RunLedger(ResultCache(args.cache_dir).root / "runs")
    record = ledger.get(args.run_id)
    if record is None:
        print(f"error: no run matching {args.run_id!r} in {ledger.path} "
              "(ids and unique prefixes accepted; see 'repro-sweep report')",
              file=sys.stderr)
        return 2
    print(f"run {record.get('run_id', '?')} · executor="
          f"{record.get('executor', '?')} · wall {record.get('wall_s', 0.0):.2f}s")
    for line in render_span_tree(record.get("spans"), max_depth=args.max_depth):
        print(line)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    if args.older_than is not None and args.max_age_hours is not None:
        print("error: pass --older-than or --max-age-hours, not both",
              file=sys.stderr)
        return 2
    older_than = args.older_than
    if args.max_age_hours is not None:
        older_than = args.max_age_hours * 3600.0
    from ..methods.resources import HessianStore

    from ..obs import RunLedger

    _apply_cache_backend(args)
    cache = ResultCache(args.cache_dir)
    removed = cache.clean(older_than=older_than)
    # The Hessian blob tier lives beside the records, under the same policy.
    # hessian_tier_target() routes to the matching layout — the blob
    # directory for the dir backend, the indexed hessians.db for sqlite —
    # so an age-based purge is one indexed query there, not a tree walk.
    blobs = HessianStore.clean_disk(cache.hessian_tier_target(), older_than=older_than)
    # The run ledger ages out under the same policy too — otherwise
    # runs.jsonl grows without bound while the results it indexes vanish.
    ledger_removed = RunLedger(cache.root / "runs").compact(older_than=older_than)
    print(f"removed {removed} cached results from {cache.root} "
          f"[{cache.backend_name}]"
          + (f" and {blobs} hessian blobs" if blobs else "")
          + (f"; compacted {ledger_removed} ledger records" if ledger_removed
             else ""))
    return 0


def _print_watch_event(event: dict) -> bool:
    """One line per progress event; returns True on a terminal state."""
    kind = event.get("event")
    if kind == "job":
        if not event.get("ok", True):
            how = f"FAILED ({event.get('error_type') or 'Error'})"
        elif event.get("attached"):
            how = "attached"
        elif event.get("from_cache"):
            how = "cached"
        else:
            how = f"computed in {event.get('seconds', 0.0):.2f}s"
        print(f"[{event.get('done')}/{event.get('total')}] "
              f"{event.get('label')} — {how}")
    elif kind == "state":
        state = event.get("state")
        print(f"state: {state}"
              + (f" ({event.get('error')})" if event.get("error") else ""))
        return state in ("done", "failed", "cancelled")
    elif kind == "end":
        s = event.get("summary") or {}
        print(f"{s.get('done')}/{s.get('total')} jobs · "
              f"{s.get('cache_hits')} cache hits · "
              f"{s.get('attached', 0)} attached · "
              f"{s.get('failures')} failures · {s.get('elapsed_s')}s wall")
    return False


def _watch_to_completion(client, sweep_id: str) -> int:
    """Follow one submission's SSE stream, then print its results."""
    from ..serve.client import ServeError

    state = None
    for event in client.events(sweep_id):
        if _print_watch_event(event):
            state = event.get("state")
    if state is None:
        state = client.status(sweep_id)["state"]
    if state != "done":
        return 1
    payload = client.result(sweep_id)
    _print_pivot_table(payload["pivot"])
    run_id = (payload.get("telemetry") or {}).get("run_id")
    if run_id:
        print(f"run {run_id} appended to the daemon's run ledger")
    try:
        return 0 if not (payload.get("telemetry") or {}).get("failures") else 1
    except ServeError:  # pragma: no cover - defensive
        return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    code = _grid_args_usable(args)
    if code is not None:
        return code
    from ..serve.client import ServeClient, ServeError

    try:
        spec = _spec_from_args(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    client = ServeClient(args.server)
    try:
        accepted = client.submit(
            spec,
            label=args.label,
            executor=args.executor,
            workers=args.workers,
            recompute=args.recompute,
        )
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {accepted['sweep_id']} "
          f"({accepted['n_jobs']} jobs, digest "
          f"{accepted['spec_digest'][:12]}) to {args.server}")
    if not args.watch:
        print(f"follow with: repro-sweep watch {accepted['sweep_id']} "
              f"--server {args.server}")
        return 0
    return _watch_to_completion(client, accepted["sweep_id"])


def _cmd_watch(args: argparse.Namespace) -> int:
    from ..serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    try:
        return _watch_to_completion(client, args.sweep_id)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_results(args: argparse.Namespace) -> int:
    from ..serve.client import ServeClient, ServeError

    client = ServeClient(args.server)
    try:
        payload = client.result(
            args.sweep_id,
            metric=args.metric,
            pareto=tuple(args.pareto) if args.pareto else None,
        )
    except ServeError as exc:
        hint = ""
        if exc.status == 409:
            hint = (" (still running — 'repro-sweep watch "
                    f"{args.sweep_id}' follows it)")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    if args.pareto:
        frontiers = payload.get("pareto") or {}
        if not any(frontiers.values()):
            print(f"no jobs carry both {args.pareto[0]!r} and "
                  f"{args.pareto[1]!r} metrics")
        for family, points in frontiers.items():
            if not points:
                continue
            xn, yn = points[0]["x_metric"], points[0]["y_metric"]
            print(f"{family} — Pareto frontier ({xn} vs {yn}), "
                  f"{len(points)} non-dominated:")
            label_w = max(len(p["label"]) for p in points) + 2
            for p in points:
                print(f"  {p['label'].ljust(label_w)}"
                      f"{xn}={p['x']:.4g}  {yn}={p['y']:.4g}")
    else:
        _print_pivot_table(payload["pivot"])
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json_out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from ..plugins import load_plugins

    load_plugins()  # plugin methods/substrates become first-class axis values
    args = build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "show":
        return _cmd_show(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "clean":
        return _cmd_clean(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "results":
        return _cmd_results(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
