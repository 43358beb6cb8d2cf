"""Steady single-process sweep benchmark for the MicroScopiQ reproduction.

Run from the root of a checkout (no build step; ``src`` is put on the path
of every interpreter it starts)::

    python3 sweepbench/run.py --workload accuracy --seed 0 --seconds 45 --trace 0
    python3 sweepbench/run.py --workload all            # every workload, untraced
    python3 sweepbench/run.py --workload hw-grid --trace 1
    python3 sweepbench/run.py --workload codesign --update-reference

Each workload is a ``SweepSpec`` grid (``workloads.py``) run through the
public ``run_sweep(spec, cache_dir=<empty dir>, executor="serial",
trace=False)``. Every sample is a fresh interpreter, one at a time, so one
process is ever busy and BLAS keeps its default pool:

* ``--trace 0`` — set-up samples (fresh interpreter → ``repro`` imported,
  spec built and enumerated, cache opened), then cold sweeps against empty
  caches, each followed by warm re-runs of the same grid, as many as fit in
  ``--seconds``. It prints the end-to-end metrics: ``sweep_s``, ``cpu_s``
  and ``peak_rss_mb`` (means over the cold sweeps), ``replay_s`` (the
  fastest warm pass) and ``setup_s`` (the fastest set-up).
* ``--trace 1`` — one cold sweep and one warm pass with each layer's public
  functions wrapped from outside (``spans.py``), plus ``-X importtime``
  set-up rows and an untraced cold sweep for the tracing overhead. It prints
  the per-layer metrics.

A run fails — exit 1, ``"correct": false`` and no numbers — if a job fails,
a warm pass's outputs are not bit-identical to the cold sweep's, samples
disagree, or the cold outputs differ from ``reference/<workload>.json``.
An interpreter of the program that crashes fails the run the same way. A
run that cannot measure (no ``src/repro``, a timeout) exits 2 without a
result. Otherwise the last stdout line is the JSON result; the lines above
it are a readable report stamped with the code and toolchain it ran on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import DERIVED, IMPORTS, LAYERS, per_layer_metrics  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("replay_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Inherited settings that would change what a run measures.
SCRUBBED_ENV = (
    "REPRO_KERNEL", "REPRO_TRACE", "REPRO_HESSIAN_DIR", "REPRO_CACHE_BACKEND",
    "REPRO_PLUGINS", "REPRO_SERVE_URL", "REPRO_SERVE_TOKEN", "REPRO_DIST_URL",
)

#: Fresh interpreters timed for ``setup_s``; the run reports their minimum.
#: Like a warm pass (``replay_s`` is the run's fastest), a set-up is short
#: and has a floor that a busy neighbour only adds to: on a shared 2-vCPU
#: host one interpreter took 0.33-0.62 s, and across sets of runs the
#: minimum of 7 moved less than their median.
SETUP_SAMPLES = 7
#: ``-X importtime`` interpreters in a traced run (median per module).
IMPORTTIME_SAMPLES = 3


def run_deadline(seconds: float) -> float:
    """Seconds after which a run gives up (exit 2)."""
    return 2 * seconds + 70


class BenchError(RuntimeError):
    """The benchmark could not measure (not a correctness failure)."""


class ProgramFailure(RuntimeError):
    """The program under test crashed or printed no result: a correctness
    failure of the program, not of the benchmark."""

    def __init__(self, message: str, jobs: int) -> None:
        super().__init__(message)
        self.jobs = jobs  # jobs the crashed interpreter was to run


@dataclass
class Measured:
    """One run's figures, before they are reported."""

    metrics: Dict[str, Tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    errors: List[str]
    stamp: Dict[str, Any]
    detail: Dict[str, Any] = field(default_factory=dict)


class Checkout:
    """The tree the benchmark measures, and the fresh interpreters it runs."""

    def __init__(self, root: Path, tmp: Path, seconds: float) -> None:
        self.root = root
        self.tmp = tmp
        self.start = time.perf_counter()
        self.deadline = self.start + run_deadline(seconds)
        self.attempted = 0  # jobs dispatched by the interpreters that finished
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(tmp)
        self.env = env
        self._caches = 0

    def fresh_cache(self) -> str:
        self._caches += 1
        return str(self.tmp / f"cache-{self._caches}")

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded {self.deadline - self.start:.0f} s")
        return left

    def run_quiet(self, argv: List[str]) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env, text=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=self.remaining(),
        )
        if proc.returncode != 0:
            raise ProgramFailure(
                f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}", jobs=0
            )
        return proc

    def worker(self, mode: str, workload: str, seed: int, *extra: str):
        """Start ``worker.py``; return (set-up seconds, result or None).

        The worker writes ``ready <jobs>`` once set up. An interpreter that
        exits non-zero or without its result is a :class:`ProgramFailure`.
        """
        argv = [str(BENCH_DIR / "worker.py"), mode, "--workload", workload,
                "--seed", str(seed), "--cache", self.fresh_cache(), *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=self.root, env=self.env, text=True,
            stdout=subprocess.PIPE,
        )
        try:
            if not select.select([proc.stdout], [], [], self.remaining())[0]:
                raise BenchError(f"worker {mode} {workload} never became ready")
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        parts = ready.split()
        was_ready = len(parts) == 2 and parts[0] == "ready" and parts[1].isdigit()
        lines = rest.strip().splitlines()
        if not was_ready or proc.returncode != 0 or (mode != "setup" and not lines):
            jobs = int(parts[1]) if was_ready else 0
            raise ProgramFailure(f"worker {mode} {workload} exited {proc.returncode}", jobs)
        result = json.loads(lines[-1]) if lines else None
        if result is not None:
            self.attempted += result["attempted"]
        return setup_s, result


def source_identity(root: Path) -> Dict[str, str]:
    """The git commit when there is one, and always a digest of ``src``."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    commit = "none"
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10,
            )
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


# ----------------------------------------------------------------- modes

def measure_untraced(co: Checkout, workload: str, seed: int, seconds: float) -> Measured:
    setups = [co.worker("setup", workload, seed)[0] for _ in range(SETUP_SAMPLES)]
    samples: List[Dict[str, Any]] = []
    while True:
        t = time.perf_counter()
        samples.append(co.worker("sweep", workload, seed)[1])
        one = time.perf_counter() - t
        # ``--seconds`` counts from the run's start; a sample that would
        # not end inside it, judged by the last one, is not started.
        if samples[-1]["errors"] or co.elapsed() + one > seconds:
            break
    errors = [e for s in samples for e in s["errors"]]
    if len({s["digest"] for s in samples}) != 1:
        errors.append("cold sweeps in fresh interpreters disagree")
    mean = statistics.mean
    passes = [p for s in samples for p in s["replay_passes"]]
    metrics = {
        "sweep_s": mean([s["sweep_s"] for s in samples]),
        "cpu_s": mean([s["cpu_s"] for s in samples]),
        "replay_s": min(passes),
        "setup_s": min(setups),
        "peak_rss_mb": mean([s["peak_rss_mb"] for s in samples]),
    }
    units = dict(END_TO_END)
    return Measured(
        metrics={k: (v, units[k]) for k, v in metrics.items()},
        attempted=sum(s["attempted"] for s in samples),
        failed=sum(s["failed"] for s in samples),
        errors=errors,
        stamp=samples[0]["stamp"],
        detail={
            "cold sweeps (s)": " ".join(f"{s['sweep_s']:.3f}" for s in samples),
            "warm passes": len(passes),
            "setup samples": len(setups),
        },
    )


def import_times(co: Checkout) -> Dict[str, float]:
    """Cumulative import seconds per module from ``python -X importtime``."""
    runs: Dict[str, List[float]] = {name: [] for _, name in IMPORTS}
    wanted = dict(IMPORTS)
    for _ in range(IMPORTTIME_SAMPLES):
        err = co.run_quiet(["-X", "importtime", "-c", "import repro"]).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                runs[wanted[parts[2].strip()]].append(int(parts[1]) / 1e6)
    missing = [name for name, vals in runs.items() if len(vals) != IMPORTTIME_SAMPLES]
    if missing:
        raise BenchError(f"-X importtime reported no row for {missing}")
    return {name: statistics.median(vals) for name, vals in runs.items()}


def measure_traced(co: Checkout, workload: str, seed: int, trace_out: Path) -> Measured:
    imports = import_times(co)
    _, base = co.worker("sweep", workload, seed, "--replay-share", "0", "--min-replays", "1")
    _, traced = co.worker("traced", workload, seed)
    errors = base["errors"] + traced["errors"]
    if base["digest"] != traced["digest"]:
        errors.append("traced outputs differ from untraced outputs")
    m = dict(traced["metrics"])
    m.update(imports)
    m["trace.overhead_s"] = m["trace.sweep_s"] - base["sweep_s"]
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps({"workload": workload, "seed": seed,
                                     "spans": traced["spans"]}) + "\n")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    if set(m) != set(units):
        raise BenchError(f"traced metrics mismatch: {sorted(set(m) ^ set(units))}")
    return Measured(
        metrics={k: (m[k], units[k]) for k, _, _ in per_layer_metrics()},
        attempted=base["attempted"] + traced["attempted"],
        failed=base["failed"] + traced["failed"],
        errors=errors,
        stamp=traced["stamp"],
        detail={"spans": len(traced["spans"]),
                "span file": str(trace_out.relative_to(co.root))},
    )


def update_reference(co: Checkout, workload: str, seed: int) -> int:
    if seed != REFERENCE_SEED:
        print(f"references are generated with --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    _, res = co.worker("sweep", workload, seed, "--write-reference",
                       "--replay-share", "0", "--min-replays", "1")
    for e in res["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print(f"wrote sweepbench/reference/{workload}.json")
    return 1 if res["errors"] else 0


# ---------------------------------------------------------------- output

def report(
    workload: str, seed: int, traced: bool, res: Measured, ident: Dict[str, str]
) -> Dict[str, Any]:
    """Print the readable report; return the JSON result line's object."""
    correct = not res.errors and res.failed == 0
    print(f"== sweepbench {workload} seed={seed} trace={int(traced)}")
    print("   " + " ".join(f"{k}={v}" for k, v in {**ident, **res.stamp}.items()))
    print("   " + ", ".join(f"{k}: {v}" for k, v in res.detail.items()))
    print(f"   jobs attempted: {res.attempted}   jobs failed: {res.failed}")
    notes = {f"{layer.name}.{key}": "-> " + ",".join(layer.feeds)
             for layer in LAYERS for key in ("calls", "total_s", "self_s")}
    notes.update({name: "= " + base for name, _, _, base in DERIVED})
    notes.update({name: "-> setup_s" for _, name in IMPORTS})
    for name, (value, unit) in res.metrics.items():
        note = f"  {notes[name]}" if name in notes else ""
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"   {name:<44} {shown} {unit}{note}")
    for e in res.errors:
        print(f"   CORRECTNESS: {e}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    return {
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics if correct else {},
    }


def check_config(root: Path) -> None:
    """BENCHMARK.json, when present, must list this code's metrics exactly
    and only workloads this code defines."""
    path = root / "BENCHMARK.json"
    if not path.exists():
        return
    cfg = json.loads(path.read_text())
    unknown = {w["name"] for w in cfg["workloads"]} - set(WORKLOADS)
    if unknown:
        raise BenchError(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in cfg["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in cfg["per_layer"]],
    }
    actual = {"end_to_end": list(END_TO_END), "per_layer": per_layer_metrics()}
    for key in declared:
        if declared[key] != actual[key]:
            raise BenchError(f"BENCHMARK.json {key} do not match sweepbench's code")


def run_all(args) -> int:
    """Every workload, untraced, each in its own interpreter."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0}
        totals["correct"] &= bool(res["correct"]) and proc.returncode == 0
        totals["attempted"] += res["attempted"]
        totals["failed"] += res["failed"]
        for k, v in res.get("metrics", {}).items():
            totals["metrics"][f"{name}.{k}"] = v
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    # A SIGTERM unwinds like an error, so the interpreter running at the
    # time is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite reference/<workload>.json from one cold sweep")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("sweepbench: run from the root of a repro checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    try:
        check_config(root)
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    state = root / ".sweepbench"
    tmp = state / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    co = Checkout(root, tmp, args.seconds)
    try:
        co.run_quiet(["-c", "import repro"])  # untimed: writes the bytecode cache
        if args.update_reference:
            return update_reference(co, args.workload, args.seed)
        if args.trace:
            result = measure_traced(co, args.workload, args.seed,
                                    state / f"trace-{args.workload}.json")
        else:
            result = measure_untraced(co, args.workload, args.seed, args.seconds)
        out = report(args.workload, args.seed, bool(args.trace), result, source_identity(root))
    except ProgramFailure as exc:
        print(f"sweepbench: CORRECTNESS: {exc}", file=sys.stderr)
        lost = max(1, exc.jobs)  # the crashed interpreter's jobs count as failed
        out = {"correct": False, "attempted": co.attempted + lost, "failed": lost, "metrics": {}}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
