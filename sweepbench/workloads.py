"""The benchmark's three sweep grids and how their outputs are checked.

Each workload stresses a different layer of the stack, so that a gain on
one layer shows on the workload built for it and reads "no change" on the
others:

* ``accuracy`` — quantization + evaluation only (``quant.engine``,
  ``eval``); the simulator does no work;
* ``hw-grid`` — accelerator simulation only (``hw.sim``, ``hw.systolic``);
  nothing is quantized, and its many cheap jobs make its replay the
  heaviest user of the per-job pipeline path (hashing, cache reads, ledger);
* ``codesign`` — both, joined through the two-phase stage scheduler.

This module imports nothing heavy at import time: the orchestrator
(``run.py``) reads the names from it without loading ``repro``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed the committed reference outputs were generated with.
REFERENCE_SEED = 0

#: Relative tolerance for quantization-derived metrics: BLAS builds differ
#: by ~1e-15 in GPTQ/Atom weights, far below this; a real numerics change
#: moves perplexity by orders of magnitude more.
QUANT_RTOL = 1e-9

LM_GEOMETRIES = (
    "opt-6.7b", "llama2-7b", "llama2-13b", "llama2-70b", "llama3-8b", "phi3-3.8b",
)
SYSTOLIC_ARCHS = (
    "microscopiq-v1", "microscopiq-v2", "olive", "gobo", "olaccel", "ant",
    "adaptivfloat",
)
GPU_ARCHS = ("gpu-ms-optim", "gpu-atom-w4a4")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``SweepSpec`` keyword arguments (the seed is added per run).
    axes: Tuple[Tuple[str, Any], ...]
    #: 0.0 = every output must equal the reference exactly (the simulator is
    #: deterministic integer/float arithmetic with no BLAS reductions).
    rtol: float
    #: Output keys the sweep seed reaches (the bootstrap standard error);
    #: every other output must match the reference under any seed.
    seed_keys: Tuple[str, ...]

    def spec(self, seed: int):
        from repro.pipeline import SweepSpec

        return SweepSpec(seed=seed, **dict(self.axes))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="accuracy",
            axes=(
                ("families", ("opt-6.7b", "llama2-13b")),
                ("methods", ("microscopiq", "gptq", "atom", "rtn")),
                ("w_bits", (2, 4)),
                ("kind", "accuracy"),
            ),
            rtol=QUANT_RTOL,
            seed_keys=("nll_se",),
        ),
        Workload(
            name="hw-grid",
            axes=(
                ("families", LM_GEOMETRIES),
                ("methods", ()),
                ("archs", SYSTOLIC_ARCHS + GPU_ARCHS),
                ("prefills", (1, 32, 128)),
                ("n_recons", (1, 2, 4)),
                ("kind", "hw"),
            ),
            rtol=0.0,
            seed_keys=(),
        ),
        Workload(
            name="codesign",
            axes=(
                ("families", ("opt-6.7b",)),
                ("methods", ("microscopiq", "omni-microscopiq")),
                ("w_bits", (2, 4)),
                ("archs", ("microscopiq-v1", "microscopiq-v2")),
                ("n_recons", (1, 2, 4)),
                ("prefills", (1, 32, 128)),
                ("kind", "codesign"),
            ),
            rtol=QUANT_RTOL,
            seed_keys=("nll_se",),
        ),
    )
}


# ------------------------------------------------------------- references

def outputs_by_label(result) -> Dict[str, Any]:
    """``{job label: metrics}`` of a finished sweep, as JSON would store it.

    Labels, not job hashes, key the reference: a later change that rolls
    the hash epoch must still be checked against the same numbers.
    """
    out: Dict[str, Any] = {}
    for outcome in result.outcomes:
        label = outcome.job.label
        if label in out:
            raise ValueError(f"duplicate job label {label!r} in sweep")
        out[label] = outcome.metrics
    return json.loads(json.dumps(out, sort_keys=True))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Optional[Dict[str, Any]]:
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_reference(workload: str, seed: int, outputs: Dict[str, Any]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One job per line keeps the file small and its diffs readable.
    rows = ",\n".join(
        f" {json.dumps(label)}: {json.dumps(outputs[label], sort_keys=True)}"
        for label in sorted(outputs)
    )
    path.write_text(f'{{"seed": {seed}, "outputs": {{\n{rows}\n}}}}\n')
    return path


def compare_outputs(expected: Any, actual: Any, rtol: float, where: str = "") -> List[str]:
    """Every difference between two JSON trees, as readable lines.

    Integers, strings, booleans and ``None`` must match exactly; floats
    within ``rtol`` (``0.0`` = exact).
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs: List[str] = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{where}/{key}"
            if key not in actual:
                diffs.append(f"{sub}: missing")
            elif key not in expected:
                diffs.append(f"{sub}: unexpected")
            else:
                diffs.extend(compare_outputs(expected[key], actual[key], rtol, sub))
        return diffs
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare_outputs(e, a, rtol, f"{where}[{i}]"))
        return diffs
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
                and not isinstance(expected, bool) and not isinstance(actual, bool):
            if expected == actual or (
                rtol > 0 and math.isclose(actual, expected, rel_tol=rtol, abs_tol=0.0)
            ):
                return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def check_reference(workload: Workload, seed: int, outputs: Dict[str, Any]) -> List[str]:
    """Differences between a cold sweep's outputs and the committed
    reference; the seed-dependent keys are compared only under the
    reference seed."""
    ref = load_reference(workload.name)
    if ref is None:
        return [f"no reference committed at {reference_path(workload.name)}"]
    drop = set(workload.seed_keys) if seed != ref["seed"] else set()

    def results(tree: Dict[str, Any]) -> Dict[str, Any]:
        # ``*_hash`` outputs are content addresses, not results: the
        # repository's own hash goldens pin them.
        return {
            label: {
                k: v for k, v in (m or {}).items() if k not in drop and not k.endswith("_hash")
            }
            for label, m in tree.items()
        }

    return compare_outputs(results(ref["outputs"]), results(outputs), workload.rtol)
