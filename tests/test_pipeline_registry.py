"""Every registered baseline must round-trip through a 1-job pipeline sweep.

This is the registry's integration contract: a name in
``repro.methods.known_method_names()`` is only useful if the orchestration
layer can build the model, quantize with it, evaluate it, and cache the
result without special-casing. Any signature drift in a baseline (renamed
kwargs, broken ``BaselineResult`` fields) surfaces here as a failed job with
the captured traceback.
"""

from __future__ import annotations

import math

import pytest

from repro.methods import known_method_names
from repro.pipeline import ExperimentSpec, run_sweep

FAMILY = "opt-6.7b"  # smallest analog — keeps the full registry pass cheap
CHEAP = dict(eval_sequences=8, eval_seq_len=24)


@pytest.fixture(scope="module")
def fp_ppl():
    result = run_sweep([ExperimentSpec(family=FAMILY, **CHEAP)], executor="serial")
    return result.outcomes[0].metrics["ppl"]


@pytest.mark.parametrize("method", sorted(known_method_names()))
def test_registry_method_round_trips_through_pipeline(method, fp_ppl, tmp_path):
    spec = ExperimentSpec(family=FAMILY, method=method, w_bits=4, **CHEAP)
    result = run_sweep([spec], cache_dir=str(tmp_path), executor="serial")

    outcome = result.outcomes[0]
    assert outcome.ok, f"{method} failed: {outcome.error}"
    metrics = outcome.metrics
    assert math.isfinite(metrics["ppl"]) and metrics["ppl"] > 0
    # 4-bit weight-only quantization cannot beat the FP reference by more
    # than numeric noise, and must not be catastrophically broken either.
    assert metrics["ppl"] > fp_ppl * 0.98
    assert metrics["ppl"] < fp_ppl * 50
    assert 0 < metrics["mean_ebw"] <= 16.0

    # The result must have been persisted under its content address...
    rerun = run_sweep([spec], cache_dir=str(tmp_path), executor="serial")
    assert rerun.hit_rate == 1.0
    # ...and replay bit-identically.
    assert rerun.outcomes[0].metrics == metrics
