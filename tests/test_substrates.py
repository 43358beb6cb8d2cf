"""Protocol-conformance battery: every registered substrate must pass.

The :data:`repro.core.substrate.SUBSTRATES` registry promises that each
entry (LM / VLM / CNN / SSM) implements the linear-layer protocol, exposes
valid calibration groups, quantizes re-entrantly through the engine with
results bit-identical to the plain per-layer serial walk, and evaluates to
its declared task metric through ``evaluate_setting``.
"""

import re

import numpy as np
import pytest

from repro.baselines.registry import get_quantizer
from repro.core.substrate import (
    SUBSTRATES,
    Substrate,
    _cnn_bundle,
    _lm_task_labels,
    _ssm_bundle,
    _vlm_bundle,
    calibration_groups,
    get_substrate,
    known_substrates,
    substrate_families,
    substrate_for_model,
)
from repro.eval.corpus import eval_corpus
from repro.eval.harness import evaluate_setting, quantize_model
from repro.quant.engine import HessianStore

# Smallest family per substrate, to keep the battery fast.
SMALL_FAMILY = {
    "lm": "opt-6.7b",
    "vlm": "vila-7b",
    "cnn": "resnet50",
    "ssm": "vmamba-s",
}

# Malformed, out-of-range and misspelled linear names each substrate must
# reject rather than mis-parse or silently skip.
UNKNOWN_LINEARS = {
    "lm": ["wq", "layers.x.wq", "layers.9.wq", "layers.0.wz"],
    "vlm": ["layers.9.wq"],
    "cnn": ["conv9", "conv"],
    "ssm": ["w_nope"],
}

# The per-process cached evaluation inputs of each substrate.
EVAL_INPUTS = {
    "lm": lambda model: (eval_corpus(model), _lm_task_labels(model.profile.name, "piqa")),
    "vlm": lambda model: _vlm_bundle(model.profile.name),
    "cnn": lambda model: _cnn_bundle(model.profile.name),
    "ssm": lambda model: _ssm_bundle(model.profile.name),
}


def _arrays(tree):
    """Every ndarray in nested tuples and lists."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from _arrays(item)


@pytest.fixture(scope="module", params=sorted(SUBSTRATES))
def sub(request):
    return SUBSTRATES[request.param]


@pytest.fixture(scope="module")
def model(sub):
    m = sub.build(SMALL_FAMILY[sub.name])
    yield m
    m.clear_overrides()


class TestRegistry:
    def test_all_four_substrates_registered(self):
        assert set(known_substrates()) == {"lm", "vlm", "cnn", "ssm"}

    def test_get_substrate_raises_with_known_list(self):
        with pytest.raises(KeyError, match="known:"):
            get_substrate("gnn")

    def test_families_nonempty_and_buildable(self, sub):
        fams = substrate_families(sub.name)
        assert SMALL_FAMILY[sub.name] in fams

    def test_owns_resolves_back(self, sub, model):
        assert substrate_for_model(model) is sub


class TestProtocol:
    def test_isinstance_substrate(self, model):
        assert isinstance(model, Substrate)

    def test_calibration_shapes(self, sub, model):
        """Every linear gets 2-D activations matching its input width."""
        acts = model.collect_calibration(sub.calibration(model))
        assert set(acts) == set(model.linear_names)
        for name in model.linear_names:
            a = acts[name]
            assert a.ndim == 2
            assert a.shape[1] == model.weights[name].shape[1], name
            assert a.shape[0] > 0

    def test_collect_calibration_rejects_unknown_names(self, sub, model):
        calib = sub.calibration(model)
        for bad in UNKNOWN_LINEARS[sub.name]:
            with pytest.raises(KeyError, match=re.escape(repr(bad))):
                model.collect_calibration(calib, names=[model.linear_names[0], bad])

    @pytest.mark.parametrize("inputs", ["calibration", "evaluation"])
    def test_cached_inputs_read_only(self, sub, model, inputs):
        """Every job in a process is handed the same cached arrays, so an
        in-place write must fail instead of changing later jobs' inputs."""
        get = sub.calibration if inputs == "calibration" else EVAL_INPUTS[sub.name]
        arrays = list(_arrays(get(model)))
        assert arrays
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1

    def test_groups_partition_linear_names_in_order(self, sub, model):
        groups = calibration_groups(model)
        flat = [n for g in groups for n in g]
        assert flat == list(model.linear_names)

    def test_group_members_calibration_invariant(self, sub, model):
        """The property parallel dispatch relies on: a group member's
        calibration inputs must not change when its co-members' overrides
        are installed."""
        calib = sub.calibration(model)
        model.clear_overrides()
        before = model.collect_calibration(calib)
        rng = np.random.default_rng(0)
        for group in calibration_groups(model):
            if len(group) < 2:
                continue
            model.clear_overrides()
            for name in group:
                w = model.weights[name]
                model.set_override(name, w + rng.normal(0, 0.05, w.shape))
            after = model.collect_calibration(calib)
            for name in group:
                assert np.array_equal(before[name], after[name]), name
        model.clear_overrides()


class TestQuantizeModel:
    def test_reentrant_and_clearing(self, sub, model):
        quantize_model(model, "rtn", 2, calib=sub.calibration(model))
        first = {n: model.overrides[n].copy() for n in model.linear_names}
        quantize_model(model, "rtn", 4, calib=sub.calibration(model))
        assert set(model.overrides) == set(model.linear_names)
        assert any(
            not np.array_equal(first[n], model.overrides[n])
            for n in model.linear_names
        )
        model.clear_overrides()
        assert not model.overrides and not model.act_quant

    def test_engine_bit_identical_to_serial_walk(self, sub, model):
        """Grouped collection and shape batching must reproduce the
        pre-refactor per-layer walk exactly, per-layer dequant compared
        bit for bit."""
        calib = sub.calibration(model)
        quantizer = get_quantizer("microscopiq")
        model.clear_overrides()
        ref = {}
        for name in model.linear_names:
            acts = model.collect_calibration(calib)[name]
            result = quantizer(model.weights[name], acts, bits=4)
            model.set_override(name, result.dequant)
            ref[name] = result.dequant
        model.clear_overrides()
        quantize_model(model, "microscopiq", 4, calib=calib, hessian_store=HessianStore())
        for name in model.linear_names:
            assert np.array_equal(model.overrides[name], ref[name]), name
        model.clear_overrides()


class TestJobIdentity:
    def test_corpus_shape_normalized_for_fixed_bundle_substrates(self, sub):
        """eval_sequences/eval_seq_len only hash on substrates that use them
        — a fixed-bundle job must share its cache entry regardless of the
        LM corpus flags."""
        from repro.pipeline import ExperimentSpec

        fam = SMALL_FAMILY[sub.name]
        a = ExperimentSpec(family=fam, substrate=sub.name, method="rtn",
                           eval_sequences=8, eval_seq_len=24)
        b = ExperimentSpec(family=fam, substrate=sub.name, method="rtn")
        if sub.uses_corpus_shape:
            assert a.key() != b.key()
        else:
            assert a.key() == b.key()


class TestEvaluateSetting:
    def test_fp_metrics_carry_substrate_metric(self, sub):
        metrics = evaluate_setting(
            SMALL_FAMILY[sub.name], substrate=sub.name, method="fp16"
        )
        assert metrics["substrate"] == sub.name
        assert np.isfinite(metrics[sub.metric])

    def test_quantization_moves_metric_the_documented_way(self, sub):
        fam = SMALL_FAMILY[sub.name]
        fp = evaluate_setting(fam, substrate=sub.name, method="fp16")
        q = evaluate_setting(fam, substrate=sub.name, method="rtn", w_bits=2)
        assert "mean_ebw" in q
        if sub.higher_is_better:
            assert q[sub.metric] < fp[sub.metric]
        else:
            assert q[sub.metric] > fp[sub.metric]

    def test_kv_bits_rejected_off_lm(self, sub):
        if sub.name == "lm":
            pytest.skip("kv_bits is the LM knob")
        with pytest.raises(ValueError, match="kv_bits"):
            evaluate_setting(
                SMALL_FAMILY[sub.name], substrate=sub.name, method="rtn",
                w_bits=4, kv_bits=4,
            )
