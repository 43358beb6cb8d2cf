"""Tests for the first-class method API: specs, validation, lifecycle,
HessianBundle factor reuse, and the engine/pipeline integration of both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.methods import (
    METHODS,
    HessianBundle,
    HessianStore,
    LayerContext,
    MethodParamError,
    MethodSpec,
    MethodSubstrateError,
    Quantizer,
    get_method,
    known_method_names,
)
from repro.models import build_model
from repro.quant.engine import quantize_model


class TestRegistry:
    def test_all_eleven_builtins_registered(self):
        assert known_method_names() == sorted(
            [
                "rtn", "gptq", "awq", "smoothquant", "omniquant", "atom",
                "sdq", "olive", "gobo", "microscopiq", "omni-microscopiq",
            ]
        )

    def test_specs_are_method_specs_with_quantizer_factories(self):
        for name in known_method_names():
            spec = get_method(name)
            assert isinstance(spec, MethodSpec)
            q = spec.make()
            assert isinstance(q, Quantizer)  # structural protocol check

    def test_capability_flags_match_engine_expectations(self):
        """The flags that replaced the engine's hard-coded method sets."""
        hessian = {n for n in METHODS if METHODS[n].needs_hessian}
        assert hessian == {"gptq", "atom", "microscopiq", "omni-microscopiq"}
        act = {n for n in METHODS if METHODS[n].act_aware}
        assert act == {"smoothquant", "omniquant", "atom", "microscopiq", "omni-microscopiq"}
        # Migration methods rescale calibration per α: no precomputed H in WA mode.
        assert not METHODS["microscopiq"].hessian_with_act
        assert METHODS["gptq"].hessian_with_act
        assert METHODS["rtn"].supports_per_tensor
        assert METHODS["gobo"].group_param is None
        assert METHODS["microscopiq"].group_param == "macro_block"
        assert METHODS["gptq"].group_param == "group_size"

    def test_builtins_support_every_substrate(self):
        from repro.core.substrate import SUBSTRATES

        for name in known_method_names():
            for sub in SUBSTRATES:
                assert METHODS[name].supports_substrate(sub)


class TestParamValidation:
    def test_unknown_param_lists_schema(self):
        with pytest.raises(MethodParamError, match=r"unknown parameter.*'warp'"):
            get_method("rtn").validate_params({"warp": 9})
        # The error names the actual schema so the fix is self-evident.
        with pytest.raises(MethodParamError, match=r"group_size=128"):
            get_method("rtn").validate_params({"warp": 9})

    def test_type_and_choice_violations(self):
        with pytest.raises(MethodParamError, match="expects int"):
            get_method("gptq").validate_params({"group_size": "big"})
        with pytest.raises(MethodParamError, match="must be one of"):
            get_method("microscopiq").validate_params({"outlier_format": "ascii"})
        with pytest.raises(MethodParamError, match="got bool"):
            get_method("gptq").validate_params({"group_size": True})

    def test_valid_params_pass_through(self):
        params = {"group_size": 64, "damp_ratio": 0.02}
        assert get_method("gptq").validate_params(params) == params

    def test_engine_rejects_unknown_kwarg_before_any_work(self):
        """The satellite fix: unknown kwargs used to thread through **kwargs
        and die (or vanish) deep in the kernel; now the engine front door
        rejects them with the schema."""
        model = build_model("opt-6.7b")
        with pytest.raises(MethodParamError, match="schema"):
            quantize_model(model, "rtn", 4, warp_drive=1)
        assert not model.overrides  # nothing was touched

    def test_experiment_spec_rejects_unknown_param_at_build_time(self):
        from repro.pipeline import ExperimentSpec

        with pytest.raises(MethodParamError, match="rtn"):
            ExperimentSpec(family="opt-6.7b", method="rtn", quant_kwargs={"bogus": 1})

    def test_experiment_spec_rejects_unknown_method(self):
        from repro.pipeline import ExperimentSpec

        with pytest.raises(KeyError, match="unknown method"):
            ExperimentSpec(family="opt-6.7b", method="warp-drive")

    def test_sweep_rejects_quant_kwarg_no_method_accepts(self):
        from repro.pipeline import SweepSpec

        with pytest.raises(KeyError, match="not a parameter of any"):
            SweepSpec(
                families=("opt-6.7b",),
                methods=("rtn", "gptq"),
                quant_kwargs={"macro_bloc": 64},  # typo'd MicroScopiQ knob
            )

    def test_sweep_routes_shared_kwargs_per_method_schema(self):
        from repro.pipeline import SweepSpec

        sweep = SweepSpec(
            families=("opt-6.7b",),
            methods=("rtn", "gptq"),
            quant_kwargs={"damp_ratio": 0.02},  # gptq-only knob
        )
        by_method = {s.method: dict(s.quant_kwargs) for s in sweep.specs()}
        assert by_method["gptq"] == {"damp_ratio": 0.02}
        assert by_method["rtn"] == {}


class TestSubstrateCapability:
    def _lm_only_spec(self) -> MethodSpec:
        rtn = get_method("rtn")
        return MethodSpec(
            name="rtn-lm-only",
            summary="rtn restricted to the lm substrate (test double)",
            make=rtn.make,
            params=rtn.params,
            supported_substrates=("lm",),
        )

    def test_engine_refuses_wrong_substrate(self):
        from repro.models.cnn import build_cnn

        spec = self._lm_only_spec()
        net = build_cnn("resnet50")
        with pytest.raises(MethodSubstrateError, match="does not support"):
            quantize_model(net, spec, 4)
        model = build_model("opt-6.7b")
        quantize_model(model, spec, 4)  # the supported pair still works
        assert model.overrides
        model.clear_overrides()

    def test_spec_build_refuses_wrong_substrate(self):
        from repro.methods import register_method
        from repro.pipeline import ExperimentSpec

        spec = self._lm_only_spec()
        register_method(spec)
        try:
            with pytest.raises(MethodSubstrateError, match="does not support"):
                ExperimentSpec(family="resnet50", substrate="cnn", method=spec.name)
            ExperimentSpec(family="opt-6.7b", substrate="lm", method=spec.name)
        finally:
            del METHODS[spec.name]

    def test_sweep_skips_invalid_method_substrate_pairs(self):
        from repro.methods import register_method
        from repro.pipeline import SweepSpec

        spec = self._lm_only_spec()
        register_method(spec)
        try:
            sweep = SweepSpec(
                families=("opt-6.7b", "resnet50"),
                methods=("rtn", spec.name),
                substrates=("lm", "cnn"),
            )
            cells = {(s.substrate, s.method) for s in sweep.specs()}
            assert ("lm", spec.name) in cells
            assert ("cnn", "rtn") in cells
            assert ("cnn", spec.name) not in cells  # skipped, like bad families
        finally:
            del METHODS[spec.name]


class TestHessianBundle:
    def test_factors_lazy_and_computed_once(self):
        acts = np.random.default_rng(0).normal(0, 1, (64, 16))
        bundle = HessianBundle(acts, 0.01)
        assert bundle.h_builds == 0 and bundle.inversions == 0
        h1, h2 = bundle.h, bundle.h
        assert h1 is h2 and bundle.h_builds == 1
        assert bundle.acts is None  # activations released once H exists
        assert bundle.inversions == 0  # still nothing inverted
        d1 = bundle.hinv_diag
        u1 = bundle.u_factor
        assert bundle.inversions == 1  # hinv shared by diag and factor
        assert bundle.factorizations == 1
        assert d1 is bundle.hinv_diag and u1 is bundle.u_factor

    def test_factors_match_reference_functions(self):
        from repro.quant.hessian import (
            cholesky_inverse_factor,
            inverse_hessian,
            layer_hessian,
        )

        acts = np.random.default_rng(1).normal(0, 1, (64, 16))
        bundle = HessianBundle(acts, 0.02)
        h = layer_hessian(acts, 0.02)
        assert np.array_equal(bundle.h, h)
        assert np.array_equal(bundle.hinv, inverse_hessian(h))
        assert np.array_equal(bundle.hinv_diag, np.diag(inverse_hessian(h)))
        assert np.array_equal(bundle.u_factor, cholesky_inverse_factor(h))

    def test_wrap_raw_matrix(self):
        h = np.eye(4) * 2.0
        bundle = HessianBundle.wrap(h)
        assert bundle.h is h and bundle.h_builds == 0
        assert HessianBundle.wrap(bundle) is bundle

    def test_needs_some_source(self):
        with pytest.raises(ValueError, match="needs"):
            HessianBundle()

    @pytest.mark.parametrize("damp", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("method", ["gptq", "atom", "microscopiq", "omni-microscopiq"])
    def test_bad_damping_raises_through_every_hessian_method(self, method, damp):
        rng = np.random.default_rng(3)
        w, x = rng.normal(0, 1, (16, 64)), rng.normal(0, 1, (40, 64))
        with pytest.raises(ValueError, match="damp_ratio"):
            get_method(method).quantize(w, x, bits=4, damp_ratio=damp)

    def test_store_bundle_identity_across_settings(self):
        store = HessianStore()
        acts = np.random.default_rng(2).normal(0, 1, (32, 8))
        b1 = store.bundle(acts, 0.01)
        b2 = store.bundle(acts.copy(), 0.01)
        assert b1 is b2 and store.misses == 1 and store.hits == 1
        assert store.bundle(acts, 0.05) is not b1  # damp is part of the key


class TestFactorReuseAcrossSettings:
    def test_two_setting_sweep_reinverts_zero_hessians(self):
        """The ROADMAP item this API closes: the second setting of a
        same-calibration sweep must not invert (or re-factorize) anything —
        every O(d³) factor comes out of the first setting's bundles."""
        model = build_model("opt-6.7b")
        store = HessianStore()
        quantize_model(model, "gptq", 4, calibration="parallel", hessian_store=store)
        inv_after_first = store.inversions
        fact_after_first = store.factorizations
        assert inv_after_first > 0 and fact_after_first > 0
        quantize_model(model, "gptq", 2, calibration="parallel", hessian_store=store)
        assert store.misses == len(store)  # no new Hessians either
        assert store.inversions == inv_after_first, "second setting re-inverted"
        assert store.factorizations == fact_after_first, "second setting re-factorized"
        model.clear_overrides()

    def test_microscopiq_shares_factors_with_gptq(self):
        """One bundle serves different methods at the same (calib, damp):
        gptq's Cholesky is microscopiq's Cholesky."""
        model = build_model("opt-6.7b")
        store = HessianStore()
        quantize_model(model, "gptq", 4, calibration="parallel", hessian_store=store)
        inversions = store.inversions
        quantize_model(model, "microscopiq", 4, calibration="parallel", hessian_store=store)
        assert store.misses == len(store)
        assert store.inversions == inversions  # reused, not recomputed
        model.clear_overrides()


class TestLifecycle:
    def test_prepare_resolves_bundle_from_store(self, weights, calib):
        spec = get_method("gptq")
        store = HessianStore()
        q = spec.make()
        ctx = LayerContext(
            name="w", weights=weights, calib_inputs=calib,
            w_bits=4, params={"bits": 4}, hessian_store=store, spec=spec,
        )
        res = q.prepare(ctx)
        assert res.hessian is store.bundle(calib, 0.01)
        assert store.misses == 1

    def test_prepare_skips_bundle_in_migration_mode(self, weights, calib):
        """hessian_with_act=False: MicroScopiQ's α migration rescales the
        calibration, so WA mode must not consume a precomputed bundle."""
        spec = get_method("microscopiq")
        store = HessianStore()
        q = spec.make()
        ctx = LayerContext(
            name="w", weights=weights, calib_inputs=calib,
            w_bits=4, act_bits=8, params={"bits": 4, "act_bits": 8},
            hessian_store=store, spec=spec,
        )
        res = q.prepare(ctx)
        assert res.hessian is None and len(store) == 0

    def test_one_shot_quantize_rejects_act_bits_on_weight_only_method(self, weights):
        with pytest.raises(MethodParamError, match="weight-only"):
            get_method("rtn").quantize(weights, None, bits=4, act_bits=8)

    def test_config_object_and_flat_fields_are_exclusive(self, weights, calib):
        from repro.quant import MicroScopiQConfig

        spec = get_method("microscopiq")
        with pytest.raises(MethodParamError, match="not both"):
            spec.quantize(
                weights, calib, bits=4,
                config=MicroScopiQConfig(inlier_bits=4), micro_block=16,
            )

    def test_flat_config_fields_inherit_w_bits(self, weights, calib):
        """Pipeline-style flat fields default inlier_bits to the setting's
        weight bits — the old harness _split_quant_kwargs contract."""
        from repro.quant import MicroScopiQConfig, quantize_matrix

        spec = get_method("microscopiq")
        res = spec.quantize(weights, calib, bits=2, micro_block=16)
        ref = quantize_matrix(
            weights, calib, MicroScopiQConfig(inlier_bits=2, micro_block=16)
        )
        assert np.array_equal(res.dequant, ref.dequant)
