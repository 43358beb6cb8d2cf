"""Tests for the model substrates (transformer LM, generator, VLM, CNN, SSM)."""

import numpy as np
import pytest

from repro.models import (
    MODEL_FAMILIES,
    build_cnn,
    build_model,
    build_ssm,
    build_vlm,
    im2col,
    linear_names,
    make_weight,
    plant_outliers,
)
from repro.baselines.registry import get_quantizer
from repro.core.substrate import _vlm_bundle, calibration_groups, get_substrate
from repro.eval.perplexity import nll_per_sequence
from repro.models.transformer import TransformerLM, _rmsnorm, _silu, _softmax
from repro.models.vlm import CAPTION_LEN
from repro.quant import outlier_stats
from repro.quant.activation import ActivationQuantizer
from repro.quant.engine import HessianStore, quantize_model


@pytest.fixture(scope="module")
def lm():
    return build_model("llama3-8b")


class TestGenerator:
    def test_all_families_present(self):
        assert len(MODEL_FAMILIES) == 10  # the ten Table 2 columns

    def test_outlier_rate_close_to_profile(self):
        rng = np.random.default_rng(0)
        w = make_weight(256, 512, rng, outlier_pct=2.0, adjacent_pct=0.4)
        stats = outlier_stats(w)
        assert 1.0 < stats.outlier_pct < 4.0

    def test_adjacent_pairs_planted(self):
        rng = np.random.default_rng(1)
        w = make_weight(256, 512, rng, outlier_pct=2.0, adjacent_pct=0.5)
        stats = outlier_stats(w)
        assert stats.adjacent_outlier_pct > 0.1

    def test_opt_has_fewer_adjacent_than_llama3(self):
        """Fig. 2(a): OPT-era models have ~2 orders fewer adjacent
        outliers than modern FMs."""
        opt = build_model("opt-6.7b")
        llama = build_model("llama3-8b")

        def adj(m):
            return np.mean(
                [outlier_stats(w).adjacent_outlier_pct for w in m.weights.values()]
            )

        assert adj(opt) < adj(llama) / 5

    def test_plant_outliers_in_place(self):
        rng = np.random.default_rng(2)
        w = rng.normal(0, 1, (64, 64))
        out = plant_outliers(w, 2.0, 0.0, rng)
        assert out is w


class TestTransformerLM:
    def test_logit_shape(self, lm):
        tokens = np.zeros((2, 10), dtype=np.int64)
        assert lm.forward(tokens).shape == (2, 10, lm.profile.vocab)

    def test_causality(self, lm):
        """Changing a future token must not change past logits."""
        rng = np.random.default_rng(0)
        t1 = rng.integers(0, lm.profile.vocab, (1, 12))
        t2 = t1.copy()
        t2[0, -1] = (t2[0, -1] + 1) % lm.profile.vocab
        l1 = lm.forward(t1)
        l2 = lm.forward(t2)
        assert np.allclose(l1[0, :-1], l2[0, :-1])
        assert not np.allclose(l1[0, -1], l2[0, -1])

    def test_linear_names_cover_all_weights(self, lm):
        assert set(lm.linear_names) == set(lm.weights)
        assert lm.linear_names == linear_names(lm.profile.n_layers)

    def test_override_changes_output(self, lm):
        tokens = np.zeros((1, 8), dtype=np.int64)
        base = lm.forward(tokens)
        name = lm.linear_names[0]
        lm.set_override(name, np.zeros_like(lm.weights[name]))
        changed = lm.forward(tokens)
        lm.clear_overrides()
        assert not np.allclose(base, changed)
        assert np.allclose(lm.forward(tokens), base)

    def test_override_shape_checked(self, lm):
        with pytest.raises(ValueError):
            lm.set_override(lm.linear_names[0], np.zeros((2, 2)))

    def test_override_unknown_name(self, lm):
        with pytest.raises(KeyError):
            lm.set_override("nope", np.zeros((2, 2)))

    def test_calibration_capture_shapes(self, lm):
        tokens = np.zeros((2, 6), dtype=np.int64)
        acts = lm.collect_calibration(tokens)
        assert set(acts) == set(lm.linear_names)
        d = lm.profile.d_model
        assert acts["layers.0.wq"].shape == (12, d)
        assert acts["layers.0.w2"].shape == (12, lm.profile.d_ff)

    def test_sampling_deterministic_per_seed(self, lm):
        a = lm.sample(2, 6, np.random.default_rng(42))
        b = lm.sample(2, 6, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            build_model("gpt-5")

    def test_build_model_honours_max_len(self):
        lm = build_model("opt-6.7b", max_len=256)
        tokens = np.zeros((1, 200), dtype=np.int64)
        assert lm.forward(tokens).shape == (1, 200, lm.profile.vocab)

    def test_positions_past_max_len_rejected(self):
        lm = build_model("opt-6.7b")
        n = lm.max_len
        with pytest.raises(ValueError, match="max_len"):
            lm.forward(np.zeros((1, n + 1), dtype=np.int64))
        with pytest.raises(ValueError, match="max_len"):
            lm.sample(2, n + 2, np.random.default_rng(0))
        # The last token needs no position of its own.
        assert lm.sample(2, n + 1, np.random.default_rng(0)).shape == (2, n + 1)


class TestCnn:
    def test_im2col_matches_direct_conv(self):
        """im2col GEMM must equal an explicit 3x3 same-pad convolution."""
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (2, 3, 8, 8))
        w = rng.normal(0, 1, (5, 3 * 9))
        cols = im2col(x)
        out = (cols @ w.T).reshape(2, 8, 8, 5).transpose(0, 3, 1, 2)
        # direct conv at an interior pixel
        kernel = w.reshape(5, 3, 3, 3)  # [c_out, ki, kj, c_in] per im2col order
        i, j = 4, 5
        ref = np.zeros(5)
        for di in range(3):
            for dj in range(3):
                ref += kernel[:, di, dj, :] @ x[0, :, i + di - 1, j + dj - 1]
        assert np.allclose(out[0, :, i, j], ref)

    def test_predict_shape(self):
        cnn = build_cnn("resnet50")
        rng = np.random.default_rng(1)
        imgs = rng.normal(0, 1, (4, 3, 16, 16))
        assert cnn.predict(imgs).shape == (4,)

    def test_calibration_capture(self):
        cnn = build_cnn("vgg16")
        rng = np.random.default_rng(2)
        acts = cnn.collect_calibration(rng.normal(0, 1, (2, 3, 16, 16)))
        assert set(acts) == set(cnn.linear_names)

    def test_overrides(self):
        cnn = build_cnn("resnet50")
        rng = np.random.default_rng(3)
        imgs = rng.normal(0, 1, (4, 3, 16, 16))
        base = cnn.forward(imgs)
        cnn.set_override("conv0", np.zeros_like(cnn.weights["conv0"]))
        assert not np.allclose(base, cnn.forward(imgs))
        cnn.clear_overrides()
        assert np.allclose(base, cnn.forward(imgs))


class TestSsm:
    def test_forward_shape(self):
        ssm = build_ssm("vmamba-s")
        rng = np.random.default_rng(0)
        seqs = rng.normal(0, 1, (4, 24, 64))
        assert ssm.forward(seqs).shape == (4, 10)

    def test_recurrence_compounds_error(self):
        """The SSM's defining fragility: a weight perturbation hurts more
        at longer sequence lengths (relative output change grows)."""
        ssm = build_ssm("vmamba-s")
        rng = np.random.default_rng(1)
        seqs = rng.normal(0, 1, (8, 24, 64))
        base_long = ssm.forward(seqs)
        base_short = ssm.forward(seqs[:, :4, :])
        w = ssm.weights["w_gate_a"]
        ssm.set_override("w_gate_a", w + rng.normal(0, 0.05, w.shape))
        pert_long = ssm.forward(seqs)
        pert_short = ssm.forward(seqs[:, :4, :])
        ssm.clear_overrides()
        rel_long = np.linalg.norm(pert_long - base_long) / np.linalg.norm(base_long)
        rel_short = np.linalg.norm(pert_short - base_short) / np.linalg.norm(base_short)
        assert rel_long > rel_short

    def test_calibration_capture(self):
        ssm = build_ssm("vim-s")
        rng = np.random.default_rng(2)
        acts = ssm.collect_calibration(rng.normal(0, 1, (2, 24, 56)))
        assert set(acts) == set(ssm.linear_names)


class TestVlm:
    def test_caption_generation_shape(self):
        vlm = build_vlm("vila-7b")
        rng = np.random.default_rng(0)
        shots = [(rng.normal(0, 1, (3, 48)), rng.integers(0, 160, (3, 6)))]
        query = rng.normal(0, 1, (3, 48))
        caps = vlm.generate_captions(shots, query)
        assert caps.shape == (3, 6)

    def test_shots_change_output(self):
        vlm = build_vlm("vila-7b")
        rng = np.random.default_rng(1)
        query = rng.normal(0, 1, (3, 48))
        c0 = vlm.generate_captions([], query)
        shots = [(rng.normal(0, 1, (3, 48)), rng.integers(0, 160, (3, 6)))]
        c1 = vlm.generate_captions(shots, query)
        assert not np.array_equal(c0, c1)

    def test_quantization_protocol(self):
        vlm = build_vlm("llava1.5-7b")
        assert set(vlm.linear_names) == set(vlm.weights)


# 2- and 3-block LMs and a VLM: the substrates whose targeted calibration
# resumes from a recorded residual stream.
RESUMABLE = [("lm", "opt-6.7b"), ("lm", "llama2-13b"), ("vlm", "vila-7b")]


@pytest.fixture(params=RESUMABLE, ids=[family for _, family in RESUMABLE])
def resumable(request):
    """A fresh model and its default calibration set, sampled up front."""
    sub = get_substrate(request.param[0])
    model = sub.build(request.param[1])
    return model, sub.calibration(model)


@pytest.fixture
def linear_calls(monkeypatch):
    """Names passed to ``TransformerLM._linear`` from here on, in order."""
    calls = []
    linear = TransformerLM._linear

    def spy(self, name, x, capture):
        calls.append(name)
        return linear(self, name, x, capture)

    monkeypatch.setattr(TransformerLM, "_linear", spy)
    return calls


def _perturb(model, group, rng):
    """Install fresh random overrides and act quantizers on ``group``."""
    for name in group:
        w = model.weights[name]
        model.set_override(name, w + rng.normal(0, 0.05, w.shape))
        model.act_quant[name] = ActivationQuantizer(None, 8)


def _assert_targeted_equals_full(model, calib, group):
    part = model.collect_calibration(calib, names=group)
    full = model.collect_calibration(calib)
    assert list(part) == list(group)
    for name in group:
        assert np.array_equal(part[name], full[name]), name


def _copy_of(calib):
    """An equal calibration input that is a distinct object."""
    if isinstance(calib, tuple):
        return (calib[0], calib[1].copy())
    return calib.copy()


def _other_than(calib):
    """A calibration input of the same shape with different content."""
    if isinstance(calib, tuple):
        return (calib[0], -calib[1])
    return calib[:, ::-1].copy()


class TestCalibrationResume:
    """Targeted ``collect_calibration`` resumes from the residual stream it
    recorded at an earlier group's block: never stale, always bit-identical
    to the full collection, O(L) block passes per sequential quantize."""

    def test_forward_walk_bit_identical(self, resumable):
        model, calib = resumable
        rng = np.random.default_rng(0)
        for group in calibration_groups(model):
            _assert_targeted_equals_full(model, calib, group)
            _perturb(model, group, rng)

    def _record_block_one(self, model, calib, rng):
        """Walk block 0's groups as the engine does, then collect block 1's
        first group (recording the stream entering block 1)."""
        groups = calibration_groups(model)
        for group in groups[:4]:
            model.collect_calibration(calib, names=group)
            _perturb(model, group, rng)
        _assert_targeted_equals_full(model, calib, groups[4])
        return groups[5:]

    def test_resumes_without_rerunning_earlier_blocks(self, resumable, linear_calls):
        model, calib = resumable
        rest = self._record_block_one(model, calib, np.random.default_rng(1))
        del linear_calls[:]
        model.collect_calibration(calib, names=rest[0])
        assert linear_calls == [f"layers.1.{w}" for w in ("wq", "wk", "wv", "wo")]

    def test_earlier_override_or_act_quantizer_replaced(self, resumable):
        model, calib = resumable
        rng = np.random.default_rng(2)
        rest = self._record_block_one(model, calib, rng)
        w = model.weights["layers.0.wo"]
        model.set_override("layers.0.wo", w + rng.normal(0, 0.05, w.shape))
        _assert_targeted_equals_full(model, calib, rest[0])
        model.act_quant["layers.0.w2"] = ActivationQuantizer(None, 4)
        _assert_targeted_equals_full(model, calib, rest[1])

    def test_clear_overrides(self, resumable):
        model, calib = resumable
        rest = self._record_block_one(model, calib, np.random.default_rng(3))
        model.clear_overrides()
        _assert_targeted_equals_full(model, calib, rest[0])

    def test_distinct_calibration_object(self, resumable, linear_calls):
        model, calib = resumable
        rest = self._record_block_one(model, calib, np.random.default_rng(4))
        del linear_calls[:]
        _assert_targeted_equals_full(model, _copy_of(calib), rest[0])
        assert linear_calls[0] == "layers.0.wq"  # restarted at the embedding
        _assert_targeted_equals_full(model, _other_than(calib), rest[1])

    def test_kv_quantizer_replaced(self):
        model = build_model("opt-6.7b")
        calib = get_substrate("lm").calibration(model)
        rest = self._record_block_one(model, calib, np.random.default_rng(5))
        model.kv_quant = lambda k, v: (np.round(k, 1), np.round(v, 1))
        _assert_targeted_equals_full(model, calib, rest[0])

    def test_reversed_groups_match_per_layer_walk(self, resumable):
        """Groups out of forward order: a record past a group's first block
        is never used, and the engine equals the per-layer walk done in
        the same order."""
        model, calib = resumable
        groups = list(reversed(calibration_groups(model)))
        quantizer = get_quantizer("microscopiq")
        ref = {}
        for group in groups:
            for name in group:
                acts = model.collect_calibration(calib)[name]
                result = quantizer(model.weights[name], acts, bits=4)
                model.set_override(name, result.dequant)
                ref[name] = result.dequant
        quantize_model(
            model, "microscopiq", 4, calib=calib, groups=groups,
            hessian_store=HessianStore(),
        )
        for name in model.linear_names:
            assert np.array_equal(model.overrides[name], ref[name]), name

    def test_sequential_quantize_linear_in_depth(self, resumable, linear_calls):
        """At most 28 linear calls per block (the O(L²) replay from block 0
        made 84 on 2 blocks and 168 on 3)."""
        model, calib = resumable
        quantize_model(model, "rtn", 4, calib=calib)
        assert len(linear_calls) <= 28 * model.profile.n_layers


def _sample_reference(model, n_sequences, seq_len, rng):
    """``TransformerLM.sample`` without a key/value cache: the forward over
    the whole prefix for every new token."""
    v = model.profile.vocab
    tokens = rng.integers(0, v, size=(n_sequences, 1))
    for _ in range(seq_len - 1):
        logits = model.forward(tokens)[:, -1, :]
        probs = _softmax(logits, axis=-1)
        nxt = np.array(
            [rng.choice(v, p=probs[i]) for i in range(n_sequences)]
        )[:, None]
        tokens = np.concatenate([tokens, nxt], axis=1)
    return tokens


def _captions_reference(vlm, shots, query_feats, length=CAPTION_LEN):
    """``VisionLanguageModel.generate_captions`` without a key/value cache:
    the forward over the whole sequence for every new caption token."""
    b = query_feats.shape[0]
    caption = np.zeros((b, 0), dtype=np.int64)
    for _ in range(length):
        h0 = vlm._embed_sequence(shots, query_feats, caption)
        logits = vlm._forward_embeddings(h0)[:, -1, :]
        nxt = np.argmax(logits, axis=-1)[:, None]
        caption = np.concatenate([caption, nxt], axis=1)
    return caption


def _assert_logits_close(step, full):
    """The golden-snapshot tolerance: 64 ulp of the largest logit."""
    tol = 64 * np.finfo(np.float64).eps * np.max(np.abs(full))
    assert np.max(np.abs(step - full)) <= tol


@pytest.fixture
def linear_rows(monkeypatch):
    """Rows (batch x positions) of every input to ``TransformerLM._linear``
    from here on."""
    rows = []
    linear = TransformerLM._linear

    def spy(self, name, x, capture):
        rows.append(x.shape[0] * x.shape[1])
        return linear(self, name, x, capture)

    monkeypatch.setattr(TransformerLM, "_linear", spy)
    return rows


class TestCachedDecoding:
    """``sample`` and ``generate_captions`` decode with a key/value cache:
    one block pass per new token, the same tokens as the uncached loop."""

    @pytest.mark.parametrize("family", list(MODEL_FAMILIES))
    def test_samples_equal_uncached_loop(self, family):
        model = build_model(family)
        cached = model.sample(4, 24, np.random.default_rng(3))
        assert np.array_equal(cached, _sample_reference(model, 4, 24, np.random.default_rng(3)))

    @pytest.mark.parametrize("family", ["opt-6.7b", "llama2-13b"])
    @pytest.mark.parametrize(
        "n, s, offset", [(32, 32, 7_000), (24, 32, 9_000)], ids=["eval", "calib"]
    )
    def test_benchmark_corpora_equal_uncached_loop(self, family, n, s, offset):
        model = build_model(family)
        seed = model.profile.seed + offset
        cached = model.sample(n, s, np.random.default_rng(seed))
        assert np.array_equal(cached, _sample_reference(model, n, s, np.random.default_rng(seed)))

    @pytest.mark.parametrize("family", list(MODEL_FAMILIES))
    def test_decode_logits_within_tolerance_of_forward(self, family):
        model = build_model(family)
        tokens = np.random.default_rng(4).integers(0, model.profile.vocab, (3, 32))
        cache = {}
        for t in range(tokens.shape[1]):
            step = model._decode(model.embed[tokens[:, t : t + 1]], cache)
            _assert_logits_close(step, model.forward(tokens[:, : t + 1])[:, -1])

    @pytest.mark.parametrize("shots", [0, 4])
    def test_captions_equal_uncached_loop(self, shots):
        vlm = build_vlm("llava1.5-7b")
        shot_list, query, _ = _vlm_bundle("llava1.5-7b")
        assert np.array_equal(
            vlm.generate_captions(shot_list[:shots], query),
            _captions_reference(vlm, shot_list[:shots], query),
        )

    def test_caption_reference_bundle_equals_uncached_loop(self):
        shot_list, query, reference = _vlm_bundle("llava1.5-7b")
        uncached = _captions_reference(build_vlm("llava1.5-7b"), shot_list, query)
        assert np.array_equal(reference, uncached)

    def test_vlm_decode_logits_within_tolerance_of_forward(self):
        vlm = build_vlm("llava1.5-7b")
        shot_list, query, reference = _vlm_bundle("llava1.5-7b")
        context = vlm._embed_sequence(shot_list[:4], query, reference[:, :0])
        cache = {}
        step = vlm.lm._decode(context, cache)
        _assert_logits_close(step, vlm._forward_embeddings(context)[:, -1])
        for t in range(reference.shape[1]):
            step = vlm.lm._decode(vlm.lm.embed[reference[:, t : t + 1]], cache)
            full = vlm._embed_sequence(shot_list[:4], query, reference[:, : t + 1])
            _assert_logits_close(step, vlm._forward_embeddings(full)[:, -1])

    @pytest.mark.parametrize("family", ["opt-6.7b", "llama2-13b"])
    def test_one_block_pass_per_new_token(self, family, linear_rows):
        """7 linears x L blocks over n rows per step; the uncached loop
        passed 7·L·n·s(s-1)/2 rows."""
        model = build_model(family)
        n, s = 3, 10
        model.sample(n, s, np.random.default_rng(5))
        assert sum(linear_rows) == 7 * model.profile.n_layers * n * (s - 1)

    def test_kv_quant_rejected(self):
        model = build_model("opt-6.7b")
        model.kv_quant = lambda k, v: (k, v)
        with pytest.raises(ValueError, match="kv_quant"):
            model.sample(2, 4, np.random.default_rng(6))


def _softmax_reference(x, axis=-1):
    x = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(x)
    return e / np.sum(e, axis=axis, keepdims=True)


def _silu_reference(x):
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _linear_reference(model, name, x, acts):
    """One linear on a 3-D input (numpy then runs one GEMM per batch row),
    recording its input in ``acts`` as ``collect_calibration`` does."""
    acts.setdefault(name, []).append(x.reshape(-1, x.shape[-1]))
    aq = model.act_quant.get(name)
    if aq is not None:
        x = aq(x)
    return x @ model._w(name).T


def _forward_reference(model, h0):
    """Logits and per-linear inputs of the uncached forward over input
    embeddings ``h0``, in the arithmetic the decoder had before its linears
    became one 2-D GEMM and its elementwise ops ran in place."""
    p = model.profile
    acts = {}
    h = model._stream(h0)
    b, seq, _ = h.shape
    n_heads = p.n_heads
    d_head = p.d_model // n_heads
    mask = np.triu(np.full((seq, seq), -1e30), k=1)

    def heads(t):
        return t.reshape(b, seq, n_heads, d_head).transpose(0, 2, 1, 3)

    for i in range(p.n_layers):
        x = _rmsnorm(h)
        q = _linear_reference(model, f"layers.{i}.wq", x, acts)
        k = _linear_reference(model, f"layers.{i}.wk", x, acts)
        v = _linear_reference(model, f"layers.{i}.wv", x, acts)
        if model.kv_quant is not None:
            for bi in range(b):
                k[bi], v[bi] = model.kv_quant(k[bi], v[bi])
        qh, kh, vh = heads(q), heads(k), heads(v)
        att = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(d_head)
        att = _softmax_reference(att + mask[None, None, :, :])
        ctx = (att @ vh).transpose(0, 2, 1, 3).reshape(b, seq, p.d_model)
        h = h + _linear_reference(model, f"layers.{i}.wo", ctx, acts)

        x = _rmsnorm(h)
        gate = _silu_reference(_linear_reference(model, f"layers.{i}.w1", x, acts))
        up = _linear_reference(model, f"layers.{i}.w3", x, acts)
        h = h + _linear_reference(model, f"layers.{i}.w2", gate * up, acts)
    logits = (_rmsnorm(h) @ model.embed.T) * p.logit_gain
    return logits, {name: np.concatenate(c, axis=0) for name, c in acts.items()}


class _ReferenceLM:
    """``model`` with :func:`_forward_reference` as its forward, so the
    evaluation code scores the reference logits."""

    def __init__(self, model):
        self.model = model

    def forward(self, tokens):
        return _forward_reference(self.model, self.model.embed[np.atleast_2d(tokens)])[0]


def _assert_decoder_equals_reference(model, calib, h0, tokens):
    """Logits, full and per-group targeted calibration, and per-sequence
    NLL of ``model`` (an LM or a VLM) equal the reference arithmetic's bit
    for bit. ``h0`` is the input embedding of ``calib``; ``tokens`` an
    evaluation corpus."""
    lm = getattr(model, "lm", model)
    ref_logits, ref_acts = _forward_reference(lm, h0)
    assert np.array_equal(lm._forward_embeddings(h0), ref_logits)
    full = model.collect_calibration(calib)
    assert list(full) == list(ref_acts)
    for name, act in full.items():
        assert np.array_equal(act, ref_acts[name]), name
    for group in calibration_groups(model):
        part = model.collect_calibration(calib, names=group)
        for name in group:
            assert np.array_equal(part[name], ref_acts[name]), name
    assert np.array_equal(
        nll_per_sequence(lm, tokens), nll_per_sequence(_ReferenceLM(lm), tokens)
    )


def _quantize_two_inputs(model):
    lm = getattr(model, "lm", model)
    last = lm.profile.n_layers - 1
    lm.act_quant["layers.0.wk"] = ActivationQuantizer(None, 8)
    lm.act_quant[f"layers.{last}.w2"] = ActivationQuantizer(None, 4)


def _kv_round(k, v):
    return np.round(k, 1), np.round(v, 1)


class TestDecoderArithmetic:
    """The decoder runs each linear as one 2-D GEMM and its elementwise ops
    in place; every output equals the 3-D, out-of-place arithmetic's."""

    @pytest.mark.parametrize("n, s", [(32, 32), (24, 32)], ids=["32x32", "24x32"])
    @pytest.mark.parametrize("family", list(MODEL_FAMILIES))
    def test_lm_equals_reference(self, family, n, s):
        model = build_model(family)
        tokens = np.random.default_rng(n + s).integers(0, model.profile.vocab, (n, s))
        h0 = model.embed[tokens]
        _assert_decoder_equals_reference(model, tokens, h0, tokens)
        _quantize_two_inputs(model)
        _assert_decoder_equals_reference(model, tokens, h0, tokens)
        model.kv_quant = _kv_round
        assert np.array_equal(model.forward(tokens), _forward_reference(model, h0)[0])

    def test_vlm_equals_reference(self):
        vlm = build_vlm("vila-7b")
        calib = get_substrate("vlm").calibration(vlm)
        shots, query = calib
        h0 = vlm._embed_sequence(shots, query, np.zeros((query.shape[0], 0), dtype=np.int64))
        tokens = np.random.default_rng(0).integers(0, vlm.profile.vocab, (24, 32))
        _assert_decoder_equals_reference(vlm, calib, h0, tokens)
        _quantize_two_inputs(vlm)
        _assert_decoder_equals_reference(vlm, calib, h0, tokens)
        vlm.lm.kv_quant = _kv_round
        assert np.array_equal(vlm._forward_embeddings(h0), _forward_reference(vlm.lm, h0)[0])


class TestInPlaceAliasing:
    """In-place ops write only to buffers their own function allocated."""

    def test_calibration_arrays_survive_later_passes(self, resumable):
        model, calib = resumable
        groups = calibration_groups(model)
        full = model.collect_calibration(calib)
        part = model.collect_calibration(calib, names=groups[0])
        kept = {k: v.copy() for k, v in [*full.items(), *part.items()]}
        lm = getattr(model, "lm", model)
        lm.forward(np.zeros((2, 9), dtype=np.int64))
        lm.sample(2, 9, np.random.default_rng(0))
        model.collect_calibration(calib, names=groups[1])
        model.collect_calibration(calib, names=groups[4])
        for name, act in [*full.items(), *part.items()]:
            assert np.array_equal(act, kept[name]), name

    @pytest.mark.parametrize("fn", [_silu, _softmax], ids=["silu", "softmax"])
    def test_elementwise_ops_leave_input_alone(self, fn):
        x = np.random.default_rng(1).normal(0.0, 40.0, (2, 3, 5, 7))
        kept = x.copy()
        out = fn(x)
        assert np.array_equal(x, kept)
        assert not np.shares_memory(out, x)
        ref = _silu_reference(kept) if fn is _silu else _softmax_reference(kept)
        assert np.array_equal(out, ref)
