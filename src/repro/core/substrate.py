"""The substrate protocol and registry: every workload class the paper covers.

The paper evaluates MicroScopiQ across four substrate classes — transformer
LMs (Table 2), VLMs (Fig. 10), CNNs and SSMs (Table 4). Each model class in
:mod:`repro.models` implements the same duck-typed *linear-layer protocol*
(``linear_names`` / ``weights`` / ``collect_calibration`` / ``set_override``
/ ``act_quant`` / ``clear_overrides``); this module makes that contract
explicit as the :class:`Substrate` protocol and registers each class in
:data:`SUBSTRATES` together with everything the experiment pipeline needs to
run it end to end:

* its model families and builder;
* its default calibration inputs (deterministic, seeded from the family
  profile like the LM corpora, so jobs stay pure functions of their spec);
* its **calibration groups** — layers whose calibration inputs are invariant
  to each other's overrides (``wq``/``wk``/``wv`` read the same RMSNorm
  output), which is what lets the quantization engine collect activations
  once per group and dispatch members in parallel while staying bit-identical
  to the sequential walk;
* its task **metric** and evaluator (perplexity / caption score / top-1 /
  sequence NLL), which is what makes
  :func:`repro.eval.harness.evaluate_setting` metric-polymorphic.

Evaluation references are always derived from the *full-precision* model of
the same family (the corpus sampled from it, its predictions, its generated
captions), so quantization error shows up as metric degradation on every
substrate, matching the relative-accuracy shape the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = [
    "SUBSTRATES",
    "Substrate",
    "SubstrateSpec",
    "calibration_groups",
    "get_substrate",
    "known_substrates",
    "register_substrate",
    "substrate_families",
    "substrate_for_model",
]

_BOOTSTRAP_RESAMPLES = 64  # bootstrap draws for the LM nll_se


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays``, made read-only. The ``lru_cache``d bundles below hand the
    same arrays to every job in a process, so an in-place edit by one job
    would change what every later job reads."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@runtime_checkable
class Substrate(Protocol):
    """The linear-layer protocol a quantizable model must implement.

    Formalizes what :func:`repro.quant.engine.quantize_model` consumes:
    named 2-D weight matrices, per-layer calibration capture, weight
    overrides for installing dequantized replacements, and per-layer
    activation fake-quantizers. ``isinstance(model, Substrate)`` performs a
    structural (duck-typed) check.
    """

    @property
    def linear_names(self) -> List[str]:  # forward order
        ...

    @property
    def weights(self) -> Dict[str, np.ndarray]:
        ...

    @property
    def act_quant(self) -> Dict[str, Any]:
        ...

    def collect_calibration(self, calib: Any) -> Dict[str, np.ndarray]:
        ...

    def set_override(self, name: str, weight: np.ndarray) -> None:
        ...

    def clear_overrides(self) -> None:
        ...


@dataclass(frozen=True)
class SubstrateSpec:
    """One registered substrate: builders, calibration, groups, and metric.

    Attributes:
        name: registry key (``"lm"`` / ``"vlm"`` / ``"cnn"`` / ``"ssm"``).
        paper_scope: which table/figure of the paper this substrate backs.
        metric: the primary task metric key in the evaluator's result dict
            (used by the CLI's ``--metric auto`` display resolution).
        higher_is_better: direction of ``metric`` (perplexity/NLL go down).
        families: zero-arg callable returning the known family names.
        build: ``family name -> model`` constructor.
        calibration: ``model -> calib`` default calibration inputs.
        groups: ``model -> [[name, ...], ...]`` calibration groups in
            forward order; members of one group may be quantized in
            parallel without changing results.
        evaluate: ``(model, eval_sequences, eval_seq_len, rng, **kw) ->
            metrics dict`` task evaluator.
        owns: ``model -> bool`` instance check used to resolve a model
            object back to its registered substrate.
        uses_corpus_shape: whether ``eval_sequences``/``eval_seq_len``
            actually shape this substrate's evaluation (True for the LM
            corpora; False for the fixed per-family bundles), so the
            pipeline can normalize ignored fields out of job identities.
        version: optional spec version hashed into pipeline job identities,
            so cached results invalidate when a plugin substrate's numerics
            change (builtins ride ``repro.__version__`` and leave this
            ``None`` — omitting it keeps job hashes stable).
    """

    name: str
    paper_scope: str
    metric: str
    higher_is_better: bool
    families: Callable[[], Tuple[str, ...]]
    build: Callable[[str], Any]
    calibration: Callable[[Any], Any]
    groups: Callable[[Any], List[List[str]]]
    evaluate: Callable[..., Dict[str, Any]]
    owns: Callable[[Any], bool]
    uses_corpus_shape: bool = True
    version: Optional[str] = None


SUBSTRATES: Dict[str, SubstrateSpec] = {}


def register_substrate(spec: SubstrateSpec) -> SubstrateSpec:
    """Add ``spec`` to the registry (last registration wins)."""
    SUBSTRATES[spec.name] = spec
    return spec


def get_substrate(name: str) -> SubstrateSpec:
    """Look up a substrate by name; tries the plugin loader once on a miss
    and raises with the known list if the name is still absent."""
    try:
        return SUBSTRATES[name]
    except KeyError:
        pass
    from .. import plugins

    plugins.load_plugins()
    try:
        return SUBSTRATES[name]
    except KeyError:
        known = ", ".join(sorted(SUBSTRATES))
        raise KeyError(f"unknown substrate {name!r}; known: {known}") from None


def known_substrates() -> List[str]:
    return sorted(SUBSTRATES)


def substrate_families(name: str) -> Tuple[str, ...]:
    """The family names a substrate can build."""
    return tuple(get_substrate(name).families())


def substrate_for_model(model: Any) -> Optional[SubstrateSpec]:
    """The registered substrate owning ``model``, or ``None``."""
    for spec in SUBSTRATES.values():
        if spec.owns(model):
            return spec
    return None


def calibration_groups(model: Any) -> List[List[str]]:
    """Calibration groups for ``model``; singletons for unregistered models.

    The singleton fallback is always safe: one layer per group degenerates
    to the plain sequential walk.
    """
    spec = substrate_for_model(model)
    if spec is not None:
        return spec.groups(model)
    return [[name] for name in model.linear_names]


# --------------------------------------------------------------------- LM ---

def _lm_families() -> Tuple[str, ...]:
    from ..models.generator import MODEL_FAMILIES

    return tuple(MODEL_FAMILIES)


def _lm_build(family: str):
    from ..models.transformer import build_model

    return build_model(family)


def _lm_calibration(model):
    from ..eval.corpus import calibration_tokens

    return calibration_tokens(model)


def _transformer_groups(n_layers: int) -> List[List[str]]:
    """Per block: [wq wk wv] share the attention-input RMSNorm activations,
    [w1 w3] share the MLP-input ones; wo and w2 read outputs of their group
    predecessors and must wait for them."""
    groups: List[List[str]] = []
    for i in range(n_layers):
        pre = f"layers.{i}."
        groups.append([pre + "wq", pre + "wk", pre + "wv"])
        groups.append([pre + "wo"])
        groups.append([pre + "w1", pre + "w3"])
        groups.append([pre + "w2"])
    return groups


def _lm_groups(model) -> List[List[str]]:
    return _transformer_groups(model.profile.n_layers)


def _lm_evaluate(model, eval_sequences, eval_seq_len, rng, tasks=None, **_) -> Dict[str, Any]:
    """Perplexity over the family's held-out corpus, with a bootstrap SE.

    ``tasks`` (an ``eval_kwargs`` knob) additionally scores the named
    zero-shot ranking tasks of :data:`~repro.eval.tasks.LM_TASKS` against a
    fresh full-precision reference (which defines the labels), adding one
    ``task:<name>`` accuracy per task — the Table 3 pipeline path.
    """
    from ..eval.corpus import eval_corpus
    from ..eval.perplexity import nll_per_sequence

    corpus = eval_corpus(model, eval_sequences, eval_seq_len)
    seq_nll = nll_per_sequence(model, corpus)
    metrics: Dict[str, Any] = {"nll": float(np.mean(seq_nll))}
    metrics["ppl"] = float(np.exp(metrics["nll"]))
    resamples = rng.integers(0, len(seq_nll), size=(_BOOTSTRAP_RESAMPLES, len(seq_nll)))
    metrics["nll_se"] = float(np.std(np.mean(seq_nll[resamples], axis=1)))
    if tasks:
        from ..eval.tasks import task_accuracy

        for name in tasks:
            prompts, candidates = _lm_task_labels(model.profile.name, name)
            metrics[f"task:{name}"] = task_accuracy(model, prompts, candidates)
    return metrics


@lru_cache(maxsize=64)
def _lm_task_labels(family: str, task: str):
    """(prompts, candidates) for one (family, task) — labels come from the
    FP reference, are deterministic in the family profile, and are shared by
    every method/setting job of a session, so the FP model is built once per
    pair instead of once per task-scored job."""
    from ..eval.tasks import LM_TASKS, task_labels
    from ..models.transformer import build_model

    return _read_only(*task_labels(build_model(family), LM_TASKS[task]))


def _lm_owns(model) -> bool:
    from ..models.transformer import TransformerLM

    return isinstance(model, TransformerLM)


# -------------------------------------------------------------------- VLM ---

# Fixed-size evaluation bundle (Fig. 10 analog): the FP model's greedy
# captions at the maximum shot count are the scoring reference. Kept
# independent of the eval_sequences/eval_seq_len knobs (those shape the LM
# corpora) so every VLM job shares one deterministic bundle per family.
_VLM_QUERIES = 16
_VLM_REF_SHOTS = 16
_VLM_CALIB_SHOTS = 4
_VLM_SEED_OFFSET = 11_000


@lru_cache(maxsize=8)
def _vlm_bundle(family: str):
    """(shots, query_feats, reference captions) for one VLM family."""
    from ..models.vlm import CAPTION_LEN, build_vlm

    vlm = build_vlm(family)
    rng = np.random.default_rng(vlm.profile.seed + _VLM_SEED_OFFSET)
    shots = tuple(
        _read_only(
            rng.normal(0, 1, (_VLM_QUERIES, vlm.d_img)),
            rng.integers(0, vlm.profile.vocab, (_VLM_QUERIES, CAPTION_LEN)),
        )
        for _ in range(_VLM_REF_SHOTS)
    )
    query = rng.normal(0, 1, (_VLM_QUERIES, vlm.d_img))
    reference = vlm.generate_captions(shots, query)
    return (shots, *_read_only(query, reference))


def _vlm_families() -> Tuple[str, ...]:
    from ..models.vlm import VLM_PROFILES

    return tuple(VLM_PROFILES)


def _vlm_build(family: str):
    from ..models.vlm import build_vlm

    return build_vlm(family)


def _vlm_calibration(model):
    shots, query, _ = _vlm_bundle(model.profile.name)
    return shots[:_VLM_CALIB_SHOTS], query


def _vlm_groups(model) -> List[List[str]]:
    return _transformer_groups(model.profile.n_layers)


def _vlm_evaluate(model, eval_sequences, eval_seq_len, rng, shots=None, **_):
    """Teacher-forced caption agreement vs. the FP reference (CIDEr proxy).

    ``shots`` (an ``eval_kwargs`` knob) is the in-context shot count of
    Fig. 10's x-axis; default is the reference's own shot count.
    """
    from ..models.vlm import teacher_forced_agreement

    shot_list, query, reference = _vlm_bundle(model.profile.name)
    k = _VLM_REF_SHOTS if shots is None else int(shots)
    if not 0 <= k <= _VLM_REF_SHOTS:
        raise ValueError(f"shots must be in [0, {_VLM_REF_SHOTS}], got {k}")
    score = teacher_forced_agreement(model, shot_list[:k], query, reference)
    return {"caption_score": float(score), "shots": k}


def _vlm_owns(model) -> bool:
    from ..models.vlm import VisionLanguageModel

    return isinstance(model, VisionLanguageModel)


# -------------------------------------------------------------------- CNN ---

_CNN_CALIB = 16
_CNN_EVAL = 192
_CNN_SEED_OFFSET = 12_000


@lru_cache(maxsize=8)
def _cnn_bundle(family: str):
    """(calib images, test images, FP top-1 predictions) for one CNN."""
    from ..models.cnn import build_cnn

    net = build_cnn(family)
    hw = net.profile.img_hw
    rng = np.random.default_rng(net.profile.seed + _CNN_SEED_OFFSET)
    calib = rng.normal(0, 1, (_CNN_CALIB, 3, hw, hw))
    test = rng.normal(0, 1, (_CNN_EVAL, 3, hw, hw))
    fp_pred = _batched_predict(net, test)
    return _read_only(calib, test, fp_pred)


def _batched_predict(net, images: np.ndarray, batch: int = 64) -> np.ndarray:
    """Chunked ``predict`` so im2col buffers stay small."""
    parts = [net.predict(images[i : i + batch]) for i in range(0, len(images), batch)]
    return np.concatenate(parts)


def _cnn_families() -> Tuple[str, ...]:
    from ..models.cnn import CNN_PROFILES

    return tuple(CNN_PROFILES)


def _cnn_build(family: str):
    from ..models.cnn import build_cnn

    return build_cnn(family)


def _cnn_calibration(model):
    calib, _, _ = _cnn_bundle(model.profile.name)
    return calib


def _cnn_groups(model) -> List[List[str]]:
    # Each conv feeds the next; fully sequential.
    return [[name] for name in model.linear_names]


def _cnn_evaluate(model, eval_sequences, eval_seq_len, rng, **_) -> Dict[str, Any]:
    """Relative top-1: agreement (%) with the FP model's predictions."""
    _, test, fp_pred = _cnn_bundle(model.profile.name)
    pred = _batched_predict(model, test)
    return {"top1": 100.0 * float(np.mean(pred == fp_pred))}


def _cnn_owns(model) -> bool:
    from ..models.cnn import ConvNet

    return isinstance(model, ConvNet)


# -------------------------------------------------------------------- SSM ---

_SSM_CALIB = 16
_SSM_EVAL = 192
_SSM_SEED_OFFSET = 13_000


@lru_cache(maxsize=8)
def _ssm_bundle(family: str):
    """(calib seqs, test seqs, FP predictions) for one SSM family."""
    from ..models.ssm import build_ssm

    net = build_ssm(family)
    p = net.profile
    rng = np.random.default_rng(p.seed + _SSM_SEED_OFFSET)
    calib = rng.normal(0, 1, (_SSM_CALIB, p.seq_len, p.d_model))
    test = rng.normal(0, 1, (_SSM_EVAL, p.seq_len, p.d_model))
    fp_pred = net.predict(test)
    return _read_only(calib, test, fp_pred)


def _ssm_families() -> Tuple[str, ...]:
    from ..models.ssm import SSM_PROFILES

    return tuple(SSM_PROFILES)


def _ssm_build(family: str):
    from ..models.ssm import build_ssm

    return build_ssm(family)


def _ssm_calibration(model):
    calib, _, _ = _ssm_bundle(model.profile.name)
    return calib


def _ssm_groups(model) -> List[List[str]]:
    # The three input projections read the raw per-step input; the output
    # projection reads the recurrent state they produce.
    return [["w_in", "w_gate_a", "w_gate_b"], ["w_out"]]


def _ssm_evaluate(model, eval_sequences, eval_seq_len, rng, **_) -> Dict[str, Any]:
    """Sequence NLL of the FP model's labels under the (quantized) model.

    The recurrence compounds weight error across the sequence, so NLL is the
    sensitive primary metric; ``top1`` agreement rides along for the Table 4
    comparison.
    """
    _, test, fp_pred = _ssm_bundle(model.profile.name)
    logits = model.forward(test)
    logits = logits - np.max(logits, axis=-1, keepdims=True)
    logp = logits - np.log(np.sum(np.exp(logits), axis=-1, keepdims=True))
    nll = -float(np.mean(logp[np.arange(len(fp_pred)), fp_pred]))
    top1 = 100.0 * float(np.mean(np.argmax(logits, axis=-1) == fp_pred))
    return {"nll": nll, "top1": top1}


def _ssm_owns(model) -> bool:
    from ..models.ssm import SelectiveScanModel

    return isinstance(model, SelectiveScanModel)


# ---------------------------------------------------------------- registry --

register_substrate(
    SubstrateSpec(
        name="lm",
        paper_scope="Table 2/3/7 (perplexity, zero-shot tasks, ablations)",
        metric="ppl",
        higher_is_better=False,
        families=_lm_families,
        build=_lm_build,
        calibration=_lm_calibration,
        groups=_lm_groups,
        evaluate=_lm_evaluate,
        owns=_lm_owns,
    )
)

register_substrate(
    SubstrateSpec(
        name="vlm",
        paper_scope="Fig. 10/11 (multi-shot COCO captioning)",
        metric="caption_score",
        higher_is_better=True,
        families=_vlm_families,
        build=_vlm_build,
        calibration=_vlm_calibration,
        groups=_vlm_groups,
        evaluate=_vlm_evaluate,
        owns=_vlm_owns,
        uses_corpus_shape=False,
    )
)

register_substrate(
    SubstrateSpec(
        name="cnn",
        paper_scope="Table 4 (ResNet50/VGG16 top-1)",
        metric="top1",
        higher_is_better=True,
        families=_cnn_families,
        build=_cnn_build,
        calibration=_cnn_calibration,
        groups=_cnn_groups,
        evaluate=_cnn_evaluate,
        owns=_cnn_owns,
        uses_corpus_shape=False,
    )
)

register_substrate(
    SubstrateSpec(
        name="ssm",
        paper_scope="Table 4 (VMamba/Vim generality)",
        metric="nll",
        higher_is_better=False,
        families=_ssm_families,
        build=_ssm_build,
        calibration=_ssm_calibration,
        groups=_ssm_groups,
        evaluate=_ssm_evaluate,
        owns=_ssm_owns,
        uses_corpus_shape=False,
    )
)
