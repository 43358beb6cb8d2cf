"""Vision-language model substrate (the OpenFlamingo/VILA/LLaVA analog).

A :class:`VisionLanguageModel` prepends projected image tokens to a
transformer LM context. Multi-shot evaluation concatenates k in-context
(image, caption) pairs before the query image, exactly the structure of the
paper's 0/4/8/16/32-shot COCO-captioning runs (Fig. 10/11).

Scoring uses a fixed reference: the captions greedily generated by the
*full-precision model at the maximum shot count*. Any model variant (FP at
fewer shots, or a quantized model) is scored by token-level agreement with
that reference — an accuracy-like number that rises with shots for the FP
model and drops with quantization error, reproducing both axes of Fig. 10.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .generator import FamilyProfile
from .transformer import TransformerLM

__all__ = ["VisionLanguageModel", "VLM_PROFILES", "build_vlm", "caption_agreement"]

# VLM analogs: higher outlier rates than LLMs (Fig. 2a shows VILA/LLaVA
# among the outlier-richest models).
VLM_PROFILES: Dict[str, FamilyProfile] = {
    p.name: p
    for p in [
        FamilyProfile("openflamingo-9b", "OpenFlamingo-9B", 128, 2, 4, 352, 160, 1.6, 0.60, 0.9, 201),
        FamilyProfile("vila-7b", "VILA-7B", 128, 2, 4, 352, 160, 1.8, 0.70, 0.9, 202),
        FamilyProfile("llava1.5-7b", "LLaVA-1.5-7B", 128, 2, 4, 352, 160, 1.7, 0.65, 0.9, 203),
    ]
}

N_IMG_TOKENS = 2
CAPTION_LEN = 6


class VisionLanguageModel:
    """A TransformerLM with an image-projection front end.

    The vision encoder is abstracted as a fixed random feature extractor
    (its weights are not quantization targets in the paper either); the
    projection maps image features into ``N_IMG_TOKENS`` soft tokens.
    """

    def __init__(self, profile: FamilyProfile, d_img: int = 48, max_len: int = 320):
        self.lm = TransformerLM(profile, max_len=max_len)
        rng = np.random.default_rng(profile.seed + 500)
        d = profile.d_model
        self.proj = rng.normal(0.0, 1.0, (N_IMG_TOKENS * d, d_img)) / np.sqrt(d_img)
        self.d_img = d_img

    @property
    def profile(self) -> FamilyProfile:
        return self.lm.profile

    def image_tokens(self, feats: np.ndarray) -> np.ndarray:
        """Project image features ``[batch, d_img]`` to soft tokens
        ``[batch, N_IMG_TOKENS, d_model]``."""
        flat = feats @ self.proj.T
        return flat.reshape(feats.shape[0], N_IMG_TOKENS, self.profile.d_model) * 0.5

    def _embed_sequence(
        self, shots: List[tuple], query_feats: np.ndarray, caption_prefix: np.ndarray
    ) -> np.ndarray:
        """Assemble [shot_0 ... shot_{k-1}, query image, caption so far]."""
        b = query_feats.shape[0]
        parts = []
        for feats, caption in shots:
            parts.append(self.image_tokens(feats))
            parts.append(self.lm.embed[caption])
        parts.append(self.image_tokens(query_feats))
        if caption_prefix.shape[1]:
            parts.append(self.lm.embed[caption_prefix])
        return np.concatenate(parts, axis=1)

    def _forward_embeddings(self, h0: np.ndarray) -> np.ndarray:
        """Forward pass over pre-embedded inputs (bypasses token lookup)."""
        return self.lm._forward_embeddings(h0)

    # Protocol methods so eval.harness.quantize_model works on VLMs.
    @property
    def linear_names(self):
        return self.lm.linear_names

    @property
    def weights(self):
        return self.lm.weights

    @property
    def overrides(self):
        return self.lm.overrides

    @property
    def act_quant(self):
        return self.lm.act_quant

    def set_override(self, name: str, weight: np.ndarray) -> None:
        self.lm.set_override(name, weight)

    def clear_overrides(self) -> None:
        self.lm.clear_overrides()

    def collect_calibration(self, calib, names=None) -> dict:
        """Calibrate on embedded (shots, query) inputs: ``calib`` is the
        tuple ``(shots, query_feats)``.

        ``names`` restricts the collection exactly as
        :meth:`TransformerLM.collect_calibration` does, through the same
        walk and suspended record: the record is keyed on the ``calib``
        object itself, is valid under the same rule, and the captured
        activations are bit-identical to the full collection's for the
        same reason."""

        def embed() -> np.ndarray:
            shots, query_feats = calib
            caption = np.zeros((query_feats.shape[0], 0), dtype=np.int64)
            return self._embed_sequence(shots, query_feats, caption)

        return self.lm._calibrate(calib, embed, names)

    def generate_captions(
        self, shots: List[tuple], query_feats: np.ndarray, length: int = CAPTION_LEN
    ) -> np.ndarray:
        """Greedy caption generation for a batch of query images.

        The (shots, query image) context is prefilled once into a key/value
        cache (:meth:`TransformerLM._decode`), then each step runs the
        blocks over the newest caption token only. The captions are
        token-identical to re-running the forward over the whole sequence
        each step; the logits are not bit for bit (BLAS rounding)."""
        b = query_feats.shape[0]
        caption = np.zeros((b, 0), dtype=np.int64)
        h0 = self._embed_sequence(shots, query_feats, caption)
        cache = {}
        for _ in range(length):
            nxt = np.argmax(self.lm._decode(h0, cache), axis=-1)[:, None]
            caption = np.concatenate([caption, nxt], axis=1)
            h0 = self.lm.embed[nxt]
        return caption


def build_vlm(name: str) -> VisionLanguageModel:
    try:
        profile = VLM_PROFILES[name]
    except KeyError:
        known = ", ".join(VLM_PROFILES)
        raise KeyError(f"unknown VLM {name!r}; known: {known}") from None
    return VisionLanguageModel(profile)


def caption_agreement(generated: np.ndarray, reference: np.ndarray) -> float:
    """Token-level agreement (%) of free-running generations (strict)."""
    return 100.0 * float(np.mean(generated == reference))


def teacher_forced_agreement(
    model: VisionLanguageModel,
    shots: List[tuple],
    query_feats: np.ndarray,
    reference: np.ndarray,
) -> float:
    """Per-step agreement (%) with a reference caption, teacher-forced.

    At each caption position the model sees the *reference* prefix and is
    scored on whether it predicts the reference token — the CIDEr-like
    quality proxy used for Fig. 10 (free-running agreement cascades one
    divergence into all following tokens and over-penalizes)."""
    b, cap_len = reference.shape
    h0 = model._embed_sequence(shots, query_feats, reference)
    logits = model._forward_embeddings(h0)
    # Prediction of caption token j sits at sequence index ctx_len + j - 1.
    ctx_len = h0.shape[1] - cap_len
    correct = 0
    for j in range(cap_len):
        pred = np.argmax(logits[:, ctx_len + j - 1, :], axis=-1)
        correct += int(np.sum(pred == reference[:, j]))
    return 100.0 * correct / (b * cap_len)
