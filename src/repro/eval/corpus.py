"""Synthetic corpora: the evaluation data for perplexity experiments.

The paper evaluates perplexity on WikiText2 with models pretrained on web
text. Offline we invert the construction: the full-precision model *defines*
the data distribution — the evaluation corpus is sampled from it at
temperature 1, so the FP model is (near-)optimal on the corpus and any
quantization error shows up as a PPL increase, exactly the monotone signal
the paper's tables rely on. Calibration tokens come from a disjoint seed
(the "PILE" analog: same distribution family, different draw).

Sampling decodes with a key/value cache (:meth:`TransformerLM.sample`), one
block pass per new token. The tokens are identical to those of re-running
the forward over the whole prefix for every token; the logits they are
drawn from are not bit-identical to it (BLAS rounds a one-row matmul
differently), which a test pins within a tolerance. Each corpus is sampled
once per process and returned read-only, as every caller shares it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..models.transformer import TransformerLM

__all__ = ["eval_corpus", "calibration_tokens"]

_EVAL_SEED_OFFSET = 7_000
_CALIB_SEED_OFFSET = 9_000


@lru_cache(maxsize=32)
def _cached_sample(family: str, n_sequences: int, seq_len: int, seed: int):
    from ..models.transformer import build_model

    model = build_model(family)
    rng = np.random.default_rng(seed)
    tokens = model.sample(n_sequences, seq_len, rng)
    tokens.flags.writeable = False  # the cache hands it to every caller
    return tokens


def eval_corpus(model: TransformerLM, n_sequences: int = 32, seq_len: int = 32) -> np.ndarray:
    """Held-out evaluation token ids ``[n_sequences, seq_len]``."""
    return _cached_sample(
        model.profile.name, n_sequences, seq_len, model.profile.seed + _EVAL_SEED_OFFSET
    )


def calibration_tokens(
    model: TransformerLM, n_sequences: int = 24, seq_len: int = 32
) -> np.ndarray:
    """Calibration token ids, disjoint from the evaluation corpus.

    The default (768 tokens) keeps the calibration sample count at ~2x the
    widest layer's input dimension — below that, the damped Hessian is too
    ill-conditioned for GPTQ-style error compensation to help.
    """
    return _cached_sample(
        model.profile.name, n_sequences, seq_len, model.profile.seed + _CALIB_SEED_OFFSET
    )
