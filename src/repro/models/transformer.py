"""A numpy decoder-only transformer LM used as the quantization substrate.

Architecture (LLaMA-style): token embedding + sinusoidal positions, then
``n_layers`` of [RMSNorm → causal MHA → residual, RMSNorm → SwiGLU MLP →
residual], a final RMSNorm, and a tied LM head. All seven linear weights per
block are quantization targets; embeddings and the head stay full precision
(standard PTQ practice, also the paper's).

The class exposes exactly what a PTQ framework needs:

* :meth:`collect_calibration` — per-linear input activations from a
  calibration batch (what GPTQ's Hessian is built from);
* :meth:`forward` / :meth:`logits` — teacher-forced evaluation;
* :meth:`sample` — autoregressive sampling (used to build the synthetic
  evaluation corpus from the full-precision model itself), decoded with a
  key/value cache: one block pass per new token, and tokens identical to
  re-running the forward over the whole prefix (the logits differ from it
  by BLAS rounding only, so identity is of tokens, not bits);
* weight overrides + per-linear activation fake-quantizers, which is how
  quantized variants are materialized without copying the model.

Each linear runs as one 2-D GEMM over the flattened ``[batch·seq, d]``
input, and the elementwise ops (SiLU, softmax, the attention scale and
mask, the SwiGLU product) run in place. Aliasing rule: an op writes in place
only to a buffer its own function has just allocated — never to the
residual stream ``h`` (the calibration resume record holds it), an input
:class:`_Capture` has stored, a cached key or value, or a caller's
argument.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from .generator import MODEL_FAMILIES, FamilyProfile, make_weight

__all__ = ["TransformerLM", "build_model", "linear_names"]

ActQuant = Callable[[np.ndarray], np.ndarray]

#: The quantizable linears of one decoder block, in forward order.
_BLOCK_LINEARS = ("wq", "wk", "wv", "wo", "w1", "w3", "w2")


def _rmsnorm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return x / np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + eps)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def _silu(x: np.ndarray) -> np.ndarray:
    d = np.clip(x, -60.0, 60.0)
    np.negative(d, out=d)
    np.exp(d, out=d)
    d += 1.0
    return np.divide(x, d, out=d)


def _dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` as one 2-D GEMM over the flattened leading axes of ``x``
    (a 3-D matmul would run one GEMM per batch row); a new array."""
    return (x.reshape(-1, x.shape[-1]) @ w.T).reshape(*x.shape[:-1], w.shape[0])


def _sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    dim = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_model)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return 0.1 * enc


def linear_names(n_layers: int) -> list[str]:
    """Names of every quantizable linear weight, in forward order."""
    return [f"layers.{i}.{w}" for i in range(n_layers) for w in _BLOCK_LINEARS]


class _Captured(Exception):
    """Raised once the last input a targeted calibration waits for is
    captured: the forward pass ends there."""


class _Capture(dict):
    """Inputs of the linears ``names`` (all of them when ``None``), in
    forward order. The forward stops right after the last name's input is
    taken, before that linear's matmul."""

    def __init__(self, names: Optional[list] = None):
        super().__init__()
        self.names = names

    def take(self, name: str, x: np.ndarray) -> None:
        if self.names is None or name in self.names:
            self.setdefault(name, []).append(x.reshape(-1, x.shape[-1]))
            if self.names is not None and name == self.names[-1]:
                raise _Captured


class TransformerLM:
    """Decoder-only LM over a ``FamilyProfile``; weights are plain ndarrays."""

    def __init__(self, profile: FamilyProfile, max_len: int = 128):
        self.profile = profile
        self.max_len = max_len
        d, ff, v = profile.d_model, profile.d_ff, profile.vocab
        rng = np.random.default_rng(profile.seed)
        self.embed = rng.normal(0.0, 1.0, (v, d)) * (3.0 / np.sqrt(d))
        self.pos = _sinusoidal_positions(max_len, d)
        self.weights: Dict[str, np.ndarray] = {}
        opct, apct = profile.outlier_pct, profile.adjacent_pct
        for i in range(profile.n_layers):
            for name, shape, gain in [
                ("wq", (d, d), 1.0),
                ("wk", (d, d), 1.0),
                ("wv", (d, d), 1.0),
                ("wo", (d, d), 1.0),
                ("w1", (ff, d), 1.0),
                ("w3", (ff, d), 1.0),
                ("w2", (d, ff), 1.0),
            ]:
                self.weights[f"layers.{i}.{name}"] = make_weight(
                    shape[0], shape[1], rng, opct, apct, gain
                )
        # Overrides hold quantized replacements; act quantizers fake-quantize
        # each linear's input. Both default to identity (full precision).
        self.overrides: Dict[str, np.ndarray] = {}
        self.act_quant: Dict[str, ActQuant] = {}
        # Optional KV-cache fake-quantizer: callable (k, v) -> (k_q, v_q)
        # applied per sequence to the attention K/V tensors (KIVI-style).
        self.kv_quant = None
        # Where targeted calibration resumes (see collect_calibration):
        # (calibration input, block, residual stream entering the block,
        # _inputs_before(block)) or None.
        self._record: Optional[tuple] = None

    # ---------------------------------------------------------------- utils
    def _w(self, name: str) -> np.ndarray:
        return self.overrides.get(name, self.weights[name])

    def _linear(
        self, name: str, x: np.ndarray, capture: Optional[_Capture]
    ) -> np.ndarray:
        """``x @ w.T`` for the linear ``name`` (see :func:`_dense`).
        ``capture`` stores ``x`` itself, so nothing may write to ``x``
        afterwards; the result is a new array that the caller may
        overwrite."""
        if capture is not None:
            capture.take(name, x)
        aq = self.act_quant.get(name)
        if aq is not None:
            x = aq(x)
        return _dense(x, self._w(name))

    # -------------------------------------------------------------- forward
    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits ``[batch, seq, vocab]`` for token ids ``[batch, seq]``."""
        return self._forward_embeddings(self.embed[np.atleast_2d(tokens)])

    def _forward_embeddings(
        self, h0: np.ndarray, capture: Optional[_Capture] = None
    ) -> np.ndarray:
        """Logits for input embeddings ``[batch, seq, d_model]`` (the token
        lookup or the VLM's image/caption sequence); positions added here."""
        h = self._blocks(self._stream(h0), 0, self.profile.n_layers, capture)
        logits = _dense(_rmsnorm(h), self.embed)
        logits *= self.profile.logit_gain
        return logits

    def _decode(self, h0: np.ndarray, cache: dict) -> np.ndarray:
        """One cached decoding step: logits ``[batch, vocab]`` at the last
        of the new input embeddings ``h0`` ``[batch, seq, d_model]``, which
        follow the positions already held in ``cache`` (see :meth:`_blocks`;
        ``{}`` before the first step, extended in place).

        The blocks run over the new positions only, and the final RMSNorm
        and the head over the last one. ``kv_quant`` raises ``ValueError``:
        it quantizes keys per channel across the whole sequence, which a
        cache of earlier steps' keys cannot reproduce."""
        if self.kv_quant is not None:
            raise ValueError("cached decoding does not support kv_quant")
        past = cache[0][0].shape[2] if cache else 0
        h = self._blocks(self._stream(h0, past), 0, self.profile.n_layers, cache=cache)
        return (_rmsnorm(h[:, -1]) @ self.embed.T) * self.profile.logit_gain

    def _stream(self, h0: np.ndarray, offset: int = 0) -> np.ndarray:
        """The residual stream entering block 0 for input embeddings at
        positions ``offset .. offset + seq - 1``; ``ValueError`` for a
        position past ``max_len``."""
        end = offset + h0.shape[1]
        if end > self.max_len:
            raise ValueError(
                f"positions up to {end - 1} exceed the model's max_len={self.max_len}"
            )
        return h0 + self.pos[offset:end][None, :, :]

    def _blocks(
        self,
        h: np.ndarray,
        start: int,
        stop: int,
        capture: Optional[_Capture] = None,
        cache: Optional[dict] = None,
    ) -> np.ndarray:
        """Decoder blocks ``start .. stop - 1`` over the residual stream
        ``h``; returns the stream after block ``stop - 1``.

        ``cache`` is the key/value cache of decoding: block ``i`` maps to
        its head-split ``(keys, values)``, ``[batch, heads, past, d_head]``,
        of the ``past`` positions before ``h``. The positions of ``h``
        attend over those and their own, which are appended in place. With
        no cache (or an empty one) ``past`` is 0 and the causal mask is the
        full sequence's.

        In-place ops here write only to arrays this loop has just made (the
        attention scores, the SiLU output); ``h`` itself is never written,
        as the resume record of :meth:`collect_calibration` may hold it."""
        p = self.profile
        b, seq, _ = h.shape
        n_heads = p.n_heads
        d_head = p.d_model // n_heads
        past = cache[start][0].shape[2] if cache else 0
        mask = np.triu(np.full((seq, past + seq), -1e30), k=past + 1)

        def heads(t):
            return t.reshape(b, seq, n_heads, d_head).transpose(0, 2, 1, 3)

        for i in range(start, stop):
            x = _rmsnorm(h)
            q = self._linear(f"layers.{i}.wq", x, capture)
            k = self._linear(f"layers.{i}.wk", x, capture)
            v = self._linear(f"layers.{i}.wv", x, capture)
            if self.kv_quant is not None:
                for bi in range(b):
                    k[bi], v[bi] = self.kv_quant(k[bi], v[bi])

            qh, kh, vh = heads(q), heads(k), heads(v)
            if cache is not None:
                if past:
                    kh = np.concatenate((cache[i][0], kh), axis=2)
                    vh = np.concatenate((cache[i][1], vh), axis=2)
                cache[i] = kh, vh
            att = qh @ kh.transpose(0, 1, 3, 2)
            att /= np.sqrt(d_head)
            att += mask
            att = _softmax(att)
            ctx = (att @ vh).transpose(0, 2, 1, 3).reshape(b, seq, p.d_model)
            h = h + self._linear(f"layers.{i}.wo", ctx, capture)

            x = _rmsnorm(h)
            gate = _silu(self._linear(f"layers.{i}.w1", x, capture))
            gate *= self._linear(f"layers.{i}.w3", x, capture)
            h = h + self._linear(f"layers.{i}.w2", gate, capture)
        return h

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        return self.forward(tokens)

    # ---------------------------------------------------------- calibration
    def collect_calibration(
        self, tokens: np.ndarray, names: Optional[Iterable[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Inputs seen by each linear during a forward pass over ``tokens``.

        ``names`` restricts the collection to those linears (``KeyError``
        for any name not in :attr:`linear_names`) and runs only the forward
        work they need, which the engine's sequential calibration (one
        group per call, in forward order) exploits:

        * it resumes from the residual stream recorded at the start of an
          earlier or equal block, when that record is still valid;
        * it records the residual stream at the start of the first block
          the names live in;
        * it stops as soon as the last requested input is captured, before
          that linear's matmul, so neither the rest of the block nor the
          logits head runs.

        The record is valid only while (1) the calibration input is the
        same object as when it was recorded (calibration inputs must not be
        modified in place), (2) every linear in the blocks before it has the
        same weight (``overrides`` or ``weights``) and ``act_quant``
        objects, and (3) ``kv_quant`` is the same object. The model keeps
        at most one record, by strong reference, so those identities cannot
        be recycled; :meth:`clear_overrides` drops it, and so does
        collecting the model's last linear. Every other case recomputes
        from the embedding. A resumed collection thus performs the same
        operations on the same arrays as a full forward, and its
        activations are bit-identical to the full collection's.
        """
        return self._calibrate(
            tokens, lambda: self.embed[np.atleast_2d(tokens)], names
        )

    def _calibrate(
        self,
        key: object,
        embed: Callable[[], np.ndarray],
        names: Optional[Iterable[str]],
    ) -> Dict[str, np.ndarray]:
        """:meth:`collect_calibration` for the calibration input ``key``,
        whose input embeddings ``embed()`` computes."""
        if names is None:
            capture = _Capture()
            self._forward_embeddings(embed(), capture)
        else:
            capture = self._resume(key, embed, names)
        return {
            name: np.concatenate(chunks, axis=0) for name, chunks in capture.items()
        }

    def _resume(
        self, key: object, embed: Callable[[], np.ndarray], names: Iterable[str]
    ) -> _Capture:
        """The targeted forward of :meth:`collect_calibration`."""
        order = self.linear_names
        wanted = set(names)
        unknown = wanted.difference(order)
        if unknown:
            raise KeyError(f"unknown linears {sorted(unknown)}")
        at = [i for i, name in enumerate(order) if name in wanted]
        if not at:
            return _Capture([])
        first = at[0] // len(_BLOCK_LINEARS)
        start, h = 0, None
        if self._record is not None:
            rec_key, block, rec_h, inputs = self._record
            if (
                rec_key is key
                and block <= first
                and all(map(operator.is_, inputs, self._inputs_before(block)))
            ):
                start, h = block, rec_h
        if h is None:
            h = self._stream(embed())
        h = self._blocks(h, start, first)
        self._record = (key, first, h, self._inputs_before(first))
        capture = _Capture([order[i] for i in at])
        try:
            self._blocks(h, first, self.profile.n_layers, capture)
        except _Captured:
            pass
        if at[-1] == len(order) - 1:
            self._record = None
        return capture

    def _inputs_before(self, block: int) -> list:
        """Everything besides the calibration input that the residual stream
        entering ``block`` depends on: ``kv_quant``, then each earlier
        linear's weight and activation quantizer."""
        names = self.linear_names[: block * len(_BLOCK_LINEARS)]
        return (
            [self.kv_quant]
            + [self._w(name) for name in names]
            + [self.act_quant.get(name) for name in names]
        )

    # ------------------------------------------------------------- sampling
    def sample(
        self, n_sequences: int, seq_len: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Autoregressive temperature-1 samples from the (FP) model.

        Decodes with a key/value cache (:meth:`_decode`): each step runs
        the blocks over the newest token only and the head over its
        position only. The samples are token-identical to re-running
        :meth:`forward` over the whole prefix each step, though not the
        logits bit for bit (BLAS rounds a one-row matmul differently from
        the same row of a longer one). ``seq_len`` may exceed ``max_len``
        by one, as the last token needs no position of its own; a longer
        one raises ``ValueError``, as does a model with ``kv_quant`` set.
        """
        v = self.profile.vocab
        tokens = rng.integers(0, v, size=(n_sequences, 1))
        cache = {}
        for _ in range(seq_len - 1):
            logits = self._decode(self.embed[tokens[:, -1:]], cache)
            probs = _softmax(logits, axis=-1)
            nxt = np.array(
                [rng.choice(v, p=probs[i]) for i in range(n_sequences)]
            )[:, None]
            tokens = np.concatenate([tokens, nxt], axis=1)
        return tokens

    # ------------------------------------------------------------ overrides
    def set_override(self, name: str, weight: np.ndarray) -> None:
        if name not in self.weights:
            raise KeyError(f"unknown linear {name!r}")
        if weight.shape != self.weights[name].shape:
            raise ValueError(
                f"shape mismatch for {name}: {weight.shape} vs {self.weights[name].shape}"
            )
        self.overrides[name] = weight

    def clear_overrides(self) -> None:
        self.overrides.clear()
        self.act_quant.clear()
        self.kv_quant = None
        self._record = None

    @property
    def linear_names(self) -> list[str]:
        return linear_names(self.profile.n_layers)


def build_model(family: str, max_len: int = 128) -> TransformerLM:
    """Construct the analog model for a Table 2 family name."""
    try:
        profile = MODEL_FAMILIES[family]
    except KeyError:
        known = ", ".join(MODEL_FAMILIES)
        raise KeyError(f"unknown family {family!r}; known: {known}") from None
    return TransformerLM(profile, max_len=max_len)
