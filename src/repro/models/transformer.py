"""A numpy decoder-only transformer LM used as the quantization substrate.

Architecture (LLaMA-style): token embedding + sinusoidal positions, then
``n_layers`` of [RMSNorm → causal MHA → residual, RMSNorm → SwiGLU MLP →
residual], a final RMSNorm, and a tied LM head. All seven linear weights per
block are quantization targets; embeddings and the head stay full precision
(standard PTQ practice, also the paper's).

The class exposes exactly what a PTQ framework needs:

* :meth:`collect_calibration` — per-linear input activations from a
  calibration batch (what GPTQ's Hessian is built from), taken from a
  forward walk that can stop at any calibration group's input and resume
  there;
* :meth:`forward` / :meth:`logits` — teacher-forced evaluation;
* :meth:`sample` — autoregressive sampling (used to build the synthetic
  evaluation corpus from the full-precision model itself), decoded with a
  key/value cache: one block pass per new token, and tokens identical to
  re-running the forward over the whole prefix (the logits differ from it
  by BLAS rounding only, so identity is of tokens, not bits);
* weight overrides + per-linear activation fake-quantizers, which is how
  quantized variants are materialized without copying the model.

A family's embedding and block weights are generated once per process
(:func:`_family_weights`) and shared, read-only, by every model built from
that profile: an in-place write to one raises ``ValueError`` instead of
changing what later models read. Each model keeps its own ``weights`` dict,
overrides, activation and key/value quantizers, and calibration record.
The calibration inputs :meth:`TransformerLM.collect_calibration` returns
are read-only too, and linears that read the same input (``wq``/``wk``/
``wv``, ``w1``/``w3``) share one array.

The decoder blocks are one generator walk (:meth:`TransformerLM._blocks`)
that yields each calibration group's input before that group's matmuls;
the forward, the cached decoding step and both calibration collections
drain it. Each linear runs as one 2-D GEMM over the flattened
``[batch·seq, d]`` input, and the elementwise ops (SiLU, softmax, the
attention scale and mask, the SwiGLU product) run in place. Aliasing rule:
an op writes in place only to a buffer its own function has just allocated
— never to the residual stream ``h`` or an input the walk has yielded (a
suspended walk and the returned calibration arrays hold them), a cached key
or value, or a caller's argument.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from .generator import MODEL_FAMILIES, FamilyProfile, make_weight

__all__ = ["TransformerLM", "build_model", "linear_names"]

ActQuant = Callable[[np.ndarray], np.ndarray]

#: The quantizable linears of one decoder block, in forward order, by
#: calibration group: the linears of a group read the same input.
_BLOCK_GROUPS = (("wq", "wk", "wv"), ("wo",), ("w1", "w3"), ("w2",))


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
    return list(_input_points(n_layers))


@lru_cache(maxsize=16)
def _input_points(n_layers: int) -> Mapping[str, int]:
    """Each linear's name, in forward order, mapped to the index of the
    :meth:`TransformerLM._blocks` yield that is its input."""
    return MappingProxyType({
        f"layers.{i}.{w}": len(_BLOCK_GROUPS) * i + g
        for i in range(n_layers)
        for g, group in enumerate(_BLOCK_GROUPS)
        for w in group
    })


def _last(walk: Iterator[np.ndarray]) -> np.ndarray:
    """Drain ``walk``; its last yield, the stream after the last block."""
    for h in walk:
        pass
    return h


@lru_cache(maxsize=16)
def _family_weights(
    profile: FamilyProfile,
) -> Tuple[np.ndarray, Mapping[str, np.ndarray]]:
    """``(embed, block weights)`` of ``profile``, generated from its seed.

    Cached per process and read-only, the mapping as well as the arrays:
    every :class:`TransformerLM` of the family reads the same arrays. The
    cache holds every registered LM and VLM profile, so a sweep over all
    families builds each once."""
    d, ff, v = profile.d_model, profile.d_ff, profile.vocab
    rng = np.random.default_rng(profile.seed)
    embed = rng.normal(0.0, 1.0, (v, d)) * (3.0 / np.sqrt(d))
    weights: Dict[str, np.ndarray] = {}
    opct, apct = profile.outlier_pct, profile.adjacent_pct
    for i in range(profile.n_layers):
        for name, shape in [
            ("wq", (d, d)),
            ("wk", (d, d)),
            ("wv", (d, d)),
            ("wo", (d, d)),
            ("w1", (ff, d)),
            ("w3", (ff, d)),
            ("w2", (d, ff)),
        ]:
            weights[f"layers.{i}.{name}"] = make_weight(
                shape[0], shape[1], rng, opct, apct
            )
    for array in (embed, *weights.values()):
        array.flags.writeable = False
    return embed, MappingProxyType(weights)


class TransformerLM:
    """Decoder-only LM over a ``FamilyProfile``; weights are plain ndarrays,
    shared read-only with every other model of the same profile."""

    def __init__(self, profile: FamilyProfile, max_len: int = 128):
        self.profile = profile
        self.max_len = max_len
        self.embed, weights = _family_weights(profile)
        self.pos = _sinusoidal_positions(max_len, profile.d_model)
        self.weights: Dict[str, np.ndarray] = dict(weights)
        # Overrides hold quantized replacements; act quantizers fake-quantize
        # each linear's input. Both default to identity (full precision).
        self.overrides: Dict[str, np.ndarray] = {}
        self.act_quant: Dict[str, ActQuant] = {}
        # Optional KV-cache fake-quantizer: callable (k, v) -> (k_q, v_q)
        # applied per sequence to the attention K/V tensors (KIVI-style).
        self.kv_quant = None
        # Where targeted calibration resumes (see collect_calibration):
        # (calibration input, suspended walk, the index of its last yield,
        # _inputs_before(that index)) or None.
        self._record: Optional[tuple] = None

    # ---------------------------------------------------------------- utils
    def _w(self, name: str) -> np.ndarray:
        return self.overrides.get(name, self.weights[name])

    def _linear(self, name: str, x: np.ndarray) -> np.ndarray:
        """``x @ w.T`` for the linear ``name`` (see :func:`_dense`), with
        the weight and activation quantizer installed now; a new array that
        the caller may overwrite."""
        aq = self.act_quant.get(name)
        if aq is not None:
            x = aq(x)
        return _dense(x, self._w(name))

    # -------------------------------------------------------------- forward
    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits ``[batch, seq, vocab]`` for token ids ``[batch, seq]``."""
        return self._forward_embeddings(self.embed[np.atleast_2d(tokens)])

    def _forward_embeddings(self, h0: np.ndarray) -> np.ndarray:
        """Logits for input embeddings ``[batch, seq, d_model]`` (the token
        lookup or the VLM's image/caption sequence); positions added here."""
        h = _last(self._blocks(self._stream(h0)))
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
        h = _last(self._blocks(self._stream(h0, past), cache))
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
        self, h: np.ndarray, cache: Optional[dict] = None
    ) -> Iterator[np.ndarray]:
        """Walk the decoder blocks over the residual stream ``h``: yield each
        calibration group's input before any of that group's matmuls, four
        per block (the normed input of ``wq``/``wk``/``wv``, the attention
        context of ``wo``, the normed input of ``w1``/``w3`` and the SwiGLU
        product of ``w2``), then the stream after the last block.

        The walk reads each linear's weight and activation quantizer, and
        ``kv_quant``, only when it reaches them, so a suspended walk runs on
        with whatever is installed when it is resumed. While suspended it
        holds only ``h``, the group's input and the causal mask: the other
        intermediates live and die in :meth:`_attend` and :meth:`_gate`.

        ``cache`` is the key/value cache of decoding: block ``i`` maps to
        its head-split ``(keys, values)``, ``[batch, heads, past, d_head]``,
        of the ``past`` positions before ``h``. The positions of ``h``
        attend over those and their own, which are appended in place. With
        no cache (or an empty one) ``past`` is 0 and the causal mask is the
        full sequence's.

        Nothing here writes to ``h`` or to a yielded input: a suspended walk
        and the arrays :meth:`collect_calibration` returns hold them."""
        seq = h.shape[1]
        past = cache[0][0].shape[2] if cache else 0
        mask = np.triu(np.full((seq, past + seq), -1e30), k=past + 1)
        for i in range(self.profile.n_layers):
            x = _rmsnorm(h)
            yield x
            x = self._attend(i, x, mask, cache)
            yield x
            h = h + self._linear(f"layers.{i}.wo", x)
            x = _rmsnorm(h)
            yield x
            x = self._gate(i, x)
            yield x
            h = h + self._linear(f"layers.{i}.w2", x)
        yield h

    def _attend(
        self, i: int, x: np.ndarray, mask: np.ndarray, cache: Optional[dict]
    ) -> np.ndarray:
        """Block ``i``'s causal multi-head attention over its normed input
        ``x``, through ``cache`` (see :meth:`_blocks`): the context ``wo``
        reads. In place only on the scores, which it allocates."""
        p = self.profile
        b, seq, _ = x.shape
        d_head = p.d_model // p.n_heads
        q = self._linear(f"layers.{i}.wq", x)
        k = self._linear(f"layers.{i}.wk", x)
        v = self._linear(f"layers.{i}.wv", x)
        if self.kv_quant is not None:
            for bi in range(b):
                k[bi], v[bi] = self.kv_quant(k[bi], v[bi])
        qh, kh, vh = (
            t.reshape(b, seq, p.n_heads, d_head).transpose(0, 2, 1, 3)
            for t in (q, k, v)
        )
        if cache is not None:
            if i in cache:
                kh = np.concatenate((cache[i][0], kh), axis=2)
                vh = np.concatenate((cache[i][1], vh), axis=2)
            cache[i] = kh, vh
        att = qh @ kh.transpose(0, 1, 3, 2)
        att /= np.sqrt(d_head)
        att += mask
        att = _softmax(att)
        return (att @ vh).transpose(0, 2, 1, 3).reshape(b, seq, p.d_model)

    def _gate(self, i: int, x: np.ndarray) -> np.ndarray:
        """Block ``i``'s SwiGLU product ``silu(x w1ᵀ) · (x w3ᵀ)`` over its
        normed MLP input ``x``: what ``w2`` reads."""
        gate = _silu(self._linear(f"layers.{i}.w1", x))
        gate *= self._linear(f"layers.{i}.w3", x)
        return gate

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        return self.forward(tokens)

    # ---------------------------------------------------------- calibration
    def collect_calibration(
        self, tokens: np.ndarray, names: Optional[Iterable[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Inputs seen by each linear during a forward pass over ``tokens``.

        The collection walks the blocks (:meth:`_blocks`) up to the input of
        the last linear it wants, so neither that linear's matmul, nor
        anything after it, nor the logits head runs. ``names`` restricts it
        to those linears (``KeyError`` for any name not in
        :attr:`linear_names`). The engine's sequential calibration asks for
        one group per call, in forward order, so a targeted collection keeps
        its walk suspended where it stopped, as the model's single record,
        and the next one resumes it: a sequential quantize runs each
        linear's matmul once.

        A targeted collection resumes the record only when all it wants lies
        past the suspension point (the same group again, or an earlier one,
        restarts from the embedding), and only while (1) the calibration
        input is the same object as when it was recorded (calibration inputs
        must not be modified in place), (2) every linear before the
        suspension point has the same weight (``overrides`` or ``weights``)
        and ``act_quant`` objects, and (3) ``kv_quant`` is the same object.
        The model keeps at most one record, by strong reference, so those
        identities cannot be recycled; :meth:`clear_overrides` drops it, and
        so does collecting the model's last linear. The full collection
        (``names=None``) walks afresh and leaves the record alone. A resumed
        walk runs the rest of the linears on what is installed when it
        resumes, exactly as a fresh forward would, so its activations are
        bit-identical to the full collection's.

        Each returned array is a read-only ``[tokens, d_in]`` view of the
        input the walk fed its linear; linears fed the same input
        (``wq``/``wk``/``wv``, ``w1``/``w3``) get the same array.
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
        points = _input_points(self.profile.n_layers)
        wanted = set(points if names is None else names)
        unknown = wanted.difference(points)
        if unknown:
            raise KeyError(f"unknown linears {sorted(unknown)}")
        order = [name for name in points if name in wanted]
        if not order:
            return {}
        walk, at = None, -1
        if names is not None:
            record, self._record = self._record, None
            if record is not None:
                rec_key, rec_walk, rec_at, inputs = record
                if (
                    rec_key is key
                    and rec_at < points[order[0]]
                    and all(map(operator.is_, inputs, self._inputs_before(rec_at)))
                ):
                    walk, at = rec_walk, rec_at
        if walk is None:
            walk = self._blocks(self._stream(embed()))
        taken = {points[name]: None for name in order}
        while at < points[order[-1]]:
            x = next(walk)
            at += 1
            if at in taken:
                taken[at] = x.reshape(-1, x.shape[-1])
                taken[at].flags.writeable = False
        if names is not None and at < len(_BLOCK_GROUPS) * self.profile.n_layers - 1:
            self._record = (key, walk, at, self._inputs_before(at))
        return {name: taken[points[name]] for name in order}

    def _inputs_before(self, point: int) -> list:
        """Everything besides the calibration input that a walk suspended at
        its yield ``point`` has read: ``kv_quant``, then the weight and
        activation quantizer of each linear before that point."""
        points = _input_points(self.profile.n_layers)
        names = [name for name, at in points.items() if at < point]
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
