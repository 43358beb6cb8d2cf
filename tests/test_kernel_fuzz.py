"""Seeded differential fuzz: the library kernels against the tests' oracle.

Every MicroScopiQ configuration axis that changes the kernel's control
flow — prune strategy × outlier format × compensation × micro-block — runs
``quantize_matrix`` and :func:`kernel_oracle.quantize_matrix_walk` on the
same seeded matrix, and ``gptq_core`` / ``quantize_olive`` run against
their oracle walks on it too. The matrices are hostile but finite:
``d_in`` 1–300 and ``d_out`` 1–24 (1-row and 1-column included), ragged
macro- and micro-block tails, zero rows, constant rows (every nonzero entry
of a zero-σ block is an outlier, so every μB holds only outliers), clustered
adjacent outliers, and plain Gaussian rows whose μBs hold none. NaN and ±inf
inputs are out of scope here.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from kernel_oracle import (
    assert_packed_equal,
    gptq_core_walk,
    oracle_kernels,
    quantize_olive_walk,
)

from repro.baselines import gptq_core, quantize_olive
from repro.methods.resources import HessianBundle
from repro.quant.config import MicroScopiQConfig
from repro.quant.microscopiq import quantize_matrix

_CONFIGS = list(
    itertools.product(
        ("hessian", "magnitude", "adjacent"),
        ("mx-fp", "mx-int", "none"),
        (True, False),
        (4, 8, 16),
    )
)

# Shapes every run covers once, before the random draws: 1×1, one row, one
# column, and a one-column tail macro-block.
_EDGE_SHAPES = [(1, 1), (1, 300), (24, 1), (7, 129)]


def _fuzz_matrix(rng, d_out: int, d_in: int, micro: int) -> np.ndarray:
    w = rng.normal(0.0, 0.02, (d_out, d_in))
    for r in range(d_out):
        kind = int(rng.integers(6))
        if kind == 0:
            w[r] = 0.0
        elif kind == 1:
            w[r] = rng.normal(0.0, 0.05)
        elif kind == 2:  # a run of adjacent outliers
            n = min(int(rng.integers(2, 6)), d_in)
            lo = int(rng.integers(0, d_in - n + 1))
            w[r, lo : lo + n] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 1.5, n)
        elif kind == 3:  # one whole μB large
            lo = int(rng.integers(0, (d_in + micro - 1) // micro)) * micro
            n = len(w[r, lo : lo + micro])
            w[r, lo : lo + micro] = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
        elif kind == 4:  # scattered outliers
            w[r, rng.random(d_in) < 0.03] *= 40.0
    return w


def _cases():
    rng = np.random.default_rng(20261019)
    for k, (strategy, fmt, compensate, micro) in enumerate(_CONFIGS):
        if k < len(_EDGE_SHAPES):
            d_out, d_in = _EDGE_SHAPES[k]
        else:
            d_out, d_in = int(rng.integers(1, 25)), int(rng.integers(1, 301))
        config = MicroScopiQConfig(
            inlier_bits=int(rng.choice([2, 4])),
            micro_block=micro,
            macro_block=int(rng.choice([2 * micro, 128])),
            outlier_format=fmt,
            prune_strategy=strategy,
            compensate=compensate,
        )
        seed = int(rng.integers(2**32))
        label = f"{strategy}-{fmt}-{'comp' if compensate else 'nocomp'}-ub{micro}"
        yield pytest.param(k, config, d_out, d_in, seed, id=label)


@pytest.mark.parametrize("k, config, d_out, d_in, seed", _cases())
def test_kernels_match_oracle(k, config, d_out, d_in, seed):
    rng = np.random.default_rng(seed)
    w = _fuzz_matrix(rng, d_out, d_in, config.micro_block)
    calib = rng.normal(0.0, 1.0, (2 * d_in + 4, d_in)) if k % 4 else None
    context = f"case {k}: {d_out}x{d_in} {config}"

    got = quantize_matrix(w, calib, config)
    with oracle_kernels():
        want = quantize_matrix(w, calib, config)
    assert_packed_equal(want, got, context)
    assert not got.dequant[got.pruned_mask].any(), f"{context}: pruned slot non-zero"

    bundle = HessianBundle(rng.normal(0.0, 1.0, (2 * d_in + 4, d_in)), 0.01)
    bits = config.inlier_bits
    bits_per_col = np.where(rng.random(d_in) < 0.15, 8, bits)
    group_size = config.macro_block
    args = (w, bundle, bits_per_col, group_size, float(rng.choice([1.0, 0.75])))
    assert np.array_equal(gptq_core(*args), gptq_core_walk(*args)), f"{context}: gptq"

    olive = quantize_olive(w, None, bits=bits, group_size=group_size)
    olive_want = quantize_olive_walk(w, None, bits=bits, group_size=group_size)
    assert np.array_equal(olive.dequant, olive_want.dequant), f"{context}: olive"
    assert olive.meta == olive_want.meta, f"{context}: olive meta"
