"""Shared block-loop scaffolding for the GPTQ-family weight quantizers.

MicroScopiQ and the block-structured baselines (GPTQ, OliVe, SDQ) all walk
the input (dot-product) dimension in fixed-width column blocks and run the
same outer stages: **separate** outliers with the 3σ rule, fit a scale,
quantize, and — for the Hessian-aware methods — **compensate** by pushing
each block's quantization error onto not-yet-quantized columns through the
inverse-Hessian Cholesky factor (the OBS update). :class:`BlockQuantKernel`
owns that scaffolding once; each method supplies only its per-stage math
(scale fitting, pruning, outlier encoding), so the block-loop plumbing is
not re-implemented per baseline.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .outliers import outlier_mask

__all__ = ["BlockQuantKernel"]


class BlockQuantKernel:
    """Column-block walk + outlier separation + OBS error compensation.

    The kernel is stateless apart from its configuration; the same instance
    can drive any number of matrices. Stages it provides:

    * :meth:`blocks` — the ``[lo, hi)`` column ranges of the block walk;
    * :meth:`separate` — the 3σ outlier mask of one block (stage 1 of
      Algorithm 1, and the shared detection rule of OliVe/SDQ);
    * :meth:`propagate_block_error_gemm` — the GPTQ/OBS compensation sweep
      for one quantized block (stage 5), with the sequential within-block
      conditioning GPTQ's Cholesky factorization requires.
    """

    def __init__(
        self,
        block_size: int,
        sigma_threshold: float = 3.0,
        detect_outliers: bool = True,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)
        self.sigma_threshold = float(sigma_threshold)
        self.detect_outliers = bool(detect_outliers)

    def blocks(self, d_in: int) -> Iterator[Tuple[int, int]]:
        """Yield the ``[lo, hi)`` column ranges of the block walk."""
        for lo in range(0, d_in, self.block_size):
            yield lo, min(lo + self.block_size, d_in)

    def separate(self, block: np.ndarray) -> np.ndarray:
        """Stage *separate*: the per-row 3σ outlier mask of one block."""
        if not self.detect_outliers:
            return np.zeros(block.shape, dtype=bool)
        return outlier_mask(block, self.sigma_threshold, axis=-1)

    @staticmethod
    def propagate_block_error_gemm(
        w: np.ndarray, q: np.ndarray, u_factor: np.ndarray, lo: int, hi: int
    ) -> None:
        """Stage *compensate*: OBS error propagation for columns ``[lo, hi)``.

        ``w[:, lo:hi]`` must still hold the pre-quantization (compensated)
        weights and ``q[:, lo:hi]`` their quantized values. Q for the block
        may have been chosen jointly from that snapshot, but the error terms
        must follow the sequential Cholesky conditioning: column ``p``'s
        error is measured against the weights *after* columns ``< p`` inside
        the block have pushed their updates.

        Phase 1 runs that conditioning only on the small ``[d_out, hi-lo]``
        working copy, collecting every column's error term; phase 2 pushes
        all trailing-column updates at once through a single
        ``errs @ u_factor[lo:hi, hi:]`` GEMM instead of one rank-1 update per
        column (the column-by-column form is the tests' oracle,
        ``tests/kernel_oracle.py``). The error terms are computed
        identically, so the only float difference is the summation order of
        the trailing updates; MicroScopiQ's outputs stay bit-identical to the
        oracle's (``tests/test_vector_kernel.py``). With ``hi == lo+1`` the GEMM is an outer product and
        the two forms are trivially identical.
        """
        d_in = w.shape[1]
        w_work = w[:, lo:hi].copy()
        errs = np.empty_like(w_work)
        for p in range(lo, hi):
            j = p - lo
            err = (w_work[:, j] - q[:, p]) / u_factor[p, p]
            errs[:, j] = err
            if j + 1 < w_work.shape[1]:
                w_work[:, j + 1 :] -= np.outer(err, u_factor[p, p + 1 : hi])
        if hi < d_in:
            w[:, hi:] -= errs @ u_factor[lo:hi, hi:]
