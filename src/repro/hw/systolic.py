"""Cycle-level performance model of the MicroScopiQ systolic array.

Weight-stationary execution of ``y[M, d_out] = x[M, d_in] @ W^T``:

* the array is tiled ``ceil(d_in / R)`` × ``ceil(d_out / (C·pack))`` where
  ``pack = 2`` in 2-bit mode (two output channels per PE);
* tiles stream back-to-back through the array (weights double-buffered), so
  a layer's compute time is one pipeline fill plus ``n_tiles × M`` streaming
  cycles plus any ReCoN stall;
* PE rows holding outlier μBs (packed into the fewest rows by the
  scheduler, see :mod:`repro.hw.mapping`) detour their output
  vectors through ReCoN. ReCoN units are shared and accept one row-vector
  per cycle; requests from overlapping rows — and from consecutive tiles
  whose issue period is shorter than the row spread — queue at the
  column-wise arbiters. The queueing simulation below produces both the
  stall cycles and the per-access conflict percentages of Fig. 16(b);
* weight/activation/output traffic rides HBM2 → L2 → buffers with perfect
  double buffering: a layer costs ``max(compute, dram, sram)`` cycles.

Transformer blocks repeat identical shapes; callers simulate one instance
per distinct shape and scale by ``spec.count``.

**Contention memo.** The ReCoN queueing run is most of a GEMM's cost, yet its
result ``(accesses, delayed, extra)`` is a function of six integers: outlier
rows per tile, tile rows, input vectors ``m``, simulated tiles, the tile
issue period and the ReCoN unit count (the outlier rows' offsets are
``linspace(0, tile_rows - 1, k_out)``, fixed by the first two). Sweeps repeat
those tile schedules across layers, archs and grid points, so
:func:`_contention` memoizes the run on exactly that key. A hit returns the
integers a fresh run computes from the same inputs, so every statistic is
bit-identical. The memo is a bounded LRU (4,096 entries of three ints
each), so a long-lived process such as the sweep service cannot grow it
without limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import AcceleratorConfig
from .mapping import LayerSpec

__all__ = ["GemmStats", "simulate_gemm", "simulate_layers", "recon_contention"]

# Cap on explicitly simulated tile periods; stats extrapolate beyond it.
_MAX_SIM_TILES = 64


@dataclass
class GemmStats:
    """Counters from one simulated GEMM (or an accumulation of several)."""

    cycles: float = 0.0
    compute_cycles: float = 0.0
    dram_cycles: float = 0.0
    sram_cycles: float = 0.0
    macs: float = 0.0
    dram_bits: float = 0.0
    sram_bits: float = 0.0
    recon_accesses: float = 0.0
    recon_conflicts: float = 0.0
    recon_values: float = 0.0
    n_tiles: float = 0.0
    outlier_rows: float = 0.0

    @property
    def conflict_pct(self) -> float:
        """Percent of ReCoN accesses delayed by arbitration (Fig. 16b)."""
        if self.recon_accesses == 0:
            return 0.0
        return 100.0 * self.recon_conflicts / self.recon_accesses

    def merged_with(self, other: GemmStats, scale: float = 1.0) -> GemmStats:
        out = GemmStats()
        for f in out.__dataclass_fields__:
            setattr(out, f, getattr(self, f) + scale * getattr(other, f))
        return out


def recon_contention(
    arrivals: np.ndarray, n_recon: int
) -> tuple[int, int, int]:
    """FCFS queueing at the ReCoN arbiters.

    ``arrivals[t]`` = row-vector requests issued at cycle ``t``; ``n_recon``
    are served per cycle, queued requests first. Returns
    ``(accesses, delayed_accesses, extra_cycles)`` where ``extra_cycles``
    is the end-of-stream backlog drain (the pipeline stall).
    """
    total = int(arrivals.sum())
    if total == 0:
        return 0, 0, 0
    cum = np.cumsum(arrivals.astype(np.int64) - n_recon)
    floor = np.minimum.accumulate(np.minimum(cum, 0))
    queue = cum - floor
    prev_queue = np.concatenate([[0], queue[:-1]])
    # New arrivals that find no free service slot this cycle are conflicted.
    delayed = int(
        np.sum(
            np.maximum(
                0, np.minimum(arrivals, prev_queue + arrivals - n_recon)
            )
        )
    )
    extra = int(np.ceil(queue[-1] / n_recon)) if queue[-1] else 0
    return total, delayed, extra


def _build_arrivals(
    offsets: np.ndarray, m: int, n_tiles: int, period: int, tile_rows: int
) -> np.ndarray:
    """Request timeline: each outlier row issues ``m`` requests per tile,
    tiles repeat every ``period`` cycles (back-to-back pipelining).

    The scheduler rotates outlier-row placement from tile to tile (a
    golden-ratio phase) so consecutive tiles' requests do not land on
    systematically colliding cycles — collisions that do occur are the
    residual conflicts Fig. 16(b) measures.

    Built as a difference array: every (tile, row) request burst adds +1
    at its start cycle and −1 ``m`` cycles later, and a prefix sum turns
    that into per-cycle counts. The counts are integers, so the timeline
    is exact — the same as incrementing each burst's slice one by one."""
    horizon = (n_tiles - 1) * period + tile_rows + m + 5
    t = np.arange(n_tiles, dtype=np.int64)[:, None]
    off = np.asarray(offsets, dtype=np.int64)
    shift = (t * 23) % max(1, tile_rows)
    # Sync-buffer depth differences add a few cycles of arrival jitter
    # (deterministic hash, reproducible across runs).
    jitter = (t * 7 + off * 13) % 4
    starts = (t * period + (off + shift) % tile_rows + jitter).ravel()
    delta = np.bincount(starts, minlength=horizon + 1)
    delta -= np.bincount(starts + m, minlength=horizon + 1)
    return np.cumsum(delta[:horizon], dtype=np.int64)


# A cold hw-grid sweep's 6,804 GEMMs need 87 entries.
@lru_cache(maxsize=4096)
def _contention(
    k_out: int, tile_rows: int, m: int, sim_tiles: int, period: int, n_recon: int
) -> tuple[int, int, int]:
    """ReCoN ``(accesses, delayed, extra)`` of one tile schedule: ``k_out``
    outlier rows spread evenly over ``tile_rows`` each issue ``m`` requests
    per tile, ``sim_tiles`` tiles every ``period`` cycles, served by
    ``n_recon`` units. Memoized; see the module docstring."""
    offsets = np.linspace(0, tile_rows - 1, k_out).astype(np.int64)
    arrivals = _build_arrivals(offsets, m, sim_tiles, period, tile_rows)
    return recon_contention(arrivals, n_recon)


def simulate_gemm(
    spec: LayerSpec, m: int, cfg: AcceleratorConfig, pack: float | None = None
) -> GemmStats:
    """Simulate ``m`` input vectors through one instance of a layer.

    ``pack`` overrides the weights-per-PE packing factor: MicroScopiQ packs
    two weights at bb=2 (default inferred); bottom-up multi-precision
    designs like OliVe pair PEs at 8 bits, modeled as pack = 0.5.

    The ReCoN queueing run comes from a bounded LRU memo keyed on
    ``(k_out, tile_rows, m, simulated tiles, period, n_recon)``, every input
    it depends on, so a sweep simulates each distinct tile schedule once.
    Its results are integers, so a hit is bit-identical to a fresh run.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    stats = GemmStats()
    if pack is None:
        pack = 2 if spec.bit_budget == 2 else 1
    cols_per_tile = max(1, int(cfg.cols * pack))

    n_rtiles = (spec.d_in + cfg.rows - 1) // cfg.rows
    n_ctiles = (spec.d_out + cols_per_tile - 1) // cols_per_tile
    n_tiles = n_rtiles * n_ctiles

    tile_rows = min(cfg.rows, spec.d_in)
    tile_cols = min(cols_per_tile, spec.d_out)
    k_out = spec.outlier_rows_in_tile(tile_rows, tile_cols)

    # Tile issue period: compute-limited (M cycles to stream) or weight-
    # load-limited through the L2 interface, whichever is slower.
    tile_weight_bits = tile_rows * tile_cols * spec.ebw
    period = max(m, int(np.ceil(tile_weight_bits / cfg.sram_bits_per_cycle)))

    sim_tiles = min(n_tiles, _MAX_SIM_TILES)
    accesses, delayed, extra = _contention(
        k_out, tile_rows, m, sim_tiles, period, cfg.n_recon
    )
    scale = n_tiles / sim_tiles if sim_tiles else 0.0

    fill = tile_rows + cfg.cols + (cfg.recon_stages if k_out else 0)
    stats.recon_accesses = accesses * scale
    stats.recon_conflicts = delayed * scale
    stats.recon_values = accesses * cfg.cols * scale
    stats.outlier_rows = float(k_out) * n_tiles
    stats.n_tiles = n_tiles
    stats.compute_cycles = fill + n_tiles * m + (delayed + extra) * scale
    stats.macs = float(m) * spec.d_in * spec.d_out

    stats.dram_bits = spec.weight_bits + m * spec.d_in * cfg.act_bits
    stats.sram_bits = (
        spec.weight_bits  # weights pass through L2 once
        + m * spec.d_in * cfg.act_bits * n_ctiles  # iActs re-read per c-tile
        + m * spec.d_out * cfg.act_bits  # oActs written back
    )
    stats.dram_cycles = stats.dram_bits / cfg.dram_bits_per_cycle
    stats.sram_cycles = stats.sram_bits / cfg.sram_bits_per_cycle
    stats.cycles = max(stats.compute_cycles, stats.dram_cycles, stats.sram_cycles)
    return stats


def simulate_layers(
    specs: list[LayerSpec], m: int, cfg: AcceleratorConfig
) -> GemmStats:
    """Simulate one model step (layer-serial): counters sum; each layer
    contributes its own max(compute, memory) to total cycles."""
    total = GemmStats()
    for spec in specs:
        total = total.merged_with(simulate_gemm(spec, m, cfg), scale=spec.count)
    return total
