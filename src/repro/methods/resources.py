"""Shared quantization resources: lazy Hessian factor bundles and their store.

The layer Hessian ``H = 2 X Xᵀ + λI`` and everything derived from it — the
inverse, its diagonal (OBS pruning saliency), and the upper Cholesky factor
of the inverse (GPTQ error compensation) — depend only on the calibration
activations and the damping, never on the bit setting or method knobs. A
:class:`HessianBundle` therefore owns one (activations, λ) fingerprint and
computes each factor **lazily, exactly once**: a sweep that quantizes the
same layer at W4 and then W2 pays the O(d³) inversion a single time, where
the pre-bundle code re-inverted per setting.

The :class:`HessianStore` memoizes bundles in memory, in an LRU keyed by a
content fingerprint (a SHA-256 over the activations, plus the damping). It
is thread-safe: concurrent requests for one fingerprint coalesce on the
bundle's own lock, so concurrent ``repro-serve`` submissions needing one
calibration build its ``H`` once. ``hits`` / ``misses`` counters make the
reuse assertable. A caller that has already hashed the activations — the
engine does, to batch same-calibration layers — passes that
:meth:`HessianStore.digest` to :meth:`HessianStore.bundle`, so one matrix
is hashed once.

Nothing is shared between processes: each worker of a ``process`` pool and
each host of a ``repro-dist`` fleet builds the Hessians its own jobs need.
:func:`default_hessian_store` returns the process-wide store.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Union

import numpy as np

from ..obs.metrics import METRICS

__all__ = [
    "HessianBundle",
    "HessianStore",
    "default_hessian_store",
]


class HessianBundle:
    """Lazily-computed Hessian and factors for one (activations, λ) pair.

    Factors cascade: ``h`` → ``hinv`` → ``hinv_diag`` / ``u_factor``. Each is
    computed on first access, under the bundle lock, and cached forever; the
    ``h_builds`` / ``inversions`` / ``factorizations`` counters record what
    was actually computed so sweeps can assert reuse. The bundle is what the
    method API's ``prepare`` step hands to Hessian-aware quantizers in place
    of a raw ``H`` matrix.
    """

    def __init__(
        self,
        acts: Optional[np.ndarray] = None,
        damp_ratio: float = 0.01,
        h: Optional[np.ndarray] = None,
    ):
        """Memory contract: ``acts`` is held only as the raw material for a
        future ``H`` build and is dropped the moment ``h`` materializes —
        a store full of bundles must not pin every layer's ``[n, d_in]``
        calibration matrix for the life of the LRU."""
        if acts is None and h is None:
            raise ValueError("HessianBundle needs activations or a Hessian")
        self.acts = acts if h is None else None
        self.damp_ratio = float(damp_ratio)
        self._h = h
        self._hinv: Optional[np.ndarray] = None
        self._hinv_diag: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._lock = threading.RLock()
        self.h_builds = 0
        self.inversions = 0
        self.factorizations = 0

    @classmethod
    def wrap(cls, hessian: Union[np.ndarray, HessianBundle]) -> HessianBundle:
        """Adapt a raw ``H`` matrix (the legacy ``hessian=`` contract) into a
        bundle; bundles pass through untouched."""
        if isinstance(hessian, HessianBundle):
            return hessian
        return cls(h=np.asarray(hessian))

    # ----------------------------------------------------------- lazy factors
    @property
    def h(self) -> np.ndarray:
        """The damped layer Hessian, built on first access."""
        with self._lock:
            if self._h is None:
                from ..quant.hessian import layer_hessian

                self._h = layer_hessian(self.acts, self.damp_ratio)
                self.h_builds += 1
                METRICS.incr("hessian.store.h_builds")
                # H is all any factor needs from here on; dropping the
                # activation reference keeps a store full of bundles from
                # pinning every layer's [n, d_in] calibration matrix.
                self.acts = None
            return self._h

    @property
    def h_diag(self) -> np.ndarray:
        """``diag(H)`` — the LWC column-importance weights."""
        return np.diag(self.h)

    @property
    def hinv(self) -> np.ndarray:
        """``H⁻¹`` (symmetrized), inverted exactly once per bundle."""
        with self._lock:
            if self._hinv is None:
                from ..quant.hessian import inverse_hessian

                self._hinv = inverse_hessian(self.h)
                self.inversions += 1
                METRICS.incr("hessian.store.inversions")
            return self._hinv

    @property
    def hinv_diag(self) -> np.ndarray:
        """``diag(H⁻¹)`` — the OBS pruning-saliency denominators."""
        with self._lock:
            if self._hinv_diag is None:
                self._hinv_diag = np.diag(self.hinv).copy()
            return self._hinv_diag

    @property
    def u_factor(self) -> np.ndarray:
        """Upper Cholesky factor ``U`` with ``H⁻¹ = UᵀU`` (GPTQ's form)."""
        with self._lock:
            if self._u is None:
                low = np.linalg.cholesky(self.hinv)
                self._u = np.ascontiguousarray(low.T)
                self.factorizations += 1
                METRICS.incr("hessian.store.factorizations")
            return self._u

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        have = [
            name
            for name, v in (("h", self._h), ("hinv", self._hinv), ("u", self._u))
            if v is not None
        ]
        return f"HessianBundle(damp={self.damp_ratio}, computed={'+'.join(have) or 'nothing'})"


class HessianStore:
    """Content-fingerprinted, LRU-bounded memo of per-layer Hessian bundles.

    Keys are a SHA-256 over the raw calibration activations plus the damping
    ratio, so the store is safe to share across layers, settings, and whole
    sweeps: identical activations → identical bundle, regardless of which
    (method × bits) setting asked for it. ``bundle`` is the primary API;
    ``hessian`` keeps the legacy raw-``H`` contract. Thread-safe: the store
    lock only guards the (cheap) get-or-create, while the O(n·d²)/O(d³)
    computation runs under the bundle's own lock, which is what coalesces
    concurrent requests for one calibration onto one ``XᵀX`` build.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = int(max_entries)
        self._data: OrderedDict[str, HessianBundle] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def digest(acts: np.ndarray) -> str:
        """SHA-256 over the activations' bytes, shape and dtype — the part of
        the :meth:`fingerprint` that depends on the matrix."""
        h = hashlib.sha256(np.ascontiguousarray(acts))
        h.update(repr((acts.shape, acts.dtype.str)).encode())
        return h.hexdigest()

    @classmethod
    def fingerprint(
        cls, acts: np.ndarray, damp_ratio: float, digest: Optional[str] = None
    ) -> str:
        """The store key of ``acts`` at ``damp_ratio``; ``digest`` is
        ``digest(acts)`` when the caller already has it."""
        return f"{digest or cls.digest(acts)}:{float(damp_ratio)!r}"

    # ----------------------------------------------------------------- reads
    def bundle(
        self, acts: np.ndarray, damp_ratio: float, digest: Optional[str] = None
    ) -> HessianBundle:
        """The (cached) factor bundle for these activations + damping.

        ``digest`` is :meth:`digest` of ``acts`` when the caller has already
        computed it; without it, ``acts`` is hashed here."""
        key = self.fingerprint(acts, damp_ratio, digest)
        with self._lock:
            found = self._data.get(key)
            if found is not None:
                self.hits += 1
                METRICS.incr("hessian.store.hits")
                self._data.move_to_end(key)
                return found
            self.misses += 1
            METRICS.incr("hessian.store.misses")
            made = HessianBundle(acts, damp_ratio)
            self._data[key] = made
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
            return made

    def hessian(self, acts: np.ndarray, damp_ratio: float) -> np.ndarray:
        """The (cached) damped layer Hessian of ``acts`` (legacy raw form)."""
        return self.bundle(acts, damp_ratio).h

    # -------------------------------------------------------------- counters
    @property
    def inversions(self) -> int:
        """Total ``H⁻¹`` computations across the store's live bundles."""
        with self._lock:
            return sum(b.inversions for b in self._data.values())

    @property
    def factorizations(self) -> int:
        """Total Cholesky factorizations across the store's live bundles."""
        with self._lock:
            return sum(b.factorizations for b in self._data.values())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_DEFAULT_STORE = HessianStore()


def default_hessian_store() -> HessianStore:
    """The process-wide store shared by all in-process jobs of a sweep."""
    return _DEFAULT_STORE
