"""Shared quantization resources: lazy Hessian factor bundles and their store.

The layer Hessian ``H = 2 X Xᵀ + λI`` and everything derived from it — the
inverse, its diagonal (OBS pruning saliency), and the upper Cholesky factor
of the inverse (GPTQ error compensation) — depend only on the calibration
activations and the damping, never on the bit setting or method knobs. A
:class:`HessianBundle` therefore owns one (activations, λ) fingerprint and
computes each factor **lazily, exactly once**: a sweep that quantizes the
same layer at W4 and then W2 pays the O(d³) inversion a single time, where
the pre-bundle code re-inverted per setting.

The :class:`HessianStore` memoizes bundles by content fingerprint with two
tiers:

* an in-process LRU (thread-safe; concurrent requests for one fingerprint
  coalesce on the bundle's own lock, so concurrent ``repro-serve``
  submissions needing one calibration build its ``H`` once);
* an optional **content-addressed blob tier** behind the
  :class:`repro.pipeline.cache.BlobStore` protocol — a directory
  (``<root>/<hh>/<fp>.npz`` blobs, written atomically) or a distributed
  coordinator's blob relay (``http://…``) — so multi-process and multi-host
  sweeps stop recomputing Hessians per worker: the first worker to build an
  ``H`` persists it, every other worker — and every later *process* — loads
  the blob instead of re-running the O(n·d²) ``XᵀX`` build. The blob holds the
  *factors* too: ``hinv_diag`` and the Cholesky ``u_factor`` are appended
  (under version-tagged keys) as they are first computed, so a genuinely
  fresh process pays zero O(d³) inversions for fingerprints an earlier run
  factorized. Partial or corrupt blobs degrade gracefully — whatever loads
  is used, the rest recomputes from the activations. ``hits`` /
  ``disk_hits`` / ``misses`` counters make the reuse assertable.

Concurrent *builds* coalesce fleet-wide through the blob store's claim
primitive: before computing ``h`` or ``u_factor``, a bundle with a tier
claims ``<fingerprint>:<factor>``; the loser of the race polls until the
winner's blob lands (adopting the published factors) instead of duplicating
the O(n·d²)/O(d³) work. Claims carry a staleness TTL, so a worker killed
mid-build delays its waiters by at most the TTL — they break the claim and
compute themselves.

:func:`default_hessian_store` returns the process-wide store; its blob tier
attaches from the ``REPRO_HESSIAN_DIR`` environment variable (a directory
path or an ``http://`` coordinator URL), which the
sweep runner sets (next to the ``ResultCache``) before spawning workers so
the whole pool shares one tier without any pickled plumbing.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
import time
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from ..obs.metrics import METRICS

__all__ = [
    "HESSIAN_DIR_ENV",
    "HessianBundle",
    "HessianStore",
    "default_hessian_store",
]

HESSIAN_DIR_ENV = "REPRO_HESSIAN_DIR"

# Disk-blob schema: factor arrays live under version-tagged keys
# ("v1:h", ...) so a future numerics change can bump the tag and old blobs
# fall through to recompute instead of silently poisoning results.
_BLOB_VERSION = 1
_BLOB_FACTORS = ("h", "hinv_diag", "u_factor")

#: Claim staleness: how long a fleet-wide build claim may sit before waiters
#: conclude its owner died and take over the build themselves.
_CLAIM_TTL = 60.0
_CLAIM_POLL = 0.05


def _blob_key(factor: str) -> str:
    return f"v{_BLOB_VERSION}:{factor}"


def _normalize_target(target: Any) -> Any:
    """A comparable tier target: ``Path`` for plain directories, the string
    itself for ``scheme://`` URLs (which ``make_blob_store`` accepts or
    rejects), pass-through otherwise."""
    if target is None:
        return None
    if isinstance(target, (str, os.PathLike)):
        spec = str(target)
        if "://" in spec:
            return spec
        return Path(spec)
    return target


class _BlobTier:
    """One fingerprint's channel to the store's blob tier.

    Wraps a :class:`~repro.pipeline.cache.BlobStore` with the Hessian blob
    codec (version-tagged ``.npz``, legacy raw-``.npy`` readable) and the
    claim-based build coalescing. Every operation degrades gracefully: an
    unreachable or read-only tier turns fetches into misses, persists into
    no-ops, and claims into immediate ownership — the sweep never fails on
    tier trouble, it just recomputes.
    """

    def __init__(self, store: Any, key: str):
        self.store = store
        self.key = key

    # ------------------------------------------------------------------ codec
    def raw(self) -> Optional[bytes]:
        try:
            return self.store.get(self.key)
        except Exception:
            return None

    @staticmethod
    def decode(raw: bytes) -> Optional[dict]:
        """Factor dict off blob bytes; ``None`` on corruption/version skew.

        ``np.load`` sniffs the container: ``.npz`` archives yield the
        version-tagged factor subset, a bare array is a pre-factor-tier
        legacy ``.npy`` blob (raw ``H`` only).
        """
        try:
            found = np.load(io.BytesIO(raw), allow_pickle=False)
            if isinstance(found, np.ndarray):
                return {"h": found}
            with found as blob:
                loaded = {
                    factor: blob[_blob_key(factor)]
                    for factor in _BLOB_FACTORS
                    if _blob_key(factor) in blob.files
                }
            if "h" not in loaded:  # unknown schema version: treat as miss
                raise ValueError(f"no {_blob_key('h')} array in blob")
            return loaded
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None

    def fetch(self) -> Optional[dict]:
        raw = self.raw()
        return self.decode(raw) if raw is not None else None

    def persist(self, bundle: HessianBundle) -> None:
        """Write the bundle's computed factors; called again as new factors
        appear, each write atomically replacing the blob with the fuller
        factor set."""
        factors = bundle.persisted_factors()
        if "h" not in factors:
            return
        buf = io.BytesIO()
        np.savez(buf, **{_blob_key(k): v for k, v in factors.items()})
        try:
            self.store.put(self.key, buf.getvalue())
        except Exception:
            pass  # a read-only or full tier never fails the sweep

    # ----------------------------------------------------------------- claims
    def coalesce(self, factor: str) -> Optional[dict]:
        """Race fleet-wide for the right to build ``factor``.

        Returns the loaded factor dict (containing ``factor``) when another
        process built it — nothing to compute. Returns ``None`` when this
        caller owns the build claim (or the tier is unreachable): compute,
        persist, then :meth:`release`.
        """
        claim_key = f"{self.key}:{factor}"
        waited = False
        while True:
            loaded = self.fetch()
            if loaded is not None and factor in loaded:
                if waited:
                    # We never acquired the claim; the owner releases it.
                    pass
                return loaded
            try:
                owner = self.store.claim(claim_key, _CLAIM_TTL)
            except Exception:
                return None  # unreachable tier: build locally
            if owner:
                # Double-check: the previous owner may have persisted and
                # released between our fetch and our claim.
                loaded = self.fetch()
                if loaded is not None and factor in loaded:
                    self.release(factor)
                    return loaded
                return None
            if not waited:
                waited = True
                METRICS.incr("cache.backend.claim_waits")
            time.sleep(_CLAIM_POLL)

    def release(self, factor: str) -> None:
        try:
            self.store.release(f"{self.key}:{factor}")
        except Exception:
            pass


class HessianBundle:
    """Lazily-computed Hessian and factors for one (activations, λ) pair.

    Factors cascade: ``h`` → ``hinv`` → ``hinv_diag`` / ``u_factor``. Each is
    computed on first access, under the bundle lock, and cached forever; the
    ``h_builds`` / ``inversions`` / ``factorizations`` counters record what
    was actually computed so sweeps can assert reuse. The bundle is what the
    method API's ``prepare`` step hands to Hessian-aware quantizers in place
    of a raw ``H`` matrix.

    With a ``tier`` attached, the expensive computations (``h`` and
    ``u_factor``) first consult the fleet: a concurrent builder elsewhere is
    waited on and its published factors adopted, so the whole fleet pays
    each O(n·d²) build and O(d³) factorization exactly once.
    """

    def __init__(
        self,
        acts: Optional[np.ndarray] = None,
        damp_ratio: float = 0.01,
        h: Optional[np.ndarray] = None,
        persist=None,
        tier: Optional[_BlobTier] = None,
    ):
        """``tier`` is the bundle's channel to the store's blob tier
        (persistence + fleet-wide build coalescing); ``persist`` is the
        legacy callable form — called with the bundle whenever a persistable
        factor is first *computed* — kept for direct constructions.

        Memory contract: ``acts`` is held only as the raw material for a
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
        self._persist = persist
        self._tier = tier
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

    @classmethod
    def from_factors(
        cls,
        factors: dict,
        damp_ratio: float,
        persist=None,
        tier: Optional[_BlobTier] = None,
    ) -> HessianBundle:
        """A bundle over blob-tier factors (``h`` required, ``hinv_diag`` /
        ``u_factor`` optional) — never holds the calibration activations."""
        made = cls(h=factors["h"], damp_ratio=damp_ratio, persist=persist, tier=tier)
        made._hinv_diag = factors.get("hinv_diag")
        made._u = factors.get("u_factor")
        return made

    # ----------------------------------------------------------- lazy factors
    def _persist_now(self) -> None:
        if self._tier is not None:
            self._tier.persist(self)
        elif self._persist is not None:
            self._persist(self)

    # Only called from the h/u_factor properties, already under self._lock.
    def _adopt(self, factors: dict) -> None:  # repro-lint: ignore[lock-unguarded-write]
        """Take factors another process published (never overwrite our own)."""
        if self._h is None:
            self._h = factors.get("h")
        if self._hinv_diag is None:
            self._hinv_diag = factors.get("hinv_diag")
        if self._u is None:
            self._u = factors.get("u_factor")
        if self._h is not None:
            self.acts = None

    def persisted_factors(self) -> dict:
        """The currently-computed factors worth writing to the blob tier."""
        with self._lock:
            out = {}
            for name, value in (
                ("h", self._h),
                ("hinv_diag", self._hinv_diag),
                ("u_factor", self._u),
            ):
                if value is not None:
                    out[name] = value
            return out

    @property
    def h(self) -> np.ndarray:
        """The damped layer Hessian, built on first access."""
        with self._lock:
            if self._h is None:
                loaded = self._tier.coalesce("h") if self._tier is not None else None
                if loaded is not None:
                    self._adopt(loaded)
                else:
                    try:
                        from ..quant.hessian import layer_hessian

                        self._h = layer_hessian(self.acts, self.damp_ratio)
                        self.h_builds += 1
                        METRICS.incr("hessian.store.h_builds")
                        self._persist_now()
                    finally:
                        if self._tier is not None:
                            self._tier.release("h")
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
                self._persist_now()
            return self._hinv_diag

    @property
    def u_factor(self) -> np.ndarray:
        """Upper Cholesky factor ``U`` with ``H⁻¹ = UᵀU`` (GPTQ's form)."""
        with self._lock:
            if self._u is None:
                loaded = None
                if self._tier is not None:
                    loaded = self._tier.coalesce("u_factor")
                if loaded is not None:
                    self._adopt(loaded)
                else:
                    try:
                        low = np.linalg.cholesky(self.hinv)
                        self._u = np.ascontiguousarray(low.T)
                        self.factorizations += 1
                        METRICS.incr("hessian.store.factorizations")
                        self._persist_now()
                    finally:
                        if self._tier is not None:
                            self._tier.release("u_factor")
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

    With ``disk_root`` set — a directory path or an ``http://`` coordinator
    URL, resolved through
    :func:`repro.pipeline.cache.make_blob_store` — every freshly built ``H``
    is persisted as a content-addressed blob, and the expensive factors
    (``hinv_diag``, the Cholesky ``u_factor``) are appended to it as they
    are first computed, so later stores, including ones in *other processes
    and on other hosts*, resolve the fingerprint from the tier
    (``disk_hits``) instead of recomputing (``misses``) and pay zero O(d³)
    factorizations for fingerprints an earlier run already factorized.
    """

    def __init__(self, max_entries: int = 64, disk_root: Optional[os.PathLike] = None):
        self.max_entries = int(max_entries)
        self.disk_root = None
        self._blob_store = None
        self._data: OrderedDict[str, HessianBundle] = OrderedDict()
        # Reentrant: a corrupt-blob load inside `bundle` re-classifies the
        # hit/miss counters under this same lock.
        self._lock = threading.RLock()
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        if disk_root is not None:
            self.set_disk_root(disk_root)

    def set_disk_root(self, target) -> None:
        """Attach or re-target the blob tier (thread-safe).

        ``target`` is anything :func:`~repro.pipeline.cache.make_blob_store`
        resolves — a path, an ``http://`` URL, or an existing
        :class:`~repro.pipeline.cache.BlobStore`. ``default_hessian_store``
        re-reads ``REPRO_HESSIAN_DIR`` on every call, possibly from
        concurrent worker threads; the retarget must not race a ``bundle()``
        lookup resolving blobs.
        """
        normalized = _normalize_target(target)
        store = None
        if normalized is not None:
            from ..pipeline.cache import make_blob_store

            store = make_blob_store(normalized)
        with self._lock:
            self.disk_root = normalized
            self._blob_store = store

    @staticmethod
    def fingerprint(acts: np.ndarray, damp_ratio: float) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(acts).tobytes())
        h.update(repr((acts.shape, acts.dtype.str, float(damp_ratio))).encode())
        return h.hexdigest()

    # ------------------------------------------------------------- blob tier
    def _tier_for(self, key: str) -> Optional[_BlobTier]:
        if self._blob_store is None:
            return None
        return _BlobTier(self._blob_store, key)

    # ----------------------------------------------------------------- reads
    def bundle(self, acts: np.ndarray, damp_ratio: float) -> HessianBundle:
        """The (cached) factor bundle for these activations + damping.

        A blob-tier hit is resolved *eagerly* here: a bundle served from the
        tier is built over the loaded factors and never references ``acts``,
        so a store full of tier-hit bundles pins no calibration matrices
        (bundles that must build ``H`` themselves hold ``acts`` only until
        the first build — see :class:`HessianBundle`). Only a corrupt blob
        falls back to an activation-holding bundle, with the counters
        re-classified at that point.
        """
        key = self.fingerprint(acts, damp_ratio)
        with self._lock:
            found = self._data.get(key)
            if found is not None:
                self.hits += 1
                METRICS.incr("hessian.store.hits")
                self._data.move_to_end(key)
                return found
            tier = self._tier_for(key)
            loaded = None
            raw = tier.raw() if tier is not None else None
            if raw is not None:
                self.disk_hits += 1
                METRICS.incr("hessian.store.disk_hits")
                loaded = tier.decode(raw)
                if loaded is None:  # corrupt blob: that "hit" was really a miss
                    self.disk_hits -= 1
                    self.misses += 1
                    METRICS.incr("hessian.store.disk_hits", -1)
                    METRICS.incr("hessian.store.misses")
            else:
                self.misses += 1
                METRICS.incr("hessian.store.misses")
            if loaded is not None:
                made = HessianBundle.from_factors(loaded, damp_ratio, tier=tier)
            else:
                made = HessianBundle(acts, damp_ratio, tier=tier)
            self._data[key] = made
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
            return made

    def hessian(self, acts: np.ndarray, damp_ratio: float) -> np.ndarray:
        """The (cached) damped layer Hessian of ``acts`` (legacy raw form)."""
        return self.bundle(acts, damp_ratio).h

    @classmethod
    def clean_disk(cls, disk_root, older_than: Optional[float] = None) -> int:
        """Delete tier blobs under ``disk_root`` (all, or only ones older
        than ``older_than`` seconds) — any store a tier target resolves to.
        Returns the number of blobs removed."""
        from ..pipeline.cache import make_blob_store

        return make_blob_store(_normalize_target(disk_root)).clean(older_than)

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
            self.disk_hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_DEFAULT_STORE = HessianStore()


def default_hessian_store() -> HessianStore:
    """The process-wide store shared by all in-process jobs of a sweep.

    The blob tier attaches (or re-targets) from ``REPRO_HESSIAN_DIR`` on
    every call: the sweep runner exports the variable before spawning its
    worker pool, so forked/spawned workers inherit the tier through the
    environment with no pickled state — and a distributed worker points it
    at the coordinator's blob relay the same way.
    """
    env = os.environ.get(HESSIAN_DIR_ENV)
    target = _normalize_target(env if env else None)
    if _DEFAULT_STORE.disk_root != target:
        _DEFAULT_STORE.set_disk_root(env if env else None)
    return _DEFAULT_STORE
