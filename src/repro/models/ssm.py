"""State-space model substrate (the VMamba/Vim analog for Table 4).

A selective-scan classifier: per step, input-dependent gates modulate a
linear recurrence ``h_t = a_t ⊙ h_{t-1} + b_t ⊙ (W_in x_t)``. The
recurrence *compounds* weight quantization error across the sequence, which
is why SSMs quantize so much worse than CNNs in Table 4 — that mechanism is
structural and carries over directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .generator import plant_outliers

__all__ = ["SelectiveScanModel", "SSM_PROFILES", "build_ssm"]


@dataclass(frozen=True)
class SsmProfile:
    name: str
    paper_model: str
    d_model: int
    d_state: int
    seq_len: int
    n_classes: int
    outlier_pct: float
    seed: int


SSM_PROFILES: Dict[str, SsmProfile] = {
    p.name: p
    for p in [
        SsmProfile("vmamba-s", "VMamba-S", 64, 64, 24, 10, 1.2, 401),
        SsmProfile("vim-s", "Vim-S", 56, 56, 24, 10, 1.0, 402),
    ]
}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class SelectiveScanModel:
    """Selective-scan sequence classifier; four quantizable projections."""

    def __init__(self, profile: SsmProfile):
        self.profile = profile
        rng = np.random.default_rng(profile.seed)
        d, s = profile.d_model, profile.d_state
        self.weights: Dict[str, np.ndarray] = {}
        self.overrides: Dict[str, np.ndarray] = {}
        self.act_quant: Dict[str, object] = {}
        for name, shape in [
            ("w_in", (s, d)),
            ("w_gate_a", (s, d)),
            ("w_gate_b", (s, d)),
            ("w_out", (d, s)),
        ]:
            w = rng.normal(0.0, 1.0, shape) / np.sqrt(shape[1])
            plant_outliers(w, profile.outlier_pct, 0.2, rng)
            self.weights[name] = w
        self.head = rng.normal(0.0, 1.0, (profile.n_classes, d)) / np.sqrt(d)

    @property
    def linear_names(self) -> List[str]:
        return ["w_in", "w_gate_a", "w_gate_b", "w_out"]

    def _w(self, name: str) -> np.ndarray:
        return self.overrides.get(name, self.weights[name])

    def _linear(self, name: str, x: np.ndarray, capture: dict | None) -> np.ndarray:
        if capture is not None:
            capture.setdefault(name, []).append(x.reshape(-1, x.shape[-1]))
        aq = self.act_quant.get(name)
        if aq is not None:
            x = aq(x)
        return x @ self._w(name).T

    def forward(
        self,
        seqs: np.ndarray,
        capture: dict | None = None,
        stop_before_out: bool = False,
    ) -> np.ndarray:
        """Logits for input sequences ``[b, seq_len, d_model]``.

        ``stop_before_out`` returns the final scan state without the output
        projection/head. The scan itself can't stop early — the in-loop
        linears see every timestep — so this only trims the tail."""
        b, t, _ = seqs.shape
        h = np.zeros((b, self.profile.d_state))
        for i in range(t):
            x = seqs[:, i, :]
            u = self._linear("w_in", x, capture)
            a = _sigmoid(self._linear("w_gate_a", x, capture))
            bgate = _sigmoid(self._linear("w_gate_b", x, capture))
            h = a * h + bgate * u
        if stop_before_out:
            return h
        y = self._linear("w_out", h, capture)
        return y @ self.head.T

    def collect_calibration(
        self, seqs: np.ndarray, names: list | None = None
    ) -> Dict[str, np.ndarray]:
        if names is not None:
            names = list(names)
            unknown = set(names).difference(self.linear_names)
            if unknown:
                raise KeyError(f"unknown linears {sorted(unknown)}")
        capture: Dict[str, list] = {}
        skip_out = names is not None and "w_out" not in names
        self.forward(seqs, capture=capture, stop_before_out=skip_out)
        return {
            k: np.concatenate(v, axis=0)
            for k, v in capture.items()
            if names is None or k in names
        }

    def set_override(self, name: str, weight: np.ndarray) -> None:
        if weight.shape != self.weights[name].shape:
            raise ValueError(f"shape mismatch for {name}")
        self.overrides[name] = weight

    def clear_overrides(self) -> None:
        self.overrides.clear()
        self.act_quant.clear()

    def predict(self, seqs: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(seqs), axis=-1)


def build_ssm(name: str) -> SelectiveScanModel:
    try:
        return SelectiveScanModel(SSM_PROFILES[name])
    except KeyError:
        known = ", ".join(SSM_PROFILES)
        raise KeyError(f"unknown SSM {name!r}; known: {known}") from None
