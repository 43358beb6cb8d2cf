"""CNN substrate for the Table 4 generality study (ResNet50/VGG16 analogs).

Convolutions are lowered to GEMM via im2col, so conv kernels become
``[c_out, c_in*k*k]`` matrices — exactly the shape the quantizers consume.
Accuracy is agreement with the full-precision model's predictions on a
held-out synthetic image set, reported as *relative top-1* (FP = 100%);
EXPERIMENTS.md maps it onto the paper's absolute numbers via the published
FP baselines (76.15% ResNet50, 71.59% VGG16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .generator import plant_outliers

__all__ = ["ConvNet", "CNN_PROFILES", "build_cnn", "im2col"]


@dataclass(frozen=True)
class CnnProfile:
    name: str
    paper_model: str
    channels: List[int]  # per conv stage
    n_classes: int
    img_hw: int
    outlier_pct: float
    seed: int


CNN_PROFILES: Dict[str, CnnProfile] = {
    p.name: p
    for p in [
        CnnProfile("resnet50", "ResNet50", [16, 32, 64], 10, 16, 0.6, 301),
        CnnProfile("vgg16", "VGG16", [16, 32, 32, 64], 10, 16, 0.5, 302),
    ]
}


def im2col(x: np.ndarray, k: int = 3) -> np.ndarray:
    """Unfold ``[b, c, h, w]`` into ``[b, h*w, c*k*k]`` patches (pad=same)."""
    b, c, h, w = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, h * w, c * k * k))
    idx = 0
    for di in range(k):
        for dj in range(k):
            patch = xp[:, :, di : di + h, dj : dj + w]
            cols[:, :, idx * c : (idx + 1) * c] = patch.transpose(0, 2, 3, 1).reshape(
                b, h * w, c
            )
            idx += 1
    return cols


class ConvNet:
    """Small conv classifier; conv weights are the quantization targets."""

    def __init__(self, profile: CnnProfile):
        self.profile = profile
        rng = np.random.default_rng(profile.seed)
        self.weights: Dict[str, np.ndarray] = {}
        self.overrides: Dict[str, np.ndarray] = {}
        self.act_quant: Dict[str, object] = {}
        c_in = 3
        for i, c_out in enumerate(profile.channels):
            w = rng.normal(0.0, 1.0, (c_out, c_in * 9)) / np.sqrt(c_in * 9)
            plant_outliers(w, profile.outlier_pct, 0.1, rng)
            self.weights[f"conv{i}"] = w
            c_in = c_out
        self.head = rng.normal(0.0, 1.0, (profile.n_classes, c_in)) / np.sqrt(c_in)

    @property
    def linear_names(self) -> List[str]:
        return [f"conv{i}" for i in range(len(self.profile.channels))]

    def _w(self, name: str) -> np.ndarray:
        return self.overrides.get(name, self.weights[name])

    def forward(
        self,
        images: np.ndarray,
        capture: dict | None = None,
        stop_after_stage: int | None = None,
    ) -> np.ndarray:
        """Logits for ``[b, 3, h, w]`` images (stride-2 pooling per stage).

        ``stop_after_stage=i`` returns stage ``i``'s feature map without the
        pool/head (the targeted-calibration fast path)."""
        x = images
        for i in range(len(self.profile.channels)):
            name = f"conv{i}"
            cols = im2col(x)
            if capture is not None:
                capture.setdefault(name, []).append(cols.reshape(-1, cols.shape[-1]))
            aq = self.act_quant.get(name)
            if aq is not None:
                cols = aq(cols)
            b, hw, _ = cols.shape
            h = w = int(np.sqrt(hw))
            out = cols @ self._w(name).T  # [b, hw, c_out]
            out = np.maximum(out, 0.0)  # ReLU
            out = out.reshape(b, h, w, -1).transpose(0, 3, 1, 2)
            x = out[:, :, ::2, ::2]  # stride-2 downsample
            if stop_after_stage is not None and i >= stop_after_stage:
                return x
        feats = x.mean(axis=(2, 3))  # global average pool
        return feats @ self.head.T

    def collect_calibration(
        self, images: np.ndarray, names: list | None = None
    ) -> Dict[str, np.ndarray]:
        capture: Dict[str, list] = {}
        stop = None
        if names is not None:
            names = list(names)
            unknown = set(names).difference(self.linear_names)
            if unknown:
                raise KeyError(f"unknown linears {sorted(unknown)}")
            stop = max(int(n[4:]) for n in names)  # "conv3" -> 3
        self.forward(images, capture=capture, stop_after_stage=stop)
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

    def predict(self, images: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(images), axis=-1)


def build_cnn(name: str) -> ConvNet:
    try:
        return ConvNet(CNN_PROFILES[name])
    except KeyError:
        known = ", ".join(CNN_PROFILES)
        raise KeyError(f"unknown CNN {name!r}; known: {known}") from None
