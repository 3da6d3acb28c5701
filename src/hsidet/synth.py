"""Linear-mixing-model synthetic scenes for end-to-end verification.

Background pixels are Dirichlet-weighted mixtures of smooth random
endmember spectra; target pixels replace a ``target_fill`` fraction of the
local background mixture with a known signature, and i.i.d. Gaussian noise
is added on top.  Everything is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import GroundTruthMask, HsiCube

PLACEMENTS = ("scattered", "clustered")


@dataclass(frozen=True)
class SceneSpec:
    width: int = 40
    height: int = 40
    bands: int = 30
    n_endmembers: int = 3
    n_targets: int = 8
    target_fill: float = 0.8
    noise_sigma: float = 0.01
    seed: int = 0
    placement: str = "scattered"

    def __post_init__(self):
        if self.n_endmembers < 1:
            raise ValueError("n_endmembers must be >= 1")
        if not 0.0 < self.target_fill <= 1.0:
            raise ValueError("target_fill must be in (0, 1]")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.placement not in PLACEMENTS:
            raise ValueError(f"placement must be one of {PLACEMENTS}")
        if self.n_targets >= self.width * self.height:
            raise ValueError("n_targets must leave room for background pixels")


def _smooth_spectrum(rng: np.random.Generator, bands: int) -> np.ndarray:
    """A plausible reflectance curve: smoothed random walk, clipped at 0."""
    walk = np.cumsum(rng.normal(0.0, 0.08, bands)) + rng.uniform(0.3, 0.8)
    window = max(3, bands // 8)
    kernel = np.ones(window) / window
    padded = np.pad(walk, window, mode="edge")
    smooth = np.convolve(padded, kernel, mode="same")[window:-window]
    return np.clip(smooth, 0.0, None)


def _scattered_positions(rng, width, height, n, min_sep) -> list[tuple[int, int]]:
    candidates = rng.permutation(width * height)
    chosen: list[tuple[int, int]] = []
    for idx in candidates:
        x, y = int(idx % width), int(idx // width)
        if all(max(abs(x - cx), abs(y - cy)) >= min_sep for cx, cy in chosen):
            chosen.append((x, y))
            if len(chosen) == n:
                return chosen
    raise ValueError(f"cannot place {n} targets with separation {min_sep}")


def _clustered_positions(rng, width, height, n) -> list[tuple[int, int]]:
    # Cluster block sized for roughly 30% target density inside it.
    side = max(2, int(np.ceil(np.sqrt(n / 0.3))))
    side = min(side, width, height)
    x0 = int(rng.integers(0, width - side + 1))
    y0 = int(rng.integers(0, height - side + 1))
    cells = rng.permutation(side * side)[:n]
    return [(x0 + int(c % side), y0 + int(c // side)) for c in cells]


def generate(spec: SceneSpec) -> tuple[HsiCube, GroundTruthMask, np.ndarray]:
    """Generate (cube, mask, target_signature) for a scene specification."""
    rng = np.random.default_rng(spec.seed)
    w, h, b = spec.width, spec.height, spec.bands
    N = w * h

    endmembers = np.stack(
        [_smooth_spectrum(rng, b) for _ in range(spec.n_endmembers)], axis=0
    )
    signature = _smooth_spectrum(rng, b) + 0.4  # offset keeps it off the background hull
    abundances = rng.dirichlet(np.ones(spec.n_endmembers), size=N)
    pixels = abundances @ endmembers  # (N, bands)

    if spec.placement == "scattered":
        min_sep = max(3, min(w, h) // 8)
        positions = _scattered_positions(rng, w, h, spec.n_targets, min_sep)
    else:
        positions = _clustered_positions(rng, w, h, spec.n_targets)

    labels = np.zeros((h, w), dtype=np.uint8)
    for x, y in positions:
        i = y * w + x
        pixels[i] = spec.target_fill * signature + (1.0 - spec.target_fill) * pixels[i]
        labels[y, x] = 1

    if spec.noise_sigma > 0.0:
        pixels = pixels + rng.normal(0.0, spec.noise_sigma, pixels.shape)

    cube = HsiCube(pixels.T.reshape(b, h, w))
    return cube, GroundTruthMask(labels), signature


PRESETS: dict[str, SceneSpec] = {
    # Few isolated targets, well under 1% of pixels.
    "sparse-targets": SceneSpec(
        width=40, height=40, bands=30, n_endmembers=3, n_targets=8,
        target_fill=0.8, noise_sigma=0.01, seed=2024, placement="scattered",
    ),
    # A tight cluster that contaminates local background windows.
    "dense-targets": SceneSpec(
        width=40, height=40, bands=30, n_endmembers=3, n_targets=40,
        target_fill=0.8, noise_sigma=0.01, seed=2025, placement="clustered",
    ),
    "large": SceneSpec(
        width=64, height=64, bands=40, n_endmembers=4, n_targets=16,
        target_fill=0.8, noise_sigma=0.01, seed=2026, placement="scattered",
    ),
}
