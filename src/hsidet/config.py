"""Pipeline configuration.

Defaults follow the standard full-scale operating point: lam = 0.1, k = 5,
gamma = 0.3, 19x19 / 9x9 windows, 10 target atoms, 1000 background atoms,
10 target training samples and a 0.8 background training fraction.  The
desk-scale presets shrink the windows and background dictionary to match
the synthetic scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .hierdict import WindowSpec

# How min-max normalized residual scores are oriented before fusion.  The
# raw min-max forms score well-reconstructed pixels LOW on both sides, so a
# fused target score needs both flipped ("flip_both", the default: low r_t
# and high r_b both push the score up).  "flip_target" flips only the
# target side; "literal" leaves both raw.  All three are exposed for
# orientation experiments on synthetic scenes.
ORIENTATIONS = ("flip_target", "flip_both", "literal")


@dataclass(frozen=True)
class DetectorConfig:
    lam: float = 0.1              # L1 weight of the sparse solver
    k: int = 5                    # sparsity cap
    gamma: float = 0.3            # background-score weight in the fusion
    window: WindowSpec = field(default_factory=WindowSpec)
    n_target_atoms: int = 10
    n_bg_atoms: int = 1000
    n_target_train: int = 10
    bg_fraction: float = 0.8
    seed: int = 0
    odl_epochs: int = 5
    odl_batch_size: int = 32
    orientation: str = "flip_both"
    threads: int = 1              # accepted for compatibility; changes no work or output

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def with_overrides(self, **kwargs: Any) -> "DetectorConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "k": self.k,
            "gamma": self.gamma,
            "owr": self.window.outer,
            "iwr": self.window.inner,
            "n_target_atoms": self.n_target_atoms,
            "n_bg_atoms": self.n_bg_atoms,
            "n_target_train": self.n_target_train,
            "bg_fraction": self.bg_fraction,
            "seed": self.seed,
            "odl_epochs": self.odl_epochs,
            "odl_batch_size": self.odl_batch_size,
            "orientation": self.orientation,
            "threads": self.threads,
        }


def preset_config(preset: str) -> DetectorConfig:
    """Desk-scale configuration tuned to the synthetic scene presets."""
    base = DetectorConfig(
        window=WindowSpec(9, 3),
        n_bg_atoms=64,
        odl_epochs=3,
    )
    if preset == "sparse-targets":
        return base
    if preset == "dense-targets":
        # Clustered targets contaminate the local windows; downweight the
        # background score.
        return base.with_overrides(gamma=0.2)
    if preset == "large":
        return base.with_overrides(window=WindowSpec(11, 5), n_bg_atoms=96)
    raise ValueError(f"unknown preset {preset!r}")
