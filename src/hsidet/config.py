"""Pipeline configuration.

Defaults follow the standard full-scale operating point: lam = 0.1, k = 5,
gamma = 0.3, 19x19 / 9x9 windows, at most 10 target and 1000 background
atoms, 10 target training samples and a 0.8 background training fraction.
The desk-scale presets shrink the windows and background dictionary to
match the synthetic scenes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any

from .hierdict import WindowSpec
from .sparse import MAX_NONZEROS

_COUNTS = ("n_target_atoms", "n_bg_atoms", "n_target_train", "odl_epochs", "threads")


@dataclass(frozen=True)
class DetectorConfig:
    lam: float = 0.1              # L1 weight of the sparse solver
    k: int = 5                    # sparsity cap, at most MAX_NONZEROS
    gamma: float = 0.3            # background-score weight in the fusion
    window: WindowSpec = field(default_factory=WindowSpec)
    n_target_atoms: int = 10      # at most: one atom per nonzero training sample
    n_bg_atoms: int = 1000        # at most: one atom per nonzero training sample
    n_target_train: int = 10
    bg_fraction: float = 0.8
    seed: int = 0
    odl_epochs: int = 5
    threads: int = 1              # accepted for compatibility; changes no work or output

    # How min-max normalized residual scores are oriented before fusion (a
    # class constant, not a setting).  The raw min-max forms score
    # well-reconstructed pixels LOW on both sides, so a fused target score
    # needs both flipped: low r_t and high r_b both push the score up.
    orientation = "flip_both"

    def __post_init__(self):
        if not isinstance(self.window, WindowSpec):
            raise ValueError("window must be a WindowSpec")
        for name in (*_COUNTS, "k", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("lam", "gamma", "bg_fraction"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number")
        for name in _COUNTS:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.k <= MAX_NONZEROS:
            raise ValueError(f"k must lie in [1, {MAX_NONZEROS}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.bg_fraction < 1.0:
            raise ValueError("bg_fraction must lie in (0, 1)")

    def with_overrides(self, **kwargs: Any) -> "DetectorConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Every field by name, with ``window`` written as ``owr``/``iwr``."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "window"}
        return {**values, "owr": self.window.outer, "iwr": self.window.inner}


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
