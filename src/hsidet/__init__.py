"""Hyperspectral target detection with hierarchical sparse representation."""

from .config import DetectorConfig, preset_config
from .cube import (
    Dictionary,
    GroundTruthMask,
    HsiCube,
    ScoreMap,
    load_cube,
    load_mask,
    load_scoremap,
    load_signature,
    save_cube,
    save_mask,
    save_scoremap,
    save_signature,
)
from .detector import (
    Fit,
    detect,
    fuse_scores,
    hierarchical_residuals,
    normalize_scores,
    orient_scores,
    residual_maps,
    std_detect,
    wshr_detect,
)
from .dictlearn import OdlParams, odl_learn
from .hierdict import WindowSpec, local_background, normalize_atoms
from .metrics import RocCurve, auc, compare, roc, write_comparison
from .predetect import ace_detect, cem_detect, select_training_sets
from .sparse import SolverParams, SparseCode, residual_norm, sparse_code
from .synth import PRESETS, SceneSpec, generate

__version__ = "0.1.0"
