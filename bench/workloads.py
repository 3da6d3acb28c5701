"""Benchmark workloads: inputs made from the seed, the timed job, and the
checks on its outputs.

Every job reaches hsidet through module attributes looked up at call time
(``detector.std_detect``, not a name imported once), so the tracer in
``spans.py`` sees the same calls the untraced job makes.

AUC is computed here (Mann-Whitney, ties counted one half) instead of by
``metrics.auc``/``metrics.compare``: on NumPy 2.4 ``metrics.auc``
raises, because its ``getattr(np, "trapezoid", np.trapz)`` default is
evaluated eagerly.  The jobs call the same functions ``cli.cmd_compare``
calls, in the same order, and stop short of ``compare``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from hsidet import config as hconfig
from hsidet import cube as hcube
from hsidet import detector, metrics, predetect, synth
from hsidet.config import DetectorConfig
from hsidet.hierdict import WindowSpec
from hsidet.synth import SceneSpec

AUC_TOLERANCE = 1e-12
COMPARE_METHODS = ("cem", "ace", "std", "shr", "wshr")  # cli.cmd_compare's default order


@dataclass(frozen=True)
class Scene:
    cube: object
    mask: object
    signature: np.ndarray
    paths: dict


@dataclass
class JobOutput:
    maps: dict        # method -> ScoreMap as computed
    reloaded: dict    # method -> ScoreMap read back from disk
    curves: dict      # method -> RocCurve from metrics.roc


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    inputs: Callable[[int, bool], tuple]   # (seed, smoke) -> (SceneSpec, DetectorConfig | None)
    interleave: str                        # on-disk layout of the scene cube
    lead: str                              # method whose AUC is auc.lead
    methods: tuple
    job: Callable[[Scene, str, object], JobOutput]


# -- inputs -------------------------------------------------------------------

# Jobs cost 2.7-5.0 s across ten scene seeds of one 12x12 dense-targets
# shape (data-dependent greedy coding), far wider than any usable bound, so
# the two sparse workloads keep their scene fixed and let the seed drive
# DetectorConfig.seed (ODL initialisation and sample order).  Even that
# moves the work: the IQR of _solve_support calls over ten ODL seeds is
# 7.5% of the median at 12x12 and 2.9% at 16x16, hence 16x16.
DENSE_SCENE = dataclasses.replace(
    synth.PRESETS["dense-targets"], width=16, height=16, n_targets=7, seed=2025
)
PAPER_SCENE = SceneSpec(
    width=16, height=16, bands=60, n_endmembers=4, n_targets=6,
    target_fill=0.3, noise_sigma=0.03, seed=7, placement="scattered",
)
SMOKE_SCENE = SceneSpec(width=10, height=10, bands=8, n_targets=3, seed=5)
SMOKE_CONFIG = DetectorConfig(window=WindowSpec(5, 3), n_bg_atoms=12, odl_epochs=1)


def dense_inputs(seed: int, smoke: bool):
    if smoke:
        return SMOKE_SCENE, SMOKE_CONFIG.with_overrides(threads=2, seed=seed)
    return DENSE_SCENE, hconfig.preset_config("dense-targets").with_overrides(threads=2, seed=seed)


def paper_inputs(seed: int, smoke: bool):
    if smoke:
        return SMOKE_SCENE, SMOKE_CONFIG.with_overrides(seed=seed)
    return PAPER_SCENE, DetectorConfig(seed=seed)


def io_inputs(seed: int, smoke: bool):
    if smoke:
        return dataclasses.replace(SMOKE_SCENE, seed=seed), None
    return SceneSpec(
        width=256, height=256, bands=100, n_endmembers=5, n_targets=16,
        target_fill=0.5, noise_sigma=0.02, seed=seed, placement="scattered",
    ), None


# -- scene files --------------------------------------------------------------


def write_scene(cube, mask, signature, directory: str, interleave: str) -> dict:
    os.makedirs(directory, exist_ok=True)
    paths = {
        "cube": os.path.join(directory, "scene.hdr"),
        "mask": os.path.join(directory, "scene.mask"),
        "signature": os.path.join(directory, "scene.sig"),
    }
    hcube.save_cube(cube, paths["cube"], interleave)
    hcube.save_mask(mask, paths["mask"])
    hcube.save_signature(signature, paths["signature"])
    return paths


def _save_reload_roc(maps: dict, mask, out_dir: str) -> JobOutput:
    for method, smap in maps.items():
        hcube.save_scoremap(smap, os.path.join(out_dir, method))
    reloaded = {m: hcube.load_scoremap(os.path.join(out_dir, m)) for m in maps}
    curves = {m: metrics.roc(reloaded[m], mask) for m in maps}
    return JobOutput(maps, reloaded, curves)


# -- jobs -----------------------------------------------------------------------


def compare_job(scene: Scene, out_dir: str, config: DetectorConfig) -> JobOutput:
    """The five-method ``compare`` flow on scene files."""
    cube = hcube.load_cube(scene.paths["cube"])
    mask = hcube.load_mask(scene.paths["mask"])
    signature = hcube.load_signature(scene.paths["signature"])
    r_t, r_b = detector.hierarchical_residuals(cube, signature, config)
    S_t, S_b = detector.normalize_scores(r_t, r_b)
    S_t, S_b = detector.orient_scores(S_t, S_b, config.orientation)
    shared = {
        "wshr": detector.fuse_scores(S_t, S_b, config.gamma),
        "shr": detector.fuse_scores(S_t, S_b, 0.5),
    }
    maps = {}
    for method in COMPARE_METHODS:
        if method in shared:
            maps[method] = shared[method]
        elif method == "cem":
            maps[method] = predetect.cem_detect(cube, signature)
        elif method == "ace":
            maps[method] = predetect.ace_detect(cube, signature)
        else:
            maps[method] = detector.std_detect(cube, signature, config)
    return _save_reload_roc(maps, mask, out_dir)


def paper_job(scene: Scene, out_dir: str, config: DetectorConfig) -> JobOutput:
    """One W-SHR detection at the default (paper) configuration."""
    smap = detector.wshr_detect(scene.cube, scene.signature, config)
    return JobOutput({"wshr": smap}, {}, {"wshr": metrics.roc(smap, scene.mask)})


def io_job(scene: Scene, out_dir: str, config) -> JobOutput:
    """Classical baselines with every file format read and written once."""
    cube = hcube.load_cube(scene.paths["cube"])
    mask = hcube.load_mask(scene.paths["mask"])
    signature = hcube.load_signature(scene.paths["signature"])
    maps = {
        "cem": predetect.cem_detect(cube, signature),
        "ace": predetect.ace_detect(cube, signature),
    }
    out = _save_reload_roc(maps, mask, out_dir)
    hcube.save_cube(cube, os.path.join(out_dir, "copy.hdr"), "bsq")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-dense", 2025, dense_inputs, "bsq", "wshr", COMPARE_METHODS, compare_job,
        ),
        Workload(
            "paper-scale", 7, paper_inputs, "bsq", "wshr", ("wshr",), paper_job,
        ),
        Workload(
            "baselines-io", 11, io_inputs, "bil", "ace", ("cem", "ace"), io_job,
        ),
    )
}


# -- checks -------------------------------------------------------------------


def mann_whitney_auc(values: np.ndarray, labels: np.ndarray) -> float:
    """P(score of a target > score of a background pixel), ties counting 1/2,
    from average ranks."""
    s = np.asarray(values, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(bool)
    n_t = int(y.sum())
    n_b = y.size - n_t
    if n_t == 0 or n_b == 0:
        raise ValueError("labels need at least one target and one background pixel")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_s)) + 1))
    ends = np.append(starts[1:], s.size)
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)  # 1-based mean rank
    return float((ranks[y].sum() - n_t * (n_t + 1) / 2.0) / (n_t * n_b))


def trapezoid_area(far, pd) -> float:
    far = np.asarray(far, dtype=np.float64)
    pd = np.asarray(pd, dtype=np.float64)
    return float(np.sum(np.diff(far) * (pd[1:] + pd[:-1]) / 2.0))


def digest(smap) -> str:
    return hashlib.sha256(np.ascontiguousarray(smap.values).tobytes()).hexdigest()


def check_job(wl: Workload, scene: Scene, out: JobOutput, reference: dict | None,
              out_dir: str) -> tuple[dict, dict, list[str]]:
    """Verify one job's outputs.  Returns (aucs, digests, problems)."""
    problems = []
    if set(out.maps) != set(wl.methods):
        problems.append(f"methods {sorted(out.maps)} != {sorted(wl.methods)}")
    aucs, digests = {}, {}
    for method, smap in out.maps.items():
        if smap.values.shape != scene.mask.labels.shape:
            problems.append(f"{method}: score map shape {smap.values.shape}")
            continue
        digests[method] = digest(smap)
        if reference is not None and reference.get(method) != digests[method]:
            problems.append(f"{method}: score map differs from the first job")
        if method in out.reloaded and digest(out.reloaded[method]) != digests[method]:
            problems.append(f"{method}: reloaded score map differs from the saved one")
        aucs[method] = mann_whitney_auc(smap.values, scene.mask.labels)
        curve = out.curves.get(method)
        if curve is None:
            problems.append(f"{method}: no ROC curve")
            continue
        area = trapezoid_area(curve.far, curve.pd)
        if abs(area - aucs[method]) > AUC_TOLERANCE:
            problems.append(f"{method}: ROC area {area!r} != Mann-Whitney AUC {aucs[method]!r}")
    copy = os.path.join(out_dir, "copy.hdr")
    if os.path.exists(copy):
        original = np.asarray(scene.cube.data, dtype=np.float32)
        if not np.array_equal(hcube.load_cube(copy).data, original):
            problems.append("BSQ copy does not reload to the scene cube")
    return aucs, digests, problems
