"""ROC curves and AUC against ground-truth masks, plus method comparison.

The ROC is built by sweeping a decision threshold over every distinct
score value, with tied scores entering as a group at a single threshold.
AUC is the trapezoidal area under the curve, which equals the normalized
Mann-Whitney rank statistic (ties counted as one half).
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass

import numpy as np

from .cube import GroundTruthMask, ScoreMap


@dataclass(frozen=True, eq=False)
class RocCurve:
    """(false-alarm rate, detection probability) points, sorted by FAR,
    with the score threshold producing each point."""

    far: np.ndarray
    pd: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        far = np.array(self.far, dtype=np.float64)
        pd = np.array(self.pd, dtype=np.float64)
        thr = np.array(self.thresholds, dtype=np.float64)
        if not (far.shape == pd.shape == thr.shape) or far.ndim != 1:
            raise ValueError("curve arrays must be matching 1-D arrays")
        if np.any(np.diff(far) < 0) or np.any(np.diff(pd) < 0):
            raise ValueError("ROC coordinates must be monotone non-decreasing")
        for arr in (far, pd, thr):
            arr.setflags(write=False)
        object.__setattr__(self, "far", far)
        object.__setattr__(self, "pd", pd)
        object.__setattr__(self, "thresholds", thr)


def roc(scores: ScoreMap, truth: GroundTruthMask) -> RocCurve:
    """ROC of a score map; a pixel is declared a detection when its score is
    >= the threshold."""
    if (scores.height, scores.width) != (truth.height, truth.width):
        raise ValueError("score map and mask shapes differ")
    labels = truth.labels.ravel().astype(bool)
    n_t = int(labels.sum())
    n_b = labels.size - n_t
    if n_t == 0 or n_b == 0:
        raise ValueError("mask must contain at least one target and one background pixel")
    s = scores.values.ravel()

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    tp = np.cumsum(labels[order])
    fp = np.cumsum(~labels[order])
    # Group ties: keep only the last pixel of each distinct score value.
    last = np.flatnonzero(np.diff(s_sorted) != 0)
    keep = np.append(last, s.size - 1)

    far = np.concatenate(([0.0], fp[keep] / n_b))
    pd = np.concatenate(([0.0], tp[keep] / n_t))
    thresholds = np.concatenate(([np.inf], s_sorted[keep]))
    return RocCurve(far, pd, thresholds)


def auc(curve: RocCurve) -> float:
    """Area under the ROC curve, in [0, 1].

    The area is the trapezoid sum over the curve points, written out here
    rather than taken from NumPy's integrator, whose name differs between
    NumPy versions. It is the same sum ``np.trapezoid`` forms, so the
    result matches it bit for bit. Because tied scores enter the curve as
    one point, the area equals the normalized Mann-Whitney statistic with
    ties counted as one half.
    """
    far, pd = curve.far, curve.pd
    return float(np.sum(np.diff(far) * (pd[1:] + pd[:-1]) / 2.0))


def compare(
    score_maps: list[tuple[str, ScoreMap]],
    truth: GroundTruthMask,
) -> list[tuple[str, float, RocCurve]]:
    """Evaluate several named score maps against one mask; rows come back
    sorted by descending AUC (name as the tie-break)."""
    rows = []
    for name, smap in score_maps:
        curve = roc(smap, truth)
        rows.append((name, auc(curve), curve))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def check_method_name(name: str) -> None:
    """Reject a name unfit for an ``auc.csv`` field or a file name."""
    if not name or "," in name or "/" in name or not name.isascii():
        raise ValueError(f"score map name {name!r} is empty, not ASCII or contains ',' or '/'")


def write_comparison(
    rows: list[tuple[str, float, RocCurve]],
    out_dir: str,
) -> None:
    """Emit ``auc.csv``, one ``roc_<name>.csv`` per method, and a ``roc.svg``
    overlay plot.  Every name is checked before ``out_dir`` is created."""
    for name, _, _ in rows:
        check_method_name(name)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "auc.csv"), "w", encoding="ascii") as fh:
        fh.write("method,auc\n")
        for name, value, _ in rows:
            fh.write(f"{name},{value:.6f}\n")
    for name, _, curve in rows:
        points = zip(curve.thresholds.tolist(), curve.far.tolist(), curve.pd.tolist())
        body = "".join([f"{thr!r},{x!r},{y!r}\n" for thr, x, y in points])
        with open(os.path.join(out_dir, f"roc_{name}.csv"), "w", encoding="ascii") as fh:
            fh.write("threshold,far,pd\n" + body)
    _write_svg(rows, os.path.join(out_dir, "roc.svg"))


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_SVG_SIZE, _SVG_MARGIN = 480, 50   # px: the square plot and its margin


def _write_svg(rows, path: str) -> None:
    span = _SVG_SIZE - 2 * _SVG_MARGIN

    def px(x: float) -> float:
        return _SVG_MARGIN + x * span

    def py(y: float) -> float:
        return _SVG_SIZE - _SVG_MARGIN - y * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}">',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{span}" height="{span}" '
        'fill="none" stroke="#888"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(1)}" '
        'stroke="#ccc" stroke-dasharray="4"/>',
    ]
    for i, (name, value, curve) in enumerate(rows):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(curve.far, curve.pd))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_SVG_MARGIN + 8}" y="{_SVG_MARGIN + 16 + 14 * i}" fill="{color}" '
            f'font-size="12">{html.escape(name, quote=False)} ({value:.4f})</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")
