"""Core data model and file I/O for hyperspectral cubes, score maps and masks.

In-memory layout is canonical band-sequential: ``data[b, y, x]`` holds the
reflectance of pixel (x, y) in band b.  On disk cubes are stored as a small
text header plus a raw little-endian float32 binary, in either ``bsq`` or
``bil`` interleave; loading always produces the canonical layout.  All
in-memory numerics are float64.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Raised for malformed or inconsistent on-disk artifacts."""


@dataclass(frozen=True)
class HsiCube:
    """A width x height x bands reflectance volume.

    ``data`` has shape (bands, height, width), float64, band-sequential.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError("cube data must be 3-D (bands, height, width)")
        if min(arr.shape) < 1:
            raise ValueError("cube dimensions must all be >= 1")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite value at band={bad[0]}, y={bad[1]}, x={bad[2]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    def pixel_at(self, x: int, y: int) -> np.ndarray:
        """Spectrum of pixel (x, y) as a fresh float64 vector of length bands."""
        if not (0 <= x < self.width):
            raise IndexError(f"x={x} out of range [0, {self.width})")
        if not (0 <= y < self.height):
            raise IndexError(f"y={y} out of range [0, {self.height})")
        return self.data[:, y, x].copy()

    def pixels(self) -> np.ndarray:
        """All spectra as a (n_pixels, bands) matrix, row-major pixel order."""
        return self.data.reshape(self.bands, -1).T.copy()


@dataclass(frozen=True)
class Dictionary:
    """A bands x atoms matrix whose columns are unit-norm spectra."""

    columns: np.ndarray

    def __post_init__(self):
        arr = np.array(self.columns, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("dictionary must be 2-D (bands, atoms)")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite dictionary value at band={bad[0]}, atom={bad[1]}")
        norms = np.linalg.norm(arr, axis=0)
        if arr.shape[1] and np.any(norms == 0.0):
            raise ValueError("dictionary contains a zero column")
        arr.setflags(write=False)
        object.__setattr__(self, "columns", arr)

    @property
    def bands(self) -> int:
        return self.columns.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.columns.shape[1]


@dataclass(frozen=True)
class ScoreMap:
    """Per-pixel scalar field in image layout; ``values`` has shape (height, width)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("score map must be 2-D (height, width)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("score map contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GroundTruthMask:
    """Binary target mask; ``labels`` has shape (height, width), 1 = target."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 2:
            raise ValueError("mask must be 2-D (height, width)")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask labels must be 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def n_targets(self) -> int:
        return int(self.labels.sum())


# ---------------------------------------------------------------------------
# Cube I/O
# ---------------------------------------------------------------------------

_INTERLEAVES = ("bsq", "bil")


def _raw_path(header_path: str) -> str:
    base, _ = os.path.splitext(header_path)
    return base + ".raw"


def _parse_header(header_path: str) -> dict:
    fields = {}
    with open(header_path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise FormatError(f"{header_path}:{lineno}: bad header line: {line!r}")
            key, value = line.split(":", 1)
            fields[key.strip().lower()] = value.strip().lower()
    for key in ("width", "height", "bands", "dtype", "interleave"):
        if key not in fields:
            raise FormatError(f"{header_path}: header missing field {key!r}")
    if fields["dtype"] != "float32":
        raise FormatError(f"{header_path}: unsupported dtype {fields['dtype']!r}")
    if fields["interleave"] not in _INTERLEAVES:
        raise FormatError(f"{header_path}: unsupported interleave {fields['interleave']!r}")
    try:
        dims = {k: int(fields[k]) for k in ("width", "height", "bands")}
    except ValueError as exc:
        raise FormatError(f"{header_path}: non-integer dimension in header: {exc}") from exc
    if min(dims.values()) < 1:
        raise FormatError(f"{header_path}: header dimensions must all be >= 1")
    return {**dims, "interleave": fields["interleave"]}


def load_cube(header_path: str) -> HsiCube:
    """Load a cube from ``<name>.hdr`` + ``<name>.raw`` into canonical layout."""
    hdr = _parse_header(header_path)
    raw_path = _raw_path(header_path)
    if not os.path.exists(raw_path):
        raise FileNotFoundError(raw_path)
    w, h, b = hdr["width"], hdr["height"], hdr["bands"]
    raw = np.fromfile(raw_path, dtype="<f4")
    if raw.size != w * h * b:
        raise FormatError(
            f"{raw_path}: expected {w * h * b} float32 values, found {raw.size}"
        )
    if hdr["interleave"] == "bsq":
        data = raw.reshape(b, h, w)
    else:  # bil: row-major (row, band, column)
        data = raw.reshape(h, b, w).transpose(1, 0, 2)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        b0, y0, x0 = bad[0]
        raise FormatError(f"{raw_path}: non-finite value at band={b0}, y={y0}, x={x0}")
    return HsiCube(data.astype(np.float64))


def save_cube(cube: HsiCube, header_path: str, interleave: str = "bsq") -> None:
    """Write ``<name>.hdr`` + ``<name>.raw``; load_cube on the result is the identity
    for float32-representable data."""
    if interleave not in _INTERLEAVES:
        raise ValueError(f"unsupported interleave {interleave!r}")
    with open(header_path, "w", encoding="ascii") as fh:
        fh.write(f"width: {cube.width}\n")
        fh.write(f"height: {cube.height}\n")
        fh.write(f"bands: {cube.bands}\n")
        fh.write("dtype: float32\n")
        fh.write(f"interleave: {interleave}\n")
    data = cube.data.astype("<f4")
    if interleave == "bil":
        data = data.transpose(1, 0, 2)
    data.tofile(_raw_path(header_path))


# ---------------------------------------------------------------------------
# Score map I/O:  <base>.f32 raster (row-major float32) + <base>.csv (x,y,score)
# ---------------------------------------------------------------------------


def _strip_known_ext(path: str) -> str:
    base, ext = os.path.splitext(path)
    return base if ext in (".f32", ".csv") else path


def save_scoremap(smap: ScoreMap, path: str) -> None:
    base = _strip_known_ext(path)
    smap.values.astype("<f4").tofile(base + ".f32")
    with open(base + ".csv", "w", encoding="ascii") as fh:
        fh.write("x,y,score\n")
        for y in range(smap.height):
            for x in range(smap.width):
                fh.write(f"{x},{y},{float(smap.values[y, x])!r}\n")


def load_scoremap(path: str) -> ScoreMap:
    """Reload a saved score map from its CSV, which gives both the
    dimensions and the full-precision values; the float32 ``.f32`` raster
    is not read.  The rows must cover every (x, y) cell exactly once."""
    csv_path = _strip_known_ext(path) + ".csv"
    xs, ys, scores = [], [], []
    with open(csv_path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "x,y,score":
            raise FormatError(f"{csv_path}: bad score-map CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                x_s, y_s, s_s = line.strip().split(",")
                x, y = int(x_s), int(y_s)
                scores.append(float(s_s))
            except ValueError as exc:
                raise FormatError(
                    f"{csv_path}:{lineno}: bad x,y,score row {line.strip()!r}"
                ) from exc
            if x < 0 or y < 0:
                raise FormatError(f"{csv_path}:{lineno}: negative coordinate")
            xs.append(x)
            ys.append(y)
    if not scores:
        raise FormatError(f"{csv_path}: no score rows")
    w, h = max(xs) + 1, max(ys) + 1
    cells = np.asarray(ys) * w + np.asarray(xs)
    _, first = np.unique(cells, return_index=True)
    if first.size != cells.size:
        row = int(np.setdiff1d(np.arange(cells.size), first)[0])
        raise FormatError(f"{csv_path}:{row + 2}: repeated cell x={xs[row]}, y={ys[row]}")
    if len(scores) != w * h:
        raise FormatError(f"{csv_path}: expected {w * h} rows, found {len(scores)}")
    values = np.empty((h, w), dtype=np.float64)
    values[np.asarray(ys), np.asarray(xs)] = scores
    return ScoreMap(values)


# ---------------------------------------------------------------------------
# Mask I/O: ASCII grid, one row per line, characters 0/1
# ---------------------------------------------------------------------------


def save_mask(mask: GroundTruthMask, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for row in mask.labels:
            fh.write("".join("1" if v else "0" for v in row) + "\n")


def load_mask(path: str) -> GroundTruthMask:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise FormatError(f"{path}:{lineno}: mask rows must be 0/1 strings")
            rows.append([int(c) for c in line])
    if not rows:
        raise FormatError(f"{path}: empty mask")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: ragged mask rows (widths {sorted(widths)})")
    return GroundTruthMask(np.array(rows, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Spectrum CSV I/O
# ---------------------------------------------------------------------------


def save_signature(values: np.ndarray, path: str) -> None:
    """Write a spectrum as a single-column CSV of band values."""
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        for v in values:
            fh.write(f"{float(v)!r}\n")


def load_signature(path: str) -> np.ndarray:
    """Read a single-column CSV of finite band values; blank lines are skipped."""
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                value = float(line)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad band value {line.strip()!r}") from exc
            if not np.isfinite(value):
                raise FormatError(f"{path}:{lineno}: non-finite band value {line.strip()!r}")
            values.append(value)
    if not values:
        raise FormatError(f"{path}: empty signature")
    return np.asarray(values, dtype=np.float64)
