"""Core data model and file I/O for hyperspectral cubes, score maps and masks.

A cube is indexed band first, ``data[b, y, x]`` being pixel (x, y) in band b,
but stored pixel-major whatever layout it was built or loaded from: every
detector works on whole spectra, whose sums round by memory order, so one
order gives one result per cube.  On disk cubes are a small text header plus
a raw little-endian float32 binary, in ``bsq`` or ``bil`` interleave.  All
in-memory numerics are float64.

No cube-sized temporary is made on the way in or out.  ``load_cube`` and
``synth.generate`` fill a fresh pixel-major buffer from ``_pixel_buffer``
and hand it to ``HsiCube._frozen``, which freezes it in place instead of
copying it; ``HsiCube(arr)`` still copies.  A file is read and widened one
block at a time (image rows for ``bil``, bands for ``bsq``) and written in
the same blocks, and the one finiteness scan runs over blocks of pixel
rows, so no cube-sized mask exists either.
"""

from __future__ import annotations

import io
import os
import warnings
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Raised for malformed or inconsistent on-disk artifacts."""


_BLOCK_VALUES = 1 << 16    # values per file block and finiteness-scan block


def _pixel_buffer(bands: int, height: int, width: int) -> np.ndarray:
    """A fresh, writable (height, width, bands) float64 buffer: the memory
    order of every cube, for its maker to fill and ``HsiCube._frozen`` to
    freeze."""
    return np.empty((height, width, bands))


def _freeze(buf: np.ndarray) -> np.ndarray:
    """Scan a (height, width, bands) pixel buffer for non-finite values a
    block of rows at a time, make it read-only and return its (bands,
    height, width) view.  The error names the first non-finite value in
    (band, y, x) order, which a later block can hold."""
    height, width, bands = buf.shape
    step = max(1, _BLOCK_VALUES // (width * bands))
    bad = []
    for y in range(0, height, step):
        finite = np.isfinite(buf[y:y + step].transpose(2, 0, 1))
        if not finite.all():
            band, dy, x = np.argwhere(~finite)[0]
            bad.append((band, y + dy, x))
    if bad:
        raise ValueError("non-finite value at band={}, y={}, x={}".format(*min(bad)))
    buf.setflags(write=False)
    return buf.transpose(2, 0, 1)


@dataclass(frozen=True, eq=False)
class HsiCube:
    """A width x height x bands reflectance volume.

    ``data`` has shape (bands, height, width), float64: a read-only view of
    the cube's own copy, whose memory order is (height, width, bands).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError("cube data must be 3-D (bands, height, width)")
        if min(arr.shape) < 1:
            raise ValueError("cube dimensions must all be >= 1")
        buf = _pixel_buffer(*arr.shape)
        buf[...] = arr.transpose(1, 2, 0)
        object.__setattr__(self, "data", _freeze(buf))

    @classmethod
    def _frozen(cls, buf: np.ndarray) -> HsiCube:
        """The cube of a filled ``_pixel_buffer``, frozen in place, not copied:
        the buffer must be fresh and referenced by its maker alone."""
        cube = object.__new__(cls)
        object.__setattr__(cube, "data", _freeze(buf))
        return cube

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
        """All spectra as a read-only (n_pixels, bands) matrix in row-major
        pixel order: a C-contiguous view of the cube, never a copy."""
        return self.data.reshape(self.bands, -1).T


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A bands x atoms matrix of spectra, checked only to be 2-D, finite and
    free of zero columns: keeping its columns unit-norm is the maker's job."""

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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _ascii_lines(path: str) -> list[str]:
    """The lines of an ASCII text file; a non-ASCII byte raises
    ``FormatError`` naming the file and the line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    # A non-ASCII byte decodes to a lone surrogate, so one check covers the file.
    lines = io.StringIO(text).readlines()
    if not text.isascii():
        lineno = next(i for i, line in enumerate(lines, start=1) if not line.isascii())
        raise FormatError(f"{path}:{lineno}: non-ASCII byte")
    return lines


def _parse_header(header_path: str) -> dict:
    fields = {}
    for lineno, line in enumerate(_ascii_lines(header_path), start=1):
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


def _file_blocks(pixels: np.ndarray, interleave: str) -> list:
    """The blocks of a (height, width, bands) pixel array in file order, each a
    view laid out as its values lie in a file of ``interleave``: groups of
    whole image rows for ``bil``, of about ``_BLOCK_VALUES`` values, and
    groups of whole bands for ``bsq``, as many or at least 8.  A pass over
    the pixels per band would touch each 64-byte line of a spectrum once per
    band; 8 bands fill one line."""
    height, width, bands = pixels.shape
    if interleave == "bsq":
        step = max(8, _BLOCK_VALUES // (height * width))
        order = pixels.transpose(2, 0, 1)                   # (band, y, x)
        return [order[b:b + step] for b in range(0, bands, step)]
    step = max(1, _BLOCK_VALUES // (bands * width))
    order = pixels.transpose(0, 2, 1)                       # bil: (y, band, x)
    return [order[y:y + step] for y in range(0, height, step)]


def load_cube(header_path: str) -> HsiCube:
    """Load a cube from ``<name>.hdr`` + ``<name>.raw``."""
    hdr = _parse_header(header_path)
    raw_path = _raw_path(header_path)
    if not os.path.exists(raw_path):
        raise FileNotFoundError(raw_path)
    w, h, b = hdr["width"], hdr["height"], hdr["bands"]
    found = os.path.getsize(raw_path) // 4
    if found != w * h * b:
        raise FormatError(f"{raw_path}: expected {w * h * b} float32 values, found {found}")
    buf = _pixel_buffer(b, h, w)
    with open(raw_path, "rb") as fh:
        for block in _file_blocks(buf, hdr["interleave"]):
            block[...] = np.fromfile(fh, dtype="<f4", count=block.size).reshape(block.shape)
    try:
        return HsiCube._frozen(buf)     # the one finiteness scan; its error names the value
    except ValueError as exc:
        raise FormatError(f"{raw_path}: {exc}") from exc


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
    with open(_raw_path(header_path), "wb") as fh:
        for block in _file_blocks(cube.data.transpose(1, 2, 0), interleave):
            # tofile writes a non-contiguous array one element at a time.
            np.ascontiguousarray(block, dtype="<f4").tofile(fh)


# ---------------------------------------------------------------------------
# Score map I/O:  <base>.csv (x,y,score)
# ---------------------------------------------------------------------------


def _csv_path(path: str) -> str:
    base, ext = os.path.splitext(path)
    return (base if ext == ".csv" else path) + ".csv"


def save_scoremap(smap: ScoreMap, path: str) -> None:
    # One %-format per image row: its template holds every x, and "\0"
    # stands for the row's y.  %r writes a float as repr does.
    template = "".join([f"{x},\0,%r\n" for x in range(smap.width)])
    body = "".join([template.replace("\0", str(y)) % tuple(row)
                    for y, row in enumerate(smap.values.tolist())])
    with open(_csv_path(path), "w", encoding="ascii") as fh:
        fh.write("x,y,score\n" + body)


_SCORE_ROW = np.dtype([("x", np.intp), ("y", np.intp), ("score", np.float64)])


def _score_rows(csv_path: str, body: list[str]) -> np.ndarray:
    """The ``x,y,score`` rows of ``body`` as one ``_SCORE_ROW`` array.

    ``np.loadtxt`` parses them in one call, but it skips blank lines, names
    no bad line and rejects numerals that ``int`` and ``float`` accept
    (``1_0``).  So if it fails, warns or drops a line, the rows are parsed
    one at a time up to the first bad line, whose error is raised only after
    the rows above it pass ``_check_rows``: the first faulty line is the one
    reported, whatever its fault."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")          # e.g. a body of blank lines
            rows = np.loadtxt(body, delimiter=",", comments=None, dtype=_SCORE_ROW, ndmin=1)
        if rows.size == len(body):
            return rows
    except (ValueError, Warning):
        pass
    parsed = []
    for lineno, line in enumerate(body, start=2):
        try:
            x_s, y_s, s_s = line.strip().split(",")
            parsed.append((int(x_s), int(y_s), float(s_s)))
        except ValueError as exc:
            _check_rows(csv_path, body, np.array(parsed, dtype=_SCORE_ROW))
            raise FormatError(
                f"{csv_path}:{lineno}: bad x,y,score row {line.strip()!r}"
            ) from exc
    return np.array(parsed, dtype=_SCORE_ROW)


def _check_rows(csv_path: str, body: list[str], rows: np.ndarray) -> None:
    """Reject the first row with a negative coordinate or a non-finite score."""
    negative = (rows["x"] < 0) | (rows["y"] < 0)
    bad = np.flatnonzero(negative | ~np.isfinite(rows["score"]))
    if not bad.size:
        return
    row = int(bad[0])
    if negative[row]:
        raise FormatError(f"{csv_path}:{row + 2}: negative coordinate")
    s_s = body[row].strip().split(",")[2]
    raise FormatError(f"{csv_path}:{row + 2}: non-finite score {s_s!r}")


def load_scoremap(path: str) -> ScoreMap:
    """Reload a saved score map from its CSV, which gives both the
    dimensions and the full-precision values.  The rows must cover every
    (x, y) cell exactly once."""
    csv_path = _csv_path(path)
    lines = _ascii_lines(csv_path)
    header = lines[0].strip() if lines else ""
    if header != "x,y,score":
        raise FormatError(f"{csv_path}: bad score-map CSV header: {header!r}")
    body = lines[1:]
    if not body:
        raise FormatError(f"{csv_path}: no score rows")
    rows = _score_rows(csv_path, body)
    _check_rows(csv_path, body, rows)
    xs, ys = rows["x"], rows["y"]
    w, h = int(xs.max()) + 1, int(ys.max()) + 1
    cells = ys * w + xs
    _, first = np.unique(cells, return_index=True)
    if first.size != cells.size:
        row = int(np.setdiff1d(np.arange(cells.size), first)[0])
        raise FormatError(f"{csv_path}:{row + 2}: repeated cell x={xs[row]}, y={ys[row]}")
    if rows.size != w * h:
        raise FormatError(f"{csv_path}: expected {w * h} rows, found {rows.size}")
    values = np.empty((h, w), dtype=np.float64)
    values[ys, xs] = rows["score"]
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
    for lineno, line in enumerate(_ascii_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        if line.strip("01"):
            raise FormatError(f"{path}:{lineno}: mask rows must be 0/1 strings")
        rows.append(line)
    if not rows:
        raise FormatError(f"{path}: empty mask")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: ragged mask rows (widths {sorted(widths)})")
    grid = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return GroundTruthMask((grid - ord("0")).reshape(len(rows), -1))


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
    for lineno, line in enumerate(_ascii_lines(path), start=1):
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
