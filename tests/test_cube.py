"""Data model and file I/O round-trip tests."""

import re
import tracemalloc

import numpy as np
import pytest

import hsidet as h
from hsidet.cube import _BLOCK_VALUES, FormatError


def random_cube(rng, b=3, height=4, width=5):
    # float32-representable values so disk round-trips are bit-exact
    data = rng.random((b, height, width)).astype(np.float32).astype(np.float64)
    return h.HsiCube(data)


ARRAY_TYPES = {
    "HsiCube": lambda: h.HsiCube(np.ones((2, 2, 2))),
    "Dictionary": lambda: h.Dictionary(np.eye(2)),
    "ScoreMap": lambda: h.ScoreMap(np.ones((2, 2))),
    "GroundTruthMask": lambda: h.GroundTruthMask(np.eye(2, dtype=int)),
    "RocCurve": lambda: h.RocCurve([0.0, 1.0], [0.0, 1.0], [1.0, 0.0]),
    "SparseCode": lambda: h.SparseCode([0, 2], [1.0, -1.0], 3),
}


@pytest.mark.parametrize("make", ARRAY_TYPES.values(), ids=ARRAY_TYPES.keys())
def test_array_types_compare_by_identity_and_hash(make):
    a, b = make(), make()
    assert a != b and not a == b     # equal values, distinct objects: no ambiguous truth value
    assert a == a
    assert len({a, b}) == 2 and a in {a}


class TestHsiCube:
    def test_rejects_nan(self):
        data = np.ones((2, 2, 2))
        data[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="band=1"):
            h.HsiCube(data)

    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError):
            h.HsiCube(np.ones((0, 2, 2)))

    def test_pixel_at_constant_cube(self):
        cube = h.HsiCube(np.full((3, 2, 2), 7.0))
        assert np.array_equal(cube.pixel_at(1, 0), [7.0, 7.0, 7.0])

    def test_pixel_at_bounds(self):
        cube = h.HsiCube(np.ones((2, 3, 4)))
        with pytest.raises(IndexError):
            cube.pixel_at(4, 0)
        with pytest.raises(IndexError):
            cube.pixel_at(0, -1)

    def test_dictionary_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            h.Dictionary([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="atom=1"):
            h.Dictionary([[1.0, 0.0], [0.0, np.inf]])

    def test_pixel_at_matches_canonical_flat_layout(self):
        # value at (x, y, b) must equal flat[b*W*H + y*W + x]
        b, height, width = 3, 4, 5
        flat = np.arange(b * height * width, dtype=np.float64)
        cube = h.HsiCube(flat.reshape(b, height, width))
        for band in range(b):
            for y in range(height):
                for x in range(width):
                    assert cube.pixel_at(x, y)[band] == flat[band * width * height + y * width + x]

    def test_ramp_first_pixel_is_band_plane_starts(self):
        b, height, width = 4, 3, 3
        flat = np.arange(b * height * width, dtype=np.float64)
        cube = h.HsiCube(flat.reshape(b, height, width))
        expected = [band * width * height for band in range(b)]
        assert np.array_equal(cube.pixel_at(0, 0), expected)


def cube_from(origin, tmp_path):
    """A small cube built from an array of the given layout, made by
    ``synth.generate``, or loaded from a file of the given interleave."""
    if origin == "synth":
        return h.generate(h.SceneSpec(width=6, height=5, bands=4, n_targets=2, seed=1))[0]
    values = random_cube(np.random.default_rng(5)).data
    if origin == "band-major":
        return h.HsiCube(np.ascontiguousarray(values))
    if origin == "pixel-major":
        return h.HsiCube(np.ascontiguousarray(values.transpose(1, 2, 0)).transpose(2, 0, 1))
    h.save_cube(h.HsiCube(values), str(tmp_path / "c.hdr"), interleave=origin)
    return h.load_cube(str(tmp_path / "c.hdr"))


class TestPixelMajorLayout:
    @pytest.mark.parametrize("origin", ["band-major", "pixel-major", "synth", "bsq", "bil"])
    def test_pixels_are_a_contiguous_read_only_view(self, tmp_path, origin):
        cube = cube_from(origin, tmp_path)
        X = cube.pixels()
        assert X.flags.c_contiguous and not X.flags.writeable
        assert np.shares_memory(X, cube.data)
        assert np.array_equal(X[cube.width + 2], cube.pixel_at(2, 1))

    @pytest.mark.parametrize("origin", ["band-major", "pixel-major"])
    def test_caller_array_is_copied_and_left_writable(self, origin):
        values = np.random.default_rng(6).random((3, 4, 5))
        arr = (values.copy() if origin == "band-major"
               else np.ascontiguousarray(values.transpose(1, 2, 0)).transpose(2, 0, 1))
        cube = h.HsiCube(arr)
        assert arr.flags.writeable and np.array_equal(arr, values)
        assert not np.shares_memory(arr, cube.data)
        arr[0, 0, 0] = -1.0
        assert cube.data[0, 0, 0] == values[0, 0, 0]


class TestCubeIO:
    def test_constant_bsq_load(self, tmp_path):
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 2\nheight: 2\nbands: 3\ndtype: float32\ninterleave: bsq\n")
        np.full(12, 1.0, dtype="<f4").tofile(tmp_path / "c.raw")
        cube = h.load_cube(str(hdr))
        assert cube.width == 2 and cube.height == 2 and cube.bands == 3
        assert np.all(cube.data == 1.0)

    def test_size_mismatch_rejected(self, tmp_path):
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 60\nheight: 60\nbands: 189\ndtype: float32\ninterleave: bsq\n")
        np.zeros(100, dtype="<f4").tofile(tmp_path / "c.raw")
        with pytest.raises(FormatError, match="expected"):
            h.load_cube(str(hdr))

    def test_missing_raw_rejected(self, tmp_path):
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 1\nheight: 1\nbands: 1\ndtype: float32\ninterleave: bsq\n")
        with pytest.raises(FileNotFoundError):
            h.load_cube(str(hdr))

    def test_header_errors_name_the_file(self, tmp_path):
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 2\nheight 2\n")
        with pytest.raises(FormatError, match=r"c\.hdr:2: bad header line: 'height 2'"):
            h.load_cube(str(hdr))
        hdr.write_text("width: 2\nbands: 1\ndtype: float32\ninterleave: bsq\n")
        with pytest.raises(FormatError, match=r"c\.hdr: header missing field 'height'"):
            h.load_cube(str(hdr))

    def test_nan_in_raw_rejected(self, tmp_path):
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 2\nheight: 1\nbands: 1\ndtype: float32\ninterleave: bsq\n")
        np.array([1.0, np.nan], dtype="<f4").tofile(tmp_path / "c.raw")
        with pytest.raises(FormatError, match="non-finite"):
            h.load_cube(str(hdr))

    def test_non_finite_raw_value_is_named_by_position(self, tmp_path):
        # BIL raw order is (row, band, column): value 5 is band 0, y 1, x 1.
        hdr = tmp_path / "c.hdr"
        hdr.write_text("width: 2\nheight: 2\nbands: 2\ndtype: float32\ninterleave: bil\n")
        raw = np.ones(8, dtype="<f4")
        raw[[5, 7]] = [np.inf, np.nan]
        raw.tofile(tmp_path / "c.raw")
        with pytest.raises(FormatError, match=r"c\.raw: non-finite value at band=0, y=1, x=1$"):
            h.load_cube(str(hdr))

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_round_trip_identity(self, tmp_path, interleave):
        cube = random_cube(np.random.default_rng(0))
        h.save_cube(cube, str(tmp_path / "c.hdr"), interleave=interleave)
        again = h.load_cube(str(tmp_path / "c.hdr"))
        assert np.array_equal(cube.data, again.data)

    def test_interleave_invariance(self, tmp_path):
        cube = random_cube(np.random.default_rng(1))
        h.save_cube(cube, str(tmp_path / "a.hdr"), interleave="bsq")
        h.save_cube(cube, str(tmp_path / "b.hdr"), interleave="bil")
        a = h.load_cube(str(tmp_path / "a.hdr"))
        b = h.load_cube(str(tmp_path / "b.hdr"))
        assert np.array_equal(a.data, b.data)

    def test_expected_file_size(self, tmp_path):
        cube = h.HsiCube(np.ones((3, 2, 2)))
        h.save_cube(cube, str(tmp_path / "c.hdr"))
        assert (tmp_path / "c.raw").stat().st_size == 2 * 2 * 3 * 4


def traced_peak(call):
    """Bytes ``call()`` allocates at its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def write_raw(tmp_path, data, interleave):
    """Write (bands, height, width) ``data``, non-finite values and all, as a
    float32 cube file of ``interleave`` without going through ``HsiCube``."""
    b, height, width = data.shape
    hdr = tmp_path / "c.hdr"
    hdr.write_text(f"width: {width}\nheight: {height}\nbands: {b}\n"
                   f"dtype: float32\ninterleave: {interleave}\n")
    order = data.transpose(1, 0, 2) if interleave == "bil" else data
    np.ascontiguousarray(order, dtype="<f4").tofile(tmp_path / "c.raw")
    return str(hdr)


class TestBlockedCubeIO:
    """Cube files are read and written a block at a time (rows for bil,
    bands for bsq) and scanned for non-finite values in blocks of rows.
    Values, bytes and error texts are those of a whole-cube pass."""

    # (bands, height, width): 200 x 23 x 37 is three bsq band blocks of
    # 77, 77 and 46 and three bil row blocks of 8, 8 and 7; 19 x 90 x 740
    # has more pixels than a block holds, so its bsq blocks are the 8-band
    # floor (8, 8, 3), and its bil blocks 22 of 4 rows and one of 2.
    RAGGED = [(200, 23, 37), (19, 90, 740)]

    @pytest.mark.parametrize("shape", RAGGED, ids=["bands", "floor"])
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_ragged_blocks_round_trip(self, tmp_path, shape, interleave):
        b, height, width = shape
        band_step = max(8, _BLOCK_VALUES // (height * width))
        row_step = max(1, _BLOCK_VALUES // (b * width))
        assert b > band_step and b % band_step and height > row_step and height % row_step
        data = random_cube(np.random.default_rng(8), b, height, width).data
        h.save_cube(h.HsiCube(data), str(tmp_path / "c.hdr"), interleave=interleave)
        order = data.transpose(1, 0, 2) if interleave == "bil" else data
        expected = np.ascontiguousarray(order, dtype="<f4").tobytes()
        assert (tmp_path / "c.raw").read_bytes() == expected
        assert np.array_equal(h.load_cube(str(tmp_path / "c.hdr")).data, data)

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_first_non_finite_in_band_order_is_named_across_blocks(self, tmp_path, interleave):
        # The scan of HsiCube and of every load runs over blocks of 8 rows:
        # it meets band 150 at y=0 in its first block and band 3 at y=20 in
        # its third.  Band 3 is first in (band, y, x) order.
        data = np.ones((200, 23, 37))
        data[150, 0, 5] = np.nan
        data[3, 20, 30] = np.inf
        data[3, 21, 0] = np.nan
        message = "non-finite value at band=3, y=20, x=30"
        with pytest.raises(FormatError, match=rf"c\.raw: {message}$"):
            h.load_cube(write_raw(tmp_path, data, interleave))
        with pytest.raises(ValueError, match=f"^{message}$"):
            h.HsiCube(data)

    # 128 x 128 x 100: the cube is 12.5 MiB.  A load holds the cube it
    # returns and one block (a bsq group of 8 bands is 5% of the cube); a
    # save holds one float32 block.  A whole-file read, its float64 copy and
    # its finiteness mask peak at 1.6 cubes, a whole-cube float32 copy for
    # the save at half a cube.
    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_load_holds_the_cube_and_one_block(self, tmp_path, interleave):
        cube = random_cube(np.random.default_rng(9), 100, 128, 128)
        h.save_cube(cube, str(tmp_path / "c.hdr"), interleave)
        peak = traced_peak(lambda: h.load_cube(str(tmp_path / "c.hdr")))
        assert peak / cube.data.nbytes < 1.1

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_save_holds_one_block(self, tmp_path, interleave):
        cube = random_cube(np.random.default_rng(9), 100, 128, 128)
        peak = traced_peak(lambda: h.save_cube(cube, str(tmp_path / "c.hdr"), interleave))
        assert peak / cube.data.nbytes < 0.1


class TestScoreMapIO:
    def test_zero_map_round_trip(self, tmp_path):
        smap = h.ScoreMap(np.zeros((3, 4)))
        h.save_scoremap(smap, str(tmp_path / "s"))
        again = h.load_scoremap(str(tmp_path / "s"))
        assert np.array_equal(smap.values, again.values)

    def test_random_map_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        smap = h.ScoreMap(rng.normal(size=(5, 7)))
        h.save_scoremap(smap, str(tmp_path / "s"))
        again = h.load_scoremap(str(tmp_path / "s"))
        assert np.array_equal(smap.values, again.values)

    def test_csv_golden_bytes(self, tmp_path):
        # Every score is written as its shortest round-tripping repr.
        smap = h.ScoreMap(np.array([[0.0, -0.0, 5e-324], [1e-5, 1e16, 1 / 3]]))
        h.save_scoremap(smap, str(tmp_path / "s"))
        assert (tmp_path / "s.csv").read_bytes() == (
            b"x,y,score\n0,0,0.0\n1,0,-0.0\n2,0,5e-324\n"
            b"0,1,1e-05\n1,1,1e+16\n2,1,0.3333333333333333\n"
        )

    def test_full_size_map_round_trip_bit_exact(self, tmp_path):
        # Magnitudes span the float64 range, far beyond float32's.
        rng = np.random.default_rng(3)
        values = rng.standard_normal((256, 256)) * 10.0 ** rng.integers(-300, 301, (256, 256))
        values[0, :2] = 1e300, -1e300
        smap = h.ScoreMap(values)
        h.save_scoremap(smap, str(tmp_path / "s"))
        again = h.load_scoremap(str(tmp_path / "s"))
        assert again.values.tobytes() == smap.values.tobytes()

    @pytest.mark.parametrize("line", ["", "# 1,0,2.0", "1,0,2.0,3.0"],
                             ids=["blank", "comment", "four-fields"])
    def test_bad_row_names_its_line(self, tmp_path, line):
        (tmp_path / "s.csv").write_text(f"x,y,score\n0,0,1.0\n{line}\n1,0,2.0\n")
        with pytest.raises(FormatError, match=rf"s\.csv:3: bad x,y,score row {re.escape(repr(line))}$"):
            h.load_scoremap(str(tmp_path / "s"))

    def test_first_bad_line_wins_whatever_its_fault(self, tmp_path):
        body = "0,0,1.0\n1,0,nan\n-1,1,2.0\n1,1\n"
        (tmp_path / "s.csv").write_text("x,y,score\n" + body)
        with pytest.raises(FormatError, match=r"s\.csv:3: non-finite score 'nan'$"):
            h.load_scoremap(str(tmp_path / "s"))
        (tmp_path / "s.csv").write_text("x,y,score\n" + body.replace("nan", "2.0"))
        with pytest.raises(FormatError, match=r"s\.csv:4: negative coordinate$"):
            h.load_scoremap(str(tmp_path / "s"))

    def test_rows_parse_as_int_and_float_do(self, tmp_path):
        # Underscores and padding are valid Python numerals; rows may come in any order.
        (tmp_path / "s.csv").write_text("x,y,score\n 1_0 ,0,2.5\n" + "".join(
            f"{x},0,{x}.0\n" for x in range(10)))
        assert h.load_scoremap(str(tmp_path / "s")).values.tolist() == [
            [float(x) for x in range(10)] + [2.5]]

    def test_only_the_csv_is_written(self, tmp_path):
        h.save_scoremap(h.ScoreMap(np.ones((2, 2))), str(tmp_path / "s"))
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
        assert (tmp_path / "s.csv").read_text().startswith("x,y,score\n")

    def test_header_only_csv_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("x,y,score\n")
        with pytest.raises(FormatError, match=r"s\.csv: no score rows"):
            h.load_scoremap(str(tmp_path / "s"))

    def test_short_row_rejected(self, tmp_path):
        (tmp_path / "s.csv").write_text("x,y,score\n0,0,1.0\n1,0\n")
        with pytest.raises(FormatError, match=r"s\.csv:3: bad x,y,score row"):
            h.load_scoremap(str(tmp_path / "s"))

    def test_repeated_cell_rejected(self, tmp_path):
        # Four rows for a 2x2 map: (0, 0) twice and (0, 1) never.
        (tmp_path / "s.csv").write_text("x,y,score\n0,0,1.0\n1,0,2.0\n0,0,3.0\n1,1,4.0\n")
        with pytest.raises(FormatError, match=r"s\.csv:4: repeated cell x=0, y=0"):
            h.load_scoremap(str(tmp_path / "s"))

    def test_negative_coordinate_rejected(self, tmp_path):
        # x=-1, y=1 would index the same flat cell as (1, 0) and wrap onto (1, 1).
        (tmp_path / "s.csv").write_text("x,y,score\n0,0,1.0\n-1,1,2.0\n0,1,3.0\n1,1,4.0\n")
        with pytest.raises(FormatError, match=r"s\.csv:3: negative coordinate"):
            h.load_scoremap(str(tmp_path / "s"))

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        (tmp_path / "s.csv").write_text(f"x,y,score\n0,0,1.0\n1,0,{score}\n")
        with pytest.raises(FormatError, match=rf"s\.csv:3: non-finite score '{score}'"):
            h.load_scoremap(str(tmp_path / "s"))


class TestMaskIO:
    def test_round_trip(self, tmp_path):
        mask = h.GroundTruthMask(np.array([[0, 1], [1, 0]]))
        h.save_mask(mask, str(tmp_path / "m.mask"))
        again = h.load_mask(str(tmp_path / "m.mask"))
        assert np.array_equal(mask.labels, again.labels)

    def test_all_zero_mask_loads_but_fails_eval(self, tmp_path):
        (tmp_path / "m.mask").write_text("00\n00\n")
        mask = h.load_mask(str(tmp_path / "m.mask"))
        assert mask.n_targets == 0
        with pytest.raises(ValueError):
            h.roc(h.ScoreMap(np.zeros((2, 2))), mask)

    def test_malformed_grid_rejected(self, tmp_path):
        (tmp_path / "m.mask").write_text("01\n2\n")
        with pytest.raises(FormatError):
            h.load_mask(str(tmp_path / "m.mask"))

    def test_ragged_grid_rejected(self, tmp_path):
        (tmp_path / "m.mask").write_text("01\n011\n")
        with pytest.raises(FormatError):
            h.load_mask(str(tmp_path / "m.mask"))


class TestDictionaryIO:
    def test_signature_round_trip(self, tmp_path):
        sig = np.random.default_rng(4).random(9)
        h.save_signature(sig, str(tmp_path / "sig.csv"))
        assert np.array_equal(sig, h.load_signature(str(tmp_path / "sig.csv")))

    def test_unparsable_signature_line_names_file_and_line(self, tmp_path):
        (tmp_path / "sig.csv").write_text("0.1\n\nabc\n")
        with pytest.raises(FormatError, match=r"sig\.csv:3: bad band value 'abc'"):
            h.load_signature(str(tmp_path / "sig.csv"))

    def test_non_finite_signature_value_names_file_and_line(self, tmp_path):
        (tmp_path / "sig.csv").write_text("0.1\nnan\n")
        with pytest.raises(FormatError, match=r"sig\.csv:2: non-finite band value 'nan'"):
            h.load_signature(str(tmp_path / "sig.csv"))


class TestNonAsciiText:
    @pytest.mark.parametrize("name,text,load", [
        ("c.hdr", "width: 1\n# caf\u00e9\n", h.load_cube),
        ("m.mask", "01\n0\u00e9\n", h.load_mask),
        ("sig.csv", "0.5\n1\u00e9\n", h.load_signature),
        ("s.csv", "x,y,score\n0,0,1\u00e9\n", h.load_scoremap),
    ], ids=["header", "mask", "signature", "scoremap"])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, name, text, load):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(FormatError, match=rf"{re.escape(str(path))}:2: non-ASCII byte"):
            load(str(path))
