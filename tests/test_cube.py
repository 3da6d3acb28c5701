"""Data model and file I/O round-trip tests."""

import numpy as np
import pytest

import hsidet as h
from hsidet.cube import FormatError


def random_cube(rng, b=3, height=4, width=5):
    # float32-representable values so disk round-trips are bit-exact
    data = rng.random((b, height, width)).astype(np.float32).astype(np.float64)
    return h.HsiCube(data)


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

    def test_raster_and_csv_written(self, tmp_path):
        h.save_scoremap(h.ScoreMap(np.ones((2, 2))), str(tmp_path / "s"))
        assert (tmp_path / "s.f32").exists()
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
