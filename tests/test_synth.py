"""Synthetic scene generator properties."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import hsidet as h
from hsidet.synth import PRESETS


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = h.SceneSpec(seed=5)
        a_cube, a_mask, a_sig = h.generate(spec)
        b_cube, b_mask, b_sig = h.generate(spec)
        assert np.array_equal(a_cube.data, b_cube.data)
        assert np.array_equal(a_mask.labels, b_mask.labels)
        assert np.array_equal(a_sig, b_sig)

    def test_different_seeds_differ(self):
        a = h.generate(h.SceneSpec(seed=0))[0]
        b = h.generate(h.SceneSpec(seed=1))[0]
        assert not np.array_equal(a.data, b.data)

    def test_shapes_follow_spec(self):
        spec = h.SceneSpec(width=17, height=11, bands=9, n_targets=3)
        cube, mask, sig = h.generate(spec)
        assert (cube.bands, cube.height, cube.width) == (9, 11, 17)
        assert (mask.height, mask.width) == (11, 17)
        assert sig.shape == (9,)

    def test_target_count_matches_mask(self):
        spec = h.SceneSpec(n_targets=8)
        _, mask, _ = h.generate(spec)
        assert mask.n_targets == 8

    def test_full_fill_zero_noise_implants_signature_exactly(self):
        spec = h.SceneSpec(target_fill=1.0, noise_sigma=0.0, n_targets=5, seed=3)
        cube, mask, sig = h.generate(spec)
        for y, x in np.argwhere(mask.labels == 1):
            assert np.array_equal(cube.pixel_at(int(x), int(y)), sig)

    def test_single_endmember_zero_noise_background_constant(self):
        spec = h.SceneSpec(
            n_endmembers=1, noise_sigma=0.0, n_targets=2, width=12, height=12, seed=4
        )
        cube, mask, _ = h.generate(spec)
        bg = cube.pixels()[mask.labels.ravel() == 0]
        assert np.max(np.abs(bg - bg[0])) < 1e-12

    def test_scattered_targets_keep_separation(self):
        spec = h.SceneSpec(n_targets=8, placement="scattered", seed=6)
        _, mask, _ = h.generate(spec)
        pos = np.argwhere(mask.labels == 1)
        min_sep = max(3, min(spec.width, spec.height) // 8)
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                assert np.max(np.abs(pos[i] - pos[j])) >= min_sep

    def test_clustered_targets_are_compact(self):
        spec = h.SceneSpec(n_targets=40, placement="clustered", seed=7)
        _, mask, _ = h.generate(spec)
        pos = np.argwhere(mask.labels == 1)
        extent = pos.max(axis=0) - pos.min(axis=0) + 1
        density = 40 / float(extent[0] * extent[1])
        assert density >= 0.2

    def test_cluster_too_small_for_its_targets_is_rejected(self):
        # The cluster side is clamped to the image: 20 targets do not fit a
        # 4x4 block, and a short mask is never returned.
        spec = h.SceneSpec(width=4, height=40, n_targets=20, placement="clustered")
        with pytest.raises(ValueError, match="^cannot place 20 targets in a 4x4 cluster$"):
            h.generate(spec)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            h.SceneSpec(target_fill=0.0)
        with pytest.raises(ValueError):
            h.SceneSpec(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            h.SceneSpec(placement="ring")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            h.SceneSpec(seed=-1)

    @pytest.mark.parametrize("field,value,message", [
        # nan > 0 is False, so a nan sigma used to give a noiseless scene.
        ("noise_sigma", float("nan"), "noise_sigma must be finite and >= 0"),
        ("noise_sigma", float("inf"), "noise_sigma must be finite and >= 0"),
        ("bands", 0, "bands must be >= 1"),
        ("height", 0, "height must be >= 1"),
        ("width", 2.5, "width must be an integer"),
        ("n_endmembers", 2.0, "n_endmembers must be an integer"),
        ("n_targets", 0, "n_targets must be >= 1"),
        ("seed", 1.5, "seed must be an integer"),
        ("target_fill", "0.5", "target_fill must be a real number"),
    ])
    def test_bad_field_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            h.SceneSpec(**{field: value})


    def test_cube_is_built_in_its_own_buffer(self):
        # 128 x 128 x 100 (12.5 MiB): the pixels are mixed into the cube's
        # buffer and the noise is added a chunk of rows at a time.  A whole
        # mixed copy, a whole noise draw, their sum and the cube's own copy
        # peak at over two cubes.
        spec = h.SceneSpec(width=128, height=128, bands=100, n_targets=16, seed=3)
        tracemalloc.start()
        try:
            cube = h.generate(spec)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / cube.data.nbytes < 1.1


class TestPresets:
    # The sha256 of each preset cube's (bands, height, width) float64 bytes:
    # any change to the scene recipe, its RNG draw order or its arithmetic
    # moves them.  "large" draws its noise in three chunks, the last one short.
    DIGESTS = {
        "sparse-targets": "1b3cea102aa5f77f99f089c02e6aeb3e605319796a8a58edac229dc0af67ee2c",
        "dense-targets": "4f438bc34df6319b5e95db1691edf63402267175b40133ac9a33d8fb4e393f55",
        "large": "523d171670386e845ff6cb45af6029b67599ec0de14921d4f8a56142c6a05d5f",
    }

    @pytest.mark.parametrize("name", DIGESTS)
    def test_preset_cube_keeps_its_bytes(self, name):
        cube = h.generate(PRESETS[name])[0]
        assert hashlib.sha256(cube.data.tobytes()).hexdigest() == self.DIGESTS[name]

    def test_expected_presets_present(self):
        assert set(PRESETS) == {"sparse-targets", "dense-targets", "large"}

    def test_sparse_preset_density_below_one_percent(self):
        spec = PRESETS["sparse-targets"]
        _, mask, _ = h.generate(spec)
        assert mask.n_targets / (mask.height * mask.width) < 0.01

    def test_dense_preset_is_clustered(self):
        assert PRESETS["dense-targets"].placement == "clustered"
        assert PRESETS["dense-targets"].n_targets >= 5 * PRESETS["sparse-targets"].n_targets

    def test_large_preset_dimensions(self):
        spec = PRESETS["large"]
        assert spec.width * spec.height > 40 * 40

    def test_cem_separates_every_preset(self):
        # the scenes must be solvable by even the weakest baseline
        for name, spec in PRESETS.items():
            cube, mask, sig = h.generate(spec)
            value = h.auc(h.roc(h.cem_detect(cube, sig), mask))
            assert value > 0.9, f"{name}: CEM AUC {value:.3f}"
