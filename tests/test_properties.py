"""Property tests: ROC/AUC invariances, window-ring geometry and cube file
round trips, on inputs drawn by hypothesis."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import hsidet as h

PROPERTY = settings(max_examples=80, deadline=None)


@st.composite
def tied_scores(draw):
    """(levels, labels): integer score levels with many ties, and a mask
    holding both classes, on a small image."""
    height = draw(st.integers(1, 6))
    width = draw(st.integers(2, 6))
    n = height * width
    top = draw(st.integers(0, n))
    levels = draw(arrays(np.int64, n, elements=st.integers(0, top)))
    labels = draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
    target, background = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                       unique=True))
    labels[target], labels[background] = 1, 0
    return levels.reshape(height, width), labels.reshape(height, width)


def curve_and_area(values, labels):
    curve = h.roc(h.ScoreMap(values), h.GroundTruthMask(labels))
    return curve.far, curve.pd, h.auc(curve)


def assert_same_curve(a, b):
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


@PROPERTY
@given(tied_scores(), st.data())
def test_roc_is_invariant_under_strictly_increasing_maps(scored, data):
    levels, labels = scored
    # A strictly increasing map on the levels: cumulative positive steps
    # (each far above one ulp) plus any shift.
    steps = data.draw(arrays(np.float64, int(levels.max()) + 1,
                             elements=st.floats(1e-3, 1e3)))
    shift = data.draw(st.floats(-1e3, 1e3))
    mapped = (np.cumsum(steps) + shift)[levels]
    assert np.all(np.diff(np.cumsum(steps) + shift) > 0)
    assert_same_curve(curve_and_area(levels, labels), curve_and_area(mapped, labels))


@PROPERTY
@given(tied_scores(), st.data())
def test_roc_is_invariant_under_pixel_permutation(scored, data):
    levels, labels = scored
    perm = np.array(data.draw(st.permutations(range(levels.size))))
    shuffled = levels.ravel()[perm].reshape(levels.shape)
    shuffled_labels = labels.ravel()[perm].reshape(labels.shape)
    assert_same_curve(curve_and_area(levels, labels),
                      curve_and_area(shuffled, shuffled_labels))


def clamped_side(center, window, size):
    return min(size - 1, center + window // 2) - max(0, center - window // 2) + 1


@st.composite
def ring_cases(draw):
    inner = draw(st.sampled_from([1, 3, 5, 7]))
    outer = draw(st.sampled_from([o for o in range(inner + 2, 16, 2)]))
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))

    def coordinate(size):
        return draw(st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1)))

    return h.WindowSpec(outer, inner), width, height, coordinate(width), coordinate(height)


@PROPERTY
@given(ring_cases(), st.integers(0, 2**32 - 1))
def test_ring_holds_the_clamped_outer_minus_inner_area(case, seed):
    window, width, height, x, y = case
    # Positive random spectra: no zero-norm pixel is dropped, and no other
    # pixel has the centre's direction.
    cube = h.HsiCube(np.random.default_rng(seed).random((3, height, width)) + 0.1)
    expected = (
        clamped_side(x, window.outer, width) * clamped_side(y, window.outer, height)
        - clamped_side(x, window.inner, width) * clamped_side(y, window.inner, height)
    )
    if expected == 0:
        with pytest.raises(ValueError, match="empty local window ring"):
            h.local_background(cube, x, y, window)
        return
    atoms = h.local_background(cube, x, y, window).columns
    assert atoms.shape == (3, expected)
    centre = cube.data[:, y, x] / np.linalg.norm(cube.data[:, y, x])
    assert np.min(np.linalg.norm(atoms - centre[:, None], axis=0)) > 1e-9


@PROPERTY
@given(
    arrays(np.float32, array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
           elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    st.sampled_from(["bsq", "bil"]),
)
def test_cube_files_round_trip(data, interleave):
    cube = h.HsiCube(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.hdr")
        h.save_cube(cube, path, interleave)
        back = h.load_cube(path)
    assert back.data.dtype == np.float64
    assert back.data.tobytes() == cube.data.tobytes()


@st.composite
def residual_pair(draw):
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    residuals = arrays(np.float64, shape, elements=st.floats(0.0, 1e6))
    return draw(residuals), draw(residuals)


@PROPERTY
@given(residual_pair(), st.floats(0.0, 1.0))
def test_fused_scores_are_bounded_and_favour_target_like_pixels(residuals, gamma):
    r_t, r_b = residuals
    S_t, S_b = h.normalize_scores(h.ScoreMap(r_t), h.ScoreMap(r_b))
    S_t, S_b = h.orient_scores(S_t, S_b, h.DetectorConfig.orientation)
    fused = h.fuse_scores(S_t, S_b, gamma).values.ravel()
    assert np.all((fused >= 0.0) & (fused <= 1.0))
    # A pixel coded at least as well by the target dictionary and at most as
    # well by its background dictionary as another never scores lower.
    t, b = r_t.ravel(), r_b.ravel()
    dominates = (t[:, None] <= t[None, :]) & (b[:, None] >= b[None, :])
    assert np.all((fused[:, None] >= fused[None, :])[dominates])
