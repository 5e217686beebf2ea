import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smokecurate.granule import GridGeometry
from smokecurate.regrid import (Frame, bilinear_resample, covers_any,
                                identity_or_resample)

SRC = GridGeometry(20, 36, 32.0, -160.0, 0.5, 0.5)
TARGET = GridGeometry(20, 40, 32.0, -160.0, 0.5, 0.5)


def grid_field(geom, fn):
    lat = geom.latitudes()[:, None]
    lon = geom.longitudes()[None, :]
    return np.broadcast_to(fn(lat, lon), (geom.nrows, geom.ncols)).astype(float)


def test_constant_preserved_exactly():
    src = Frame(SRC, np.full((20, 36), 7.25))
    out = bilinear_resample(src, GridGeometry(10, 18, 33.0, -159.0, 0.7, 0.7))
    assert out.resampled
    np.testing.assert_array_equal(out.values, 7.25)


def test_affine_field_exact_to_1e12():
    a, b = 3.0, -2.0
    src = Frame(SRC, grid_field(SRC, lambda la, lo: a * la + b * lo))
    # interior target grid, off-node points
    target = GridGeometry(15, 25, 32.3, -159.7, 0.55, 0.6)
    out = bilinear_resample(src, target)
    expect = grid_field(target, lambda la, lo: a * la + b * lo)
    assert np.max(np.abs(out.values - expect) / np.abs(expect)) <= 1e-12


def test_drift_to_canonical_desk_scale():
    rng = np.random.default_rng(3)
    src = Frame(SRC, rng.uniform(0, 50, size=(20, 36)))
    out = bilinear_resample(src, TARGET)
    assert out.resampled
    # overlap columns land on identical coordinates: values carried over
    np.testing.assert_allclose(out.values[:, :36], src.values, rtol=1e-12)
    # new east columns are outside the source extent: zero-filled
    np.testing.assert_array_equal(out.values[:, 36:], 0.0)


def test_value_range_containment():
    rng = np.random.default_rng(5)
    src = Frame(SRC, rng.uniform(1, 9, size=(20, 36)))
    target = GridGeometry(31, 41, 32.1, -159.9, 0.29, 0.42)
    out = bilinear_resample(src, target)
    inside = out.values[out.values > 0]
    assert inside.min() >= src.values.min() - 1e-12
    assert out.values.max() <= src.values.max() + 1e-12


def test_degenerate_source_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        bilinear_resample(Frame(GridGeometry(1, 2, 40, -120, 0.5, 0.5),
                                np.ones((1, 2))), TARGET)


def test_identity_on_canonical_geometry():
    values = np.arange(20 * 40, dtype=float).reshape(20, 40)
    out = identity_or_resample(Frame(TARGET, values), TARGET)
    assert not out.resampled
    np.testing.assert_array_equal(out.values, values)


def test_drift_frame_marked_resampled():
    out = identity_or_resample(Frame(SRC, np.ones((20, 36))), TARGET)
    assert out.resampled


def test_geometry_comparison_is_exact():
    # one ulp past the canonical origin must already count as non-canonical
    nudged = GridGeometry(20, 40, float(np.nextafter(32.0, 33.0)), -160.0,
                          0.5, 0.5)
    out = identity_or_resample(Frame(nudged, np.ones((20, 40))), TARGET)
    assert out.resampled


def test_nonnegativity_preserved():
    rng = np.random.default_rng(9)
    src = Frame(SRC, rng.uniform(0, 1e-6, size=(20, 36)))
    out = bilinear_resample(src, GridGeometry(40, 80, 32.0, -160.0, 0.25, 0.25))
    assert (out.values >= 0).all()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_random_points_bounded_by_corners(seed):
    rng = np.random.default_rng(seed)
    src = Frame(SRC, rng.uniform(0, 100, size=(20, 36)))
    lat0 = float(rng.uniform(32.0, 35.0))
    lon0 = float(rng.uniform(-160.0, -150.0))
    target = GridGeometry(5, 5, lat0, lon0, 0.31, 0.37)
    out = bilinear_resample(src, target)
    mask = np.ones(out.values.shape, dtype=bool)
    assert (out.values[mask] <= src.values.max() + 1e-9).all()
    assert (out.values[mask] >= 0).all()


def _nudged_blend(src, target):
    """The blend path on an aligned pair, forced by moving the source origin
    one ulp east (far below the 1e-9 extent tolerance)."""
    sg = src.geometry
    nudged = GridGeometry(sg.nrows, sg.ncols, sg.lat0,
                          float(np.nextafter(sg.lon0, np.inf)), sg.dlat, sg.dlon)
    return bilinear_resample(Frame(nudged, src.values), target)


_SPECIAL_F32 = [0.0, -0.0, float(np.float32(1e-45)), float(np.float32(1.1e-38)),
                1e3]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_aligned_grids_copy_the_overlap(data):
    lat0 = data.draw(st.floats(-60.0, 55.0))
    lon0 = data.draw(st.floats(-179.0, 170.0))
    dlat = data.draw(st.sampled_from([0.1, 0.12, 0.25, 0.5]))
    dlon = data.draw(st.sampled_from([0.1, 0.12, 0.25, 0.5]))
    sn, sm, tn, tm = (data.draw(st.integers(2, 60)) for _ in range(4))
    src_geom = GridGeometry(sn, sm, lat0, lon0, dlat, dlon)
    target = GridGeometry(tn, tm, lat0, lon0, dlat, dlon)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(0, 1e3, size=(sn, sm)).astype(np.float32)
    special = rng.uniform(size=(sn, sm)) < data.draw(st.sampled_from([0, 0.3, 1]))
    values[special] = rng.choice(np.array(_SPECIAL_F32, dtype=np.float32),
                                 size=np.count_nonzero(special))
    src = Frame(src_geom, values)

    out = bilinear_resample(src, target)
    assert out.resampled and out.values.dtype == np.float64
    rows, cols = min(sn, tn), min(sm, tm)
    overlap = out.values[:rows, :cols]
    np.testing.assert_array_equal(overlap, values[:rows, :cols])
    assert not np.signbit(out.values).any()  # no -0.0 anywhere
    outside = np.ones(out.values.shape, dtype=bool)
    outside[:rows, :cols] = False
    assert (out.values[outside] == 0.0).all()

    blend = _nudged_blend(src, target)
    bound = 1e-12 * max(1.0, float(values.max()))
    assert np.max(np.abs(out.values - blend.values)) <= bound


def test_aligned_copy_does_not_leak_a_neighbour_into_a_zero_cell():
    # dlon = 0.1: (lon - lon0)/dlon for column 1 is 1 - 5.7e-14, so the blend
    # took 5.7e-14 of column 0 into column 1
    src_geom = GridGeometry(2, 4, 32.0, -160.0, 0.1, 0.1)
    target = GridGeometry(2, 5, 32.0, -160.0, 0.1, 0.1)
    values = np.zeros((2, 4), dtype=np.float32)
    values[:, 0] = 1e3
    src = Frame(src_geom, values)
    out = bilinear_resample(src, target)
    np.testing.assert_array_equal(out.values[:, 1], 0.0)
    blend = _nudged_blend(src, target)
    assert (blend.values[:, 1].astype(np.float32) > 0).all()


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(2, 5), cols=st.integers(2, 5),
       dy=st.integers(-14, 14), dx=st.integers(-14, 14),
       step=st.sampled_from([0.25, 0.5, 0.7, 1.0]))
def test_covers_any_is_whether_a_resample_blends_a_point(rows, cols, dy, dx,
                                                         step):
    # source origins on and off the target's points, so that a source's
    # extent touches the target only at an edge or a corner, or just misses
    target = GridGeometry(4, 5, 40.0, -120.0, 0.5, 0.5)
    src = GridGeometry(rows, cols, 40.0 + dy * 0.25, -120.0 + dx * 0.25,
                       step, step)
    out = bilinear_resample(Frame(src, np.ones((rows, cols))), target)
    assert covers_any(src, target) == bool(out.values.any())
