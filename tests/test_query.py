import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smokecurate.granule import GridGeometry
from smokecurate.query import (ExtentError, SamplingMode, sample_point,
                               sample_series)
from smokecurate.regrid import blend, corner_weights
from smokecurate.timecal import HOUR

from conftest import SMALL_GEOM, T0, archive_from_frames


@pytest.fixture(scope="module")
def arch(tmp_path_factory):
    rng = np.random.default_rng(12)
    frames = [rng.uniform(0, 60, size=(6, 8)).astype(np.float32)
              for _ in range(6)]
    root = tmp_path_factory.mktemp("query")
    a = archive_from_frames(root, frames)
    a.frames = frames
    return a


def test_mode_parse():
    assert SamplingMode.parse("sw") is SamplingMode.SOUTHWEST_CORNER
    assert SamplingMode.parse("bilinear") is SamplingMode.BILINEAR
    assert SamplingMode.parse("southwest_corner") is SamplingMode.SOUTHWEST_CORNER
    with pytest.raises(ValueError):
        SamplingMode.parse("nearest")


def test_modes_identical_on_grid_nodes(arch):
    g = arch.geometry
    for r in range(g.nrows):
        for c in range(g.ncols):
            lat, lon = g.lat0 + r * g.dlat, g.lon0 + c * g.dlon
            sw = sample_point(arch, T0, lat, lon, SamplingMode.SOUTHWEST_CORNER)
            bi = sample_point(arch, T0, lat, lon, SamplingMode.BILINEAR)
            assert sw == bi == arch.frames[0][r, c]


def test_cell_center_blends_four_corners(tmp_path):
    geom = GridGeometry(2, 2, 40.0, -120.0, 0.5, 0.5)
    frame = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    a = archive_from_frames(tmp_path, [frame], geometry=geom)
    center = sample_point(a, T0, 40.25, -119.75, SamplingMode.BILINEAR)
    assert center == pytest.approx(2.5, abs=1e-12)
    sw = sample_point(a, T0, 40.25, -119.75, SamplingMode.SOUTHWEST_CORNER)
    assert sw == 1.0  # floors to the origin node


def test_sw_rule_floors_in_both_axes(arch):
    # just shy of node (3, 5) in both axes still reads node (2, 4)
    lat = SMALL_GEOM.lat0 + 2.98 * SMALL_GEOM.dlat
    lon = SMALL_GEOM.lon0 + 4.97 * SMALL_GEOM.dlon
    v = sample_point(arch, T0, lat, lon, SamplingMode.SOUTHWEST_CORNER)
    assert v == arch.frames[0][2, 4]


def test_bilinear_bounded_by_cell_corners(arch):
    rng = np.random.default_rng(0)
    f0 = arch.frames[0]
    g = arch.geometry
    for _ in range(200):
        fy = rng.uniform(0, g.nrows - 1)
        fx = rng.uniform(0, g.ncols - 1)
        lat, lon = g.lat0 + fy * g.dlat, g.lon0 + fx * g.dlon
        v = sample_point(arch, T0, lat, lon)
        iy, ix = min(int(fy), g.nrows - 2), min(int(fx), g.ncols - 2)
        cell = f0[iy: iy + 2, ix: ix + 2]
        assert cell.min() - 1e-5 <= v <= cell.max() + 1e-5


def test_bilinear_continuous_across_cell_edge(arch):
    g = arch.geometry
    lon_edge = g.lon0 + 3 * g.dlon
    lat = g.lat0 + 1.3 * g.dlat
    left = sample_point(arch, T0, lat, lon_edge - 1e-9)
    right = sample_point(arch, T0, lat, lon_edge + 1e-9)
    assert abs(left - right) <= 1e-5


def test_out_of_extent_rejected(arch, tmp_path):
    g = arch.geometry
    for lat, lon in [(g.lat0 - 0.01, g.lon0), (g.lat_max + 0.01, g.lon0),
                     (g.lat0, g.lon0 - 0.01), (g.lat0, g.lon_max + 0.01)]:
        with pytest.raises(ExtentError):
            sample_point(arch, T0, lat, lon)
    # the four extent corners themselves are valid
    for lat, lon in [(g.lat0, g.lon0), (g.lat_max, g.lon_max)]:
        sample_point(arch, T0, lat, lon)

    # a grid whose printed lat_max lies 1.4e-14 of a row past its last row,
    # and whose printed lon_max lies 5.7e-14 of a column short of its last
    # column: the extent test is the resample's, so each printed corner is
    # in extent, in both modes, through a point and a one-hour series
    edge = archive_from_frames(
        tmp_path, [np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)],
        geometry=GridGeometry(2, 2, 30.0, -120.0, 0.1, 0.1))
    eg = edge.geometry
    sw, bilinear = SamplingMode.SOUTHWEST_CORNER, SamplingMode.BILINEAR

    def sample(lat, lon, mode):
        v = sample_point(edge, T0, lat, lon, mode)
        assert sample_series(edge, T0, T0, lat, lon, mode).entries == [(T0, v)]
        return v

    for lat, west, east in [(eg.lat0, 1.0, 2.0), (eg.lat_max, 3.0, 4.0)]:
        assert sample(lat, eg.lon0, sw) == west
        assert sample(lat, eg.lon0, bilinear) == west
        # the SW rule floors lon_max's fractional column, 1 - 5.7e-14, to
        # column 0, and the blend gives column 1 to within that weight
        assert sample(lat, eg.lon_max, sw) == west
        assert sample(lat, eg.lon_max, bilinear) == pytest.approx(east,
                                                                  rel=1e-13)
    # a fractional row or column in [-1e-9, 0) reads row or column 0, not
    # the far edge
    assert sample(eg.lat0 - 5e-10 * eg.dlat, eg.lon0, sw) == 1.0
    assert sample(eg.lat0, eg.lon0 - 5e-10 * eg.dlon, sw) == 1.0
    assert sample(eg.lat0 - 5e-10 * eg.dlat, eg.lon0, bilinear) == 1.0
    # 1e-6 of a step past any edge is out of extent
    for lat, lon in [(eg.lat0 - 1e-6 * eg.dlat, eg.lon0),
                     (eg.lat_max + 1e-6 * eg.dlat, eg.lon_max),
                     (eg.lat0, eg.lon0 - 1e-6 * eg.dlon),
                     (eg.lat_max, eg.lon_max + 1e-6 * eg.dlon)]:
        for mode in SamplingMode:
            with pytest.raises(ExtentError):
                sample_point(edge, T0, lat, lon, mode)
            with pytest.raises(ExtentError):
                sample_series(edge, T0, T0, lat, lon, mode)


def test_series_covers_every_hour(arch):
    res = sample_series(arch, T0, T0 + timedelta(hours=5), 41.1, -118.3)
    assert len(res.entries) == 6
    assert not res.gaps
    times = [t for t, _ in res.entries]
    assert times == sorted(times)
    for t, v in res.entries:
        assert v == sample_point(arch, t, 41.1, -118.3)


def test_series_reports_gap_hours(tmp_path):
    from test_archive import gapped_archive

    a = gapped_archive(tmp_path)
    res = sample_series(a, T0, T0 + timedelta(hours=5), 41.0, -118.0)
    assert res.gaps == [T0 + timedelta(hours=3)]
    assert len(res.entries) == 5


def test_series_never_walks_to_a_gaps_neighbors(tmp_path, monkeypatch):
    from test_archive import gapped_archive

    from smokecurate.archive import CuratedArchive

    a = gapped_archive(tmp_path)

    def no_walk(self, t):
        raise AssertionError(f"walked to the neighbours of {t}")

    monkeypatch.setattr(CuratedArchive, "_neighbors", no_walk)
    res = sample_series(a, T0, T0 + timedelta(hours=5), 41.0, -118.0)
    assert res.gaps == [T0 + timedelta(hours=3)]


def test_bilinear_constant_field_is_exact_to_float64(tmp_path):
    """The blend runs in float64: a constant field samples to its value
    within float64 roundoff at any point, not float32's."""
    value = float(np.float32(7.3))
    a = archive_from_frames(tmp_path, [np.full((6, 8), value, np.float32)])
    g = a.geometry
    rng = np.random.default_rng(3)
    # Python floats, as the CLI passes them: a numpy float64 coordinate
    # would lift a float32 blend to float64 by itself
    points = rng.uniform((0, 0), (g.nrows - 1, g.ncols - 1), (500, 2))
    for fy, fx in points.tolist():
        v = sample_point(a, T0, g.lat0 + fy * g.dlat, g.lon0 + fx * g.dlon)
        assert abs(v - value) <= 1e-12 * value


def test_week_long_series(tmp_path):
    frames = [np.full((6, 8), float(k), dtype=np.float32)
              for k in range(168)]
    a = archive_from_frames(tmp_path, frames)
    res = sample_series(a, T0, T0 + timedelta(hours=167), 41.0, -118.0)
    assert len(res.entries) == 168
    assert [v for _, v in res.entries] == [float(k) for k in range(168)]


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 5), st.floats(0, 7))
def test_bilinear_nonnegative_everywhere(arch, fy, fx):
    geom = arch.geometry
    lat = geom.lat0 + fy * geom.dlat
    lon = geom.lon0 + fx * geom.dlon
    assert sample_point(arch, T0, lat, lon) >= 0.0


def per_hour_sample_point(archive, t, lat, lon, mode):
    """`sample_point` as it was when each hour computed its own fractional
    index and weights, kept as a golden copy."""
    g = archive.geometry
    fy, fx = (lat - g.lat0) / g.dlat, (lon - g.lon0) / g.dlon
    v = archive.read_frame(t, level=0)[0].values
    if mode is SamplingMode.SOUTHWEST_CORNER:
        return float(v[int(math.floor(fy)), int(math.floor(fx))])
    iy, wy = corner_weights(fy, v.shape[0])
    ix, wx = corner_weights(fx, v.shape[1])
    return float(blend(wy, wx, *map(float, v[iy:iy + 2, ix:ix + 2].flat)))


def coordinate(origin, step, n, top):
    """A coordinate along an axis of `n` points: an edge, a grid line, or
    anywhere between the edges."""
    return st.one_of(st.sampled_from([origin, top]),
                     st.integers(0, n - 1).map(lambda k: origin + k * step),
                     st.floats(0, n - 1).map(lambda f: origin + f * step))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), mode=st.sampled_from(list(SamplingMode)))
def test_series_samples_are_the_per_hour_samples_bit_for_bit(arch, data, mode):
    """A series computes its point's rule once; each hour's sample is the
    one the per-hour rule gives, bit for bit, in both modes, at the grid's
    edges, its lines and its in-extent corners."""
    g = arch.geometry
    lat = data.draw(coordinate(g.lat0, g.dlat, g.nrows, g.lat_max), "lat")
    lon = data.draw(coordinate(g.lon0, g.dlon, g.ncols, g.lon_max), "lon")
    try:
        series = sample_series(arch, T0, T0 + 5 * HOUR, lat, lon, mode)
    except ExtentError:  # a float step past the edge
        with pytest.raises(ExtentError):
            sample_point(arch, T0, lat, lon, mode)
        return
    expect = [per_hour_sample_point(arch, T0 + k * HOUR, lat, lon, mode).hex()
              for k in range(6)]
    assert [v.hex() for _, v in series.entries] == expect
    assert [sample_point(arch, t, lat, lon, mode).hex()
            for t, _ in series.entries] == expect
