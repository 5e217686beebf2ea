import hashlib
import os
from collections import Counter
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smokecurate.archive import (PROVENANCE_COLUMNS, ArchiveError,
                                 BuildError, CuratedArchive, GapError,
                                 box_downsample, build_archive,
                                 level_geometry, level_shape)
from smokecurate.corpusgen import (DESK_DRIFT_GEOMETRY, DESK_GEOMETRY,
                                   CorpusSpec, FaultProfile, generate_corpus)
from smokecurate.granule import (GridGeometry, granule_to_bytes, make_granule,
                                 parse_granule, read_header_bytes)
from smokecurate.indexer import build_coverage, scan_cache
from smokecurate.regrid import Frame, identity_or_resample
from smokecurate.sequencer import plan_sequence
from smokecurate.timecal import HOUR, UTC, JulianStamp, calendar_to_julian

from conftest import SMALL_GEOM, T0, archive_from_frames


def random_frames(n, geometry=SMALL_GEOM, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 40, size=(geometry.nrows, geometry.ncols))
            .astype(np.float32) for _ in range(n)]


def oracle_box_average(values):
    """Independent 2x2 box average: explicit loops, partial edge cells."""
    rows, cols = values.shape
    out = np.zeros(((rows + 1) // 2, (cols + 1) // 2))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            block = values[2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
            out[i, j] = np.mean(np.asarray(block, dtype=np.float64))
    return out


def test_level_shapes_ceil_halving():
    assert level_shape(SMALL_GEOM, 0) == (6, 8)
    assert level_shape(SMALL_GEOM, 1) == (3, 4)
    assert level_shape(SMALL_GEOM, 2) == (2, 2)
    g1 = level_geometry(SMALL_GEOM, 1)
    assert (g1.dlat, g1.dlon) == (1.0, 1.0)
    assert (g1.lat0, g1.lon0) == (SMALL_GEOM.lat0, SMALL_GEOM.lon0)


def test_round_trip_level0_bit_identical(tmp_path):
    frames = random_frames(5)
    arch = archive_from_frames(tmp_path, frames)
    for k, expect in enumerate(frames):
        frame, _ = arch.read_frame(T0 + timedelta(hours=k))
        np.testing.assert_array_equal(frame.values, expect)
        assert frame.values.dtype == np.float32


def test_constant_field_collapses_exactly(tmp_path):
    geom = GridGeometry(4, 4, 40.0, -120.0, 0.5, 0.5)
    frames = [np.full((4, 4), 7.0, dtype=np.float32)]
    arch = archive_from_frames(tmp_path, frames, geometry=geom, levels=2)
    frame, _ = arch.read_frame(T0, level=1)
    assert frame.values.shape == (2, 2)
    np.testing.assert_array_equal(frame.values, 7.0)


def test_pyramid_matches_independent_oracle(tmp_path):
    frames = random_frames(3, seed=4)
    arch = archive_from_frames(tmp_path, frames, levels=3)
    for k, f in enumerate(frames):
        t = T0 + timedelta(hours=k)
        expect = f.astype(np.float64)
        for lv in (1, 2):
            expect = oracle_box_average(expect.astype(np.float32))
            got, _ = arch.read_frame(t, level=lv)
            err = np.max(np.abs(got.values.astype(np.float64) -
                                expect.astype(np.float32)))
            assert err <= 1e-12


def test_box_downsample_edge_partial_cells():
    v = np.array([[1.0, 2.0, 3.0],
                  [4.0, 5.0, 6.0],
                  [7.0, 8.0, 9.0]])
    out = box_downsample(v)
    np.testing.assert_allclose(out, oracle_box_average(v), atol=1e-15)
    assert out[1, 1] == 9.0  # single corner cell averages only itself


def pairwise_box_oracle(values):
    """Per-block 2x2 average in Python floats: ((a+b)+(c+d))/4 for a whole
    block [[a, b], [c, d]], (a+b)/2 for an edge pair, the corner copied."""
    rows, cols = values.shape
    out = np.empty(((rows + 1) // 2, (cols + 1) // 2))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            block = [[float(x) for x in row]
                     for row in values[2 * i: 2 * i + 2, 2 * j: 2 * j + 2]]
            if len(block) == 2 and len(block[0]) == 2:
                (a, b), (c, d) = block
                out[i, j] = ((a + b) + (c + d)) / 4
            elif len(block) == 2:
                out[i, j] = (block[0][0] + block[1][0]) / 2
            elif len(block[0]) == 2:
                out[i, j] = (block[0][0] + block[0][1]) / 2
            else:
                out[i, j] = block[0][0]
    return out


def wide_range_frame(shape, seed, zero_fraction=0.1):
    """float32 values log-uniform over 1e-30..1e3, with some exact zeros."""
    rng = np.random.default_rng(seed)
    values = (10.0 ** rng.uniform(-30, 3, size=shape)).astype(np.float32)
    values[rng.random(shape) < zero_fraction] = 0
    return values


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1), zero_fraction=st.sampled_from([0, 0.1, 1]))
def test_box_downsample_matches_pairwise_oracle_bit_for_bit(rows, cols, seed,
                                                            zero_fraction):
    values = wide_range_frame((rows, cols), seed, zero_fraction)
    out = box_downsample(values)
    assert out.dtype == np.float64
    assert out.tobytes() == pairwise_box_oracle(values).tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (20, 40)])
def test_box_downsample_order_is_independent_of_size(shape):
    # sequential a+b+c+d rounds this block to exactly 0.25 in float32; the
    # pairwise (a+b)+(c+d) order rounds it up by one ulp at every size
    values = np.zeros(shape, dtype=np.float32)
    values[:2, :2] = [[1, 2**-24], [3 * 2**-55, 3 * 2**-55]]
    got = box_downsample(values).astype(np.float32)[0, 0]
    assert got == np.nextafter(np.float32(0.25), np.float32(1))
    assert str(got) == "0.25000003"


def reshape_box_downsample(values):
    """The earlier pad-and-reshape implementation, kept as a golden copy."""
    v = np.asarray(values, dtype=np.float64)
    rows, cols = v.shape
    pr, pc = rows % 2, cols % 2
    if pr or pc:
        v = np.pad(v, ((0, pr), (0, pc)), mode="edge") * 1.0
        counts = np.pad(np.ones((rows, cols)), ((0, pr), (0, pc)),
                        mode="constant")
        num = (v * counts).reshape(v.shape[0] // 2, 2, v.shape[1] // 2,
                                   2).sum(axis=(1, 3))
        den = counts.reshape(v.shape[0] // 2, 2, v.shape[1] // 2,
                             2).sum(axis=(1, 3))
        return num / den
    return v.reshape(rows // 2, 2, cols // 2, 2).mean(axis=(1, 3))


@pytest.mark.parametrize("shape", [(20, 40), (20, 36), (381, 1081),
                                   (381, 1041), (10, 20), (10, 18),
                                   (191, 541), (191, 521)])
def test_box_downsample_equals_reshape_golden_copy(shape):
    for seed in range(3):
        values = wide_range_frame(shape, seed)
        assert (box_downsample(values).tobytes()
                == reshape_box_downsample(values).tobytes())


def test_pyramid_chunks_equal_downsampled_level_below(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 3),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=24, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 3), seed=9)
    generate_corpus(spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    arch = build_archive(plan, DESK_GEOMETRY, tmp_path / "a", levels=3)

    def chunk(level, t):
        name = f"{int((t - arch.start) / timedelta(hours=1)):08}.bin"
        return (arch.root / level / name).read_bytes()

    granules = {}
    resampled = 0
    for t, pick in plan.picks.items():
        if pick.path not in granules:
            with open(pick.path, "rb") as f:
                granules[pick.path] = parse_granule(f)
        granule = granules[pick.path]
        source = granule.pm25[pick.frame_index]
        if arch.provenance[t].resampled:
            resampled += 1
            assert chunk("originals", t) == source.astype("<f4").tobytes()
            src = Frame(granule.header.geometry, source)
            expect = identity_or_resample(src, DESK_GEOMETRY).values
            assert chunk("L0", t) == expect.astype("<f4").tobytes()
        else:
            assert chunk("L0", t) == source.astype("<f4").tobytes()
        for lv in (1, 2):
            below, _ = arch.read_frame(t, level=lv - 1)
            expect = box_downsample(below.values).astype("<f4")
            assert chunk(f"L{lv}", t) == expect.tobytes()
    assert 0 < resampled < len(plan.picks)


def test_provenance_preserves_original_stamps(tmp_path):
    arch = archive_from_frames(tmp_path, random_frames(2))
    row = arch.provenance[T0 + timedelta(hours=1)]
    assert row.forecast_id == "BSC00CA12-01"
    assert (row.sdate, row.stime) == (2022061, 0)        # smoke init T0
    assert (row.cdate, row.ctime) == (2022061, 10000)    # created T0+1h
    assert (row.wdate, row.wtime) == (2022060, 180000)   # weather T0-6h
    assert row.wrf_arw_init_time == "2022-03-01T18:00:00Z"
    assert not row.resampled
    header = (tmp_path / "arch_single" / "provenance.csv") \
        .read_text().splitlines()[0]
    assert header == ",".join(PROVENANCE_COLUMNS)


def test_drift_frames_marked_and_originals_kept(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 4),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=24, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 4), seed=6)
    generate_corpus(spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    arch = build_archive(plan, DESK_GEOMETRY, tmp_path / "a", levels=1)
    assert arch.has_originals
    cutoff = datetime(2022, 3, 4, 0, tzinfo=UTC)
    for t, row in arch.provenance.items():
        frame, _ = arch.read_frame(t)
        assert row.resampled == (t < cutoff)
        assert frame.resampled == row.resampled
        original = arch.read_original(t)
        if row.resampled:
            assert original is not None
            assert original.size == DESK_DRIFT_GEOMETRY.nrows * \
                DESK_DRIFT_GEOMETRY.ncols
        else:
            assert original is None


def test_provenance_and_manifest_bytes_are_pinned(tmp_path):
    # a faulty, drifting desk corpus: html, missing and truncated runs, gaps
    # and resampled frames; neither file holds a computed float, so the
    # digests do not depend on the platform
    spec = CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=12, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 4),
                      fault_profile=FaultProfile(0.1, 0.15, 0.25), seed=23)
    manifest = generate_corpus(spec, tmp_path / "c")
    assert {e.outcome for e in manifest.entries} == \
        {"ok", "missing", "html", "truncated"}
    index = build_coverage(scan_cache(tmp_path / "c"))
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    assert (len(plan.picks), len(plan.gaps)) == (60, 30)
    arch = build_archive(plan, DESK_GEOMETRY, tmp_path / "a", levels=2)
    assert sum(r.resampled for r in arch.provenance.values()) == 30
    digest = {name: hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
              for name in ("provenance.csv", "manifest.json")}
    assert digest == {
        "provenance.csv":
            "f92fda61590c33393501793ef3305167e76d183dbc3fe22e678c13de06eb6a93",
        "manifest.json":
            "533318df3e4e463102890273c8c55a168ccc5eeec65670e23b7727ba541391c2"}


def gapped_archive(tmp_path, levels=1):
    cache = tmp_path / "cache_gap"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    for name, init, n in (("dispersion_20220302.gran", T0, 3),
                          ("dispersion_20220303.gran",
                           T0 + timedelta(hours=4), 2)):
        g = make_granule("BSC00CA12-01", created=init + timedelta(hours=1),
                         weather_init=init - timedelta(hours=6),
                         smoke_init=init, geometry=SMALL_GEOM,
                         frames=random_frames(n, seed=n))
        (cache / "BSC00CA12-01" / name).write_bytes(granule_to_bytes(g))
    index = build_coverage(scan_cache(cache))
    plan = plan_sequence(index, T0, T0 + timedelta(hours=5))
    return build_archive(plan, SMALL_GEOM, tmp_path / "arch_gap", levels=levels)


def test_gap_raises_with_nearest_neighbors(tmp_path):
    arch = gapped_archive(tmp_path)
    gap = T0 + timedelta(hours=3)
    assert arch.gaps == {gap}
    with pytest.raises(GapError) as err:
        arch.read_frame(gap)
    assert err.value.nearest_before == T0 + timedelta(hours=2)
    assert err.value.nearest_after == T0 + timedelta(hours=4)


def test_window_reports_gaps_and_skips_them(tmp_path):
    arch = gapped_archive(tmp_path)
    win = arch.read_window(T0, T0 + timedelta(hours=5),
                           bbox=(40.0, 43.0, -120.0, -116.0))
    assert win.gaps == [T0 + timedelta(hours=3)]
    assert len(win.times) == 5
    assert win.values.shape == (5, 6, 8)


def test_window_full_extent_equals_read_frame(tmp_path):
    frames = random_frames(4, seed=2)
    arch = archive_from_frames(tmp_path, frames)
    win = arch.read_window(T0, T0 + timedelta(hours=3),
                           bbox=(-90.0, 90.0, -180.0, 180.0))
    for i, t in enumerate(win.times):
        frame, _ = arch.read_frame(t)
        np.testing.assert_array_equal(win.values[i], frame.values)


def test_window_single_cell_bbox(tmp_path):
    frames = random_frames(2, seed=3)
    arch = archive_from_frames(tmp_path, frames)
    # bbox tight around grid node (row 2, col 3) = (41.0, -118.5)
    win = arch.read_window(T0, T0 + timedelta(hours=1),
                           bbox=(40.9, 41.1, -118.6, -118.4))
    assert win.values.shape == (2, 1, 1)
    assert win.latitudes.tolist() == [41.0]
    assert win.longitudes.tolist() == [-118.5]
    assert win.values[0, 0, 0] == frames[0][2, 3]


def test_window_empty_bbox_rejected(tmp_path):
    arch = archive_from_frames(tmp_path, random_frames(1))
    with pytest.raises(Exception, match="no grid points"):
        arch.read_window(T0, T0, bbox=(0.0, 1.0, 0.0, 1.0))


def test_read_cost_independent_of_archive_length(tmp_path):
    (tmp_path / "s").mkdir()
    (tmp_path / "l").mkdir()
    short = archive_from_frames(tmp_path / "s", random_frames(6, seed=7))
    long = archive_from_frames(tmp_path / "l", random_frames(48, seed=8))
    short.read_frame(T0 + timedelta(hours=2))
    long.read_frame(T0 + timedelta(hours=2))
    assert short.bytes_read == long.bytes_read > 0


def test_manifest_contents(tmp_path):
    import json
    arch = gapped_archive(tmp_path, levels=2)
    manifest = json.loads((arch.root / "manifest.json").read_text())
    assert manifest["format_version"] == 1
    assert manifest["levels"] == 2
    assert manifest["start"] == "2022-03-02T00:00:00Z"
    assert manifest["end"] == "2022-03-02T05:00:00Z"
    assert manifest["gaps"] == ["2022-03-02T03:00:00Z"]
    assert manifest["geometry"]["nrows"] == 6
    reopened = CuratedArchive.open(arch.root)
    assert reopened.geometry == SMALL_GEOM
    assert reopened.levels == 2


def test_mismatched_frame_index_aborts_build(tmp_path):
    cache = tmp_path / "cache_bad"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    g = make_granule("BSC00CA12-01", created=T0 + timedelta(hours=1),
                     weather_init=T0 - timedelta(hours=6), smoke_init=T0,
                     geometry=SMALL_GEOM, frames=random_frames(3, seed=1))
    (cache / "BSC00CA12-01" / "dispersion_20220302.gran").write_bytes(
        granule_to_bytes(g))
    plan = plan_sequence(build_coverage(scan_cache(cache)), T0,
                         T0 + timedelta(hours=2))
    pick = plan.picks[T0]
    object.__setattr__(pick, "frame_index", 2)  # point at the wrong frame
    with pytest.raises(BuildError, match="tflag"):
        build_archive(plan, SMALL_GEOM, tmp_path / "arch_bad")


def test_truncated_chunk_raises_archive_error(tmp_path):
    arch = archive_from_frames(tmp_path, random_frames(3))
    chunk = arch.root / "L0" / "00000001.bin"
    chunk.write_bytes(chunk.read_bytes()[:100])
    arch.read_frame(T0)  # neighbouring chunks are unaffected
    with pytest.raises(ArchiveError) as err:
        arch.read_frame(T0 + timedelta(hours=1))
    assert str(chunk) in str(err.value)
    assert "100 bytes" in str(err.value)
    assert f"expected {6 * 8 * 4}" in str(err.value)
    missing = arch.root / "L0" / "00000002.bin"
    missing.unlink()
    with pytest.raises(ArchiveError, match=str(missing)):
        arch.read_frame(T0 + timedelta(hours=2))


def test_wrong_size_original_raises_archive_error(tmp_path):
    arch = archive_from_frames(tmp_path, random_frames(1))
    original = arch.root / "originals" / "00000000.bin"
    original.parent.mkdir()
    original.write_bytes(b"\0" * 13)
    with pytest.raises(ArchiveError, match="13 bytes"):
        arch.read_original(T0)


def cached_granule(tmp_path, frames, geometry=SMALL_GEOM):
    """One granule in a fresh cache; returns its path."""
    g = make_granule("BSC00CA12-01", created=T0 + timedelta(hours=1),
                     weather_init=T0 - timedelta(hours=6), smoke_init=T0,
                     geometry=geometry, frames=frames)
    path = tmp_path / "BSC00CA12-01" / "dispersion_20220302.gran"
    path.parent.mkdir(parents=True)
    path.write_bytes(granule_to_bytes(g))
    return path


def poke_value(path, frame, cell, value):
    """Overwrite one payload value in place; returns its byte offset."""
    data = bytearray(path.read_bytes())
    h = read_header_bytes(bytes(data))
    geom = h.geometry
    offset = h.header_bytes + 4 * (frame * geom.nrows * geom.ncols + cell)
    data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    return offset


def plan_hours(cache, hours):
    return plan_sequence(build_coverage(scan_cache(cache)), T0,
                         T0 + timedelta(hours=hours - 1))


@pytest.mark.parametrize("bad", [np.nan, -2.0])
def test_bad_value_in_picked_frame_aborts_build(tmp_path, bad):
    path = cached_granule(tmp_path / "cache", random_frames(4, seed=5))
    offset = poke_value(path, frame=1, cell=9, value=bad)
    plan = plan_hours(tmp_path / "cache", 2)  # frames 0 and 1 are picked
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    message = str(err.value)
    assert "timestep 2022-03-02T01:00:00Z" in message
    assert str(path) in message
    assert f"at byte {offset}" in message
    assert not (tmp_path / "arch" / "manifest.json").exists()


def test_bad_value_in_unpicked_frame_builds_identical_archive(tmp_path):
    frames = random_frames(4, seed=5)
    cached_granule(tmp_path / "clean", frames)
    dirty = cached_granule(tmp_path / "dirty", frames)
    poke_value(dirty, frame=3, cell=0, value=np.nan)
    for name in ("clean", "dirty"):
        build_archive(plan_hours(tmp_path / name, 3), SMALL_GEOM,
                      tmp_path / f"arch_{name}", levels=2)

    def contents(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    clean = contents(tmp_path / "arch_clean")
    assert len(clean) == 1 + 1 + 2 * 3  # manifest, provenance, 2 levels x 3 h
    assert contents(tmp_path / "arch_dirty") == clean


def test_truncated_picked_granule_aborts_build(tmp_path):
    path = cached_granule(tmp_path / "cache", random_frames(4, seed=5))
    plan = plan_hours(tmp_path / "cache", 2)  # the scan reads headers only
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert "timestep 2022-03-02T00:00:00Z" in str(err.value)
    assert str(path) in str(err.value)


def test_missing_picked_granule_aborts_build(tmp_path):
    path = cached_granule(tmp_path / "cache", random_frames(4, seed=5))
    plan = plan_hours(tmp_path / "cache", 2)
    path.unlink()  # the granule left the cache after planning
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert "timestep 2022-03-02T00:00:00Z" in str(err.value)
    assert str(path) in str(err.value)
    assert isinstance(err.value.__cause__, FileNotFoundError)
    assert not (tmp_path / "arch" / "manifest.json").exists()


def test_frame_times_come_from_the_header_read(tmp_path, monkeypatch):
    # frame times come from the header's first frame: coverage decodes no
    # stamp, and the build decodes each tflag stamp once in its header read
    # and once more when CuratedArchive.open reads the provenance rows back
    cached_granule(tmp_path / "cache", random_frames(6, seed=5))
    records = scan_cache(tmp_path / "cache")
    tflag = [calendar_to_julian(T0 + i * HOUR) for i in range(6)]
    calls = []
    original = JulianStamp.validate
    monkeypatch.setattr(JulianStamp, "validate",
                        lambda self: calls.append(self) or original(self))
    plan = plan_sequence(build_coverage(records), T0, T0 + timedelta(hours=5))
    assert calls == []
    arch = build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert [JulianStamp(r.tflag_date, r.tflag_time)
            for r in arch.provenance.values()] == tflag
    # tflag[0] and tflag[1] are also the smoke init and creation stamps,
    # which the header read validates once more
    counts = Counter(calls)
    assert [counts[stamp] for stamp in tflag] == [3, 3] + [2] * 4


def read_chars():
    with open("/proc/self/io") as f:
        return int(next(line for line in f if line.startswith("rchar:"))
                   .split()[1])


@pytest.mark.skipif(not os.path.exists("/proc/self/io"),
                    reason="needs Linux /proc/self/io")
def test_build_reads_only_picked_frames(tmp_path):
    geom = GridGeometry(64, 64, 30.0, -120.0, 0.25, 0.25)
    path = cached_granule(tmp_path / "cache", random_frames(40, geom), geom)
    plan = plan_hours(tmp_path / "cache", 4)
    assert len(plan.picks) / 40 < 0.25
    before = read_chars()
    build_archive(plan, geom, tmp_path / "arch")
    assert read_chars() - before < path.stat().st_size / 2
