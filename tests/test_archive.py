import csv
import hashlib
import json
import os
import re
import shutil
import threading
import time
import tracemalloc
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smokecurate import archive, granule
from smokecurate.archive import (PROVENANCE_COLUMNS, ArchiveError,
                                 BuildError, CuratedArchive, GapError,
                                 ProvenanceRow, box_downsample, build_archive,
                                 level_geometry, level_shape)
from smokecurate.corpusgen import (DESK_DRIFT_GEOMETRY, DESK_GEOMETRY,
                                   CorpusSpec, FaultProfile, generate_corpus)
from smokecurate.granule import (FrameReader, GridGeometry, make_granule,
                                 parse_granule, read_header_bytes)
from smokecurate.indexer import PlannedFrame, build_coverage, scan_cache
from smokecurate.regrid import Frame, identity_or_resample
from smokecurate.sequencer import SequencePlan, plan_sequence
from smokecurate.tables import read_table, write_table
from smokecurate.timecal import (HOUR, UTC, JulianStamp, calendar_to_julian,
                                 format_iso_z, hour_range, julian_to_calendar)

from conftest import (SMALL_GEOM, T0, archive_from_frames, count_reads,
                      granule_to_bytes, pool_of)

# on the canonical SMALL_GEOM's origin and spacing, one row and column short
DRIFT_GEOM = GridGeometry(nrows=5, ncols=7, lat0=40.0, lon0=-120.0,
                          dlat=0.5, dlon=0.5)


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


def test_level0_read_builds_no_geometry(tmp_path, monkeypatch):
    """A level-0 frame's geometry is the archive's own; only a derived level
    computes one."""
    arch = archive_from_frames(tmp_path, random_frames(2))
    built = []
    monkeypatch.setattr(archive, "level_geometry",
                        lambda geom, level: built.append(level)
                        or level_geometry(geom, level))
    frame, _ = arch.read_frame(T0)
    assert frame.geometry is arch.geometry and built == []
    frame, _ = arch.read_frame(T0, level=1)
    assert frame.geometry == level_geometry(SMALL_GEOM, 1) and built == [1]


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

    def chunk(directory, t, earlier, shape):
        """Hour t's frame in its day's shard, after the day's `earlier`
        frames of `shape` (gap hours and unresampled originals take none)."""
        size = 4 * shape[0] * shape[1]
        data = (arch.root / directory / f"{t:%Y%m%d}.bin").read_bytes()
        return data[earlier * size:(earlier + 1) * size]

    def earlier(hours, t):
        return sum(s.date() == t.date() and s < t for s in hours)

    drifted = [s for s, row in arch.provenance.items() if row.resampled]
    drift_shape = (DESK_DRIFT_GEOMETRY.nrows, DESK_DRIFT_GEOMETRY.ncols)

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
            assert chunk("originals", t, earlier(drifted, t), drift_shape) \
                == source.astype("<f4").tobytes()
            src = Frame(granule.header.geometry, source)
            expect = identity_or_resample(src, DESK_GEOMETRY).values
        else:
            expect = source
        slot = earlier(plan.picks, t)
        assert chunk("L0", t, slot, level_shape(DESK_GEOMETRY, 0)) == \
            expect.astype("<f4").tobytes()
        for lv in (1, 2):
            below, _ = arch.read_frame(t, level=lv - 1)
            frame, _ = arch.read_frame(t, level=lv)
            expect = box_downsample(below.values).astype("<f4")
            assert frame.geometry == level_geometry(DESK_GEOMETRY, lv)
            assert frame.values.dtype == expect.dtype
            assert frame.values.tobytes() == expect.tobytes()
    assert 0 < resampled < len(plan.picks)
    # only level 0 is stored; levels 1 and 2 are derived on read
    assert not (arch.root / "L1").exists()
    assert not (arch.root / "L2").exists()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_day_shards_read_back_every_hour(tmp_path_factory, data):
    """A random range over 1-3 UTC days, with gaps at the start or end of a
    day and a whole missing day, some drift frames and 1-3 levels: every
    stored hour reads back its picked frame (resampled, then box-averaged
    level by level), every gap hour raises GapError, and each read, at any
    level, adds exactly one level-0 frame to the bytes read."""
    start = T0 + data.draw(st.integers(0, 23), label="start hour") * HOUR
    ndays = data.draw(st.integers(1, 3), label="days")
    end = T0 + (ndays - 1) * 24 * HOUR + data.draw(
        st.integers(start.hour if ndays == 1 else 0, 23), label="end hour") * HOUR
    levels = data.draw(st.integers(1, 3), label="levels")
    days = [T0 + k * 24 * HOUR for k in range(ndays)]
    missing = data.draw(st.sampled_from([None, *days]), label="missing day")
    head = {d: data.draw(st.integers(0, 3)) for d in days}
    tail = {d: data.draw(st.integers(0, 3)) for d in days}

    def is_gap(t):
        day = t - t.hour * HOUR
        return day == missing or t.hour < head[day] or t.hour >= 24 - tail[day]

    hours = hour_range(start, end)
    gaps = [t for t in hours if is_gap(t)]
    stored = [t for t in hours if t not in gaps]
    drifted = data.draw(st.sets(st.sampled_from(stored)) if stored
                        else st.just(set()), label="drift hours")

    # one canonical and one drift granule per day, each holding its 24 hours
    root = tmp_path_factory.mktemp("shards")
    granules = {}
    for k, day in enumerate(days):
        for seed, geom in enumerate((SMALL_GEOM, DRIFT_GEOM), start=2 * k):
            frames = random_frames(24, geom, seed=seed)
            g = make_granule("BSC00CA12-01", created=day, weather_init=day,
                             smoke_init=day, geometry=geom, frames=frames)
            path = root / f"{geom.nrows}x{geom.ncols}_{k}.gran"
            path.write_bytes(granule_to_bytes(g))
            granules[day.date(), geom] = path, frames
    picks = {}
    for t in stored:
        geom = DRIFT_GEOM if t in drifted else SMALL_GEOM
        path, _ = granules[t.date(), geom]
        picks[t] = PlannedFrame(path, "BSC00CA12-01", t.hour,
                                t - t.hour * HOUR)
    plan = SequencePlan(start, end, picks, gaps)
    arch = build_archive(plan, SMALL_GEOM, root / "arch", levels=levels)
    assert not (root / ".arch.building").exists()
    assert sorted(p.name for p in (arch.root / "L0").glob("*")) == \
        sorted({f"{t:%Y%m%d}{ext}" for t in stored for ext in (".bin", ".csv")})
    assert not list(arch.root.glob("L[1-9]*"))

    with count_reads() as reads:
        for t in hours:
            before = reads.total()
            if t in gaps:
                for lv in range(levels):
                    with pytest.raises(GapError):
                        arch.read_frame(t, lv)
                assert arch.read_original(t) is None
                assert reads.total() == before
                continue
            geom = DRIFT_GEOM if t in drifted else SMALL_GEOM
            source = granules[t.date(), geom][1][t.hour]
            expect = np.asarray(identity_or_resample(Frame(geom, source),
                                                     SMALL_GEOM).values, "<f4")
            level0_bytes = expect.size * 4
            for lv in range(levels):
                frame, _ = arch.read_frame(t, lv)
                assert frame.values.tobytes() == expect.tobytes()
                assert reads.total() - before == level0_bytes
                before = reads.total()
                expect = box_downsample(expect).astype("<f4")
            original = arch.read_original(t)
            if t in drifted:
                assert original.tobytes() == source.tobytes()
                assert reads.total() - before == source.size * 4
            else:
                assert original is None


def test_provenance_preserves_original_stamps(tmp_path):
    arch = archive_from_frames(tmp_path, random_frames(2))
    row = arch.provenance[T0 + timedelta(hours=1)]
    assert row.forecast_id == "BSC00CA12-01"
    assert row.smoke_init == T0
    assert row.created == T0 + HOUR
    assert row.weather_init == T0 - 6 * HOUR
    assert {t.tzinfo for t in (row.smoke_init, row.created,
                               row.weather_init)} == {UTC}
    assert not row.resampled
    # the stamps stay integers in the day index: tflag, creation, weather,
    # smoke
    header, _, line = (tmp_path / "arch_single" / "L0" / "20220302.csv") \
        .read_text().splitlines()
    assert header == ",".join(PROVENANCE_COLUMNS)
    assert line == ("2022061,10000,2022061,10000,2022060,180000,2022061,0,"
                    "BSC00CA12-01,false,2022-03-01T18:00:00Z")


def test_archive_of_year_500_opens(tmp_path):
    start = datetime(500, 3, 2, tzinfo=UTC)
    frames = random_frames(2)
    arch = archive_from_frames(tmp_path, frames, start=start)
    manifest = json.loads((tmp_path / "arch_single" / "manifest.json")
                          .read_text())
    assert (manifest["start"], manifest["end"]) == ("0500-03-02T00:00:00Z",
                                                    "0500-03-02T01:00:00Z")
    np.testing.assert_array_equal(arch.read_frame(start + HOUR)[0].values,
                                  frames[1])
    assert arch.provenance[start].weather_init == start - 6 * HOUR


second_times = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
                            timezones=st.just(UTC)).map(
    lambda t: t.replace(microsecond=0))


@settings(max_examples=200, deadline=None)
@given(t=second_times, created=second_times, weather_init=second_times,
       smoke_init=second_times,
       forecast_id=st.text(st.characters(min_codepoint=32, max_codepoint=126)),
       resampled=st.booleans())
def test_provenance_cells_read_back_as_written(tmp_path_factory, t, created,
                                               weather_init, smoke_init,
                                               forecast_id, resampled):
    """The tflag stamp decoded and `_provenance_row` are the inverse of
    `_provenance_cells` through the one table format, for any
    second-resolution UTC times of years 1-9999 and any printable ASCII
    forecast id, commas and quotes too."""
    row = ProvenanceRow(forecast_id, created, weather_init, smoke_init,
                        resampled)
    path = tmp_path_factory.mktemp("prov") / "provenance.csv"
    write_table(path, PROVENANCE_COLUMNS, [archive._provenance_cells(t, row)])
    assert read_table(path, PROVENANCE_COLUMNS, lambda cells: (
        julian_to_calendar(JulianStamp(int(cells["tflag_date"]),
                                       int(cells["tflag_time"]))),
        archive._provenance_row(cells))) == [(t, row)]


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
    assert json.loads((arch.root / "manifest.json").read_text())["originals"]
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
    indexes = sorted((tmp_path / "a" / "L0").glob("*.csv"))
    digest = {str(p.relative_to(tmp_path / "a")):
              hashlib.sha256(p.read_bytes()).hexdigest()
              for p in [tmp_path / "a" / "manifest.json", *indexes]}
    assert digest == {
        "manifest.json":
            "c4cec1786b9b9af2c485d9fd660218d1bad0a8b3caaf846ad687589d63c1c831",
        "L0/20220302.csv":
            "2609ad6fef331c5cb59077a31efb4e0939c09831bb7c08214779cabe8427f8c6",
        "L0/20220303.csv":
            "f1fca264ef2720fdb1585d4defbb9441c505c073e7ecd868c79a72015a6015cb",
        "L0/20220304.csv":
            "2051782718920b71d93a787687acb938465e94e796db72d7b8aadae9322d5687",
        "L0/20220305.csv":
            "cd00026421bc94460874a3b4371f707dac8bad011a08232e960bc8ff3ff15d5b"}
    # the day indexes' rows, joined in day order under one header, are the
    # bytes of the single provenance.csv that format 2 wrote
    header, *_ = indexes[0].read_bytes().splitlines(keepends=True)
    joined = header + b"".join(line for p in indexes
                               for line in p.read_bytes().splitlines(
                                   keepends=True)[1:])
    assert hashlib.sha256(joined).hexdigest() == \
        "f92fda61590c33393501793ef3305167e76d183dbc3fe22e678c13de06eb6a93"


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


def test_in_range_time_off_the_hour_is_refused(tmp_path):
    """A time inside the range that is not an hour names itself in an
    ArchiveError, from either read, not a KeyError or no original."""
    arch = archive_from_frames(tmp_path, random_frames(3, seed=2))
    t = T0 + timedelta(minutes=30)
    for read in (arch.read_frame, arch.read_original):
        with pytest.raises(ArchiveError,
                           match=f"^{re.escape(str(t))} is not an hour"):
            read(t)


def test_read_frame_holds_the_frame_once(tmp_path):
    """A frame is read straight into the array returned: no second copy of
    it is ever held."""
    geom = GridGeometry(nrows=600, ncols=1000, lat0=20.0, lon0=-130.0,
                        dlat=0.05, dlon=0.05)
    frames = [np.full((600, 1000), 3.5, dtype=np.float32)]
    arch = archive_from_frames(tmp_path, frames, geometry=geom, levels=1)
    tracemalloc.start()
    try:
        frame, _ = arch.read_frame(T0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(frame.values, frames[0])
    assert peak < 1.25 * frames[0].nbytes


@pytest.mark.parametrize("level", [-1, 2], ids=["below-0", "levels"])
def test_level_outside_the_readable_levels_is_refused(tmp_path, level):
    """Levels are derived on read, so the bounds check is all that keeps
    `levels` meaningful: without it, level -1 would return level-0 values on
    a half-spacing grid and level `levels` would derive one level too many."""
    arch = gapped_archive(tmp_path, levels=2)
    with pytest.raises(ArchiveError, match=f"level {level} outside 0..1"):
        arch.read_frame(T0, level)


def test_read_cost_independent_of_archive_length(tmp_path):
    (tmp_path / "s").mkdir()
    (tmp_path / "l").mkdir()
    short = archive_from_frames(tmp_path / "s", random_frames(6, seed=7))
    long = archive_from_frames(tmp_path / "l", random_frames(48, seed=8))
    with count_reads() as short_reads:
        short.read_frame(T0 + timedelta(hours=2))
    with count_reads() as long_reads:
        long.read_frame(T0 + timedelta(hours=2))
    assert short_reads.total() == long_reads.total() > 0


def test_open_reads_the_manifest_only(tmp_path):
    """`open` reads manifest.json and nothing else, the same bytes for 120
    stored hours as for 8,760: a one-year gapless archive's manifest is the
    120-hour one's with a later `end` (open reads no day index and no
    shard, so the year needs none of them to open)."""
    (tmp_path / "short").mkdir()
    short = archive_from_frames(tmp_path / "short",
                                random_frames(120, DESK_GEOMETRY),
                                geometry=DESK_GEOMETRY).root
    year = tmp_path / "year"
    shutil.copytree(short, year)
    _manifest_with(lambda m: m.update(end="2023-03-01T23:00:00Z"))(year)
    _manifest_with(lambda m: None)(short)  # the same JSON spacing
    counts = []
    for root, hours in ((short, 120), (year, 8760)):
        with count_reads(text=True) as reads:
            arch = CuratedArchive.open(root)
        assert list(reads) == [str(root / "manifest.json")]
        assert len(arch.provenance) == hours
        counts.append(reads.total())
    assert counts[0] == counts[1] == (short / "manifest.json").stat().st_size


def test_a_days_first_read_reads_its_index_once(tmp_path):
    """The first read of a day, by `read_frame`, `read_original` or a
    `provenance` lookup, reads the day's index whole; every later read of
    the day reads only its slot. Listing the stored hours reads nothing."""
    arch = archive_from_frames(tmp_path, random_frames(48))
    frame = SMALL_GEOM.nrows * SMALL_GEOM.ncols * 4
    index, shard = (arch.root / "L0" / "20220302.csv",
                    arch.root / "L0" / "20220302.bin")
    index2 = arch.root / "L0" / "20220303.csv"
    with count_reads(text=True) as reads:
        assert len(list(arch.provenance)) == len(arch.provenance) == 48
        assert T0 + 47 * HOUR in arch.provenance
        assert T0 + 48 * HOUR not in arch.provenance
        assert reads == {}
        arch.read_frame(T0 + 3 * HOUR)
        assert reads == {str(index): index.stat().st_size, str(shard): frame}
        arch.read_frame(T0 + 4 * HOUR, level=1)
        assert arch.read_original(T0 + 5 * HOUR) is None
        assert arch.provenance[T0 + 23 * HOUR].forecast_id == "BSC00CA12-01"
        assert reads == {str(index): index.stat().st_size,
                         str(shard): 2 * frame}
        arch.provenance[T0 + 24 * HOUR]
        assert reads[str(index2)] == index2.stat().st_size
        assert len(reads) == 3


@pytest.mark.parametrize("expect", [
    {0: (None, 2), 1: (None, 2), 4: (3, 6), 5: (3, 6), 7: (6, None)},
    {1: (0, 3), 2: (0, 3), 5: (4, 7), 6: (4, 7)},
], ids=["gaps-at-both-ends", "stored-at-both-ends"])
def test_gap_neighbors_walk_the_gaps_not_the_stored_hours(tmp_path,
                                                          monkeypatch, expect):
    """A gap's GapError names the nearest stored hours of an 8-hour
    archive, found by a walk over the gaps beside it: none before a leading
    run of gaps, none after a trailing one, the first or last hour where it
    is stored, and no read or listing of the stored hours."""
    cached_granule(tmp_path / "cache", random_frames(8, seed=3))
    plan = plan_hours(tmp_path / "cache", 8)
    for k in expect:
        del plan.picks[T0 + k * HOUR]
        plan.gaps.append(T0 + k * HOUR)
    plan.gaps.sort()
    arch = build_archive(plan, SMALL_GEOM, tmp_path / "arch")

    def no_listing(self):
        raise AssertionError("listed every stored hour")

    monkeypatch.setattr(archive._Provenance, "__iter__", no_listing)
    monkeypatch.setattr(archive, "hour_range", no_listing)
    with count_reads(text=True) as reads:
        for k, (before, after) in expect.items():
            with pytest.raises(GapError) as err:
                arch.read_frame(T0 + k * HOUR)
            assert (err.value.nearest_before, err.value.nearest_after) == tuple(
                None if h is None else T0 + h * HOUR for h in (before, after))
    assert reads == {}


def test_manifest_contents(tmp_path):
    import json
    arch = gapped_archive(tmp_path, levels=2)
    manifest = json.loads((arch.root / "manifest.json").read_text())
    assert manifest["format_version"] == 3
    assert manifest["levels"] == 2
    assert manifest["start"] == "2022-03-02T00:00:00Z"
    assert manifest["end"] == "2022-03-02T05:00:00Z"
    assert manifest["gaps"] == ["2022-03-02T03:00:00Z"]
    assert manifest["geometry"]["nrows"] == 6
    assert manifest["originals"] == []
    # only level 0 is stored: the five stored hours fill the day's shard,
    # and the gap hour takes no bytes; the day index is beside its shard
    assert sorted(p.name for p in arch.root.iterdir()) == \
        ["L0", "manifest.json"]
    assert sorted(p.name for p in (arch.root / "L0").iterdir()) == \
        ["20220302.bin", "20220302.csv"]
    assert (arch.root / "L0" / "20220302.bin").stat().st_size == \
        5 * SMALL_GEOM.nrows * SMALL_GEOM.ncols * 4
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
    frame_bytes = 6 * 8 * 4
    arch = archive_from_frames(tmp_path, random_frames(3))
    shard = arch.root / "L0" / "20220302.bin"
    shard.write_bytes(shard.read_bytes()[:frame_bytes + 100])
    for hour in (0, 1):  # a shard of the wrong size is not read at all
        with pytest.raises(ArchiveError) as err:
            arch.read_frame(T0 + timedelta(hours=hour))
        assert str(shard) in str(err.value)
        assert f"2022-03-02T0{hour}:00:00Z" in str(err.value)
        assert f"{frame_bytes + 100} bytes, not {3 * frame_bytes}" in \
            str(err.value)
    shard.unlink()
    with pytest.raises(ArchiveError, match=str(shard)):
        arch.read_frame(T0)


def test_wrong_size_original_raises_archive_error(tmp_path):
    frames = random_frames(2, DRIFT_GEOM)
    cached_granule(tmp_path / "cache", frames, DRIFT_GEOM)
    arch = build_archive(plan_hours(tmp_path / "cache", 2), SMALL_GEOM,
                         tmp_path / "arch")
    for k, frame in enumerate(frames):
        original = arch.read_original(T0 + k * HOUR)
        assert original.shape == (5, 7)
        np.testing.assert_array_equal(original, frame)
    shard = arch.root / "originals" / "20220302.bin"
    size = shard.stat().st_size
    assert size == 2 * 5 * 7 * 4
    shard.write_bytes(shard.read_bytes()[:-4])
    for t in (T0, T0 + HOUR):
        with pytest.raises(ArchiveError) as err:
            arch.read_original(t)
        assert str(shard) in str(err.value)
        assert f"{size - 4} bytes, not {size}" in str(err.value)


def test_originals_on_two_grids_in_one_day(tmp_path):
    """Originals on two grids share their day's shard: each one starts
    after the day's earlier originals and is the size of its own grid."""
    other = GridGeometry(nrows=7, ncols=9, lat0=39.5, lon0=-120.5,
                         dlat=0.5, dlon=0.5)
    run = tmp_path / "cache" / "BSC00CA12-01"
    run.mkdir(parents=True)
    sources = {}
    for name, geom, init in (("dispersion_20220302.gran", DRIFT_GEOM, T0),
                             ("newer.gran", other, T0 + 2 * HOUR)):
        frames = random_frames(2, geom, seed=init.hour)
        g = make_granule("BSC00CA12-01", created=init + HOUR,
                         weather_init=init - 6 * HOUR, smoke_init=init,
                         geometry=geom, frames=frames)
        (run / name).write_bytes(granule_to_bytes(g))
        sources.update((init + k * HOUR, f) for k, f in enumerate(frames))
    arch = build_archive(plan_hours(tmp_path / "cache", 4), SMALL_GEOM,
                         tmp_path / "arch")
    for t, source in sources.items():
        original = arch.read_original(t)
        assert original.shape == source.shape
        assert original.tobytes() == source.tobytes()
    s1, s2 = (4 * g.nrows * g.ncols for g in (DRIFT_GEOM, other))
    shard = arch.root / "originals" / "20220302.bin"
    assert shard.stat().st_size == 2 * s1 + 2 * s2
    manifest = json.loads((arch.root / "manifest.json").read_text())
    assert [(GridGeometry(**group["geometry"]), group["timesteps"])
            for group in manifest["originals"]] == [
        (DRIFT_GEOM, ["2022-03-02T00:00:00Z", "2022-03-02T01:00:00Z"]),
        (other, ["2022-03-02T02:00:00Z", "2022-03-02T03:00:00Z"])]


def test_shard_with_an_extra_frame_raises_archive_error(tmp_path):
    frames = random_frames(3)
    arch = archive_from_frames(tmp_path, frames)
    shard = arch.root / "L0" / "20220302.bin"
    size = shard.stat().st_size
    shard.write_bytes(shard.read_bytes() + frames[0].astype("<f4").tobytes())
    with pytest.raises(ArchiveError) as err:
        arch.read_frame(T0 + HOUR)
    assert str(shard) in str(err.value)
    assert f"{size + size // 3} bytes, not {size}" in str(err.value)


@pytest.mark.parametrize("levels", [True, 2.5, 0])
def test_bad_level_count_leaves_an_existing_archive(tmp_path, levels):
    """build_archive refuses a level count that open would refuse, before
    it touches the directory."""
    frames = random_frames(2, seed=4)
    arch = archive_from_frames(tmp_path, frames)
    plan = plan_hours(tmp_path / "cache_single", 2)
    with pytest.raises(ValueError, match="not a positive level count"):
        build_archive(plan, SMALL_GEOM, arch.root, levels=levels)
    frame, _ = CuratedArchive.open(arch.root).read_frame(T0 + HOUR)
    np.testing.assert_array_equal(frame.values, frames[1])


def test_manifest_missing_a_gap_hour_is_refused(tmp_path):
    root = gapped_archive(tmp_path).root
    _manifest_with(lambda m: m.update(gaps=[]))(root)
    arch = CuratedArchive.open(root)  # the manifest alone is consistent
    with pytest.raises(ArchiveError) as err:
        arch.read_frame(T0)
    assert str(err.value) == (
        f"{root / INDEX} line 5: disagrees with {root / 'manifest.json'}: the "
        f"next stored hour is 2022-03-02T03:00:00Z, not 2022-03-02T04:00:00Z")


def tree_digests(root):
    """sha256 of each file under `root`, by its path relative to `root`."""
    return {p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_nothing_published(out):
    """A failed build leaves neither `out` nor its building directory."""
    assert not out.exists()
    assert not out.with_name(f".{out.name}.building").exists()


def test_build_into_an_existing_archive_is_refused(tmp_path):
    """An archive is written once: a build into an existing archive is
    refused before it writes anything, so a reader opened on the archive
    keeps reading its own hours."""
    frames = random_frames(4, seed=5)
    cached_granule(tmp_path / "cache", frames)
    gapped = plan_hours(tmp_path / "cache", 4)
    del gapped.picks[T0 + HOUR]
    gapped.gaps.append(T0 + HOUR)
    arch = build_archive(gapped, SMALL_GEOM, tmp_path / "arch")
    before = tree_digests(arch.root)
    with pytest.raises(ArchiveError) as err:
        build_archive(plan_hours(tmp_path / "cache", 4), SMALL_GEOM,
                      tmp_path / "arch")
    assert str(err.value).startswith(
        f"{tmp_path / 'arch'} exists and is not an empty directory")
    assert tree_digests(arch.root) == before
    frame, _ = arch.read_frame(T0 + 2 * HOUR)
    np.testing.assert_array_equal(frame.values, frames[2])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arch", "cache"]


def test_build_into_an_empty_directory(tmp_path):
    frames = random_frames(2, seed=5)
    cached_granule(tmp_path / "cache", frames)
    (tmp_path / "arch").mkdir()
    arch = build_archive(plan_hours(tmp_path / "cache", 2), SMALL_GEOM,
                         tmp_path / "arch")
    frame, _ = arch.read_frame(T0 + HOUR)
    np.testing.assert_array_equal(frame.values, frames[1])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arch", "cache"]


def test_leftover_building_directory_is_refused(tmp_path):
    cached_granule(tmp_path / "cache", random_frames(2, seed=5))
    building = tmp_path / ".arch.building"
    building.mkdir()
    with pytest.raises(ArchiveError) as err:
        build_archive(plan_hours(tmp_path / "cache", 2), SMALL_GEOM,
                      tmp_path / "arch")
    assert str(err.value).startswith(f"{building} exists")
    assert not (tmp_path / "arch").exists()
    assert list(building.iterdir()) == []


@pytest.mark.parametrize("out", [".", "sub/.."])
def test_out_with_no_name_is_refused(tmp_path, monkeypatch, out):
    """An `out` that does not end in a directory's own name has no sibling
    to build in; it is refused before anything is created."""
    cached_granule(tmp_path / "cache", random_frames(2, seed=5))
    plan = plan_hours(tmp_path / "cache", 2)
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    with pytest.raises(ArchiveError) as err:
        build_archive(plan, SMALL_GEOM, out)
    assert str(err.value) == (f"{out} does not end in a directory name: "
                              f"build into a named new directory")
    assert list((tmp_path / "work").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "work"]


def test_out_filled_during_the_build_is_left_alone(tmp_path, monkeypatch):
    """When `out` gains a file while the build runs, the publishing rename
    fails: the build names `out`, leaves it as it is and removes its own
    building directory."""
    cached_granule(tmp_path / "cache", random_frames(2, seed=5))
    out = tmp_path / "arch"
    out.mkdir()
    resample = archive.identity_or_resample

    def resample_and_fill_out(src, canonical):
        (out / "other.txt").write_text("another writer\n")
        return resample(src, canonical)

    monkeypatch.setattr(archive, "identity_or_resample", resample_and_fill_out)
    with pytest.raises(ArchiveError) as err:
        build_archive(plan_hours(tmp_path / "cache", 2), SMALL_GEOM, out)
    assert str(err.value).startswith(f"{out}: build not published")
    assert [p.name for p in out.iterdir()] == ["other.txt"]
    assert not (tmp_path / ".arch.building").exists()


def _manifest_with(edit):
    def damage(root):
        manifest = json.loads((root / "manifest.json").read_text())
        edit(manifest)
        (root / "manifest.json").write_text(json.dumps(manifest))
    return damage


# the day index of the archives that `archive_from_frames` builds
INDEX = "L0/20220302.csv"


def _index_lines(edit):
    """Run `edit` on the day index's list of lines, its header first."""
    def damage(root):
        path = root / INDEX
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
    return damage


def _set_cell(line, column, value):
    row = line.split(",")
    row[PROVENANCE_COLUMNS.index(column)] = value
    return ",".join(row)


def _index_cell(column, value):
    """Set `column` of the second data row (line 3 of the file)."""
    def edit(lines):
        lines[2] = _set_cell(lines[2], column, value)
    return _index_lines(edit)


def _blank_line_then_swap(lines):
    """A blank line 3, which `csv` skips, then the next two rows swapped."""
    lines[2:] = ["", lines[3], lines[2]]


def _index_header(column, name):
    def damage(root):
        path = root / INDEX
        path.write_text(path.read_text().replace(column, name, 1))
    return damage


def _truncate(name):
    def damage(root):
        path = root / name
        path.write_text(path.read_text()[:40])
    return damage


# `at` is where the damage is found: at open, which reads the manifest
# only, or at the first read of the damaged day, which reads its day index
@pytest.mark.parametrize("damage, file, where, at", [
    (_truncate("manifest.json"), "manifest.json", "not JSON", "open"),
    (_manifest_with(lambda m: m.pop("gaps")), "manifest.json", "no 'gaps' key",
     "open"),
    (_manifest_with(lambda m: m.update(start="yesterday")), "manifest.json",
     "bad 'start'", "open"),
    (_manifest_with(lambda m: m["geometry"].update(nrows="six")),
     "manifest.json", "bad 'geometry'", "open"),
    (_manifest_with(lambda m: m.update(levels="3")), "manifest.json",
     "bad 'levels'", "open"),
    (_manifest_with(lambda m: m.update(levels=True)), "manifest.json",
     "bad 'levels'", "open"),
    (_index_cell("tflag_time", "250000"), INDEX, "line 3", "read"),
    (_index_cell("cdate", "x"), INDEX, "line 3", "read"),
    (_index_cell("cdate", "9999999"), INDEX, "line 3: date=9999999", "read"),
    (_index_cell("resampled", "yes"), INDEX, "line 3: resampled is 'yes'",
     "read"),
    (_index_cell("wrf_arw_init_time", "2022-03-01T00:00:00Z"), INDEX,
     "line 3: wrf_arw_init_time '2022-03-01T00:00:00Z'", "read"),
    (_index_header("resampled", "resample"), INDEX,
     ": missing column resampled", "read"),
    (lambda root: (root / INDEX).unlink(), INDEX, "No such file", "read"),
    (lambda root: (root / "manifest.json").unlink(), "manifest.json",
     "No such file", "open"),
    (_manifest_with(lambda m: m.update(format_version=1)), "manifest.json",
     "unsupported archive format: 1; rebuild with build-archive", "open"),
    (_manifest_with(lambda m: m.update(format_version=2)), "manifest.json",
     "unsupported archive format: 2; rebuild with build-archive", "open"),
    (_manifest_with(lambda m: m.update(end="2022-03-01T00:00:00Z")),
     "manifest.json", "bad 'end'", "open"),
    (_manifest_with(lambda m: m.update(originals=[
        {"geometry": m["geometry"], "timesteps": ["2022-03-09T00:00:00Z"]}])),
     "manifest.json", "bad 'originals': 2022-03-09T00:00:00Z is not a stored",
     "open"),
    (_manifest_with(lambda m: m.update(originals=[{"timesteps": []}])),
     "manifest.json", "bad 'originals'", "open"),
    (_manifest_with(lambda m: m.update(gaps=["2022-03-02T01:00:00Z"])),
     INDEX, f"{INDEX} line 3: disagrees with manifest.json: the next stored "
     "hour is 2022-03-02T02:00:00Z, not 2022-03-02T01:00:00Z", "read"),
    (_manifest_with(lambda m: m.update(end="9999-12-31T23:00:00Z")),
     INDEX, f"{INDEX} after its last line: disagrees with manifest.json: the "
     "index has no row for 2022-03-02T03:00:00Z", "read"),
    (_manifest_with(lambda m: m.update(gaps=["2022-03-09T00:00:00Z"])),
     "manifest.json", "bad 'gaps': 2022-03-09T00:00:00Z is not an hour of "
     "the range", "open"),
    (_index_cell("wrf_arw_init_time", "2022-03-01T18:00:00Z,x"), INDEX,
     "line 3: more cells than the header names", "read"),
    (_index_cell("resampled", "true"), INDEX,
     f"{INDEX} line 3: disagrees with manifest.json: 2022-03-02T01:00:00Z is "
     "resampled but has no original", "read"),
    (_manifest_with(lambda m: m.update(originals=[
        {"geometry": m["geometry"], "timesteps": ["2022-03-02T01:00:00Z"]}])),
     INDEX, f"{INDEX} line 3: disagrees with manifest.json: "
     "2022-03-02T01:00:00Z has an original but is not resampled", "read"),
    # a forged copy of the first hour's row, which a reader keeping the
    # last row of an hour would return for that hour
    (_index_lines(lambda lines: lines.append(
        _set_cell(lines[1], "forecast_id", "FORGED-ID"))),
     INDEX, f"{INDEX} line 5: disagrees with manifest.json: the index has an "
     "extra row, for 2022-03-02T00:00:00Z", "read"),
    (_index_lines(lambda lines: lines.insert(1, lines.pop(2))),
     INDEX, f"{INDEX} line 2: disagrees with manifest.json: the next stored "
     "hour is 2022-03-02T00:00:00Z, not 2022-03-02T01:00:00Z", "read"),
    # the fault is on line 4 of the file, its second data row: a reader
    # counting data rows would name line 3
    (_index_lines(_blank_line_then_swap), INDEX, f"{INDEX} line 4: disagrees "
     "with manifest.json: the next stored hour is 2022-03-02T01:00:00Z, not "
     "2022-03-02T02:00:00Z", "read"),
], ids=["truncated-manifest", "no-gaps", "bad-start", "text-nrows",
        "text-levels", "boolean-levels", "tflag-time-out-of-range", "non-integer-stamp",
        "creation-stamp-out-of-range", "resampled-not-boolean",
        "weather-text-not-stamp", "renamed-column",
        "no-provenance", "no-manifest", "format-1", "format-2",
        "end-before-start", "original-not-stored", "original-without-grid",
        "gap-is-stored", "far-end", "gap-out-of-range", "extra-cell",
        "resampled-no-original", "original-not-resampled", "repeated-hour",
        "rows-swapped", "blank-line-then-rows-swapped"])
def test_damaged_archive_open_names_file_and_place(tmp_path, damage, file,
                                                   where, at):
    root = archive_from_frames(tmp_path, random_frames(3)).root
    damage(root)
    with pytest.raises(ArchiveError) as err:
        arch = CuratedArchive.open(root)
        assert at == "read", "open passed a damaged manifest"
        arch.read_frame(T0)
    assert str(err.value).startswith(str(root / file))
    # `where` names the archive's files by their paths in it
    assert where in str(err.value).replace(f"{root}{os.sep}", "")
    if at == "read":  # found at the day's first read, by any read of the day
        for read in (lambda a: a.read_frame(T0 + 2 * HOUR),
                     lambda a: a.read_original(T0),
                     lambda a: a.provenance[T0 + 2 * HOUR]):
            with pytest.raises(ArchiveError) as again:
                read(CuratedArchive.open(root))
            assert str(again.value) == str(err.value)


@pytest.fixture(scope="module")
def mixed_day(tmp_path_factory):
    """An archive of one day with a gap (hour 3) and resampled hours (4-6),
    and its day index's lines."""
    tmp = tmp_path_factory.mktemp("mixed")
    cache = tmp / "cache" / "BSC00CA12-01"
    cache.mkdir(parents=True)
    for name, init, geometry in (("dispersion_20220302.gran", T0, SMALL_GEOM),
                                 ("dispersion_20220303.gran", T0 + 4 * HOUR,
                                  DRIFT_GEOM)):
        g = make_granule("BSC00CA12-01", created=init + HOUR,
                         weather_init=init - 6 * HOUR, smoke_init=init,
                         geometry=geometry, frames=random_frames(3, geometry))
        (cache / name).write_bytes(granule_to_bytes(g))
    plan = plan_sequence(build_coverage(scan_cache(tmp / "cache")), T0,
                         T0 + 6 * HOUR)
    arch = build_archive(plan, SMALL_GEOM, tmp / "arch")
    assert arch.gaps == {T0 + 3 * HOUR}
    return arch.root, (arch.root / INDEX).read_text().splitlines()


def _per_row_day(root):
    """The rows of the day index INDEX of the archive at `root`, or the
    ArchiveError text, as a reader decoding every stamp of every row would
    give them: the oracle for `_read_day`'s run check. Its table read is
    `csv.DictReader`'s."""
    arch = CuratedArchive.open(root)
    table, manifest = root / INDEX, root / "manifest.json"
    stored = (t for t in hour_range(arch.start, arch.end)
              if t not in arch.gaps)
    grids = arch.original_grids.get(T0.date(), {})

    def entry(cells):
        t, created, weather, smoke = (
            julian_to_calendar(JulianStamp(int(cells[f"{p}date"]),
                                           int(cells[f"{p}time"])))
            for p in ("tflag_", "c", "w", "s"))
        if cells["resampled"] not in ("true", "false"):
            raise ValueError(f"resampled is {cells['resampled']!r}, "
                             f"not true or false")
        if cells["wrf_arw_init_time"] != format_iso_z(weather):
            raise ValueError(f"wrf_arw_init_time "
                             f"{cells['wrf_arw_init_time']!r} is not the "
                             f"weather stamp's {format_iso_z(weather)}")
        row = ProvenanceRow(cells["forecast_id"], created, weather, smoke,
                            cells["resampled"] == "true")
        want = next(stored, None)
        if want is None:
            fault = f"the index has an extra row, for {format_iso_z(t)}"
        elif t != want:
            fault = (f"the next stored hour is {format_iso_z(want)}, not "
                     f"{format_iso_z(t)}")
        elif row.resampled != (t in grids):
            fault = format_iso_z(t) + (
                " is resampled but has no original" if row.resampled
                else " has an original but is not resampled")
        else:
            return t, row
        raise ValueError(f"disagrees with {manifest}: {fault}")

    with open(table, newline="") as f:
        reader = csv.DictReader(f)
        try:
            missing = [c for c in PROVENANCE_COLUMNS
                       if c not in (reader.fieldnames or ())]
            if missing:
                return f"{table}: missing column {', '.join(missing)}"
            rows = []
            for cells in reader:
                if None in cells.values():
                    raise ValueError("fewer cells than the header names")
                if None in cells:
                    raise ValueError("more cells than the header names")
                rows.append(entry(cells))
        except ValueError as e:
            return f"{table} line {reader.line_num}: {e}"
    missing = next(stored, None)
    if missing is not None:
        return (f"{table} after its last line: disagrees with {manifest}: "
                f"the index has no row for {format_iso_z(missing)}")
    return rows


def _day_outcome(root):
    """`_read_day`'s rows of INDEX's day, in order, or its error text."""
    try:
        rows = CuratedArchive.open(root)._read_day(T0.date()).rows
    except ArchiveError as e:
        return str(e)
    return list(rows.items())


_CELL_VALUES = st.sampled_from(["", "x", "0", "-1", "2022061", "2022060",
                                "2022366", "9999999", "10000", "30000",
                                "240000", "true", "false", "BSC06CA12-01",
                                "2022-03-01T18:00:00Z", "A,B"])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_check_gives_the_per_row_rows_or_error(mixed_day, data):
    # swapped, repeated, forged and dropped rows and blank lines, against a
    # reader that decodes every row; the same rows, or the same error text
    # naming the same physical line
    root, lines = mixed_day
    header, rows = lines[0], lines[1:]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        edit = data.draw(st.sampled_from(["swap", "repeat", "forge", "drop",
                                          "blank"]))
        if edit == "swap":
            j = data.draw(st.integers(0, len(rows) - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif edit == "repeat":
            rows.insert(data.draw(st.integers(0, len(rows))), rows[i])
        elif edit == "forge":  # one cell of a whole row, from any row
            whole = [r for r in rows
                     if r.count(",") == len(PROVENANCE_COLUMNS) - 1]
            column = data.draw(st.sampled_from(PROVENANCE_COLUMNS))
            value = data.draw(st.one_of(_CELL_VALUES, st.sampled_from(
                [r.split(",")[PROVENANCE_COLUMNS.index(column)]
                 for r in whole] or [""])))
            if rows[i] in whole:
                rows[i] = _set_cell(rows[i], column, value)
        elif edit == "drop" and len(rows) > 1:
            del rows[i]
        elif edit == "blank":
            rows.insert(data.draw(st.integers(0, len(rows))), "")
    (root / INDEX).write_text("\n".join([header, *rows]) + "\n")
    try:
        assert _day_outcome(root) == _per_row_day(root)
    finally:
        (root / INDEX).write_text("\n".join(lines) + "\n")


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
    assert_nothing_published(tmp_path / "arch")


def slow_days(monkeypatch, delays):
    """Delay each frame read of a UTC day in `delays` by its seconds, so
    that on a pool a slowed day finishes after the later ones."""
    read = FrameReader.read_frame

    def slow_read(self, index):
        time.sleep(delays.get(
            (self.header.first_frame + index * HOUR).date(), 0))
        return read(self, index)

    monkeypatch.setattr(FrameReader, "read_frame", slow_read)


@pytest.mark.parametrize("width", [1, 4])
def test_earliest_bad_day_aborts_a_pooled_build(tmp_path, monkeypatch, width):
    """Picks over 4 UTC days with a NaN frame in day 2 (its last hour) and
    in day 3 (its first), day 2 slowed so that day 3 fails first and day 4
    slowed more so that it still runs: the build names day 2's timestep and
    byte, as a serial build does, and returns only once every day has
    stopped, with nothing published."""
    pool_of(monkeypatch, width)
    slow_days(monkeypatch, {date(2022, 3, 3): 0.005, date(2022, 3, 5): 0.02})
    path = cached_granule(tmp_path / "cache", random_frames(96, seed=5))
    offset = poke_value(path, frame=47, cell=9, value=np.nan)
    poke_value(path, frame=48, cell=0, value=np.nan)
    plan = plan_hours(tmp_path / "cache", 96)
    threads = threading.active_count()
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert str(err.value) == (
        f"timestep 2022-03-03T23:00:00Z: picked granule {path} failed to "
        f"parse: payload value non-finite or negative (at byte {offset})")
    assert threading.active_count() == threads
    assert_nothing_published(tmp_path / "arch")


def four_day_corpus(root, seed=17):
    """A 4-day desk corpus, one run a day, on the drift grid on its first
    two days, each 30 hours long."""
    generate_corpus(CorpusSpec(
        start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
        forecast_ids=("BSC00CA12-01",), init_hours=(0,), horizon_hours=30,
        geometry=DESK_GEOMETRY, drift_geometry=DESK_DRIFT_GEOMETRY,
        drift_cutoff=date(2022, 3, 4), seed=seed), root)


def four_day_plan(cache):
    """The plan of `four_day_corpus` at `cache`, with 3 hours made gaps,
    and the one run it picks on its last day, 2022-03-06, whose picks
    begin on 2022-03-05."""
    index = build_coverage(scan_cache(cache))
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    for t in (times[5], times[30], times[31]):
        del plan.picks[t]
    plan.gaps = sorted([*plan.gaps, times[5], times[30], times[31]])
    last_run = {p.path for t, p in plan.picks.items() if t.day == 6}
    assert len(last_run) == 1
    assert {t.day for t, p in plan.picks.items() if p.path in last_run} == \
        {5, 6}
    return plan, Path(last_run.pop())


def test_archive_bytes_do_not_depend_on_the_pool_width(tmp_path, monkeypatch):
    """A 4-day plan with drift-grid picks (so originals are written), gap
    hours, and a last run whose picks cross midnight builds the same files,
    names and bytes, on one thread and on four, where the first day
    finishes last."""
    four_day_corpus(tmp_path / "c")
    plan, _ = four_day_plan(tmp_path / "c")

    headers_read = []
    read_header = granule.read_header
    monkeypatch.setattr(granule, "read_header",
                        lambda f: headers_read.append(f.name) or read_header(f))
    slow_days(monkeypatch, {date(2022, 3, 2): 0.005})
    trees = []
    for width in (1, 4):
        pool_of(monkeypatch, width)
        headers_read.clear()
        build_archive(plan, DESK_GEOMETRY, tmp_path / f"arch{width}")
        trees.append(tree_digests(tmp_path / f"arch{width}"))
        # each day reads the header of each granule it picks once, so the
        # run whose picks cross midnight is read by both its days
        assert sorted(headers_read) == sorted(path for _, path in {
            (t.date(), str(p.path)) for t, p in plan.picks.items()})
    assert trees[0] == trees[1]
    names = {str(name) for name in trees[0]}
    assert {"originals/20220302.bin", "originals/20220303.bin",
            "L0/20220306.bin", "manifest.json"} <= names
    manifest = json.loads((tmp_path / "arch1" / "manifest.json").read_text())
    assert len(manifest["gaps"]) == 3


def test_a_day_reads_the_header_of_the_granule_it_opened(tmp_path,
                                                        monkeypatch):
    """A run whose picks cross midnight, re-published under its path by
    `os.replace` between its two days' reads (from another seed: the same
    size, another creation time and other values): each day's frames and
    provenance come from the one file that day opened."""
    four_day_corpus(tmp_path / "c")
    four_day_corpus(tmp_path / "other", seed=18)
    plan, path = four_day_plan(tmp_path / "c")
    new = tmp_path / "other" / path.relative_to(tmp_path / "c")

    def header_and_day_6(granule_path):
        with open(granule_path, "rb") as f:
            reader = FrameReader(f)
            return reader.header, {t: reader.read_frame(p.frame_index)
                                   for t, p in plan.picks.items() if t.day == 6}

    old_header, old_frames = header_and_day_6(path)
    new_header, new_frames = header_and_day_6(new)
    assert new.stat().st_size == path.stat().st_size
    assert new_header.created != old_header.created
    assert all((new_frames[t] != old_frames[t]).any() for t in new_frames)

    create = archive._create

    def create_and_replace(directory, day):
        if directory.name == "L0" and day == date(2022, 3, 6):
            os.replace(new, path)
        return create(directory, day)

    monkeypatch.setattr(archive, "_create", create_and_replace)
    pool_of(monkeypatch, 1)
    arch = build_archive(plan, DESK_GEOMETRY, tmp_path / "arch")
    assert not new.exists()  # the granule was replaced during the build
    for t, p in plan.picks.items():
        if Path(p.path) == path and t.day == 5:
            assert arch.provenance[t].created == old_header.created
    for t, values in new_frames.items():
        frame, row = arch.read_frame(t)
        expected = identity_or_resample(Frame(new_header.geometry, values),
                                        DESK_GEOMETRY)
        np.testing.assert_array_equal(frame.values, expected.values)
        assert row.created == new_header.created


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
    assert len(clean) == 1 + 1 + 1  # manifest, provenance, level 0 x 1 day
    assert contents(tmp_path / "arch_dirty") == clean


def test_truncated_picked_granule_aborts_build(tmp_path):
    path = cached_granule(tmp_path / "cache", random_frames(4, seed=5))
    plan = plan_hours(tmp_path / "cache", 2)  # the scan reads headers only
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert "timestep 2022-03-02T00:00:00Z" in str(err.value)
    assert str(path) in str(err.value)
    assert_nothing_published(tmp_path / "arch")


def test_missing_picked_granule_aborts_build(tmp_path):
    path = cached_granule(tmp_path / "cache", random_frames(4, seed=5))
    plan = plan_hours(tmp_path / "cache", 2)
    path.unlink()  # the granule left the cache after planning
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    assert "timestep 2022-03-02T00:00:00Z" in str(err.value)
    assert str(path) in str(err.value)
    assert isinstance(err.value.__cause__, FileNotFoundError)
    assert_nothing_published(tmp_path / "arch")


def test_picked_frame_with_no_canonical_point_aborts_build(tmp_path):
    # a frame whose grid holds no point of the canonical grid would resample
    # to all zeros, an hour of clean air that no forecast made; it is
    # refused as a bad picked frame is, and nothing is published
    far = GridGeometry(6, 8, 10.0, 60.0, 0.5, 0.5)
    path = cached_granule(tmp_path / "cache", random_frames(2, far), far)
    plan = plan_hours(tmp_path / "cache", 2)
    with pytest.raises(BuildError) as err:
        build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    message = str(err.value)
    assert message.startswith("timestep 2022-03-02T00:00:00Z: granule ")
    for named in (path, far, SMALL_GEOM):
        assert str(named) in message
    assert_nothing_published(tmp_path / "arch")
    # a grid that holds one canonical point, its corner, is resampled
    corner = GridGeometry(6, 8, SMALL_GEOM.lat_max, SMALL_GEOM.lon_max,
                          0.5, 0.5)
    cached_granule(tmp_path / "cache2", random_frames(2, corner), corner)
    arch = build_archive(plan_hours(tmp_path / "cache2", 2), SMALL_GEOM,
                         tmp_path / "arch2")
    frame, row = arch.read_frame(T0)
    assert row.resampled and np.count_nonzero(frame.values) == 1


def test_frame_times_come_from_the_header_read(tmp_path, monkeypatch):
    # frame times come from the header's first frame: coverage decodes no
    # stamp; the build's header read decodes tflag[0] and compares the rest
    # with its hourly run, and the day's first read compares its index's
    # tflag stamps with the stored hours' run, decoding none of them
    cached_granule(tmp_path / "cache", random_frames(6, seed=5))
    records = scan_cache(tmp_path / "cache")
    tflag = [calendar_to_julian(T0 + i * HOUR) for i in range(6)]
    weather = calendar_to_julian(T0 - 6 * HOUR)
    calls = []
    original = JulianStamp.validate
    monkeypatch.setattr(JulianStamp, "validate",
                        lambda self: calls.append(self) or original(self))
    plan = plan_sequence(build_coverage(records), T0, T0 + timedelta(hours=5))
    assert calls == []
    arch = build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    # listing the stored hours reads no day index and decodes no stamp
    assert list(map(calendar_to_julian, arch.provenance)) == tflag
    assert calls.count(weather) == 1
    assert [calendar_to_julian(t) for t, _ in arch.provenance.items()] == tflag
    # tflag[0] and tflag[1] are also the smoke init and creation stamps,
    # which the header read decodes; the day's first read decodes the
    # granule's creation, weather and smoke stamps once, for all six rows
    counts = Counter(calls)
    assert [counts[stamp] for stamp in tflag] == [2 + 1, 1 + 1] + [0] * 4
    assert counts[weather] == 2
    assert len(calls) == 4 + 3


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
