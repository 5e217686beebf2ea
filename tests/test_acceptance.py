"""Acceptance gate: one test per release criterion, each printing a PASS line.

These tests intentionally re-derive expected values with independent oracles
(explicit-loop box averages, np.polyfit, full-parse argmax) rather than
calling back into the code under test.
"""

import math
import time
from datetime import date, datetime, time as dtime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from smokecurate.archive import build_archive
from smokecurate.corpusgen import (DESK_DRIFT_GEOMETRY, DESK_GEOMETRY,
                                   CorpusSpec, FaultProfile, generate_corpus)
from smokecurate.fetcher import SourceEndpoint, embedded_init_hour, fetch_range
from smokecurate.granule import (GridGeometry, NotAGranuleError,
                                 TruncatedError, make_granule,
                                 parse_granule_bytes)
from smokecurate.indexer import build_coverage, scan_cache
from smokecurate.pvanalysis import SolarRecord, fit_regression, run_analysis
from smokecurate.query import SamplingMode, sample_point
from smokecurate.regrid import Frame, bilinear_resample
from smokecurate.sequencer import plan_sequence
from smokecurate.timecal import (HOUR, UTC, JulianStamp, calendar_to_julian,
                                 hour_range, julian_to_calendar)

from conftest import (SMALL_GEOM, T0, archive_from_frames, count_reads,
                      granule_to_bytes)

IDS = ("BSC00CA12-01", "BSC06CA12-01", "BSC12CA12-01", "BSC18CA12-01")
TINY_GEOM = GridGeometry(4, 5, 40.0, -120.0, 0.5, 0.5)


def report(criterion, ok=True):
    assert ok
    print(f"\nACCEPTANCE: {criterion}: PASS", flush=True)


@pytest.fixture(scope="module")
def random_corpora(tmp_path_factory):
    """The shared randomized corpora for criteria 1 and 3."""
    base = tmp_path_factory.mktemp("corpora")
    rng = np.random.default_rng(2022)
    out = []
    for i in range(50):
        spec = CorpusSpec(
            start_date=date(2022, 3, 1), end_date=date(2022, 3, 10),
            forecast_ids=IDS, init_hours=(0, 6, 12, 18), horizon_hours=84,
            geometry=TINY_GEOM,
            fault_profile=FaultProfile(
                missing_run_rate=float(rng.uniform(0, 0.30)),
                html_rate=float(rng.uniform(0, 0.05)),
                truncation_rate=float(rng.uniform(0, 0.05))),
            seed=1000 + i)
        root = base / f"c{i:02}"
        manifest = generate_corpus(spec, root)
        out.append((spec, root, manifest))
    return out


def brute_force_plan(records, start, end):
    """Independent oracle: fully parse every valid granule and take the
    argmax of (smoke init, created, forecast id) per covered timestep."""
    frames = {}
    for r in records:
        if not r.ok:
            continue
        g = parse_granule_bytes(r.path.read_bytes())
        for i, stamp in enumerate(g.tflag):
            t = julian_to_calendar(stamp)
            frames.setdefault(t, []).append(
                ((g.header.smoke_init, g.header.created,
                  g.header.forecast_id), r.path, i))
    picks, gaps = {}, []
    for t in hour_range(start, end):
        eligible = [f for f in frames.get(t, []) if f[0][0] <= t]
        if eligible:
            picks[t] = max(eligible)[1:]
        else:
            gaps.append(t)
    return picks, gaps


def test_criterion_01_sequencer_matches_brute_force(random_corpora):
    start = datetime(2022, 3, 1, 0, tzinfo=UTC)
    end = datetime(2022, 3, 13, 23, tzinfo=UTC)
    t0 = time.perf_counter()
    for spec, root, _ in random_corpora:
        records = scan_cache(root)
        plan = plan_sequence(build_coverage(records), start, end)
        oracle_picks, oracle_gaps = brute_force_plan(records, start, end)
        assert plan.gaps == oracle_gaps
        assert set(plan.picks) == set(oracle_picks)
        for t, pick in plan.picks.items():
            assert (pick.path, pick.frame_index) == oracle_picks[t]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sequencer equivalence took {elapsed:.1f}s"
    report("1 sequencer brute-force equivalence over 50 corpora")


def test_criterion_02_staggered_candidates(tmp_path):
    spec = CorpusSpec(start_date=date(2022, 2, 26), end_date=date(2022, 3, 5),
                      forecast_ids=IDS, init_hours=(0, 6, 12, 18),
                      horizon_hours=84, geometry=TINY_GEOM, seed=77)
    generate_corpus(spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    interior = hour_range(datetime(2022, 3, 2, 0, tzinfo=UTC),
                          datetime(2022, 3, 4, 23, tzinfo=UTC))
    plan = plan_sequence(index, interior[0], interior[-1])
    for t in interior:
        cands = [c for c in index.candidates(t) if c.smoke_init <= t]
        per_id = {}
        for c in cands:
            per_id[c.forecast_id] = per_id.get(c.forecast_id, 0) + 1
        assert per_id == {fid: 14 for fid in IDS}
        assert len(cands) == 56
        assert plan.picks[t].smoke_init == max(c.smoke_init for c in cands)
    report("2 interior timesteps see 14x4=56 candidates; pick has latest init")


def test_criterion_03_fault_detection_complete(random_corpora, tmp_path):
    for n, (spec, root, manifest) in enumerate(random_corpora):
        for entry in manifest.entries:
            if entry.outcome == "html":
                with pytest.raises(NotAGranuleError):
                    parse_granule_bytes((root / entry.path).read_bytes())
            elif entry.outcome == "truncated":
                with pytest.raises(TruncatedError):
                    parse_granule_bytes((root / entry.path).read_bytes())

        cache = tmp_path / f"cache{n:02}"
        rep = fetch_range(SourceEndpoint(str(root)), list(IDS),
                          spec.start_date, spec.end_date, cache)
        by_key = {(e.forecast_id, e.init.date()): e.outcome
                  for e in manifest.entries
                  if e.init.hour == embedded_init_hour(e.forecast_id)}
        for rec in rep.records:
            source = by_key[(rec.forecast_id, rec.date)]
            assert rec.outcome == {"ok": "downloaded", "missing": "not_found",
                                   "html": "invalid_content",
                                   "truncated": "invalid_content"}[source]
        # nothing corrupted was committed
        for fid in IDS:
            for path in (cache / fid).glob("*.gran"):
                parse_granule_bytes(path.read_bytes())
    report("3 every fault detected; zero corrupted files committed to cache")


def test_criterion_04_metadata_only_indexing(tmp_path):
    cache = tmp_path / "cache"
    zeros = np.zeros((DESK_GEOMETRY.nrows, DESK_GEOMETRY.ncols),
                     dtype=np.float32)
    day = date(2022, 3, 1)
    for i in range(1000):
        fid = IDS[i % 4]
        init = datetime(day.year, day.month, day.day,
                        embedded_init_hour(fid), tzinfo=UTC) + \
            timedelta(days=i // 4)
        g = make_granule(fid, created=init + timedelta(hours=1),
                         weather_init=init - timedelta(hours=6),
                         smoke_init=init, geometry=DESK_GEOMETRY,
                         frames=[zeros] * 12)
        d = cache / fid
        d.mkdir(parents=True, exist_ok=True)
        (d / f"dispersion_{init:%Y%m%d}.gran").write_bytes(granule_to_bytes(g))

    t0 = time.perf_counter()
    with count_reads() as totals:
        records = scan_cache(cache)
    elapsed = time.perf_counter() - t0
    assert len(records) == 1000
    assert all(r.ok for r in records)
    header_region = 96 + 12 * 8  # everything before the payload
    assert all(n == header_region for n in totals.values())
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
    report("4 scan reads zero payload bytes; 1000 granules under 5 s")


def test_criterion_05_regrid_exactness(tmp_path):
    src_geom = GridGeometry(20, 36, 32.0, -160.0, 0.5, 0.5)
    lat = src_geom.latitudes()[:, None]
    lon = src_geom.longitudes()[None, :]
    affine = np.broadcast_to(3.0 * lat - 2.0 * lon, (20, 36)).astype(float)
    target = GridGeometry(15, 25, 32.3, -159.7, 0.55, 0.6)
    out = bilinear_resample(Frame(src_geom, affine), target)
    tlat = target.latitudes()[:, None]
    tlon = target.longitudes()[None, :]
    expect = np.broadcast_to(3.0 * tlat - 2.0 * tlon, (15, 25))
    assert np.max(np.abs(out.values - expect) / np.abs(expect)) <= 1e-12

    const = bilinear_resample(Frame(src_geom, np.full((20, 36), 4.5)), target)
    np.testing.assert_array_equal(const.values, 4.5)

    spec = CorpusSpec(start_date=date(2022, 3, 1), end_date=date(2022, 3, 4),
                      forecast_ids=("BSC00CA12-01",), init_hours=(0,),
                      horizon_hours=24, geometry=DESK_GEOMETRY,
                      drift_geometry=DESK_DRIFT_GEOMETRY,
                      drift_cutoff=date(2022, 3, 3), seed=9)
    generate_corpus(spec, tmp_path / "c")
    index = build_coverage(scan_cache(tmp_path / "c"))
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    arch = build_archive(plan, DESK_GEOMETRY, tmp_path / "a")
    cutoff = datetime(2022, 3, 3, 0, tzinfo=UTC)
    drifted = [t for t, p in plan.picks.items() if p.smoke_init < cutoff]
    assert drifted
    assert all(arch.provenance[t].resampled for t in drifted)
    assert not any(arch.provenance[t].resampled
                   for t in plan.picks if t not in drifted)
    report("5 affine regrid within 1e-12; all drifted picks marked resampled")


def test_criterion_06_archive_round_trip_and_pyramid(tmp_path):
    rng = np.random.default_rng(8)
    frames = [rng.uniform(0, 80, size=(6, 8)).astype(np.float32)
              for _ in range(6)]
    arch = archive_from_frames(tmp_path / "a6", frames, levels=3)
    for k, expect in enumerate(frames):
        t = T0 + timedelta(hours=k)
        got, _ = arch.read_frame(t)
        assert got.values.tobytes() == expect.tobytes()  # bit-identical
        level_vals = expect
        for lv in (1, 2):
            rows, cols = level_vals.shape
            oracle = np.zeros(((rows + 1) // 2, (cols + 1) // 2))
            for i in range(oracle.shape[0]):
                for j in range(oracle.shape[1]):
                    block = level_vals[2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                    oracle[i, j] = np.mean(np.asarray(block, np.float64))
            level_vals = oracle.astype(np.float32)
            got, _ = arch.read_frame(t, level=lv)
            denom = np.maximum(np.abs(level_vals), 1e-30)
            assert np.max(np.abs(got.values - level_vals) / denom) <= 1e-12

    (tmp_path / "short").mkdir()
    (tmp_path / "long").mkdir()
    short = archive_from_frames(tmp_path / "short", frames)
    long_frames = [frames[k % 6] for k in range(24 * 7)]
    long = archive_from_frames(tmp_path / "long", long_frames)
    with count_reads() as short_reads:
        short.read_frame(T0 + timedelta(hours=3))
    with count_reads() as long_reads:
        long.read_frame(T0 + timedelta(hours=3))
    assert short_reads.total() == long_reads.total()
    report("6 level-0 bit-exact; pyramid matches oracle; constant read cost")


def test_criterion_07_julian_round_trip():
    t = datetime(2020, 1, 1, 0, tzinfo=UTC)
    end = datetime(2025, 12, 31, 23, tzinfo=UTC)
    count = mismatches = 0
    while t <= end:
        if julian_to_calendar(calendar_to_julian(t)) != t:
            mismatches += 1
        count += 1
        t += HOUR
    assert count == 52_608
    assert mismatches == 0
    assert julian_to_calendar(JulianStamp(2021063, 0)) == \
        datetime(2021, 3, 4, 0, tzinfo=UTC)
    assert calendar_to_julian(datetime(2021, 3, 4, 0, tzinfo=UTC)).date == 2021063
    assert julian_to_calendar(JulianStamp(2024366, 0)) == \
        datetime(2024, 12, 31, 0, tzinfo=UTC)
    assert calendar_to_julian(datetime(2024, 12, 31, 0, tzinfo=UTC)).date == 2024366
    report("7 all 52,608 hourly stamps 2020-2025 round-trip exactly")


def test_criterion_08_query_modes(tmp_path):
    rng = np.random.default_rng(88)
    field = rng.uniform(0, 100, size=(6, 8)).astype(np.float32)
    arch = archive_from_frames(tmp_path / "a8", [field])
    g = arch.geometry
    for r in range(g.nrows):
        for c in range(g.ncols):
            lat, lon = g.lat0 + r * g.dlat, g.lon0 + c * g.dlon
            sw = sample_point(arch, T0, lat, lon, SamplingMode.SOUTHWEST_CORNER)
            bi = sample_point(arch, T0, lat, lon, SamplingMode.BILINEAR)
            assert sw == bi == field[r, c]

    center_geom = GridGeometry(2, 2, 40.0, -120.0, 0.5, 0.5)
    corners = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    (tmp_path / "center").mkdir()
    center_arch = archive_from_frames(tmp_path / "center", [corners],
                                      geometry=center_geom)
    assert sample_point(center_arch, T0, 40.25, -119.75) == 2.5

    fy = rng.uniform(0, g.nrows - 1, size=100_000)
    fx = rng.uniform(0, g.ncols - 1, size=100_000)
    for y, x in zip(fy, fx):
        v = sample_point(arch, T0, g.lat0 + y * g.dlat, g.lon0 + x * g.dlon)
        iy = min(int(y), g.nrows - 2)
        ix = min(int(x), g.ncols - 2)
        cell = field[iy: iy + 2, ix: ix + 2]
        assert cell.min() - 1e-9 <= v <= cell.max() + 1e-9
    report("8 modes agree on nodes; cell center = 2.5; 1e5 samples bounded")


def test_criterion_09_ols():
    fit = fit_regression([(0.0, 1.0), (100.0, 0.93)])
    assert abs(fit.slope - (-0.0007)) <= 1e-12
    assert abs(fit.intercept - 1.0) <= 1e-12

    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(3, 60))
        xs = rng.uniform(0, 300, n)
        ys = rng.uniform(0.5, 1.1, n)
        fit = fit_regression(list(zip(xs, ys)))
        slope, intercept = np.polyfit(xs, ys, 1)
        assert abs(fit.slope - slope) <= 1e-9
        assert abs(fit.intercept - intercept) <= 1e-9

    pts = [(float(x), 1.0 - 0.001 * x, float(cloud))
           for x, cloud in zip(range(0, 100, 10),
                               (5, 25, 10, 40, 15, 20, 80, 3, 21, 19))]
    fit = fit_regression(pts, cloud_filter=20.0)
    expect = [(x, y) for x, y, c in pts if c <= 20.0]
    assert fit.n_points == len(expect) == 6
    oracle = fit_regression(expect)
    assert fit.slope == oracle.slope and fit.intercept == oracle.intercept
    report("9 pinned two-point fit exact to 1e-12; oracle match; cloud filter")


def test_criterion_10_attenuation_sign(tmp_path):
    local = timezone(timedelta(hours=-6))
    site = (41.0, -118.0)
    days = [date(2022, 3, 2) + timedelta(days=k) for k in range(8)]
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        cache = tmp_path / f"s{seed:02}" / "cache"
        (cache / "BSC00CA12-01").mkdir(parents=True)
        pm_by_day = {}
        for day in days:
            pm = float(rng.uniform(5.0, 150.0)) if day != days[0] else 2.0
            pm_by_day[day] = pm
            field = np.full((6, 8), pm, dtype=np.float32)
            init = datetime(day.year, day.month, day.day, tzinfo=UTC)
            g = make_granule("BSC00CA12-01", created=init + timedelta(hours=1),
                             weather_init=init - timedelta(hours=6),
                             smoke_init=init, geometry=SMALL_GEOM,
                             frames=[field] * 24)
            (cache / "BSC00CA12-01" /
             f"dispersion_{init:%Y%m%d}.gran").write_bytes(granule_to_bytes(g))
        index = build_coverage(scan_cache(cache))
        times = index.timesteps()
        plan = plan_sequence(index, times[0], times[-1])
        arch = build_archive(plan, SMALL_GEOM,
                             tmp_path / f"s{seed:02}" / "arch")

        solar, cloud, flags = [], {}, {}
        for day in days:
            smoky = day != days[0]
            scale = math.exp(-0.004 * pm_by_day[day]) if smoky else 1.0
            for q in range(4 * 6, 4 * 20):
                hours = q / 4.0
                e = 5.0 * math.sin(math.pi * (hours - 6.0) / 14.0) * 0.25
                ts = datetime.combine(day, dtime(0), tzinfo=local) + \
                    timedelta(hours=hours)
                solar.append(SolarRecord(ts, max(e, 0.0) * scale))
            cloud[day] = 5.0
            flags[day] = smoky
        result = run_analysis(arch, solar, cloud, flags, site)
        assert result.fit is not None, f"seed {seed}: no fit"
        assert result.fit.slope < 0, f"seed {seed}: slope {result.fit.slope}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"end-to-end sweep took {elapsed:.1f}s"
    report("10 fitted slope negative for all 20 seeds; run under 5 min")
