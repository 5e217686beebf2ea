import math
from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest

from smokecurate.granule import make_granule
from smokecurate.indexer import build_coverage, scan_cache
from smokecurate.pvanalysis import (DEFAULT_CLEAR_SKY_THRESHOLD,
                                    FitError, InsufficientDataError,
                                    SolarRecord, DailyAggregate,
                                    classify_clear_sky, daily_aggregates,
                                    fit_regression, pair_reference, read_cloud_csv,
                                    read_flags_csv, read_solar_csv,
                                    run_analysis)
from smokecurate.query import SamplingMode
from smokecurate.sequencer import plan_sequence
from smokecurate.archive import build_archive
from smokecurate.timecal import UTC

from conftest import SMALL_GEOM, T0, archive_from_frames, granule_to_bytes

LOCAL = timezone(timedelta(hours=-6))
SITE = (41.0, -118.0)


def half_sine_day(day, peak_kw=5.0, scale=1.0, dips=()):
    """15-minute PV records 06:00-19:45 local following a half sine."""
    records = []
    for q in range(4 * 6, 4 * 20):
        hours = q / 4.0
        e = peak_kw * math.sin(math.pi * (hours - 6.0) / 14.0) * 0.25 * scale
        if q in dips:
            e *= 0.4
        ts = datetime.combine(day, time(0), tzinfo=LOCAL) + \
            timedelta(hours=hours)
        records.append(SolarRecord(ts, max(e, 0.0)))
    return records


def flat_day(day, kwh=1.25):
    return [SolarRecord(datetime.combine(day, time(0), tzinfo=LOCAL)
                        + timedelta(minutes=15 * q), kwh)
            for q in range(4 * 6, 4 * 20)]


def test_half_sine_day_is_clear():
    clear, score = classify_clear_sky(half_sine_day(date(2022, 3, 2)))
    assert clear
    assert 0 < score < DEFAULT_CLEAR_SKY_THRESHOLD


def test_dips_break_clear_sky():
    records = half_sine_day(date(2022, 3, 2), dips=(40, 48, 56))
    clear, score = classify_clear_sky(records)
    assert not clear
    assert score > DEFAULT_CLEAR_SKY_THRESHOLD


def test_all_zero_day_is_never_clear():
    records = flat_day(date(2022, 3, 2), kwh=0.0)
    clear, score = classify_clear_sky(records)
    assert not clear
    assert score == math.inf


def test_too_few_peak_records_rejected():
    records = half_sine_day(date(2022, 3, 2))[:10]  # all before 10:00 local
    with pytest.raises(InsufficientDataError):
        classify_clear_sky(records)


def test_constant_day_aggregates_exactly(tmp_path):
    frames = [np.full((6, 8), 10.0, dtype=np.float32) for _ in range(24)]
    arch = archive_from_frames(tmp_path, frames)
    solar = flat_day(date(2022, 3, 2), kwh=1.25)
    aggs, excluded = daily_aggregates(solar, {date(2022, 3, 2): 5.0},
                                      arch, SITE)
    assert not excluded
    [agg] = aggs
    assert agg.avg_output == pytest.approx(5.0)   # 4 x 1.25 kWh per 15 min
    assert agg.avg_pm25 == pytest.approx(10.0)
    assert agg.avg_cloud == 5.0
    assert agg.clear_sky  # perfectly flat curve has zero curvature


@pytest.mark.parametrize("energy", [-1.0, math.nan, math.inf])
def test_energy_that_is_not_finite_and_non_negative_is_refused(tmp_path,
                                                               energy):
    """A nan peak record would otherwise leave the day clear with a nan
    average output, and every smoky day paired with it a nan ratio."""
    arch = archive_from_frames(
        tmp_path, [np.full((6, 8), 10.0, dtype=np.float32) for _ in range(24)])
    solar = flat_day(date(2022, 3, 2))
    solar[16] = SolarRecord(solar[16].timestamp, energy)  # 10:00 local
    with pytest.raises(ValueError) as err:
        daily_aggregates(solar, {date(2022, 3, 2): 5.0}, arch, SITE)
    assert str(err.value) == (f"energy {energy} at {solar[16].timestamp} is "
                              f"not finite and non-negative")


def test_pm25_gap_in_peak_window_drops_day(tmp_path):
    # archive covers the whole day except 19 UTC == 13:00 local
    cache = tmp_path / "cache"
    (cache / "BSC00CA12-01").mkdir(parents=True)
    for name, init, n in (("dispersion_20220302.gran", T0, 19),
                          ("dispersion_20220303.gran",
                           T0 + timedelta(hours=20), 4)):
        g = make_granule("BSC00CA12-01", created=init + timedelta(hours=1),
                         weather_init=init - timedelta(hours=6),
                         smoke_init=init, geometry=SMALL_GEOM,
                         frames=[np.full((6, 8), 1.0, dtype=np.float32)] * n)
        (cache / "BSC00CA12-01" / name).write_bytes(granule_to_bytes(g))
    plan = plan_sequence(build_coverage(scan_cache(cache)), T0,
                         T0 + timedelta(hours=23))
    arch = build_archive(plan, SMALL_GEOM, tmp_path / "arch")
    aggs, excluded = daily_aggregates(flat_day(date(2022, 3, 2)),
                                      {date(2022, 3, 2): 5.0}, arch, SITE)
    assert not aggs
    assert [(e.day, e.reason) for e in excluded] == \
        [(date(2022, 3, 2), "pm25_gap")]


def test_truncated_chunk_excludes_day_naming_the_file(tmp_path):
    frames = [np.full((6, 8), 10.0, dtype=np.float32) for _ in range(24)]
    arch = archive_from_frames(tmp_path, frames)
    chunk = arch.root / "L0" / "20220302.bin"
    # cut the shard 4 bytes into the slot of 17 UTC == 11:00 local
    chunk.write_bytes(chunk.read_bytes()[:18 * 6 * 8 * 4 - 4])
    aggs, excluded = daily_aggregates(flat_day(date(2022, 3, 2)),
                                      {date(2022, 3, 2): 5.0}, arch, SITE)
    assert not aggs
    [day] = excluded
    assert day.day == date(2022, 3, 2)
    assert day.reason.startswith("pm25_unavailable: ")
    assert str(chunk) in day.reason


def make_agg(day, output=5.0, clear=True, smoky=False, pm=10.0):
    return DailyAggregate(day, output, pm, 5.0, clear, smoky)


def test_pair_reference_prefers_nearest_prior():
    aggs = [make_agg(date(2022, 3, 1)),
            make_agg(date(2022, 3, 3)),
            make_agg(date(2022, 3, 4), smoky=True),       # smoky: skipped
            make_agg(date(2022, 3, 5), clear=False),      # cloudy: skipped
            make_agg(date(2022, 3, 8))]                   # after: skipped
    smoky = make_agg(date(2022, 3, 6), smoky=True)
    ref = pair_reference(aggs, smoky)
    assert ref.day == date(2022, 3, 3)


def test_pair_reference_none_outside_window():
    aggs = [make_agg(date(2022, 2, 20))]
    assert pair_reference(aggs, make_agg(date(2022, 3, 6), smoky=True)) is None


@pytest.mark.parametrize("with_earlier_clear_day", [False, True])
def test_clear_day_with_no_peak_output_is_never_a_reference(
        tmp_path, with_earlier_clear_day):
    """An outage over the whole peak window leaves a smooth half-sine
    outside it. The day has no peak output, so it is not clear: the report
    says so, and an earlier clear day in the window is paired instead, or
    none is."""
    earlier, outage, smoky = (date(2022, 3, 2), date(2022, 3, 3),
                              date(2022, 3, 4))
    arch = archive_from_frames(
        tmp_path, [np.full((6, 8), 40.0, dtype=np.float32)] * 72)
    solar = [SolarRecord(r.timestamp, 0.0)
             if 10 <= r.timestamp.hour < 16 else r
             for r in half_sine_day(outage)]
    assert classify_clear_sky(solar) == (False, math.inf)
    solar += half_sine_day(smoky, scale=0.8)
    days = [outage, smoky]
    if with_earlier_clear_day:
        solar += half_sine_day(earlier)
        days.append(earlier)
    report = run_analysis(arch, solar, dict.fromkeys(days, 5.0),
                          {smoky: True}, SITE)
    ratio = {r.day: r.ratio for r in report.rows}[smoky]
    if with_earlier_clear_day:
        assert ratio == pytest.approx(0.8, rel=1e-12)
    else:
        assert ratio is None
    assert report.fit is None
    out = tmp_path / "report.csv"
    report.write_csv(out)
    [row] = [l for l in out.read_text().splitlines()
             if l.startswith(outage.isoformat())]
    assert row.endswith(",,0,0")  # no output, no ratio, not clear, not used


def test_ols_two_point_example():
    fit = fit_regression([(0.0, 1.0), (100.0, 0.93)])
    assert fit.slope == pytest.approx(-0.0007, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 2


def test_ols_identical_y_gives_flat_fit():
    fit = fit_regression([(0.0, 0.9), (50.0, 0.9), (120.0, 0.9)])
    assert fit.slope == 0.0
    assert fit.intercept == pytest.approx(0.9)
    assert fit.r_squared == 0.0


def test_ols_matches_polyfit_on_random_sets():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        xs = rng.uniform(0, 200, n)
        ys = 1.0 - 0.001 * xs + rng.normal(0, 0.05, n)
        fit = fit_regression(list(zip(xs, ys)))
        slope, intercept = np.polyfit(xs, ys, 1)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        resid = ys - (slope * xs + intercept)
        r2 = 1 - resid @ resid / np.sum((ys - ys.mean()) ** 2)
        assert fit.r_squared == pytest.approx(r2, abs=1e-9)


def test_cloud_filter_drops_exact_set():
    pts = [(10.0, 0.99, 5.0), (50.0, 0.95, 15.0), (80.0, 0.92, 45.0),
           (120.0, 0.88, 20.0), (150.0, 0.85, 60.0)]
    fit = fit_regression(pts, cloud_filter=20.0)
    assert fit.n_points == 3
    oracle = fit_regression([(x, y) for x, y, c in pts if c <= 20.0])
    assert fit.slope == oracle.slope
    assert fit.intercept == oracle.intercept


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(FitError):
        fit_regression([(1.0, 0.9)])
    with pytest.raises(FitError):
        fit_regression([(5.0, 0.9), (5.0, 0.8)])  # zero x variance
    with pytest.raises(FitError):
        fit_regression([(10.0, 0.9, 90.0), (50.0, 0.8, 95.0)],
                       cloud_filter=20.0)


def test_end_to_end_attenuation_slope_negative(tmp_path):
    pm_by_day = {date(2022, 3, 2): 2.0, date(2022, 3, 3): 30.0,
                 date(2022, 3, 4): 60.0, date(2022, 3, 5): 90.0,
                 date(2022, 3, 6): 120.0, date(2022, 3, 7): 45.0}
    frames = []
    for day in sorted(pm_by_day):
        frames += [np.full((6, 8), pm_by_day[day], dtype=np.float32)] * 24
    arch = archive_from_frames(tmp_path, frames)

    solar, cloud, flags = [], {}, {}
    for day, pm in sorted(pm_by_day.items()):
        smoky = day != date(2022, 3, 2)
        scale = math.exp(-0.003 * pm) if smoky else 1.0
        solar += half_sine_day(day, scale=scale)
        cloud[day] = 5.0
        flags[day] = smoky
    report = run_analysis(arch, solar, cloud, flags, SITE,
                          mode=SamplingMode.BILINEAR)
    assert report.fit is not None
    assert report.fit.slope < 0
    assert report.fit.n_points == 5
    assert report.fit.r_squared > 0.9
    ratios = {r.day: r.ratio for r in report.rows if r.used_in_fit}
    for day, ratio in ratios.items():
        assert ratio == pytest.approx(math.exp(-0.003 * pm_by_day[day]),
                                      rel=1e-6)

    out = tmp_path / "report.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "date,avg_pm25,avg_output,ratio,clear_sky,used_in_fit"
    assert lines[-1].startswith("#fit,")


def test_csv_readers(tmp_path):
    (tmp_path / "solar.csv").write_text(
        "timestamp_iso,energy_kwh\n"
        "2022-03-02T12:00:00,1.5\n"
        "2022-03-02T18:15:00+00:00,0.75\n")
    records = read_solar_csv(tmp_path / "solar.csv")
    assert records[0].timestamp.tzinfo is not None
    assert records[0].timestamp.utcoffset() == timedelta(hours=-6)
    assert records[1].timestamp.utcoffset() == timedelta(0)
    assert records[0].energy_kwh == 1.5

    (tmp_path / "cloud.csv").write_text(
        "date,avg_cloud_pct\n2022-03-02,12.5\n")
    assert read_cloud_csv(tmp_path / "cloud.csv") == \
        {date(2022, 3, 2): 12.5}

    (tmp_path / "flags.csv").write_text(
        "date,smoky\n2022-03-02,1\n2022-03-03,false\n2022-03-04,true\n")
    flags = read_flags_csv(tmp_path / "flags.csv")
    assert flags == {date(2022, 3, 2): True, date(2022, 3, 3): False,
                     date(2022, 3, 4): True}
