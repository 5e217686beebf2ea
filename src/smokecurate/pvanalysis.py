"""Solar-PV attenuation analysis: join PV production, cloud cover and archived
PM2.5; classify clear-sky days; compute peak-window aggregates and smoky/clear
output ratios; fit the linear trend.

Local time is fixed at UTC-6 (`LOCAL`); days dropped for PM2.5 gaps are
reported, never imputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .archive import ArchiveError, CuratedArchive
from .query import SamplingMode, sample_series
from .tables import read_table, write_table
from .timecal import UTC

PEAK_START_HOUR = 10          # local, inclusive
PEAK_END_HOUR = 16            # local, exclusive for PV records
DEFAULT_UTC_OFFSET_HOURS = -6
DEFAULT_CLEAR_SKY_THRESHOLD = 0.01
DEFAULT_CLOUD_MAX_PCT = 20.0
PAIRING_WINDOW_DAYS = 7
LOCAL = timezone(timedelta(hours=DEFAULT_UTC_OFFSET_HOURS))


class InsufficientDataError(ValueError):
    pass


class EmptyJoinError(ValueError):
    pass


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class SolarRecord:
    timestamp: datetime   # timezone-aware
    energy_kwh: float     # per 15-minute interval


@dataclass
class DailyAggregate:
    day: date
    avg_output: float     # kW-equivalent mean over the peak window
    avg_pm25: float
    avg_cloud: float
    clear_sky: bool
    smoky: bool


@dataclass(frozen=True)
class ExcludedDay:
    day: date
    reason: str


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _in_peak(record: SolarRecord) -> bool:
    return PEAK_START_HOUR <= record.timestamp.astimezone(LOCAL).hour < PEAK_END_HOUR


def classify_clear_sky(records: Sequence[SolarRecord]) -> tuple[bool, float]:
    """Smoothness of one day's production curve.

    A day needs at least 8 peak-window records. Score is the normalized
    second-difference energy of the daylight (positive-production) sequence;
    a day is clear when the score is at or below DEFAULT_CLEAR_SKY_THRESHOLD.
    A day with no positive peak-window record (all zero, or an outage over
    the whole window) has no signal there and is never clear.
    """
    peak = [r for r in records if _in_peak(r)]
    if len(peak) < 8:
        raise InsufficientDataError(
            f"need >= 8 peak-window records, got {len(peak)}")
    ordered = sorted(records, key=lambda r: r.timestamp)
    daylight = [r.energy_kwh for r in ordered if r.energy_kwh > 0]
    denom = sum(e * e for e in daylight)
    if (len(daylight) < 3 or denom == 0
            or not any(r.energy_kwh > 0 for r in peak)):
        return False, math.inf
    num = sum((daylight[i + 1] - 2 * daylight[i] + daylight[i - 1]) ** 2
              for i in range(1, len(daylight) - 1))
    score = num / denom
    return score <= DEFAULT_CLEAR_SKY_THRESHOLD, score


def daily_aggregates(solar: Iterable[SolarRecord],
                     cloud: dict[date, float],
                     archive: CuratedArchive,
                     site: tuple[float, float],
                     mode: SamplingMode = SamplingMode.BILINEAR,
                     smoky_flags: dict[date, bool] | None = None
                     ) -> tuple[list[DailyAggregate], list[ExcludedDay]]:
    """Per-day peak-window means of PV output, PM2.5 and cloud cover.

    PM2.5 is sampled hourly at the site over the local peak window; any gap
    drops the day into the exclusion list.
    """
    lat, lon = site
    smoky_flags = smoky_flags or {}

    by_day: dict[date, list[SolarRecord]] = {}
    for rec in solar:
        if not (math.isfinite(rec.energy_kwh) and rec.energy_kwh >= 0):
            raise ValueError(f"energy {rec.energy_kwh} at {rec.timestamp} is "
                             f"not finite and non-negative")
        by_day.setdefault(rec.timestamp.astimezone(LOCAL).date(), []).append(rec)

    aggregates: list[DailyAggregate] = []
    excluded: list[ExcludedDay] = []
    for day in sorted(by_day):
        records = by_day[day]
        try:
            clear, _ = classify_clear_sky(records)
        except InsufficientDataError:
            excluded.append(ExcludedDay(day, "insufficient_solar_records"))
            continue
        if day not in cloud:
            excluded.append(ExcludedDay(day, "no_cloud_data"))
            continue

        t0 = datetime(day.year, day.month, day.day, PEAK_START_HOUR,
                      tzinfo=LOCAL).astimezone(UTC)
        t1 = datetime(day.year, day.month, day.day, PEAK_END_HOUR,
                      tzinfo=LOCAL).astimezone(UTC)
        try:
            series = sample_series(archive, t0, t1, lat, lon, mode)
        except ArchiveError as e:
            excluded.append(ExcludedDay(day, f"pm25_unavailable: {e}"))
            continue
        if series.gaps:
            excluded.append(ExcludedDay(day, "pm25_gap"))
            continue

        peak = [r for r in records if _in_peak(r)]
        avg_output = 4.0 * sum(r.energy_kwh for r in peak) / len(peak)
        avg_pm25 = sum(v for _, v in series.entries) / len(series.entries)
        aggregates.append(DailyAggregate(
            day, avg_output, avg_pm25, cloud[day], clear,
            smoky_flags.get(day, False)))

    if not aggregates and not excluded:
        raise EmptyJoinError("no overlapping dates between inputs")
    return aggregates, excluded


def pair_reference(aggregates: list[DailyAggregate],
                   smoky_day: DailyAggregate) -> DailyAggregate | None:
    """Nearest prior non-smoky clear-sky day within the pairing window. A
    clear-sky day produced in its peak window, so its output is positive."""
    best = None
    for agg in aggregates:
        if agg.day >= smoky_day.day or not agg.clear_sky or agg.smoky:
            continue
        if (smoky_day.day - agg.day).days > PAIRING_WINDOW_DAYS:
            continue
        if best is None or agg.day > best.day:
            best = agg
    return best


def fit_regression(points: Sequence[tuple],
                   cloud_filter: float = DEFAULT_CLOUD_MAX_PCT) -> RegressionFit:
    """Closed-form OLS of ratio on PM2.5.

    Points are (pm25, ratio) or (pm25, ratio, avg_cloud); when cloud is
    present, days above the filter are dropped first.
    """
    kept = [(p[0], p[1]) for p in points
            if len(p) < 3 or p[2] <= cloud_filter]
    if len(kept) < 2:
        raise FitError(f"need >= 2 points after cloud filter, got {len(kept)}")
    xs = [x for x, _ in kept]
    ys = [y for _, y in kept]
    n = len(kept)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise FitError("zero variance in PM2.5")
    sxy = sum((x - xbar) * (y - ybar) for x, y in kept)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_tot = sum((y - ybar) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in kept)
    r2 = 0.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RegressionFit(slope, intercept, max(0.0, min(1.0, r2)), n)


@dataclass
class ReportRow:
    day: date
    avg_pm25: float
    avg_output: float
    ratio: float | None
    clear_sky: bool
    used_in_fit: bool


@dataclass
class AnalysisReport:
    rows: list[ReportRow]
    fit: RegressionFit | None
    excluded: list[ExcludedDay]

    def write_csv(self, path: Path | str) -> None:
        rows = [[r.day.isoformat(), f"{r.avg_pm25:.6g}", f"{r.avg_output:.6g}",
                 "" if r.ratio is None else f"{r.ratio:.6g}",
                 int(r.clear_sky), int(r.used_in_fit)] for r in self.rows]
        if self.fit is not None:
            f = self.fit
            rows.append(["#fit", f"{f.slope:.6g}", f"{f.intercept:.6g}",
                         f"{f.r_squared:.6g}", f.n_points, ""])
        write_table(path, ["date", "avg_pm25", "avg_output", "ratio",
                           "clear_sky", "used_in_fit"], rows)


def run_analysis(archive: CuratedArchive,
                 solar: Iterable[SolarRecord],
                 cloud: dict[date, float],
                 smoky_flags: dict[date, bool],
                 site: tuple[float, float],
                 mode: SamplingMode = SamplingMode.BILINEAR,
                 cloud_max: float = DEFAULT_CLOUD_MAX_PCT) -> AnalysisReport:
    """End-to-end: aggregate days, pair smoky days with clear references,
    filter by cloud cover, fit the trend."""
    aggregates, excluded = daily_aggregates(
        solar, cloud, archive, site, mode, smoky_flags)

    rows: list[ReportRow] = []
    fit_points: list[tuple[float, float, float]] = []
    for agg in aggregates:
        ratio = None
        used = False
        if agg.smoky:
            ref = pair_reference(aggregates, agg)
            if ref is not None:
                ratio = agg.avg_output / ref.avg_output
                if agg.avg_cloud <= cloud_max:
                    fit_points.append((agg.avg_pm25, ratio, agg.avg_cloud))
                    used = True
        rows.append(ReportRow(agg.day, agg.avg_pm25, agg.avg_output, ratio,
                              agg.clear_sky, used))
    try:
        fit = fit_regression(fit_points, cloud_max)
    except FitError:
        fit = None
    return AnalysisReport(rows, fit, excluded)


def read_solar_csv(path: Path | str) -> list[SolarRecord]:
    """CSV with columns timestamp_iso,energy_kwh; naive timestamps are taken
    as `LOCAL` time."""

    def record(row):
        ts = datetime.fromisoformat(row["timestamp_iso"])
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=LOCAL)
        return SolarRecord(ts, float(row["energy_kwh"]))
    return read_table(path, ["timestamp_iso", "energy_kwh"], record)


def read_cloud_csv(path: Path | str) -> dict[date, float]:
    def cloud(row):
        pct = float(row["avg_cloud_pct"])
        if not 0 <= pct <= 100:  # nan too
            raise ValueError(f"avg_cloud_pct {pct} is not within 0..100")
        return date.fromisoformat(row["date"]), pct
    return dict(read_table(path, ["date", "avg_cloud_pct"], cloud))


def read_flags_csv(path: Path | str) -> dict[date, bool]:
    def flag(row):
        smoky = row["smoky"].strip()
        if smoky not in ("0", "1", "false", "true"):
            raise ValueError(f"smoky is {smoky!r}, not 0, 1, false or true")
        return date.fromisoformat(row["date"]), smoky in ("1", "true")
    return dict(read_table(path, ["date", "smoky"], flag))
