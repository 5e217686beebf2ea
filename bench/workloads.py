"""Workload inputs, the operations the benchmark times, and the checks that
run after each operation, outside its timed region.

Each operation drives one user job through the public calls the matching CLI
commands make, in the CLI's order; the `cli` module itself only parses flags
and is not exercised. Every call into a layer is wrapped in a span by the
benchmark (see tracing.py).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from datetime import date, datetime, time as dtime, timedelta, timezone
from pathlib import Path

import numpy as np

from smokecurate import corpusgen, fetcher, indexer, pvanalysis, sequencer
from smokecurate.archive import CuratedArchive, build_archive
from smokecurate.granule import GridGeometry, parse_granule_bytes
from smokecurate.query import SamplingMode, sample_series
from smokecurate.timecal import HOUR, UTC, hour_range, julian_to_calendar

START = date(2022, 3, 1)
IDS = corpusgen.DEFAULT_FORECAST_IDS
HORIZON_HOURS = 84
LEVELS = 3
SERIES_HOURS = 24
ANALYZE_EVERY = 10          # every tenth query-workload operation is an analyze
ANALYSIS_DAYS = 5           # local days whose peak window the archive covers
PEAK_HOURS_PER_DAY = (pvanalysis.PEAK_END_HOUR - pvanalysis.PEAK_START_HOUR + 1)
LOCAL = timezone(timedelta(hours=pvanalysis.DEFAULT_UTC_OFFSET_HOURS))

# manifest outcome of a scheduled run -> the fetch outcome it must produce
FETCH_OUTCOME = {"ok": "downloaded", "missing": "not_found",
                 "html": "invalid_content", "truncated": "invalid_content"}


@dataclass(frozen=True)
class Inputs:
    """A corpus of the four native streams and how it is curated."""

    geometry: GridGeometry
    drift_geometry: GridGeometry
    days: int
    drift_days: int             # runs before START + drift_days use the drift grid
    faults: corpusgen.FaultProfile

    @property
    def end(self) -> date:
        return START + timedelta(days=self.days - 1)

    def spec(self, forecast_id: str, seed: int) -> corpusgen.CorpusSpec:
        """Only the run the fetcher requests for this stream: its native init
        hour. Granules are byte-identical to the combined spec's."""
        return corpusgen.CorpusSpec(
            start_date=START, end_date=self.end, forecast_ids=(forecast_id,),
            init_hours=(fetcher.embedded_init_hour(forecast_id),),
            horizon_hours=HORIZON_HOURS, geometry=self.geometry,
            drift_geometry=self.drift_geometry,
            drift_cutoff=START + timedelta(days=self.drift_days),
            fault_profile=self.faults, seed=seed)

    def plan_range(self) -> tuple[datetime, datetime]:
        first = datetime(START.year, START.month, START.day, tzinfo=UTC)
        last_init = max(fetcher.embedded_init_hour(f) for f in IDS)
        last = datetime(self.end.year, self.end.month, self.end.day, last_init,
                        tzinfo=UTC) + (HORIZON_HOURS - 1) * HOUR
        return first, last

    @property
    def cells(self) -> int:
        return self.geometry.nrows * self.geometry.ncols


DESK = Inputs(corpusgen.DESK_GEOMETRY, corpusgen.DESK_DRIFT_GEOMETRY,
              days=60, drift_days=20,
              faults=corpusgen.FaultProfile(missing_run_rate=0.10,
                                            html_rate=0.02,
                                            truncation_rate=0.02))
FULL = Inputs(corpusgen.FULL_GEOMETRY, corpusgen.FULL_DRIFT_GEOMETRY,
              days=2, drift_days=1, faults=corpusgen.FaultProfile())
INPUTS = {"desk-curate": DESK, "full-curate": FULL, "query": FULL}


def generate(inputs: Inputs, seed: int, root: Path) -> dict[str, str]:
    """Write the seed's corpus under `root` in the portal layout; return the
    fetch outcome each scheduled run must end in, keyed "<id> <date>"."""
    parts = root.with_name(root.name + ".parts")
    root.mkdir(parents=True)
    expected = {}
    for fid in IDS:
        manifest = corpusgen.generate_corpus(inputs.spec(fid, seed), parts / fid)
        if (parts / fid / fid).is_dir():
            (parts / fid / fid).rename(root / fid)
        for e in manifest.entries:
            expected[f"{fid} {e.init.date()}"] = FETCH_OUTCOME[e.outcome]
    shutil.rmtree(parts)
    return expected


@dataclass
class Curated:
    report: fetcher.FetchReport
    records: list[indexer.ScanRecord]
    plan: sequencer.SequencePlan
    archive: CuratedArchive


def curate(inputs: Inputs, corpus: Path, work: Path, tracer) -> Curated:
    """Empty cache to opened archive: fetch, sequence, build-archive, open."""
    cache = work / "cache"
    plan_csv = work / "plan.csv"
    with tracer.span("fetcher", "fetch_range") as s:
        report = fetcher.fetch_range(fetcher.SourceEndpoint(str(corpus)), list(IDS),
                                     START, inputs.end, cache,
                                     parallel=os.cpu_count() or 1)
        report.write_csv(work / "fetch_report.csv")
        s.info["jobs"] = len(report.records)
        for outcome, key in (("downloaded", "downloaded"), ("not_found", "not_found"),
                             ("invalid_content", "rejected")):
            s.info[key] = len(report.by_outcome(outcome))
    with tracer.span("indexer", "scan_cache") as s:
        records = indexer.scan_cache(cache, inputs.geometry, inputs.drift_geometry)
        s.info["files"] = len(records)
    with tracer.span("indexer", "build_coverage") as s:
        index = indexer.build_coverage(records)
        s.info["candidate_frames"] = sum(len(c) for c in index.by_timestep.values())
    with tracer.span("sequencer", "plan_sequence") as s:
        plan = sequencer.plan_sequence(index, *inputs.plan_range())
        s.info["picks"] = len(plan.picks)
        s.info["gaps"] = len(plan.gaps)
    with tracer.span("sequencer", "write_plan_csv"):
        sequencer.write_plan_csv(plan, plan_csv, inputs.geometry)
        sequencer.write_gaps_csv(plan, work / "gaps.csv")
    with tracer.span("sequencer", "read_plan_csv"):
        planned = sequencer.read_plan_csv(plan_csv)
    with tracer.span("archive", "build_archive"):
        build_archive(planned, inputs.geometry, work / "archive", LEVELS)
    with tracer.span("archive", "open"):
        archive = CuratedArchive.open(work / "archive")
    return Curated(report, records, plan, archive)


def stored_files(root: Path) -> tuple[int, int]:
    """(chunk files, total bytes of all files) under an archive directory."""
    chunks = size = 0
    for p in root.rglob("*"):
        if p.is_file():
            size += p.stat().st_size
            chunks += p.suffix == ".bin"
    return chunks, size


def archive_digest(archive: CuratedArchive) -> str:
    """Digest of every level-0 frame and provenance row, read through the
    public API so that it compares archives across on-disk layouts."""
    h = hashlib.sha256()
    for t in hour_range(archive.start, archive.end):
        h.update(t.isoformat().encode())
        if t in archive.gaps:
            h.update(b"gap")
            continue
        frame, row = archive.read_frame(t)
        h.update(np.ascontiguousarray(frame.values, dtype="<f4").tobytes())
        h.update(repr(dataclasses.astuple(row)).encode())
    return h.hexdigest()


class CurateBench:
    """desk-curate and full-curate: every operation curates the corpus from
    an empty cache and archive, which are deleted afterwards."""

    main_kind = "curate"
    cycle_ops = 1

    def __init__(self, inputs: Inputs, setup: dict, work: Path):
        self.inputs = inputs
        self.corpus = Path(setup["corpus"])
        self.expected = setup["expected"]
        self.work = work / "op"
        self.reference = None      # (picks, gaps, digest) of a fully checked op
        self.digests: set[str] = set()

    def plan(self, i: int) -> tuple[str, None]:
        return "curate", None

    def run(self, params, tracer, span) -> Curated:
        self.work.mkdir(parents=True)
        out = curate(self.inputs, self.corpus, self.work, tracer)
        span.info["hours"] = len(out.plan.picks)
        span.info["values"] = len(out.plan.picks) * self.inputs.cells
        return out

    def account(self, out: Curated, span) -> None:
        """Facts read from disk after the timed region."""
        span.info["chunks_written"], span.info["stored_bytes"] = \
            stored_files(self.work / "archive")

    def check(self, i: int, out: Curated) -> dict[str, bool]:
        got = {f"{r.forecast_id} {r.date}": r.outcome for r in out.report.records}
        checks = {"fetch_outcomes_match_manifest": got == self.expected}
        picks = {t: (str(p.path), p.frame_index) for t, p in out.plan.picks.items()}
        digest = archive_digest(out.archive)
        self.digests.add(digest)
        if self.reference is None:
            oracle_picks, oracle_gaps, chunks_ok = self._full_parse_check(out, picks)
            checks["plan_matches_brute_force_oracle"] = \
                picks == oracle_picks and out.plan.gaps == oracle_gaps
            checks["level0_chunks_match_picked_frames"] = chunks_ok
            if all(checks.values()):
                self.reference = (picks, out.plan.gaps, digest)
        else:
            ref_picks, ref_gaps, ref_digest = self.reference
            checks["plan_matches_brute_force_oracle"] = \
                picks == ref_picks and out.plan.gaps == ref_gaps
            checks["level0_chunks_match_picked_frames"] = digest == ref_digest
        return checks

    def _full_parse_check(self, out: Curated, picks):
        """Criterion 01's oracle (full parse of every valid granule, argmax of
        (smoke init, created, forecast id) per hour), plus: each level-0
        frame equals its picked frame bit for bit unless provenance says it
        was resampled, and it says so exactly when the grid differs."""
        picked_by_path: dict[str, list[tuple[datetime, int]]] = {}
        for t, (path, i) in picks.items():
            picked_by_path.setdefault(path, []).append((t, i))
        frames: dict[datetime, list] = {}
        chunks_ok = True
        for r in out.records:
            if not r.ok:
                continue
            g = parse_granule_bytes(r.path.read_bytes())
            key = (g.header.smoke_init, g.header.created, g.header.forecast_id)
            for i, stamp in enumerate(g.tflag):
                frames.setdefault(julian_to_calendar(stamp), []).append(
                    (key, str(r.path), i))
            drifted = g.header.geometry != self.inputs.geometry
            for t, i in picked_by_path.get(str(r.path), []):
                frame, row = out.archive.read_frame(t)
                if row.resampled != drifted or (
                        not drifted and frame.values.tobytes() != g.pm25[i].tobytes()):
                    chunks_ok = False
        oracle_picks, oracle_gaps = {}, []
        for t in hour_range(*self.inputs.plan_range()):
            eligible = [f for f in frames.get(t, []) if f[0][0] <= t]
            if eligible:
                oracle_picks[t] = max(eligible)[1:]
            else:
                oracle_gaps.append(t)
        return oracle_picks, oracle_gaps, chunks_ok

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_analysis_inputs(archive: CuratedArchive, work: Path) -> dict:
    """PV, cloud and smoke-flag CSVs for an analysis site, built the way
    acceptance criterion 10 builds them: local day 1 is a clear, non-smoky
    reference; on the later, smoky days PV output is attenuated by
    exp(-0.004 * PM2.5) of the site's peak-window mean. The site is the grid
    node whose daily PM2.5 varies most over the smoky days."""
    g = archive.geometry
    days = [START + timedelta(days=k) for k in range(ANALYSIS_DAYS)]
    daily = []
    for day in days:
        t0 = datetime(day.year, day.month, day.day, pvanalysis.PEAK_START_HOUR,
                      tzinfo=LOCAL).astimezone(UTC)
        hours = hour_range(t0, t0 + (PEAK_HOURS_PER_DAY - 1) * HOUR)
        daily.append(sum(archive.read_frame(t)[0].values.astype(np.float64)
                         for t in hours) / len(hours))
    daily = np.stack(daily)[:, : g.nrows - 1, : g.ncols - 1]
    r, c = np.unravel_index(int(np.argmax(daily[1:].var(axis=0))), daily.shape[1:])
    pm = daily[:, r, c]

    solar, cloud, flags = work / "solar.csv", work / "cloud.csv", work / "flags.csv"
    with open(solar, "w") as f:
        f.write("timestamp_iso,energy_kwh\n")
        for k, day in enumerate(days):
            scale = 1.0 if k == 0 else math.exp(-0.004 * float(pm[k]))
            for q in range(4 * 6, 4 * 20):
                hours = q / 4.0
                e = max(5.0 * math.sin(math.pi * (hours - 6.0) / 14.0) * 0.25, 0.0)
                ts = datetime.combine(day, dtime(0)) + timedelta(hours=hours)
                f.write(f"{ts.isoformat()},{e * scale!r}\n")
    cloud.write_text("date,avg_cloud_pct\n"
                     + "".join(f"{d.isoformat()},5.0\n" for d in days))
    flags.write_text("date,smoky\n" + "".join(
        f"{d.isoformat()},{int(k > 0)}\n" for k, d in enumerate(days)))
    return {"site": [g.lat0 + int(r) * g.dlat, g.lon0 + int(c) * g.dlon],
            "solar": str(solar), "cloud": str(cloud), "flags": str(flags)}


@dataclass
class QueryOutput:
    archive: CuratedArchive
    series: object = None
    report: object = None
    params: tuple = field(default=())


class QueryBench:
    """query: a closed loop of one client reading the archive curated during
    set-up. Operations mirror `smokecurate query`; every tenth mirrors
    `smokecurate analyze`."""

    main_kind = "query"
    cycle_ops = ANALYZE_EVERY

    def __init__(self, inputs: Inputs, setup: dict, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.archive_dir = Path(setup["archive"])
        self.analysis = setup["analysis"]
        self.start = datetime.fromisoformat(setup["archive_start"])
        self.hours = setup["archive_hours"]

    def plan(self, i: int) -> tuple[str, tuple | None]:
        """Operation i's kind and, for a query, its seeded in-extent site and
        24-hour window; query modes alternate."""
        if i % ANALYZE_EVERY == ANALYZE_EVERY - 1:
            return "analyze", None
        rng = np.random.default_rng([self.seed, i])
        g = self.inputs.geometry
        lat = g.lat0 + float(rng.uniform(0, g.nrows - 1)) * g.dlat
        lon = g.lon0 + float(rng.uniform(0, g.ncols - 1)) * g.dlon
        t0 = self.start + int(rng.integers(0, self.hours - SERIES_HOURS + 1)) * HOUR
        nth_query = i - i // ANALYZE_EVERY
        mode = (SamplingMode.SOUTHWEST_CORNER if nth_query % 2 == 0
                else SamplingMode.BILINEAR)
        return "query", (t0, lat, lon, mode)

    def run(self, params, tracer, span) -> QueryOutput:
        with tracer.span("archive", "open"):
            archive = CuratedArchive.open(self.archive_dir)
        if params is None:
            a = self.analysis
            with tracer.span("pvanalysis", "read_csv"):
                records = pvanalysis.read_solar_csv(a["solar"])
                clouds = pvanalysis.read_cloud_csv(a["cloud"])
                smoky = pvanalysis.read_flags_csv(a["flags"])
            with tracer.span("pvanalysis", "run_analysis") as s:
                report = pvanalysis.run_analysis(archive, records, clouds, smoky,
                                                 tuple(a["site"]),
                                                 SamplingMode.BILINEAR)
                s.info["days"] = len(report.rows)
                s.info["excluded_days"] = len(report.excluded)
            span.info["days"] = len(report.rows)
            span.info["values"] = span.info["hours"] = \
                ANALYSIS_DAYS * PEAK_HOURS_PER_DAY
            return QueryOutput(archive, report=report)
        t0, lat, lon, mode = params
        with tracer.span("query", "sample_series") as s:
            series = sample_series(archive, t0, t0 + (SERIES_HOURS - 1) * HOUR,
                                   lat, lon, mode)
            s.info["samples"] = len(series.entries)
            s.info["gaps"] = len(series.gaps)
        span.info["values"] = span.info["hours"] = len(series.entries)
        return QueryOutput(archive, series=series, params=params)

    def account(self, out: QueryOutput, span) -> None:
        pass

    def check(self, i: int, out: QueryOutput) -> dict[str, bool]:
        if out.report is not None:
            fit = out.report.fit
            return {"analysis_slope_negative": fit is not None and fit.slope < 0}
        t0, lat, lon, mode = out.params
        g = out.archive.geometry
        fy, fx = (lat - g.lat0) / g.dlat, (lon - g.lon0) / g.dlon
        ok = (len(out.series.entries) + len(out.series.gaps) == SERIES_HOURS
              and set(out.series.gaps) <= out.archive.gaps)
        for t, v in out.series.entries:
            values = out.archive.read_frame(t)[0].values
            if mode is SamplingMode.SOUTHWEST_CORNER:
                ok &= v == float(values[math.floor(fy), math.floor(fx)])
            else:
                iy = min(math.floor(fy), g.nrows - 2)
                ix = min(math.floor(fx), g.ncols - 2)
                cell = values[iy: iy + 2, ix: ix + 2]
                tol = 1e-9 * max(1.0, float(cell.max()))
                ok &= float(cell.min()) - tol <= v <= float(cell.max()) + tol
        return {"samples_follow_sampling_rule": bool(ok)}

    def cleanup(self) -> None:
        pass
