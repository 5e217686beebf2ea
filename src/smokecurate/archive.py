"""Curated chronological store: hourly level-0 frames, a 2x box-average
resolution pyramid, per-timestep provenance, and progressive reads.

The build reads each picked granule's header once and then only its picked
frames, one granule open at a time. A non-finite or negative value, a
truncation or a header fault in a picked frame aborts the build with a
BuildError naming the timestep, the granule and the byte offset; a bad value
in a frame nobody picked is never read and does not stop the build.

On-disk layout:
    manifest.json          geometry, time range, levels, gaps, tool version
    provenance.csv         one row per stored timestep: the picked granule's
                           stamps, encoded back from its header's times
    L{level}/{index:08}.bin row-major little-endian float32 chunks
    originals/{index:08}.bin  pre-resample frames, when resampling occurred
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import ExitStack, closing
from dataclasses import dataclass
from datetime import datetime
from itertools import groupby
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .granule import FrameReader, GranuleError, GranuleHeader, GridGeometry
from .regrid import Frame, identity_or_resample
from .sequencer import ISO_Z, SequencePlan
from .timecal import (HOUR, UTC, JulianStamp, calendar_to_julian, hour_range,
                      julian_to_calendar)

PROVENANCE_COLUMNS = ["tflag_date", "tflag_time", "cdate", "ctime", "wdate",
                      "wtime", "sdate", "stime", "forecast_id", "resampled",
                      "wrf_arw_init_time"]


class ArchiveError(Exception):
    pass


class BuildError(ArchiveError):
    """A picked granule could not be opened, or its header or picked frame
    failed to parse during materialization."""


class GapError(ArchiveError):
    """The requested timestep is a known gap, not stored data."""

    def __init__(self, timestep: datetime, before: datetime | None,
                 after: datetime | None):
        self.timestep = timestep
        self.nearest_before = before
        self.nearest_after = after
        super().__init__(f"{timestep} is a gap "
                         f"(nearest covered: {before} / {after})")


@dataclass(frozen=True)
class ProvenanceRow:
    tflag_date: int
    tflag_time: int
    cdate: int
    ctime: int
    wdate: int
    wtime: int
    sdate: int
    stime: int
    forecast_id: str
    resampled: bool
    wrf_arw_init_time: str


def level_shape(geom: GridGeometry, level: int) -> tuple[int, int]:
    rows, cols = geom.nrows, geom.ncols
    for _ in range(level):
        rows = (rows + 1) // 2
        cols = (cols + 1) // 2
    return rows, cols


def level_geometry(geom: GridGeometry, level: int) -> GridGeometry:
    rows, cols = level_shape(geom, level)
    f = 2 ** level
    return GridGeometry(rows, cols, geom.lat0, geom.lon0,
                        geom.dlat * f, geom.dlon * f)


def box_downsample(values: np.ndarray) -> np.ndarray:
    """2x2 box average with edge-partial cells, in float64.

    Each block [[a, b], [c, d]] sums as (a+b)+(c+d) and divides by 4; an
    edge-partial pair sums as (a+b) and divides by 2; an odd corner is copied.
    The order is fixed, so a block's result does not depend on the array's
    size. Strided views of the input are summed into the output (plus one
    output-sized temporary for (c+d)); the input is never copied or padded."""
    v = np.asarray(values)
    rows, cols = v.shape
    hr, hc = rows // 2, cols // 2
    out = np.empty(((rows + 1) // 2, (cols + 1) // 2))
    even, odd = slice(0, 2 * hc, 2), slice(1, 2 * hc, 2)
    top, bottom = v[0:2 * hr:2], v[1:2 * hr:2]
    full = out[:hr, :hc]
    np.add(top[:, even], top[:, odd], out=full, dtype=np.float64)
    full += np.add(bottom[:, even], bottom[:, odd], dtype=np.float64)
    full /= 4
    if cols % 2:
        right = out[:hr, hc]
        np.add(top[:, -1], bottom[:, -1], out=right, dtype=np.float64)
        right /= 2
    if rows % 2:
        last = out[hr, :hc]
        np.add(v[-1, even], v[-1, odd], out=last, dtype=np.float64)
        last /= 2
        if cols % 2:
            out[hr, hc] = v[-1, -1]
    return out


def _chunk_name(index: int) -> str:
    return f"{index:08}.bin"


def _picked_frames(plan: SequencePlan
                   ) -> Iterator[tuple[datetime, GranuleHeader, np.ndarray]]:
    """(timestep, header, float32 frame) for every pick in time order.
    Time-sorted picks of one granule mostly form one run, so one granule is
    open at a time and each header is parsed once."""
    headers: dict[Path, GranuleHeader] = {}
    for path, run in groupby(sorted(plan.picks.items()),
                             key=lambda item: Path(item[1].path)):
        with ExitStack() as files:
            reader = None
            for t, pick in run:
                try:
                    if reader is None:
                        f = files.enter_context(open(path, "rb"))
                        reader = FrameReader(f, headers.get(path))
                        headers[path] = reader.header
                    values = reader.read_frame(pick.frame_index)
                except (OSError, GranuleError, IndexError) as e:
                    raise BuildError(f"timestep {t.strftime(ISO_Z)}: picked "
                                     f"granule {path} failed to parse: {e}") from e
                at = reader.header.first_frame + pick.frame_index * HOUR
                if at != t:
                    raise BuildError(f"timestep {t.strftime(ISO_Z)}: frame "
                                     f"{pick.frame_index} of {path} carries "
                                     f"tflag {at.strftime(ISO_Z)}, not the "
                                     f"planned timestep")
                yield t, reader.header, values


def build_archive(plan: SequencePlan, canonical: GridGeometry,
                  out: Path | str, levels: int = 1) -> "CuratedArchive":
    """Materialize a plan into the on-disk archive; the manifest is written
    last so an interrupted build leaves no readable archive behind."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    canonical.validate()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for lv in range(levels):
        (out / f"L{lv}").mkdir(exist_ok=True)
    orig_dir = out / "originals"

    rows: list[ProvenanceRow] = []
    any_resampled = False
    with closing(_picked_frames(plan)) as picked:
        for t, h, values in picked:
            src = Frame(h.geometry, values)
            frame = identity_or_resample(src, canonical)
            idx = int((t - plan.start) / HOUR)
            if frame.resampled:
                if not any_resampled:
                    orig_dir.mkdir(exist_ok=True)
                _write_chunk(orig_dir / _chunk_name(idx), src.values)
                any_resampled = True
            level_values = np.asarray(frame.values, dtype=np.float32)
            for lv in range(levels):
                _write_chunk(out / f"L{lv}" / _chunk_name(idx), level_values)
                if lv + 1 < levels:
                    level_values = box_downsample(level_values).astype(np.float32)
            tf, cd, wd, sd = map(calendar_to_julian,
                                 (t, h.created, h.weather_init, h.smoke_init))
            rows.append(ProvenanceRow(
                tf.date, tf.time, cd.date, cd.time, wd.date, wd.time,
                sd.date, sd.time, h.forecast_id, frame.resampled,
                h.weather_init.strftime(ISO_Z)))

    _write_provenance(out / "provenance.csv", rows)
    manifest = {
        "format_version": 1,
        "tool_version": __version__,
        "geometry": {"nrows": canonical.nrows, "ncols": canonical.ncols,
                     "lat0": canonical.lat0, "lon0": canonical.lon0,
                     "dlat": canonical.dlat, "dlon": canonical.dlon},
        "start": plan.start.strftime(ISO_Z),
        "end": plan.end.strftime(ISO_Z),
        "levels": levels,
        "gaps": [t.strftime(ISO_Z) for t in plan.gaps],
        "originals": any_resampled,
    }
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, out / "manifest.json")
    return CuratedArchive.open(out)


def _write_chunk(path: Path, values: np.ndarray) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as f:
        f.write(memoryview(np.ascontiguousarray(values, dtype="<f4")))
    os.replace(tmp, path)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise ArchiveError(f"chunk {path} unreadable: {e}") from e


def _write_provenance(path: Path, rows: list[ProvenanceRow]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(PROVENANCE_COLUMNS)
        for r in rows:
            w.writerow([r.tflag_date, r.tflag_time, r.cdate, r.ctime,
                        r.wdate, r.wtime, r.sdate, r.stime, r.forecast_id,
                        "true" if r.resampled else "false",
                        r.wrf_arw_init_time])


@dataclass
class WindowResult:
    times: list[datetime]
    values: np.ndarray          # (ntimes, nrows, ncols) for covered steps
    latitudes: np.ndarray
    longitudes: np.ndarray
    gaps: list[datetime]


@dataclass
class CuratedArchive:
    root: Path
    geometry: GridGeometry
    start: datetime
    end: datetime
    levels: int
    gaps: set[datetime]
    provenance: dict[datetime, ProvenanceRow]
    bytes_read: int = 0  # instrumentation for progressive-cost checks
    has_originals: bool = False

    @classmethod
    def open(cls, root: Path | str) -> "CuratedArchive":
        root = Path(root)
        manifest = json.loads((root / "manifest.json").read_text())
        if manifest.get("format_version") != 1:
            raise ArchiveError(f"unsupported archive format: "
                               f"{manifest.get('format_version')}")
        g = manifest["geometry"]
        geometry = GridGeometry(g["nrows"], g["ncols"], g["lat0"], g["lon0"],
                                g["dlat"], g["dlon"])
        start = datetime.strptime(manifest["start"], ISO_Z).replace(tzinfo=UTC)
        end = datetime.strptime(manifest["end"], ISO_Z).replace(tzinfo=UTC)
        gaps = {datetime.strptime(s, ISO_Z).replace(tzinfo=UTC)
                for s in manifest["gaps"]}
        provenance = {}
        with open(root / "provenance.csv", newline="") as f:
            for row in csv.DictReader(f):
                pr = ProvenanceRow(
                    int(row["tflag_date"]), int(row["tflag_time"]),
                    int(row["cdate"]), int(row["ctime"]),
                    int(row["wdate"]), int(row["wtime"]),
                    int(row["sdate"]), int(row["stime"]),
                    row["forecast_id"], row["resampled"] == "true",
                    row["wrf_arw_init_time"])
                t = julian_to_calendar(JulianStamp(pr.tflag_date, pr.tflag_time))
                provenance[t] = pr
        return cls(root, geometry, start, end, manifest["levels"], gaps,
                   provenance, has_originals=manifest.get("originals", False))

    def _index_of(self, t: datetime) -> int:
        if not self.start <= t <= self.end:
            raise ArchiveError(f"{t} outside archive range "
                               f"{self.start}..{self.end}")
        return int((t - self.start) / HOUR)

    def _neighbors(self, t: datetime) -> tuple[datetime | None, datetime | None]:
        before = after = None
        step = t - HOUR
        while step >= self.start:
            if step not in self.gaps:
                before = step
                break
            step -= HOUR
        step = t + HOUR
        while step <= self.end:
            if step not in self.gaps:
                after = step
                break
            step += HOUR
        return before, after

    def _read_chunk(self, t: datetime, level: int) -> np.ndarray:
        idx = self._index_of(t)
        if t in self.gaps:
            raise GapError(t, *self._neighbors(t))
        path = self.root / f"L{level}" / _chunk_name(idx)
        data = _read_bytes(path)
        self.bytes_read += len(data)
        rows, cols = level_shape(self.geometry, level)
        if len(data) != rows * cols * 4:
            raise ArchiveError(f"chunk {path} is {len(data)} bytes, "
                               f"expected {rows * cols * 4}")
        return np.frombuffer(data, dtype="<f4").reshape(rows, cols).copy()

    def read_frame(self, t: datetime,
                   level: int = 0) -> tuple[Frame, ProvenanceRow]:
        """One timestep at one level; byte cost is independent of archive
        duration. Gap timesteps raise GapError with the nearest neighbors."""
        if not 0 <= level < self.levels:
            raise ArchiveError(f"level {level} outside 0..{self.levels - 1}")
        values = self._read_chunk(t, level)
        row = self.provenance[t]
        return (Frame(level_geometry(self.geometry, level), values,
                      resampled=row.resampled), row)

    def read_original(self, t: datetime) -> np.ndarray | None:
        """Pre-resample frame, if one was stored for this timestep."""
        path = self.root / "originals" / _chunk_name(self._index_of(t))
        if not path.is_file():
            return None
        data = _read_bytes(path)
        self.bytes_read += len(data)
        # the pre-resample geometry is not recorded, so the size can only be
        # checked to hold whole float32 values of at least a 2x2 grid
        if len(data) % 4 or len(data) < 16:
            raise ArchiveError(f"original chunk {path} is {len(data)} bytes, "
                               f"expected a multiple of 4 of at least 16")
        return np.frombuffer(data, dtype="<f4").copy()

    def read_window(self, t0: datetime, t1: datetime,
                    bbox: tuple[float, float, float, float],
                    level: int = 0) -> WindowResult:
        """Time-major subarray over [t0, t1] x bbox (lat_min, lat_max,
        lon_min, lon_max); gap slices are omitted and listed."""
        if t0 > t1:
            raise ValueError("t0 after t1")
        if not 0 <= level < self.levels:
            raise ArchiveError(f"level {level} outside 0..{self.levels - 1}")
        lat_min, lat_max, lon_min, lon_max = bbox
        geom = level_geometry(self.geometry, level)
        lats = geom.latitudes()
        lons = geom.longitudes()
        rsel = np.nonzero((lats >= lat_min) & (lats <= lat_max))[0]
        csel = np.nonzero((lons >= lon_min) & (lons <= lon_max))[0]
        if rsel.size == 0 or csel.size == 0:
            raise ArchiveError(f"bbox {bbox} selects no grid points")
        times, slabs, gaps = [], [], []
        for t in hour_range(t0, t1):
            try:
                values = self._read_chunk(t, level)
            except GapError:
                gaps.append(t)
                continue
            times.append(t)
            slabs.append(values[np.ix_(rsel, csel)])
        values = (np.stack(slabs) if slabs
                  else np.empty((0, rsel.size, csel.size), dtype=np.float32))
        return WindowResult(times, values, lats[rsel], lons[csel], gaps)
