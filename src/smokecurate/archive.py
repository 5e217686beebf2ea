"""Curated chronological store: hourly level-0 frames, a 2x box-average
resolution pyramid derived on read, and per-timestep provenance.

The build reads each picked granule's header once and then only its picked
frames, one granule open at a time. A non-finite or negative value, a
truncation or a header fault in a picked frame aborts the build with a
BuildError naming the timestep, the granule and the byte offset; a bad value
in a frame nobody picked is never read and does not stop the build.

On-disk layout (format_version 2):
    manifest.json          geometry, time range, levels, gaps, the grid and
                           timesteps of each stored original, tool version
    provenance.csv         one row per stored timestep: the picked granule's
                           stamps, encoded back from its header's times
    L0/{YYYYMMDD}.bin      one shard per UTC day: that day's stored
                           level-0 frames back to back in hour order, each a
                           row-major little-endian float32 grid
    originals/{YYYYMMDD}.bin  the day's pre-resample frames, the same way,
                           each on its own grid, when resampling occurred

Only level 0 is stored; `levels` is the number of readable levels. A
level-L read costs one level-0 frame plus L box averages, each
`box_downsample` then a cast to float32. Format 2 archives once stored
levels 1 and up as `L{level}/` shards made by the same chain, so a reader
ignores those shards and derives bit-identical values.
Gap hours take no bytes, so a stored hour's frame starts at its slot times
the frame size, its slot being the number of stored hours before it on its
UTC day. `CuratedArchive.open` computes every slot once from the
stored hours of provenance.csv, after checking that they and the manifest's
`gaps` cover `start`..`end` exactly once. A shard must be exactly its day's
stored frames long, and each frame read is one `readinto` of exactly one
frame, straight into the array returned. An original starts after the
day's earlier originals.
An archive is written once: the build writes a new sibling directory and
renames it to its place, and refuses a directory that is not empty. So no
file of another build is ever beside it, and the files an open archive
reads never change. There is no format 1 reader: build such an archive
again, into a new directory, with build-archive.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass
from datetime import date, datetime
from functools import lru_cache
from itertools import groupby
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import __version__
from .granule import FrameReader, GranuleError, GranuleHeader, GridGeometry
from .regrid import Frame, identity_or_resample
from .sequencer import SequencePlan
from .tables import read_table, write_table
from .timecal import (HOUR, JulianStamp, calendar_to_julian, format_iso_z,
                      hour_count, is_hour_step, julian_to_calendar, parse_iso_z)

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
    """The granule picked for a stored hour; its times are aware UTC."""
    forecast_id: str
    created: datetime
    weather_init: datetime
    smoke_init: datetime
    resampled: bool


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


def _shard_name(day: date) -> str:
    return f"{day:%Y%m%d}.bin"


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
                    raise BuildError(f"timestep {format_iso_z(t)}: picked "
                                     f"granule {path} failed to parse: {e}") from e
                at = reader.header.first_frame + pick.frame_index * HOUR
                if at != t:
                    raise BuildError(f"timestep {format_iso_z(t)}: frame "
                                     f"{pick.frame_index} of {path} carries "
                                     f"tflag {format_iso_z(at)}, not the "
                                     f"planned timestep")
                yield t, reader.header, values


def _create(directory: Path, day: date) -> BinaryIO:
    """The new, empty shard of `day` under `directory`, open for writing."""
    directory.mkdir(exist_ok=True)
    return open(directory / _shard_name(day), "xb")


def _write(shard: BinaryIO, values: np.ndarray) -> None:
    """Append one frame to `shard`: a row-major little-endian float32 grid."""
    shard.write(memoryview(np.ascontiguousarray(values, dtype="<f4")))


def build_archive(plan: SequencePlan, canonical: GridGeometry,
                  out: Path | str, levels: int = 1) -> "CuratedArchive":
    """Materialize a plan into a new archive at `out`, built in the sibling
    directory `.{name}.building` and published with one rename; a failed
    build removes that directory and leaves `out` as it was. A `levels`
    that `open` would refuse is a ValueError, and an `out` with no name of
    its own (such as "." or "sub/.."), an `out` that is not an empty
    directory, or a building directory another build left, is an
    ArchiveError naming it, each raised before anything is written."""
    _level_count(levels)
    canonical.validate()
    out = Path(out)
    if out.name in ("", ".."):
        raise ArchiveError(f"{out} does not end in a directory name: build "
                           f"into a named new directory")
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ArchiveError(f"{out} exists and is not an empty directory: "
                           f"an archive is written once; build into a new "
                           f"directory")
    building = out.with_name(f".{out.name}.building")
    try:
        building.mkdir(parents=True)
    except FileExistsError as e:
        raise ArchiveError(f"{building} exists: another build of {out} is "
                           f"running or was interrupted") from e
    try:
        _write_archive(plan, canonical, building, levels)
        try:
            os.rename(building, out)
        except OSError as e:
            raise ArchiveError(f"{out}: build not published: "
                               f"{e.strerror}") from e
    except BaseException:
        shutil.rmtree(building)
        raise
    return CuratedArchive.open(out)


def _write_archive(plan: SequencePlan, canonical: GridGeometry, root: Path,
                   levels: int) -> None:
    """The shards, provenance.csv and then manifest.json of a plan's
    archive, written into the empty directory `root`."""
    rows: list[list] = []  # provenance.csv
    originals: dict[GridGeometry, list[str]] = {}  # timesteps per source grid
    with closing(_picked_frames(plan)) as picked:
        # one open per day shard: opening and closing the shard for each
        # frame made full-grid builds measurably slower
        for day, frames in groupby(picked, key=lambda item: item[0].date()):
            with ExitStack() as shards:
                level0 = shards.enter_context(_create(root / "L0", day))
                original = None
                for t, h, values in frames:
                    src = Frame(h.geometry, values)
                    frame = identity_or_resample(src, canonical)
                    if frame.resampled:
                        if original is None:
                            original = shards.enter_context(
                                _create(root / "originals", day))
                        _write(original, src.values)
                        originals.setdefault(h.geometry, []).append(
                            format_iso_z(t))
                    _write(level0, frame.values)
                    rows.append(_provenance_cells(t, ProvenanceRow(
                        h.forecast_id, h.created, h.weather_init,
                        h.smoke_init, frame.resampled)))

    write_table(root / "provenance.csv", PROVENANCE_COLUMNS, rows)
    manifest = {
        "format_version": 2,
        "tool_version": __version__,
        "geometry": asdict(canonical),
        "start": format_iso_z(plan.start),
        "end": format_iso_z(plan.end),
        "levels": levels,
        "gaps": [format_iso_z(t) for t in plan.gaps],
        "originals": [{"geometry": asdict(g), "timesteps": times}
                      for g, times in originals.items()],
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _provenance_cells(t: datetime, row: ProvenanceRow) -> list:
    """Stored hour `t`'s provenance.csv cells, in PROVENANCE_COLUMNS order."""
    tf, cd, wd, sd = map(calendar_to_julian, (
        t, row.created, row.weather_init, row.smoke_init))
    return [tf.date, tf.time, cd.date, cd.time, wd.date, wd.time, sd.date,
            sd.time, row.forecast_id, "true" if row.resampled else "false",
            format_iso_z(row.weather_init)]


@lru_cache(maxsize=64)
def _granule_time(date: str, time: str) -> datetime:
    # the rows of one granule share its creation, weather and smoke stamps
    return julian_to_calendar(JulianStamp(int(date), int(time)))


def _provenance_entry(row: dict[str, str]) -> tuple[datetime, ProvenanceRow]:
    """The inverse of `_provenance_cells`. Every stamp must decode,
    `resampled` must be true or false, and `wrf_arw_init_time` must be the
    weather stamp's ISO_Z text."""
    t = julian_to_calendar(JulianStamp(int(row["tflag_date"]),
                                       int(row["tflag_time"])))
    created, weather, smoke = (_granule_time(row[f"{p}date"], row[f"{p}time"])
                               for p in "cws")
    if row["resampled"] not in ("true", "false"):
        raise ValueError(f"resampled is {row['resampled']!r}, "
                         f"not true or false")
    if row["wrf_arw_init_time"] != format_iso_z(weather):
        raise ValueError(f"wrf_arw_init_time {row['wrf_arw_init_time']!r} is "
                         f"not the weather stamp's {format_iso_z(weather)}")
    return t, ProvenanceRow(row["forecast_id"], created, weather, smoke,
                            row["resampled"] == "true")


def _level_count(levels: int) -> int:
    if type(levels) is not int or levels < 1:
        raise ValueError(f"{levels!r} is not a positive level count")
    return levels


def _cover_fault(start: datetime, end: datetime, gaps: set[datetime],
                 stored: set[datetime]) -> str | None:
    """Why the gaps and the stored hours do not cover every hour from start
    to end exactly once, or None if they do."""
    stray = sorted(t for t in gaps | stored
                   if not (is_hour_step(t) and start <= t <= end))
    if stray:
        return f"{format_iso_z(stray[0])} is not an hour of the range"
    both = gaps & stored
    if both:
        return f"{format_iso_z(min(both))} is both a gap and stored"
    hours = hour_count(start, end)
    if len(gaps) + len(stored) != hours:
        return (f"{hours} hours from 'start' to 'end', but {len(gaps)} gaps "
                f"and {len(stored)} stored")
    return None


def _day_slots(sizes: dict[datetime, int]) -> dict[datetime, tuple[str, int, int]]:
    """Shard name, offset and shard size of each hour, from each hour's
    size: a day's frames lie back to back in hour order in its shard, and
    an hour not in `sizes` takes no room."""
    slots = {}
    for day, times in groupby(sorted(sizes), key=datetime.date):
        times = list(times)
        offset, total = 0, sum(sizes[t] for t in times)
        for t in times:
            slots[t] = (_shard_name(day), offset, total)
            offset += sizes[t]
    return slots


def _original_slots(groups: list[dict], stored: dict[datetime, tuple]
                    ) -> dict[datetime, tuple[str, int, GridGeometry, int]]:
    """Shard name, byte offset, grid and the shard's size of each stored
    original, from the manifest's groups of timesteps by grid; each
    original is the size of its own grid."""
    grids = {}
    for group in groups:
        grid = GridGeometry(**group["geometry"]).validate()
        for text in group["timesteps"]:
            t = parse_iso_z(text)
            if t not in stored:
                raise ValueError(f"{text} is not a stored timestep")
            grids[t] = grid
    sizes = {t: grid.nrows * grid.ncols * 4 for t, grid in grids.items()}
    return {t: (name, offset, grids[t], size)
            for t, (name, offset, size) in _day_slots(sizes).items()}


@dataclass
class CuratedArchive:
    root: Path
    geometry: GridGeometry
    start: datetime
    end: datetime
    levels: int
    gaps: set[datetime]
    provenance: dict[datetime, ProvenanceRow]
    # stored hour -> shard, slot, the day's stored-hour count
    slots: dict[datetime, tuple[str, int, int]]
    originals: dict[datetime, tuple[str, int, GridGeometry, int]]

    @classmethod
    def open(cls, root: Path | str) -> "CuratedArchive":
        """Open the archive at `root`. A missing, unreadable or malformed
        manifest or provenance file raises ArchiveError naming the file and
        the key or line at fault; gaps and stored hours that do not cover
        the range exactly once, or resampled hours that are not exactly the
        hours with a stored original, name both files."""
        root = Path(root)
        path = root / "manifest.json"
        try:
            manifest = json.loads(path.read_text())
        except OSError as e:
            raise ArchiveError(f"{path}: {e.strerror}") from e
        except ValueError as e:
            raise ArchiveError(f"{path}: not JSON: {e}") from e
        if not isinstance(manifest, dict):
            raise ArchiveError(f"{path}: not a JSON object")
        if manifest.get("format_version") != 2:
            raise ArchiveError(f"{path}: unsupported archive format: "
                               f"{manifest.get('format_version')}; rebuild "
                               f"with build-archive")

        def value(key, parse):
            if key not in manifest:
                raise ArchiveError(f"{path}: no {key!r} key")
            try:
                return parse(manifest[key])
            except (KeyError, TypeError, ValueError) as e:
                raise ArchiveError(f"{path}: bad {key!r}: {e}") from e

        geometry = value("geometry", lambda g: GridGeometry(**g).validate())
        start = value("start", parse_iso_z)
        end = value("end", parse_iso_z)
        # a bad range is a bad end
        value("end", lambda _: hour_count(start, end))
        levels = value("levels", _level_count)
        gaps = value("gaps", lambda texts: set(map(parse_iso_z, texts)))

        table = root / "provenance.csv"
        try:
            provenance = dict(read_table(table, PROVENANCE_COLUMNS,
                                         _provenance_entry))
        except OSError as e:
            raise ArchiveError(f"{table}: {e.strerror}") from e
        except ValueError as e:
            raise ArchiveError(str(e)) from e
        fault = _cover_fault(start, end, gaps, set(provenance))
        if fault:
            raise ArchiveError(f"{path} and {table} disagree: {fault}")
        slots = _day_slots(dict.fromkeys(provenance, 1))
        originals = value("originals",
                          lambda groups: _original_slots(groups, slots))
        resampled = {t for t, row in provenance.items() if row.resampled}
        if resampled != originals.keys():
            t = min(resampled ^ originals.keys())
            raise ArchiveError(
                f"{path} and {table} disagree: {format_iso_z(t)} "
                + ("is resampled but has no original" if t in resampled
                   else "has an original but is not resampled"))
        return cls(root, geometry, start, end, levels, gaps, provenance,
                   slots, originals)

    def _check_range(self, t: datetime) -> None:
        if not self.start <= t <= self.end:
            raise ArchiveError(f"{t} outside archive range "
                               f"{self.start}..{self.end}")

    def _neighbors(self, t: datetime) -> tuple[datetime | None, datetime | None]:
        """The nearest stored hours before and after `t`, if any."""
        return (max((s for s in self.provenance if s < t), default=None),
                min((s for s in self.provenance if s > t), default=None))

    def _read(self, path: Path, offset: int, shape: tuple[int, int],
              shard_size: int, t: datetime) -> np.ndarray:
        """The float32 frame of `shape` at byte `offset` of the shard at
        `path`, read straight into the array returned. A shard that is not
        exactly `shard_size` bytes raises ArchiveError naming the shard,
        both sizes and the hour."""
        values = np.empty(shape, dtype="<f4")
        got = 0
        try:
            with open(path, "rb", buffering=0) as f:
                actual = os.fstat(f.fileno()).st_size
                if actual == shard_size:
                    f.seek(offset)
                    got = f.readinto(values)
        except OSError as e:
            raise ArchiveError(f"shard {path} unreadable: {e}") from e
        if got != values.nbytes:
            raise ArchiveError(f"shard {path} is {actual} bytes, not "
                               f"{shard_size}; hour {format_iso_z(t)} "
                               f"not read")
        return values

    def read_frame(self, t: datetime,
                   level: int = 0) -> tuple[Frame, ProvenanceRow]:
        """One timestep at one level: one level-0 frame read, whatever the
        archive's duration, box-averaged `level` times. Gap timesteps raise
        GapError with the nearest neighbors."""
        if not 0 <= level < self.levels:
            raise ArchiveError(f"level {level} outside 0..{self.levels - 1}")
        self._check_range(t)
        if t in self.gaps:
            raise GapError(t, *self._neighbors(t))
        g = self.geometry
        name, slot, count = self.slots[t]
        size = g.nrows * g.ncols * 4
        values = self._read(self.root / "L0" / name, slot * size,
                            (g.nrows, g.ncols), count * size, t)
        for _ in range(level):
            values = box_downsample(values).astype(np.float32)
        row = self.provenance[t]
        return (Frame(level_geometry(g, level), values,
                      resampled=row.resampled), row)

    def read_original(self, t: datetime) -> np.ndarray | None:
        """Pre-resample frame as an (nrows, ncols) array on the grid the
        manifest records for it, if one was stored for this timestep."""
        self._check_range(t)
        if t not in self.originals:
            return None
        name, offset, grid, shard_size = self.originals[t]
        return self._read(self.root / "originals" / name, offset,
                          (grid.nrows, grid.ncols), shard_size, t)
