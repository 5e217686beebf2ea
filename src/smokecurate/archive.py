"""Curated chronological store: hourly level-0 frames, a 2x box-average
resolution pyramid derived on read, and per-timestep provenance.

The build reads each picked granule's header once and then only its picked
frames. It builds each UTC day's shards as one task, on as many threads as
`granule.pool_width`, the one width rule, gives the canonical grid: one per
CPU this process may run on when a level-0 frame has at least
PARALLEL_FRAME_BYTES, else the calling thread. Each running day holds one
frame plus its resample temporaries and has one granule open. A non-finite
or negative value, a truncation or a header fault in a picked frame aborts
the build with a BuildError naming the earliest such timestep, the granule
and the byte offset, whatever the pool width; a bad value in a frame nobody
picked is never read and does not stop the build.

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
`box_downsample` (pad, then pair) then a cast to float32. Format 2 archives
once stored levels 1 and up as `L{level}/` shards made by the same chain,
so a reader ignores those shards and derives bit-identical values.
Every stored frame, level 0 or original, has one slot record: (shard name,
byte offset, grid, shard bytes). `_day_slots` builds them from each hour's
grid: a day's frames lie back to back in hour order, and gap hours take no
bytes. `CuratedArchive.open` builds every slot once, after checking that
provenance.csv's stored hours and the manifest's `gaps` cover
`start`..`end` exactly once. A read is one `readinto` of exactly its slot's
frame, straight into the array returned, from a shard that must be exactly
the slot's shard bytes long.
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
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass
from datetime import date, datetime
from functools import lru_cache, partial
from itertools import accumulate, groupby
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import __version__
from .granule import (FrameReader, GranuleError, GranuleHeader, GridGeometry,
                      pool_width)
from .indexer import PlannedFrame
from .regrid import Frame, identity_or_resample
from .sequencer import SequencePlan
from .tables import read_table, write_table
from .timecal import (HOUR, JulianStamp, calendar_to_julian, format_iso_z,
                      hour_count, is_hour_step, julian_to_calendar, parse_iso_z)

PROVENANCE_COLUMNS = ["tflag_date", "tflag_time", "cdate", "ctime", "wdate",
                      "wtime", "sdate", "stime", "forecast_id", "resampled",
                      "wrf_arw_init_time"]
# where a stored frame lies: shard name, byte offset, grid, shard bytes
Slot = tuple[str, int, GridGeometry, int]


class ArchiveError(Exception):
    pass


class BuildError(ArchiveError):
    """A picked granule could not be opened, its header or picked frame
    failed to parse during materialization, or its grid disagrees with the
    plan's resampled_needed."""


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
    # halving `level` times, rounding up, is one division rounding up
    return -(-geom.nrows // 2 ** level), -(-geom.ncols // 2 ** level)


def level_geometry(geom: GridGeometry, level: int) -> GridGeometry:
    f = 2 ** level
    return GridGeometry(*level_shape(geom, level), geom.lat0, geom.lon0,
                        geom.dlat * f, geom.dlon * f)


def box_downsample(values: np.ndarray) -> np.ndarray:
    """2x2 box average in float64: an odd last row or column is repeated,
    then each block [[a, b], [c, d]] sums as (a+b)+(c+d) and divides by 4.

    Doubling and quartering are exact in float64, so a repeated edge pair
    gives exactly (a+b)/2 and a repeated odd corner is copied. The order is
    fixed, so a block's result does not depend on the array's size."""
    rows, cols = np.shape(values)
    v = np.pad(np.asarray(values, dtype=np.float64),
               ((0, rows % 2), (0, cols % 2)), mode="edge")
    return ((v[0::2, 0::2] + v[0::2, 1::2])
            + (v[1::2, 0::2] + v[1::2, 1::2])) / 4


def _shard_name(day: date) -> str:
    return f"{day:%Y%m%d}.bin"


class _Headers:
    """Each picked granule's header, read once by the first day's build that
    opens the granule and shared with every other day's."""

    def __init__(self):
        self._headers: dict[Path, GranuleHeader] = {}
        self._lock = threading.Lock()

    def reader(self, path: Path, f: BinaryIO) -> FrameReader:
        """A FrameReader on `f`, the open granule at `path`."""
        with self._lock:
            reader = FrameReader(f, self._headers.get(path))
            self._headers[path] = reader.header
        return reader


def _picked_frames(picks: list[tuple[datetime, PlannedFrame]],
                   headers: _Headers
                   ) -> Iterator[tuple[datetime, GranuleHeader, np.ndarray]]:
    """(timestep, header, float32 frame) for each of a day's time-sorted
    `picks`. Time-sorted picks of one granule mostly form one run, so one
    granule is open at a time, and `headers` parses each header once."""
    for path, run in groupby(picks, key=lambda item: Path(item[1].path)):
        with ExitStack() as files:
            reader = None
            for t, pick in run:
                try:
                    if reader is None:
                        reader = headers.reader(
                            path, files.enter_context(open(path, "rb")))
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
    archive, written into the empty directory `root`.

    Each day is one `_write_day` task, and the days' rows and originals are
    merged in day order, so no file depends on the width. The first failed
    day in day order raises, and a day stops at its first fault, so the
    error names the earliest failing timestep. On a failure the days not
    started are cancelled, and the build returns once every running day has
    stopped."""
    days = {day: list(picks) for day, picks in groupby(
        sorted(plan.picks.items()), key=lambda item: item[0].date())}
    width = pool_width(canonical)
    headers = _Headers()
    rows: list[list] = []  # provenance.csv
    originals: dict[GridGeometry, list[str]] = {}  # timesteps per source grid
    write = partial(_write_day, plan, canonical, root, headers)
    with ThreadPoolExecutor(width) as pool:
        # Width 1 builds in this thread: a desk build ran about 10% slower in
        # a pool's thread. Executor.map yields in day order, and when a day
        # raises it cancels the days not started; leaving the `with` then
        # waits for the running ones.
        built = (pool.map if width > 1 else map)(write, days, days.values())
        for day_rows, day_originals in built:
            rows += day_rows
            for grid, times in day_originals.items():
                originals.setdefault(grid, []).extend(times)

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


def _write_day(plan: SequencePlan, canonical: GridGeometry, root: Path,
               headers: _Headers, day: date,
               picks: list[tuple[datetime, PlannedFrame]]
               ) -> tuple[list[list], dict[GridGeometry, list[str]]]:
    """Day `day`'s shards under `root`, from its time-sorted `picks`; its
    provenance.csv rows and its originals' timesteps by grid, in hour order."""
    rows: list[list] = []
    originals: dict[GridGeometry, list[str]] = {}
    # one open per day shard: opening and closing the shard for each frame
    # made full-grid builds measurably slower
    with ExitStack() as shards, closing(_picked_frames(picks, headers)) as frames:
        level0 = shards.enter_context(_create(root / "L0", day))
        original = None
        for t, h, values in frames:
            src = Frame(h.geometry, values)
            frame = identity_or_resample(src, canonical)
            needed = plan.resampled_needed
            if needed is not None and frame.resampled != (t in needed):
                raise BuildError(
                    f"timestep {format_iso_z(t)}: plan says resampled_needed "
                    f"{int(t in needed)}, but granule {plan.picks[t].path} is "
                    f"on grid {h.geometry} and the canonical grid is "
                    f"{canonical}")
            if frame.resampled:
                if original is None:
                    original = shards.enter_context(
                        _create(root / "originals", day))
                _write(original, src.values)
                originals.setdefault(h.geometry, []).append(format_iso_z(t))
            _write(level0, frame.values)
            rows.append(_provenance_cells(t, ProvenanceRow(
                h.forecast_id, h.created, h.weather_init, h.smoke_init,
                frame.resampled)))
    return rows, originals


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


def _day_slots(grids: dict[datetime, GridGeometry]) -> dict[datetime, Slot]:
    """The slot of each hour, from each hour's grid: a day's frames lie
    back to back in hour order in its shard, each the size of its own grid,
    and an hour not in `grids` takes no room."""
    slots = {}
    for day, times in groupby(sorted(grids), key=datetime.date):
        times = list(times)
        sizes = [grids[t].nrows * grids[t].ncols * 4 for t in times]
        name, total = _shard_name(day), sum(sizes)
        for t, offset in zip(times, accumulate(sizes, initial=0)):
            slots[t] = (name, offset, grids[t], total)
    return slots


def _original_grids(groups: list[dict], stored: dict[datetime, ProvenanceRow]
                    ) -> dict[datetime, GridGeometry]:
    """Each stored original's grid, from the manifest's groups by grid."""
    grids = {}
    for group in groups:
        grid = GridGeometry(**group["geometry"]).validate()
        for text in group["timesteps"]:
            t = parse_iso_z(text)
            if t not in stored:
                raise ValueError(f"{text} is not a stored timestep")
            grids[t] = grid
    return grids


@dataclass
class CuratedArchive:
    root: Path
    geometry: GridGeometry
    start: datetime
    end: datetime
    levels: int
    gaps: set[datetime]
    provenance: dict[datetime, ProvenanceRow]
    slots: dict[datetime, Slot]  # stored hour -> its level-0 frame
    originals: dict[datetime, Slot]  # resampled hour -> its original

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
        slots = _day_slots(dict.fromkeys(provenance, geometry))
        originals = _day_slots(value(
            "originals", lambda groups: _original_grids(groups, provenance)))
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

    def _read(self, directory: str, t: datetime, slot: Slot) -> np.ndarray:
        """Hour `t`'s float32 frame in its `slot` of a shard under
        `directory`, read straight into the array returned. A shard that is
        not exactly the slot's shard size raises ArchiveError naming the
        shard, both sizes and the hour."""
        name, offset, grid, shard_size = slot
        path = self.root / directory / name
        values = np.empty((grid.nrows, grid.ncols), dtype="<f4")
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
        values = self._read("L0", t, self.slots[t])
        for _ in range(level):
            values = box_downsample(values).astype(np.float32)
        row = self.provenance[t]
        return (Frame(level_geometry(self.geometry, level), values,
                      resampled=row.resampled), row)

    def read_original(self, t: datetime) -> np.ndarray | None:
        """Pre-resample frame as an (nrows, ncols) array on the grid the
        manifest records for it, if one was stored for this timestep."""
        self._check_range(t)
        if t not in self.originals:
            return None
        return self._read("originals", t, self.originals[t])
