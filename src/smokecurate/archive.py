"""Curated chronological store: hourly level-0 frames, a 2x box-average
resolution pyramid derived on read, and per-timestep provenance.

The build builds each UTC day's shards as one task, on as many threads as
`granule.pool_width`, the one width rule, gives the canonical grid: one per
CPU this process may run on when a level-0 frame has at least
PARALLEL_FRAME_BYTES, else the calling thread. Day tasks share no state: a
day reads the header of each granule it picks from the file it opened, then
only its picked frames, so its frames and provenance come from one file.
Each running day holds one frame plus its resample temporaries and has one
granule open. A non-finite or negative value, a truncation or a header
fault in a picked frame aborts the build with a BuildError naming the
earliest such timestep, the granule and the byte offset, whatever the pool
width; so does a picked frame whose grid holds no point of the canonical
grid, naming both grids. A bad value in a frame nobody picked is never read
and does not stop the build.

On-disk layout (format_version 3):
    manifest.json          geometry, time range, levels, gaps, the grid and
                           timesteps of each stored original, tool version
    L0/{YYYYMMDD}.bin      one shard per UTC day: that day's stored
                           level-0 frames back to back in hour order, each a
                           row-major little-endian float32 grid
    L0/{YYYYMMDD}.csv      the day's index: one row per stored hour, in hour
                           order, with the picked granule's stamps encoded
                           back from its header's times (PROVENANCE_COLUMNS)
    originals/{YYYYMMDD}.bin  the day's pre-resample frames, the same way,
                           each on its own grid, when resampling occurred

Only level 0 is stored; `levels` is the number of readable levels. A
level-L read costs one level-0 frame plus L box averages, each
`box_downsample` (pad, then pair) then a cast to float32.
Every stored frame, level 0 or original, has one slot record: (shard name,
byte offset, grid, shard bytes). `_day_slots` builds them from each hour's
grid: a day's frames lie back to back in hour order, and gap hours take no
bytes. `CuratedArchive.open` reads manifest.json only: the stored hours are
the range minus `gaps`, so its cost grows with the gaps and originals, not
with the stored hours. A day's rows and slots are built on the day's first
read (`read_frame`, `read_original` or a `provenance` lookup), which reads
its day index whole and checks it: it holds one row per stored hour, in
hour order, resampled exactly when an original is stored. A row's tflag
stamp is compared as integers with the next stored hour's, from the
stored hours' run (`timecal.hour_stamps`), and decoded only when it
differs; each granule's stamps are decoded once per read, into one
ProvenanceRow its rows share. A fault names the index's line, blank lines
counted. So a damaged day index is found at the first read of its day, not
at open. A read is one
`readinto` of exactly its slot's frame, straight into the array returned,
from a shard that must be exactly the slot's shard bytes long.
An archive is written once: the build writes a new sibling directory and
renames it to its place, and refuses a directory that is not empty. So no
file of another build is ever beside it, and the files an open archive
reads never change. There are no format 1 or 2 readers: build such an
archive again, into a new directory, with build-archive.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Container, Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import asdict, dataclass
from datetime import date, datetime
from functools import partial
from itertools import accumulate, groupby
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from . import __version__
from .granule import (FrameReader, GranuleError, GranuleHeader, GridGeometry,
                      pool_width)
from .indexer import PlannedFrame
from .regrid import Frame, covers_any, identity_or_resample
from .sequencer import SequencePlan
from .tables import read_table, write_table
from .timecal import (HOUR, UTC, JulianStamp, calendar_to_julian,
                      format_iso_z, hour_count, hour_range, hour_stamps,
                      is_hour_step, julian_to_calendar, parse_iso_z)

FORMAT_VERSION = 3
PROVENANCE_COLUMNS = ["tflag_date", "tflag_time", "cdate", "ctime", "wdate",
                      "wtime", "sdate", "stime", "forecast_id", "resampled",
                      "wrf_arw_init_time"]
# the cells of a day index row that name its granule, not its hour
_granule_cells = itemgetter(*PROVENANCE_COLUMNS[2:])
# where a stored frame lies: shard name, byte offset, grid, shard bytes
Slot = tuple[str, int, GridGeometry, int]


class ArchiveError(Exception):
    pass


class BuildError(ArchiveError):
    """A picked granule could not be opened, its header or picked frame
    failed to parse during materialization, its grid disagrees with the
    plan's resampled_needed, or its grid holds no point of the canonical
    grid."""


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


def _index_path(root: Path, day: date) -> str:
    """The day index of `day` in the archive at `root`."""
    return os.path.join(root, "L0", f"{day:%Y%m%d}.csv")


def _picked_frames(picks: list[tuple[datetime, PlannedFrame]]
                   ) -> Iterator[tuple[datetime, GranuleHeader, np.ndarray]]:
    """(timestep, header, float32 frame) for each of a day's time-sorted
    `picks`. Time-sorted picks of one granule mostly form one run, so one
    granule is open at a time, and its header and frames come from that one
    open file."""
    for path, run in groupby(picks, key=lambda item: Path(item[1].path)):
        with ExitStack() as files:
            reader = None
            for t, pick in run:
                try:
                    if reader is None:
                        reader = FrameReader(
                            files.enter_context(open(path, "rb")))
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
    """The shards and day indexes, then manifest.json, of a plan's archive,
    written into the empty directory `root`.

    Each day is one `_write_day` task, and the days' originals are merged
    in day order, so no file depends on the width. The first failed
    day in day order raises, and a day stops at its first fault, so the
    error names the earliest failing timestep. On a failure the days not
    started are cancelled, and the build returns once every running day has
    stopped."""
    days = {day: list(picks) for day, picks in groupby(
        sorted(plan.picks.items()), key=lambda item: item[0].date())}
    width = pool_width(canonical)
    originals: dict[GridGeometry, list[str]] = {}  # timesteps per source grid
    write = partial(_write_day, plan, canonical, root)
    with ThreadPoolExecutor(width) as pool:
        # Width 1 builds in this thread: a desk build ran about 10% slower in
        # a pool's thread. Executor.map yields in day order, and when a day
        # raises it cancels the days not started; leaving the `with` then
        # waits for the running ones.
        built = (pool.map if width > 1 else map)(write, days, days.values())
        for day_originals in built:
            for grid, times in day_originals.items():
                originals.setdefault(grid, []).extend(times)

    manifest = {
        "format_version": FORMAT_VERSION,
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
               day: date, picks: list[tuple[datetime, PlannedFrame]]
               ) -> dict[GridGeometry, list[str]]:
    """Day `day`'s shards and day index under `root`, from its time-sorted
    `picks`; its originals' timesteps by grid, in hour order."""
    rows: list[list] = []
    originals: dict[GridGeometry, list[str]] = {}
    # one open per day shard: opening and closing the shard for each frame
    # made full-grid builds measurably slower
    with ExitStack() as shards, closing(_picked_frames(picks)) as frames:
        level0 = shards.enter_context(_create(root / "L0", day))
        original = None
        for t, h, values in frames:
            if h.geometry != canonical and not covers_any(h.geometry,
                                                          canonical):
                raise BuildError(
                    f"timestep {format_iso_z(t)}: granule "
                    f"{plan.picks[t].path} is on grid {h.geometry}, which "
                    f"holds no point of the canonical grid {canonical}")
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
    write_table(_index_path(root, day), PROVENANCE_COLUMNS, rows)
    return originals


def _provenance_cells(t: datetime, row: ProvenanceRow) -> list:
    """Stored hour `t`'s day index cells, in PROVENANCE_COLUMNS order."""
    tf, cd, wd, sd = map(calendar_to_julian, (
        t, row.created, row.weather_init, row.smoke_init))
    return [tf.date, tf.time, cd.date, cd.time, wd.date, wd.time, sd.date,
            sd.time, row.forecast_id, "true" if row.resampled else "false",
            format_iso_z(row.weather_init)]


def _provenance_row(cells: dict[str, str]) -> ProvenanceRow:
    """The granule half of a day index row (every column after the tflag),
    the inverse of `_provenance_cells`. Every stamp must decode, `resampled`
    must be true or false, and `wrf_arw_init_time` must be the weather
    stamp's ISO_Z text."""
    created, weather, smoke = (
        julian_to_calendar(JulianStamp(int(cells[f"{p}date"]),
                                       int(cells[f"{p}time"])))
        for p in "cws")
    if cells["resampled"] not in ("true", "false"):
        raise ValueError(f"resampled is {cells['resampled']!r}, "
                         f"not true or false")
    if cells["wrf_arw_init_time"] != format_iso_z(weather):
        raise ValueError(f"wrf_arw_init_time {cells['wrf_arw_init_time']!r} "
                         f"is not the weather stamp's {format_iso_z(weather)}")
    return ProvenanceRow(cells["forecast_id"], created, weather, smoke,
                         cells["resampled"] == "true")


def _level_count(levels: int) -> int:
    if type(levels) is not int or levels < 1:
        raise ValueError(f"{levels!r} is not a positive level count")
    return levels


def _day_slots(name: str, grids: dict[datetime, GridGeometry]
               ) -> dict[datetime, Slot]:
    """The slot of each of a day's hours in `grids` in its shard `name`,
    from its grid: the day's frames lie back to back in hour order in its
    shard, each the size of its own grid, and an hour not in `grids` takes
    no room."""
    times = sorted(grids)
    geoms = list(map(grids.__getitem__, times))
    sizes = [g.nrows * g.ncols * 4 for g in geoms]
    total = sum(sizes)
    return {t: (name, offset, g, total) for t, offset, g in
            zip(times, accumulate(sizes, initial=0), geoms)}


def _gap_set(texts: list[str], start: datetime,
             end: datetime) -> set[datetime]:
    """The manifest's gaps, each an hour of the range."""
    gaps = set(map(parse_iso_z, texts))
    stray = [t for t in gaps if not (is_hour_step(t) and start <= t <= end)]
    if stray:
        raise ValueError(f"{format_iso_z(min(stray))} is not an hour of the "
                         f"range")
    return gaps


def _original_grids(groups: list[dict], stored: Container[datetime]
                    ) -> dict[date, dict[datetime, GridGeometry]]:
    """Each stored original's grid by its UTC day, from the manifest's
    groups by grid."""
    days = {}
    for group in groups:
        grid = GridGeometry(**group["geometry"]).validate()
        for text in group["timesteps"]:
            t = parse_iso_z(text)
            if t not in stored:
                raise ValueError(f"{text} is not a stored timestep")
            days.setdefault(t.date(), {})[t] = grid
    return days


@dataclass(frozen=True)
class _Day:
    """One UTC day's stored hours, built from its day index."""
    rows: dict[datetime, ProvenanceRow]
    slots: dict[datetime, Slot]  # stored hour -> its level-0 frame
    originals: dict[datetime, Slot]  # resampled hour -> its original


class _Provenance(Mapping):
    """Each stored hour's ProvenanceRow, in hour order. A lookup builds the
    hour's day on its first read; listing the hours reads nothing."""

    def __init__(self, archive: "CuratedArchive"):
        self._archive = archive

    def __getitem__(self, t: datetime) -> ProvenanceRow:
        if t not in self:
            raise KeyError(t)
        return self._archive._day(t).rows[t]

    def __contains__(self, t) -> bool:
        a = self._archive
        return (is_hour_step(t) and a.start <= t <= a.end
                and t not in a.gaps)

    def __iter__(self) -> Iterator[datetime]:
        a = self._archive
        return (t for t in hour_range(a.start, a.end) if t not in a.gaps)

    def __len__(self) -> int:
        a = self._archive
        return hour_count(a.start, a.end) - len(a.gaps)


@dataclass
class CuratedArchive:
    root: Path
    geometry: GridGeometry
    start: datetime
    end: datetime
    levels: int
    gaps: set[datetime]
    # each stored original's grid, by UTC day
    original_grids: dict[date, dict[datetime, GridGeometry]]

    def __post_init__(self):
        self._days: dict[date, _Day] = {}  # the days read so far

    @classmethod
    def open(cls, root: Path | str) -> "CuratedArchive":
        """Open the archive at `root`, reading manifest.json only. A
        missing, unreadable or malformed manifest raises ArchiveError naming
        it and the key at fault; so do a gap that is not an hour of the
        range and an original that is not a stored hour. Each day index is
        checked on its day's first read (`_day`)."""
        root = Path(root)
        path = root / "manifest.json"
        try:
            with open(path) as f:
                manifest = json.load(f)
        except OSError as e:
            raise ArchiveError(f"{path}: {e.strerror}") from e
        except ValueError as e:
            raise ArchiveError(f"{path}: not JSON: {e}") from e
        if not isinstance(manifest, dict):
            raise ArchiveError(f"{path}: not a JSON object")
        if manifest.get("format_version") != FORMAT_VERSION:
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
        gaps = value("gaps", lambda texts: _gap_set(texts, start, end))
        archive = cls(root, geometry, start, end, levels, gaps, {})
        # an original must be a stored hour, which the provenance names
        archive.original_grids = value("originals", lambda groups: (
            _original_grids(groups, archive.provenance)))
        return archive

    @property
    def provenance(self) -> Mapping[datetime, ProvenanceRow]:
        """Stored hour -> the ProvenanceRow of its picked granule."""
        return _Provenance(self)

    def _day(self, t: datetime) -> _Day:
        """The day of stored hour `t`, built on its first read. Threads that
        first read one day at once may each build it; the builds are equal."""
        day = t.astimezone(UTC).date()
        built = self._days.get(day)
        if built is None:
            built = self._days[day] = self._read_day(day)
        return built

    def _read_day(self, day: date) -> _Day:
        """Day `day`'s rows and slots, from its day index read whole. A
        malformed index raises ArchiveError naming it and the line or the
        column at fault. The index must hold one row per stored hour, in
        hour order, resampled exactly when an original is stored; the first
        line that does not, or the end of an index short of a stored hour,
        raises ArchiveError naming the index, the place and the manifest."""
        table = _index_path(self.root, day)
        manifest = os.path.join(self.root, "manifest.json")
        midnight = datetime(day.year, day.month, day.day, tzinfo=UTC)
        first = max(self.start, midnight)
        # each stored hour with its (tflag_date, tflag_time) stamp
        stored = iter([(t, stamp) for t, stamp in zip(
            hour_range(first, min(self.end, midnight + 23 * HOUR)),
            hour_stamps(first)) if t not in self.gaps])
        grids = self.original_grids.get(day, {})
        granules: dict[tuple[str, ...], ProvenanceRow] = {}

        def entry(cells: dict[str, str]) -> tuple[datetime, ProvenanceRow]:
            # the next stored hour's row; `read_table` names a fault's line.
            # A row's stamps are compared as integers, and decoded only when
            # they are not the next stored hour's; a granule's columns are
            # decoded on the first row that holds them
            stamp = int(cells["tflag_date"]), int(cells["tflag_time"])
            want, want_stamp = next(stored, (None, None))
            t = (want if stamp == want_stamp
                 else julian_to_calendar(JulianStamp(*stamp)))
            key = _granule_cells(cells)
            row = granules.get(key)
            if row is None:
                row = granules[key] = _provenance_row(cells)
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

        try:
            rows = dict(read_table(table, PROVENANCE_COLUMNS, entry))
        except OSError as e:
            raise ArchiveError(f"{table}: {e.strerror}") from e
        except ValueError as e:
            raise ArchiveError(str(e)) from e
        missing, _ = next(stored, (None, None))
        if missing is not None:
            raise ArchiveError(f"{table} after its last line: disagrees with "
                               f"{manifest}: the index has no row for "
                               f"{format_iso_z(missing)}")
        name = _shard_name(day)
        return _Day(rows, _day_slots(name, dict.fromkeys(rows, self.geometry)),
                    _day_slots(name, grids))

    def _check_range(self, t: datetime) -> None:
        if not is_hour_step(t):
            raise ArchiveError(f"{t} is not an hour: the archive stores "
                               f"hourly timesteps")
        if not self.start <= t <= self.end:
            raise ArchiveError(f"{t} outside archive range "
                               f"{self.start}..{self.end}")

    def _neighbors(self, t: datetime) -> tuple[datetime | None, datetime | None]:
        """The nearest stored hours before and after the gap `t`, if any:
        a walk over the gaps next to `t`, which all lie in the range."""
        before, after = t - HOUR, t + HOUR
        while before in self.gaps:
            before -= HOUR
        while after in self.gaps:
            after += HOUR
        return (before if before >= self.start else None,
                after if after <= self.end else None)

    def _read(self, directory: str, t: datetime, slot: Slot) -> np.ndarray:
        """Hour `t`'s float32 frame in its `slot` of a shard under
        `directory`, read straight into the array returned. A shard that is
        not exactly the slot's shard size raises ArchiveError naming the
        shard, both sizes and the hour."""
        name, offset, grid, shard_size = slot
        path = os.path.join(self.root, directory, name)
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
        day = self._day(t)
        values = self._read("L0", t, day.slots[t])
        for _ in range(level):
            values = box_downsample(values).astype(np.float32)
        row = day.rows[t]
        geometry = level_geometry(self.geometry, level) if level \
            else self.geometry
        return Frame(geometry, values, resampled=row.resampled), row

    def read_original(self, t: datetime) -> np.ndarray | None:
        """Pre-resample frame as an (nrows, ncols) array on the grid the
        manifest records for it, if one was stored for this timestep."""
        self._check_range(t)
        if t in self.gaps:
            return None
        slot = self._day(t).originals.get(t)
        return None if slot is None else self._read("originals", t, slot)
