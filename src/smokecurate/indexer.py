"""Cache scanning (metadata-only), geometry consistency reporting, and the
timestep coverage index.

scan_cache never touches payload bytes: only the magic/header/tflag region of
each file is read, which is what makes indexing a large cache cheap. Each ok
record keeps the `GranuleHeader` that read returned, whose times are already
datetimes, so coverage and the consistency report decode no stamp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Callable

from .granule import (GranuleHeader, GridGeometry, InvalidHeaderError,
                      NotAGranuleError, TruncatedError, read_header)
from .timecal import HOUR


@dataclass(frozen=True)
class ScanRecord:
    path: Path
    forecast_id: str
    status: str                    # ok | not_a_granule | truncated | invalid_header
    header: GranuleHeader | None = None
    geometry_class: str = "other"  # canonical | drift | other
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class PlannedFrame:
    """The frame picked for a timestep, as a plan CSV row records it."""

    path: Path
    forecast_id: str
    frame_index: int
    smoke_init: datetime


@dataclass(frozen=True)
class CandidateFrame(PlannedFrame):
    """One (granule, frame) pair covering a timestep."""

    created: datetime
    geometry: GridGeometry

    @property
    def recency_key(self) -> tuple:
        return (self.smoke_init, self.created, self.forecast_id)


@dataclass
class CoverageIndex:
    by_timestep: dict[datetime, list[CandidateFrame]] = field(default_factory=dict)

    def candidates(self, t: datetime) -> list[CandidateFrame]:
        return self.by_timestep.get(t, [])

    def timesteps(self) -> list[datetime]:
        return sorted(self.by_timestep)

    def dump_json(self, path: Path | str) -> None:
        out = {}
        for t in self.timesteps():
            out[t.strftime("%Y-%m-%dT%H:%M:%SZ")] = [
                {"path": str(c.path), "forecast_id": c.forecast_id,
                 "frame_index": c.frame_index,
                 "smoke_init": c.smoke_init.strftime("%Y-%m-%dT%H:%M:%SZ")}
                for c in self.by_timestep[t]]
        Path(path).write_text(json.dumps(out, indent=1))


_METADATA_SUFFIXES = {".csv", ".json", ".tmp"}


def scan_cache(cache_root: Path | str,
               canonical: GridGeometry | None = None,
               drift: GridGeometry | None = None,
               opener: Callable = open) -> list[ScanRecord]:
    """One ScanRecord per file under the root, in sorted path order.

    `opener` exists so tests can instrument byte accounting; it must behave
    like builtins.open for binary reads.
    """
    cache_root = Path(cache_root)
    if not cache_root.is_dir():
        raise FileNotFoundError(f"cache root {cache_root} is not a directory")
    records = []
    for path in sorted(p for p in cache_root.rglob("*") if p.is_file()):
        if path.suffix in _METADATA_SUFFIXES:
            continue
        records.append(_scan_one(path, canonical, drift, opener))
    return records


def _scan_one(path: Path, canonical, drift, opener) -> ScanRecord:
    fallback_id = path.parent.name
    try:
        with opener(path, "rb") as f:
            header = read_header(f)
    except NotAGranuleError as e:
        return ScanRecord(path, fallback_id, "not_a_granule", detail=str(e))
    except TruncatedError as e:
        return ScanRecord(path, fallback_id, "truncated", detail=str(e))
    except InvalidHeaderError as e:
        return ScanRecord(path, fallback_id, "invalid_header", detail=str(e))
    except OSError as e:
        return ScanRecord(path, fallback_id, "not_a_granule", detail=str(e))

    # payload truncation is visible from the file size alone
    size = path.stat().st_size
    if size < header.expected_total_bytes:
        return ScanRecord(path, fallback_id, "truncated",
                          detail=f"file is {size} bytes, expected "
                                 f"{header.expected_total_bytes}")

    geom = header.geometry
    if canonical is not None and geom == canonical:
        klass = "canonical"
    elif drift is not None and geom == drift:
        klass = "drift"
    else:
        klass = "other" if canonical is not None else "canonical"
    return ScanRecord(path, header.forecast_id, "ok", header, klass)


@dataclass(frozen=True)
class GeometryGroup:
    geometry: GridGeometry
    count: int
    first_created: datetime
    last_created: datetime
    flagged: bool


@dataclass
class ConsistencyReport:
    groups: list[GeometryGroup]

    @property
    def flagged_groups(self) -> list[GeometryGroup]:
        return [g for g in self.groups if g.flagged]

    def format(self) -> str:
        lines = []
        for g in self.groups:
            mark = "  [non-canonical]" if g.flagged else ""
            lines.append(
                f"{g.geometry.nrows}x{g.geometry.ncols} @ "
                f"({g.geometry.lat0}, {g.geometry.lon0}) "
                f"d=({g.geometry.dlat}, {g.geometry.dlon}): "
                f"{g.count} files, created {g.first_created:%Y-%m-%d}"
                f"..{g.last_created:%Y-%m-%d}{mark}")
        return "\n".join(lines)


def consistency_report(records: list[ScanRecord],
                       canonical: GridGeometry | None = None) -> ConsistencyReport:
    """Group ok records by exact geometry; flag groups differing from the
    declared canonical geometry."""
    buckets: dict[GridGeometry, list[ScanRecord]] = {}
    for r in records:
        if r.ok:
            buckets.setdefault(r.header.geometry, []).append(r)
    groups = []
    for geom, recs in buckets.items():
        created = [r.header.created for r in recs]
        groups.append(GeometryGroup(geom, len(recs), min(created), max(created),
                                    flagged=canonical is not None and geom != canonical))
    groups.sort(key=lambda g: g.first_created)
    return ConsistencyReport(groups)


def build_coverage(records: list[ScanRecord]) -> CoverageIndex:
    """Index every frame of every ok record by its time, `first_frame + i*HOUR`;
    candidate lists are sorted newest-first by (smoke_init, created,
    forecast_id)."""
    index: dict[datetime, list[CandidateFrame]] = {}
    for r in records:
        if not r.ok:
            continue
        h = r.header
        for i in range(h.ntimes):
            index.setdefault(h.first_frame + i * HOUR, []).append(
                CandidateFrame(r.path, h.forecast_id, i, h.smoke_init,
                               h.created, h.geometry))
    for cands in index.values():
        cands.sort(key=lambda c: c.recency_key, reverse=True)
    return CoverageIndex(index)
