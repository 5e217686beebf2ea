"""Synthetic forecast corpora: portal directory layout, plausible smoke plumes,
deterministic fault injection (missing runs, HTML bodies, truncated files).

Each run's field is the shared "true" puff field plus a perturbation whose
amplitude grows linearly with lead time, so runs initialized closer to a
timestep really are better estimates of it. Each hour's true field is computed
once per corpus and shared by every run that covers the hour.

A run's grid work runs on as many threads as `granule.pool_width` gives its
grid: one per CPU this process may run on when a float32 frame has at least
PARALLEL_FRAME_BYTES (the full grid), else the calling thread (the desk
grid). The pool computes the run's missing true fields, one hour per task,
and fills its perturbed float32 frames, one lead per task; the RNG draws
stay in the calling thread in their serial order, so every granule, the
manifest and every injected fault are the same bytes at any width. The
generator holds about `horizon_hours` float64 true fields of the corpus
grid, the run's float32 payload, and one float64 frame temporary per
thread. The pool lives for one `generate_corpus` call.
"""

from __future__ import annotations

import hashlib
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .fetcher import ConfigError, embedded_init_hour, run_path
from .granule import (GridGeometry, encode_granule, frame_is_large, make_granule,
                      pool_width)
from .tables import write_table
from .timecal import UTC, format_iso_z

DEFAULT_FORECAST_IDS = ("BSC00CA12-01", "BSC06CA12-01",
                        "BSC12CA12-01", "BSC18CA12-01")

# Desk-scale default keeps corpora small; the full-domain preset matches the
# operational 0.1-degree grid.
DESK_GEOMETRY = GridGeometry(nrows=20, ncols=40, lat0=32.0, lon0=-160.0,
                             dlat=0.5, dlon=0.5)
DESK_DRIFT_GEOMETRY = GridGeometry(nrows=20, ncols=36, lat0=32.0, lon0=-160.0,
                                   dlat=0.5, dlon=0.5)
FULL_GEOMETRY = GridGeometry(nrows=381, ncols=1081, lat0=32.0, lon0=-160.0,
                             dlat=0.1, dlon=0.1)
FULL_DRIFT_GEOMETRY = GridGeometry(nrows=381, ncols=1041, lat0=32.0, lon0=-160.0,
                                   dlat=0.1, dlon=0.1)

SIGMA0_DEG = 0.2        # initial puff radius
SIGMA_GROWTH_DEG_H = 0.05
PERTURB_PER_LEAD_HOUR = 0.02
# On a grid of large frames (`granule.frame_is_large`: the full grid),
# `puff_field` leaves out every lane whose exponent
# -(dlat^2 + dlon^2) / (2 sigma^2) is below -PUFF_REACH. np.exp of anything
# below about -745.13 (ln of half the smallest subnormal) is exactly +0.0, so
# such a lane's term strength * exp(...) is +0.0, and adding +0.0 changes no
# bit of the non-negative sum; the 0.87 to spare covers the rounding of the
# exponent. tests/test_corpusgen.py checks that numpy's exp underflows there.
PUFF_REACH = 746.0
# there a source is evaluated over blocks of rows of about this many float64
# bytes, each over only the columns that its rows' reach covers
PUFF_BLOCK_BYTES = 1 << 20

HTML_BODY = (b"<html><head><title>404 Not Found</title></head>"
             b"<body><h1>Not Found</h1><p>The requested forecast is not "
             b"available.</p></body></html>")


@dataclass(frozen=True)
class FaultProfile:
    missing_run_rate: float = 0.0
    html_rate: float = 0.0
    truncation_rate: float = 0.0

    def validate(self) -> "FaultProfile":
        for name in ("missing_run_rate", "html_rate", "truncation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name}={rate} outside [0, 1]")
        return self


@dataclass(frozen=True)
class PuffSource:
    lat: float
    lon: float
    strength: float
    ignition: datetime


@dataclass(frozen=True)
class CorpusSpec:
    start_date: date
    end_date: date
    forecast_ids: tuple[str, ...] = DEFAULT_FORECAST_IDS
    init_hours: tuple[int, ...] = (0, 6, 12, 18)
    horizon_hours: int = 84
    geometry: GridGeometry = DESK_GEOMETRY
    drift_geometry: GridGeometry | None = None
    drift_cutoff: date | None = None
    fault_profile: FaultProfile = field(default_factory=FaultProfile)
    seed: int = 0

    def validate(self) -> "CorpusSpec":
        if self.start_date > self.end_date:
            raise ValueError("start_date after end_date")
        if any(not 0 <= h < 24 for h in self.init_hours):
            raise ValueError("init hours must be in [0, 24)")
        if self.horizon_hours < 1:
            raise ValueError("horizon_hours must be >= 1")
        self.geometry.validate()
        if (self.drift_geometry is None) != (self.drift_cutoff is None):
            raise ValueError("drift_geometry and drift_cutoff must be set together")
        if self.drift_geometry is not None:
            self.drift_geometry.validate()
        self.fault_profile.validate()
        return self

    def scheduled_runs(self) -> list[tuple[str, datetime]]:
        """All (forecast_id, init instant) pairs, ordered."""
        runs = []
        day = self.start_date
        while day <= self.end_date:
            for hour in sorted(self.init_hours):
                init = datetime(day.year, day.month, day.day, hour, tzinfo=UTC)
                for fid in self.forecast_ids:
                    runs.append((fid, init))
            day += timedelta(days=1)
        return runs


@dataclass(frozen=True)
class ManifestEntry:
    forecast_id: str
    init: datetime
    outcome: str           # ok | missing | html | truncated
    path: str              # relative to the corpus root; "" when missing


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]

    def write_csv(self, path: Path) -> None:
        write_table(path, ["forecast_id", "init_utc", "outcome", "path"],
                    ([e.forecast_id, format_iso_z(e.init), e.outcome, e.path]
                     for e in self.entries))


def _stable_digest(*parts: str | int) -> int:
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _world_rng(spec: CorpusSpec) -> np.random.Generator:
    return np.random.default_rng(_stable_digest(spec.seed, "world"))


def _run_rng(spec: CorpusSpec, fid: str, init: datetime) -> np.random.Generator:
    return np.random.default_rng(
        _stable_digest(spec.seed, fid, init.strftime("%Y%m%d%H")))


def make_world(spec: CorpusSpec) -> tuple[list[PuffSource], tuple[float, float]]:
    """Seed-derived fire sources and a constant wind for the whole corpus."""
    rng = _world_rng(spec)
    geom = spec.geometry
    n_sources = int(rng.integers(3, 7))
    first_day = datetime(spec.start_date.year, spec.start_date.month,
                         spec.start_date.day, tzinfo=UTC)
    total_hours = ((spec.end_date - spec.start_date).days + 1) * 24
    sources = []
    for _ in range(n_sources):
        lat = float(rng.uniform(geom.lat0 + 0.1 * (geom.lat_max - geom.lat0),
                                geom.lat_max - 0.1 * (geom.lat_max - geom.lat0)))
        lon = float(rng.uniform(geom.lon0 + 0.1 * (geom.lon_max - geom.lon0),
                                geom.lon_max - 0.1 * (geom.lon_max - geom.lon0)))
        strength = float(rng.uniform(20.0, 120.0))
        ignition = first_day + timedelta(hours=int(rng.integers(0, max(1, total_hours // 2))))
        sources.append(PuffSource(lat, lon, strength, ignition))
    wind = (float(rng.uniform(-0.15, 0.15)), float(rng.uniform(-0.15, 0.15)))
    return sources, wind


def _add_puff(out: np.ndarray, puff: np.ndarray, lat: np.ndarray,
              lon: np.ndarray, clat: float, clon: float, sigma: float,
              strength: float) -> None:
    """out += strength * exp(-(dlat^2 + dlon^2) / (2 sigma^2)) in `puff`,
    a scratch of out's shape, step by step in that order: the same bits as
    the one expression, no temporaries of out's size (x / -d is -(x / d) bit
    for bit: rounding is symmetric in sign)."""
    np.add((lat - clat) ** 2, (lon - clon) ** 2, out=puff)
    puff /= -(2.0 * sigma * sigma)
    np.exp(puff, out=puff)
    puff *= strength
    out += puff


def _axis_window(centre: float, reach: float, n: int) -> tuple[int, int]:
    """Indices [lo, hi) of the grid points 0..n-1 closer than `reach` to
    `centre`, all in grid steps, widened by one point on each side and
    clipped to the grid. The clip comes before the floor, which commutes with
    it at integer bounds, so an infinite centre gives an empty window."""
    return (math.floor(min(max(centre - reach, 0.0), n)),
            math.floor(min(max(centre + reach + 2.0, 0.0), n)))


def puff_field(sources: Sequence[PuffSource], wind: tuple[float, float],
               t: datetime, geom: GridGeometry) -> np.ndarray:
    """Sum of advected, spreading Gaussian puffs evaluated on the grid.

    On a grid of large frames (`granule.frame_is_large`) each source is
    evaluated only where its exponent -(dlat^2 + dlon^2) / (2 sigma^2) may be
    above -PUFF_REACH: within the reach sqrt(2 sigma^2 PUFF_REACH) of its
    centre. Its rows within reach are taken in blocks of about
    PUFF_BLOCK_BYTES; in each block, the columns within reach of the block's
    row nearest the centre. Both windows come in closed form from the
    arithmetic grid and are widened by one row and one column on each side,
    which absorbs their rounding. The field has the bits of the whole-grid
    formula: every lane left out has an exponent below -PUFF_REACH, where exp
    is exactly +0.0, so its term strength * 0.0 is +0.0 and x + 0.0 == x for
    the non-negative sum; every lane evaluated goes through the same ufuncs in
    the same order (add, divide, exp, multiply, accumulate), source by
    source. A grid of small frames (the desk grid) is evaluated whole: there
    the windows' Python costs more than the lanes they skip.

    Raises ValueError, naming the value, for a strength that is not a finite
    number >= 0, or a source position or wind that is not finite: NaN or inf
    would spread over a window, not the grid, and inf * 0.0 is NaN."""
    u, v = wind
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"wind must be finite, got {wind!r}")
    lat = geom.latitudes()[:, None]
    lon = geom.longitudes()
    out = np.zeros((geom.nrows, geom.ncols))
    # the scratch is field-sized even where windows use only a block's
    # leading elements of it: a 1 MiB one moves glibc's dynamic mmap
    # threshold, and a full-grid bench corpus then took 1.8x the minor faults
    # (454k-487k, not 248k-272k) and 0.5-1.3 s more system time
    puff = np.empty_like(out)
    windowed = frame_is_large(geom)
    block_rows = max(1, PUFF_BLOCK_BYTES // (8 * geom.ncols))
    for s in sources:
        if not (math.isfinite(s.strength) and s.strength >= 0):
            raise ValueError(f"emission strength must be a finite number >= 0, "
                             f"got {s.strength!r}")
        if not (math.isfinite(s.lat) and math.isfinite(s.lon)):
            raise ValueError(f"source position must be finite, "
                             f"got lat={s.lat!r} lon={s.lon!r}")
        dt_h = (t - s.ignition).total_seconds() / 3600.0
        if dt_h < 0:
            continue
        clat = s.lat + v * dt_h
        clon = s.lon + u * dt_h
        sigma = SIGMA0_DEG + SIGMA_GROWTH_DEG_H * dt_h
        if not windowed:
            _add_puff(out, puff, lat, lon, clat, clon, sigma, s.strength)
            continue
        reach = math.sqrt(2.0 * sigma * sigma * PUFF_REACH)
        # the centre in grid steps
        y = (clat - geom.lat0) / geom.dlat
        x = (clon - geom.lon0) / geom.dlon
        top, bottom = _axis_window(y, reach / geom.dlat, geom.nrows)
        for r0 in range(top, bottom, block_rows):
            r1 = min(r0 + block_rows, bottom)
            # the block's row nearest the centre reaches the most columns
            dy = (y - min(max(y, r0), r1 - 1)) * geom.dlat
            c0, c1 = _axis_window(
                x, math.sqrt(max(reach * reach - dy * dy, 0.0)) / geom.dlon,
                geom.ncols)
            block = puff.ravel()[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            _add_puff(out[r0:r1, c0:c1], block, lat[r0:r1], lon[c0:c1],
                      clat, clon, sigma, s.strength)
    return out


def _run_geometry(spec: CorpusSpec, init: datetime) -> GridGeometry:
    if spec.drift_cutoff is not None and init.date() < spec.drift_cutoff:
        return spec.drift_geometry
    return spec.geometry


def _is_window(geom: GridGeometry, of: GridGeometry) -> bool:
    """True when `geom` is the top-left corner of `of`: the same origin and
    spacing, no more rows or columns. Its coordinates are then a bitwise
    prefix of `of`'s, and so is every field evaluated on it."""
    return (geom.lat0 == of.lat0 and geom.lon0 == of.lon0
            and geom.dlat == of.dlat and geom.dlon == of.dlon
            and geom.nrows <= of.nrows and geom.ncols <= of.ncols)


class TrueFields:
    """The true field of each hour, computed once and shared by the runs of
    one corpus that cover it. A run on an aligned window of the corpus grid
    reads the top-left slice of the corpus-grid field; any other run grid gets
    fields of its own.

    Runs arrive init-major, so each run's `run_fields` drops every field
    before its init (and every field on another grid), then computes the
    run's hours not yet held: at most `horizon_hours` fields are held at
    once."""

    def __init__(self, spec: CorpusSpec, sources: Sequence[PuffSource],
                 wind: tuple[float, float]):
        self._spec = spec
        self._sources = sources
        self._wind = wind
        self._grid: GridGeometry | None = None
        self._fields: dict[datetime, np.ndarray] = {}

    def run_fields(self, init: datetime, geom: GridGeometry,
                   pmap: Callable) -> list[np.ndarray]:
        """The true fields of the run at `init` on `geom`, in lead order. The
        hours not yet held are computed in hour order through `pmap`: `map`,
        or a pool's."""
        grid = self._spec.geometry if _is_window(geom, self._spec.geometry) else geom
        if grid != self._grid:
            self._grid = grid
            self._fields.clear()
        for t in [t for t in self._fields if t < init]:
            del self._fields[t]
        hours = [init + timedelta(hours=lead)
                 for lead in range(self._spec.horizon_hours)]
        missing = [t for t in hours if t not in self._fields]
        self._fields.update(zip(missing, pmap(
            partial(puff_field, self._sources, self._wind, geom=grid), missing)))
        return [self._fields[t][:geom.nrows, :geom.ncols] for t in hours]


def build_run_granule(spec: CorpusSpec, fid: str, init: datetime,
                      sources: Sequence[PuffSource],
                      wind: tuple[float, float],
                      truths: TrueFields | None = None,
                      pmap: Callable = map):
    """Granule for one scheduled run: true field + lead-time perturbation.
    `truths` shares true fields across the runs of one corpus; without it the
    run computes its own. `pmap` runs the grid work, one hour or lead per
    call: `map` in this thread, or a pool's."""
    geom = _run_geometry(spec, init)
    if truths is None:
        truths = TrueFields(spec, sources, wind)
    fields = truths.run_fields(init, geom, pmap)
    rng = _run_rng(spec, fid, init)
    factors = [1.0 + PERTURB_PER_LEAD_HOUR * lead * float(rng.uniform(-1.0, 1.0))
               for lead in range(spec.horizon_hours)]
    # The stream whose embedded hour matches the init publishes last, so the
    # creation stamp breaks same-init ties in favor of the native stream.
    try:
        native = embedded_init_hour(fid) == init.hour
    except ConfigError:
        native = False
    created = init + timedelta(minutes=60 + (30 if native else 0)
                               + int(rng.integers(0, 30)))

    # each clipped, perturbed frame goes straight into the float32 payload,
    # through a float64 temporary of the thread's own
    pm25 = np.empty((spec.horizon_hours, geom.nrows, geom.ncols), dtype=np.float32)
    temps = threading.local()

    def fill(out: np.ndarray, truth: np.ndarray, factor: float) -> None:
        frame = getattr(temps, "frame", None)
        if frame is None:
            frame = temps.frame = np.empty(truth.shape)
        np.multiply(truth, factor, out=frame)
        np.maximum(frame, 0.0, out=frame)
        out[...] = frame

    for _ in pmap(fill, pm25, fields, factors):
        pass
    return make_granule(fid, created=created, weather_init=init - timedelta(hours=6),
                        smoke_init=init, geometry=geom, frames=pm25)


def _run_outcome(spec: CorpusSpec, rng: np.random.Generator) -> str:
    fp = spec.fault_profile
    draws = rng.uniform(size=3)
    if draws[0] < fp.missing_run_rate:
        return "missing"
    if draws[1] < fp.html_rate:
        return "html"
    if draws[2] < fp.truncation_rate:
        return "truncated"
    return "ok"


def generate_corpus(spec: CorpusSpec, root: Path | str) -> CorpusManifest:
    """Write the corpus tree root/{forecast_id}/{YYYYMMDD}{HH}/dispersion.gran
    and a manifest recording ground truth for every scheduled run."""
    spec.validate()
    root = Path(root)
    if root.exists() and any(root.iterdir()):
        raise ValueError(f"corpus root {root} is not empty")
    root.mkdir(parents=True, exist_ok=True)

    sources, wind = make_world(spec)
    truths = TrueFields(spec, sources, wind)
    widths = {grid: pool_width(grid) for grid in
              (spec.geometry, spec.drift_geometry) if grid is not None}
    entries = []
    # a pool starts its threads on first use, so a desk corpus starts none;
    # leaving the `with` joins them
    with ThreadPoolExecutor(max(widths.values())) as pool:
        for fid, init in spec.scheduled_runs():
            rng = _run_rng(spec, fid, init)
            outcome = _run_outcome(spec, rng)
            if outcome == "missing":
                entries.append(ManifestEntry(fid, init, "missing", ""))
                continue
            rel = run_path(fid, init)
            if outcome == "html":
                parts = (HTML_BODY,)
            else:
                # the granule draws from its own RNG, so skipping html runs
                # changes no other run's bytes
                pmap = pool.map if widths[_run_geometry(spec, init)] > 1 else map
                head, payload = encode_granule(build_run_granule(
                    spec, fid, init, sources, wind, truths, pmap))
                if outcome == "truncated":
                    # cut inside the payload so the header region stays intact
                    payload = payload[:int(rng.integers(0, len(payload)))]
                parts = (head, payload)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "wb") as f:
                for part in parts:
                    f.write(part)
            entries.append(ManifestEntry(fid, init, outcome, rel))

    manifest = CorpusManifest(entries)
    manifest.write_csv(root / "manifest.csv")
    return manifest
