"""Synthetic forecast corpora: portal directory layout, plausible smoke plumes,
deterministic fault injection (missing runs, HTML bodies, truncated files).

Each run's field is the shared "true" puff field plus a perturbation whose
amplitude grows linearly with lead time, so runs initialized closer to a
timestep really are better estimates of it. Each hour's true field is computed
once per corpus and shared by every run that covers the hour.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Sequence

import numpy as np

from .fetcher import ConfigError, embedded_init_hour
from .granule import GridGeometry, encode_granule, make_granule
from .timecal import UTC

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
    root: Path
    entries: list[ManifestEntry]

    def by_outcome(self, outcome: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.outcome == outcome]

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["forecast_id", "init_utc", "outcome", "path"])
            for e in self.entries:
                w.writerow([e.forecast_id, e.init.strftime("%Y-%m-%dT%H:%M:%SZ"),
                            e.outcome, e.path])


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


def puff_field(sources: Sequence[PuffSource], wind: tuple[float, float],
               t: datetime, geom: GridGeometry) -> np.ndarray:
    """Sum of advected, spreading Gaussian puffs evaluated on the grid."""
    u, v = wind
    lat = geom.latitudes()[:, None]
    lon = geom.longitudes()[None, :]
    out = np.zeros((geom.nrows, geom.ncols))
    puff = np.empty_like(out)
    for s in sources:
        if s.strength < 0:
            raise ValueError("emission strength must be >= 0")
        dt_h = (t - s.ignition).total_seconds() / 3600.0
        if dt_h < 0:
            continue
        clat = s.lat + v * dt_h
        clon = s.lon + u * dt_h
        sigma = SIGMA0_DEG + SIGMA_GROWTH_DEG_H * dt_h
        # strength * exp(-(dlat^2 + dlon^2) / (2 sigma^2)) in one buffer, step
        # by step in that order: the same bits, no grid-sized temporaries
        # (x / -d is -(x / d) bit for bit: rounding is symmetric in sign)
        np.add((lat - clat) ** 2, (lon - clon) ** 2, out=puff)
        puff /= -(2.0 * sigma * sigma)
        np.exp(puff, out=puff)
        puff *= s.strength
        out += puff
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

    Runs arrive init-major, so starting a run drops every field before its
    init (and every field on another grid): at most `horizon_hours` fields
    are held at once."""

    def __init__(self, spec: CorpusSpec, sources: Sequence[PuffSource],
                 wind: tuple[float, float]):
        self._spec = spec
        self._sources = sources
        self._wind = wind
        self._grid: GridGeometry | None = None
        self._fields: dict[datetime, np.ndarray] = {}

    def start_run(self, init: datetime, geom: GridGeometry) -> None:
        grid = self._spec.geometry if _is_window(geom, self._spec.geometry) else geom
        if grid != self._grid:
            self._grid = grid
            self._fields.clear()
        for t in [t for t in self._fields if t < init]:
            del self._fields[t]

    def at(self, t: datetime, geom: GridGeometry) -> np.ndarray:
        """The true field at `t` on `geom`, the grid of the current run."""
        field = self._fields.get(t)
        if field is None:
            field = puff_field(self._sources, self._wind, t, self._grid)
            self._fields[t] = field
        return field[:geom.nrows, :geom.ncols]


def build_run_granule(spec: CorpusSpec, fid: str, init: datetime,
                      sources: Sequence[PuffSource],
                      wind: tuple[float, float],
                      truths: TrueFields | None = None):
    """Granule for one scheduled run: true field + lead-time perturbation.
    `truths` shares true fields across the runs of one corpus; without it the
    run computes its own."""
    geom = _run_geometry(spec, init)
    if truths is None:
        truths = TrueFields(spec, sources, wind)
    truths.start_run(init, geom)
    rng = _run_rng(spec, fid, init)
    # each clipped, perturbed frame goes straight into the float32 payload
    pm25 = np.empty((spec.horizon_hours, geom.nrows, geom.ncols), dtype=np.float32)
    frame = np.empty((geom.nrows, geom.ncols))
    for lead in range(spec.horizon_hours):
        truth = truths.at(init + timedelta(hours=lead), geom)
        eta = float(rng.uniform(-1.0, 1.0))
        np.multiply(truth, 1.0 + PERTURB_PER_LEAD_HOUR * lead * eta, out=frame)
        np.maximum(frame, 0.0, out=frame)
        pm25[lead] = frame
    # The stream whose embedded hour matches the init publishes last, so the
    # creation stamp breaks same-init ties in favor of the native stream.
    try:
        native = embedded_init_hour(fid) == init.hour
    except ConfigError:
        native = False
    created = init + timedelta(minutes=60 + (30 if native else 0)
                               + int(rng.integers(0, 30)))
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
    entries = []
    for fid, init in spec.scheduled_runs():
        rng = _run_rng(spec, fid, init)
        outcome = _run_outcome(spec, rng)
        if outcome == "missing":
            entries.append(ManifestEntry(fid, init, "missing", ""))
            continue
        rel = f"{fid}/{init:%Y%m%d%H}/dispersion.gran"
        if outcome == "html":
            parts = (HTML_BODY,)
        else:
            # the granule draws from its own RNG, so skipping html runs
            # changes no other run's bytes
            head, payload = encode_granule(
                build_run_granule(spec, fid, init, sources, wind, truths))
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

    manifest = CorpusManifest(root, entries)
    manifest.write_csv(root / "manifest.csv")
    return manifest
