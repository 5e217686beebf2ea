"""Point and point-series sampling from a curated archive.

Two modes are first-class: the original south-west corner rule and the
corrected bilinear rule, so the two sampling conventions can be compared on
the same archive with one flag. Sampling always reads level 0; degrading to
a coarser level would silently change analysis numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import datetime

from .archive import CuratedArchive
from .regrid import blend, corner_weights
from .timecal import hour_range


class SamplingMode(enum.Enum):
    SOUTHWEST_CORNER = "sw"
    BILINEAR = "bilinear"

    @classmethod
    def parse(cls, text: str) -> "SamplingMode":
        for mode in cls:
            if text in (mode.value, mode.name.lower()):
                return mode
        raise ValueError(f"unknown sampling mode {text!r}")


class ExtentError(ValueError):
    pass


def _fractional_index(archive: CuratedArchive, lat: float,
                      lon: float) -> tuple[float, float]:
    g = archive.geometry
    fy = (lat - g.lat0) / g.dlat
    fx = (lon - g.lon0) / g.dlon
    if not (0.0 <= fy <= g.nrows - 1 and 0.0 <= fx <= g.ncols - 1):
        raise ExtentError(f"({lat}, {lon}) outside archive extent "
                          f"[{g.lat0}, {g.lat_max}] x [{g.lon0}, {g.lon_max}]")
    return fy, fx


def sample_point(archive: CuratedArchive, t: datetime, lat: float, lon: float,
                 mode: SamplingMode = SamplingMode.BILINEAR) -> float:
    """PM2.5 at an arbitrary in-extent point for one covered timestep."""
    fy, fx = _fractional_index(archive, lat, lon)
    frame, _ = archive.read_frame(t, level=0)
    v = frame.values
    if mode is SamplingMode.SOUTHWEST_CORNER:
        # floor toward the grid origin in both axes
        return float(v[int(math.floor(fy)), int(math.floor(fx))])
    iy, wy = corner_weights(fy, v.shape[0])
    ix, wx = corner_weights(fx, v.shape[1])
    # the corners as Python floats, so the blend runs in float64
    return float(blend(wy, wx, *map(float, v[iy:iy + 2, ix:ix + 2].flat)))


@dataclass
class SeriesResult:
    entries: list[tuple[datetime, float]]
    gaps: list[datetime]


def sample_series(archive: CuratedArchive, t0: datetime, t1: datetime,
                  lat: float, lon: float,
                  mode: SamplingMode = SamplingMode.BILINEAR) -> SeriesResult:
    """Hourly point samples over [t0, t1]; gap hours are reported, not thrown."""
    _fractional_index(archive, lat, lon)  # extent check up front
    entries, gaps = [], []
    for t in hour_range(t0, t1):
        if t in archive.gaps:
            gaps.append(t)
        else:
            entries.append((t, sample_point(archive, t, lat, lon, mode)))
    return SeriesResult(entries, gaps)
