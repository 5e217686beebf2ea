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
from functools import lru_cache
from typing import Callable

import numpy as np

from .archive import CuratedArchive
from .granule import GridGeometry
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


def _fractional_index(g: GridGeometry, lat: float,
                      lon: float) -> tuple[float, float]:
    fy = (lat - g.lat0) / g.dlat
    fx = (lon - g.lon0) / g.dlon
    if not (0.0 <= fy <= g.nrows - 1 and 0.0 <= fx <= g.ncols - 1):
        raise ExtentError(f"({lat}, {lon}) outside archive extent "
                          f"[{g.lat0}, {g.lat_max}] x [{g.lon0}, {g.lon_max}]")
    return fy, fx


@lru_cache(maxsize=64)
def _sampler(g: GridGeometry, lat: float, lon: float,
             mode: SamplingMode) -> Callable[[np.ndarray], float]:
    """The sampling rule at an in-extent point of grid `g`, as a function of
    a level-0 frame's values. The fractional index and the corner weights
    are computed once per point, not once per hour: a series samples each
    of its hours with the rule of its first."""
    fy, fx = _fractional_index(g, lat, lon)
    if mode is SamplingMode.SOUTHWEST_CORNER:
        # floor toward the grid origin in both axes
        row, col = int(math.floor(fy)), int(math.floor(fx))
        return lambda v: float(v[row, col])
    iy, wy = corner_weights(fy, g.nrows)
    ix, wx = corner_weights(fx, g.ncols)
    iy, ix, wy, wx = int(iy), int(ix), float(wy), float(wx)

    def bilinear(v: np.ndarray) -> float:
        # the corners as Python floats, so the blend runs in float64
        return float(blend(wy, wx, *map(float, v[iy:iy + 2, ix:ix + 2].flat)))
    return bilinear


def sample_point(archive: CuratedArchive, t: datetime, lat: float, lon: float,
                 mode: SamplingMode = SamplingMode.BILINEAR) -> float:
    """PM2.5 at an arbitrary in-extent point for one covered timestep."""
    sample = _sampler(archive.geometry, lat, lon, mode)
    return sample(archive.read_frame(t, level=0)[0].values)


@dataclass
class SeriesResult:
    entries: list[tuple[datetime, float]]
    gaps: list[datetime]


def sample_series(archive: CuratedArchive, t0: datetime, t1: datetime,
                  lat: float, lon: float,
                  mode: SamplingMode = SamplingMode.BILINEAR) -> SeriesResult:
    """Hourly point samples over [t0, t1]; gap hours are reported, not thrown."""
    _sampler(archive.geometry, lat, lon, mode)  # extent check up front
    entries, gaps = [], []
    for t in hour_range(t0, t1):
        if t in archive.gaps:
            gaps.append(t)
        else:
            entries.append((t, sample_point(archive, t, lat, lon, mode)))
    return SeriesResult(entries, gaps)
