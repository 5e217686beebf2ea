"""Bilinear resampling of a frame onto the canonical grid, by the one rule
(`on_axis`, `corner_weights`, `blend`) that `query` samples points with.

Geometry comparison is exact (all six fields); fuzzy matching would silently
hide the grid drift this pipeline exists to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .granule import GridGeometry


@dataclass
class Frame:
    """One spatial field with its grid and resampling provenance."""

    geometry: GridGeometry
    values: np.ndarray
    resampled: bool = False


def on_axis(f, n: int):
    """Whether fractional indices `f` lie on an axis of `n` points, to within
    1e-9 of a step: the roundoff of a coordinate at the exact boundary."""
    return (f >= -1e-9) & (f <= n - 1 + 1e-9)


def corner_weights(f, n: int):
    """For fractional indices `f` along an axis of `n` points: the index of
    the lower of the two enclosing points, and the weight of the upper one."""
    i = np.clip(np.floor(f).astype(int), 0, n - 2)
    return i, np.clip(f - i, 0.0, 1.0)


def blend(wy, wx, v00, v01, v10, v11):
    """The bilinear blend of four corners, `v01` one column and `v10` one
    row above `v00`, with upper-corner weights `wy` (rows) and `wx`."""
    return ((1 - wy) * (1 - wx) * v00 + (1 - wy) * wx * v01
            + wy * (1 - wx) * v10 + wy * wx * v11)


def bilinear_resample(src: Frame, target: GridGeometry) -> Frame:
    """Resample onto `target` by bilinear blending of the 4 enclosing source
    points. Target points outside the source bounding box are set to 0.

    When the two grids share origin and spacing exactly (only `nrows`/`ncols`
    differ), every in-extent target point is a source point: the overlap is
    copied, which is the exact answer the blend only approximates (its
    fractional indices miss integers by ~1e-13)."""
    sg = src.geometry
    if sg.nrows < 2 or sg.ncols < 2:
        raise ValueError("source grid is degenerate (needs at least 2x2 points)")
    target.validate()

    if ((sg.lat0, sg.lon0, sg.dlat, sg.dlon)
            == (target.lat0, target.lon0, target.dlat, target.dlon)):
        rows, cols = min(sg.nrows, target.nrows), min(sg.ncols, target.ncols)
        out = np.zeros((target.nrows, target.ncols))
        # adding +0.0 turns -0.0 into +0.0, so no cell is negative zero
        np.add(src.values[:rows, :cols], 0.0, out=out[:rows, :cols])
        return Frame(target, out, resampled=True)

    # fractional source index of each target row and column
    fy = (target.latitudes() - sg.lat0) / sg.dlat
    fx = (target.longitudes() - sg.lon0) / sg.dlon

    inside = on_axis(fy, sg.nrows)[:, None] & on_axis(fx, sg.ncols)[None, :]

    iy, wy = corner_weights(fy, sg.nrows)
    ix, wx = corner_weights(fx, sg.ncols)
    v = np.asarray(src.values, dtype=np.float64)
    out = blend(wy[:, None], wx[None, :], v[np.ix_(iy, ix)],
                v[np.ix_(iy, ix + 1)], v[np.ix_(iy + 1, ix)],
                v[np.ix_(iy + 1, ix + 1)])

    out = np.where(inside, out, 0.0)
    np.maximum(out, 0.0, out=out)
    return Frame(target, out, resampled=True)


def identity_or_resample(frame: Frame, canonical: GridGeometry) -> Frame:
    """Pass canonical-grid frames through unchanged; resample anything else."""
    if frame.geometry == canonical:
        return Frame(frame.geometry, frame.values)
    return bilinear_resample(frame, canonical)
