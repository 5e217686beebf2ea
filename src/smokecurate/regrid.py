"""Bilinear resampling of a frame onto the canonical grid.

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

    lat = target.lat0 + np.arange(target.nrows) * target.dlat
    lon = target.lon0 + np.arange(target.ncols) * target.dlon
    fy = (lat - sg.lat0) / sg.dlat          # fractional row index per target row
    fx = (lon - sg.lon0) / sg.dlon

    eps = 1e-9  # tolerate roundoff at the exact source boundary
    in_y = (fy >= -eps) & (fy <= sg.nrows - 1 + eps)
    in_x = (fx >= -eps) & (fx <= sg.ncols - 1 + eps)
    inside = in_y[:, None] & in_x[None, :]

    iy = np.clip(np.floor(fy).astype(int), 0, sg.nrows - 2)
    ix = np.clip(np.floor(fx).astype(int), 0, sg.ncols - 2)
    wy = np.clip(fy - iy, 0.0, 1.0)
    wx = np.clip(fx - ix, 0.0, 1.0)

    v = np.asarray(src.values, dtype=np.float64)
    v00 = v[np.ix_(iy, ix)]
    v01 = v[np.ix_(iy, ix + 1)]
    v10 = v[np.ix_(iy + 1, ix)]
    v11 = v[np.ix_(iy + 1, ix + 1)]
    wy2 = wy[:, None]
    wx2 = wx[None, :]
    out = ((1 - wy2) * (1 - wx2) * v00 + (1 - wy2) * wx2 * v01
           + wy2 * (1 - wx2) * v10 + wy2 * wx2 * v11)

    out = np.where(inside, out, 0.0)
    np.maximum(out, 0.0, out=out)
    return Frame(target, out, resampled=True)


def identity_or_resample(frame: Frame, canonical: GridGeometry) -> Frame:
    """Pass canonical-grid frames through unchanged; resample anything else."""
    if frame.geometry == canonical:
        return Frame(frame.geometry, frame.values)
    return bilinear_resample(frame, canonical)
