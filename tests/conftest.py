"""Shared builders for small granules, corpora and archives."""

from __future__ import annotations

import builtins
import mmap
import os
import struct
import threading
import weakref
from collections import Counter
from contextlib import contextmanager
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest

from smokecurate import granule
from smokecurate.archive import build_archive
from smokecurate.corpusgen import CorpusSpec, FaultProfile
from smokecurate.granule import (HEADER_END, GridGeometry, encode_granule,
                                 make_granule)
from smokecurate.indexer import build_coverage, scan_cache
from smokecurate.sequencer import plan_sequence
from smokecurate.timecal import UTC

SMALL_GEOM = GridGeometry(nrows=6, ncols=8, lat0=40.0, lon0=-120.0,
                          dlat=0.5, dlon=0.5)
T0 = datetime(2022, 3, 2, 0, tzinfo=UTC)



def pool_of(monkeypatch, width):
    """Run the grid work of every archive build and corpus `width` frames at
    a time, whatever their frame size: on a pool of `width` threads, or in
    the calling thread when 1."""
    monkeypatch.setattr(granule, "PARALLEL_FRAME_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)),
                        raising=False)

def simple_granule(ntimes=4, geometry=SMALL_GEOM, forecast_id="BSC00CA12-01",
                   init=T0, fill=None):
    """Granule with a deterministic, spatially varying payload."""
    rows, cols = geometry.nrows, geometry.ncols
    frames = []
    for k in range(ntimes):
        if fill is not None:
            frames.append(np.full((rows, cols), fill, dtype=np.float32))
        else:
            r = np.arange(rows, dtype=np.float32)[:, None]
            c = np.arange(cols, dtype=np.float32)[None, :]
            frames.append(1.0 + k + 0.5 * r + 0.25 * c)
    return make_granule(forecast_id, created=init + timedelta(hours=1),
                        weather_init=init - timedelta(hours=6),
                        smoke_init=init, geometry=geometry, frames=frames)


def granule_to_bytes(g) -> bytes:
    """One granule body: the two parts `encode_granule` returns, joined."""
    return b"".join(encode_granule(g))


def simple_granule_bytes(**kwargs) -> bytes:
    return granule_to_bytes(simple_granule(**kwargs))


# the four f64 geometry fields that end the fixed header; read_header
# reports any bad geometry at the first grid dimension, byte 52
GEOMETRY_AT = {"lat0": HEADER_END - 32, "lon0": HEADER_END - 24,
               "dlat": HEADER_END - 16, "dlon": HEADER_END - 8}
BAD_GEOMETRY_OFFSET = 52


def with_geometry_field(data: bytes, field: str, value: float) -> bytes:
    """`data` with one geometry field's bytes replaced by `value`."""
    at = GEOMETRY_AT[field]
    return data[:at] + struct.pack("<d", value) + data[at + 8:]


def archive_from_frames(tmp_path, frames, geometry=SMALL_GEOM, start=T0,
                        levels=2, forecast_id="BSC00CA12-01"):
    """Single-granule archive whose level-0 frames are exactly `frames`."""
    cache = tmp_path / "cache_single"
    cache.mkdir(parents=True, exist_ok=True)
    g = make_granule(forecast_id, created=start + timedelta(hours=1),
                     weather_init=start - timedelta(hours=6),
                     smoke_init=start, geometry=geometry, frames=frames)
    (cache / forecast_id).mkdir(exist_ok=True)
    (cache / forecast_id / "dispersion_20220302.gran").write_bytes(
        granule_to_bytes(g))
    records = scan_cache(cache)
    index = build_coverage(records)
    times = index.timesteps()
    plan = plan_sequence(index, times[0], times[-1])
    return build_archive(plan, geometry, tmp_path / "arch_single", levels=levels)


class _Counted:
    """A stream whose `read`, `readinto` and lines add the bytes (or, for a
    text stream, the characters) they return to `reads[key]`; everything
    else goes to the stream."""

    def __init__(self, stream, reads: Counter, key: str):
        self._stream, self._reads, self._key = stream, reads, key

    def read(self, n=-1):
        data = self._stream.read(n)
        self._reads[self._key] += len(data)
        return data

    def readinto(self, buf):
        n = self._stream.readinto(buf)
        self._reads[self._key] += n or 0
        return n

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._stream)
        self._reads[self._key] += len(line)
        return line

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stream.close()


class ReadCounts(Counter):
    """Bytes returned by reads, per path (or per the key of a wrapped
    stream); `mapped` holds the bytes of the file maps made, per path, and
    `peak_mapped` the most file bytes mapped at once."""

    def __init__(self):
        super().__init__()
        self.mapped = Counter()
        self.peak_mapped = 0
        self._live = 0
        self._lock = threading.Lock()

    def wrap(self, stream, key="stream"):
        """`stream`, with its `read` and `readinto` counted under `key`."""
        return _Counted(stream, self, key)

    def map(self, m, key):
        """Count the file map `m` under `key`, live until it is released."""
        with self._lock:
            self.mapped[key] += len(m)
            self._live += len(m)
            self.peak_mapped = max(self.peak_mapped, self._live)
        weakref.finalize(m, self._unmap, len(m))

    def _unmap(self, n):
        with self._lock:
            self._live -= n


@contextmanager
def count_reads(text=False):
    """Count, per path, the bytes returned while the block runs by `read`
    and `readinto` on binary files opened with `open`, and with `text` also
    the characters read from text files opened with `open` (their bytes, for
    ASCII files such as the archive's manifest and day indexes); and the
    bytes of each map of such a file (`ReadCounts.mapped`), with the most
    mapped at once (`ReadCounts.peak_mapped`). The one byte counter of the
    tests: `with count_reads() as reads:` gives a `ReadCounts`, whose `wrap`
    counts any other stream the same way."""
    reads = ReadCounts()
    real_open, real_mmap = builtins.open, mmap.mmap
    paths = {}  # descriptor -> path of the file last opened on it

    def counted_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if not (text or "b" in mode):
            return f
        paths[f.fileno()] = str(file)
        return reads.wrap(f, str(file))

    def counted_mmap(fileno, length, *args, **kwargs):
        m = real_mmap(fileno, length, *args, **kwargs)
        if fileno != -1:  # not an anonymous map
            reads.map(m, paths.get(fileno, f"fd {fileno}"))
        return m

    with mock.patch.object(builtins, "open", counted_open), \
            mock.patch.object(mmap, "mmap", counted_mmap):
        yield reads


@pytest.fixture
def tiny_corpus_spec():
    return CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 4),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01",
                                    "BSC12CA12-01", "BSC18CA12-01"),
                      init_hours=(0, 6, 12, 18), horizon_hours=24,
                      geometry=SMALL_GEOM, seed=7)


@pytest.fixture
def faulty_corpus_spec():
    return CorpusSpec(start_date=date(2022, 3, 2), end_date=date(2022, 3, 5),
                      forecast_ids=("BSC00CA12-01", "BSC06CA12-01"),
                      init_hours=(0, 6), horizon_hours=12,
                      geometry=SMALL_GEOM,
                      fault_profile=FaultProfile(0.25, 0.2, 0.2), seed=11)
