"""Binary container for one forecast run: header, per-frame timestamps, PM2.5 frames.

GRANULE v1 layout (little-endian):
    magic           8 bytes  "SMOKGRAN"
    version         u32 = 1
    forecast_id     16 bytes ASCII, right-padded with spaces
    cdate..stime    6 x u32  (YYYYDDD / HHMMSS creation, weather init, smoke init)
    nrows,ncols,ntimes  3 x u32
    lat0,lon0,dlat,dlon 4 x f64
    tflag           ntimes x (u32 date, u32 time)
    payload         ntimes*nrows*ncols f32, time-major then row-major

In memory a granule's times are aware UTC datetimes in one `GranuleHeader`;
the YYYYDDD/HHMMSS stamps exist only in the bytes, decoded once by
`read_header` and encoded once by the writer. The tflag is proven hourly
from its first entry, so frame i is at `first_frame + i*HOUR`.

Parsing must be safe on arbitrary bytes; every failure carries the byte
offset of the first inconsistency. Every payload byte goes through one
checked fill, `_read_payload`, straight into the memory that keeps it:
`parse_granule` fills its one payload array (no copy), `FrameReader` reads
single frames after a header-only parse, each into a fresh array, so a
reader that needs a few frames never loads the rest, and `validate_stream`
checks a whole granule as it streams past, through one bounded buffer, so a
writer never holds a whole body.
"""

from __future__ import annotations

import io
import math
import mmap
import numbers
import os
import struct
from dataclasses import dataclass
from datetime import datetime
from typing import BinaryIO, Sequence

import numpy as np

from .timecal import (HOUR, EncodingError, JulianStamp, calendar_to_julian,
                      julian_to_calendar)

MAGIC = b"SMOKGRAN"
VERSION = 1

_PREAMBLE = struct.Struct("<8sI")                 # magic + version
_HEADER = struct.Struct("<16s6I3I4d")             # id, stamps, dims, geometry
_TFLAG_ENTRY = struct.Struct("<II")
HEADER_END = _PREAMBLE.size + _HEADER.size        # 96 bytes

# Work done frame by frame on a grid whose float32 frame has at least this
# many bytes runs on a pool of one thread per CPU this process may run on
# (`pool_width`). At the full 381x1081 grid (1.6 MB) a frame's time goes to
# ufuncs (copies, reductions, resamples, exp), which release the GIL; at the
# desk 20x40 grid (3.2 KB) it goes to Python code, which threads only take
# turns at. A 3-day archive build on 2 threads took, against 1 thread on a
# 2-core host, 1.50x the time at 3.2 KB frames, 1.11x at 32 KiB, 0.95x at
# 128 KiB, 0.90x at 256 KiB and 0.65x at 1.6 MB. The same rule
# (`frame_is_large`) has `corpusgen.puff_field` evaluate each puff only within
# its reach: at the desk grid the windows' Python costs more than the lanes
# they skip.
PARALLEL_FRAME_BYTES = 256 << 10

# Payload bytes `validate_stream` reads and checks at a time; a multiple of 4,
# so each buffer holds whole float32 values. 1 MiB fits a core's 2 MiB L2
# cache, so a piece's copy, its min and max scans and its write read it from
# L2, not L3. The fetch stage of a full-grid curate (8 granules of 138 MB,
# 2 pool threads on a 2-core host) took a median 0.44 s at 8 MiB, 0.38 s at
# 2 MiB, 0.37 s at 1 MiB, 0.40 s at 512 KiB and 0.47 s at 256 KiB.
STREAM_BUFFER_BYTES = 1 << 20


class GranuleError(Exception):
    """Base for granule format errors; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at byte {offset})")


class NotAGranuleError(GranuleError):
    """Leading bytes are not the granule magic (e.g. an HTML error page)."""


class TruncatedError(GranuleError):
    """Stream ended before the declared content length."""


class InvalidHeaderError(GranuleError):
    """Header or tflag fields violate the format invariants."""


@dataclass(frozen=True)
class GridGeometry:
    """Regular lat/lon grid; (lat0, lon0) is the south-west corner."""

    nrows: int
    ncols: int
    lat0: float
    lon0: float
    dlat: float
    dlon: float

    def validate(self) -> "GridGeometry":
        if not all(map(math.isfinite, (self.lat0, self.lon0, self.dlat, self.dlon))):
            raise ValueError("grid origin and spacing must be finite")
        if not all(isinstance(n, numbers.Integral) for n in (self.nrows, self.ncols)):
            raise ValueError(f"grid dimensions {self.nrows!r}x{self.ncols!r} "
                             f"are not integers")
        if self.nrows < 2 or self.ncols < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nrows}x{self.ncols}")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("grid spacing must be positive")
        if self.lat0 < -90.0:
            raise ValueError(f"origin latitude {self.lat0} below -90 degrees")
        if self.lat0 + (self.nrows - 1) * self.dlat > 90.0:
            raise ValueError("grid extends past 90 degrees latitude")
        if not -180.0 <= self.lon0 < 180.0:
            raise ValueError(f"origin longitude {self.lon0} outside [-180, 180)")
        return self

    @property
    def lat_max(self) -> float:
        return self.lat0 + (self.nrows - 1) * self.dlat

    @property
    def lon_max(self) -> float:
        return self.lon0 + (self.ncols - 1) * self.dlon

    def latitudes(self) -> np.ndarray:
        return self.lat0 + np.arange(self.nrows) * self.dlat

    def longitudes(self) -> np.ndarray:
        return self.lon0 + np.arange(self.ncols) * self.dlon


def frame_is_large(geometry: GridGeometry) -> bool:
    """True when a float32 frame of `geometry` has at least
    PARALLEL_FRAME_BYTES: the full grid, not the desk grid."""
    return geometry.nrows * geometry.ncols * 4 >= PARALLEL_FRAME_BYTES


def pool_width(geometry: GridGeometry) -> int:
    """Threads for work done frame by frame on `geometry`: one per CPU in this
    process's affinity mask when its frames are large (`frame_is_large`),
    else 1, meaning the calling thread. The archive build and the corpus
    generator both size their pools here."""
    if not frame_is_large(geometry):
        return 1
    # the affinity mask is a system call, where os.cpu_count() reads a sysfs
    # file on Linux
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True)
class GranuleHeader:
    """A granule's metadata; frame i is at `first_frame + i*HOUR`."""

    forecast_id: str
    created: datetime        # file creation
    weather_init: datetime   # weather-forecast initialization
    smoke_init: datetime     # smoke-forecast initialization
    first_frame: datetime    # tflag[0]
    geometry: GridGeometry
    ntimes: int

    @property
    def header_bytes(self) -> int:
        return HEADER_END + self.ntimes * _TFLAG_ENTRY.size

    @property
    def expected_payload_bytes(self) -> int:
        return self.ntimes * self.geometry.nrows * self.geometry.ncols * 4

    @property
    def expected_total_bytes(self) -> int:
        return self.header_bytes + self.expected_payload_bytes


@dataclass
class ForecastGranule:
    header: GranuleHeader
    pm25: np.ndarray  # (ntimes, nrows, ncols) float32

    @property
    def tflag(self) -> list[JulianStamp]:
        """The per-frame stamps, as `_pack_head` writes them."""
        h = self.header
        return [calendar_to_julian(h.first_frame + i * HOUR) for i in range(h.ntimes)]

    def validate(self) -> tuple[bytes, np.ndarray]:
        """Check the granule as written and return the checked header and
        tflag bytes and `<f4` payload. The shape comes first, so a huge
        `ntimes` packs no tflag; the packed header must read back through
        `read_header` unchanged; the values checked are the float32 ones."""
        h = self.header
        expect = (h.ntimes, h.geometry.nrows, h.geometry.ncols)
        if self.pm25.shape != expect:
            raise ValueError(f"payload shape {self.pm25.shape} != {expect}")
        try:
            head = _pack_head(h)
            back = read_header_bytes(head)
        except (struct.error, OverflowError, ValueError, GranuleError) as e:
            raise ValueError(f"bad granule header: {e}") from None
        if back != h:
            raise ValueError(f"{h} reads back as {back}")
        with np.errstate(over="ignore"):
            payload = np.ascontiguousarray(self.pm25, dtype="<f4")
        try:
            _check_payload(payload, 0)
        except InvalidHeaderError:
            kind = ("non-finite values" if not np.isfinite(payload).all()
                    else "negative concentrations")
            raise ValueError(f"payload contains {kind}") from None
        return head, payload


def _pack_head(h: GranuleHeader) -> bytes:
    """Header and tflag bytes, unchecked: the one place stamps are encoded.
    The id is packed as UTF-8, so an id `read_header` would not return as
    given is caught by reading it back."""
    geom = h.geometry
    created, weather, smoke = (calendar_to_julian(t) for t in
                               (h.created, h.weather_init, h.smoke_init))
    tflag = (calendar_to_julian(h.first_frame + i * HOUR) for i in range(h.ntimes))
    return b"".join([
        _PREAMBLE.pack(MAGIC, VERSION),
        _HEADER.pack(h.forecast_id.encode("utf-8").ljust(16),
                     created.date, created.time,
                     weather.date, weather.time,
                     smoke.date, smoke.time,
                     geom.nrows, geom.ncols, h.ntimes,
                     geom.lat0, geom.lon0, geom.dlat, geom.dlon),
        *(_TFLAG_ENTRY.pack(s.date, s.time) for s in tflag)])


def encode_granule(g: ForecastGranule) -> tuple[bytes, memoryview]:
    """The one serializer: validate `g` once and return its header and tflag
    bytes and a byte view of its payload."""
    head, payload = g.validate()
    return head, memoryview(payload).cast("B")


def _read_upto(source: BinaryIO, n: int) -> bytes:
    """`n` bytes from `source`; fewer only at the end of the stream (a raw
    stream's `read` may return fewer bytes before it)."""
    chunks, got = [], 0
    while got < n:
        chunk = source.read(n - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_exact(source: BinaryIO, n: int, offset: int, what: str) -> bytes:
    data = _read_upto(source, n)
    if len(data) < n:
        raise TruncatedError(f"stream ended inside {what}", offset + len(data))
    return data


def read_header(source: BinaryIO) -> GranuleHeader:
    """Read magic + header + tflag only; the payload region is never touched.

    The one place a granule's stamps are decoded: each header stamp and tflag
    entry is decoded once, and the tflag is proven hourly-contiguous, so the
    header keeps only its first frame. Payload truncation is not detectable
    here; the header's expected sizes are for later validation.
    """
    head = _read_upto(source, _PREAMBLE.size)
    if len(head) < len(MAGIC) or head[: len(MAGIC)] != MAGIC:
        mismatch = next((i for i, (a, b) in enumerate(zip(head, MAGIC)) if a != b),
                        min(len(head), len(MAGIC)))
        raise NotAGranuleError("magic mismatch", mismatch)
    if len(head) < _PREAMBLE.size:
        raise TruncatedError("stream ended inside version field", len(head))
    _, version = _PREAMBLE.unpack(head)
    if version != VERSION:
        raise InvalidHeaderError(f"unsupported version {version}", len(MAGIC))

    raw = _read_exact(source, _HEADER.size, _PREAMBLE.size, "header")
    (ident, cd, ct, wd, wt, sd, st,
     nrows, ncols, ntimes, lat0, lon0, dlat, dlon) = _HEADER.unpack(raw)
    try:
        forecast_id = ident.decode("ascii").rstrip(" ")
    except UnicodeDecodeError:
        raise InvalidHeaderError("forecast_id is not ASCII", _PREAMBLE.size) from None
    if not forecast_id or not forecast_id.isprintable():
        raise InvalidHeaderError("forecast_id empty or unprintable", _PREAMBLE.size)

    try:
        times = [julian_to_calendar(JulianStamp(cd, ct)),
                 julian_to_calendar(JulianStamp(wd, wt)),
                 julian_to_calendar(JulianStamp(sd, st))]
    except EncodingError as e:
        raise InvalidHeaderError(f"bad header stamp: {e}", _PREAMBLE.size + 16) from None

    geometry = GridGeometry(nrows, ncols, lat0, lon0, dlat, dlon)
    try:
        geometry.validate()
    except ValueError as e:
        raise InvalidHeaderError(f"bad geometry: {e}", _PREAMBLE.size + 40) from None
    if ntimes < 1:
        raise InvalidHeaderError("ntimes must be >= 1", _PREAMBLE.size + 48)

    for i in range(ntimes):
        off = HEADER_END + i * _TFLAG_ENTRY.size
        entry = _read_exact(source, _TFLAG_ENTRY.size, off, "tflag")
        try:
            instant = julian_to_calendar(JulianStamp(*_TFLAG_ENTRY.unpack(entry)))
        except EncodingError as e:
            raise InvalidHeaderError(f"bad tflag[{i}]: {e}", off) from None
        if i == 0:
            first = instant
        elif instant - first != i * HOUR:
            raise InvalidHeaderError(f"tflag[{i}] breaks hourly contiguity", off)

    return GranuleHeader(forecast_id, *times, first, geometry, ntimes)


def parse_granule(source: BinaryIO) -> ForecastGranule:
    """Fully parse a granule, filling one payload array in place.

    Safe on arbitrary byte input: raises NotAGranuleError, TruncatedError or
    InvalidHeaderError instead of crashing. What it returns already holds
    every invariant of ForecastGranule.validate.
    """
    h = read_header(source)
    if source.seekable():
        # refuse a payload the source cannot hold before allocating it
        _check_length(source, h)
    pm25 = np.empty((h.ntimes, h.geometry.nrows, h.geometry.ncols), dtype="<f4")
    _read_payload(source, memoryview(pm25).cast("B"), h.header_bytes)
    return ForecastGranule(h, pm25)


def _check_length(source: BinaryIO, h: GranuleHeader) -> None:
    """A seekable source shorter than the declared granule is truncated at
    its size; the read position is kept."""
    here = source.tell()
    size = source.seek(0, io.SEEK_END)
    source.seek(here)
    if size < h.expected_total_bytes:
        raise TruncatedError("stream ended inside payload", size)


def _check_payload(values: np.ndarray, offset: int) -> None:
    """Reject non-finite or negative values; `offset` is the byte position of
    values' first element, so the error names the first bad value's byte.

    A float32 with the sign bit clear is non-negative, and finite below the
    bits of +inf (0x7F800000), so a clean array is passed by one reduction
    over its bits. Only an array that fails it, which includes one holding a
    -0.0 (sign bit set, yet accepted), takes min and max, which need no
    temporaries and through both of which a NaN propagates; the mask is
    built only to find the first bad value of an array that fails them."""
    if values.view("<u4").max() < 0x7F800000:
        return
    if values.min() >= 0 and values.max() < np.inf:
        return
    ok = np.isfinite(values) & (values >= 0)
    raise InvalidHeaderError("payload value non-finite or negative",
                             offset + int(np.argmax(~ok)) * 4)


def _read_payload(source: BinaryIO, view: memoryview, offset: int) -> None:
    """Fill the byte `view` of payload that starts at byte `offset` from
    `source`, then check its values: the one payload read."""
    got = 0
    while got < len(view):
        n = source.readinto(view[got:])
        if not n:
            raise TruncatedError("stream ended inside payload", offset + got)
        got += n
    _check_payload(np.frombuffer(view, dtype="<f4"), offset)


def validate_stream(source: BinaryIO) -> GranuleHeader:
    """Read one whole granule from `source` and prove it complete and sound.

    The header and tflag go through `read_header`; the payload is read through
    one buffer of at most STREAM_BUFFER_BYTES, each buffer checked for finite,
    non-negative values; the stream must then end at the declared length (a
    long body raises TruncatedError at that length). Accepts exactly what
    `parse_granule` accepts, minus trailing bytes, and for a body with one
    fault raises the same error at the same offset, while memory stays at one
    buffer.

    The buffer is an anonymous mapping, not a heap object, so its pages go
    back to the system when its last reference goes (on return, or when the
    caller drops the exception) instead of staying in a thread's malloc arena.
    """
    h = read_header(source)
    buf = mmap.mmap(-1, min(STREAM_BUFFER_BYTES, h.expected_payload_bytes))
    offset, end = h.header_bytes, h.expected_total_bytes
    while offset < end:
        want = min(len(buf), end - offset)
        _read_payload(source, memoryview(buf)[:want], offset)
        offset += want
    if source.read(1):
        raise TruncatedError(f"stream continues past the declared {end} bytes",
                             end)
    return h


class FrameReader:
    """Frame-addressed reads from one open granule.

    The header and tflag are parsed and validated once, and the source must
    hold at least the declared total bytes. Each `read_frame` then seeks to
    one frame and reads only its payload, so bad values in other frames go
    unnoticed.
    """

    def __init__(self, source: BinaryIO):
        self.header = read_header(source)
        _check_length(source, self.header)
        self._source = source

    def read_frame(self, index: int) -> np.ndarray:
        """Frame `index` as a fresh (nrows, ncols) float32 array."""
        h = self.header
        if not 0 <= index < h.ntimes:
            raise IndexError(f"frame {index} outside 0..{h.ntimes - 1}")
        frame = np.empty((h.geometry.nrows, h.geometry.ncols), dtype="<f4")
        offset = h.header_bytes + index * frame.nbytes
        self._source.seek(offset)
        _read_payload(self._source, memoryview(frame).cast("B"), offset)
        return frame


def parse_granule_bytes(data: bytes) -> ForecastGranule:
    return parse_granule(io.BytesIO(data))


def read_header_bytes(data: bytes) -> GranuleHeader:
    return read_header(io.BytesIO(data))


def make_granule(forecast_id: str,
                 created: datetime,
                 weather_init: datetime,
                 smoke_init: datetime,
                 geometry: GridGeometry,
                 frames: np.ndarray | Sequence[np.ndarray]) -> ForecastGranule:
    """Assemble a granule whose first frame is at the smoke init. Nothing is
    checked or encoded here: a granule is validated once, when it is
    encoded."""
    # no copy for a float32 stack, one for a list of frames
    pm25 = np.asarray(frames, dtype=np.float32)
    header = GranuleHeader(forecast_id, created, weather_init, smoke_init,
                           smoke_init, geometry, len(frames))
    return ForecastGranule(header, pm25)
