import dataclasses
import io
import math
import mmap
import re
import struct
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smokecurate import granule
from smokecurate.corpusgen import HTML_BODY
from smokecurate.granule import (HEADER_END, ForecastGranule, FrameReader,
                                 GranuleError, GranuleHeader,
                                 GridGeometry, InvalidHeaderError,
                                 NotAGranuleError,
                                 TruncatedError, _check_payload,
                                 encode_granule, parse_granule,
                                 parse_granule_bytes, read_header,
                                 read_header_bytes, validate_stream)

from smokecurate.timecal import (HOUR, UTC, EncodingError, JulianStamp,
                                 calendar_to_julian, julian_to_calendar)

from conftest import (BAD_GEOMETRY_OFFSET, SMALL_GEOM, T0, count_reads,
                      granule_to_bytes, simple_granule, simple_granule_bytes,
                      with_geometry_field)


def _tflag_in(data):
    """The tflag stamps as the bytes hold them."""
    h = read_header_bytes(data)
    return [JulianStamp(*struct.unpack_from("<II", data, HEADER_END + 8 * i))
            for i in range(h.ntimes)]


def test_layout_byte_count_2x2_single_frame():
    geom = GridGeometry(2, 2, 40.0, -120.0, 0.5, 0.5)
    g = simple_granule(ntimes=1, geometry=geom)
    data = granule_to_bytes(g)
    # sum of field widths: magic 8 + version 4 + header 84 + tflag 8 + payload 16
    assert len(data) == 8 + 4 + 84 + 8 + 16
    assert HEADER_END == 96


def test_round_trip_equality():
    g = simple_granule(ntimes=3)
    back = parse_granule_bytes(granule_to_bytes(g))
    assert back.header == g.header
    assert back.tflag == g.tflag
    np.testing.assert_array_equal(back.pm25, g.pm25)


def test_serialization_bijection_on_bytes():
    data = simple_granule_bytes(ntimes=2)
    assert granule_to_bytes(parse_granule_bytes(data)) == data


def test_nan_rejected_before_write():
    g = simple_granule(ntimes=1)
    g.pm25[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        encode_granule(g)


def test_negative_rejected_before_write():
    g = simple_granule(ntimes=1)
    g.pm25[0, 1, 1] = -1.0
    with pytest.raises(ValueError, match="negative"):
        encode_granule(g)


def test_html_bytes_are_not_a_granule():
    html = b"<html><body><h1>Not Found</h1></body></html>"
    with pytest.raises(NotAGranuleError):
        parse_granule_bytes(html)
    with pytest.raises(NotAGranuleError):
        read_header_bytes(html)


def test_truncated_payload_detected_at_full_parse():
    data = simple_granule_bytes(ntimes=2)
    with pytest.raises(TruncatedError) as err:
        parse_granule_bytes(data[:-100])
    assert err.value.offset == len(data) - 100


def test_truncation_in_header_region():
    data = simple_granule_bytes(ntimes=2)
    with pytest.raises(TruncatedError):
        read_header_bytes(data[:50])


def test_header_only_read_skips_payload():
    data = simple_granule_bytes(ntimes=84)
    h = read_header_bytes(data[: 96 + 84 * 8])  # payload removed entirely
    assert h.ntimes == 84
    assert h.header_bytes == 96 + 84 * 8
    assert h.expected_payload_bytes == 84 * 6 * 8 * 4
    assert h.expected_total_bytes == len(data)


def test_read_header_agrees_with_full_parse():
    data = simple_granule_bytes(ntimes=5)
    assert read_header_bytes(data) == parse_granule_bytes(data).header


def test_header_read_cost_under_one_percent_of_large_file():
    # ~10 MB granule: 84 frames of 100x120 floats
    geom = GridGeometry(100, 120, 32.0, -160.0, 0.1, 0.1)
    data = simple_granule_bytes(ntimes=84, geometry=geom, fill=1.0)
    assert len(data) > 4_000_000
    with count_reads() as reads:
        read_header(reads.wrap(io.BytesIO(data)))
    assert reads["stream"] < 0.01 * len(data)
    assert reads["stream"] == 96 + 84 * 8


def test_parse_holds_each_payload_byte_once():
    # the payload is read into the array that is returned, with no bytes
    # object or copy beside it; a ~4 MB payload shows a second copy clearly
    geom = GridGeometry(100, 120, 32.0, -160.0, 0.1, 0.1)
    data = simple_granule_bytes(ntimes=84, geometry=geom, fill=1.0)
    payload = read_header_bytes(data).expected_payload_bytes
    tracemalloc.start()
    try:
        g = parse_granule_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.pm25.nbytes == payload
    assert peak < 1.25 * payload, peak / payload


def test_bad_tflag_contiguity_rejected():
    data = bytearray(simple_granule_bytes(ntimes=3))
    # duplicate tflag entry 0 into slot 1
    data[HEADER_END + 8: HEADER_END + 16] = data[HEADER_END: HEADER_END + 8]
    with pytest.raises(InvalidHeaderError):
        read_header_bytes(bytes(data))


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_parse_never_crashes_on_arbitrary_bytes(data):
    try:
        parse_granule_bytes(data)
    except GranuleError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_never_crashes_on_mutated_granules(data):
    base = bytearray(simple_granule_bytes(ntimes=2))
    n_flips = data.draw(st.integers(1, 8))
    for _ in range(n_flips):
        pos = data.draw(st.integers(0, len(base) - 1))
        base[pos] = data.draw(st.integers(0, 255))
    try:
        g = parse_granule_bytes(bytes(base))
    except GranuleError:
        return
    # the parser is the single validator: what it accepts is a valid granule
    # whose frame times are the decoded first frame plus whole hours
    g.validate()
    h = read_header_bytes(bytes(base))
    for i, stamp in enumerate(_tflag_in(bytes(base))):
        assert h.first_frame + i * HOUR == julian_to_calendar(stamp)


_YEAR_END_OR_LEAP_DAY = st.one_of(
    st.builds(lambda y, h: datetime(y, 12, 31, h, tzinfo=UTC),
              st.integers(1990, 2100), st.integers(0, 23)),
    st.builds(lambda y, h: datetime(y, 2, 29, h, tzinfo=UTC),
              st.sampled_from([1996, 2000, 2020, 2024, 2096]),
              st.integers(0, 23)))


@settings(max_examples=100, deadline=None)
@given(_YEAR_END_OR_LEAP_DAY, st.integers(1, 50))
def test_first_frame_across_year_end_and_leap_day(first, ntimes):
    g = simple_granule(ntimes=ntimes, init=first)
    data = granule_to_bytes(g)
    h = read_header_bytes(data)
    assert h.first_frame == first
    tflag = _tflag_in(data)
    assert tflag[0] == calendar_to_julian(first)
    for i, stamp in enumerate(tflag):
        assert h.first_frame + i * HOUR == julian_to_calendar(stamp)
    assert parse_granule_bytes(data).tflag == tflag


def test_parse_decodes_each_stamp_once(monkeypatch):
    # the three header stamps and tflag[0] are decoded; the other tflag
    # entries are compared with tflag[0]'s hourly run and never decoded; the
    # full parse does not re-validate the granule it has just proven
    data = simple_granule_bytes(ntimes=5)
    calls = []
    original = JulianStamp.validate
    monkeypatch.setattr(JulianStamp, "validate",
                        lambda self: calls.append(self) or original(self))
    read_header_bytes(data)
    assert calls[3:] == [calendar_to_julian(T0)] and len(calls) == 3 + 1
    calls.clear()
    parse_granule_bytes(data)
    assert len(calls) == 3 + 1


def _per_entry_header(data):
    """The header of `data`, whose fixed header must be valid, as a reader
    decoding every tflag entry would give it: the oracle for `read_header`'s
    run check. Each entry is read alone and decoded, in order, and must be
    tflag[0] plus i hours."""
    (ident, cd, ct, wd, wt, sd, st_, nrows, ncols, ntimes,
     *grid) = struct.unpack_from("<16s6I3I4d", data, 12)
    source = io.BytesIO(data)
    source.seek(HEADER_END)
    for i in range(ntimes):
        off = HEADER_END + i * 8
        entry = source.read(8)
        if len(entry) < 8:
            raise TruncatedError("stream ended inside tflag", off + len(entry))
        try:
            instant = julian_to_calendar(JulianStamp(*struct.unpack("<II",
                                                                    entry)))
        except EncodingError as e:
            raise InvalidHeaderError(f"bad tflag[{i}]: {e}", off) from None
        if i == 0:
            first = instant
        elif instant - first != i * HOUR:
            raise InvalidHeaderError(f"tflag[{i}] breaks hourly contiguity",
                                     off)
    return GranuleHeader(ident.decode("ascii").rstrip(" "),
                         *(julian_to_calendar(JulianStamp(d, t))
                           for d, t in ((cd, ct), (wd, wt), (sd, st_))),
                         first, GridGeometry(nrows, ncols, *grid), ntimes)


def _header_outcome(read, data):
    """What `read(data)` returns, or its error's class, message and offset."""
    try:
        return read(data)
    except GranuleError as e:
        return type(e), str(e), e.offset


_ANY_SECOND = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
                           timezones=st.just(UTC)).map(
    lambda t: t.replace(microsecond=0))
# first frames at a year's end, on a leap day, in year 1 or late in year
# 9999, with minutes and seconds
_RUN_STARTS = st.one_of(
    _ANY_SECOND,
    st.builds(lambda y, d, h, m, s: datetime(y, 12, d, h, m, s, tzinfo=UTC),
              st.integers(1, 9999), st.integers(30, 31), st.integers(0, 23),
              st.integers(0, 59), st.integers(0, 59)),
    st.builds(lambda y, h, m, s: datetime(y, 2, 28, h, m, s, tzinfo=UTC),
              st.sampled_from([4, 100, 1900, 2000, 2023, 2024, 9996]),
              st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
    st.builds(lambda d, h, m, s: datetime(1, 1, d, h, m, s, tzinfo=UTC),
              st.integers(1, 2), st.integers(0, 23), st.integers(0, 59),
              st.integers(0, 59)),
    st.builds(lambda h, m, s: datetime(9999, 12, 31, h, m, s, tzinfo=UTC),
              st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)))
_U32 = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_run_check_gives_the_per_entry_header_or_error(data):
    first = data.draw(_RUN_STARTS)
    n = data.draw(st.integers(1, 60))
    tflag = []
    for i in range(n):
        try:
            stamp = calendar_to_julian(first + i * HOUR)
            tflag.append((stamp.date, stamp.time))
        except OverflowError:  # past year 9999: whatever a writer left
            tflag.append((data.draw(_U32), data.draw(_U32)))
    if data.draw(st.booleans()):  # one entry off the run
        i = data.draw(st.integers(0, n - 1))
        d, t = tflag[i]
        tflag[i] = data.draw(st.one_of(
            st.tuples(_U32, _U32),
            st.tuples(st.sampled_from([d - 1, d + 1, d + 1000, d - 999]),
                      st.just(t)),
            st.tuples(st.just(d), st.sampled_from([t - 10000, t + 10000,
                                                   t + 1, t + 100]))))
    ntimes = data.draw(st.one_of(st.just(n), st.integers(n + 1, 2 ** 32 - 1)))
    cd = calendar_to_julian(datetime(2022, 3, 2, tzinfo=UTC))
    body = (struct.pack("<8sI16s6I3I4d", b"SMOKGRAN", 1, b"BSC00CA12-01".ljust(16),
                        cd.date, cd.time, cd.date, cd.time, cd.date, cd.time,
                        2, 3, ntimes, 40.0, -120.0, 0.5, 0.5)
            + b"".join(struct.pack("<II", d % 2 ** 32, t % 2 ** 32)
                       for d, t in tflag)
            + bytes(4 * 6 * n))
    body = body[:data.draw(st.one_of(
        st.just(len(body)), st.integers(HEADER_END, HEADER_END + 8 * n)))]
    expected = _header_outcome(_per_entry_header, body)
    # blocks smaller than the tflag, so that a fault can fall in any block
    with mock.patch.object(granule, "_TFLAG_BLOCK",
                           data.draw(st.sampled_from([1, 2, 7, 1024]))):
        assert _header_outcome(read_header_bytes, body) == expected


def test_huge_ntimes_on_a_short_file_reads_only_its_bytes(tmp_path):
    # a header that declares 2**32 - 1 frames over a 3-frame tflag is
    # refused at the end of the file, with no buffer the size of the
    # declared tflag
    data = bytearray(simple_granule_bytes(ntimes=3))
    data[HEADER_END - 36:HEADER_END - 32] = struct.pack("<I", 2 ** 32 - 1)
    tflag_end = HEADER_END + 3 * 8
    path = tmp_path / "short.gran"
    path.write_bytes(data[:tflag_end])
    tracemalloc.start()
    try:
        with open(path, "rb") as f, pytest.raises(TruncatedError) as err:
            read_header(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.offset == tflag_end
    assert peak < 1 << 20


def test_tflag_stamp_that_cannot_follow_rejected():
    # the last representable hour followed by anything is not contiguous
    data = bytearray(simple_granule_bytes(ntimes=2))
    data[HEADER_END:HEADER_END + 8] = (9999365).to_bytes(4, "little") + \
        (230000).to_bytes(4, "little")
    with pytest.raises(InvalidHeaderError) as err:
        read_header_bytes(bytes(data))
    assert err.value.offset == HEADER_END + 8


def test_error_offsets_are_reported():
    with pytest.raises(NotAGranuleError) as err:
        parse_granule_bytes(b"SMOKGRAX" + b"\x00" * 100)
    assert err.value.offset == 7


def test_frame_reader_matches_full_parse():
    data = simple_granule_bytes(ntimes=5)
    g = parse_granule_bytes(data)
    reader = FrameReader(io.BytesIO(data))
    assert reader.header == read_header_bytes(data)
    for i in range(5):
        np.testing.assert_array_equal(reader.read_frame(i), g.pm25[i])
    with pytest.raises(IndexError):
        reader.read_frame(5)
    with pytest.raises(IndexError):
        reader.read_frame(-1)


def test_frame_reader_reads_only_the_header_and_the_frame():
    data = simple_granule_bytes(ntimes=40)
    with count_reads() as reads:
        reader = FrameReader(reads.wrap(io.BytesIO(data)))
        header_bytes = reader.header.header_bytes
        reader.read_frame(17)
    assert reads["stream"] == header_bytes + 6 * 8 * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_frame_reader_rejects_bad_value_at_its_offset(bad):
    data = bytearray(simple_granule_bytes(ntimes=3))
    header_bytes = read_header_bytes(bytes(data)).header_bytes
    offset = header_bytes + (2 * 6 * 8 + 11) * 4  # frame 2, cell 11
    data[offset:offset + 4] = np.array([bad], dtype="<f4").tobytes()
    reader = FrameReader(io.BytesIO(bytes(data)))
    reader.read_frame(0)  # other frames stay readable
    with pytest.raises(InvalidHeaderError) as err:
        reader.read_frame(2)
    assert err.value.offset == offset
    with pytest.raises(InvalidHeaderError) as err:
        parse_granule_bytes(bytes(data))
    assert err.value.offset == offset


def test_frame_reader_rejects_truncated_source():
    data = simple_granule_bytes(ntimes=3)
    with pytest.raises(TruncatedError) as err:
        FrameReader(io.BytesIO(data[:-1]))
    assert err.value.offset == len(data) - 1
    FrameReader(io.BytesIO(data + b"\0" * 8)).read_frame(2)  # trailing bytes ok


class RefusesLongReads(io.BytesIO):
    """A seekable source that fails a read asking for more bytes than it
    holds, as a buffered file does when the buffer cannot be allocated."""

    def read(self, n=-1):
        if n > len(self.getbuffer()):
            raise MemoryError(f"read({n}) from a {len(self.getbuffer())}-byte source")
        return super().read(n)


def test_payload_larger_than_the_source_is_refused_before_reading(tmp_path):
    # header and one tflag entry declaring a 2 x (2**32 - 1) grid (34 GB),
    # spaced finely enough to stay on the globe, and no payload
    head = bytearray(simple_granule_bytes(ntimes=1)[:HEADER_END + 8])
    struct.pack_into("<II", head, 52, 2, 2 ** 32 - 1)  # nrows, ncols
    body = with_geometry_field(bytes(head), "dlon", 1e-300)
    path = tmp_path / "huge.gran"
    path.write_bytes(body)
    for read in (parse_granule, validate_stream, FrameReader):
        with open(path, "rb") as f, pytest.raises(TruncatedError) as err:
            read(f)
        assert err.value.offset == len(body)
    with pytest.raises(TruncatedError) as err:
        parse_granule(RefusesLongReads(body))
    assert err.value.offset == len(body)


def _mask_rule(values, offset):
    """The payload rule as a boolean mask: the reference for _check_payload."""
    ok = np.isfinite(values) & (values >= 0)
    if not ok.all():
        raise InvalidHeaderError("payload value non-finite or negative",
                                 offset + int(np.argmax(~ok)) * 4)


def _f32(bits):
    return struct.unpack("<f", struct.pack("<I", bits))[0]


_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0,
                   _f32(0x00000001), _f32(0x80000001),   # +- smallest subnormal
                   _f32(0x007fffff), _f32(0x00800000),   # largest subnormal, smallest normal
                   _f32(0x7f7fffff), _f32(0xff7fffff),   # +- largest finite
                   _f32(0x7f800001), _f32(0xffc00000)]   # signalling NaN, negative NaN



@pytest.mark.parametrize("bits, accepted", [
    (0x80000000, True),    # -0.0: sign bit set, yet not negative
    (0x7f7fffff, True),    # largest finite
    (0x00000001, True),    # smallest subnormal
    (0x7f800000, False),   # +inf
    (0xffc00000, False),   # quiet NaN, sign bit set
    (0xff800001, False),   # signalling NaN, sign bit set
    (0x80000001, False),   # negative subnormal
])
def test_check_payload_verdict_and_offset_on_edge_bits(bits, accepted):
    """Each edge value at index 3 of a clean array, alone and after a -0.0:
    accepted, or rejected at its own byte."""
    for lead in (1.5, -0.0):
        values = np.full(8, 1.5, dtype="<f4")
        values[1] = lead
        values[3] = _f32(bits)
        if accepted:
            _check_payload(values, 100)
            continue
        with pytest.raises(InvalidHeaderError) as err:
            _check_payload(values, 100)
        assert err.value.offset == 100 + 3 * 4

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_payload_agrees_with_the_mask_rule(data):
    n = data.draw(st.integers(1, 64))
    values = np.array(data.draw(st.lists(
        st.floats(0, 1e6, width=32), min_size=n, max_size=n)), dtype="<f4")
    for _ in range(data.draw(st.integers(0, 4))):
        values[data.draw(st.integers(0, n - 1))] = \
            data.draw(st.sampled_from(_SPECIAL_VALUES))
    if n % 2 == 0 and data.draw(st.booleans()):
        values = values.reshape(2, n // 2)  # frames and granules are 2-D and 3-D
    offset = data.draw(st.integers(0, 1 << 20))
    try:
        _mask_rule(values, offset)
        expected = None
    except InvalidHeaderError as e:
        expected = e.offset
    try:
        _check_payload(values, offset)
        got = None
    except InvalidHeaderError as e:
        got = e.offset
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_rejects_exactly_what_check_payload_rejects(data):
    g = simple_granule(ntimes=data.draw(st.integers(1, 2)))
    flat = g.pm25.reshape(-1)
    for _ in range(data.draw(st.integers(0, 4))):
        flat[data.draw(st.integers(0, flat.size - 1))] = \
            data.draw(st.sampled_from(_SPECIAL_VALUES))
    try:
        _check_payload(g.pm25, 0)
        rejected = False
    except InvalidHeaderError:
        rejected = True
    if not rejected:
        g.validate()
        return
    kind = "non-finite" if not np.isfinite(g.pm25).all() else "negative"
    with pytest.raises(ValueError, match=kind):
        g.validate()


class OneByteRaw(io.RawIOBase):
    """An unbuffered stream whose every read returns at most one byte."""

    def __init__(self, data):
        self._data, self._pos = data, 0

    def readable(self):
        return True

    def readinto(self, buf):
        chunk = self._data[self._pos:self._pos + min(1, len(buf))]
        buf[:len(chunk)] = chunk
        self._pos += len(chunk)
        return len(chunk)


def _outcome(fn, data):
    try:
        return fn(data)
    except GranuleError as e:
        return type(e), e.offset


def test_one_byte_reads_give_the_same_header_and_parse():
    data = simple_granule_bytes(ntimes=2)
    assert read_header(OneByteRaw(data)) == read_header_bytes(data)
    g = parse_granule(OneByteRaw(data))
    assert granule_to_bytes(g) == data
    assert validate_stream(OneByteRaw(data)) == read_header_bytes(data)


def test_one_byte_reads_of_a_short_stream_fail_at_the_same_offset():
    data = simple_granule_bytes(ntimes=2)
    for cut in range(len(data)):
        body = data[:cut]
        expected = _outcome(read_header_bytes, body)
        assert _outcome(lambda b: read_header(OneByteRaw(b)), body) == expected
        expected = _outcome(parse_granule_bytes, body)
        assert expected[0] in (NotAGranuleError, TruncatedError)
        assert _outcome(lambda b: parse_granule(OneByteRaw(b)), body) == expected
    html = _outcome(lambda b: read_header(OneByteRaw(b)), HTML_BODY)
    assert html == _outcome(read_header_bytes, HTML_BODY)
    assert html[0] is NotAGranuleError


class ShortReads(io.BytesIO):
    """A stream whose readinto returns at most `step` bytes per call."""

    def __init__(self, data, step):
        super().__init__(data)
        self._step = step

    def readinto(self, buf):
        return super().readinto(memoryview(buf)[:self._step])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_stream_accepts_exactly_complete_parseable_bodies(data):
    valid = simple_granule_bytes(ntimes=3)
    info = read_header_bytes(valid)
    kind = data.draw(st.sampled_from(
        ["valid", "truncate", "append", "bad_cell", "html"]))
    if kind == "valid":
        body = valid
    elif kind == "truncate":
        body = valid[:data.draw(st.integers(0, len(valid) - 1))]
    elif kind == "append":
        body = valid + data.draw(st.binary(min_size=1, max_size=16))
    elif kind == "bad_cell":
        cell = data.draw(st.integers(0, info.expected_payload_bytes // 4 - 1))
        bad = data.draw(st.sampled_from([np.nan, -1.0, np.inf, -np.inf,
                                         _f32(0x80000001)]))
        at = info.header_bytes + 4 * cell
        body = valid[:at] + struct.pack("<f", bad) + valid[at + 4:]
    else:
        body = HTML_BODY
    try:
        parse_granule_bytes(body)
        parse_error = None
    except GranuleError as e:
        parse_error = e

    buffer_bytes = data.draw(st.sampled_from([4, 64, 100, 8 << 20]))
    step = data.draw(st.integers(1, 1000))
    with mock.patch.object(granule, "STREAM_BUFFER_BYTES", buffer_bytes):
        try:
            assert validate_stream(ShortReads(body, step)) == info
            stream_error = None
        except GranuleError as e:
            stream_error = e

    accept = parse_error is None and len(body) == info.expected_total_bytes
    assert (stream_error is None) == accept
    if parse_error is not None:  # every mutation here is a single fault
        assert type(stream_error) is type(parse_error)
        assert stream_error.offset == parse_error.offset
    elif not accept:
        assert isinstance(stream_error, TruncatedError)
        assert stream_error.offset == info.expected_total_bytes


def test_validate_stream_reads_the_payload_in_bounded_pieces():
    data = simple_granule_bytes(ntimes=5)
    info = read_header_bytes(data)
    asked = []

    class Recording(io.BytesIO):
        def readinto(self, buf):
            asked.append(len(buf))
            return super().readinto(buf)

    with mock.patch.object(granule, "STREAM_BUFFER_BYTES", 256):
        validate_stream(Recording(data))
    assert max(asked) == 256
    assert sum(asked) == info.expected_payload_bytes


def _validate_outcome(source):
    """validate_stream's header, or its error's class, message and offset."""
    try:
        return validate_stream(source)
    except GranuleError as e:
        return type(e), str(e), e.offset


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mapped_check_gives_the_streamed_header_or_error(data):
    """A regular file holding a granule from byte 0 is checked mapped, a
    `BytesIO` of the same bytes read through the buffer: with both sizes
    patched small, so that the payload spans several windows and pieces,
    the two give the same header, or the same error class, message and
    offset. A granule at an offset in its file is read, and agrees too."""
    window = data.draw(st.sampled_from([1, 2])) * mmap.ALLOCATIONGRANULARITY
    buffer = window // data.draw(st.sampled_from([1, 4, 64]))
    geom = GridGeometry(16, 32, 40.0, -120.0, 0.5, 0.5)  # 2 KiB frames
    ntimes = 3 * window // 2048 + data.draw(st.integers(0, 2))
    valid = simple_granule_bytes(ntimes=ntimes, geometry=geom)
    info = read_header_bytes(valid)
    start, end = info.header_bytes, info.expected_total_bytes
    windows, pieces = range(0, end, window), range(start, end, buffer)
    kind = data.draw(st.sampled_from(["whole", "truncate", "append"]))
    cut = end
    if kind == "truncate":
        cut = data.draw(st.one_of(st.integers(0, end - 1),
                                  st.sampled_from(windows),
                                  st.sampled_from(pieces)))
    # faults at the last value before and the first value at an edge of a
    # window, of a piece or of the payload; at the last value before the
    # cut; or anywhere
    places = [[p for e in edges for p in (e - 4, e) if start <= p < end]
              for edges in (windows, pieces, [end])]
    places += [[cut - 4] if cut - 4 >= start else [], range(start, end, 4)]
    body = bytearray(valid)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.sampled_from(
            data.draw(st.sampled_from([p for p in places if p]))))
        value = data.draw(st.sampled_from(
            [np.nan, np.inf, -np.inf, -1.0, _f32(0x80000001), -0.0]))
        struct.pack_into("<f", body, at, value)
    del body[cut:]
    if kind == "append":
        body += data.draw(st.binary(min_size=1, max_size=16))
    lead = data.draw(st.sampled_from([0, 0, 0, 4, window]))

    with mock.patch.object(granule, "MAP_WINDOW_BYTES", window), \
            mock.patch.object(granule, "STREAM_BUFFER_BYTES", buffer), \
            tempfile.TemporaryFile() as f:
        f.write(b"\0" * lead + body)
        f.seek(lead)
        mapped = _validate_outcome(f)
        streamed = _validate_outcome(io.BytesIO(bytes(body)))
    assert mapped == streamed
    if kind == "whole" and not isinstance(streamed, tuple):
        assert streamed == info


def test_only_a_file_holding_the_granule_from_byte_0_is_mapped(tmp_path):
    data = simple_granule_bytes(ntimes=3)
    (tmp_path / "at0.gran").write_bytes(data)
    (tmp_path / "at8.gran").write_bytes(b"\0" * 8 + data)
    with count_reads() as reads:
        for name, lead in (("at0.gran", 0), ("at8.gran", 8)):
            with open(tmp_path / name, "rb") as f:
                f.seek(lead)
                assert validate_stream(f) == read_header_bytes(data)
        assert validate_stream(io.BytesIO(data)) == read_header_bytes(data)
    at0, at8 = (str(tmp_path / name) for name in ("at0.gran", "at8.gran"))
    assert reads.mapped == {at0: len(data)}
    payload = read_header_bytes(data).expected_payload_bytes
    assert reads[at0] == len(data) - payload
    assert reads[at8] == len(data)  # read whole, through the buffer


@pytest.mark.parametrize("forecast_id, message", [
    ("", "forecast_id empty or unprintable (at byte 12)"),
    ("AB\x01", "forecast_id empty or unprintable (at byte 12)"),
    ("ABC  ", "reads back as GranuleHeader(forecast_id='ABC',"),
], ids=["empty", "unprintable", "trailing-space"])
def test_writer_refuses_an_id_the_reader_would_not_return(forecast_id, message):
    g = simple_granule(forecast_id=forecast_id)
    for check in (g.validate, lambda: granule_to_bytes(g)):
        with pytest.raises(ValueError, match=re.escape(message)):
            check()


@pytest.mark.parametrize("field, value", [
    ("lat0", math.nan), ("lat0", -math.inf), ("lat0", -91.0),
    ("dlat", math.nan), ("dlon", math.nan), ("dlon", math.inf),
    ("dlat", 0.0), ("dlon", 0.0), ("lon0", 180.0), ("lat0", 90.0)])
def test_geometry_rule_is_the_same_for_writer_and_reader(field, value):
    geom = dataclasses.replace(SMALL_GEOM, **{field: value})
    with pytest.raises(ValueError):
        geom.validate()
    with pytest.raises(ValueError, match="bad geometry") as err:
        simple_granule(geometry=geom).validate()
    assert f"(at byte {BAD_GEOMETRY_OFFSET})" in str(err.value)
    body = with_geometry_field(simple_granule_bytes(), field, value)
    with pytest.raises(InvalidHeaderError, match="bad geometry") as err:
        read_header_bytes(body)
    assert err.value.offset == BAD_GEOMETRY_OFFSET


@pytest.mark.parametrize("geom", [
    GridGeometry(3, 4, -90.0, 0.0, 1.0, 1.0),
    GridGeometry(3, 4, 88.0, 0.0, 1.0, 1.0),
    GridGeometry(3, 4, 0.0, -180.0, 1.0, 1.0),
], ids=["south-pole-origin", "top-row-at-90", "origin-at-minus-180"])
def test_geometry_edges_are_accepted_and_read_back(geom):
    """The grid's closed edges: latitudes in [-90, 90] from the origin to
    the top row, and an origin longitude in [-180, 180)."""
    assert geom.validate() is geom
    g = simple_granule(geometry=geom)
    assert read_header_bytes(granule_to_bytes(g)).geometry == geom


def _replace_header(g, **changes):
    return dataclasses.replace(g, header=dataclasses.replace(g.header, **changes))


def _replace_geometry(g, **changes):
    return _replace_header(
        g, geometry=dataclasses.replace(g.header.geometry, **changes))


@pytest.mark.parametrize("unpackable", [
    lambda g: _replace_header(g, first_frame=datetime(9999, 12, 31, 23, tzinfo=UTC)),
    lambda g: _replace_header(g, created=datetime(2022, 3, 2)),
    # an empty payload of the declared shape, so the packer meets the field
    lambda g: dataclasses.replace(_replace_geometry(g, nrows=0, ncols=2 ** 32),
                                  pm25=np.zeros((2, 0, 2 ** 32), np.float32)),
    lambda g: _replace_geometry(g, lat0="40"),
], ids=["frame-past-year-9999", "naive-created", "dimension-above-u32",
        "text-latitude"])
def test_unpackable_field_is_a_named_value_error(unpackable):
    g = unpackable(simple_granule(ntimes=2))
    with pytest.raises(ValueError, match="bad granule header"):
        g.validate()


def test_sub_second_time_is_caught_by_the_read_back():
    g = simple_granule(ntimes=1)
    g = _replace_header(g, weather_init=g.header.weather_init.replace(microsecond=1))
    with pytest.raises(ValueError, match="reads back as"):
        g.validate()


def test_huge_ntimes_is_refused_before_any_tflag_is_packed(monkeypatch):
    g = _replace_header(simple_granule(ntimes=1), ntimes=2 ** 40)
    monkeypatch.setattr(granule, "_pack_head", None)  # calling it would fail
    with pytest.raises(ValueError, match="payload shape"):
        g.validate()


def test_encode_packs_each_stamp_once(monkeypatch):
    # the three header stamps are encoded one by one, and the tflag as the
    # first frame's hourly run
    g = simple_granule(ntimes=5)
    calls, runs = [], []
    original, original_run = granule.calendar_to_julian, granule.hour_stamps
    monkeypatch.setattr(granule, "calendar_to_julian",
                        lambda t: calls.append(t) or original(t))
    monkeypatch.setattr(granule, "hour_stamps",
                        lambda t: runs.append(t) or original_run(t))
    head, _ = granule.encode_granule(g)
    h = g.header
    assert calls == [h.created, h.weather_init, h.smoke_init]
    assert runs == [h.first_frame] * 2  # packed, then read back
    assert _tflag_in(head) == [original(h.first_frame + i * HOUR)
                               for i in range(5)]


def test_float32_overflow_is_non_finite_before_write():
    g = simple_granule(ntimes=1)
    g.pm25 = g.pm25.astype(np.float64)
    g.pm25[0, 2, 3] = 1e39  # finite as float64, +inf as the float32 written
    for check in (g.validate, lambda: granule_to_bytes(g)):
        with pytest.raises(ValueError, match="non-finite"):
            check()


def _packed_as_laid_out(g):
    """The granule's bytes packed field by field as the module docstring
    lays them out, one tflag stamp per given frame, with no check: the oracle
    for what a writer produces."""
    h, geom = g.header, g.header.geometry
    cd, wd, sd = (calendar_to_julian(t)
                  for t in (h.created, h.weather_init, h.smoke_init))
    head = struct.pack("<8sI16s6I3I4d", b"SMOKGRAN", 1,
                       h.forecast_id.encode("utf-8").ljust(16),
                       cd.date, cd.time, wd.date, wd.time, sd.date, sd.time,
                       geom.nrows, geom.ncols, h.ntimes,
                       geom.lat0, geom.lon0, geom.dlat, geom.dlon)
    tflag = b"".join(struct.pack("<II", s.date, s.time) for s in
                     (calendar_to_julian(h.first_frame + i * HOUR)
                      for i in range(len(g.pm25))))
    return head + tflag + np.ascontiguousarray(g.pm25, dtype="<f4").tobytes()


_INTS = st.one_of(st.integers(-2, 2 ** 32 + 2),
                  st.sampled_from([-1, 0, 1, 2 ** 32 - 1, 2 ** 32]))
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -91.0, -90.0, 0.0, -0.0, 180.0, -180.0]))
_IDS = st.one_of(st.sampled_from(["", "AB\x01", "ABC  ", " ABC", "\xe9",
                                  "A" * 16, "A" * 17]), st.text(max_size=18))
# naive, sub-second, other-zone and edge-of-range times; an aware time at
# year 1 or 9999 may not convert to UTC, and a late first frame's next
# frames may not exist
_TIMES = st.one_of(
    st.datetimes(timezones=st.sampled_from(
        [None, UTC, timezone(timedelta(hours=-7)),
         timezone(timedelta(hours=5, minutes=30))])),
    st.sampled_from([datetime(1, 1, 1, tzinfo=UTC),
                     datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))),
                     datetime(9999, 12, 31, 22, tzinfo=UTC),
                     datetime(9999, 12, 31, 23, 59, 59, tzinfo=UTC)]))
_FIELDS = ("forecast_id", "created", "weather_init", "smoke_init",
           "first_frame", "nrows", "ncols", "ntimes", "lat0", "lon0", "dlat",
           "dlon", "payload")


@st.composite
def _granules_with_faults(draw):
    """A small granule with at most two header or payload fields replaced by
    values drawn to break it (some of which do not)."""
    broken = set(draw(st.lists(st.sampled_from(_FIELDS), max_size=2)))

    def field(name, good, bad):
        return draw(bad) if name in broken else good

    first = draw(st.datetimes(datetime(1990, 1, 1), datetime(2100, 1, 1),
                              timezones=st.just(UTC))).replace(microsecond=0)
    n = draw(st.integers(1, 3))
    geometry = GridGeometry(field("nrows", 2, _INTS), field("ncols", 3, _INTS),
                            field("lat0", 40.0, _FLOATS),
                            field("lon0", -120.0, _FLOATS),
                            field("dlat", 0.5, _FLOATS),
                            field("dlon", 0.5, _FLOATS))
    header = GranuleHeader(field("forecast_id", "BSC00CA12-01", _IDS),
                           field("created", first, _TIMES),
                           field("weather_init", first, _TIMES),
                           field("smoke_init", first, _TIMES),
                           field("first_frame", first, _TIMES),
                           geometry, field("ntimes", n, _INTS))

    def small(k, default):
        return k if 0 <= k <= 4 else default

    shape = (small(header.ntimes, n), small(geometry.nrows, 2),
             small(geometry.ncols, 3))
    pm25 = (1.0 + np.arange(math.prod(shape))).reshape(shape).astype(np.float32)
    if "payload" in broken and pm25.size:
        pm25.reshape(-1)[draw(st.integers(0, pm25.size - 1))] = \
            draw(st.sampled_from([np.nan, np.inf, -1.0]))
    return ForecastGranule(header, pm25)


@settings(max_examples=400, deadline=None)
@given(_granules_with_faults())
def test_validate_accepts_exactly_what_reads_back_unchanged(g):
    try:
        data = _packed_as_laid_out(g)
        back = parse_granule_bytes(data)
        reads_back = (back.header == g.header
                      and back.pm25.shape == g.pm25.shape
                      and np.array_equal(back.pm25, g.pm25))
    except (struct.error, ValueError, OverflowError, GranuleError):
        reads_back = False
    if reads_back:
        g.validate()
        assert granule_to_bytes(g) == data
    else:
        with pytest.raises(ValueError):
            g.validate()
        with pytest.raises(ValueError):
            granule_to_bytes(g)
