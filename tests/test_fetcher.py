import csv
import gc
import io
import struct
import threading
import tracemalloc
from contextlib import contextmanager
from datetime import date
from functools import partial
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from smokecurate import fetcher
from smokecurate.corpusgen import (FULL_GEOMETRY, CorpusSpec, FaultProfile,
                                   generate_corpus)
from smokecurate.fetcher import (ConfigError, SourceEndpoint, build_url,
                                 embedded_init_hour, fetch_one, fetch_range,
                                 probe_earliest)
from smokecurate.granule import (STREAM_BUFFER_BYTES, GranuleError,
                                 GridGeometry, parse_granule_bytes,
                                 read_header_bytes, write_granule)

from conftest import SMALL_GEOM, simple_granule, simple_granule_bytes

IDS = ("BSC00CA12-01", "BSC06CA12-01")


def make_corpus(tmp_path, faults=FaultProfile(), days=(2, 5), seed=21,
                ids=IDS, init_hours=(0, 6)):
    spec = CorpusSpec(start_date=date(2022, 3, days[0]),
                      end_date=date(2022, 3, days[1]),
                      forecast_ids=ids, init_hours=init_hours,
                      horizon_hours=6, geometry=SMALL_GEOM,
                      fault_profile=faults, seed=seed)
    manifest = generate_corpus(spec, tmp_path / "corpus")
    return spec, manifest


def test_build_url_pattern():
    ep = SourceEndpoint("https://example.org/forecasts", ext="nc")
    url = build_url(ep, "BSC00CA12-01", date(2021, 3, 4), 0)
    assert url == ("https://example.org/forecasts/BSC00CA12-01/"
                   "2021030400/dispersion.nc")
    url = build_url(ep, "BSC18CA12-01", date(2022, 3, 2), 18)
    assert url.endswith("/2022030218/dispersion.nc")


def test_build_url_rejects_mismatched_init():
    ep = SourceEndpoint("https://example.org")
    with pytest.raises(ConfigError):
        build_url(ep, "BSC00CA12-01", date(2021, 3, 4), 6)


def test_template_placeholder_validation():
    with pytest.raises(ConfigError):
        SourceEndpoint("x", url_template="{forecast_id}/{yyyymmdd}/file.{ext}")


def test_embedded_init_hour():
    assert embedded_init_hour("BSC06CA12-01") == 6
    with pytest.raises(ConfigError):
        embedded_init_hour("nonsense")


def test_fetch_clean_corpus(tmp_path):
    spec, manifest = make_corpus(tmp_path)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache", backoff=0.0)
    assert len(report.records) == 2 * 4
    assert all(r.outcome == "downloaded" for r in report.records)
    # every committed file is a valid granule
    for fid in IDS:
        files = list((tmp_path / "cache" / fid).glob("*.gran"))
        assert len(files) == 4
        for f in files:
            read_header_bytes(f.read_bytes())


def test_fetch_missing_reported_not_found(tmp_path):
    spec, manifest = make_corpus(tmp_path,
                                 faults=FaultProfile(missing_run_rate=0.5),
                                 seed=4)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache", backoff=0.0)
    missing = {(e.forecast_id, e.init.date()) for e in manifest.entries
               if e.outcome == "missing"
               and e.init.hour == embedded_init_hour(e.forecast_id)}
    assert missing  # seed chosen so some fetchable runs are missing
    for rec in report.records:
        expect = "not_found" if (rec.forecast_id, rec.date) in missing \
            else "downloaded"
        assert rec.outcome == expect, (rec.forecast_id, rec.date)


def test_fetch_quarantines_invalid_content(tmp_path):
    spec, manifest = make_corpus(tmp_path,
                                 faults=FaultProfile(html_rate=0.5,
                                                     truncation_rate=0.4),
                                 seed=6)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache", backoff=0.0)
    bad = {(e.forecast_id, e.init.date()) for e in manifest.entries
           if e.outcome in ("html", "truncated")
           and e.init.hour == embedded_init_hour(e.forecast_id)}
    assert bad
    for fid, day in bad:
        rec = next(r for r in report.records
                   if (r.forecast_id, r.date) == (fid, day))
        assert rec.outcome == "invalid_content"
        reject = tmp_path / "cache" / "rejects" / fid / \
            f"dispersion_{day:%Y%m%d}.bin"
        assert reject.is_file()
        assert not (tmp_path / "cache" / fid /
                    f"dispersion_{day:%Y%m%d}.gran").exists()


def test_fetch_idempotent_second_run(tmp_path):
    spec, _ = make_corpus(tmp_path)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                tmp_path / "cache", backoff=0.0)
    again = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                        tmp_path / "cache", backoff=0.0)
    assert all(r.outcome == "downloaded" for r in again.records)
    assert sum(r.bytes for r in again.records) == 0
    assert all(r.attempts == 0 for r in again.records)


def test_fetch_accounting_partitions_requests(tmp_path):
    spec, _ = make_corpus(tmp_path, faults=FaultProfile(0.3, 0.2, 0.2), seed=8)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache", backoff=0.0)
    days = (spec.end_date - spec.start_date).days + 1
    assert len(report.records) == len(IDS) * days
    keys = {(r.forecast_id, r.date) for r in report.records}
    assert len(keys) == len(report.records)
    assert {r.outcome for r in report.records} <= \
        {"downloaded", "not_found", "invalid_content", "io_error"}


def test_fetch_report_csv(tmp_path):
    spec, _ = make_corpus(tmp_path)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache", backoff=0.0)
    out = tmp_path / "fetch_report.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "forecast_id,date,outcome,bytes,attempts,error_offset"
    assert len(lines) == 1 + len(report.records)


def test_probe_earliest_finds_corpus_start(tmp_path):
    spec, _ = make_corpus(tmp_path)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    found = probe_earliest(ep, "BSC00CA12-01", date(2022, 2, 1),
                           date(2022, 3, 10))
    assert found == date(2022, 3, 2)


def test_probe_earliest_empty_corpus(tmp_path):
    (tmp_path / "corpus").mkdir()
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    assert probe_earliest(ep, "BSC00CA12-01", date(2022, 2, 1),
                          date(2022, 3, 10)) is None


def test_probe_earliest_skips_leading_faults(tmp_path):
    spec, manifest = make_corpus(tmp_path, days=(2, 12),
                                 faults=FaultProfile(missing_run_rate=0.4),
                                 seed=43, ids=("BSC00CA12-01",),
                                 init_hours=(0,))
    ok_days = sorted(e.init.date() for e in manifest.entries
                     if e.outcome == "ok")
    assert ok_days and ok_days[0] > spec.start_date  # leading runs missing
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    found = probe_earliest(ep, "BSC00CA12-01", date(2022, 2, 20),
                           date(2022, 3, 20))
    assert found == ok_days[0]


def test_fetch_over_http(tmp_path):
    spec, _ = make_corpus(tmp_path, days=(2, 3))
    handler = partial(SimpleHTTPRequestHandler,
                      directory=str(tmp_path / "corpus"))
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        report = fetch_range(SourceEndpoint(base), list(IDS),
                             spec.start_date, spec.end_date,
                             tmp_path / "cache_http", backoff=0.0)
        assert all(r.outcome == "downloaded" for r in report.records)
        # a day with no run on the portal comes back as not_found
        miss = fetch_range(SourceEndpoint(base), ["BSC00CA12-01"],
                           date(2022, 4, 1), date(2022, 4, 1),
                           tmp_path / "cache_http", backoff=0.0)
        assert miss.records[0].outcome == "not_found"
    finally:
        server.shutdown()
        server.server_close()


FID = "BSC00CA12-01"
DAY = date(2022, 3, 2)


def publish(root, body, forecast_id=FID):
    """Put `body` where the fetcher looks for (forecast_id, DAY) under root."""
    path = Path(build_url(SourceEndpoint(str(root)), forecast_id, DAY,
                          embedded_init_hour(forecast_id)))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body)
    return path


def with_value(body, offset, value):
    return body[:offset] + struct.pack("<f", value) + body[offset + 4:]


def cache_files(cache):
    return sorted(p.name for p in (cache / FID).glob("*"))


def reject_path(cache):
    return cache / "rejects" / FID / f"dispersion_{DAY:%Y%m%d}.bin"


@pytest.fixture(scope="module")
def two_buffer_body():
    """A valid granule whose payload spans about one and a half buffers."""
    geom = GridGeometry(nrows=256, ncols=512, lat0=40.0, lon0=-120.0,
                        dlat=0.1, dlon=0.1)
    ntimes = STREAM_BUFFER_BYTES * 3 // 2 // (256 * 512 * 4) + 1
    return simple_granule_bytes(ntimes=ntimes, geometry=geom)


@pytest.mark.parametrize("where", ["first", "last", "second_buffer"])
@pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
def test_bad_payload_value_is_rejected_whole(tmp_path, two_buffer_body,
                                             value, where):
    header_bytes = read_header_bytes(two_buffer_body).header_bytes
    offset = {"first": header_bytes,
              "last": len(two_buffer_body) - 4,
              "second_buffer": header_bytes + STREAM_BUFFER_BYTES + 4 * 1001,
              }[where]
    body = with_value(two_buffer_body, offset, value)
    publish(tmp_path / "corpus", body)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache,
                    backoff=0.0)
    assert rec.outcome == "invalid_content"
    assert rec.bytes == len(body)
    assert cache_files(cache) == []        # nothing committed, no temp file
    assert reject_path(cache).read_bytes() == body
    with pytest.raises(GranuleError) as err:
        parse_granule_bytes(body)
    assert rec.error_offset == err.value.offset == offset


def test_body_longer_than_declared_is_rejected(tmp_path):
    valid = simple_granule_bytes()
    body = valid + b"\0" * 8
    publish(tmp_path / "corpus", body)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache,
                    backoff=0.0)
    assert rec.outcome == "invalid_content"
    assert rec.bytes == len(body)
    assert rec.error_offset == len(valid)
    assert cache_files(cache) == []
    assert reject_path(cache).read_bytes() == body


@contextmanager
def http_portal(directory):
    handler = partial(SimpleHTTPRequestHandler, directory=str(directory))
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_nan_payload_rejected_over_http(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    offset = read_header_bytes(valid).header_bytes + 4 * 50
    body = with_value(valid, offset, np.nan)
    publish(tmp_path / "corpus", body)
    cache = tmp_path / "cache"
    with http_portal(tmp_path / "corpus") as base:
        report = fetch_range(SourceEndpoint(base), [FID], DAY, DAY, cache,
                             backoff=0.0)
    (rec,) = report.records
    assert rec.outcome == "invalid_content"
    assert rec.bytes == len(body)
    assert rec.error_offset == offset
    assert cache_files(cache) == []
    assert reject_path(cache).read_bytes() == body


def test_fetch_report_csv_gives_the_fault_offset(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    offset = read_header_bytes(valid).header_bytes + 4 * 50
    publish(tmp_path / "corpus", with_value(valid, offset, np.nan))
    other = "BSC06CA12-01"
    publish(tmp_path / "corpus", simple_granule_bytes(forecast_id=other), other)
    report = fetch_range(SourceEndpoint(str(tmp_path / "corpus")), [FID, other],
                         DAY, DAY, tmp_path / "cache", backoff=0.0)
    out = tmp_path / "fetch_report.csv"
    report.write_csv(out)
    with open(out, newline="") as f:
        rows = {r["forecast_id"]: r for r in csv.DictReader(f)}
    assert rows[FID]["outcome"] == "invalid_content"
    assert rows[FID]["error_offset"] == str(offset)
    assert rows[other]["outcome"] == "downloaded"
    assert rows[other]["error_offset"] == ""


def test_fetch_holds_one_buffer_not_the_body(tmp_path):
    path = publish(tmp_path / "corpus", b"")
    with open(path, "wb") as f:
        size = write_granule(simple_granule(ntimes=24, geometry=FULL_GEOMETRY), f)
    assert size >= 32 << 20
    gc.collect()
    tracemalloc.start()
    try:
        rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY,
                        tmp_path / "cache", backoff=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.outcome == "downloaded" and rec.bytes == size
    assert peak < size / 4, peak


class BreaksAfter(io.RawIOBase):
    """Passes `limit` bytes of `source` through, then raises OSError."""

    def __init__(self, source, limit):
        self._source = source
        self._left = limit

    def readable(self):
        return True

    def readinto(self, buf):
        if self._left == 0 and len(buf):
            raise OSError("connection reset by peer")
        n = self._source.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n


def break_attempts(monkeypatch, broken, limit):
    """Make the origin's body fail after `limit` bytes on the attempts
    numbered in `broken` (1-based); returns the list of attempts opened."""
    opened = []
    real = fetcher._open_body

    @contextmanager
    def open_body(endpoint, url, timeout):
        opened.append(url)
        with real(endpoint, url, timeout) as body:
            yield BreaksAfter(body, limit) if len(opened) in broken else body

    monkeypatch.setattr(fetcher, "_open_body", open_body)
    return opened


def test_read_error_on_every_attempt_leaves_nothing(tmp_path, monkeypatch):
    body = simple_granule_bytes(ntimes=3)
    publish(tmp_path / "corpus", body)
    limit = read_header_bytes(body).header_bytes + 100
    opened = break_attempts(monkeypatch, {1, 2, 3}, limit)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache,
                    retries=3, backoff=0.0)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("io_error", 0, 3)
    assert len(opened) == 3
    assert cache_files(cache) == []
    assert not list(cache.rglob("*.tmp"))
    assert not reject_path(cache).exists()


def test_read_error_on_first_attempt_only_commits_the_second(tmp_path,
                                                             monkeypatch):
    body = simple_granule_bytes(ntimes=3)
    publish(tmp_path / "corpus", body)
    break_attempts(monkeypatch, {1}, read_header_bytes(body).header_bytes + 100)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache,
                    retries=3, backoff=0.0)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("downloaded", len(body), 2)
    assert cache_files(cache) == ["dispersion_20220302.gran"]
    assert (cache / FID / "dispersion_20220302.gran").read_bytes() == body


def test_cached_granule_with_bad_payload_is_fetched_again(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    publish(tmp_path / "corpus", valid)
    cache = tmp_path / "cache"
    stale = cache / FID / "dispersion_20220302.gran"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(with_value(valid, len(valid) - 4, np.nan))
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache,
                    backoff=0.0)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("downloaded", len(valid), 1)
    assert stale.read_bytes() == valid


def test_probe_earliest_skips_a_nan_payload(tmp_path):
    make_corpus(tmp_path, ids=(FID,), init_hours=(0,))
    first = Path(build_url(SourceEndpoint(str(tmp_path / "corpus")), FID,
                           date(2022, 3, 2), 0))
    body = first.read_bytes()
    first.write_bytes(with_value(body, len(body) - 4, np.nan))
    found = probe_earliest(SourceEndpoint(str(tmp_path / "corpus")), FID,
                           date(2022, 2, 1), date(2022, 3, 10))
    assert found == date(2022, 3, 3)
