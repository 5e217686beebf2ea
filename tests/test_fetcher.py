import csv
import errno
import gc
import io
import os
import shutil
import struct
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from datetime import date
from functools import partial
from http.server import (BaseHTTPRequestHandler, SimpleHTTPRequestHandler,
                         ThreadingHTTPServer)
from pathlib import Path

import numpy as np
import pytest

from smokecurate import fetcher
from smokecurate.corpusgen import (FULL_GEOMETRY, CorpusSpec, FaultProfile,
                                   generate_corpus)
from smokecurate.fetcher import (ConfigError, SourceEndpoint, build_url,
                                 embedded_init_hour, fetch_one, fetch_range)
from smokecurate.granule import (STREAM_BUFFER_BYTES, GranuleError,
                                 GridGeometry, InvalidHeaderError,
                                 parse_granule_bytes, read_header_bytes)

from conftest import (BAD_GEOMETRY_OFFSET, SMALL_GEOM, granule_to_bytes,
                      simple_granule, simple_granule_bytes,
                      with_geometry_field)

IDS = ("BSC00CA12-01", "BSC06CA12-01")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Retries do not wait."""
    monkeypatch.setattr(fetcher, "BACKOFF_S", 0.0)


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
    ep = SourceEndpoint("https://example.org/forecasts")
    url = build_url(ep, "BSC00CA12-01", date(2021, 3, 4))
    assert url == ("https://example.org/forecasts/BSC00CA12-01/"
                   "2021030400/dispersion.gran")
    url = build_url(ep, "BSC18CA12-01", date(2022, 3, 2))
    assert url.endswith("/2022030218/dispersion.gran")


def test_embedded_init_hour():
    assert embedded_init_hour("BSC06CA12-01") == 6
    with pytest.raises(ConfigError):
        embedded_init_hour("nonsense")


def test_fetch_clean_corpus(tmp_path):
    spec, manifest = make_corpus(tmp_path)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache")
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
                         tmp_path / "cache")
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
                         tmp_path / "cache")
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
                tmp_path / "cache")
    again = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                        tmp_path / "cache")
    assert all(r.outcome == "downloaded" for r in again.records)
    assert sum(r.bytes for r in again.records) == 0
    assert all(r.attempts == 0 for r in again.records)


def test_fetch_accounting_partitions_requests(tmp_path):
    spec, _ = make_corpus(tmp_path, faults=FaultProfile(0.3, 0.2, 0.2), seed=8)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    report = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "cache")
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
                         tmp_path / "cache")
    out = tmp_path / "fetch_report.csv"
    report.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "forecast_id,date,outcome,bytes,attempts,error_offset"
    assert len(lines) == 1 + len(report.records)


def test_fetch_over_http(tmp_path):
    spec, _ = make_corpus(tmp_path, days=(2, 3))
    with http_portal(tmp_path / "corpus") as base:
        report = fetch_range(SourceEndpoint(base), list(IDS),
                             spec.start_date, spec.end_date,
                             tmp_path / "cache_http")
        assert all(r.outcome == "downloaded" for r in report.records)
        # a day with no run on the portal comes back as not_found
        miss = fetch_range(SourceEndpoint(base), ["BSC00CA12-01"],
                           date(2022, 4, 1), date(2022, 4, 1),
                           tmp_path / "cache_http")
        assert miss.records[0].outcome == "not_found"


FID = "BSC00CA12-01"
DAY = date(2022, 3, 2)


def publish(root, body, forecast_id=FID):
    """Put `body` where the fetcher looks for (forecast_id, DAY) under root."""
    path = Path(build_url(SourceEndpoint(str(root)), forecast_id, DAY))
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
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
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
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert rec.outcome == "invalid_content"
    assert rec.bytes == len(body)
    assert rec.error_offset == len(valid)
    assert cache_files(cache) == []
    assert reject_path(cache).read_bytes() == body


def test_non_finite_origin_is_rejected_at_the_geometry_offset(tmp_path):
    body = with_geometry_field(simple_granule_bytes(), "lat0", float("nan"))
    publish(tmp_path / "corpus", body)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert rec.outcome == "invalid_content"
    with pytest.raises(InvalidHeaderError, match="bad geometry") as err:
        read_header_bytes(body)
    assert rec.error_offset == err.value.offset == BAD_GEOMETRY_OFFSET
    assert cache_files(cache) == []
    assert reject_path(cache).read_bytes() == body


@contextmanager
def http_portal(directory=None, handler=None):
    """A local HTTP server: files under `directory`, or `handler`'s
    answers. Yields its base URL."""
    if handler is None:
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
        report = fetch_range(SourceEndpoint(base), [FID], DAY, DAY, cache)
    (rec,) = report.records
    assert rec.outcome == "invalid_content"
    assert rec.bytes == len(body)
    assert rec.error_offset == offset
    assert cache_files(cache) == []
    assert reject_path(cache).read_bytes() == body


def answering(served, status, body, length):
    """A handler class that answers every GET with `status` and the bytes
    of `body`, declaring a Content-Length of `length`, then closes the
    connection; it appends each request's path to `served`."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            served.append(self.path)
            self.send_response(status)
            self.send_header("Content-Length", str(length))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def fetch_over(handler, cache):
    with http_portal(handler=handler) as base:
        return fetch_one(SourceEndpoint(base), FID, DAY, cache)


def test_body_shorter_than_its_content_length_is_retried(tmp_path):
    """A connection that ends mid-body is a network fault: every attempt
    is retried and none is committed or quarantined."""
    body = simple_granule_bytes(ntimes=3)
    served = []
    cache = tmp_path / "cache"
    rec = fetch_over(answering(served, 200, body[:len(body) // 2], len(body)),
                     cache)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("io_error", 0, 3)
    assert len(served) == 3
    assert cache_files(cache) == []
    assert not list(cache.rglob("*.tmp"))
    assert not (cache / "rejects").exists()


def test_server_error_on_every_attempt_is_an_io_error(tmp_path):
    served = []
    cache = tmp_path / "cache"
    rec = fetch_over(answering(served, 500, b"oops", 4), cache)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("io_error", 0, 3)
    assert len(served) == 3
    assert cache_files(cache) == []
    assert not (cache / "rejects").exists()


def test_fetch_report_csv_gives_the_fault_offset(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    offset = read_header_bytes(valid).header_bytes + 4 * 50
    publish(tmp_path / "corpus", with_value(valid, offset, np.nan))
    other = "BSC06CA12-01"
    publish(tmp_path / "corpus", simple_granule_bytes(forecast_id=other), other)
    report = fetch_range(SourceEndpoint(str(tmp_path / "corpus")), [FID, other],
                         DAY, DAY, tmp_path / "cache")
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
        size = f.write(granule_to_bytes(
            simple_granule(ntimes=24, geometry=FULL_GEOMETRY)))
    assert size >= 32 << 20
    gc.collect()
    tracemalloc.start()
    try:
        rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY,
                        tmp_path / "cache")
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
    def open_body(endpoint, url):
        opened.append(url)
        with real(endpoint, url) as body:
            yield BreaksAfter(body, limit) if len(opened) in broken else body

    monkeypatch.setattr(fetcher, "_open_body", open_body)
    return opened


def test_read_error_on_every_attempt_leaves_nothing(tmp_path, monkeypatch):
    body = simple_granule_bytes(ntimes=3)
    publish(tmp_path / "corpus", body)
    limit = read_header_bytes(body).header_bytes + 100
    opened = break_attempts(monkeypatch, {1, 2, 3}, limit)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
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
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
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
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("downloaded", len(valid), 1)
    assert stale.read_bytes() == valid


REAL_LINK = os.link


def refuse_links(monkeypatch, err=errno.EXDEV):
    """Make every hard link fail with `err`, as across file systems."""
    def link(src, dst, *args, **kwargs):
        raise OSError(err, os.strerror(err))

    monkeypatch.setattr(fetcher.os, "link", link)


@pytest.fixture(params=["link", "copy"])
def route(request, monkeypatch):
    """Fetch by hard link where the file system allows it, or by copy."""
    if request.param == "copy":
        refuse_links(monkeypatch)
    return request.param


def tree(root):
    """Every file under `root`, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_leftover_temp_file_linked_to_the_portal_is_not_written(tmp_path,
                                                                 route):
    body = simple_granule_bytes(ntimes=3)
    portal = publish(tmp_path / "corpus", body)
    cache = tmp_path / "cache"
    tmp = cache / FID / "dispersion_20220302.tmp"
    tmp.parent.mkdir(parents=True)
    REAL_LINK(portal, tmp)
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("downloaded", len(body), 1)
    assert portal.read_bytes() == body
    assert cache_files(cache) == ["dispersion_20220302.gran"]
    assert (cache / FID / "dispersion_20220302.gran").read_bytes() == body


def test_local_fetch_links_granules_and_rejects_to_the_portal(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    other = "BSC06CA12-01"
    good = publish(tmp_path / "corpus", valid, other)
    bad = publish(tmp_path / "corpus", with_value(valid, len(valid) - 4, -1.0))
    cache = tmp_path / "cache"
    report = fetch_range(SourceEndpoint(str(tmp_path / "corpus")), [FID, other],
                         DAY, DAY, cache)
    assert [r.outcome for r in report.records] == ["invalid_content",
                                                   "downloaded"]
    assert os.path.samefile(good, cache / other / "dispersion_20220302.gran")
    assert os.path.samefile(bad, reject_path(cache))
    assert cache_files(cache) == []


def test_http_fetch_writes_its_own_copies(tmp_path):
    valid = simple_granule_bytes(ntimes=3)
    other = "BSC06CA12-01"
    publish(tmp_path / "corpus", valid, other)
    publish(tmp_path / "corpus", with_value(valid, len(valid) - 4, -1.0))
    cache = tmp_path / "cache"
    with http_portal(tmp_path / "corpus") as base:
        report = fetch_range(SourceEndpoint(base), [FID, other], DAY, DAY, cache)
    assert [r.outcome for r in report.records] == ["invalid_content",
                                                   "downloaded"]
    files = [p for p in cache.rglob("*") if p.is_file()]
    assert len(files) == 2
    assert all(p.stat().st_nlink == 1 for p in files)


def test_link_to_another_inode_is_dropped_for_a_copy_of_the_body(tmp_path,
                                                                monkeypatch):
    """A file renamed over the portal path after the open: the link names
    the new file, so the fetch publishes a copy of the body it validated."""
    body = simple_granule_bytes(ntimes=3)
    publish(tmp_path / "corpus", body)
    intruder = tmp_path / "intruder.gran"
    intruder.write_bytes(simple_granule_bytes(ntimes=2))
    monkeypatch.setattr(fetcher.os, "link",
                        lambda src, dst: REAL_LINK(intruder, dst))
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert (rec.outcome, rec.bytes) == ("downloaded", len(body))
    committed = cache / FID / "dispersion_20220302.gran"
    assert committed.read_bytes() == body
    assert committed.stat().st_nlink == 1
    assert intruder.stat().st_nlink == 1
    assert cache_files(cache) == ["dispersion_20220302.gran"]


@pytest.mark.parametrize("err", [errno.EXDEV, errno.EPERM, errno.EMLINK,
                                 errno.EOPNOTSUPP])
def test_refused_link_falls_back_to_a_copy(tmp_path, monkeypatch, err):
    body = simple_granule_bytes(ntimes=3)
    portal = publish(tmp_path / "corpus", body)
    refuse_links(monkeypatch, err)
    cache = tmp_path / "cache"
    rec = fetch_one(SourceEndpoint(str(tmp_path / "corpus")), FID, DAY, cache)
    assert (rec.outcome, rec.bytes, rec.attempts) == ("downloaded", len(body), 1)
    committed = cache / FID / "dispersion_20220302.gran"
    assert committed.read_bytes() == body
    assert not os.path.samefile(portal, committed)


def test_linked_and_copied_fetches_agree(tmp_path, monkeypatch):
    spec, manifest = make_corpus(
        tmp_path, faults=FaultProfile(missing_run_rate=0.2, html_rate=0.2,
                                      truncation_rate=0.2), seed=9)
    assert {e.outcome for e in manifest.entries
            if e.init.hour == embedded_init_hour(e.forecast_id)} == \
        {"missing", "html", "truncated", "ok"}
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    linked = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "linked")
    refuse_links(monkeypatch)
    copied = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                         tmp_path / "copied")
    assert {r.outcome for r in linked.records} == \
        {"downloaded", "not_found", "invalid_content"}
    assert linked == copied
    assert tree(tmp_path / "linked") == tree(tmp_path / "copied")
    assert all(p.stat().st_nlink == 2 for p in (tmp_path / "linked").rglob("*")
               if p.is_file())
    assert all(p.stat().st_nlink == 1 for p in (tmp_path / "copied").rglob("*")
               if p.is_file())



def test_a_fetch_run_again_leaves_the_tree_of_one_fetch(tmp_path, route):
    """A re-fetch of a rejected run must not leave its temp file: linked, the
    temp name and the reject from the first fetch are one file, which a
    rename onto it leaves in place."""
    spec, manifest = make_corpus(
        tmp_path, faults=FaultProfile(missing_run_rate=0.2, html_rate=0.2,
                                      truncation_rate=0.2), seed=9)
    ep = SourceEndpoint(str(tmp_path / "corpus"))
    once = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                       tmp_path / "once")
    assert once.by_outcome("invalid_content")
    for _ in range(2):
        again = fetch_range(ep, list(IDS), spec.start_date, spec.end_date,
                            tmp_path / "twice")
        assert tree(tmp_path / "twice") == tree(tmp_path / "once")
    assert [r.outcome for r in again.records] == \
        [r.outcome for r in once.records]


def names(root):
    """Every file and directory under `root`, by relative path."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_a_fixed_run_leaves_no_reject_behind(tmp_path, route):
    """Once the portal replaces a rejected run with a sound one, the next
    fetch downloads it and drops its rejected body, with each `rejects/`
    directory this empties: the cache equals a clean fetch of the fixed
    portal, name for name and byte for byte. A run kept rejected keeps its
    body, and a reject found beside a sound cached granule is dropped."""
    spec, _ = make_corpus(
        tmp_path, faults=FaultProfile(missing_run_rate=0.2, html_rate=0.2,
                                      truncation_rate=0.2), seed=9)
    generate_corpus(replace(spec, fault_profile=FaultProfile()),
                    tmp_path / "sound")
    portal, sound = (SourceEndpoint(str(tmp_path / d))
                     for d in ("corpus", "sound"))
    fetch = partial(fetch_range, portal, list(IDS), spec.start_date,
                    spec.end_date)
    rejected = fetch(tmp_path / "cache").by_outcome("invalid_content")
    assert len(rejected) >= 2
    for r in rejected[1:]:  # the first stays rejected
        path = Path(build_url(portal, r.forecast_id, r.date))
        shutil.copyfile(build_url(sound, r.forecast_id, r.date),
                        path.with_suffix(".new"))
        os.replace(path.with_suffix(".new"), path)
    again = fetch(tmp_path / "cache")
    clean = fetch(tmp_path / "clean")
    outcomes = [r.outcome for r in clean.records]
    assert [r.outcome for r in again.records] == outcomes
    assert names(tmp_path / "cache") == names(tmp_path / "clean")
    assert tree(tmp_path / "cache") == tree(tmp_path / "clean")
    kept = tmp_path / "clean" / "rejects" / rejected[0].forecast_id / \
        f"dispersion_{rejected[0].date:%Y%m%d}.bin"
    assert kept.is_file()

    # a reject beside its run's sound cached granule, as an earlier
    # version of the fetch left it
    fixed = rejected[1]
    stale = tmp_path / "cache" / "rejects" / fixed.forecast_id / \
        f"dispersion_{fixed.date:%Y%m%d}.bin"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_bytes(b"<html>not a granule</html>")
    assert [r.outcome for r in fetch(tmp_path / "cache").records] == outcomes
    assert names(tmp_path / "cache") == names(tmp_path / "clean")
    assert tree(tmp_path / "cache") == tree(tmp_path / "clean")


def test_a_dropped_reject_never_removes_a_directory_in_use(tmp_path,
                                                           monkeypatch):
    """One fetch downloads a fixed run, whose reject is the only file in
    its `rejects/` directory, while another thread quarantines a run of the
    same forecast id into that directory. Renames are slowed so that the
    quarantine has made the directory before the drop runs, and renames
    into the cache wait less than renames into `rejects/`: the drop must
    not remove the directory under the quarantine, which would cost the
    quarantined run a second attempt."""
    fixed, bad = DAY, date(2022, 3, 3)
    publish(tmp_path / "portal", b"<html>not a granule</html>")
    portal = SourceEndpoint(str(tmp_path / "portal"))
    fetch_range(portal, [FID], fixed, fixed, tmp_path / "cache")
    assert reject_path(tmp_path / "cache").is_file()
    publish(tmp_path / "portal", simple_granule_bytes(ntimes=3))
    bad_path = Path(build_url(portal, FID, bad))
    bad_path.parent.mkdir(parents=True)
    bad_path.write_bytes(b"<html>not a granule</html>")

    publish_now = fetcher._publish

    def slow_publish(tmp, dest):
        time.sleep(0.3 if "rejects" in dest.parts else 0.1)
        publish_now(tmp, dest)

    monkeypatch.setattr(fetcher, "_publish", slow_publish)
    report = fetch_range(portal, [FID], fixed, bad, tmp_path / "cache",
                         parallel=2)
    assert [(r.outcome, r.attempts) for r in report.records] == \
        [("downloaded", 1), ("invalid_content", 1)]
    assert names(tmp_path / "cache" / "rejects") == \
        [FID, f"{FID}/dispersion_20220303.bin"]


SHM = Path("/dev/shm")


@pytest.fixture
def other_device_dir(tmp_path):
    """A directory on another file system than `tmp_path`."""
    if not SHM.is_dir():
        pytest.skip("no /dev/shm to hold a portal on another file system")
    if SHM.stat().st_dev == tmp_path.stat().st_dev:
        pytest.skip("/dev/shm is on the same file system as the test's tmp_path")
    path = Path(tempfile.mkdtemp(dir=SHM, prefix="smokecurate-portal-"))
    try:
        yield path
    finally:
        shutil.rmtree(path)


def test_fetch_across_file_systems_copies(tmp_path, other_device_dir):
    body = simple_granule_bytes(ntimes=3)
    portal = publish(other_device_dir, body)
    publish(other_device_dir, b"<html>not a granule</html>", "BSC06CA12-01")
    cache = tmp_path / "cache"
    report = fetch_range(SourceEndpoint(str(other_device_dir)),
                         [FID, "BSC06CA12-01"], DAY, DAY, cache)
    assert [(r.outcome, r.bytes) for r in report.records] == \
        [("downloaded", len(body)), ("invalid_content", 26)]
    committed = cache / FID / "dispersion_20220302.gran"
    assert committed.read_bytes() == body
    assert committed.stat().st_dev != portal.stat().st_dev
    reject = cache / "rejects" / "BSC06CA12-01" / "dispersion_20220302.bin"
    assert reject.read_bytes() == b"<html>not a granule</html>"
