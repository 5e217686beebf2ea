"""Portal URL construction and validated bulk download into the cache
layout.

Each body is put under a temp name and checked (header, payload values,
exact length) by reading it once through one bounded buffer; only a body
that passes is renamed into the cache, so no HTML page, truncated body or NaN
payload can ever land there. A body that fails is renamed whole into
`rejects/`, and a run's rejected body is removed once the run is in the
cache, so a cache's tree does not depend on its history. A body that ends
before its Content-Length is a network fault, not bad content: it is
retried like any other I/O error, and never quarantined.

Link, else copy. A local portal file is hard-linked to the temp name, and
checked by reading the file it was opened as; the link is kept only if it
names that same inode, so the published inode is always the one whose bytes
were checked. Where no link can be made (another file system, a refused or
unsupported link, a body with no file descriptor) or the link names another
inode, and for every HTTP body, the body is copied into a temp file that is
created new, while it is checked. A linked cache file is the portal's file
under a second name, with its owner and mode: renaming over or deleting
either name leaves the other intact, but writing into either in place
changes both. The portal layout (`run_path`) gives each run its own path, so
a portal that only adds runs never writes into a linked file.
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import BinaryIO, Iterator
from urllib.parse import urlparse

from .granule import GranuleError, validate_stream
from .tables import write_table

_ID_INIT_RE = re.compile(r"^[A-Z]{3}(\d{2})")
RETRIES = 3          # attempts per granule before it is an io_error
TIMEOUT_S = 30.0     # per HTTP connect and read
BACKOFF_S = 1.0      # wait before the second attempt; doubles after each
# orders the fetch threads' changes to `rejects/` directories, so that one
# thread never removes a directory another has just made for its reject
_REJECTS_LOCK = threading.Lock()


class ConfigError(ValueError):
    pass


class NotFound(Exception):
    """The origin has no object at this URL (404 or absent file)."""


@dataclass(frozen=True)
class SourceEndpoint:
    """Download origin: an http(s) prefix or a local directory tree."""

    base: str

    @property
    def is_http(self) -> bool:
        return urlparse(self.base).scheme in ("http", "https")


@dataclass(frozen=True)
class FetchRecord:
    forecast_id: str
    date: date
    outcome: str          # downloaded | not_found | invalid_content | io_error
    bytes: int
    attempts: int
    error_offset: int | None = None   # invalid_content: byte of the first fault


@dataclass
class FetchReport:
    records: list[FetchRecord] = field(default_factory=list)

    def by_outcome(self, outcome: str) -> list[FetchRecord]:
        return [r for r in self.records if r.outcome == outcome]

    def write_csv(self, path: Path | str) -> None:
        write_table(path, ["forecast_id", "date", "outcome", "bytes",
                           "attempts", "error_offset"],
                    ([r.forecast_id, r.date.isoformat(), r.outcome, r.bytes,
                      r.attempts,
                      "" if r.error_offset is None else r.error_offset]
                     for r in self.records))


def embedded_init_hour(forecast_id: str) -> int:
    """Publication hour encoded in the forecast ID (BSC06... -> 6)."""
    m = _ID_INIT_RE.match(forecast_id)
    if not m:
        raise ConfigError(f"forecast id {forecast_id!r} has no embedded init hour")
    return int(m.group(1))


def run_path(forecast_id: str, init: datetime) -> str:
    """The portal's path of one run's granule, relative to its root."""
    return f"{forecast_id}/{init:%Y%m%d%H}/dispersion.gran"


def build_url(endpoint: SourceEndpoint, forecast_id: str, day: date) -> str:
    """The URL of the run the forecast id publishes on `day`."""
    init = datetime(day.year, day.month, day.day, embedded_init_hour(forecast_id))
    return endpoint.base.rstrip("/") + "/" + run_path(forecast_id, init)


@contextmanager
def _open_body(endpoint: SourceEndpoint, url: str) -> Iterator[BinaryIO]:
    """The body at `url` as a stream; raises NotFound for a missing object."""
    if endpoint.is_http:
        # imported here, so a local-path fetch loads no HTTP or TLS code
        from http.client import IncompleteRead
        from urllib.error import HTTPError
        from urllib.request import urlopen

        try:
            resp = urlopen(url, timeout=TIMEOUT_S)
        except HTTPError as e:
            e.close()
            if e.code == 404:
                raise NotFound(url) from None
            raise
        with resp:
            yield resp
            # http.client ends a body cut short silently, leaving `length`
            # at the count of bytes that never came
            if resp.length:
                raise IncompleteRead(b"", resp.length)
        return
    path = Path(url)
    if not path.is_file():
        raise NotFound(url)
    with open(path, "rb") as f:
        yield f


class _Tee:
    """Reads from `source`; every byte read is also written to `sink` and
    counted, so a body can be checked while it is copied."""

    def __init__(self, source: BinaryIO, sink: BinaryIO):
        self._source = source
        self._sink = sink
        self.count = 0

    def read(self, n: int) -> bytes:
        data = self._source.read(n)
        self._sink.write(data)
        self.count += len(data)
        return data

    def readinto(self, buf) -> int:
        n = self._source.readinto(buf)
        self._sink.write(memoryview(buf)[:n])
        self.count += n
        return n

    def drain(self) -> None:
        """Copy the rest of the source."""
        while self.read(shutil.COPY_BUFSIZE):
            pass


def _link_body(body: BinaryIO, source: Path, tmp: Path) -> bool:
    """Hard-link `source`, the file open as `body`, to the new name `tmp`.

    False, with `tmp` absent, where the link cannot be made or names another
    inode than the open body (a file renamed over `source` since it was
    opened): the caller then copies from the open body.
    """
    try:
        opened = os.fstat(body.fileno())
        os.link(source, tmp)
    except OSError:
        return False
    if os.path.samestat(opened, os.stat(tmp)):
        return True
    tmp.unlink()
    return False


def _fault_offset(body: BinaryIO) -> int | None:
    """The byte offset of the first fault in `body`, None for a sound
    granule."""
    try:
        validate_stream(body)
    except GranuleError as e:
        return e.offset
    return None


def _publish(tmp: Path, dest: Path) -> None:
    """Rename `tmp` to `dest`. Where both already name one file (a re-fetch
    links the portal file that an earlier fetch linked into `rejects/`),
    POSIX rename does nothing and succeeds, so the temp name is removed."""
    os.replace(tmp, dest)
    tmp.unlink(missing_ok=True)


def _quarantine(tmp: Path, reject: Path) -> None:
    """Rename the rejected body `tmp` to `reject`, under `rejects/`."""
    with _REJECTS_LOCK:
        reject.parent.mkdir(parents=True, exist_ok=True)
        _publish(tmp, reject)


def _drop_reject(reject: Path) -> None:
    """Remove a run's rejected body, if an earlier fetch left one, and each
    `rejects/` directory that this leaves empty."""
    with _REJECTS_LOCK:
        try:
            reject.unlink()
        except FileNotFoundError:
            return
        for directory in (reject.parent, reject.parent.parent):
            try:
                directory.rmdir()
            except OSError:  # not empty
                return


def fetch_one(endpoint: SourceEndpoint, forecast_id: str, day: date,
              cache_root: Path) -> FetchRecord:
    url = build_url(endpoint, forecast_id, day)
    target = cache_root / forecast_id / f"dispersion_{day:%Y%m%d}.gran"
    reject = cache_root / "rejects" / forecast_id / f"dispersion_{day:%Y%m%d}.bin"

    if target.is_file():
        try:
            with open(target, "rb") as f:
                validate_stream(f)
            _drop_reject(reject)
            return FetchRecord(forecast_id, day, "downloaded", 0, 0)
        except GranuleError:
            target.unlink()  # stale junk; refetch

    tmp = target.with_suffix(".tmp")
    source = None if endpoint.is_http else Path(url)
    for attempt in range(1, RETRIES + 1):
        try:
            with _open_body(endpoint, url) as body:
                target.parent.mkdir(parents=True, exist_ok=True)
                # a leftover temp file may be a link to a portal file
                tmp.unlink(missing_ok=True)
                if source is not None and _link_body(body, source, tmp):
                    error_offset = _fault_offset(body)
                    size = os.fstat(body.fileno()).st_size
                else:
                    with open(tmp, "xb") as sink:
                        tee = _Tee(body, sink)
                        error_offset = _fault_offset(tee)
                        if error_offset is not None:
                            tee.drain()  # rejects/ keeps the whole body
                    size = tee.count
            if error_offset is None:
                _publish(tmp, target)
                _drop_reject(reject)
                return FetchRecord(forecast_id, day, "downloaded", size, attempt)
            _quarantine(tmp, reject)
            return FetchRecord(forecast_id, day, "invalid_content", size,
                               attempt, error_offset)
        except NotFound:
            # absence is a documented steady state, not worth retrying
            return FetchRecord(forecast_id, day, "not_found", 0, attempt)
        except Exception:
            tmp.unlink(missing_ok=True)
            if attempt == RETRIES:
                return FetchRecord(forecast_id, day, "io_error", 0, attempt)
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))


def fetch_range(endpoint: SourceEndpoint, forecast_ids: list[str],
                start: date, end: date, cache_root: Path | str,
                parallel: int = 8) -> FetchReport:
    """Download every (forecast_id, day) in the range; idempotent on re-run."""
    if start > end:
        raise ValueError("start after end")
    cache_root = Path(cache_root)
    cache_root.mkdir(parents=True, exist_ok=True)

    jobs = [(fid, start + timedelta(days=i))
            for i in range((end - start).days + 1)
            for fid in forecast_ids]
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        records = list(pool.map(
            lambda job: fetch_one(endpoint, job[0], job[1], cache_root), jobs))
    records.sort(key=lambda r: (r.forecast_id, r.date))
    return FetchReport(records)
