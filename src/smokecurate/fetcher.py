"""Portal URL construction, validated bulk download into the cache layout,
and earliest-available-date probing.

Bodies are streamed into a temp file through one bounded buffer and checked
on the way (header, payload values, exact length); only a body that passes is
renamed into the cache, so no HTML page, truncated body or NaN payload can
ever land there. A body that fails is copied whole into `rejects/`.
"""

from __future__ import annotations

import csv
import os
import re
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import BinaryIO, Iterator
from urllib.parse import urlparse

from .granule import GranuleError, validate_stream

DEFAULT_TEMPLATE = "{forecast_id}/{yyyymmdd}{init}/dispersion.{ext}"
PLACEHOLDERS = ("{forecast_id}", "{yyyymmdd}", "{init}", "{ext}")

_ID_INIT_RE = re.compile(r"^[A-Z]{3}(\d{2})")


class ConfigError(ValueError):
    pass


class NotFound(Exception):
    """The origin has no object at this URL (404 or absent file)."""


@dataclass(frozen=True)
class SourceEndpoint:
    """Download origin: an http(s) prefix or a local directory tree."""

    base: str
    url_template: str = DEFAULT_TEMPLATE
    ext: str = "gran"

    def __post_init__(self):
        for ph in PLACEHOLDERS:
            if self.url_template.count(ph) != 1:
                raise ConfigError(
                    f"url template must contain {ph} exactly once: {self.url_template!r}")

    @property
    def is_http(self) -> bool:
        return urlparse(self.base).scheme in ("http", "https")


@dataclass(frozen=True)
class FetchRecord:
    forecast_id: str
    date: date
    url: str
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
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["forecast_id", "date", "outcome", "bytes", "attempts",
                        "error_offset"])
            for r in self.records:
                w.writerow([r.forecast_id, r.date.isoformat(), r.outcome,
                            r.bytes, r.attempts,
                            "" if r.error_offset is None else r.error_offset])


def embedded_init_hour(forecast_id: str) -> int:
    """Publication hour encoded in the forecast ID (BSC06... -> 6)."""
    m = _ID_INIT_RE.match(forecast_id)
    if not m:
        raise ConfigError(f"forecast id {forecast_id!r} has no embedded init hour")
    return int(m.group(1))


def build_url(endpoint: SourceEndpoint, forecast_id: str, day: date,
              init_hour: int) -> str:
    if embedded_init_hour(forecast_id) != init_hour:
        raise ConfigError(f"init hour {init_hour} does not match forecast id "
                          f"{forecast_id}")
    rel = endpoint.url_template.format(forecast_id=forecast_id,
                                       yyyymmdd=day.strftime("%Y%m%d"),
                                       init=f"{init_hour:02d}",
                                       ext=endpoint.ext)
    return endpoint.base.rstrip("/") + "/" + rel


@contextmanager
def _open_body(endpoint: SourceEndpoint, url: str,
               timeout: float) -> Iterator[BinaryIO]:
    """The body at `url` as a stream; raises NotFound for a missing object."""
    if endpoint.is_http:
        import requests

        with requests.get(url, stream=True, timeout=timeout) as resp:
            if resp.status_code == 404:
                raise NotFound(url)
            resp.raise_for_status()
            resp.raw.decode_content = True
            yield resp.raw
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


def fetch_one(endpoint: SourceEndpoint, forecast_id: str, day: date,
              cache_root: Path, retries: int = 3, backoff: float = 1.0,
              timeout: float = 30.0) -> FetchRecord:
    url = build_url(endpoint, forecast_id, day, embedded_init_hour(forecast_id))
    target = cache_root / forecast_id / f"dispersion_{day:%Y%m%d}.gran"
    reject = cache_root / "rejects" / forecast_id / f"dispersion_{day:%Y%m%d}.bin"

    if target.is_file():
        try:
            with open(target, "rb") as f:
                validate_stream(f)
            return FetchRecord(forecast_id, day, url, "downloaded", 0, 0)
        except GranuleError:
            target.unlink()  # stale junk; refetch

    tmp = target.with_suffix(".tmp")
    for attempt in range(1, retries + 1):
        try:
            with _open_body(endpoint, url, timeout) as body:
                target.parent.mkdir(parents=True, exist_ok=True)
                with open(tmp, "wb") as sink:
                    tee = _Tee(body, sink)
                    try:
                        validate_stream(tee)
                        error_offset = None
                    except GranuleError as e:
                        error_offset = e.offset
                        tee.drain()  # rejects/ keeps the whole body
            if error_offset is None:
                os.replace(tmp, target)
                return FetchRecord(forecast_id, day, url, "downloaded",
                                   tee.count, attempt)
            reject.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, reject)
            return FetchRecord(forecast_id, day, url, "invalid_content",
                               tee.count, attempt, error_offset)
        except NotFound:
            # absence is a documented steady state, not worth retrying
            return FetchRecord(forecast_id, day, url, "not_found", 0, attempt)
        except Exception:
            tmp.unlink(missing_ok=True)
            if attempt == retries:
                return FetchRecord(forecast_id, day, url, "io_error", 0, attempt)
            time.sleep(backoff * 2 ** (attempt - 1))


def fetch_range(endpoint: SourceEndpoint, forecast_ids: list[str],
                start: date, end: date, cache_root: Path | str,
                parallel: int = 8, retries: int = 3,
                backoff: float = 1.0) -> FetchReport:
    """Download every (forecast_id, day) in the range; idempotent on re-run."""
    if start > end:
        raise ValueError("start after end")
    cache_root = Path(cache_root)
    cache_root.mkdir(parents=True, exist_ok=True)

    jobs = [(fid, start + timedelta(days=i))
            for i in range((end - start).days + 1)
            for fid in forecast_ids]
    with ThreadPoolExecutor(max_workers=max(1, parallel)) as pool:
        records = list(pool.map(
            lambda job: fetch_one(endpoint, job[0], job[1], cache_root,
                                  retries=retries, backoff=backoff), jobs))
    records.sort(key=lambda r: (r.forecast_id, r.date))
    return FetchReport(records)


def _is_available(endpoint: SourceEndpoint, forecast_id: str, day: date) -> bool:
    url = build_url(endpoint, forecast_id, day, embedded_init_hour(forecast_id))
    try:
        with _open_body(endpoint, url, timeout=30.0) as body:
            validate_stream(body)
        return True
    except (NotFound, GranuleError, OSError):
        return False


def probe_earliest(endpoint: SourceEndpoint, forecast_id: str,
                   window_start: date, window_end: date,
                   gap_tolerance: int = 14) -> date | None:
    """Earliest day in the window with a valid granule, assuming availability
    has no interior gap longer than `gap_tolerance` consecutive days.

    Finds any available day via capped exponential probing, then walks
    backward day-by-day until the gap tolerance is exhausted.
    """
    if window_start > window_end:
        raise ValueError("empty probe window")
    total = (window_end - window_start).days + 1
    block = gap_tolerance + 1

    def block_has_hit(offset: int) -> bool:
        # Once availability has begun, any block-sized run of days contains
        # a granule, so this predicate is monotone in the offset.
        for i in range(offset, min(offset + block, total)):
            if _is_available(endpoint, forecast_id,
                             window_start + timedelta(days=i)):
                return True
        return False

    if not block_has_hit(max(0, total - block)):
        return None
    lo, hi = 0, max(0, total - block)  # hi: smallest known offset with a hit
    while lo < hi:
        mid = (lo + hi) // 2
        if block_has_hit(mid):
            hi = mid
        else:
            lo = mid + 1
    for i in range(lo, total):
        day = window_start + timedelta(days=i)
        if _is_available(endpoint, forecast_id, day):
            return day
    return None
