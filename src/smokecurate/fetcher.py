"""Portal URL construction, validated bulk download into the cache layout,
and earliest-available-date probing.

Bodies are content-validated before being committed to the cache (temp file +
rename), so no HTML page or truncated body can ever land there.
"""

from __future__ import annotations

import csv
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from urllib.parse import urlparse

from .granule import GranuleError, TruncatedError, read_header_bytes

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


@dataclass
class FetchReport:
    records: list[FetchRecord] = field(default_factory=list)

    def by_outcome(self, outcome: str) -> list[FetchRecord]:
        return [r for r in self.records if r.outcome == outcome]

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["forecast_id", "date", "outcome", "bytes", "attempts"])
            for r in self.records:
                w.writerow([r.forecast_id, r.date.isoformat(), r.outcome,
                            r.bytes, r.attempts])


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


def _get_body(endpoint: SourceEndpoint, url: str, timeout: float) -> bytes:
    """Fetch raw bytes; raises NotFound for a missing object."""
    if endpoint.is_http:
        import requests

        resp = requests.get(url, timeout=timeout)
        if resp.status_code == 404:
            raise NotFound(url)
        resp.raise_for_status()
        return resp.content
    path = Path(url)
    if not path.is_file():
        raise NotFound(url)
    return path.read_bytes()


def _validate_body(body: bytes) -> None:
    """Raise GranuleError unless the body is a complete, well-formed granule."""
    info = read_header_bytes(body)
    if len(body) != info.expected_total_bytes:
        raise TruncatedError(
            f"body is {len(body)} bytes, header declares {info.expected_total_bytes}",
            min(len(body), info.expected_total_bytes))


def fetch_one(endpoint: SourceEndpoint, forecast_id: str, day: date,
              cache_root: Path, retries: int = 3, backoff: float = 1.0,
              timeout: float = 30.0) -> FetchRecord:
    url = build_url(endpoint, forecast_id, day, embedded_init_hour(forecast_id))
    target = cache_root / forecast_id / f"dispersion_{day:%Y%m%d}.gran"

    if target.is_file():
        try:
            _validate_body(target.read_bytes())
            return FetchRecord(forecast_id, day, url, "downloaded", 0, 0)
        except GranuleError:
            target.unlink()  # stale junk; refetch

    body = None
    attempts = 0
    for attempt in range(1, retries + 1):
        attempts = attempt
        try:
            body = _get_body(endpoint, url, timeout)
            break
        except NotFound:
            # absence is a documented steady state, not worth retrying
            return FetchRecord(forecast_id, day, url, "not_found", 0, attempts)
        except Exception:
            if attempt == retries:
                return FetchRecord(forecast_id, day, url, "io_error", 0, attempts)
            time.sleep(backoff * 2 ** (attempt - 1))

    try:
        _validate_body(body)
    except GranuleError:
        reject = cache_root / "rejects" / forecast_id / f"dispersion_{day:%Y%m%d}.bin"
        reject.parent.mkdir(parents=True, exist_ok=True)
        reject.write_bytes(body)
        return FetchRecord(forecast_id, day, url, "invalid_content",
                           len(body), attempts)

    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(".tmp")
    tmp.write_bytes(body)
    os.replace(tmp, target)
    return FetchRecord(forecast_id, day, url, "downloaded", len(body), attempts)


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
        body = _get_body(endpoint, url, timeout=30.0)
        _validate_body(body)
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
