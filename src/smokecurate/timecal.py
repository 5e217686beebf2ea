"""Conversions between UTC datetimes, YYYYDDD/HHMMSS stamps and ISO_Z text.

All stamps are UTC. Second resolution only; the HHMMSS encoding cannot
express anything finer.
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

UTC = timezone.utc
HOUR = timedelta(hours=1)
ISO_Z = "%Y-%m-%dT%H:%M:%SZ"
# the one shape of ISO_Z text `format_iso_z` writes: ASCII digits only
_ISO_Z_SHAPE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)


class EncodingError(ValueError):
    """A stamp field is outside its valid range."""

    def __init__(self, field: str, value: int, message: str):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value}: {message}")


@dataclass(frozen=True, order=True)
class JulianStamp:
    """Date as YYYYDDD (year*1000 + day-of-year) and time as HHMMSS, UTC."""

    date: int
    time: int

    def validate(self) -> "JulianStamp":
        year, doy = divmod(self.date, 1000)
        if year < 1 or year > 9999:
            raise EncodingError("date", self.date, "year out of range")
        max_doy = 366 if calendar.isleap(year) else 365
        if not 1 <= doy <= max_doy:
            raise EncodingError("date", self.date,
                                f"day-of-year must be in 1..{max_doy} for {year}")
        hh, rest = divmod(self.time, 10000)
        mm, ss = divmod(rest, 100)
        if not 0 <= hh <= 23:
            raise EncodingError("time", self.time, "hour out of range")
        if not 0 <= mm <= 59:
            raise EncodingError("time", self.time, "minute out of range")
        if not 0 <= ss <= 59:
            raise EncodingError("time", self.time, "second out of range")
        return self


def julian_to_calendar(stamp: JulianStamp) -> datetime:
    """Decode a stamp into an aware UTC datetime."""
    stamp.validate()
    year, doy = divmod(stamp.date, 1000)
    hh, rest = divmod(stamp.time, 10000)
    mm, ss = divmod(rest, 100)
    base = datetime(year, 1, 1, tzinfo=UTC) + timedelta(days=doy - 1)
    return base.replace(hour=hh, minute=mm, second=ss)


def calendar_to_julian(dt: datetime) -> JulianStamp:
    """Encode an aware datetime (converted to UTC) as a JulianStamp."""
    if dt.tzinfo is None:
        raise ValueError("naive datetime has no well-defined UTC representation")
    dt = dt.astimezone(UTC)
    doy = dt.timetuple().tm_yday
    return JulianStamp(dt.year * 1000 + doy,
                       dt.hour * 10000 + dt.minute * 100 + dt.second)


def format_iso_z(t: datetime) -> str:
    """The ISO_Z text of a UTC datetime, its year zero-padded to 4 digits
    (`strftime` writes year 500 as `500`, which `parse_iso_z` refuses)."""
    return t.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def parse_iso_z(text: str) -> datetime:
    """The aware UTC datetime that an ISO_Z text names.

    A text of `format_iso_z`'s exact shape is read by `fromisoformat`,
    which costs a fraction of `strptime`. `strptime` reads every other
    text, and every text `fromisoformat` refuses, so each text gets
    `strptime`'s result or its error."""
    if _ISO_Z_SHAPE.fullmatch(text):
        try:
            return datetime.fromisoformat(text[:19]).replace(tzinfo=UTC)
        except ValueError:
            pass
    return datetime.strptime(text, ISO_Z).replace(tzinfo=UTC)


def is_hour_step(dt: datetime) -> bool:
    return dt.tzinfo is not None and dt.minute == 0 and dt.second == 0 and dt.microsecond == 0


def hour_count(start: datetime, end: datetime) -> int:
    """Number of hourly steps from start to end, both included."""
    if not is_hour_step(start) or not is_hour_step(end):
        raise ValueError("hour_range endpoints must be exact UTC hour boundaries")
    if start > end:
        raise ValueError(f"start {start} is after end {end}")
    return int((end - start) / HOUR) + 1


def hour_range(start: datetime, end: datetime) -> list[datetime]:
    """Inclusive list of hourly steps from start to end."""
    return [start + i * HOUR for i in range(hour_count(start, end))]
