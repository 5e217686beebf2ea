from datetime import datetime, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from smokecurate.timecal import (HOUR, ISO_Z, UTC, EncodingError, JulianStamp,
                                 calendar_to_julian, format_iso_z, hour_range,
                                 julian_to_calendar, parse_iso_z)


def test_first_day_of_year():
    assert julian_to_calendar(JulianStamp(2021001, 0)) == \
        datetime(2021, 1, 1, tzinfo=UTC)


def test_day_63_is_march_4():
    # 31 (Jan) + 28 (Feb) + 4 = 63
    assert julian_to_calendar(JulianStamp(2021063, 80000)) == \
        datetime(2021, 3, 4, 8, tzinfo=UTC)


def test_leap_day_366():
    assert julian_to_calendar(JulianStamp(2024366, 235959)) == \
        datetime(2024, 12, 31, 23, 59, 59, tzinfo=UTC)


def test_encode_examples():
    assert calendar_to_julian(datetime(2021, 1, 1, tzinfo=UTC)) == \
        JulianStamp(2021001, 0)
    assert calendar_to_julian(datetime(2022, 3, 4, 1, tzinfo=UTC)) == \
        JulianStamp(2022063, 10000)


def test_naive_datetime_rejected():
    with pytest.raises(ValueError):
        calendar_to_julian(datetime(2022, 1, 1))


@pytest.mark.parametrize("date,time,field", [
    (2021000, 0, "date"),        # day-of-year 0
    (2021367, 0, "date"),        # past any year length
    (2021366, 0, "date"),        # 2021 is not a leap year
    (2021001, 240000, "time"),
    (2021001, 6000, "time"),     # minute 60
    (2021001, 60, "time"),       # second 60
])
def test_invalid_stamps_name_the_field(date, time, field):
    with pytest.raises(EncodingError) as err:
        julian_to_calendar(JulianStamp(date, time))
    assert err.value.field == field


@given(st.datetimes(min_value=datetime(2000, 1, 1),
                    max_value=datetime(2099, 12, 31)).map(
                        lambda d: d.replace(microsecond=0, tzinfo=UTC)))
def test_round_trip_identity(dt):
    assert julian_to_calendar(calendar_to_julian(dt)) == dt


@given(st.lists(st.datetimes(min_value=datetime(2019, 1, 1),
                             max_value=datetime(2026, 1, 1)).map(
                                 lambda d: d.replace(microsecond=0, tzinfo=UTC)),
                min_size=2, max_size=2, unique=True))
def test_stamp_order_matches_time_order(pair):
    a, b = sorted(pair)
    assert calendar_to_julian(a) < calendar_to_julian(b)


def test_hour_range_single():
    t = datetime(2022, 3, 2, 5, tzinfo=UTC)
    assert hour_range(t, t) == [t]


def test_hour_range_counts():
    t0 = datetime(2022, 3, 2, 0, tzinfo=UTC)
    assert len(hour_range(t0, t0 + timedelta(hours=3))) == 4
    # spanning a day boundary, checked by explicit enumeration
    t0 = datetime(2021, 3, 3, 0, tzinfo=UTC)
    steps = hour_range(t0, datetime(2021, 3, 4, 0, tzinfo=UTC))
    assert steps == [t0 + i * HOUR for i in range(25)]


def test_hour_range_strictly_increasing_constant_stride():
    t0 = datetime(2022, 3, 2, 0, tzinfo=UTC)
    steps = hour_range(t0, t0 + timedelta(hours=50))
    assert all(b - a == HOUR for a, b in zip(steps, steps[1:]))


def test_hour_range_rejects_reversed_and_unaligned():
    t0 = datetime(2022, 3, 2, 0, tzinfo=UTC)
    with pytest.raises(ValueError):
        hour_range(t0, t0 - HOUR)
    with pytest.raises(ValueError):
        hour_range(t0.replace(minute=30), t0 + HOUR)


@pytest.mark.parametrize("year, text", [(1, "0001-02-03T04:05:06Z"),
                                        (999, "0999-02-03T04:05:06Z"),
                                        (1000, "1000-02-03T04:05:06Z"),
                                        (9999, "9999-02-03T04:05:06Z")])
def test_iso_z_text_reads_back_at_every_year_width(year, text):
    t = datetime(year, 2, 3, 4, 5, 6, tzinfo=UTC)
    assert format_iso_z(t) == text
    assert parse_iso_z(format_iso_z(t)) == t
    if year >= 1000:  # the text of every pinned table: strftime's own
        assert format_iso_z(t) == t.strftime(ISO_Z)


def strptime_iso_z(text):
    """The reference: every ISO_Z text read by `strptime` alone."""
    return datetime.strptime(text, ISO_Z).replace(tzinfo=UTC)


def outcome(parse, text):
    """What `parse` makes of `text`: its datetime, or its error's text."""
    try:
        return parse(text)
    except ValueError as e:
        return f"ValueError: {e}"


# digit runs of one to four characters, some of them not ASCII digits
DIGITS = st.text(st.sampled_from("0123456789\u0663\u096a\uff17"),
                 min_size=1, max_size=4)


def field(width, high):
    """A field of ISO_Z text: mostly zero-padded to `width`, up to `high`
    (past the valid range), else any digit run."""
    return st.one_of(st.integers(0, high).map(f"{{:0{width}}}".format), DIGITS)


iso_shaped = st.builds("{}-{}-{}T{}:{}:{}{}".format, field(4, 10000),
                       field(2, 13), field(2, 32), field(2, 25),
                       field(2, 61), field(2, 62),
                       st.sampled_from(["Z", "Z", "Z", "", "z", "ZZ", "+00:00"]))


@settings(max_examples=500)
@given(st.one_of(iso_shaped,
                 st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59))
                 .map(lambda t: format_iso_z(t.replace(microsecond=0))),
                 st.text(st.sampled_from("0123456789-T:Z \u0663"), max_size=24)))
@example("2022-3-02T01:00:00Z")     # a one-digit month
@example("2022-03-0\u0663T01:00:00Z")  # a non-ASCII digit
@example("2022-03-02T01:00:00")     # no Z
@example("0999-03-02T01:00:00Z")    # a year below 1000
@example("999-03-02T01:00:00Z")     # the same year unpadded
@example("2022-02-29T00:00:00Z")    # no such day
@example("2022-03-02T24:00:00Z")    # no such hour
@example("0000-03-02T00:00:00Z")    # no year 0
def test_parse_iso_z_gives_strptimes_result_or_error(text):
    """Both paths of `parse_iso_z`, `fromisoformat` for the shape that
    `format_iso_z` writes and `strptime` for every other text, give what
    `strptime` alone gives: the same datetime, or the same error."""
    assert outcome(parse_iso_z, text) == outcome(strptime_iso_z, text)
