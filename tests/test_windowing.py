"""Sliding windows: period codes, fill/slide traces, stale handling."""

from __future__ import annotations

from datetime import date, datetime, timedelta

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowdetect.errors import ConfigurationError, InputError
from flowdetect.windowing import (
    DEFAULT_DATE_FORMAT,
    Window,
    WindowConfig,
    compute_period,
    formatting_data,
    parse_timestamp,
    training_set,
)


# ---------------------------------------------------------------- period codes

def test_day_period_codes():
    assert compute_period(date(2011, 1, 1), "day") == 2011001
    assert compute_period(date(2010, 2, 1), "day") == 2010032
    assert compute_period(datetime(2010, 12, 31, 23, 59), "day") == 2010365


def test_week_period_codes():
    # 2010-01-01 falls in ISO week 53 of week-year 2009.
    assert compute_period(date(2010, 1, 1), "week") == 200953
    assert compute_period(date(2010, 1, 4), "week") == 201001
    assert compute_period(date(2011, 1, 1), "week") == 201052


def test_instance_has_no_period_code():
    with pytest.raises(ConfigurationError):
        compute_period(date(2010, 1, 1), "instance")


def test_parse_timestamp_default_and_iso():
    assert parse_timestamp("01/04/2010 08:05:00") == datetime(2010, 1, 4, 8, 5)
    assert parse_timestamp("2010-01-04 08:05:00") == datetime(2010, 1, 4, 8, 5)
    assert parse_timestamp("04.01.2010 08:05", "%d.%m.%Y %H:%M") == datetime(
        2010, 1, 4, 8, 5
    )


def test_parse_timestamp_rejects_garbage():
    with pytest.raises(InputError):
        parse_timestamp("not a date")
    for text in (None, 5):
        for date_format in (DEFAULT_DATE_FORMAT, "%d.%m.%Y %H:%M"):
            with pytest.raises(InputError, match="is not text"):
                parse_timestamp(text, date_format)


def _parsed(parse, text):
    """What ``parse`` makes of ``text``: a datetime, or ``InputError``."""
    try:
        return parse(text)
    except InputError:
        return InputError


#: Digits, the default layout's separators, a tab and an Arabic-Indic three.
_TIMESTAMP_ALPHABET = "0123456789/: \t\u0663"
_FIELD = st.text("0123456789\u0663", min_size=1, max_size=4)
_SEPARATOR = st.sampled_from(["/", ":", " ", "  ", "\t", ""])


@st.composite
def _near_default_layout(draw):
    """Six digit fields with a separator after each of the first five."""
    parts = [draw(_FIELD)]
    for _ in range(5):
        parts += [draw(_SEPARATOR), draw(_FIELD)]
    return "".join(parts)


_DEFAULT_LAYOUT_TEXT = st.datetimes().map(
    lambda d: f"{d.month:02d}/{d.day:02d}/{d.year:04d} {d.hour:02d}:{d.minute:02d}:{d.second:02d}"
)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(_TIMESTAMP_ALPHABET, max_size=24), _near_default_layout(), _DEFAULT_LAYOUT_TEXT))
@example("00/04/2010 08:00:00")
@example("13/04/2010 08:00:00")
@example("02/29/1900 08:00:00")
@example("02/29/2000 08:00:00")
@example("01/04/2010 24:00:00")
@example("01/04/2010 08:00:60")
@example("01/04/2010 08:00:61")
@example("01/01/0000 08:00:00")
@example("01/01/0001 00:00:00")
@example("12/31/9999 23:59:59")
@example("01/04/2010  08:00:00")
@example("01/04/2010\t08:00:00")
@example("1/4/2010 8:00:00")
@example("01/04/2010 08:00:0\u0663")
@example("01/04/2010 08:00:00\n")
def test_parse_timestamp_agrees_with_strptime(text):
    assert _parsed(parse_timestamp, text) == _parsed(oracles.parse_timestamp, text)


def _digits(width, near):
    """Any ``width`` ASCII digits, or a value near a field's range, zero-padded."""
    return st.one_of(st.integers(0, 10**width - 1), near).map(f"{{:0{width}d}}".format)


_EXACT_LAYOUT_TEXT = st.tuples(
    _digits(2, st.integers(0, 13)),
    _digits(2, st.integers(0, 32)),
    _digits(4, st.sampled_from([0, 1, 1900, 2000, 2010, 2011, 2012, 9999])),
    _digits(2, st.integers(0, 25)),
    _digits(2, st.integers(0, 61)),
    _digits(2, st.integers(0, 61)),
).map(lambda f: "{}/{}/{} {}:{}:{}".format(*f))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_EXACT_LAYOUT_TEXT)
@example("00/04/2010 08:00:00")  # month 00
@example("13/04/2010 08:00:00")  # month 13
@example("01/00/2010 08:00:00")  # day 00
@example("04/31/2010 08:00:00")  # day 31 in a 30-day month
@example("11/31/2010 08:00:00")
@example("02/29/2010 08:00:00")  # 29 February in a non-leap year
@example("02/29/1900 08:00:00")
@example("02/29/2012 08:00:00")
@example("01/04/2010 24:00:00")  # hour 24
@example("01/04/2010 08:60:00")  # minute 60
@example("01/04/2010 08:00:60")  # second 60
@example("01/01/0000 08:00:00")  # year 0000
@example("12/31/9999 23:59:59")
def test_default_layout_reads_as_the_field_by_field_constructor(text):
    """Text of the exact default layout, any digits in each field, reads as
    the ``datetime`` constructor read its fields, or fails as it failed."""
    assert _parsed(parse_timestamp, text) == _parsed(oracles.parse_timestamp_fields, text)


# ---------------------------------------------------------------- config guard

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(window_size=0, sliding_size=0, type="week"),
        dict(window_size=5, sliding_size=-1, type="week"),
        dict(window_size=5, sliding_size=6, type="week"),
        dict(window_size=5, sliding_size=2, type="month"),
    ],
)
def test_window_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        WindowConfig(**kwargs)


# ------------------------------------------------------------------ period mode

#: ISO week 1 of 2010 starts on Monday 2010-01-04, so week ``n`` has code 201000 + n.
WEEK_ONE = datetime(2010, 1, 4, 8, 0)


def week(n: int) -> datetime:
    """08:00 on the Monday of ISO week ``n`` of 2010."""
    return WEEK_ONE + timedelta(weeks=n - 1)


def held_weeks(window: Window) -> list[int]:
    return sorted(period - 201000 for period in window.samples)


def fold_week(window: Window, n: int) -> list[int]:
    """Fold one event in week ``n``; return the weeks it evicted.

    Those are the weeks held before, or just folded, that are held no
    longer; a late week can be evicted by its own arrival.  A stale event
    evicts nothing.
    """
    drops = window.stale_drops
    before = held_weeks(window)
    formatting_data(window, week(n))
    if window.stale_drops > drops:
        return []
    after = held_weeks(window)
    return sorted({*before, n} - set(after))


def drive_weeks(config: WindowConfig, weeks):
    """Fold one event per week; collect (evicted weeks, version) after each."""
    window = Window(config)
    trace = [(fold_week(window, n), window.version) for n in weeks]
    return window, trace


def test_trace_week_3_1():
    window, trace = drive_weeks(WindowConfig(3, 1, "week"), range(1, 8))
    assert trace == [
        ([], 0),
        ([], 0),
        ([], 1),
        ([1], 2),
        ([2], 3),
        ([3], 4),
        ([4], 5),
    ]
    assert held_weeks(window) == [5, 6, 7]


def test_trace_week_10_5():
    window, trace = drive_weeks(WindowConfig(10, 5, "week"), range(1, 26))
    evictions = [e for e, _ in trace if e]
    assert evictions == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]]
    assert [v for _, v in trace] == [0] * 9 + [1] * 5 + [2] * 5 + [3] * 5 + [4]
    assert held_weeks(window) == list(range(16, 26))


def test_trace_week_10_0_grows_forever():
    window, trace = drive_weeks(WindowConfig(10, 0, "week"), range(1, 31))
    assert all(e == [] for e, _ in trace)
    assert [v for _, v in trace] == [0] * 9 + [1] * 21
    assert held_weeks(window) == list(range(1, 31))


def test_duplicate_period_is_not_recounted():
    window, _ = drive_weeks(WindowConfig(3, 1, "week"), (5, 5, 5, 6))
    assert held_weeks(window) == [5, 6]
    assert window.samples[201005] == [480, 480, 480]
    assert window.version == 0


def test_out_of_order_period_accepted_until_evicted():
    window, _ = drive_weeks(WindowConfig(3, 1, "week"), (10, 12, 11))  # 11 late, not stale
    assert held_weeks(window) == [10, 11, 12]
    assert window.version == 1
    formatting_data(window, week(13))
    assert held_weeks(window) == [11, 12, 13]
    assert window.last_evicted == 201010
    # anything at or before the newest evicted week is now stale
    formatting_data(window, week(10))
    formatting_data(window, week(9))
    assert window.stale_drops == 2
    formatting_data(window, week(11))
    assert window.samples[201011] == [480, 480]
    assert window.stale_drops == 2
    assert held_weeks(window) == [11, 12, 13]


# ---------------------------------------------------------------- instance mode

def drive_instances(config: WindowConfig, count: int):
    """Fold ``count`` events; collect (slid, version) after each.

    A slide is a version step once the window has filled.
    """
    window = Window(config)
    trace = []
    for _ in range(count):
        before = window.version
        formatting_data(window, WEEK_ONE)
        trace.append((before >= 1 and window.version > before, window.version))
    return window, trace


def test_trace_instance_2_1():
    window, trace = drive_instances(WindowConfig(2, 1, "instance"), 5)
    assert trace == [(False, 0), (False, 1), (True, 2), (True, 3), (True, 4)]
    assert window.samples == {0: [480, 480]}


def test_trace_instance_100_50():
    window, trace = drive_instances(WindowConfig(100, 50, "instance"), 300)
    slides = [i for i, (slid, _) in enumerate(trace, start=1) if slid]
    assert slides == [150, 200, 250, 300]
    assert window.version == 5
    assert len(window.samples[0]) == 100


# ------------------------------------------------------------- formatting_data

def test_formatting_data_week_roundtrip():
    window = Window(WindowConfig(3, 1, "week"))
    formatting_data(window, datetime(2010, 1, 4, 8, 5))
    assert window.samples == {201001: [485]}
    formatting_data(window, datetime(2010, 1, 4, 9, 0, 30))  # seconds dropped
    assert window.samples == {201001: [485, 540]}
    formatting_data(window, datetime(2010, 1, 11, 10, 0))
    formatting_data(window, datetime(2010, 1, 18, 11, 0))
    assert window.version == 1
    assert sorted(window.samples) == [201001, 201002, 201003]
    # week 4 fills past capacity: week 1 and its samples are evicted
    formatting_data(window, datetime(2010, 1, 25, 12, 0))
    assert window.version == 2
    assert sorted(window.samples) == [201002, 201003, 201004]


def test_formatting_data_drops_stale_events():
    window = Window(WindowConfig(2, 1, "week"))
    for day in (4, 11, 18):  # three consecutive Mondays
        formatting_data(window, datetime(2010, 1, day, 8, 0))
    assert window.version == 2
    before = {k: list(v) for k, v in window.samples.items()}
    formatting_data(window, datetime(2010, 1, 5, 8, 0))  # in evicted week
    assert window.samples == before
    assert window.stale_drops == 1


def test_formatting_data_instance_trims_oldest():
    window = Window(WindowConfig(2, 1, "instance"))
    for hour in (1, 2, 3):
        formatting_data(window, datetime(2010, 1, 4, hour, 0))
    assert window.samples == {0: [120, 180]}


def test_formatting_data_accepts_datetime_objects():
    window = Window(WindowConfig(2, 0, "day"))
    formatting_data(window, datetime(2010, 1, 4, 7, 30))
    assert window.samples == {2010004: [450]}


def test_training_set_orders_periods_not_samples():
    window = Window(WindowConfig(2, 1, "week"))
    window.samples = {202: [5], 201: [30, 4]}
    assert training_set(window) == [30, 4, 5]
    window.samples = {0: [9, 1, 5]}
    assert training_set(window) == [9, 1, 5]
    window.samples = {}
    assert training_set(window) == []


# ------------------------------------------------------------------ properties

@settings(max_examples=200, deadline=None)
@given(
    window_size=st.integers(1, 8),
    sliding_size=st.integers(0, 8),
    weeks=st.lists(st.integers(1, 40), min_size=1, max_size=120),
)
def test_window_invariants(window_size, sliding_size, weeks):
    sliding_size = min(sliding_size, window_size)
    window = Window(WindowConfig(window_size, sliding_size, "week"))
    slides = 0
    for n in weeks:
        if fold_week(window, n):
            slides += 1
        held = held_weeks(window)
        assert all(window.samples.values())  # no held period is empty
        if sliding_size > 0:
            assert len(held) < window_size + sliding_size
        filled = window.version >= 1
        assert window.version == (1 + slides if filled else 0)
        if window.last_evicted is not None:
            assert all(period > window.last_evicted for period in window.samples)
