"""Window bookkeeping: period codes, fill/slide traces, stale handling."""

from __future__ import annotations

from datetime import date, datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdetect.errors import ConfigurationError, InputError
from flowdetect.windowing import (
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

def drive_periods(config: WindowConfig, periods):
    """Feed abstract period codes; collect (evicted, version) after each."""
    window = Window(config)
    trace = []
    for p in periods:
        evicted = window.add_period(p)
        trace.append((evicted, window.version))
    return window, trace


def test_trace_week_3_1():
    window, trace = drive_periods(WindowConfig(3, 1, "week"), range(1, 8))
    assert trace == [
        ([], 0),
        ([], 0),
        ([], 1),
        ([1], 2),
        ([2], 3),
        ([3], 4),
        ([4], 5),
    ]
    assert window.active_periods == [5, 6, 7]


def test_trace_week_10_5():
    window, trace = drive_periods(WindowConfig(10, 5, "week"), range(1, 26))
    evictions = [e for e, _ in trace if e]
    assert evictions == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]]
    assert [v for _, v in trace] == [0] * 9 + [1] * 5 + [2] * 5 + [3] * 5 + [4]
    assert window.active_periods == list(range(16, 26))


def test_trace_week_10_0_grows_forever():
    window, trace = drive_periods(WindowConfig(10, 0, "week"), range(1, 31))
    assert all(e == [] for e, _ in trace)
    assert [v for _, v in trace] == [0] * 9 + [1] * 21
    assert window.active_periods == list(range(1, 31))


def test_duplicate_period_is_not_recounted():
    window = Window(WindowConfig(3, 1, "week"))
    for p in (5, 5, 5, 6):
        window.add_period(p)
    assert window.active_periods == [5, 6]
    assert window.version == 0


def test_out_of_order_period_accepted_until_evicted():
    window = Window(WindowConfig(3, 1, "week"))
    window.add_period(10)
    window.add_period(12)
    window.add_period(11)  # late but not stale
    assert window.active_periods == [10, 11, 12]
    assert window.version == 1
    assert window.add_period(13) == [10]
    # anything at or before the newest evicted period is now stale
    assert window.is_stale(10)
    assert window.is_stale(9)
    assert not window.is_stale(11)
    assert window.add_period(10) == []
    assert window.stale_drops == 1
    assert window.active_periods == [11, 12, 13]


def test_add_period_wrong_mode():
    with pytest.raises(ConfigurationError):
        Window(WindowConfig(2, 1, "instance")).add_period(1)
    with pytest.raises(ConfigurationError):
        Window(WindowConfig(2, 1, "week")).add_instance(100)


# ---------------------------------------------------------------- instance mode

def test_trace_instance_2_1():
    window = Window(WindowConfig(2, 1, "instance"))
    trace = [(window.add_instance(100), window.version) for _ in range(5)]
    assert trace == [(False, 0), (False, 1), (True, 2), (True, 3), (True, 4)]
    assert window.instance_count == 2


def test_trace_instance_100_50():
    window = Window(WindowConfig(100, 50, "instance"))
    slides = []
    for i in range(1, 301):
        if window.add_instance(480):
            slides.append(i)
    assert slides == [150, 200, 250, 300]
    assert window.version == 5
    assert window.instance_count == 100


def test_instance_minute_range():
    window = Window(WindowConfig(2, 1, "instance"))
    with pytest.raises(InputError):
        window.add_instance(-1)
    with pytest.raises(InputError):
        window.add_instance(1440)


# ------------------------------------------------------------- formatting_data

def test_formatting_data_week_roundtrip():
    window = Window(WindowConfig(3, 1, "week"))
    data: dict[int, list[int]] = {}
    formatting_data(data, window, datetime(2010, 1, 4, 8, 5))
    assert data == {201001: [485]}
    formatting_data(data, window, datetime(2010, 1, 4, 9, 0, 30))  # seconds dropped
    assert data == {201001: [485, 540]}
    formatting_data(data, window, datetime(2010, 1, 11, 10, 0))
    formatting_data(data, window, datetime(2010, 1, 18, 11, 0))
    assert window.version == 1
    assert sorted(data) == [201001, 201002, 201003]
    # week 4 fills past capacity: week 1 evicted from window and data
    formatting_data(data, window, datetime(2010, 1, 25, 12, 0))
    assert window.version == 2
    assert sorted(data) == [201002, 201003, 201004]


def test_formatting_data_drops_stale_events():
    window = Window(WindowConfig(2, 1, "week"))
    data: dict[int, list[int]] = {}
    for day in (4, 11, 18):  # three consecutive Mondays
        formatting_data(data, window, datetime(2010, 1, day, 8, 0))
    assert window.version == 2
    before = {k: list(v) for k, v in data.items()}
    formatting_data(data, window, datetime(2010, 1, 5, 8, 0))  # in evicted week
    assert data == before
    assert window.stale_drops == 1


def test_formatting_data_instance_trims_oldest():
    window = Window(WindowConfig(2, 1, "instance"))
    data: dict[int, list[int]] = {}
    for hour in (1, 2, 3):
        formatting_data(data, window, datetime(2010, 1, 4, hour, 0))
    assert data == {0: [120, 180]}
    assert window.instance_count == 2


def test_formatting_data_accepts_datetime_objects():
    window = Window(WindowConfig(2, 0, "day"))
    data: dict[int, list[int]] = {}
    formatting_data(data, window, datetime(2010, 1, 4, 7, 30))
    assert data == {2010004: [450]}


def test_training_set_orders_periods_not_samples():
    assert training_set({202: [5], 201: [30, 4]}) == [30, 4, 5]
    assert training_set({0: [9, 1, 5]}) == [9, 1, 5]
    assert training_set({}) == []


# ------------------------------------------------------------------ properties

@settings(max_examples=200, deadline=None)
@given(
    window_size=st.integers(1, 8),
    sliding_size=st.integers(0, 8),
    periods=st.lists(st.integers(1, 40), min_size=1, max_size=120),
)
def test_window_invariants(window_size, sliding_size, periods):
    sliding_size = min(sliding_size, window_size)
    config = WindowConfig(window_size, sliding_size, "week")
    window = Window(config)
    slides = 0
    for p in periods:
        if window.add_period(p):
            slides += 1
        held = window.active_periods
        assert held == sorted(set(held))
        if sliding_size > 0:
            assert len(held) < window_size + sliding_size
        filled = window.version >= 1
        assert window.version == (1 + slides if filled else 0)
        if window._last_evicted is not None:
            assert all(p > window._last_evicted for p in held)


@settings(max_examples=100, deadline=None)
@given(
    days=st.lists(st.integers(0, 27), min_size=1, max_size=80),
    window_size=st.integers(1, 4),
    sliding_size=st.integers(0, 4),
)
def test_data_keys_track_active_periods(days, window_size, sliding_size):
    sliding_size = min(sliding_size, window_size)
    window = Window(WindowConfig(window_size, sliding_size, "day"))
    data: dict[int, list[int]] = {}
    for offset in days:
        when = datetime(2010, 3, 1 + offset % 28, 8 + offset % 10, 15)
        formatting_data(data, window, when)
    assert set(data) == set(window.active_periods)
    assert all(data[k] for k in data)
