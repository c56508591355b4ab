"""Sliding training windows over a per-user event stream.

Samples are minutes of the day grouped by period.  A window is sized either
in calendar periods (``day``/``week``) or in raw event counts (``instance``).
Once ``window_size + sliding_size`` units are held, the oldest
``sliding_size`` units are evicted; with ``sliding_size == 0`` the window
only grows.  ``version`` counts completed windows: it is bumped the first
time ``window_size`` units are reached and again on every slide, which is
what downstream consumers key their retraining on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime
from typing import Union

from .errors import ConfigurationError, InputError, checked_integer

#: Timestamp layout of the supported activity logs.
DEFAULT_DATE_FORMAT = "%m/%d/%Y %H:%M:%S"

#: The exact ASCII shape of ``DEFAULT_DATE_FORMAT`` with every field at full
#: width, as ``MM/DD/YYYY HH:MM:SS``, with an hour below 24: ISO 8601 lets
#: 24:00:00 mean the next midnight, which ``%H`` never reads.
_DEFAULT_LAYOUT = re.compile(r"(\d\d)/(\d\d)/(\d{4}) ([01]\d|2[0-3]):(\d\d):(\d\d)", re.ASCII)

PERIOD_TYPES = ("day", "week", "instance")

#: Every minute of the day as one int object, so that held samples share them
#: instead of each holding its own (CPython caches only ints up to 256).
_MINUTES = tuple(range(24 * 60))

@dataclass(frozen=True)
class WindowConfig:
    window_size: int = 10
    sliding_size: int = 5
    type: str = "week"

    def __post_init__(self) -> None:
        checked_integer(self.window_size, "window_size")
        checked_integer(self.sliding_size, "sliding_size")
        if self.type not in PERIOD_TYPES:
            raise ConfigurationError(f"unknown window type {self.type!r}")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be positive")
        if self.sliding_size < 0:
            raise ConfigurationError("sliding_size must be non-negative")
        if self.sliding_size > self.window_size:
            raise ConfigurationError("sliding_size cannot exceed window_size")


def parse_timestamp(text: str, date_format: str = DEFAULT_DATE_FORMAT) -> datetime:
    """Parse ``text`` with ``date_format``, falling back to ISO-8601.

    Text in the default layout's exact shape is reordered to ``YYYY-MM-DD
    HH:MM:SS`` and read by one ``datetime.fromisoformat``, which gives what
    ``strptime`` gives; everything else, an out-of-range field included,
    takes the ``strptime`` path.  Anything but a ``str`` raises
    ``InputError``.
    """
    if not isinstance(text, str):
        raise InputError(f"timestamp {text!r} is not text")
    if date_format == DEFAULT_DATE_FORMAT:
        fields = _DEFAULT_LAYOUT.fullmatch(text)
        if fields is not None:
            month, day, year, hour, minute, second = fields.groups()
            try:
                return datetime.fromisoformat(f"{year}-{month}-{day} {hour}:{minute}:{second}")
            except ValueError:
                pass
    try:
        return datetime.strptime(text, date_format)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise InputError(f"cannot parse timestamp {text!r}") from None


def compute_period(when: Union[datetime, date], period_type: str) -> int:
    """Map a timestamp to its integer period code.

    Days are coded ``year * 1000 + day_of_year``, weeks as ISO-8601
    ``week_year * 100 + week_number`` (so early January may belong to the
    previous week-year).
    """
    if period_type == "day":
        return when.year * 1000 + when.timetuple().tm_yday
    if period_type == "week":
        iso = when.isocalendar()
        return iso[0] * 100 + iso[1]
    raise ConfigurationError(f"no period code for window type {period_type!r}")


class Window:
    """One user's sliding window: the samples it holds and its bookkeeping.

    ``samples`` maps each held period to its minutes of the day, in arrival
    order; ``instance`` windows hold every sample under the single key 0.
    Out-of-order events are accepted as long as their period has not been
    evicted yet; stale ones are counted in ``stale_drops``.
    """

    def __init__(self, config: WindowConfig):
        self.config = config
        self.samples: dict[int, list[int]] = {}
        self.version = 0
        self.stale_drops = 0
        self.last_evicted: int | None = None

    def to_debug_dict(self) -> dict:
        return {
            "window_size": self.config.window_size,
            "sliding_size": self.config.sliding_size,
            "window_type": self.config.type,
            "samples": self.samples,
            "version": self.version,
            "stale_drops": self.stale_drops,
            "last_evicted": self.last_evicted,
        }

    def __repr__(self) -> str:
        return (
            f"Window({self.config.type}, size={self.config.window_size}, "
            f"slide={self.config.sliding_size}, version={self.version})"
        )


def formatting_data(window: Window, when: datetime) -> None:
    """Fold one event into ``window``: fill it, slide it, evict what slid out.

    Sub-minute precision is dropped: the stored sample is
    ``hour * 60 + minute``, the shared int of ``_MINUTES``.  A unit is a
    period, or one event for ``instance`` windows.
    """
    config = window.config
    samples = window.samples
    minute = _MINUTES[when.hour * 60 + when.minute]
    if config.type == "instance":
        held = samples.setdefault(0, [])
        held.append(minute)
        units = len(held)
    else:
        period = compute_period(when, config.type)
        if window.last_evicted is not None and period <= window.last_evicted:
            window.stale_drops += 1
            return
        held = samples.get(period)
        if held is not None:
            held.append(minute)
            return
        samples[period] = [minute]
        units = len(samples)
    if units == config.window_size and window.version == 0:
        window.version = 1
    elif config.sliding_size and units == config.window_size + config.sliding_size:
        window.version += 1
        if config.type == "instance":
            del held[: config.sliding_size]
        else:
            evicted = sorted(samples)[: config.sliding_size]
            for period in evicted:
                del samples[period]
            window.last_evicted = evicted[-1]


def training_set(window: Window) -> list[int]:
    """Flatten the window's samples to one list, periods in ascending order."""
    samples = window.samples
    return [minute for period in sorted(samples) for minute in samples[period]]
