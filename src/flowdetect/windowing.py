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

from bisect import bisect_left, insort
from dataclasses import dataclass
from datetime import date, datetime
from typing import Union

from .errors import ConfigurationError, InputError

#: Timestamp layout of the supported activity logs.
DEFAULT_DATE_FORMAT = "%m/%d/%Y %H:%M:%S"

PERIOD_TYPES = ("day", "week", "instance")

#: Per-period training samples: period code -> minutes of day, arrival order.
#: Instance-typed windows keep everything under the single key 0.
TrainingData = dict[int, list[int]]


@dataclass(frozen=True)
class WindowConfig:
    window_size: int
    sliding_size: int
    type: str

    def __post_init__(self) -> None:
        if self.type not in PERIOD_TYPES:
            raise ConfigurationError(f"unknown window type {self.type!r}")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be positive")
        if self.sliding_size < 0:
            raise ConfigurationError("sliding_size must be non-negative")
        if self.sliding_size > self.window_size:
            raise ConfigurationError("sliding_size cannot exceed window_size")


def parse_timestamp(text: str, date_format: str = DEFAULT_DATE_FORMAT) -> datetime:
    """Parse ``text`` with ``date_format``, falling back to ISO-8601."""
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
    """Bookkeeping for one user's sliding window.

    The window itself never stores samples; it tracks which periods (or how
    many events) are active and reports what to evict.  Out-of-order events
    are accepted as long as their period has not been evicted yet; stale
    ones are counted in ``stale_drops``.
    """

    def __init__(self, config: WindowConfig):
        self.config = config
        self.active_periods: list[int] = []
        self.instance_count = 0
        self.version = 0
        self.stale_drops = 0
        self._filled = False
        self._last_evicted: int | None = None

    def is_stale(self, period: int) -> bool:
        return self._last_evicted is not None and period <= self._last_evicted

    def add_period(self, period: int) -> list[int]:
        """Register a period arrival; return the periods to evict (if any)."""
        if self.config.type == "instance":
            raise ConfigurationError("add_period is undefined for instance windows")
        if self.is_stale(period):
            self.stale_drops += 1
            return []
        idx = bisect_left(self.active_periods, period)
        if idx < len(self.active_periods) and self.active_periods[idx] == period:
            return []
        insort(self.active_periods, period)
        if not self._filled and len(self.active_periods) == self.config.window_size:
            self._filled = True
            self.version += 1
        cap = self.config.window_size + self.config.sliding_size
        if self.config.sliding_size > 0 and len(self.active_periods) == cap:
            evicted = self.active_periods[: self.config.sliding_size]
            del self.active_periods[: self.config.sliding_size]
            self._last_evicted = evicted[-1]
            self.version += 1
            return evicted
        return []

    def add_instance(self, minute: int) -> bool:
        """Register one event; return True when the caller must slide."""
        if self.config.type != "instance":
            raise ConfigurationError("add_instance requires an instance window")
        if not 0 <= minute < 1440:
            raise InputError(f"minute of day out of range: {minute}")
        self.instance_count += 1
        if not self._filled and self.instance_count == self.config.window_size:
            self._filled = True
            self.version += 1
        cap = self.config.window_size + self.config.sliding_size
        if self.config.sliding_size > 0 and self.instance_count == cap:
            self.instance_count -= self.config.sliding_size
            self.version += 1
            return True
        return False

    def to_debug_dict(self) -> dict:
        return {
            "window_size": self.config.window_size,
            "sliding_size": self.config.sliding_size,
            "window_type": self.config.type,
            "active_periods": list(self.active_periods),
            "instance_count": self.instance_count,
            "version": self.version,
            "stale_drops": self.stale_drops,
        }

    def __repr__(self) -> str:
        return (
            f"Window({self.config.type}, size={self.config.window_size}, "
            f"slide={self.config.sliding_size}, version={self.version})"
        )


def formatting_data(data: TrainingData, window: Window, when: datetime) -> None:
    """Fold one event into the training data, evicting what slid out.

    ``data`` and ``window`` are updated in place.  Sub-minute precision is
    dropped: the stored sample is ``hour * 60 + minute``.
    """
    minute = when.hour * 60 + when.minute
    if window.config.type == "instance":
        data.setdefault(0, []).append(minute)
        if window.add_instance(minute):
            del data[0][: window.config.sliding_size]
        return
    period = compute_period(when, window.config.type)
    if window.is_stale(period):
        window.stale_drops += 1
        return
    data.setdefault(period, []).append(minute)
    for evicted in window.add_period(period):
        data.pop(evicted, None)


def training_set(data: TrainingData) -> list[int]:
    """Flatten training data to one sample list, periods in ascending order."""
    return [minute for period in sorted(data) for minute in data[period]]
