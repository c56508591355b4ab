"""Synthetic labelled logon streams for testing and benchmarking.

Each user logs on during working hours on weekdays, drawn from a personal
Gaussian profile.  Anomalies are extra logons at off-hours (0 to 5 h),
concentrated in a single two-week episode per user so that a sliding model
meets them before absorbing them.  The ``shift`` profile moves everyone's
schedule a few hours later halfway through the stream, which punishes
models that never retrain.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigurationError, checked_integer
from .windowing import DEFAULT_DATE_FORMAT

if TYPE_CHECKING:
    import numpy as np

PROFILES = ("static", "shift")

#: Monday; ISO week 1 of 2010.
DEFAULT_START = date(2010, 1, 4)

_EVENTS_PER_WEEKDAY = 3.0  # Poisson mean
_ANOMALY_SPAN_WEEKS = 2


@dataclass(frozen=True)
class SynthEvent:
    event_id: str
    when: datetime
    user: str
    pc: str
    activity: str
    label: int


def generate(
    n_users: int,
    n_weeks: int,
    anomaly_rate: float,
    seed: int,
    profile: str = "shift",
) -> list[SynthEvent]:
    """Build a chronologically ordered, labelled event stream from ``DEFAULT_START``.

    ``n_users`` and ``n_weeks`` must be positive integers, ``seed`` a
    non-negative one and ``anomaly_rate`` a number in [0, 1); anything else
    raises ``ConfigurationError``.
    """
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}")
    if checked_integer(n_users, "n_users") < 1 or checked_integer(n_weeks, "n_weeks") < 1:
        raise ConfigurationError("n_users and n_weeks must be positive")
    if checked_integer(seed, "seed") < 0:
        raise ConfigurationError("seed must be non-negative")
    if isinstance(anomaly_rate, bool) or not isinstance(anomaly_rate, numbers.Real):
        raise ConfigurationError(f"anomaly_rate must be a number, got {anomaly_rate!r}")
    if not 0.0 <= anomaly_rate < 1.0:
        raise ConfigurationError("anomaly_rate must be in [0, 1)")

    # Imported here so that argparse can read ``PROFILES`` without numpy.
    import numpy as np

    rng = np.random.default_rng(seed)
    shift_week = n_weeks // 2
    rows: list[tuple[datetime, str, str, str, int, int]] = []
    sequence = 0

    for u in range(n_users):
        user = f"U{u:04d}"
        pc = f"PC-{int(rng.integers(0, 10000)):04d}"
        mu = float(rng.uniform(9.5, 15.5))
        sigma = float(rng.uniform(0.8, 1.5))
        shift_amount = float(rng.uniform(2.0, 3.0)) if profile == "shift" else 0.0

        for week in range(n_weeks):
            centre = mu + (shift_amount if week >= shift_week else 0.0)
            for weekday in range(5):
                day = DEFAULT_START + timedelta(weeks=week, days=weekday)
                for _ in range(int(rng.poisson(_EVENTS_PER_WEEKDAY))):
                    hour = float(
                        np.clip(
                            rng.normal(centre, sigma),
                            centre - 2.5 * sigma,
                            centre + 2.5 * sigma,
                        )
                    )
                    rows.append((_at(day, hour, rng), user, pc, "Logon", 0, sequence))
                    sequence += 1

        if anomaly_rate > 0.0:
            expected_normals = n_weeks * 5 * _EVENTS_PER_WEEKDAY
            mean_anomalies = anomaly_rate / (1.0 - anomaly_rate) * expected_normals
            n_anomalies = int(rng.poisson(mean_anomalies))
            lowest = max(0, min(n_weeks // 2, n_weeks - _ANOMALY_SPAN_WEEKS))
            highest = max(lowest, n_weeks - _ANOMALY_SPAN_WEEKS)
            episode = int(rng.integers(lowest, highest + 1))
            for _ in range(n_anomalies):
                week = min(episode + int(rng.integers(0, _ANOMALY_SPAN_WEEKS)), n_weeks - 1)
                day = DEFAULT_START + timedelta(weeks=week, days=int(rng.integers(0, 7)))
                hour = float(rng.uniform(0.0, 5.0))
                rows.append((_at(day, hour, rng), user, pc, "Logon", 1, sequence))
                sequence += 1

    rows.sort(key=lambda r: (r[0], r[1], r[5]))
    width = max(6, len(str(len(rows))))
    return [
        SynthEvent(f"E{i + 1:0{width}d}", when, user, pc, activity, label)
        for i, (when, user, pc, activity, label, _) in enumerate(rows)
    ]


def _at(day: date, hour: float, rng: np.random.Generator) -> datetime:
    minute_of_day = int(hour * 60.0)
    return datetime(
        day.year,
        day.month,
        day.day,
        minute_of_day // 60,
        minute_of_day % 60,
        int(rng.integers(0, 60)),
    )


def write_events(events: Iterable[SynthEvent], path: str) -> int:
    """Write the activity-log CSV; returns the row count."""
    rows = (
        [e.event_id, e.when.strftime(DEFAULT_DATE_FORMAT), e.user, e.pc, e.activity] for e in events
    )
    return _write_csv(path, ["id", "date", "user", "pc", "activity"], rows)


def write_labels(events: Iterable[SynthEvent], path: str) -> int:
    """Write the labels CSV; returns the row count."""
    return _write_csv(path, ["id", "label"], ([e.event_id, e.label] for e in events))


def _write_csv(path: str, header: list[str], rows: Iterable[list]) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            count += 1
    return count
