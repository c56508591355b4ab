"""Majority voting over detector verdicts."""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta

import pytest

import oracles
from flowdetect.detectors import Score
from flowdetect.engine import Event
from flowdetect.ensemble import majority_vote
from flowdetect.pipeline import Pipeline, PipelineConfig
from flowdetect.windowing import WindowConfig


def cast(binaries):
    return [(f"d{i}", Score(b, float(b))) for i, b in enumerate(binaries)]


def test_two_votes_split_is_not_a_majority():
    assert majority_vote(cast([1, 0])) is False


def test_two_of_three_alerts():
    assert majority_vote(cast([1, 1, 0])) is True


def test_single_vote_decides():
    assert majority_vote(cast([1])) is True
    assert majority_vote(cast([0])) is False


def test_two_of_four_is_not_strict_majority():
    assert majority_vote(cast([1, 1, 0, 0])) is False
    assert majority_vote(cast([1, 1, 1, 0])) is True


def test_empty_cast_does_not_alert():
    assert majority_vote([]) is False


def test_score_rejects_non_binary_votes():
    with pytest.raises(ValueError, match="binary score must be 0 or 1"):
        Score(2, 0.5)


@pytest.mark.parametrize("n", range(1, 6))
def test_exhaustive_against_counting_rule(n):
    """Every 0/1 vote pattern up to five detectors, checked by brute count."""
    for pattern in itertools.product((0, 1), repeat=n):
        assert majority_vote(cast(pattern)) == oracles.majority_rule(pattern)


def test_board_cleared_after_any_non_empty_vote():
    """The cast list is emptied after every vote, alerting or not."""
    seen = []

    def alternate(cast):
        seen.append((cast, len(cast)))
        return len(seen) % 2 == 0

    pipeline = Pipeline(PipelineConfig(window=WindowConfig(3, 1, "week")), vote_fn=alternate)
    start = datetime(2010, 1, 4)  # a Monday
    days = [week * 7 + weekday for week in range(4) for weekday in range(5)]
    moments = [start + timedelta(days=day, hours=hour) for day in days for hour in (9, 14)]
    for n, when in enumerate(moments):
        stamp = when.strftime("%m/%d/%Y %H:%M:%S")
        pipeline.process_event(Event("e", ("fred", stamp, f"fred-{n:04d}")))
    records = pipeline.drain_scores()
    assert len(seen) == len(records) >= 2
    assert {r.alert for r in records} == {True, False}
    assert all(size == 3 for _, size in seen)
    assert all(len(cast) == 0 for cast, _ in seen)
