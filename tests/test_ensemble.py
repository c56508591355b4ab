"""Majority voting over detector verdicts."""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta

import pytest

import oracles
from flowdetect.detectors import Score
from flowdetect.engine import Event
from flowdetect.ensemble import majority_vote
from flowdetect import pipeline as pipeline_module
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


def fred_events() -> list[Event]:
    """Four weeks of weekday logons at 9 and 14; a (3, 1, week) window scores from week 3."""
    start = datetime(2010, 1, 4)  # a Monday
    days = [week * 7 + weekday for week in range(4) for weekday in range(5)]
    moments = [start + timedelta(days=day, hours=hour) for day in days for hour in (9, 14)]
    return [
        Event("e", ("fred", when.strftime("%m/%d/%Y %H:%M:%S"), f"fred-{n:04d}"))
        for n, when in enumerate(moments)
    ]


def test_board_cleared_after_any_non_empty_vote(monkeypatch):
    """The user's cast is back to ``()`` after every vote, alerting or not."""
    seen = []

    def alternate(cast):
        seen.append(len(cast))
        return len(seen) % 2 == 0

    monkeypatch.setattr(pipeline_module, "majority_vote", alternate)
    pipeline = Pipeline(PipelineConfig(window=WindowConfig(3, 1, "week")))
    for event in fred_events():
        pipeline.process_event(event)
        assert pipeline.state.instances["fred"].left.env["scores"] == ()
    records = pipeline.drain_scores()
    assert len(seen) == len(records) >= 2
    assert {r.alert for r in records} == {True, False}
    assert seen == [3] * len(records)


def test_a_vote_that_raises_leaves_no_stale_cast(monkeypatch):
    """A vote that raises once leaves the cast empty: later events vote over 3."""
    calls = []

    def flaky(cast):
        calls.append(len(cast))
        if len(calls) == 2:
            raise RuntimeError("vote failed")
        return majority_vote(cast)

    monkeypatch.setattr(pipeline_module, "majority_vote", flaky)
    pipeline = Pipeline(PipelineConfig(window=WindowConfig(3, 1, "week")))
    failed = 0
    for event in fred_events():
        try:
            pipeline.process_event(event)
        except RuntimeError:
            failed += 1
    records = pipeline.drain_scores()
    assert failed == 1 and len(records) == len(calls) - 1 >= 2
    assert [r.cast for r in records] == [3] * len(records)
    assert calls == [3] * len(calls)
