"""Tests of the benchmark's own checkers and statistics.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import random
import statistics
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def brute_force_auc(values, labels):
    pos = [v for v, y in zip(values, labels) if y == 1]
    neg = [v for v, y in zip(values, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(40))
def test_mann_whitney_matches_pairwise_count(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    values = [float(rng.randint(0, 6)) if seed % 2 else rng.random() for _ in range(n)]
    labels = [1, 0] + [rng.randint(0, 1) for _ in range(n - 2)]
    assert checks.mann_whitney_auc(values, labels) == pytest.approx(
        brute_force_auc(values, labels), abs=1e-12
    )


@pytest.mark.parametrize("seed", range(20))
def test_quantile_matches_inclusive_quartiles(seed):
    rng = random.Random(seed)
    values = [rng.random() for _ in range(rng.randint(2, 50))]
    expected = statistics.quantiles(values, n=4, method="inclusive")
    got = [checks.quantile(values, q) for q in (0.25, 0.5, 0.75)]
    assert got == pytest.approx(expected, rel=1e-12)
    assert checks.quantile(values, 0.0) == min(values)
    assert checks.quantile(values, 1.0) == max(values)


def test_quantile_of_one_and_of_none():
    assert checks.quantile([7.0], 0.999) == 7.0
    with pytest.raises(ValueError):
        checks.quantile([], 0.5)


def _weekly_log(weeks: int, per_week: int = 3, user: str = "U1"):
    start = datetime(2010, 1, 4, 9, 0)
    rows = []
    for week in range(weeks):
        for i in range(per_week):
            when = start + timedelta(weeks=week, days=i)
            rows.append({"id": f"E{len(rows):03d}", "date": when.strftime(checks.DATE_FORMAT), "user": user})
    return rows


def test_week_window_replay_by_hand():
    # 3 events a week: the window fills on week 10's first event but holds
    # 28 samples; the first event of week 11 sees 30 and retrains.  Week 15
    # slides back to 10 weeks and 28 samples, so week 16 retrains again.
    rows = _weekly_log(16)
    retrains, scored, first = checks.replay_week_windows(rows)
    assert retrains == 2
    assert first == {"U1": rows[30]["id"]}
    assert scored == [r["id"] for r in rows[30:]]


def test_week_codes_follow_iso_years():
    assert checks.week_code(datetime(2010, 1, 3)) == 200953
    assert checks.week_code(datetime(2010, 1, 4)) == 201001


def test_training_data_groups_minutes_by_week():
    rows = _weekly_log(2, per_week=2)
    assert checks.training_data(rows) == {"U1": {201001: [540, 540], 201002: [540, 540]}}


def test_log_counts_separates_malformed_and_unparseable_rows():
    rows = _weekly_log(1, per_week=2)
    rows.append({"id": "", "date": "01/04/2010 10:00:00", "user": "U2"})
    rows.append({"id": "X", "date": "not a date", "user": "U2"})
    assert checks.log_counts(rows) == {
        "events": 2, "users": 1, "skipped_dates": 1, "malformed_rows": 1, "filtered_rows": 0,
    }


def _record(event_id, binaries, alert=None):
    votes = sum(binaries)
    return {
        "eventId": event_id,
        "userId": "U1",
        "votes": votes,
        "cast": len(binaries),
        "alert": votes > len(binaries) // 2 if alert is None else alert,
        "detectors": {f"d{i}": {"binary": b, "raw": float(b)} for i, b in enumerate(binaries)},
    }


def test_check_votes_finds_a_wrong_alert_and_a_missing_alert_line():
    scores = [_record("E1", [1, 1, 0]), _record("E2", [1, 0, 0])]
    alerts = [{"eventId": "E1"}]
    assert checks.check_votes(scores, alerts) == []
    assert checks.check_votes(scores, []) != []
    scores[1]["alert"] = True
    assert checks.check_votes(scores, [{"eventId": "E1"}, {"eventId": "E2"}]) != []


def test_week_window_replay_agrees_with_the_pipeline():
    from flowdetect import Event, Pipeline, synth

    events = synth.generate(3, 17, 0.05, seed=4)
    rows = [
        {"id": e.event_id, "date": e.when.strftime(checks.DATE_FORMAT), "user": e.user}
        for e in events
    ]
    pipeline = Pipeline()
    for row in rows:
        pipeline.process_event(Event("e", (row["user"], row["date"], row["id"])))
    scored = [s.event_id for s in pipeline.drain_scores()]
    retrains, expected, _ = checks.replay_week_windows(rows)
    assert pipeline.counters.retrains == 3 * retrains
    assert scored == expected


def test_check_report_accepts_evaluate_and_rejects_a_wrong_auc():
    from flowdetect.evaluation import evaluate

    rng = random.Random(5)
    records = [_record(f"E{i}", [rng.randint(0, 1) for _ in range(3)]) for i in range(60)]
    for r in records:
        r["detectors"]["d0"]["raw"] = rng.random()
    labels = {r["eventId"]: rng.randint(0, 1) for r in records}
    for field in ("votes", "d0"):
        report = evaluate(records, labels, field).to_dict()
        assert checks.check_report(report, records, labels, field) == []
        report["auc"] += 1e-6
        assert checks.check_report(report, records, labels, field) != []


def test_speedometer_scales_each_chunk_by_its_neighbours(monkeypatch):
    import speed

    nominal, slow = speed.NOMINAL_NS, 2 * speed.NOMINAL_NS
    loops = iter([nominal, nominal, slow, slow])
    monkeypatch.setattr(speed, "reference", lambda: next(loops))
    meter = speed.Speedometer(reach=1)
    meter.sample()  # no chunk open yet: nothing to close
    meter.sample()
    meter.sample()
    meter.stop()
    meter.sample()
    meter.discard()
    assert meter.samples == [nominal, nominal, slow, slow]
    assert [before for _, before in meter.chunks] == [1, 2, 3]
    # Between two nominal samples a chunk keeps its time; between a nominal
    # and a slow one it takes two thirds; between two slow ones, half.
    assert meter.factor(1) == 1.0
    assert meter.factor(2) == pytest.approx(2 / 3)
    assert meter.factor(3) == 0.5
    meter.chunks = [(900, 1), (900, 2), (900, 3)]  # fixed CPU times in place of measured ones
    assert meter.cpu_ns() == 2700
    assert meter.scaled_ns() == pytest.approx(900 + 600 + 450)
    assert meter.scaled_ns([(600, 3)]) == pytest.approx(300)
