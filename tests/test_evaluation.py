"""Detection-rate and ROC computation against hand-worked examples."""

from __future__ import annotations

import json
import random
import re

import pytest

from flowdetect.errors import InputError
from flowdetect.evaluation import (
    evaluate,
    evaluate_files,
    load_labels,
    load_scores,
    roc_curve,
)


def record(event_id, alert, votes, detectors=None):
    return {
        "eventId": event_id,
        "userId": "u",
        "eventDate": "01/04/2010 08:00:00",
        "votes": votes,
        "cast": 3,
        "alert": alert,
        "detectors": detectors or {},
    }


# ------------------------------------------------------------------------ roc

def test_roc_perfect_separation():
    points, auc = roc_curve([3.0, 1.0, 2.0, 0.0], [1, 0, 1, 0])
    assert points == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]
    assert auc == pytest.approx(1.0)


def test_roc_inverted_separation():
    _, auc = roc_curve([3.0, 1.0, 2.0, 0.0], [0, 1, 0, 1])
    assert auc == pytest.approx(0.0)


def test_roc_with_tied_scores():
    points, auc = roc_curve([1.0, 1.0, 0.0, 0.0], [1, 0, 1, 0])
    assert points == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]
    assert auc == pytest.approx(0.5)


def test_roc_endpoints_always_present():
    points, _ = roc_curve([0.4, 0.6, 0.1], [1, 1, 0])
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_roc_requires_both_classes():
    with pytest.raises(InputError):
        roc_curve([1.0, 2.0], [1, 1])
    with pytest.raises(InputError):
        roc_curve([1.0, 2.0], [0, 0])
    with pytest.raises(InputError):
        roc_curve([1.0], [0, 1])


def test_roc_random_scores_near_half():
    rng = random.Random(1234)
    values = [rng.random() for _ in range(2000)]
    labels = [rng.random() < 0.3 for _ in range(2000)]
    _, auc = roc_curve(values, [int(b) for b in labels])
    assert auc == pytest.approx(0.5, abs=0.05)


# ------------------------------------------------------------------- evaluate

FIXTURE = [
    record("E1", True, 3),
    record("E2", True, 2),
    record("E3", False, 1),
    record("E4", False, 0),
    record("E5", True, 2),
    record("E6", False, 0),
]
LABELS = {"E1": 1, "E2": 0, "E3": 1, "E4": 0, "E5": 1, "E6": 0}


def test_evaluate_confusion_and_rate():
    report = evaluate(FIXTURE, LABELS)
    assert (report.tp, report.fp, report.tn, report.fn) == (2, 1, 2, 1)
    assert report.detection_rate == pytest.approx(2 / 3)
    assert report.alert_count == 3
    assert report.roc_points[0] == (0.0, 0.0)
    assert report.roc_points[-1] == (1.0, 1.0)
    d = report.to_dict()
    assert d["confusion"] == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}


def test_evaluate_sweeps_detector_raw_scores():
    records = [
        record("E1", True, 2, {"kde": {"raw": 9.0, "binary": 1}}),
        record("E2", False, 0, {"kde": {"raw": 0.5, "binary": 0}}),
        record("E3", False, 0, {}),  # kde cast no vote here: excluded
        record("E4", False, 1, {"kde": {"raw": 0.1, "binary": 0}}),
        record("E5", True, 3, {"kde": {"raw": float("inf"), "binary": 1}}),  # infinities are kept
        record("E6", False, 0, {"kde": {"raw": float("-inf"), "binary": 0}}),
    ]
    labels = {"E1": 1, "E2": 0, "E3": 1, "E4": 0, "E5": 1, "E6": 0}
    report = evaluate(records, labels, field="kde")
    assert report.auc == pytest.approx(1.0)  # 9.0 and inf separate cleanly


def test_evaluate_rejects_unlabelled_events():
    with pytest.raises(InputError, match="E9"):
        evaluate([record("E9", False, 0)], {"E1": 0})


def test_evaluate_rejects_empty_field():
    with pytest.raises(InputError):
        evaluate(FIXTURE, LABELS, field="lof")


def test_evaluate_zero_positives_rate():
    records = [record("E1", False, 0), record("E2", True, 3)]
    with pytest.raises(InputError):  # ROC impossible with one class
        evaluate(records, {"E1": 0, "E2": 0})


@pytest.mark.parametrize("missing", ["eventId", "alert", "votes"])
def test_evaluate_rejects_records_missing_a_field(missing):
    broken = record("E2", True, 3)
    del broken[missing]
    with pytest.raises(InputError, match=f"score record 2 has no '{missing}' field"):
        evaluate([record("E1", False, 0), broken], {"E1": 0, "E2": 1})


@pytest.mark.parametrize("field", ["votes", "kde"])
def test_evaluate_rejects_a_nan_score(tmp_path, field):
    # ``json`` reads and writes NaN, which would rank by record order.
    nan = float("nan")
    broken = record("E2", True, nan, {"kde": {"raw": nan, "binary": 1}})
    good = record("E1", False, 0, {"kde": {"raw": 0.5, "binary": 0}})
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps(r) + "\n" for r in (good, broken)))
    with pytest.raises(InputError, match=f"score record 2 is malformed: {field} is NaN"):
        evaluate(load_scores(str(scores)), {"E1": 0, "E2": 1}, field=field)


# ----------------------------------------------------------------- file round

def test_evaluate_files_roundtrip(tmp_path):
    scores = tmp_path / "scores.jsonl"
    labels = tmp_path / "labels.csv"
    scores.write_text("".join(json.dumps(r) + "\n" for r in FIXTURE))
    labels.write_text("id,label\n" + "".join(f"E{i},{LABELS[f'E{i}']}\n" for i in range(1, 7)))
    report = evaluate_files(str(scores), str(labels))
    assert report.detection_rate == pytest.approx(2 / 3)


def test_load_scores_reports_bad_line(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"eventId": "E1"}\nnot json\n')
    with pytest.raises(InputError, match=":2"):
        load_scores(str(path))


def test_load_scores_skips_blank_lines(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"eventId": "E1"}\n\n{"eventId": "E2"}\n')
    assert [r["eventId"] for r in load_scores(str(path))] == ["E1", "E2"]


def test_load_labels_requires_header(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("event,flag\nE1,0\n")
    with pytest.raises(InputError):
        load_labels(str(path))
    path.write_text("id,label\nE1,1\nE2,0\n")
    assert load_labels(str(path)) == {"E1": 1, "E2": 0}


def test_load_labels_rejects_a_repeated_id(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,label\nE1,0\nE2,0\nE1,1\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:4: id 'E1' is labelled twice")):
        load_labels(str(path))


def test_load_labels_rejects_a_label_that_is_not_0_or_1(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,label\nE1,1\nE2,yes\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: label must be 0 or 1, got 'yes'")):
        load_labels(str(path))
