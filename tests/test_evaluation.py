"""Detection-rate and ROC computation against hand-worked examples."""

from __future__ import annotations

import csv
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from flowdetect.errors import InputError
from flowdetect.evaluation import (
    EvalReport,
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


def test_roc_refuses_a_label_that_is_not_0_or_1():
    with pytest.raises(InputError, match="labels must be 0 or 1, got 2"):
        roc_curve([3, 2, 1], [1, 0, 2])
    with pytest.raises(InputError, match="got -1"):
        roc_curve([3, 2, 1], [1, -1, 0])
    assert roc_curve([3, 2, 1], [True, False, 0]) == roc_curve([3, 2, 1], [1, 0, 0])


@pytest.mark.parametrize("values, labels", [
    ([float("nan"), 1.0, 0.5], [1, 0, 1]),
    ([1.0, float("nan"), 0.5], [0, 1, 1]),  # the same pairs in another order
])
def test_roc_refuses_a_nan_value_in_any_order(values, labels):
    # Sorting leaves a NaN where it stood, so its place, and the AUC, would
    # follow the input order: 0.5 for the first order, 0.0 for the second.
    with pytest.raises(InputError, match="values include NaN"):
        roc_curve(values, labels)


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


@pytest.mark.parametrize("label", [3, 2, -1, 0.5, "1"])
def test_evaluate_refuses_a_label_that_is_not_0_or_1(label):
    with pytest.raises(InputError, match=re.escape(f"label of 'E5' must be 0 or 1, got {label!r}")):
        evaluate(FIXTURE, {**LABELS, "E5": label})


def test_evaluate_reads_true_and_false_as_1_and_0():
    as_bools = {key: bool(value) for key, value in LABELS.items()}
    assert evaluate(FIXTURE, as_bools) == evaluate(FIXTURE, LABELS)


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


@pytest.mark.parametrize(
    "alert, votes, raw, field, message",
    [
        ("false", 0, 0.5, "votes", "alert is 'false', not true or false"),
        ("true", 3, 0.5, "votes", "alert is 'true', not true or false"),
        (1, 3, 0.5, "votes", "alert is 1, not true or false"),
        (None, 0, 0.5, "kde", "alert is None, not true or false"),
        (True, "3", 0.5, "votes", "votes is '3', not a number"),
        (True, True, 0.5, "votes", "votes is True, not a number"),
        (False, False, 0.5, "votes", "votes is False, not a number"),
        (False, "inf", 0.5, "votes", "votes is 'inf', not a number"),
        (True, 3, "0.5", "kde", "kde is '0.5', not a number"),
        (True, 3, True, "kde", "kde is True, not a number"),
        (True, 3, 10**400, "kde", "int too large to convert to float"),
    ],
    ids=[
        "alert-text-false", "alert-text-true", "alert-1", "alert-null", "votes-text",
        "votes-true", "votes-false", "votes-text-inf", "raw-text", "raw-true", "raw-huge-int",
    ],
)
def test_evaluate_rejects_a_field_of_the_wrong_json_type(tmp_path, alert, votes, raw, field, message):
    # Truthiness and float() would take each of these as an alert or a value;
    # an integer too large for a float must be malformed, not OverflowError.
    broken = record("E2", alert, votes, {"kde": {"raw": raw, "binary": 1}})
    good = record("E1", False, 0, {"kde": {"raw": 0.1, "binary": 0}})
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps(r) + "\n" for r in (good, broken)))
    with pytest.raises(InputError, match=re.escape(f"score record 2 is malformed: {message}")):
        evaluate(load_scores(str(scores)), {"E1": 0, "E2": 1}, field=field)


def test_evaluate_sweeps_ints_floats_and_infinities_alike():
    records = [
        record("E1", True, 3, {"kde": {"raw": 2, "binary": 1}}),
        record("E2", False, 1.0, {"kde": {"raw": float("-inf"), "binary": 0}}),
        record("E3", True, float("inf"), {"kde": {"raw": 7.5, "binary": 1}}),
        record("E4", False, 0, {"kde": {"raw": -1, "binary": 0}}),
    ]
    labels = {"E1": 1, "E2": 0, "E3": 1, "E4": 0}
    assert evaluate(records, labels).auc == 1.0
    assert evaluate(records, labels, field="kde").auc == 1.0


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
    # A line past the first that opens with a byte-order mark gets json.loads'
    # own message.
    line = '\ufeff{"eventId": "E2"}'
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads(line)
    path.write_text('{"eventId": "E1"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}:2: not valid JSON: {loads_error.value}")):
        load_scores(str(path))


def test_load_scores_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(b'\xef\xbb\xbf{"eventId": "E1"}\n{"eventId": "E2"}\n')
    assert [r["eventId"] for r in load_scores(str(path))] == ["E1", "E2"]


def test_load_scores_skips_blank_lines(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"eventId": "E1"}\n\n{"eventId": "E2"}\n')
    assert [r["eventId"] for r in load_scores(str(path))] == ["E1", "E2"]
    # Whitespace-only lines are blank too, and still count in a line number.
    path.write_text('  {"eventId": "E1"}  \n   \n\t\r\n{"eventId": "E2"}\t\n \n')
    assert [r["eventId"] for r in load_scores(str(path))] == ["E1", "E2"]
    path.write_text('{"eventId": "E1"}\n   \n\t\r\n{"eventId": "E2"}\n \nnot json\n')
    with pytest.raises(InputError, match=re.escape(f"{path}:6: not valid JSON")):
        load_scores(str(path))


# ------------------------------------------------------- scores loader parity

#: Score files, as bytes, on which ``load_scores`` must agree with the
#: ``JSONDecoder.decode`` loader it replaced: the same records or the same
#: message, except on the files in ``SCORE_DEPARTURES``.
SCORE_FILES = {
    "plain": b'{"eventId": "E1"}\n{"eventId": "E2"}\n',
    "no_final_newline": b'{"eventId": "E1"}\n{"eventId": "E2"}',
    "crlf": b'{"eventId": "E1"}\r\n\r\n{"eventId": "E2"}\r\n',
    "lone_cr": b'{"eventId": "E1"}\r{"eventId": "E2"}\r',
    "whitespace_only_lines": b'{"eventId": "E1"}\n \t\r\n\t\n   \n{"eventId": "E2"}\n',
    "padded_lines": b'  {"eventId": "E1"}\t\n\x0c{"eventId": "E2"}\xc2\xa0\n',
    "not_json": b'{"eventId": "E1"}\nnot json\n',
    "extra_data": b'{"a": 1} 2\n',
    "two_objects": b'{}{}\n',
    "comma_list": b"1,2\n",
    "extra_bracket": b"[1]]\n",
    "unterminated_string": b'{"eventId": "E1}\n',
    "unterminated_object": b'{"eventId": "E1"\n',
    "control_character_in_string": b'{"eventId": "E\t1"}\n',
    "byte_order_mark_on_line_3": b'{"a": 1}\n{"a": 2}\n\xef\xbb\xbf{"a": 3}\n',
    "leading_byte_order_mark": b'\xef\xbb\xbf{"a": 1}\n',
    "non_objects": b"3\n[1]\n",
    "scalars": b'"text"\nnull\ntrue\n-0.0\n1e400\n',
    "nan_and_infinities": b'{"a": NaN, "b": Infinity, "c": -Infinity}\n',
    "escapes": b'{"a": "x\\ny\\u00e9", "b": [1, {"c": []}]}\n',
    "empty_file": b"",
    "blank_file": b"\n \n\t\n",
    "not_utf8": b'{"a": 1}\n{"a": "\xff"}\n',
    "deeply_nested": b"[" * 100_000 + b"\n",
}

#: Files on which ``load_scores`` departs from that loader on purpose, and
#: the text of its error after the path.  The loader let the decoder's
#: ``RecursionError`` out, which ended a command with a traceback.
SCORE_DEPARTURES = {
    "deeply_nested": (
        ":1: not valid JSON: maximum recursion depth exceeded"
        " while decoding a JSON array from a unicode string"
    ),
}


def _scores_outcome(load, path):
    try:
        return "records", load(path)
    except (InputError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(SCORE_FILES))
def test_load_scores_matches_the_decode_loader(tmp_path, name):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(SCORE_FILES[name])
    got = _scores_outcome(load_scores, str(path))
    oracle = _scores_outcome(oracles.load_scores_decode, str(path))
    if name in SCORE_DEPARTURES:
        assert oracle[0] == "RecursionError"
        assert got == ("InputError", f"{path}{SCORE_DEPARTURES[name]}")
    else:
        assert repr(got) == repr(oracle)  # repr: NaN records compare unequal


def test_load_scores_parity_cases_reach_each_outcome(tmp_path):
    # The parity table must exercise every path, not only agree on them.
    seen = {}
    for name, content in SCORE_FILES.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(content)
        seen[name] = _scores_outcome(load_scores, str(path))
    ids = [{"eventId": "E1"}, {"eventId": "E2"}]
    for name in ("plain", "no_final_newline", "crlf", "lone_cr"):
        assert seen[name] == ("records", ids), name
    assert seen["whitespace_only_lines"] == seen["padded_lines"] == ("records", ids)
    assert seen["not_json"][1].endswith(":2: not valid JSON: Expecting value: line 1 column 1 (char 0)")
    assert seen["extra_data"][1].endswith(":1: not valid JSON: Extra data: line 1 column 10 (char 9)")
    assert seen["two_objects"][1].endswith(":1: not valid JSON: Extra data: line 1 column 3 (char 2)")
    assert seen["comma_list"][1].endswith(":1: not valid JSON: Extra data: line 1 column 2 (char 1)")
    assert seen["extra_bracket"][1].endswith(":1: not valid JSON: Extra data: line 1 column 4 (char 3)")
    assert seen["unterminated_string"][1].endswith(
        ":1: not valid JSON: Unterminated string starting at: line 1 column 13 (char 12)"
    )
    assert seen["unterminated_object"][1].endswith(
        ":1: not valid JSON: Expecting ',' delimiter: line 1 column 17 (char 16)"
    )
    assert seen["control_character_in_string"][1].endswith(
        ":1: not valid JSON: Invalid control character at: line 1 column 15 (char 14)"
    )
    assert seen["byte_order_mark_on_line_3"][1].endswith(
        ":3: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    )
    assert seen["leading_byte_order_mark"] == ("records", [{"a": 1}])
    assert seen["non_objects"] == ("records", [3, [1]])
    assert seen["scalars"] == ("records", ["text", None, True, -0.0, float("inf")])
    assert seen["empty_file"] == seen["blank_file"] == ("records", [])
    assert ": not valid UTF-8: " in seen["not_utf8"][1]


@pytest.mark.parametrize("line, message", [
    ("3", "'int' object is not subscriptable"),
    ("[1]", "list indices must be integers or slices, not str"),
])
def test_a_score_line_that_is_no_object_loads_and_is_malformed(tmp_path, line, message):
    path = tmp_path / "scores.jsonl"
    path.write_text(json.dumps(record("E1", False, 0)) + "\n" + line + "\n")
    records = load_scores(str(path))
    with pytest.raises(InputError, match=re.escape(f"score record 2 is malformed: {message}")):
        evaluate(records, {"E1": 0})


# ------------------------------------------------ evaluate_files parity

#: Label files for the parity runs: one that labels E1 and E2, one that is
#: refused for its header.
GOOD_LABELS = b"id,label\nE1,0\nE2,1\n"
BAD_LABELS = b"event,flag\nE1,0\n"


def _line(event_id="E1", **fields):
    """One score line with ``fields`` changed; a field set to ``...`` is left out."""
    merged = {**record(event_id, False, 1, {"kde": {"raw": 0.5, "binary": 0}}), **fields}
    return json.dumps({k: v for k, v in merged.items() if v is not ...}).encode() + b"\n"


#: Score and label files that are each broken, or that break two ways at
#: once, so the first error ``evaluate_files`` raises is the one its parts
#: raised in turn.  ``None`` names a file that is not there.
BROKEN_PAIRS = {
    "no_alert_then_bad_json": (_line("E1", alert=...) + b"not json\n", GOOD_LABELS),
    "bad_json_and_no_label_header": (b"not json\n", BAD_LABELS),
    "no_scores_file_and_bad_labels": (None, BAD_LABELS),
    "unlabelled_without_alert": (_line("E1") + _line("E9", alert=...), GOOD_LABELS),
    "unlabelled_then_malformed": (_line("E9") + b"[1]\n", GOOD_LABELS),
    "unlabelled_then_no_event_id": (_line("E9") + _line(eventId=...), GOOD_LABELS),
    "unhashable_event_id": (_line("E1") + _line(["E2"]), GOOD_LABELS),
    "detectors_a_list": (_line("E1") + _line("E2", detectors=[]), GOOD_LABELS),
    "raw_too_large": (_line("E1") + _line("E2", detectors={"kde": {"raw": 10**400}}), GOOD_LABELS),
    "raw_null": (_line("E1") + _line("E2", detectors={"kde": {"raw": None}}), GOOD_LABELS),
    "no_raw_and_alert_text": (
        _line("E1") + _line("E2", alert="true", detectors={"kde": {}}), GOOD_LABELS
    ),
    "sweeps": (_line("E1") + _line("E2", alert=True, votes=3), GOOD_LABELS),
}


def _report_outcome(evaluate_files, scores, labels, field):
    try:
        return "report", evaluate_files(scores, labels, field).to_json()
    except (InputError, OSError) as exc:
        return type(exc).__name__, str(exc)


def _pair_outcomes(tmp_path, scores_bytes, labels_bytes, field):
    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    scores.unlink(missing_ok=True)
    if scores_bytes is not None:
        scores.write_bytes(scores_bytes)
    labels.write_bytes(labels_bytes)
    return [
        _report_outcome(run, str(scores), str(labels), field)
        for run in (evaluate_files, oracles.evaluate_files_reference)
    ]


@pytest.mark.parametrize("field", ["votes", "kde"])
@pytest.mark.parametrize("labels", [GOOD_LABELS, BAD_LABELS], ids=["good_labels", "bad_labels"])
@pytest.mark.parametrize("name", sorted(SCORE_FILES))
def test_evaluate_files_matches_the_loop_over_loaded_scores(tmp_path, name, labels, field):
    got, oracle = _pair_outcomes(tmp_path, SCORE_FILES[name], labels, field)
    assert got == oracle


@pytest.mark.parametrize("field", ["votes", "kde"])
@pytest.mark.parametrize("name", sorted(BROKEN_PAIRS))
def test_evaluate_files_raises_the_first_error_the_loop_raised(tmp_path, name, field):
    got, oracle = _pair_outcomes(tmp_path, *BROKEN_PAIRS[name], field)
    assert got == oracle


def test_evaluate_files_parity_cases_reach_each_outcome(tmp_path):
    # The broken pairs must pin which error comes first, not only agree.
    seen = {
        (name, field): _pair_outcomes(tmp_path, *BROKEN_PAIRS[name], field)[0]
        for name in BROKEN_PAIRS
        for field in ("votes", "kde")
    }
    for field in ("votes", "kde"):
        assert seen["no_alert_then_bad_json", field][1].endswith(":2: not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)")
        assert seen["bad_json_and_no_label_header", field][1].endswith(":1: not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)")
        assert seen["no_scores_file_and_bad_labels", field][0] == "FileNotFoundError"
        assert seen["unlabelled_without_alert", field] == (
            "InputError", "1 scored events have no label (first: E9)")
        assert seen["unlabelled_then_malformed", field] == (
            "InputError", "score record 2 is malformed: list indices must be integers or slices, not str")
        assert seen["unlabelled_then_no_event_id", field] == (
            "InputError", "score record 2 has no 'eventId' field")
        assert seen["unhashable_event_id", field] == (
            "InputError", "score record 2 is malformed: unhashable type: 'list'")
        assert seen["no_raw_and_alert_text", field] == (
            "InputError", "score record 2 is malformed: alert is 'true', not true or false")
    assert seen["detectors_a_list", "kde"] == (
        "InputError", "score record 2 is malformed: 'list' object has no attribute 'get'")
    assert seen["raw_too_large", "kde"] == (
        "InputError", "score record 2 is malformed: int too large to convert to float")
    assert seen["raw_null", "kde"] == ("InputError", "score record 2 is malformed: kde is None, not a number")
    for name in ("detectors_a_list", "raw_too_large", "raw_null", "sweeps"):
        assert seen[name, "votes"][0] == "report", name
    assert seen["sweeps", "kde"][0] == "report"


def test_evaluate_reads_any_iterable_once():
    records = FIXTURE + [
        record("E7", True, 1, {"kde": {"raw": 0.5, "binary": 0}}),
        record("E8", False, 0, {"kde": {"raw": 0.25, "binary": 0}}),
    ]
    labels = {**LABELS, "E7": 1, "E8": 0}
    for field in ("votes", "kde"):
        expected = oracles.evaluate_loop(records, labels, field).to_json()
        assert evaluate(records, labels, field).to_json() == expected
        assert evaluate(iter(records), labels, field).to_json() == expected
        assert evaluate((dict(r) for r in records), labels, field).to_json() == expected


def test_evaluate_files_keeps_no_score_record(tmp_path):
    # A decoded record of a run costs about 2,100 bytes; the three columns
    # and the sweep hold about 300 to 400 per record, labels included.
    count = 20_000
    line = (
        '{"alert": %s, "cast": 3, "detectors": {"kde": {"binary": %d, "raw": %r}, '
        '"kmeans": {"binary": %d, "raw": %r}, "lof": {"binary": %d, "raw": %r}}, '
        '"eventDate": "03/08/2010 14:56:03", "eventId": "E%06d", "userId": "U%04d", "votes": %d}\n'
    )
    rng = np.random.default_rng(7)
    raws = rng.normal(size=(count, 3))
    binaries = (raws > 1.0).astype(int)
    votes = binaries.sum(axis=1)
    anomalous = rng.random(count) < 0.05 + 0.3 * votes
    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    scores.write_text("".join(
        line % ("true" if v >= 2 else "false", b[0], r[0], b[1], r[1], b[2], r[2], i, i % 50, v)
        for i, (r, b, v) in enumerate(zip(raws.tolist(), binaries.tolist(), votes.tolist()))
    ))
    labels.write_text("id,label\n" + "".join(f"E{i:06d},{int(a)}\n" for i, a in enumerate(anomalous.tolist())))
    tracemalloc.start()
    try:
        report = evaluate_files(str(scores), str(labels), "lof")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.alert_count > 0 and len(report.roc_points) > count // 2
    assert peak / count < 600, f"{peak / count:.0f} bytes per record"


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


def test_load_labels_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbfid,label\nE1,0\nE2,1\n")
    assert load_labels(str(path)) == {"E1": 0, "E2": 1}


@pytest.mark.parametrize("content, line", [
    ("label,user,id\n0,U1,E1\n1\n", 3),  # too short to reach the id
    ("label,user,id\n0,U,\n", 2),  # an empty id
], ids=["short_row", "empty_id"])
def test_load_labels_rejects_a_row_without_an_id(tmp_path, content, line):
    path = tmp_path / "labels.csv"
    path.write_text(content)
    with pytest.raises(InputError, match=re.escape(f"{path}:{line}: id is missing")):
        load_labels(str(path))


# ------------------------------------------------------- labels loader parity

#: Label files, as bytes, on which ``load_labels`` must agree with the
#: ``csv.DictReader`` loader it replaced: the same map or the same message,
#: except on the files in ``DEPARTURES``.
LABEL_FILES = {
    "plain": b"id,label\nE1,0\nE2,1\n",
    "crlf": b"id,label\r\nE1,0\r\nE2,1\r\n",
    "crlf_blank_lines": b"id,label\r\n\r\nE1,0\r\n\r\n\r\nE2,1\r\n\r\n",
    "blank_lines": b"id,label\n\nE1,0\n\n\nE2,1\n\n",
    "blank_first_line": b"\nid,label\nE1,0\n",
    "blank_line_before_a_bad_label": b"id,label\nE1,0\n\n\nE2,x\n",
    "blank_line_before_a_repeated_id": b"id,label\r\nE1,0\r\n\r\nE1,1\r\n",
    "quoted_commas_and_newlines": (
        b'id,label,note\n"E,1",0,"a, b"\n"E\n2",1,"x\r\ny"\nE3,1,\n'
    ),
    "quoted_newline_before_a_bad_label": b'id,label\n"E\n1",0\n"E2","2"\n',
    "quoted_header": b'"id","label"\n"E1","1"\n',
    "extra_columns": b"user,id,when,label,extra\nU1,E1,t,0,x\nU2,E2,t,1\n",
    "extra_fields_in_a_row": b"id,label\nE1,0,surplus,more\nE2,1\n",
    "swapped_columns": b"label,id\n0,E1\n1,E2\n",
    "repeated_id_column": b"id,label,id\nA,0,E1\nB,1,E2\n",
    "short_row_under_a_repeated_id": b"id,label,id\nA,0,E1\nB,1\n",
    "two_short_rows_under_a_repeated_id": b"id,label,id\nA,0\nB,1\n",
    "repeated_label_column": b"label,id,label\n1,E1,0\n1,E2\n",
    "short_row": b"id,label\nE1,0\nE2\n",
    "short_row_before_the_id": b"label,user,id\n0,U1,E1\n1\n",
    "bad_label": b"id,label\nE1,1\nE2,yes\n",
    "padded_label": b"id,label\nE1, 1\n",
    "empty_label": b"id,label\nE1,\n",
    "empty_id": b"id,label\n,1\n,0\n",
    "repeated_id": b"id,label\nE1,0\nE2,0\nE1,1\n",
    "empty_file": b"",
    "header_only": b"id,label\n",
    "missing_label_column": b"id,lab\nE1,0\n",
    "byte_order_mark": b"\xef\xbb\xbfid,label\nE1,0\n",
    "not_utf8": b"id,label\nE1,0\nE\xff,1\n",
    "field_over_the_size_limit": b"id,label\nE1,0\nE2," + b"1" * 200_000 + b"\n",
}


#: Files on which ``load_labels`` departs from that loader on purpose, and
#: what it gives instead: a map, or the text of its error after the path.
#: The loader read a byte-order mark into the first column's name, stored
#: a row without an id under ``None`` or ``''``, and let the reader's own
#: ``csv.Error`` out for a row it refuses, with no path or line.
DEPARTURES = {
    "byte_order_mark": ("labels", {"E1": 0}),
    "short_row_under_a_repeated_id": ("InputError", ":3: id is missing"),
    "two_short_rows_under_a_repeated_id": ("InputError", ":2: id is missing"),
    "short_row_before_the_id": ("InputError", ":3: id is missing"),
    "empty_id": ("InputError", ":2: id is missing"),
    "field_over_the_size_limit": ("InputError", ":3: field larger than field limit (131072)"),
}


def _outcome(load, path):
    try:
        return "labels", load(path)
    except (InputError, csv.Error) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(LABEL_FILES))
def test_load_labels_matches_the_dictreader_loader(tmp_path, name):
    path = tmp_path / "labels.csv"
    path.write_bytes(LABEL_FILES[name])
    got = _outcome(load_labels, str(path))
    oracle = _outcome(oracles.load_labels_dictreader, str(path))
    if name in DEPARTURES:
        kind, detail = DEPARTURES[name]
        assert got == (kind, detail if kind == "labels" else f"{path}{detail}") != oracle
    else:
        assert got == oracle


def test_load_labels_parity_cases_reach_each_outcome(tmp_path):
    # The parity table must exercise every path, not only agree on them.
    seen = {}
    for name, content in LABEL_FILES.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(content)
        seen[name] = _outcome(load_labels, str(path))
    assert seen["quoted_commas_and_newlines"] == ("labels", {"E,1": 0, "E\n2": 1, "E3": 1})
    assert seen["repeated_id_column"] == ("labels", {"E1": 0, "E2": 1})
    assert seen["repeated_id"][1].endswith(":4: id 'E1' is labelled twice")
    assert seen["short_row"][1].endswith(":3: label must be 0 or 1, got None")
    assert seen["blank_line_before_a_bad_label"][1].endswith(":5: label must be 0 or 1, got 'x'")
    assert seen["quoted_newline_before_a_bad_label"][1].endswith(":4: label must be 0 or 1, got '2'")
    assert seen["blank_first_line"][1].endswith(": expected columns id,label")
    assert seen["empty_file"][1].endswith(": expected columns id,label")
    assert seen["not_utf8"][1].startswith(str(tmp_path / "not_utf8.csv") + ": not valid UTF-8")
    assert seen["repeated_label_column"][1].endswith(":3: label must be 0 or 1, got None")


# ------------------------------------------------------------ report as JSON

def _dumped(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


#: ROC coordinates, with the two exponent forms ``repr`` gives in [0, 1].
coordinates = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([1e-05, 5e-324, 1 / 3, 0.1, 1.0]),
    st.integers(min_value=-(10**20), max_value=10**20),
)
counts = st.integers(min_value=0, max_value=10**6)
reports = st.builds(
    EvalReport,
    detection_rate=st.floats(min_value=0.0, max_value=1.0),
    roc_points=st.lists(st.tuples(coordinates, coordinates), max_size=20),
    auc=st.floats(),  # NaN and both infinities too
    alert_count=counts,
    tp=counts,
    fp=counts,
    tn=counts,
    fn=counts,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(reports)
@example(EvalReport(0.5, [], float("nan"), 0, 0, 0, 0, 0))
@example(EvalReport(1.0, [(0.0, 0.0), (1e-05, 5e-324), (1, 1)], float("inf"), 1, 1, 0, 0, 0))
@example(EvalReport(0.0, [(float("-inf"), float("inf")), (float("nan"), True)], -0.0, 2, 0, 1, 1, 0))
def test_to_json_is_json_dumps_of_to_dict(report):
    assert report.to_json() == _dumped(report)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.floats(allow_nan=False), st.sampled_from([0, 1])), min_size=2, max_size=60,
).filter(lambda pairs: len({label for _, label in pairs}) == 2))
def test_to_json_is_json_dumps_for_any_roc_curve(pairs):
    points, auc = roc_curve([value for value, _ in pairs], [label for _, label in pairs])
    report = EvalReport(0.5, points, auc, 1, 1, 1, 1, 1)
    assert report.to_json() == _dumped(report)
