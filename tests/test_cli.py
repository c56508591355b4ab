"""Command line surface: synth, run, evaluate, dump-state."""

from __future__ import annotations

import gc
import json
import statistics
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from flowdetect import cli, synth
from flowdetect.cli import IngestStats, build_parser, ingest, main
from flowdetect.errors import ConfigurationError, InputError
from flowdetect.pipeline import PipelineConfig
from flowdetect.windowing import WindowConfig

RUN_SUMMARY_KEYS = (
    "events", "users", "alerts", "retrains",
    "skipped_dates", "malformed_rows", "filtered_rows", "stale_drops",
)


def parse_summary(line: str) -> dict[str, int]:
    return {k: int(v) for k, v in (part.split("=") for part in line.split())}


# ----------------------------------------------------------------------- synth

def test_synth_is_deterministic_per_seed():
    a = synth.generate(5, 6, 0.05, seed=42)
    b = synth.generate(5, 6, 0.05, seed=42)
    assert a == b
    c = synth.generate(5, 6, 0.05, seed=43)
    assert a != c


def test_synth_event_ids_sequential_and_sorted():
    events = synth.generate(5, 6, 0.05, seed=1)
    assert [e.event_id for e in events] == sorted(e.event_id for e in events)
    assert all(x.when <= y.when for x, y in zip(events, events[1:]))
    assert len({e.event_id for e in events}) == len(events)


def test_synth_anomaly_rate_close_to_requested():
    events = synth.generate(20, 10, 0.05, seed=5)
    fraction = sum(e.label for e in events) / len(events)
    assert 0.03 < fraction < 0.07


def test_synth_rate_zero_means_no_anomalies():
    events = synth.generate(3, 4, 0.0, seed=0)
    assert all(e.label == 0 for e in events)


def test_synth_anomalies_live_in_a_late_episode():
    events = synth.generate(8, 12, 0.05, seed=2)
    start = synth.DEFAULT_START
    for event in events:
        if event.label:
            week = (event.when.date() - start).days // 7
            assert week >= 6  # second half of a 12-week stream
            assert event.when.hour < 5


def test_synth_shift_profile_moves_second_half():
    def half_deltas(profile):
        events = synth.generate(12, 12, 0.0, seed=9, profile=profile)
        deltas = []
        for user in {e.user for e in events}:
            mine = [e for e in events if e.user == user]
            early = [e.when.hour + e.when.minute / 60 for e in mine if e.when < synth_mid]
            late = [e.when.hour + e.when.minute / 60 for e in mine if e.when >= synth_mid]
            deltas.append(statistics.mean(late) - statistics.mean(early))
        return statistics.mean(deltas)

    from datetime import datetime, timedelta

    synth_mid = datetime.combine(synth.DEFAULT_START + timedelta(weeks=6), datetime.min.time())
    assert half_deltas("shift") > 1.5
    assert abs(half_deltas("static")) < 0.75


def test_synth_argument_validation():
    with pytest.raises(ConfigurationError):
        synth.generate(0, 5, 0.05, seed=0)
    with pytest.raises(ConfigurationError):
        synth.generate(5, 5, 1.0, seed=0)
    with pytest.raises(ConfigurationError):
        synth.generate(5, 5, 0.05, seed=0, profile="bogus")
    for bad in (
        {"n_users": 2.5},
        {"n_users": True},
        {"n_weeks": 1.5},
        {"n_weeks": True},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "1"},
    ):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            synth.generate(**{"n_users": 2, "n_weeks": 1, "anomaly_rate": 0.0, "seed": 0, **bad})
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        synth.generate(2, 1, 0.0, seed=-1)
    for bad in ("x", None, True, [0.1]):
        with pytest.raises(ConfigurationError, match="anomaly_rate must be a number"):
            synth.generate(2, 1, bad, seed=0)
    with pytest.raises(ConfigurationError, match=r"anomaly_rate must be in \[0, 1\)"):
        synth.generate(2, 1, float("nan"), seed=0)
    assert synth.generate(2, 1, Fraction(1, 20), seed=0) == synth.generate(2, 1, 0.05, seed=0)


def test_synth_refuses_a_negative_seed_before_it_writes(tmp_path, capsys):
    events, labels = tmp_path / "events.csv", tmp_path / "labels.csv"
    argv = ["synth", "--seed", "-1", "--events-out", str(events), "--labels-out", str(labels)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"
    assert list(tmp_path.iterdir()) == []


def test_synth_files(tmp_path):
    events = synth.generate(3, 4, 0.1, seed=7)
    events_path = tmp_path / "events.csv"
    labels_path = tmp_path / "labels.csv"
    assert synth.write_events(events, str(events_path)) == len(events)
    assert synth.write_labels(events, str(labels_path)) == len(events)
    header = events_path.read_text().splitlines()[0]
    assert header == "id,date,user,pc,activity"
    assert labels_path.read_text().splitlines()[0] == "id,label"


# ---------------------------------------------------------------------- ingest

def test_ingest_counts_malformed_and_filtered(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        "E2,01/04/2010 09:00:00,,PC-1,Logon\n"       # no user
        "E3,,alice,PC-1,Logon\n"                     # no date
        "E4,01/04/2010 10:00:00,alice,PC-1,Email\n"  # filtered
    )
    stats = IngestStats()
    events = list(ingest(str(path), activity_filter="Logon", stats=stats))
    assert [e.args[2] for e in events] == ["E1"]
    assert (stats.rows, stats.malformed, stats.filtered) == (4, 2, 1)


def test_ingest_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,who\n2010,alice\n")
    with pytest.raises(InputError):
        list(ingest(str(path)))


def test_ingest_reads_past_a_byte_order_mark(tmp_path):
    path = tmp_path / "log.csv"
    path.write_bytes(b"\xef\xbb\xbfid,date,user,pc,activity\nE1,01/04/2010 08:00:00,alice,PC-1,Logon\n")
    assert [e.args for e in ingest(str(path))] == [("alice", "01/04/2010 08:00:00", "E1")]


def test_ingest_header_errors_name_what_was_found(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputError, match=r"expected columns id,date,user,pc,activity, got None$"):
        list(ingest(str(empty)))
    blank = tmp_path / "blank.csv"
    blank.write_text("\nid,date,user,pc,activity\n")
    with pytest.raises(InputError, match=r"got \[\]$"):
        list(ingest(str(blank)))
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("timestamp,who\n")
    with pytest.raises(InputError, match=r"got \['timestamp', 'who'\]$"):
        list(ingest(str(wrong)))


def test_ingest_skips_blank_lines_without_counting_them(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        "\n"
        "\n"
        "E2,01/04/2010 09:00:00,alice,PC-1,Logon\n"
        "\n"
    )
    stats = IngestStats()
    events = list(ingest(str(path), stats=stats))
    assert [e.args[2] for e in events] == ["E1", "E2"]
    assert (stats.rows, stats.malformed, stats.filtered) == (2, 0, 0)


def test_ingest_short_rows(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00\n"               # no user column: malformed
        "E2,01/04/2010 09:00:00,alice\n"         # no activity column
        "E3\n"
    )
    stats = IngestStats()
    events = list(ingest(str(path), stats=stats))
    assert [e.args for e in events] == [("alice", "01/04/2010 09:00:00", "E2")]
    assert (stats.rows, stats.malformed, stats.filtered) == (3, 2, 0)
    stats = IngestStats()
    assert list(ingest(str(path), activity_filter="Logon", stats=stats)) == []
    assert (stats.rows, stats.malformed, stats.filtered) == (3, 2, 1)


def test_ingest_duplicated_header_name_reads_its_last_column(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "user,id,date,user,pc,activity\n"
        "alice,E1,01/04/2010 08:00:00,bob,PC-1,Logon\n"
        "alice,E2,01/04/2010 09:00:00\n"       # the last user column is missing
    )
    stats = IngestStats()
    events = list(ingest(str(path), stats=stats))
    assert [e.args for e in events] == [("bob", "01/04/2010 08:00:00", "E1")]
    assert (stats.rows, stats.malformed, stats.filtered) == (2, 1, 0)


def test_ingest_refuses_a_row_the_reader_refuses(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        f"E2,01/04/2010 09:00:00,alice,PC-1,{'x' * 200_000}\n"  # over the field limit
        "E3,01/04/2010 10:00:00,alice,PC-1,Logon\n"
    )
    stats = IngestStats()
    events = ingest(str(path), stats=stats)
    assert next(events).args[2] == "E1"
    with pytest.raises(InputError, match=r"log\.csv:3: field larger than field limit"):
        next(events)
    assert (stats.rows, stats.malformed, stats.filtered) == (1, 0, 0)


def test_ingest_reads_no_row_out_of_a_refused_quoted_field(tmp_path):
    # The reader gives up inside the quoted field; its text after the next
    # line break must not be read as a row of its own.
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        f'E2,01/04/2010 09:00:00,alice,PC-1,"{"x" * 200_000}\n'
        "E9,01/04/2010 11:00:00,mallory,PC-1,Logon\n"
        '"\n'
    )
    seen = []
    with pytest.raises(InputError, match="field larger than field limit"):
        for event in ingest(str(path)):
            seen.append(event.args[2])
    assert seen == ["E1"]


def test_ingest_refuses_a_header_the_reader_refuses(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(f"id,date,user,pc,activity,{'x' * 200_000}\n")
    with pytest.raises(InputError, match=r"log\.csv:1: field larger than field limit"):
        ingest(str(path))


def test_ingest_checks_the_header_when_called(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,who\n")
    with pytest.raises(InputError, match="expected columns"):
        ingest(str(path))
    with pytest.raises(FileNotFoundError):
        ingest(str(tmp_path / "nowhere.csv"))


# ------------------------------------------------------------------- commands

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic corpus plus a 3-week window config."""
    root = tmp_path_factory.mktemp("corpus")
    events = root / "events.csv"
    labels = root / "labels.csv"
    code = main([
        "synth", "--users", "4", "--weeks", "12", "--rate", "0.05",
        "--seed", "11", "--events-out", str(events), "--labels-out", str(labels),
    ])
    assert code == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "window_parameters": {"window_size": 3, "sliding_size": 1, "type": "week"},
    }))
    return {"events": events, "labels": labels, "config": config, "root": root}


def test_run_writes_alerts_and_scores(corpus, tmp_path, capsys):
    alerts = tmp_path / "alerts.jsonl"
    scores = tmp_path / "scores.jsonl"
    code = main([
        "run", "--input", str(corpus["events"]), "--config", str(corpus["config"]),
        "--alerts-out", str(alerts), "--scores-out", str(scores),
    ])
    assert code == 0
    summary = parse_summary(capsys.readouterr().out.strip())
    assert tuple(summary) == RUN_SUMMARY_KEYS
    assert summary["users"] == 4
    assert summary["events"] > 0
    assert summary["retrains"] % 3 == 0  # three detectors fit in lockstep

    score_lines = scores.read_text().splitlines()
    assert len(score_lines) > 0
    first = json.loads(score_lines[0])
    assert set(first) == {"alert", "cast", "detectors", "eventDate", "eventId", "userId", "votes"}

    alert_lines = alerts.read_text().splitlines()
    assert len(alert_lines) == summary["alerts"] > 0
    assert set(json.loads(alert_lines[0])) == {"eventDate", "eventId", "userId", "votes"}
    # the alert lines are the alerting score lines, in order, cut to four fields
    alerting = [
        {key: record[key] for key in ("eventId", "userId", "eventDate", "votes")}
        for record in map(json.loads, score_lines)
        if record["alert"]
    ]
    assert [json.loads(line) for line in alert_lines] == alerting


def test_run_outputs_are_byte_identical(corpus, tmp_path, capsys):
    outs = []
    for tag in ("one", "two"):
        alerts = tmp_path / f"alerts-{tag}.jsonl"
        scores = tmp_path / f"scores-{tag}.jsonl"
        assert main([
            "run", "--input", str(corpus["events"]), "--config", str(corpus["config"]),
            "--alerts-out", str(alerts), "--scores-out", str(scores),
        ]) == 0
        outs.append((alerts.read_bytes(), scores.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_run_closes_its_alerts_file_when_the_scores_file_cannot_open(corpus, tmp_path, capsys):
    alerts = tmp_path / "alerts.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code = main([
            "run", "--input", str(corpus["events"]), "--alerts-out", str(alerts),
            "--scores-out", str(tmp_path / "missing" / "scores.jsonl"),
        ])
        gc.collect()
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_run_then_evaluate(corpus, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    assert main([
        "run", "--input", str(corpus["events"]), "--config", str(corpus["config"]),
        "--scores-out", str(scores),
    ]) == 0
    capsys.readouterr()
    assert main([
        "evaluate", "--input", str(scores), "--labels", str(corpus["labels"]),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"auc", "detection_rate", "confusion", "roc_points", "alert_count"}
    assert 0.0 <= report["detection_rate"] <= 1.0
    assert 0.0 <= report["auc"] <= 1.0

    # sweeping one detector's raw score also works
    assert main([
        "evaluate", "--input", str(scores), "--labels", str(corpus["labels"]),
        "--field", "kmeans",
    ]) == 0
    by_kmeans = json.loads(capsys.readouterr().out)
    assert 0.0 <= by_kmeans["auc"] <= 1.0


def test_the_readme_round_trip_prints_the_summary_it_shows(tmp_path, monkeypatch, capsys):
    """README's "Command line" block: its synth and run arguments print its summary line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    synth_argv, run_argv = (
        next(line for line in lines if line.startswith(f"flowdetect {name} ")).split()[1:]
        for name in ("synth", "run")
    )
    shown = next(line for line in lines if line.startswith("# events="))
    assert shown.endswith(" ...")
    monkeypatch.chdir(tmp_path)  # the block names its files relative to where it runs
    assert main(synth_argv) == 0
    capsys.readouterr()
    assert main(run_argv) == 0
    assert capsys.readouterr().out.startswith(shown.removeprefix("# ").removesuffix("..."))


def test_evaluate_unlabelled_event_fails(corpus, tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({
        "eventId": "GHOST", "userId": "u", "eventDate": "d",
        "votes": 0, "cast": 1, "alert": False, "detectors": {},
    }) + "\n")
    code = main(["evaluate", "--input", str(scores), "--labels", str(corpus["labels"])])
    assert code == 2
    assert "GHOST" in capsys.readouterr().err


def test_dump_state_is_deterministic(corpus, tmp_path, capsys):
    dumps = []
    for tag in ("one", "two"):
        out = tmp_path / f"state-{tag}.json"
        assert main([
            "dump-state", "--input", str(corpus["events"]),
            "--config", str(corpus["config"]), "--out", str(out),
        ]) == 0
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]
    state = json.loads(dumps[0])
    assert state["kind"] == "quantified_interleave"
    assert len(state["instances"]) == 4
    capsys.readouterr()


def test_dump_state_prints_when_no_out(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
    )
    assert main(["dump-state", "--input", str(path)]) == 0
    state = json.loads(capsys.readouterr().out)
    assert list(state["instances"]) == ["alice"]


def test_run_date_format_override(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,04.01.2010 08:00,alice,PC-1,Logon\n"
        "E2,04.01.2010 09:00,alice,PC-1,Logon\n"
    )
    assert main(["run", "--input", str(path)]) == 0
    skipped = parse_summary(capsys.readouterr().out.strip())
    assert skipped["skipped_dates"] == 2  # neither default nor ISO layout

    assert main(["run", "--input", str(path), "--date-format", "%d.%m.%Y %H:%M"]) == 0
    processed = parse_summary(capsys.readouterr().out.strip())
    assert processed["events"] == 2
    assert processed["skipped_dates"] == 0


# The last five parse their own output but lose a field of it: a log would
# run to exit 0 with every row in skipped_dates, or with every afternoon
# read as the morning.
@pytest.mark.parametrize(
    "date_format", ["%Q", "%", "", "x", "%H:%M", "%Y-%m-%d", "%d.%m.%Y %I:%M"]
)
def test_run_rejects_a_date_format_that_cannot_parse(date_format, tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text("id,date,user,pc,activity\nE1,04.01.2010 08:00,alice,PC-1,Logon\n")
    assert main(["run", "--input", str(path), "--date-format", date_format]) == 2
    assert capsys.readouterr().err.startswith(f"error: date_format {date_format!r} ")
    assert main(["run", "--input", str(path), "--date-format", "%d.%m.%Y %H:%M"]) == 0
    assert parse_summary(capsys.readouterr().out.strip())["events"] == 1


def test_run_activity_filter_flag(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        "E2,01/04/2010 09:00:00,alice,PC-1,Email\n"
    )
    assert main(["run", "--input", str(path), "--activity-filter", "Logon"]) == 0
    summary = parse_summary(capsys.readouterr().out.strip())
    assert summary["events"] == 1
    assert summary["filtered_rows"] == 1


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("activity_filter", "", {"events": 1, "filtered_rows": 1, "skipped_dates": 0}),
        ("date_format", "", {"error": "error: date_format '' does not carry a timestamp's date"}),
        ("date_format", "%Y-%m-%dT%H:%M:%S", {"events": 1, "filtered_rows": 0, "skipped_dates": 1}),
    ],
)
def test_a_flag_applies_as_its_config_key_does(key, value, expected, tmp_path, capsys):
    # An empty flag is a value, not an absent flag: "" keeps only rows with
    # no activity, and as a date format it is refused, as it carries no field.
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        "E2,2010-01-04T09:00:00,alice,PC-1,\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    refused = "error" in expected
    lines = []
    for extra in (["--config", str(config)], [flag, value]):
        assert main(["run", "--input", str(path), *extra]) == (2 if refused else 0)
        out, err = capsys.readouterr()
        lines.append((err if refused else out).strip())
    assert lines[0] == lines[1]
    if refused:
        assert lines[0].startswith(expected["error"])
        return
    summary = parse_summary(lines[0])
    assert {name: summary[name] for name in expected} == expected


def test_run_reports_late_events_dropped_after_eviction(tmp_path, capsys):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,01/04/2010 08:00:00,alice,PC-1,Logon\n"
        "E2,01/05/2010 08:00:00,alice,PC-1,Logon\n"  # slides 01/04 out
        "E3,01/04/2010 09:00:00,alice,PC-1,Logon\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "window_parameters": {"window_size": 1, "sliding_size": 1, "type": "day"},
    }))
    assert main(["run", "--input", str(path), "--config", str(config)]) == 0
    summary = parse_summary(capsys.readouterr().out.strip())
    assert summary["events"] == 3
    assert summary["stale_drops"] == 1


def test_bad_header_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    assert main(["run", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "bad_header"])
def test_a_run_that_cannot_read_its_input_leaves_old_outputs_alone(tmp_path, capsys, case):
    path = tmp_path / "log.csv"
    if case == "bad_header":
        path.write_text("a,b\n1,2\n")
    alerts, scores = tmp_path / "alerts.jsonl", tmp_path / "scores.jsonl"
    alerts.write_bytes(b'{"old": 1}\n')
    scores.write_bytes(b'{"old": 2}\n')
    argv = ["run", "--input", str(path), "--alerts-out", str(alerts), "--scores-out", str(scores)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert alerts.read_bytes() == b'{"old": 1}\n'
    assert scores.read_bytes() == b'{"old": 2}\n'


@pytest.mark.parametrize("case", ["missing", "bad_header"])
def test_a_dump_that_cannot_read_its_input_leaves_an_old_out_alone(tmp_path, capsys, case):
    path = tmp_path / "log.csv"
    if case == "bad_header":
        path.write_text("a,b\n1,2\n")
    state = tmp_path / "state.json"
    state.write_bytes(b'{"old": 1}\n')
    assert main(["dump-state", "--input", str(path), "--out", str(state)]) == 2
    assert "error:" in capsys.readouterr().err
    assert state.read_bytes() == b'{"old": 1}\n'


def test_dump_state_opens_its_out_before_the_first_event(corpus, tmp_path, monkeypatch, capsys):
    stepped = []
    process_event = cli.Pipeline.process_event

    def counted(self, event):
        stepped.append(event)
        return process_event(self, event)

    monkeypatch.setattr(cli.Pipeline, "process_event", counted)
    argv = ["dump-state", "--input", str(corpus["events"]), "--out"]
    assert main([*argv, str(tmp_path / "nowhere" / "state.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert stepped == []
    assert main([*argv, str(tmp_path / "state.json")]) == 0
    assert stepped != []


@pytest.mark.parametrize("case, flags, clash", [
    ("input_as_output", ["--scores-out", "log.csv"], "--scores-out log.csv names the same file as --input"),
    ("dot_slash", ["--alerts-out", "./log.csv"], "--alerts-out ./log.csv names the same file as --input"),
    ("symlink", ["--scores-out", "link.csv"], "--scores-out link.csv names the same file as --input"),
    ("hard_link", ["--alerts-out", "hard.csv"], "--alerts-out hard.csv names the same file as --input"),
    (
        "two_new_outputs",
        ["--alerts-out", "out.jsonl", "--scores-out", "sub/../out.jsonl"],
        "--scores-out sub/../out.jsonl names the same file as --alerts-out",
    ),
    (
        "two_old_outputs",
        ["--alerts-out", "old.jsonl", "--scores-out", "./old.jsonl"],
        "--scores-out ./old.jsonl names the same file as --alerts-out",
    ),
])
def test_run_refuses_an_output_that_names_the_input_or_the_other(
    tmp_path, monkeypatch, capsys, case, flags, clash
):
    # Opening such an output would empty the input, or write two streams
    # into one file; every file must stay as it was, and none be made.
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "log.csv"
    log.write_text("id,date,user,pc,activity\nE1,01/04/2010 08:00:00,alice,PC-1,Logon\n")
    (tmp_path / "link.csv").symlink_to(log)
    (tmp_path / "hard.csv").hardlink_to(log)
    (tmp_path / "old.jsonl").write_bytes(b'{"old": 1}\n')
    (tmp_path / "sub").mkdir()
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert main(["run", "--input", "log.csv", *flags]) == 2
    assert capsys.readouterr().err == f"error: {clash}\n"
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before


RUN_WITH_CONFIG = ["run", "--input", "log.csv", "--config", "cfg.json"]
DUMP_STATE = ["dump-state", "--input", "log.csv", "--config", "cfg.json", "--out"]
SYNTH = ["synth", "--users", "2", "--weeks", "2"]


@pytest.mark.parametrize("argv, clash", [
    (
        [*RUN_WITH_CONFIG, "--alerts-out", "cfg.json"],
        "--alerts-out cfg.json names the same file as --config",
    ),
    (
        [*RUN_WITH_CONFIG, "--scores-out", "cfg.json"],
        "--scores-out cfg.json names the same file as --config",
    ),
    ([*DUMP_STATE, "log.csv"], "--out log.csv names the same file as --input"),
    ([*DUMP_STATE, "./log.csv"], "--out ./log.csv names the same file as --input"),
    ([*DUMP_STATE, "link.csv"], "--out link.csv names the same file as --input"),
    ([*DUMP_STATE, "hard.csv"], "--out hard.csv names the same file as --input"),
    ([*DUMP_STATE, "cfg.json"], "--out cfg.json names the same file as --config"),
    ([*DUMP_STATE, "./cfg.json"], "--out ./cfg.json names the same file as --config"),
    ([*DUMP_STATE, "cfg-link.json"], "--out cfg-link.json names the same file as --config"),
    ([*DUMP_STATE, "cfg-hard.json"], "--out cfg-hard.json names the same file as --config"),
    (
        [*SYNTH, "--events-out", "new.csv", "--labels-out", "new.csv"],
        "--labels-out new.csv names the same file as --events-out",
    ),
    (
        [*SYNTH, "--events-out", "log.csv", "--labels-out", "link.csv"],
        "--labels-out link.csv names the same file as --events-out",
    ),
], ids=[
    "run_alerts_as_config", "run_scores_as_config",
    "dump_input", "dump_input_dot_slash", "dump_input_symlink", "dump_input_hard_link",
    "dump_config", "dump_config_dot_slash", "dump_config_symlink", "dump_config_hard_link",
    "synth_new_path", "synth_old_path",
])
def test_no_command_writes_over_a_file_it_reads_or_another_output(
    tmp_path, monkeypatch, capsys, argv, clash
):
    monkeypatch.chdir(tmp_path)
    log, config = tmp_path / "log.csv", tmp_path / "cfg.json"
    log.write_text("id,date,user,pc,activity\nE1,01/04/2010 08:00:00,alice,PC-1,Logon\n")
    config.write_text('{"min_training_instances": 30}\n')
    (tmp_path / "link.csv").symlink_to(log)
    (tmp_path / "hard.csv").hardlink_to(log)
    (tmp_path / "cfg-link.json").symlink_to(config)
    (tmp_path / "cfg-hard.json").hardlink_to(config)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {clash}\n"
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before


def test_a_command_given_no_output_checks_no_path(tmp_path, monkeypatch, capsys, corpus):
    scores = tmp_path / "scores.jsonl"
    argv = ["run", "--input", str(corpus["events"]), "--config", str(corpus["config"])]
    assert main([*argv, "--scores-out", str(scores)]) == 0
    statted = []
    monkeypatch.setattr(cli, "_file_key", lambda path: statted.append(path))
    assert main(["evaluate", "--input", str(scores), "--labels", str(corpus["labels"])]) == 0
    assert main(argv) == 0
    capsys.readouterr()
    assert statted == []


def test_dump_state_keeps_no_scored_events(corpus, tmp_path, monkeypatch, capsys):
    built = []

    class RecordedPipeline(cli.Pipeline):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "Pipeline", RecordedPipeline)
    assert main([
        "dump-state", "--input", str(corpus["events"]), "--config", str(corpus["config"]),
        "--out", str(tmp_path / "state.json"),
    ]) == 0
    [pipeline] = built
    assert pipeline.counters.retrains > 0
    assert pipeline.drain_scores() == []


def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("id,date,user,pc,activity\nE1,01/04/2010 08:00:00,alice,PC-1,Logon\n")
    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    scores.write_text("[" * 100_000 + "\n")
    labels.write_text("id,label\nE1,0\n")
    assert main(["evaluate", "--input", str(scores), "--labels", str(labels)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {scores}:1: not valid JSON: maximum recursion depth exceeded"
    )
    config = tmp_path / "config.json"
    config.write_text('{"a":' * 100_000)
    assert main(["run", "--input", str(log), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: configuration is not valid JSON: maximum recursion depth exceeded"
    )


@pytest.mark.parametrize("command", ["run", "dump-state"])
def test_a_row_the_reader_refuses_is_a_clean_error(tmp_path, capsys, command):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        f"E1,01/04/2010 08:00:00,alice,PC-1,{'x' * 200_000}\n"
        "E2,01/04/2010 09:00:00,bob,PC-1,Logon\n"
    )
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: field larger than field limit")


def test_evaluate_refuses_a_label_row_the_reader_refuses(tmp_path, capsys):
    scores, labels = tmp_path / "scores.jsonl", tmp_path / "labels.csv"
    scores.write_text("")
    labels.write_text(f"id,label\nE1,{'1' * 200_000}\n")
    argv = ["evaluate", "--input", str(scores), "--labels", str(labels)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {labels}:2: field larger than field limit")


def test_missing_input_is_a_clean_error(tmp_path, capsys):
    assert main(["run", "--input", str(tmp_path / "nowhere.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["evaluate", "--input", str(tmp_path / "no.jsonl"),
                 "--labels", str(tmp_path / "no.csv")]) == 2
    assert "error:" in capsys.readouterr().err


WRONG_CONFIGS = [
    {"window_parameters": {"window_size": "ten"}},
    {"window_parameters": {"sliding_size": None}},
    {"window_parameters": 5},
    {"window_parameters": ["window_size"]},
    {"min_training_instances": "x"},
    {"detectors": {"kde": 5}},
    {"detectors": ["kde"]},
    {"date_format": 5},
    {"activity_filter": ["Logon"]},
    ["window_parameters"],
    {"window_parameters": {"window_size": 2.5, "sliding_size": True}},
    {"window_parameters": {"window_size": 10.5}},
    {"min_training_instances": "30"},
    {"detectors": {"kmeans": {"kmeans_parameter": "abc"}}},
    {"detectors": {"kde": {"kde_parameter": None}}},
    {"detectors": {"kmeans": {"seed": "x"}}},
    {"detectors": {"kmeans": {"seed": -1}}},
    {"detectors": {"lof": {"n_neighbors": "many"}}},
    {"detectors": {"lof": {"n_neighbors": 2.5}}},
    {"detectors": {"kde": {"kde_parameter": 150}}},
    {"detectors": {"lof": {"lof_parameter": -5}}},
    {"detectors": {"kmeans": {"kmeans_parameter": float("nan")}}},
]


@pytest.mark.parametrize("raw", WRONG_CONFIGS)
def test_config_of_the_wrong_type_is_a_clean_error(raw, tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("id,date,user,pc,activity\nE1,01/04/2010 08:00:00,alice,PC-1,Logon\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["run", "--input", str(log), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error:")


FIELDS = {field.name for field in fields(PipelineConfig)}


@pytest.mark.parametrize(
    "make",
    [
        # the JSON cases above whose keys name PipelineConfig fields
        *(
            partial(PipelineConfig, **raw)
            for raw in WRONG_CONFIGS
            if isinstance(raw, dict) and set(raw) <= FIELDS
        ),
        # the JSON cases above with a window_parameters object
        *(
            partial(WindowConfig, **{"window_size": 10, "sliding_size": 5, "type": "week", **wp})
            for raw in WRONG_CONFIGS
            if isinstance(raw, dict) and isinstance(wp := raw.get("window_parameters"), dict)
        ),
        partial(WindowConfig, 2.5, 1, "week"),
        partial(WindowConfig, True, 0, "week"),
        partial(WindowConfig, 10, "5", "week"),
        partial(PipelineConfig, min_training_instances=30.5),
        partial(PipelineConfig, activity_filter=3),
        partial(PipelineConfig, window=(10, 5, "week")),
    ],
)
def test_config_built_in_code_is_checked_when_made(make):
    with pytest.raises(ConfigurationError):
        make()


def test_config_is_frozen_and_a_replaced_copy_is_checked():
    config = PipelineConfig()
    with pytest.raises(FrozenInstanceError):
        config.date_format = "%Q"
    with pytest.raises(ConfigurationError, match="cannot parse a timestamp"):
        replace(config, date_format="%Q")
    with pytest.raises(ConfigurationError, match="min_training_instances must be an integer"):
        replace(config, min_training_instances="30")
    assert replace(config, activity_filter="Logon").activity_filter == "Logon"


def test_config_detector_map_is_read_only():
    config = PipelineConfig()
    with pytest.raises(TypeError):
        config.detectors["kde"] = {"kde_parameter": "x"}
    with pytest.raises(AttributeError):
        config.detectors.clear()
    with pytest.raises(TypeError):
        config.detectors["kde"]["kde_parameter"] = 2.0
    assert config.detectors == {"kde": {}, "kmeans": {}, "lof": {}}
    # The config keeps copies: the maps it was made from stay the caller's.
    params = {"kde_parameter": 2.0}
    detectors = {"kde": params, "lof": {}}
    made = PipelineConfig(detectors=detectors)
    params["kde_parameter"] = "x"
    detectors.clear()
    assert made.detectors == {"kde": {"kde_parameter": 2.0}, "lof": {}}


def test_read_only_detectors_survive_from_dict_replace_and_flags(tmp_path, capsys):
    raw = {"detectors": {"kde": {"kde_parameter": 2.0}, "lof": None}}
    config = PipelineConfig.from_dict(raw)
    assert config.detectors == {"kde": {"kde_parameter": 2.0}, "lof": {}}
    copied = replace(config, activity_filter="Logon")
    assert copied.detectors == config.detectors
    with pytest.raises(TypeError):
        copied.detectors["kde"]["kde_parameter"] = 3.0
    path = tmp_path / "log.csv"
    path.write_text(
        "id,date,user,pc,activity\n"
        "E1,04.01.2010 08:00,alice,PC-1,Logon\n"
        "E2,04.01.2010 09:00,alice,PC-1,Email\n"
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    argv = ["run", "--input", str(path), "--config", str(config_path),
            "--date-format", "%d.%m.%Y %H:%M", "--activity-filter", "Logon"]
    assert main(argv) == 0
    summary = parse_summary(capsys.readouterr().out.strip())
    assert summary["events"] == 1
    assert summary["filtered_rows"] == 1


def test_non_utf8_input_is_a_clean_error(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"id,date,user,pc,activity\n\xff\xfe,01/04/2010 08:00:00,a,PC,Logon\n")
    assert main(["run", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid UTF-8")
    assert main(["run", "--input", str(corpus["events"]), "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({
        "eventId": "E0001", "votes": 0, "cast": 1, "alert": False, "detectors": {},
    }) + "\n")
    for scores_path, labels_path in ((bad, corpus["labels"]), (scores, bad)):
        assert main(["evaluate", "--input", str(scores_path), "--labels", str(labels_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid UTF-8")


def test_parser_rejects_unknown_profile():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["synth", "--profile", "weird",
                                   "--events-out", "x", "--labels-out", "y"])


def help_entries(command: str, capsys) -> dict[str, list[str]]:
    """The lines of each option in ``command --help``, keyed by its first flag."""
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    entries: dict[str, list[str]] = {}
    lines = None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            lines = entries[line.split()[0].rstrip(",")] = [line]
        elif lines is not None and line.startswith("    "):
            lines.append(line)
        else:
            lines = None
    return entries


@pytest.mark.parametrize("command", ("run", "evaluate", "synth", "dump-state"))
def test_every_command_prints_its_help(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert "--help" in help_entries(command, capsys)["-h"][0]


def test_run_and_dump_state_share_their_replay_flags(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    run, dump = help_entries("run", capsys), help_entries("dump-state", capsys)
    for flag in ("--input", "--config", "--activity-filter", "--date-format"):
        assert run[flag] == dump[flag]
        # a help text beyond the flag and its metavar
        assert len(" ".join(run[flag]).split()) > 2, flag
    assert "'%m/%d/%Y %H:%M:%S'" in " ".join(run["--date-format"])
    parser = build_parser()
    for argv, reads, writes in (
        (["run", "--input", "x"], ("--input", "--config"), ("--alerts-out", "--scores-out")),
        (["dump-state", "--input", "x"], ("--input", "--config"), ("--out",)),
    ):
        args = parser.parse_args(argv)
        assert (args.reads, args.writes) == (reads, writes)
