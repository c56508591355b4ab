"""End-to-end behaviour of the assembled detection machine."""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import pytest

from flowdetect import pipeline as pipeline_module
from flowdetect import synth
from flowdetect.detectors import (
    DETECTOR_TYPES,
    CircularKMeans,
    CosineLof,
    Detector,
    Score,
    WrappedKde,
    register_detector,
)
from flowdetect.engine import (
    UNBOUNDED,
    Call,
    Event,
    Flow,
    QuantifiedFlow,
    QuantifiedInterleave,
)
from flowdetect.errors import ConfigurationError, InputError
from flowdetect.pipeline import (
    DEFAULT_MIN_TRAINING,
    Pipeline,
    PipelineConfig,
    build_spec,
    detection_guard,
    training_guard,
)
from flowdetect.windowing import Window, WindowConfig, parse_timestamp

FMT = "%m/%d/%Y %H:%M:%S"
START = datetime(2010, 1, 4)  # a Monday


def stamp(week: int, weekday: int, hour: int, minute: int = 0) -> str:
    when = START + timedelta(weeks=week, days=weekday, hours=hour, minutes=minute)
    return when.strftime(FMT)


def weekday_events(user: str, weeks: int, hours=(9, 14)) -> list[Event]:
    events, n = [], 0
    for week in range(weeks):
        for day in range(5):
            for hour in hours:
                n += 1
                events.append(Event("e", (user, stamp(week, day, hour), f"{user}-{n:04d}")))
    return events


def weekly_config() -> PipelineConfig:
    return PipelineConfig(window=WindowConfig(3, 1, "week"))


def run(pipeline: Pipeline, events) -> list:
    for event in events:
        pipeline.process_event(event)
    return pipeline.drain_scores()


# -------------------------------------------------------------------- config

def test_config_defaults():
    config = PipelineConfig()
    assert config.window == WindowConfig(10, 5, "week")
    assert sorted(config.detectors) == ["kde", "kmeans", "lof"]
    assert config.min_training_instances == DEFAULT_MIN_TRAINING


def test_config_from_dict_and_back():
    raw = {
        "window_parameters": {"window_size": 4, "sliding_size": 2, "type": "day"},
        "detectors": {"kde": {"kde_parameter": 2.0}, "lof": {"n_neighbors": 5}},
        "date_format": "%Y-%m-%d %H:%M:%S",
        "min_training_instances": 10,
        "activity_filter": "Logon",
    }
    config = PipelineConfig.from_dict(raw)
    assert config.window == WindowConfig(4, 2, "day")
    assert config.detectors == {"kde": {"kde_parameter": 2.0}, "lof": {"n_neighbors": 5}}
    assert config.activity_filter == "Logon"
    assert config.to_dict()["window_parameters"]["window_size"] == 4


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"windows": {}})
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"window_parameters": {"size": 3}})
    with pytest.raises(ConfigurationError):
        PipelineConfig(min_training_instances=0)


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"window_parameters": {"window_size": 2, "sliding_size": 1}}))
    assert PipelineConfig.from_file(str(path)).window == WindowConfig(2, 1, "week")
    path.write_text("{broken")
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_file(str(path))


# -------------------------------------------------------------------- guards

class StubDetector:
    def __init__(self, trained_version: int):
        self.trained_version = trained_version

    @property
    def is_trained(self) -> bool:
        return self.trained_version >= 0


def guard_env(version: int, trained: int, samples: int):
    window = Window(WindowConfig(3, 1, "week"))
    window.version = version
    window.samples = {0: list(range(samples))}
    return {
        "window": window,
        "detectors": {"kde": StubDetector(trained)},
        "d": "kde",
    }


def test_training_guard_cases():
    g1 = training_guard(PipelineConfig())
    assert not g1(guard_env(version=0, trained=-1, samples=100))  # window never filled
    assert g1(guard_env(version=1, trained=-1, samples=30))
    assert not g1(guard_env(version=1, trained=-1, samples=29))  # too little data
    assert not g1(guard_env(version=1, trained=1, samples=100))  # nothing new
    assert g1(guard_env(version=2, trained=1, samples=30))


def test_detection_guard_cases():
    g2 = detection_guard()
    assert not g2({"detectors": {"kde": StubDetector(-1)}, "d": "kde"})
    assert g2({"detectors": {"kde": StubDetector(0)}, "d": "kde"})


# ----------------------------------------------------------------- structure

def test_build_spec_shape():
    config = PipelineConfig()
    root, defs = build_spec(config)
    assert isinstance(root, QuantifiedInterleave)
    assert root.var == "userId" and root.domain is UNBOUNDED and root.route_arg == 0

    per_user = root.body
    assert isinstance(per_user, Flow)
    assert {name for name, _ in per_user.attrs} == {"window"}

    scoring = per_user.left
    detectors = scoring.left
    assert isinstance(detectors, QuantifiedFlow)
    assert detectors.var == "d"
    assert detectors.domain == ("kde", "kmeans", "lof")
    assert isinstance(detectors.body, Call)
    assert detectors.body.callee in defs

    instance = defs["detector_instance"]
    assert isinstance(instance, Flow)
    assert instance.left.name == "training"
    assert instance.right.name == "detection"

    # every automaton matches the same event shape
    parser = per_user.right
    voting = scoring.right
    assert parser.transitions[0].pattern is voting.transitions[0].pattern
    assert instance.left.transitions[0].pattern is parser.transitions[0].pattern


def test_build_spec_requires_detectors():
    with pytest.raises(ConfigurationError):
        build_spec(PipelineConfig(detectors={}))
    with pytest.raises(ConfigurationError):
        build_spec(PipelineConfig(detectors={"svm": {}}))


def test_training_minimum_below_detector_minimum_is_rejected_at_build():
    # kmeans and lof fit from 3 samples; a minimum of 2 would hand them 2
    # at event 6 of this stream, so the build refuses it.
    events = [
        Event("e", (e.user, e.when.strftime(FMT), e.event_id))
        for e in synth.generate(3, 4, 0.05, seed=1)
    ]
    small = WindowConfig(2, 1, "instance")
    with pytest.raises(ConfigurationError, match="min_training_instances=2"):
        Pipeline(PipelineConfig(window=small, min_training_instances=2))

    # What the check lets through runs to the end of the same stream.
    kde_only = PipelineConfig(window=small, detectors={"kde": {}}, min_training_instances=2)
    # Each of the 3 users is scored from its window-size + 1st event on.
    assert len(run(Pipeline(kde_only), events)) == len(events) - 3 * 2
    three = PipelineConfig(window=WindowConfig(3, 1, "instance"), min_training_instances=3)
    assert len(run(Pipeline(three), events)) == len(events) - 3 * 3

    # A sliding instance window holds at most window_size + sliding_size - 1
    # samples when g1 looks, so one that holds fewer than the minimum would
    # never train; the build refuses it.
    for size, slide, least in ((2, 1, 3), (4, 2, 6), (10, 5, 30)):
        never = PipelineConfig(
            window=WindowConfig(size, slide, "instance"), min_training_instances=least
        )
        with pytest.raises(ConfigurationError, match=f"holds at most {size + slide - 1}"):
            Pipeline(never)
    for size, slide, least in ((2, 2, 3), (5, 5, 9)):
        just = PipelineConfig(
            window=WindowConfig(size, slide, "instance"), min_training_instances=least
        )
        assert run(Pipeline(just), events)


# ------------------------------------------------------------ warmup and fit

def test_warmup_produces_no_scores_then_all_detectors_vote():
    pipeline = Pipeline(weekly_config())
    events = weekday_events("alice", 5)
    events.append(Event("e", ("alice", stamp(5, 0, 9), "alice-last")))
    records = run(pipeline, events)

    # 10 events/week: scoring starts once 3 weeks (30 samples) are complete
    assert [r.event_id for r in records][0] == "alice-0031"
    assert len(records) == 21
    assert all(r.cast == 3 for r in records)
    assert all(r.votes == 0 and not r.alert for r in records)  # modal hours only

    # one fit per detector per window version: versions 1..3 were trained
    assert pipeline.counters.retrains == 9
    assert pipeline.window_for("alice").version == 4
    assert pipeline.counters.events == len(events)
    assert pipeline.counters.alerts == 0


def test_off_hours_event_alerts_and_matches_direct_fits():
    pipeline = Pipeline(weekly_config())
    events = weekday_events("alice", 4)
    odd = Event("e", ("alice", stamp(4, 2, 3), "alice-night"))  # Wednesday 03:00
    events.append(odd)
    pipeline_alerts = []
    for event in events:
        pipeline_alerts.extend(pipeline.process_event(event))
    records = {r.event_id: r for r in pipeline.drain_scores()}

    assert [a.event_id for a in pipeline_alerts] == ["alice-night"]
    assert pipeline_alerts[0].votes == 3
    night = records["alice-night"]
    assert night.alert and night.votes == 3 and night.cast == 3

    # the event was scored by models fitted on weeks 1..3 (the v2 window),
    # which is reproducible by fitting the same 30 samples directly
    training = [540, 840] * 15
    minute = 3 * 60
    assert night.detectors["kde"]["raw"] == pytest.approx(
        WrappedKde().fit_partial(training).score_partial(minute).raw, abs=1e-12
    )
    assert night.detectors["kmeans"]["raw"] == pytest.approx(
        CircularKMeans().fit_partial(training).score_partial(minute).raw, abs=1e-12
    )
    lof_direct = CosineLof().fit_partial(training).score_partial(minute)
    assert night.detectors["lof"]["binary"] == lof_direct.binary == 1

    # prequential: the event was scored first, ingested after
    data = pipeline.training_data_for("alice")
    assert any(180 in samples for samples in data.values())


class LevelDetector(Detector):
    """Scores every event at its configured level."""

    name = "level"
    param_keys = {"level_parameter": "level"}

    def __init__(self, level: float = 0.0):
        super().__init__()
        self.level = level

    def fit_partial(self, minutes, version=0):
        fitted = LevelDetector(self.level)
        fitted.trained_version = version
        return fitted

    def score_partial(self, minute, event_id=None):
        return Score(0, self.level)


def test_registered_detector_receives_its_declared_parameters():
    register_detector("level", LevelDetector)
    try:
        config = PipelineConfig(
            window=WindowConfig(3, 1, "week"), detectors={"level": {"level_parameter": 7.5}}
        )
        records = run(Pipeline(config), weekday_events("solo", 4))
        assert records and all(r.detectors["level"]["raw"] == 7.5 for r in records)

        bogus = PipelineConfig(detectors={"level": {"kde_parameter": 1.0}})
        with pytest.raises(ConfigurationError, match="unknown level parameter"):
            Pipeline(bogus)
    finally:
        del DETECTOR_TYPES["level"]


def test_detector_subset_votes_alone():
    config = PipelineConfig(window=WindowConfig(3, 1, "week"), detectors={"kde": {}})
    pipeline = Pipeline(config)
    records = run(pipeline, weekday_events("solo", 4))
    assert records and all(r.cast == 1 for r in records)


# ------------------------------------------------------------------ isolation

def interleave(a: list, b: list) -> list:
    out = []
    for pair in zip(a, b):
        out.extend(pair)
    out.extend(a[len(b):])
    out.extend(b[len(a):])
    return out


def test_users_do_not_influence_each_other():
    alice = weekday_events("alice", 4)
    bob = weekday_events("bob", 4, hours=(22, 23))
    together = Pipeline(weekly_config())
    mixed_records = run(together, interleave(alice, bob))

    solo = Pipeline(weekly_config())
    solo_records = run(solo, alice)

    mixed_alice = [r.to_record() for r in mixed_records if r.user_id == "alice"]
    assert mixed_alice == [r.to_record() for r in solo_records]
    assert together.window_for("alice").version == solo.window_for("alice").version
    assert together.training_data_for("alice") == solo.training_data_for("alice")
    assert together.user_count == 2


def test_truncated_replay_scores_identically():
    events = weekday_events("carol", 5)
    full = Pipeline(weekly_config())
    full_records = {r.event_id: r.to_record() for r in run(full, events)}

    for cut in (31, 36, 45):
        partial = Pipeline(weekly_config())
        partial_records = run(partial, events[:cut])
        assert partial_records, f"no scores after {cut} events"
        last = partial_records[-1].to_record()
        assert last == full_records[last["eventId"]]


# ---------------------------------------------------------------- determinism

def test_identical_runs_are_identical():
    events = weekday_events("dave", 5)
    a = Pipeline(weekly_config())
    b = Pipeline(weekly_config())
    records_a = [r.to_record() for r in run(a, events)]
    records_b = [r.to_record() for r in run(b, events)]
    assert records_a == records_b
    assert a.dump() == b.dump()


def test_detector_iteration_order_does_not_matter():
    events = weekday_events("erin", 5)
    events.insert(45, Event("e", ("erin", stamp(4, 2, 2), "erin-night")))

    plain = Pipeline(weekly_config())
    plain_records = [r.to_record() for r in run(plain, events)]

    hooked = Pipeline(weekly_config())
    hooked.spec.body.left.left.order_hook = lambda values: sorted(values, reverse=True)
    hooked_records = [r.to_record() for r in run(hooked, events)]

    assert hooked_records == plain_records
    assert hooked.dump() == plain.dump()


def test_a_user_at_rest_keeps_the_same_state_objects():
    pipeline = Pipeline(weekly_config())
    alice, bob = weekday_events("alice", 1), weekday_events("bob", 1)
    pipeline.process_event(alice[0])
    pipeline.process_event(bob[0])
    root = pipeline.state
    instance = root.instances["alice"]
    for event in interleave(alice[1:], bob[1:]):
        pipeline.process_event(event)
        assert pipeline.state is root
        assert pipeline.state.instances["alice"] is instance


# ------------------------------------------------------------------ bad input

def test_each_timestamp_is_parsed_once(monkeypatch):
    calls = []

    def counting(text, date_format):
        calls.append(text)
        return parse_timestamp(text, date_format)

    monkeypatch.setattr(pipeline_module, "parse_timestamp", counting)
    events = weekday_events("alice", 4)  # scored from event 31 on
    events.insert(35, Event("e", ("alice", "yesterday", "bad-1")))
    pipeline = Pipeline(weekly_config())
    records = run(pipeline, events)
    assert records and all(r.cast == 3 for r in records)
    assert len(calls) == len(events)
    assert pipeline.counters.skipped_dates == 1
    assert pipeline.counters.events == len(events) - 1


def test_malformed_events_are_rejected():
    pipeline = Pipeline(weekly_config())
    with pytest.raises(InputError):
        pipeline.process_event(Event("x", ("a", "b", "c")))
    with pytest.raises(InputError):
        pipeline.process_event(Event("e", ("a", "b")))


def test_unparseable_date_is_counted_and_skipped():
    pipeline = Pipeline(weekly_config())
    pipeline.process_event(Event("e", ("alice", stamp(0, 0, 9), "ok-1")))
    before = pipeline.dump()
    assert pipeline.process_event(Event("e", ("alice", "yesterday", "bad-1"))) == []
    assert pipeline.dump() == before
    assert pipeline.counters.skipped_dates == 1
    assert pipeline.counters.events == 1


# ------------------------------------------------------------- vote injection

def test_alternative_vote_strategy_is_honoured():
    # The vote only decides; the pipeline empties the cast list after each
    # vote, so a vote that never clears it still sees three votes an event.
    pipeline = Pipeline(weekly_config(), vote_fn=lambda cast: True)
    records = run(pipeline, weekday_events("fred", 4))
    assert pipeline.counters.alerts == len(records) > 0
    assert all(r.cast == 3 and r.alert for r in records)
