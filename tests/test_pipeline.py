"""End-to-end behaviour of the assembled detection machine."""

from __future__ import annotations

import ast
import copy
import gc
import importlib.util
import json
import random
import sys
import weakref
from collections import Counter
from datetime import datetime, timedelta
from itertools import combinations
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import Phase, example, given, reject, settings
from hypothesis import strategies as st

import oracles
from flowdetect import detectors as detectors_module
from flowdetect import pipeline as pipeline_module
from flowdetect import engine, synth
from flowdetect.detectors import (
    CircularKMeans,
    CosineLof,
    Detector,
    Score,
    WrappedKde,
    init_map,
)
from flowdetect.engine import (
    Automaton,
    Call,
    CallState,
    Capture,
    Env,
    Event,
    EventPattern,
    FlowState,
    QuantifiedFlow,
    QuantifiedInterleave,
    describe,
    init,
    walk,
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


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"windows": {}})
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_dict({"window_parameters": {"size": 3}})
    with pytest.raises(ConfigurationError):
        PipelineConfig(min_training_instances=0)


def test_readme_configuration_block_is_the_default():
    """The README says of its configuration JSON: everything shown is the default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    shown = PipelineConfig.from_dict(json.loads(block))
    default = PipelineConfig()
    assert shown.window == default.window
    assert shown.date_format == default.date_format
    assert shown.min_training_instances == default.min_training_instances
    assert shown.activity_filter == default.activity_filter
    built = {name: d.to_debug_dict() for name, d in init_map(shown.detectors).items()}
    assert built == {name: d.to_debug_dict() for name, d in init_map(default.detectors).items()}


def test_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"window_parameters": {"window_size": 2, "sliding_size": 1}}))
    assert PipelineConfig.from_file(str(path)).window == WindowConfig(2, 1, "week")
    path.write_text("{broken")
    with pytest.raises(ConfigurationError):
        PipelineConfig.from_file(str(path))


def test_config_from_file_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf{}")
    assert PipelineConfig.from_file(str(path)) == PipelineConfig()


def test_config_from_dict_takes_its_defaults_from_the_config_types():
    assert PipelineConfig.from_dict({}) == PipelineConfig()
    assert PipelineConfig.from_dict({"detectors": None}) == PipelineConfig()
    day = PipelineConfig.from_dict({"window_parameters": {"type": "day"}})
    assert day.window == WindowConfig(10, 5, "day")


def dense_events(days: int = 10, per_day: int = 30) -> list[Event]:
    """One user's ``per_day`` logons on each of ``days`` days, mostly in office hours."""
    rng = random.Random(7)
    events = []
    for day in range(days):
        for n in range(per_day):
            hour = rng.choice((2, 23)) if n % 10 == 9 else rng.randint(8, 17)
            when = START + timedelta(days=day, hours=hour, minutes=rng.randrange(60))
            events.append(Event("e", ("solo", when.strftime(FMT), f"{day}-{n}")))
    events.sort(key=lambda event: parse_timestamp(event.args[1]))
    return events


DENSE_EVENTS = dense_events()

#: A window type and the largest size over which ``DENSE_EVENTS`` slides:
#: 10 days in two ISO weeks, 300 events.
WINDOW_SIZES = {"day": 4, "week": 1, "instance": 100}


@st.composite
def window_configs(draw) -> WindowConfig:
    kind = draw(st.sampled_from(sorted(WINDOW_SIZES)))
    size = draw(st.integers(1, WINDOW_SIZES[kind]))
    return WindowConfig(size, draw(st.integers(0, size)), kind)


#: The draws of a config: a window, a training minimum and detector parameters.
CONFIG_DRAWS = {
    "window": window_configs(),
    "minimum": st.integers(1, 30),
    "names": st.sets(st.sampled_from(["kde", "kmeans", "lof"])),
    "kde": st.sampled_from([0.0, 0.5, 5.0, 100.0]),
    "lof": st.sampled_from([0.0, 75.0, 95.0, 100.0]),
    "n_neighbors": st.integers(1, 10**6),
    "kmeans": st.sampled_from([0.0, 1e-300, 1.5, 2.5, 1e300]),
}


def accepted_config(window, minimum, names, kde, lof, n_neighbors, kmeans) -> PipelineConfig:
    """The config the draws name; a config the validator refuses rejects the example."""
    params = {
        "kde": {"kde_parameter": kde},
        "kmeans": {"kmeans_parameter": kmeans},
        "lof": {"lof_parameter": lof, "n_neighbors": n_neighbors},
    }
    try:
        return PipelineConfig(
            window=window,
            detectors={name: params[name] for name in names},
            min_training_instances=minimum,
        )
    except ConfigurationError:
        reject()


# ``DENSE_EVENTS`` fills and slides every window drawn here and brings 30
# samples a day, so every config the validator accepts reaches its training
# minimum of at most 30: each fits all its detectors.
@pytest.mark.filterwarnings("ignore:.*outside the recommended range:UserWarning")
@settings(derandomize=True, max_examples=40, deadline=None)
@given(**CONFIG_DRAWS)
@example(WindowConfig(1, 1, "day"), 30, {"kde", "kmeans", "lof"}, 0.0, 100.0, 10**6, 1e300)
@example(WindowConfig(2, 1, "instance"), 2, {"kde"}, 100.0, 0.0, 1, 0.0)
@example(WindowConfig(3, 1, "instance"), 3, {"kmeans", "lof"}, 0.0, 0.0, 1, 0.0)
# Each refused: a window that never holds the minimum, a minimum too small to fit.
@example(WindowConfig(2, 1, "instance"), 3, {"kmeans", "lof"}, 0.0, 0.0, 1, 0.0)
@example(WindowConfig(1, 0, "day"), 2, {"kde", "kmeans", "lof"}, 0.5, 95.0, 20, 1.5)
def test_every_accepted_config_runs_to_the_end(
    window, minimum, names, kde, lof, n_neighbors, kmeans
):
    pipeline = Pipeline(accepted_config(window, minimum, names, kde, lof, n_neighbors, kmeans))
    records = run(pipeline, DENSE_EVENTS)
    assert pipeline.counters.events == len(DENSE_EVENTS)
    assert pipeline.counters.retrains >= len(names)
    assert records and all(r.cast == len(names) for r in records[-10:])


@st.composite
def plain_streams(draw) -> list[Event]:
    """A log of up to four users over up to 12 days, in a shuffled order.

    Some dates cannot be parsed, some are ISO-8601, some events arrive days
    late (stale once their period has slid out), and event ids repeat.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    users = [f"u{n}" for n in range(draw(st.integers(1, 4)))]
    days = draw(st.integers(2, 12))
    rows = []
    for user in users:
        for day in range(days):
            for _ in range(rng.randrange(0, 20)):
                when = START + timedelta(days=day, hours=rng.uniform(6.0, 20.0))
                rows.append((when + timedelta(days=rng.choice((0, 0, 0, 0, 2, 5))), user, when))
    rows.sort(key=lambda row: row[0])  # arrival order: a late event lands days later
    swaps = draw(st.integers(0, len(rows)))
    for _ in range(swaps):  # local disorder
        i = rng.randrange(len(rows))
        j = min(len(rows) - 1, i + rng.randrange(1, 6))
        rows[i], rows[j] = rows[j], rows[i]
    events = []
    for n, (_, user, when) in enumerate(rows):
        text = rng.choices(
            (when.strftime(FMT), when.isoformat(), "not a date", "13/45/2010 09:00:00"),
            (20, 2, 1, 1),
        )[0]
        events.append(Event("e", (user, text, f"E{rng.randrange(max(1, n // 2) + 1)}")))
    return events


# The engine runs the tree; ``pipeline_plain`` runs what the tree specifies as
# one loop.  Records are compared by ``repr``, so every float is compared bit
# for bit.  A stream is drawn from a seed, so shrinking mostly redraws it
# rather than making it smaller, and one shrink ran for minutes: a failing
# example is reported as found.
@pytest.mark.filterwarnings("ignore:.*outside the recommended range:UserWarning")
@settings(derandomize=True, max_examples=30, deadline=None,
          phases=[Phase.explicit, Phase.generate])
@given(config=st.builds(accepted_config, **CONFIG_DRAWS), events=plain_streams())
def test_the_pipeline_is_its_plain_loop(config, events):
    pipeline = Pipeline(config)
    records = [scored.to_record() for scored in run(pipeline, events)]
    plain = oracles.pipeline_plain(config, events)
    assert repr(records) == repr(plain["records"])
    counters = pipeline.counters
    assert (counters.retrains, counters.skipped_dates, pipeline.stale_drops) == (
        plain["retrains"], plain["skipped_dates"], plain["stale_drops"]
    )
    assert {
        user: {name: d.trained_version for name, d in detectors_of(pipeline, user).items()}
        for user in pipeline.state.instances
    } == plain["trained"]


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
    g2 = detection_guard
    assert not g2({"detectors": {"kde": StubDetector(-1)}, "d": "kde"})
    assert g2({"detectors": {"kde": StubDetector(0)}, "d": "kde"})


# ----------------------------------------------------------------- structure

def test_build_spec_shape():
    # The README's machine block pins the tree: each node's kind and name, its
    # attributes, variable and domain, the callee under the call, and each
    # transition.  Every automaton matches the one pattern object.
    root, _ = build_spec(PipelineConfig())
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("`describe(build_spec(PipelineConfig())[0])`", 1)[1]
    assert describe(root) == block.split("```text\n", 1)[1].split("\n```", 1)[0]
    automata = [node for _, node in walk(root) if isinstance(node, Automaton)]
    assert len({id(t.pattern) for node in automata for t in node.transitions}) == 1


@pytest.mark.parametrize(
    "names",
    [names for size in (1, 2, 3) for names in combinations(("kde", "kmeans", "lof"), size)],
    ids="+".join,
)
def test_the_tree_is_one_size_for_any_set_of_detectors(names):
    # Quantified Flow keeps the specification concise: the models it combines
    # are its domain, so the domain line is the one line they change.
    full = describe(build_spec(PipelineConfig())[0]).splitlines()
    lines = describe(build_spec(PipelineConfig(detectors={n: {} for n in names}))[0]).splitlines()
    (at,) = [i for i, line in enumerate(full) if line.lstrip().startswith("detectors ")]
    assert lines[:at] + lines[at + 1 :] == full[:at] + full[at + 1 :]
    assert lines[at] == full[at].replace("['kde', 'kmeans', 'lof']", repr(list(names)))


def test_the_window_fold_is_the_last_action_of_a_step():
    # The fold is the one action that writes in place, so it must run after
    # every action that can raise: the parser, last in the walk, is the right
    # operand of the per-user flow, and no node above it has an action.
    nodes = list(walk(build_spec(PipelineConfig())[0]))
    above, (depth, parser) = [node for d, node in nodes if d < 2], nodes[-1]
    assert [(node.name, node.action) for node in above] == [("users", None), ("per_user", None)]
    assert (parser.name, depth) == ("parser", 2)
    assert [t.action.__name__ for t in parser.transitions] == ["ingest_action"]


def test_no_action_mutates_a_bound_value():
    # The actions of build_spec rebind names in the step's scope; none calls
    # a mutator on a value it reads from there.
    tree = ast.parse(Path(pipeline_module.__file__).read_text(encoding="utf-8"))
    (build,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "build_spec"]
    actions = [n for n in build.body if isinstance(n, ast.FunctionDef) and n.name.endswith("_action")]
    assert {a.name for a in actions} == {"ingest_action", "train_action", "detect_action", "vote_action"}
    mutators = {"append", "clear", "update", "setdefault", "pop"}
    called = {
        node.func.attr
        for action in actions
        for node in ast.walk(action)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not called & mutators


def test_the_tree_binds_pairwise_disjoint_names(monkeypatch):
    # Disjoint names mean no bind of a step ever shadows one, so the engine
    # never allocates to remember what a bind hid.
    nodes = [node for _, node in walk(build_spec(PipelineConfig())[0])]
    captures = {
        s.name for node in nodes if isinstance(node, Automaton)
        for t in node.transitions for s in t.pattern.slots if isinstance(s, Capture)
    }
    attributes = {name for node in nodes for name, _ in node.attrs}
    quantified = (QuantifiedFlow, QuantifiedInterleave)
    variables = {node.var for node in nodes if isinstance(node, quantified)}
    assert not any(node.args for node in nodes if isinstance(node, Call))  # no call binds a parameter
    step_env = set()

    def recording(spec, state, event, env):
        step_env.update(env)
        return engine.step(spec, state, event, env)

    monkeypatch.setattr(pipeline_module, "step", recording)
    Pipeline(PipelineConfig()).process_event(Event("e", ("alice", stamp(0, 0, 9), "a-1")))
    groups = (captures, attributes, variables, step_env)
    assert groups == (
        {"eventDate", "eventId"},
        {"window", "scores", "detectors"},
        {"userId", "d"},
        {"when", "fits"},
    )
    for i, group in enumerate(groups):
        for other in groups[i + 1 :]:
            assert not group & other


def test_no_bind_of_a_replay_shadows_a_name(monkeypatch):
    # A step binds through ``_bind`` only what shadows a name, and the tree's
    # names are disjoint, so no step of a replay calls it, not even one that
    # starts a user's instance.
    calls = []
    pipeline = Pipeline(weekly_config())
    monkeypatch.setattr(engine, "_bind", lambda scope, bindings: calls.append(bindings))
    records = run(pipeline, interleave(weekday_events("alice", 5), weekday_events("bob", 4, (8, 16))))
    assert pipeline.counters.retrains > 0 and records
    assert calls == []


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
        with pytest.raises(ConfigurationError, match=f"holds at most {size + slide - 1}"):
            PipelineConfig(
                window=WindowConfig(size, slide, "instance"), min_training_instances=least
            )
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


def test_an_alert_is_its_record_cut_to_the_first_four_fields():
    pipeline = Pipeline(weekly_config())
    events = weekday_events("alice", 4) + [Event("e", ("alice", stamp(4, 2, 3), "alice-night"))]
    alerts = [alert for event in events for alert in pipeline.process_event(event)]
    assert alerts
    for alert in alerts:
        assert alert.to_alert() == dict(list(alert.to_record().items())[:4])
        assert list(alert.to_alert()) == ["eventId", "userId", "eventDate", "votes"]


class LevelDetector(Detector):
    """Scores every event at its configured level."""

    name = "level"
    param_keys = {"level_parameter": "level"}

    def __init__(self, level: float = 0.0):
        super().__init__()
        self.level = level

    def _fit(self, whole):
        pass

    def score_partial(self, minute, event_id=None):
        return Score(0, self.level)


def with_types(monkeypatch, *types: type[Detector]) -> None:
    """Let a config name ``types`` too, for the calling test only."""
    table = {**detectors_module.DETECTOR_TYPES, **{cls.name: cls for cls in types}}
    monkeypatch.setattr(detectors_module, "DETECTOR_TYPES", MappingProxyType(table))


def test_registered_detector_receives_its_declared_parameters(monkeypatch):
    with_types(monkeypatch, LevelDetector)
    config = PipelineConfig(
        window=WindowConfig(3, 1, "week"), detectors={"level": {"level_parameter": 7.5}}
    )
    records = run(Pipeline(config), weekday_events("solo", 4))
    assert records and all(r.detectors["level"]["raw"] == 7.5 for r in records)

    with pytest.raises(ConfigurationError, match="unknown level parameter"):
        PipelineConfig(detectors={"level": {"kde_parameter": 1.0}})


class MinuteDetector(Detector):
    """Scores every event at its own minute of the day; knows no event id."""

    name = "minute"

    def _fit(self, whole):
        pass

    def score_partial(self, minute):
        return Score(0, minute)


def test_a_detector_scores_from_the_minute_alone(monkeypatch):
    with_types(monkeypatch, MinuteDetector)
    config = PipelineConfig(window=WindowConfig(3, 1, "week"), detectors={"minute": {}})
    records = run(Pipeline(config), weekday_events("solo", 4))
    assert records and {r.detectors["minute"]["raw"] for r in records} == {9 * 60, 14 * 60}


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
    plain_scored = run(plain, events)

    # The detectors are stepped in the order of erin's instance map, so a
    # map rebuilt in reverse makes them fit, score and cast in reverse.
    hooked = Pipeline(weekly_config())
    hooked.process_event(events[0])
    detectors = hooked.state.instances["erin"].left.left
    detectors.instances = dict(reversed(detectors.instances.items()))
    hooked_scored = run(hooked, events[1:])

    names = sorted(weekly_config().detectors)
    assert plain_scored and [list(s.detectors) for s in plain_scored] == [names] * len(plain_scored)
    assert [list(s.detectors) for s in hooked_scored] == [names[::-1]] * len(hooked_scored)
    assert [s.to_record() for s in hooked_scored] == [s.to_record() for s in plain_scored]
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


def state_objects(state) -> dict:
    """Every runtime state object nested in ``state``, by id."""
    found, pending = {}, [state]
    while pending:
        state = pending.pop()
        found[id(state)] = state
        if isinstance(state, FlowState):
            pending += (state.left, state.right)
        elif isinstance(state, CallState):
            pending.append(state.inner)
        elif hasattr(state, "instances"):
            pending += state.instances.values()
    return found


def test_a_machines_shared_states_are_freed_with_it():
    pipeline = Pipeline(weekly_config())
    pipeline.process_event(weekday_events("alice", 1)[0])
    instances = pipeline.state.instances["alice"].left.left.instances
    detector = instances["kde"]
    assert isinstance(detector, CallState)
    assert all(state is detector for state in instances.values())  # one shared state at rest
    ref = weakref.ref(detector)
    del pipeline, instances, detector
    gc.collect()
    assert ref() is None


def test_two_machines_share_no_state_object():
    a, b = Pipeline(weekly_config()), Pipeline(weekly_config())
    for pipeline in (a, b):
        run(pipeline, interleave(weekday_events("alice", 1), weekday_events("bob", 1)))
    a_states, b_states = state_objects(a.state), state_objects(b.state)
    assert len(a_states) == len(b_states) > 1
    assert not a_states.keys() & b_states.keys()


def test_a_never_evicting_window_fits_each_detector_once():
    # With sliding_size 0 the window's version is bumped once, when it first
    # fills, so g1 lets each detector fit once and never again.
    users = ("ann", "bob", "cid")
    events = [event for user in users for event in weekday_events(user, 8)]
    never = Pipeline(PipelineConfig(window=WindowConfig(3, 0, "week")))
    run(never, events)
    assert never.counters.retrains == len(users) * 3
    assert [never.window_for(u).version for u in users] == [1, 1, 1]
    sliding = Pipeline(PipelineConfig(window=WindowConfig(3, 1, "week")))
    run(sliding, events)
    assert sliding.counters.retrains > never.counters.retrains


def test_a_user_costs_eight_tracked_objects():
    # The 200-user, one-week stream of the unfilled dump-state golden: no
    # window fills, so each user holds only its machine state.  That is 8
    # tracked objects: three node states (the ``per_user`` and ``scoring``
    # flows and the quantified flow), the Env of the window, the window with
    # its samples map and one period's list, and the quantified flow's
    # instance map.  The Envs of the plain attributes ``scores`` and
    # ``detectors`` are shared by every user, as are the at-rest states
    # below them, and the cast is the untracked ``()``.  Any further
    # object per user, such as a per-user copy of either Env (10 before they
    # were shared) or a per-user score list, puts the count at 9 or more.
    events = [
        Event("e", (e.user, e.when.strftime(FMT), e.event_id))
        for e in synth.generate(200, 1, 0.0, seed=1, profile="static")
    ]
    users = sorted({event.args[0] for event in events})
    first = set(users[:100])
    pipeline = Pipeline()
    run(pipeline, [event for event in events if event.args[0] in first])
    gc.collect()
    before = len(gc.get_objects())
    run(pipeline, [event for event in events if event.args[0] not in first])
    assert pipeline.user_count == len(users) == 200
    gc.collect()
    held = len(gc.get_objects())
    assert round((held - before) / 100, 1) == 8
    # The spec and the rest of the pipeline add about 0.3 a user.
    del pipeline
    gc.collect()
    assert (held - len(gc.get_objects())) / len(users) <= 8.5


def detectors_of(pipeline: Pipeline, user: str) -> Mapping:
    """The user's detector map: an attribute of the quantified ``detectors`` node."""
    return pipeline.state.instances[user].left.left.env["detectors"]


def test_a_fit_leaves_the_other_users_detectors_unfitted():
    # Unfitted users share one read-only map of unfitted detectors, and the
    # one Env of the plain attributes that holds it; a fit gives the fitted
    # user a map and an Env of its own.
    pipeline = Pipeline(weekly_config())
    alice = weekday_events("alice", 4)  # the first fit comes at event 31
    pipeline.process_event(Event("e", ("bob", stamp(0, 0, 9), "bob-0001")))
    pipeline.process_event(Event("e", ("carol", stamp(0, 0, 9), "carol-0001")))
    bob, carol = pipeline.state.instances["bob"], pipeline.state.instances["carol"]
    assert bob.left.env is carol.left.env  # scores
    shared = bob.left.left.env
    assert carol.left.left.env is shared
    held = dict(shared)
    run(pipeline, alice)
    assert pipeline.state.instances["alice"].left.left.env is not shared
    assert pipeline.state.instances["bob"].left.left.env is shared and dict(shared) == held
    fitted, unfitted = detectors_of(pipeline, "alice"), detectors_of(pipeline, "bob")
    assert detectors_of(pipeline, "carol") is unfitted
    assert isinstance(unfitted, Env)
    assert fitted is not unfitted
    assert all(detector.trained_version == 1 for detector in fitted.values())
    assert sorted(unfitted) == sorted(fitted)
    for name, detector in unfitted.items():
        assert detector.trained_version == -1
        assert detector is not fitted[name]


def test_the_built_tree_deep_copies_and_the_copy_steps_alike():
    # The shared unfitted detectors are held in an Env, which copies, so the
    # whole tree copies; the copy compiles and fits on its own.
    pipeline, twin = Pipeline(weekly_config()), Pipeline(weekly_config())
    twin.spec = copy.deepcopy(pipeline.spec)
    twin.state = init(twin.spec)
    assert twin.dump() == pipeline.dump()
    for event in weekday_events("alice", 4) + weekday_events("bob", 1):  # alice fits from event 31
        assert twin.process_event(event) == pipeline.process_event(event)
        assert twin.dump() == pipeline.dump()
    assert twin.drain_scores() == pipeline.drain_scores() != []
    assert twin.counters == pipeline.counters and pipeline.counters.retrains > 0
    for name, detector in detectors_of(twin, "alice").items():
        assert detector is not detectors_of(pipeline, "alice")[name]
    # The copy shares at-rest states as the original does: bob never fits, so
    # one call state stands for each of his detectors.
    for machine in (pipeline, twin):
        calls = machine.state.instances["bob"].left.left.instances.values()
        assert len(calls) == 3 and len({id(call) for call in calls}) == 1


def test_a_pipeline_event_matches_its_pattern_once(monkeypatch):
    # The leaves a function of the pipeline's code steps share one pattern
    # object, whose event side that function tests once, at its top, inline.
    sources = {}

    def keeping(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    def matching(*_):
        raise AssertionError("a matching event went through EventPattern.match")

    monkeypatch.setattr(engine, "compile", keeping, raising=False)
    monkeypatch.setattr(EventPattern, "match", matching)
    pipeline = Pipeline(weekly_config())
    for event in weekday_events("alice", 4):  # scored from event 31 on
        pipeline.process_event(event)
    assert pipeline.drain_scores()
    tests = {
        filename: [function.count("event.name != ") for function in source.split("\ndef ")]
        for filename, source in sources.items()
    }
    # The users' function tests it for the parser and the vote, the detector
    # instance's for its training and detection; the detectors' loop has no leaf.
    assert tests == {"<flowdetect step 'users'>": [0, 1], "<flowdetect step 'detector_instance'>": [1]}


def test_a_fanout_event_makes_a_fixed_number_of_python_calls():
    # A gate on the per-event work of the many-user benchmark stream that no
    # timing noise moves: one event of a warmed user whose window has not
    # filled, under the default config, makes exactly these Python-level
    # calls.  The engine's share is ``step``, ``_check_shape``, the users'
    # and the detectors' functions, the detector instance's function per
    # detector, and one ``_drop`` when no detector fires; the rest is the
    # parse, the six guards, the fold and the vote.
    pipeline = Pipeline()
    for n in range(12):
        pipeline.process_event(Event("e", (f"u{n % 3}", f"01/0{4 + n % 2}/2010 0{n % 9}:00:00", f"e-{n}")))
    assert pipeline.counters.retrains == 0
    event, calls = Event("e", ("u1", "01/05/2010 09:30:00", "e-last")), Counter()

    def profile(frame, what, arg):
        if what == "call":
            calls[frame.f_code.co_name] += 1

    collecting, profiling = gc.isenabled(), sys.getprofile()
    gc.disable()  # a collection could run a finalizer inside the profiled event
    sys.setprofile(profile)
    try:
        pipeline.process_event(event)
    finally:
        sys.setprofile(profiling)
        if collecting:
            gc.enable()
    assert sum(calls.values()) == 23, sorted(calls.items())
    assert calls["_bind"] == calls["match"] == 0


def test_the_benchmark_tracer_spans_every_guard_and_action_a_step_calls():
    # perfbench/tracing.py wraps the guards and actions of a built tree by
    # assigning them, the only assignments a made node allows; the step
    # must then call the wrapped ones.  Before any window fills, a step
    # calls three training and three detection guards, the vote and the fold.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    found = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracing)
    pipeline, tracer = Pipeline(), tracing.Tracer()
    tracer.wrap_spec(pipeline.spec, pipeline.defs)
    events = weekday_events("alice", 1) + weekday_events("bob", 1, hours=(11,))
    run(pipeline, events)
    assert pipeline.counters.events == len(events) == 15 and pipeline.counters.retrains == 0
    assert tracer.calls == {"engine.guard": 6 * 15, "engine.action": 2 * 15}


# ------------------------------------------------------- a step that raises

def failing_fit(fail_at: int | None) -> type[Detector]:
    """A detector type whose fit raises on its call number ``fail_at``."""
    calls = []

    class FailingFit(Detector):
        name = "zfit"  # sorts after kde, kmeans and lof, so it fits last

        def _fit(self, whole):
            calls.append(whole.size)
            if len(calls) == fail_at:
                raise RuntimeError("fit failed")

        def score_partial(self, minute):
            return Score(0, 0.0)

    return FailingFit


def zfit_config() -> PipelineConfig:
    detectors = {name: {} for name in ("kde", "kmeans", "lof", "zfit")}
    return PipelineConfig(window=WindowConfig(3, 1, "week"), detectors=detectors)


def test_a_fit_that_raises_changes_nothing(monkeypatch):
    events = weekday_events("alice", 6)
    with_types(monkeypatch, failing_fit(fail_at=2))
    pipeline = Pipeline(zfit_config())
    before, failed = [], None
    for n, event in enumerate(events):
        if failed is None:
            state, counters = pipeline.dump(), repr(pipeline.counters)
            before += pipeline.drain_scores()
        try:
            pipeline.process_event(event)
        except RuntimeError:
            assert failed is None
            failed = n
            # kde, kmeans and lof refit in this step before zfit raised
            assert pipeline.dump() == state
            assert repr(pipeline.counters) == counters
            assert pipeline.drain_scores() == []
    assert failed is not None and before
    records = before + pipeline.drain_scores()

    with_types(monkeypatch, failing_fit(fail_at=None))
    never = Pipeline(zfit_config())
    expected = run(never, events[:failed] + events[failed + 1:])
    assert [r.to_record() for r in records] == [r.to_record() for r in expected]
    assert repr(pipeline.counters) == repr(never.counters)
    assert pipeline.dump() == never.dump()


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


def test_event_id_that_is_not_text_is_rejected():
    pipeline = Pipeline(weekly_config())
    pipeline.process_event(Event("e", ("alice", stamp(0, 0, 9), "ok-1")))
    before = pipeline.dump()
    for bad in (5, None):
        with pytest.raises(InputError, match=r"expected e\(userId, eventDate, eventId\)"):
            pipeline.process_event(Event("e", ("alice", stamp(0, 0, 10), bad)))
    assert pipeline.dump() == before
    assert pipeline.counters.events == 1


def test_a_routing_value_unequal_to_itself_is_bad_input():
    pipeline = Pipeline(weekly_config())
    for nan in (float("nan"), float("nan")):
        with pytest.raises(InputError, match="not equal to itself"):
            pipeline.process_event(Event("e", (nan, stamp(0, 0, 9), "x")))
    assert pipeline.user_count == 0
    assert pipeline.counters.events == 0


def test_unparseable_date_is_counted_and_skipped():
    pipeline = Pipeline(weekly_config())
    pipeline.process_event(Event("e", ("alice", stamp(0, 0, 9), "ok-1")))
    before = pipeline.dump()
    for bad in ("yesterday", None, 5):  # None and 5 are not text at all
        assert pipeline.process_event(Event("e", ("alice", bad, "bad-1"))) == []
    assert pipeline.dump() == before
    assert pipeline.counters.skipped_dates == 3
    assert pipeline.counters.events == 1


def test_an_existing_users_event_checks_one_state_shape(monkeypatch):
    # Only the root state is checked against its node; the states nested in
    # it were built by the engine itself.
    pipeline = Pipeline(weekly_config())
    pipeline.process_event(Event("e", ("alice", stamp(0, 0, 9), "ok-1")))
    check = engine._check_shape
    calls = []

    def counting(spec, state):
        calls.append(type(spec).__name__)
        check(spec, state)

    monkeypatch.setattr(engine, "_check_shape", counting)
    pipeline.process_event(Event("e", ("alice", stamp(0, 0, 10), "ok-2")))
    assert calls == ["QuantifiedInterleave"]


# ------------------------------------------------------------- vote injection

def test_alternative_vote_strategy_is_honoured(monkeypatch):
    # The vote only decides; the pipeline rebinds the cast to () after each
    # vote, so every vote sees the three votes of its own event.
    monkeypatch.setattr(pipeline_module, "majority_vote", lambda cast: True)
    pipeline = Pipeline(weekly_config())
    records = run(pipeline, weekday_events("fred", 4))
    assert pipeline.counters.alerts == len(records) > 0
    assert all(r.cast == 3 and r.alert for r in records)
