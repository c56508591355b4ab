"""The per-user detection pipeline, assembled from engine operators.

Every event ``e(userId, eventDate, eventId)`` is routed to its user's
isolated instance of the same machine:

* a scoring side that asks each detector to (re)train when its window has a
  new version and enough samples (guard ``g1``) and to score the event when
  it has ever been trained (guard ``g2``), appending each ``(detector,
  Score)`` pair to the user's cast list; the vote then decides whether the
  cast raises an alert, and the pipeline records a ``ScoredEvent`` and
  empties the list;
* a parsing side that folds the event into the user's sliding window.

The scoring side runs first, so an event is always scored against a state
that does not include itself.  ``Pipeline.process_event`` parses each
event's date once and binds it as ``when`` at the root of the step, where
both sides read it.

The ingest, train, detect and vote actions mutate nested values in place
(the window with its samples, the detector map, the cast list), so they are
not transactional: if a step raises after ``train_action`` has run, the
engine leaves the user's machine state as it was, but the refitted detector
stays in its detector map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .detectors import DEFAULT_DETECTORS, Score, init_map
from .engine import (
    UNBOUNDED,
    Automaton,
    Call,
    Capture,
    Event,
    EventPattern,
    Flow,
    Node,
    QuantifiedFlow,
    QuantifiedInterleave,
    Ref,
    Transition,
    dump_state,
    init,
    step,
)
from .ensemble import majority_vote
from .errors import ConfigurationError, EngineError, InputError
from .windowing import (
    DEFAULT_DATE_FORMAT,
    Window,
    WindowConfig,
    formatting_data,
    parse_timestamp,
    training_set,
)

#: Minimum training-set size before the first fit, unless configured.
DEFAULT_MIN_TRAINING = 30


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass
class PipelineConfig:
    """Everything needed to build and run one pipeline."""

    window: WindowConfig = field(default_factory=lambda: WindowConfig(10, 5, "week"))
    detectors: dict[str, dict] = field(
        default_factory=lambda: {name: {} for name in DEFAULT_DETECTORS}
    )
    date_format: str = DEFAULT_DATE_FORMAT
    min_training_instances: int = DEFAULT_MIN_TRAINING
    activity_filter: str | None = None

    def __post_init__(self) -> None:
        if self.min_training_instances < 1:
            raise ConfigurationError("min_training_instances must be positive")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "PipelineConfig":
        known = {
            "window_parameters",
            "detectors",
            "date_format",
            "activity_filter",
            "min_training_instances",
        }
        unknown = set(_mapping(raw, "configuration")) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
        wp = _mapping(raw.get("window_parameters", {}), "window_parameters")
        extra = set(wp) - {"window_size", "sliding_size", "type"}
        if extra:
            raise ConfigurationError(f"unknown window parameters: {sorted(extra)}")
        window = WindowConfig(
            window_size=_integer(wp.get("window_size", 10), "window_size"),
            sliding_size=_integer(wp.get("sliding_size", 5), "sliding_size"),
            type=wp.get("type", "week"),
        )
        detectors = raw.get("detectors")
        if detectors is None:
            detectors = {name: {} for name in DEFAULT_DETECTORS}
        date_format = raw.get("date_format", DEFAULT_DATE_FORMAT)
        activity_filter = raw.get("activity_filter")
        if not isinstance(date_format, str):
            raise ConfigurationError(f"date_format must be a string, got {date_format!r}")
        if activity_filter is not None and not isinstance(activity_filter, str):
            raise ConfigurationError(f"activity_filter must be a string, got {activity_filter!r}")
        return cls(
            window=window,
            detectors={
                name: dict(_mapping(params or {}, f"detector {name!r} parameters"))
                for name, params in _mapping(detectors, "detectors").items()
            },
            date_format=date_format,
            min_training_instances=_integer(
                raw.get("min_training_instances", DEFAULT_MIN_TRAINING), "min_training_instances"
            ),
            activity_filter=activity_filter,
        )

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"configuration is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict[str, Any]:
        return {
            "window_parameters": {
                "window_size": self.window.window_size,
                "sliding_size": self.window.sliding_size,
                "type": self.window.type,
            },
            "detectors": {name: dict(p) for name, p in sorted(self.detectors.items())},
            "date_format": self.date_format,
            "min_training_instances": self.min_training_instances,
            "activity_filter": self.activity_filter,
        }


@dataclass
class RunCounters:
    events: int = 0
    alerts: int = 0
    retrains: int = 0
    skipped_dates: int = 0


@dataclass
class ScoredEvent:
    """One scored event: everything the voters saw, and the vote's decision.

    The alerting ones are the alerts: ``process_event`` returns them, and
    an alert line is the record cut down to its first four fields.
    """

    event_id: str
    user_id: str
    event_date: str
    votes: int
    cast: int
    alert: bool
    detectors: dict[str, dict[str, float]]

    def to_record(self) -> dict[str, Any]:
        return {
            "eventId": self.event_id,
            "userId": self.user_id,
            "eventDate": self.event_date,
            "votes": self.votes,
            "cast": self.cast,
            "alert": self.alert,
            "detectors": {name: dict(v) for name, v in sorted(self.detectors.items())},
        }


VoteFn = Callable[[Sequence[tuple[str, Score]]], bool]


def training_guard(config: PipelineConfig) -> Callable[[Mapping[str, Any]], bool]:
    """g1: the window has a version the detector has not seen, and enough data."""

    def g1(env: Mapping[str, Any]) -> bool:
        window = env["window"]
        if window.version < 1:
            return False  # never train on a window that has not filled once
        detector = env["detectors"][env["d"]]
        if window.version <= detector.trained_version:
            return False
        return len(training_set(window)) >= config.min_training_instances

    return g1


def detection_guard() -> Callable[[Mapping[str, Any]], bool]:
    """g2: the detector has been trained at least once."""

    def g2(env: Mapping[str, Any]) -> bool:
        return env["detectors"][env["d"]].is_trained

    return g2


def _loop(name: str, pattern: EventPattern, guard=None, action=None) -> Automaton:
    return Automaton(
        name=name,
        states=("s0",),
        initial="s0",
        finals=("s0",),
        transitions=[Transition(source="s0", pattern=pattern, target="s0", guard=guard, action=action)],
    )


def build_spec(
    config: PipelineConfig,
    *,
    counters: RunCounters | None = None,
    vote_fn: VoteFn | None = None,
    score_sink: Callable[[ScoredEvent], None] | None = None,
) -> tuple[QuantifiedInterleave, dict[str, Node]]:
    """Assemble the machine tree for ``config``.

    Returns the root node and the definitions map needed to resolve calls.
    """
    if not config.detectors:
        raise ConfigurationError("at least one detector must be configured")
    names = sorted(config.detectors)
    counters = counters if counters is not None else RunCounters()
    vote = vote_fn if vote_fn is not None else majority_vote

    # Fail fast on bad detector configuration, on a training minimum that
    # would let g1 hand a detector fewer samples than it can fit, and on a
    # sliding instance window too small ever to reach that minimum: when g1
    # looks, it holds at most window_size + sliding_size - 1 samples.
    needed = max(detector.min_samples for detector in init_map(config.detectors).values())
    if config.min_training_instances < needed:
        raise ConfigurationError(
            f"min_training_instances={config.min_training_instances} is below "
            f"{needed}, the fewest samples the configured detectors can fit"
        )
    window = config.window
    if window.type == "instance" and window.sliding_size > 0:
        held = window.window_size + window.sliding_size - 1
        if held < config.min_training_instances:
            raise ConfigurationError(
                f"an instance window of {window.window_size} sliding by "
                f"{window.sliding_size} holds at most {held} samples, below "
                f"min_training_instances={config.min_training_instances}"
            )

    pattern = EventPattern(
        "e", (Ref("userId"), Capture("eventDate", str), Capture("eventId", str))
    )

    def ingest_action(env) -> None:
        formatting_data(env["window"], env["when"])

    def train_action(env) -> None:
        d = env["d"]
        detectors = env["detectors"]
        window = env["window"]
        detectors[d] = detectors[d].fit_partial(training_set(window), version=window.version)
        counters.retrains += 1

    def detect_action(env) -> None:
        when = env["when"]
        minute = when.hour * 60 + when.minute
        d = env["d"]
        env["scores"].append((d, env["detectors"][d].score_partial(minute, env["eventId"])))

    def vote_action(env) -> None:
        cast: list[tuple[str, Score]] = env["scores"]
        if not cast:
            return
        votes = sum(score.binary for _, score in cast)
        detectors = {name: {"raw": score.raw, "binary": score.binary} for name, score in cast}
        alert = bool(vote(cast))
        if score_sink is not None:
            score_sink(
                ScoredEvent(
                    event_id=env["eventId"],
                    user_id=env["userId"],
                    event_date=env["eventDate"],
                    votes=votes,
                    cast=len(cast),
                    alert=alert,
                    detectors=detectors,
                )
            )
        cast.clear()

    detector_instance = Flow(
        name="detector_instance",
        left=_loop("training", pattern, guard=training_guard(config), action=train_action),
        right=_loop("detection", pattern, guard=detection_guard(), action=detect_action),
    )
    defs: dict[str, Node] = {"detector_instance": detector_instance}

    scoring = Flow(
        name="scoring",
        attrs=[("scores", lambda env: [])],
        left=QuantifiedFlow(
            name="detectors",
            var="d",
            domain=tuple(names),
            attrs=[("detectors", lambda env: init_map(config.detectors))],
            body=Call(name="detector", callee="detector_instance"),
        ),
        right=_loop("voting", pattern, action=vote_action),
    )
    per_user = Flow(
        name="per_user",
        attrs=[("window", lambda env: Window(config.window))],
        left=scoring,
        right=_loop("parser", pattern, action=ingest_action),
    )
    root = QuantifiedInterleave(name="users", var="userId", domain=UNBOUNDED, body=per_user)
    return root, defs


class Pipeline:
    """Owns a built machine, its runtime state and the run bookkeeping."""

    def __init__(self, config: PipelineConfig | None = None, vote_fn: VoteFn | None = None):
        self.config = config if config is not None else PipelineConfig()
        self.counters = RunCounters()
        self._score_buffer: list[ScoredEvent] = []
        self.spec, self.defs = build_spec(
            self.config,
            counters=self.counters,
            vote_fn=vote_fn,
            score_sink=self._score_buffer.append,
        )
        self.state = init(self.spec, defs=self.defs)

    def process_event(self, event: Event) -> list[ScoredEvent]:
        """Run one event through the machine; return its alerting scored events."""
        if event.name != "e" or len(event.args) != 3:
            raise InputError(f"expected e(userId, eventDate, eventId), got {event}")
        try:
            when = parse_timestamp(event.args[1], self.config.date_format)
        except InputError:
            self.counters.skipped_dates += 1
            return []
        scored = len(self._score_buffer)
        result = step(self.spec, self.state, event, {"when": when}, defs=self.defs)
        if result is None:
            raise EngineError(f"pipeline refused event {event!r}")
        self.state, _ = result
        self.counters.events += 1
        fresh = [record for record in self._score_buffer[scored:] if record.alert]
        self.counters.alerts += len(fresh)
        return fresh

    def drain_scores(self) -> list[ScoredEvent]:
        """Return and clear the scored events accumulated since last call."""
        out = self._score_buffer[:]
        self._score_buffer.clear()
        return out

    @property
    def user_count(self) -> int:
        return len(self.state.instances)

    @property
    def stale_drops(self) -> int:
        """Late events dropped, over all users, because their period had slid out."""
        return sum(instance.env["window"].stale_drops for instance in self.state.instances.values())

    def window_for(self, user: str) -> Window:
        return self.state.instances[user].env["window"]

    def training_data_for(self, user: str) -> dict[int, list[int]]:
        return self.window_for(user).samples

    def dump(self) -> str:
        return dump_state(self.state)
