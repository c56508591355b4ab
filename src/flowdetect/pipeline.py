"""The per-user detection pipeline, assembled from engine operators.

Every event ``e(userId, eventDate, eventId)`` is routed to its user's
isolated instance of the same machine:

* a scoring side that asks each detector to (re)train when its window has a
  new version and enough samples (guard ``g1``), score the event when it
  has ever been trained (guard ``g2``), and then submits the collected
  votes to the alert strategy;
* a parsing side that folds the event into the user's sliding window.

The scoring side runs first, so an event is always scored against a state
that does not include itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping

from .detectors import DEFAULT_DETECTORS, init_map
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
from .ensemble import Alert, ScoreBoard, majority_vote
from .errors import ConfigurationError, EngineError, InputError
from .windowing import (
    DEFAULT_DATE_FORMAT,
    TrainingData,
    Window,
    WindowConfig,
    formatting_data,
    parse_timestamp,
    training_set,
)

#: Minimum training-set size before the first fit, unless configured.
DEFAULT_MIN_TRAINING = 30


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
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
        wp = raw.get("window_parameters", {})
        extra = set(wp) - {"window_size", "sliding_size", "type"}
        if extra:
            raise ConfigurationError(f"unknown window parameters: {sorted(extra)}")
        window = WindowConfig(
            window_size=int(wp.get("window_size", 10)),
            sliding_size=int(wp.get("sliding_size", 5)),
            type=wp.get("type", "week"),
        )
        detectors = raw.get("detectors")
        if detectors is None:
            detectors = {name: {} for name in DEFAULT_DETECTORS}
        return cls(
            window=window,
            detectors={name: dict(params or {}) for name, params in detectors.items()},
            date_format=raw.get("date_format", DEFAULT_DATE_FORMAT),
            min_training_instances=int(raw.get("min_training_instances", DEFAULT_MIN_TRAINING)),
            activity_filter=raw.get("activity_filter"),
        )

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except json.JSONDecodeError as exc:
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
    """One line of the scores output: everything the voters saw."""

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


VoteFn = Callable[..., list[Alert]]


def training_guard(config: PipelineConfig) -> Callable[[Mapping[str, Any]], bool]:
    """g1: the window has a version the detector has not seen, and enough data."""

    def g1(env: Mapping[str, Any]) -> bool:
        window = env["window"]
        if window.version < 1:
            return False  # never train on a window that has not filled once
        detector = env["detectors"][env["d"]]
        if window.version <= detector.trained_version:
            return False
        return len(training_set(env["data"])) >= config.min_training_instances

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

    def fresh_detectors(env: Mapping[str, Any]) -> dict:
        return init_map(
            kmeans_params=config.detectors.get("kmeans"),
            kde_params=config.detectors.get("kde"),
            lof_params=config.detectors.get("lof"),
            detectors=names,
        )

    # Fail fast on bad detector configuration, and on a training minimum
    # that would let g1 hand a detector fewer samples than it can fit.
    needed = max(detector.min_samples for detector in fresh_detectors({}).values())
    if config.min_training_instances < needed:
        raise ConfigurationError(
            f"min_training_instances={config.min_training_instances} is below "
            f"{needed}, the fewest samples the configured detectors can fit"
        )

    @lru_cache(maxsize=4096)
    def parse(text: str):
        return parse_timestamp(text, config.date_format)

    pattern = EventPattern(
        "e", (Ref("userId"), Capture("eventDate", str), Capture("eventId", str))
    )

    def ingest_action(env) -> None:
        formatting_data(env["data"], env["window"], parse(env["eventDate"]))

    def train_action(env) -> None:
        d = env["d"]
        detectors = env["detectors"]
        detectors[d] = detectors[d].fit_partial(
            training_set(env["data"]), version=env["window"].version
        )
        counters.retrains += 1

    def detect_action(env) -> None:
        when = parse(env["eventDate"])
        minute = when.hour * 60 + when.minute
        d = env["d"]
        env["scores"].add(d, env["detectors"][d].score_partial(minute, env["eventId"]))

    def vote_action(env) -> None:
        board: ScoreBoard = env["scores"]
        cast = len(board)
        snapshot = {
            name: {"raw": raw, "binary": binary}
            for (name, raw), binary in zip(board.raw_scores, board.scores)
        }
        votes = sum(board.scores)
        alerts = env["alerts"]
        before = len(alerts)
        vote(board, alerts, env["eventId"], env["eventDate"], user_id=env["userId"])
        if cast and score_sink is not None:
            score_sink(
                ScoredEvent(
                    event_id=env["eventId"],
                    user_id=env["userId"],
                    event_date=env["eventDate"],
                    votes=votes,
                    cast=cast,
                    alert=len(alerts) > before,
                    detectors=snapshot,
                )
            )

    detector_instance = Flow(
        name="detector_instance",
        left=_loop("training", pattern, guard=training_guard(config), action=train_action),
        right=_loop("detection", pattern, guard=detection_guard(), action=detect_action),
    )
    defs: dict[str, Node] = {"detector_instance": detector_instance}

    scoring = Flow(
        name="scoring",
        attrs=[("scores", lambda env: ScoreBoard())],
        left=QuantifiedFlow(
            name="detectors",
            var="d",
            domain=tuple(names),
            attrs=[("detectors", fresh_detectors)],
            body=Call(name="detector", callee="detector_instance"),
        ),
        right=_loop("voting", pattern, action=vote_action),
    )
    per_user = Flow(
        name="per_user",
        attrs=[
            ("window", lambda env: Window(config.window)),
            ("data", lambda env: {}),
            ("alerts", lambda env: []),
        ],
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
        self.alerts: list[Alert] = []
        self._alerts_seen: dict[str, int] = {}

    def process_event(self, event: Event) -> list[Alert]:
        """Run one event through the machine; return the alerts it raised."""
        if event.name != "e" or len(event.args) != 3:
            raise InputError(f"expected e(userId, eventDate, eventId), got {event}")
        user, event_date, _ = event.args
        try:
            parse_timestamp(event_date, self.config.date_format)
        except InputError:
            self.counters.skipped_dates += 1
            return []
        result = step(self.spec, self.state, event, defs=self.defs)
        if result is None:
            raise EngineError(f"pipeline refused event {event!r}")
        self.state, _ = result
        self.counters.events += 1
        per_user = self.state.instances[user].env["alerts"]
        seen = self._alerts_seen.get(user, 0)
        fresh = list(per_user[seen:])
        self._alerts_seen[user] = len(per_user)
        self.alerts.extend(fresh)
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

    def window_for(self, user: str) -> Window:
        return self.state.instances[user].env["window"]

    def training_data_for(self, user: str) -> TrainingData:
        return self.state.instances[user].env["data"]

    def dump(self) -> str:
        return dump_state(self.state)
