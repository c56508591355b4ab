"""The per-user detection pipeline, assembled from engine operators.

Every event ``e(userId, eventDate, eventId)`` is routed to its user's
isolated instance of the same machine:

* a scoring side that asks each detector to (re)train when its window has a
  new version and enough samples (guard ``g1``) and to score the event when
  it has ever been trained (guard ``g2``), extending the user's cast, a
  tuple of ``(detector, Score)`` pairs; the vote then decides whether the
  cast raises an alert, binds the event's ``ScoredEvent`` as ``scored`` and
  rebinds the cast to ``()``;
* a parsing side that folds the event into the user's sliding window.

The scoring side runs first, so an event is always scored against a state
that does not include itself.  ``Pipeline.process_event`` parses each
event's date once and binds it as ``when`` at the root of the step, where
both sides read it, next to ``fits``, which each fit counts up.  The step
hands ``fits`` and ``scored`` back in its enclosing environment, and
``process_event`` counts and keeps them only once the step has succeeded.

Actions rebind state rather than mutate it: a fit replaces the user's
detector map with a new one, and the cast is a tuple.  Only the window is
folded in place, by the last action of every step, which cannot raise once
it writes, so a step that raises changes nothing.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .detectors import DEFAULT_DETECTORS, Score, init_map
from .engine import (
    UNBOUNDED,
    Automaton,
    Call,
    Capture,
    Env,
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
from .errors import (
    ConfigurationError,
    EngineError,
    FlowdetectError,
    InputError,
    checked_integer,
)
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


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to build and run one pipeline.

    Every rule runs when a config is made, in code or by ``from_dict``.  A
    config is frozen, down to each detector's parameters: the detector map
    is kept as read-only copies.  ``dataclasses.replace`` makes a checked
    copy.
    """

    window: WindowConfig = WindowConfig()
    detectors: Mapping[str, Mapping[str, Any]] = field(
        default_factory=lambda: {name: {} for name in DEFAULT_DETECTORS}
    )
    date_format: str = DEFAULT_DATE_FORMAT
    min_training_instances: int = DEFAULT_MIN_TRAINING
    activity_filter: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.window, WindowConfig):
            raise ConfigurationError(f"window must be a WindowConfig, got {self.window!r}")
        if not isinstance(self.date_format, str):
            raise ConfigurationError(f"date_format must be a string, got {self.date_format!r}")
        if self.activity_filter is not None and not isinstance(self.activity_filter, str):
            raise ConfigurationError(f"activity_filter must be a string, got {self.activity_filter!r}")
        frozen = {
            name: MappingProxyType(dict(_mapping(params, f"detector {name!r} parameters")))
            for name, params in _mapping(self.detectors, "detectors").items()
        }
        object.__setattr__(self, "detectors", MappingProxyType(frozen))
        if checked_integer(self.min_training_instances, "min_training_instances") < 1:
            raise ConfigurationError("min_training_instances must be positive")
        if not self.detectors:
            raise ConfigurationError("at least one detector must be configured")

        # Refuse bad detector parameters, a training minimum that would let
        # g1 hand a detector fewer samples than it can fit, a sliding
        # instance window too small ever to reach that minimum (when g1
        # looks, it holds at most window_size + sliding_size - 1 samples),
        # and a date format that cannot read back the date, hour and minute of
        # a timestamp it wrote.
        needed = max(detector.min_samples for detector in init_map(self.detectors).values())
        if self.min_training_instances < needed:
            raise ConfigurationError(
                f"min_training_instances={self.min_training_instances} is below "
                f"{needed}, the fewest samples the configured detectors can fit"
            )
        window = self.window
        if window.type == "instance" and window.sliding_size > 0:
            held = window.window_size + window.sliding_size - 1
            if held < self.min_training_instances:
                raise ConfigurationError(
                    f"an instance window of {window.window_size} sliding by "
                    f"{window.sliding_size} holds at most {held} samples, below "
                    f"min_training_instances={self.min_training_instances}"
                )
        # The default layout is known to read back, and checking it would
        # import _strptime, which its parses never need.
        if self.date_format != DEFAULT_DATE_FORMAT:
            # An afternoon hour, so a 12-hour %I without %p reads back wrong.
            probe = datetime(2010, 1, 4, 20, 30, 15, tzinfo=timezone.utc)
            try:
                back = datetime.strptime(probe.strftime(self.date_format), self.date_format)
            except ValueError as exc:
                raise ConfigurationError(
                    f"date_format {self.date_format!r} cannot parse a timestamp: {exc}"
                ) from None
            # A format without one of these fields reads back 1900-01-01 or
            # 00:00 for it, so every row of a log would be skipped or misread.
            if (back.date(), back.hour, back.minute) != (probe.date(), probe.hour, probe.minute):
                raise ConfigurationError(
                    f"date_format {self.date_format!r} does not carry a timestamp's "
                    f"date, hour and minute"
                )

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
        fields = dict(raw)
        wp = _mapping(fields.pop("window_parameters", {}), "window_parameters")
        extra = set(wp) - {"window_size", "sliding_size", "type"}
        if extra:
            raise ConfigurationError(f"unknown window parameters: {sorted(extra)}")
        fields["window"] = WindowConfig(**wp)
        detectors = fields.pop("detectors", None)
        if detectors is not None:  # null means the defaults
            if isinstance(detectors, Mapping):
                # A detector listed with null parameters takes its defaults.
                detectors = {
                    name: {} if params is None else params for name, params in detectors.items()
                }
            fields["detectors"] = detectors
        return cls(**fields)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        # A byte-order mark that opens the file is skipped, as the CSV readers skip one.
        with open(path, encoding="utf-8-sig") as handle:
            try:
                raw = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"configuration is not valid JSON: {exc}") from exc
            except RecursionError as exc:  # nested deeper than the decoder goes
                raise ConfigurationError(f"configuration is not valid JSON: {exc}") from None
        return cls.from_dict(raw)


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
    an alert line, ``to_alert``, is the record cut down to its first four
    fields.
    """

    event_id: str
    user_id: str
    event_date: str
    votes: int
    cast: int
    alert: bool
    detectors: dict[str, dict[str, float]]

    def to_alert(self) -> dict[str, Any]:
        return {
            "eventId": self.event_id,
            "userId": self.user_id,
            "eventDate": self.event_date,
            "votes": self.votes,
        }

    def to_record(self) -> dict[str, Any]:
        return {
            **self.to_alert(),
            "cast": self.cast,
            "alert": self.alert,
            "detectors": {name: dict(v) for name, v in sorted(self.detectors.items())},
        }


def training_guard(config: PipelineConfig) -> Callable[[Mapping[str, Any]], bool]:
    """g1: the window has a version the detector has not seen, and enough data."""

    def g1(env: Mapping[str, Any]) -> bool:
        window = env["window"]
        if window.version < 1:
            return False  # never train on a window that has not filled once
        detector = env["detectors"][env["d"]]
        if window.version <= detector.trained_version:
            return False
        return sum(map(len, window.samples.values())) >= config.min_training_instances

    return g1


def detection_guard(env: Mapping[str, Any]) -> bool:
    """g2: the detector has been trained at least once."""
    return env["detectors"][env["d"]].is_trained


def _loop(name: str, pattern: EventPattern, guard=None, action=None) -> Automaton:
    return Automaton(
        name=name,
        states=("s0",),
        initial="s0",
        finals=("s0",),
        transitions=[Transition(source="s0", pattern=pattern, target="s0", guard=guard, action=action)],
    )


def build_spec(config: PipelineConfig) -> tuple[QuantifiedInterleave, dict[str, Node]]:
    """Assemble the machine tree for ``config``.

    Returns the root node and ``{"detector_instance": ...}``, the callee its
    detector call holds.  Nothing in this package reads that map; the
    benchmark tracer (``perfbench/tracing.py``) finds the detector
    instance's guards and actions only through it, as it walks no callee.
    It checks nothing: ``config`` checked itself when it was made.  A step
    of the tree reads ``when`` and adds each fit to ``fits``, both bound by
    its caller, and binds a scored event as ``scored``.  The vote is the
    ``majority_vote`` this module holds when the tree is built.
    """
    vote = majority_vote
    # Unfitted detectors are shared by every user, read-only: a fit replaces the map.
    unfitted = Env(init_map(config.detectors))

    pattern = EventPattern(
        "e", (Ref("userId"), Capture("eventDate", str), Capture("eventId", str))
    )

    def ingest_action(env) -> None:
        formatting_data(env["window"], env["when"])

    def train_action(env) -> None:
        d = env["d"]
        detectors = env["detectors"]
        window = env["window"]
        fitted = detectors[d].fit_partial(training_set(window), version=window.version)
        env["detectors"] = {**detectors, d: fitted}
        env["fits"] += 1

    def detect_action(env) -> None:
        when = env["when"]
        minute = when.hour * 60 + when.minute
        d = env["d"]
        env["scores"] += ((d, env["detectors"][d].score_partial(minute)),)

    def vote_action(env) -> None:
        cast: tuple[tuple[str, Score], ...] = env["scores"]
        if not cast:
            return
        env["scored"] = ScoredEvent(
            event_id=env["eventId"],
            user_id=env["userId"],
            event_date=env["eventDate"],
            votes=sum(score.binary for _, score in cast),
            cast=len(cast),
            alert=bool(vote(cast)),
            detectors={name: {"raw": score.raw, "binary": score.binary} for name, score in cast},
        )
        env["scores"] = ()

    detector_instance = Flow(
        name="detector_instance",
        left=_loop("training", pattern, guard=training_guard(config), action=train_action),
        right=_loop("detection", pattern, guard=detection_guard, action=detect_action),
    )
    defs: dict[str, Node] = {"detector_instance": detector_instance}

    scoring = Flow(
        name="scoring",
        attrs=[("scores", ())],
        left=QuantifiedFlow(
            name="detectors",
            var="d",
            domain=tuple(config.detectors),  # held sorted
            attrs=[("detectors", unfitted)],
            body=Call(name="detector", callee=detector_instance),
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
    """Owns a built machine, its runtime state and the run bookkeeping.

    ``process_event`` keeps each scored event until ``drain_scores`` returns
    it, so a caller that never drains holds every one.

    The detectors import numpy at their first fit, which may come late in a
    stream or never, so a pipeline is refused when it is built if numpy is
    not installed: a run fails before its first event, not partway through.
    """

    def __init__(self, config: PipelineConfig | None = None):
        if importlib.util.find_spec("numpy") is None:
            raise FlowdetectError("the detectors need numpy, which is not installed")
        self.config = config if config is not None else PipelineConfig()
        self.counters = RunCounters()
        self._score_buffer: list[ScoredEvent] = []
        self.spec, self.defs = build_spec(self.config)
        self.state = init(self.spec)

    def process_event(self, event: Event) -> list[ScoredEvent]:
        """Run one event through the machine; return its alerting scored events."""
        if event.name != "e" or len(event.args) != 3 or not isinstance(event.args[2], str):
            raise InputError(f"expected e(userId, eventDate, eventId), got {event}")
        try:
            when = parse_timestamp(event.args[1], self.config.date_format)
        except InputError:
            self.counters.skipped_dates += 1
            return []
        result = step(self.spec, self.state, event, {"when": when, "fits": 0})
        if result is None:
            raise EngineError(f"pipeline refused event {event!r}")
        self.state, out = result
        self.counters.events += 1
        self.counters.retrains += out["fits"]
        scored = out.get("scored")
        if scored is not None:
            self._score_buffer.append(scored)
            if scored.alert:
                self.counters.alerts += 1
                return [scored]
        return []

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
