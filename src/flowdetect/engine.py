"""Interpreter for trees of composable state machines.

A specification is a tree of nodes: plain automata at the leaves, combined by
``Flow`` (both operands observe every event), ``QuantifiedFlow`` (one operand
instance per element of a finite domain), ``QuantifiedInterleave`` (one
isolated operand instance per routing value, created lazily for unbounded
domains) and ``Call`` (delegation to a named specification with argument
binding).

Execution is a labelled transition relation over runtime states.  Each
step threads one mutable scope of variable bindings down the tree.  Entering
a node binds its attributes (a call's parameters, a quantified variable)
into the scope and remembers what they shadow; leaving it runs the node
action on the scope, pops the node's attributes into its new local
environment and restores what they shadowed, so every other name travels
outward to the caller.  A refusing node pops its bindings and leaves the
scope as it found it.  Guards must be side-effect free.

Ownership: a successful step consumes the state it is given (the instance
maps of quantified nodes are updated in place once the whole step has
succeeded), and a refused step, or one that raises, leaves it untouched.
States change by copy: a step hands back every part of the state that did
not change as the same object, an environment whose attributes all still
hold the same objects included, so an instance at rest costs no
allocation.  The at-rest states of attribute-free nodes (automata, flows
and argument-less calls whose parts are themselves such states) are
shared between instances and between machines in one process, so callers
must treat every state as read-only.  Values bound in environments are not
copied, so an action that mutates one in place (a window and the samples
it holds, a detector map, a list of cast votes) changes it for good, even
when a later part of the step fails.

Determinism: automaton transitions are tried in declaration order and the
first enabled one fires; quantified domains are iterated in ascending order
of their values.  ``QuantifiedFlow.order_hook`` exists so tests can force a
different permutation.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any, Callable

from .errors import EngineError, InputError, SpecificationError

Guard = Callable[[Mapping[str, Any]], bool]
Action = Callable[[MutableMapping[str, Any]], None]


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class Env(Mapping):
    """Immutable map from variable names to values.

    ``override`` implements right-biased union.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Any] | None = None):
        self._bindings: dict[str, Any] = dict(bindings) if bindings else {}

    @classmethod
    def _wrap(cls, bindings: dict[str, Any]) -> Env:
        env = cls.__new__(cls)
        env._bindings = bindings
        return env

    def override(self, other: Mapping[str, Any]) -> Env:
        if not other:
            return self
        merged = dict(self._bindings)
        merged.update(other)
        return Env._wrap(merged)

    def __getitem__(self, name: str) -> Any:
        return self._bindings[name]

    def __iter__(self):
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Env):
            return self._bindings == other._bindings
        if isinstance(other, Mapping):
            return self._bindings == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Env({self._bindings!r})"


EMPTY_ENV = Env()


# ---------------------------------------------------------------------------
# Events and patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """A named occurrence with positional arguments."""

    name: str
    args: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("event name must be non-empty")


@dataclass(frozen=True)
class Capture:
    """Pattern slot that binds the event argument to ``name``.

    An optional ``type`` restricts the match to arguments of that type.
    """

    name: str
    type: type | tuple[type, ...] | None = None


@dataclass(frozen=True)
class Ref:
    """Pattern slot that must equal the current value of variable ``name``."""

    name: str


@dataclass(frozen=True)
class EventPattern:
    """Event name plus one slot per argument; literals match by equality."""

    name: str
    slots: tuple[Any, ...] = ()

    def match(self, event: Event, env: Mapping[str, Any]) -> dict[str, Any] | None:
        """Return capture bindings if ``event`` matches, else ``None``."""
        if event.name != self.name or len(event.args) != len(self.slots):
            return None
        captures: dict[str, Any] = {}
        for slot, arg in zip(self.slots, event.args):
            if isinstance(slot, Capture):
                if slot.type is not None and not isinstance(arg, slot.type):
                    return None
                captures[slot.name] = arg
            elif isinstance(slot, Ref):
                if slot.name not in env:
                    raise SpecificationError(
                        f"pattern for {self.name!r} references unbound variable {slot.name!r}"
                    )
                if env[slot.name] != arg:
                    return None
            elif slot != arg:
                return None
        return captures


# ---------------------------------------------------------------------------
# Specification nodes
# ---------------------------------------------------------------------------


class _UnboundedDomain:
    def __repr__(self) -> str:
        return "UNBOUNDED"


#: Marker domain for ``QuantifiedInterleave`` over an open set of values.
UNBOUNDED = _UnboundedDomain()

#: Attribute initialisers may be plain values (stored as-is) or callables
#: evaluated against the enclosing environment, one fresh value per instance.
AttrInit = Any


@dataclass(kw_only=True)
class Node:
    """Common header of every specification node.

    ``params`` names the values a ``Call`` targeting this node must bind;
    they are visible to the node like read-only enclosing variables.
    """

    name: str
    params: Sequence[str] = ()
    attrs: Sequence[tuple[str, AttrInit]] = ()
    action: Action | None = None

    def attr_names(self) -> set[str]:
        return {n for n, _ in self.attrs}


@dataclass(kw_only=True)
class Transition:
    source: str
    pattern: EventPattern
    target: str
    guard: Guard | None = None
    action: Action | None = None


@dataclass(kw_only=True)
class Automaton(Node):
    states: Sequence[str]
    initial: str
    finals: Sequence[str]
    transitions: Sequence[Transition] = ()


@dataclass(kw_only=True)
class Flow(Node):
    """Both operands observe each event; the step is accepted if either fires."""

    left: Node
    right: Node


@dataclass(kw_only=True)
class QuantifiedFlow(Node):
    """One operand instance per domain element, every instance sees each event."""

    var: str
    domain: Sequence[Any]
    body: Node
    order_hook: Callable[[list[Any]], Sequence[Any]] | None = None


@dataclass(kw_only=True)
class QuantifiedInterleave(Node):
    """One isolated operand instance per routing value.

    The routing value is taken from the event argument at ``route_arg``.  With
    ``domain=UNBOUNDED`` instances are created on first use.
    """

    var: str
    domain: Sequence[Any] | _UnboundedDomain
    body: Node
    route_arg: int = 0


@dataclass(kw_only=True)
class Call(Node):
    """Delegate to the specification registered under ``callee``.

    ``args`` binds the callee's parameters; values may be callables evaluated
    against the environment at initialisation time.
    """

    callee: str
    args: Mapping[str, AttrInit] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Runtime states
# ---------------------------------------------------------------------------


@dataclass
class AutomatonState:
    current: str
    env: Env


@dataclass
class FlowState:
    env: Env
    left: Any
    right: Any


@dataclass
class QuantifiedFlowState:
    env: Env
    instances: dict[Any, Any]


@dataclass
class QuantifiedInterleaveState:
    env: Env
    instances: dict[Any, Any]


@dataclass
class CallState:
    env: Env  # parameter bindings, constant for the life of the call
    inner: Any


#: Shared states of attribute-free nodes, keyed by structure: an automaton's
#: key is ``("automaton", current)``, a flow's ``("flow", left key, right
#: key)`` and an argument-less call's ``("call", inner key)``.  Keys hold
#: state names and tuples only, never an object that could be freed and its
#: id reused.  Entries live as long as the process; once the table holds
#: ``_AT_REST_LIMIT`` of them, further states are built unshared.
_AT_REST: dict[tuple, Any] = {}
_AT_REST_LIMIT = 4096


def _share(key: tuple, make: type, *fields: Any) -> Any:
    """The shared state under ``key``, built from ``fields`` on first use."""
    state = _AT_REST.get(key)
    if state is None:
        state = make(*fields)
        if len(_AT_REST) < _AT_REST_LIMIT:
            state = _AT_REST.setdefault(key, state)
    return state


def _rest_key(state: Any) -> tuple | None:
    """The table key of ``state`` if it is a shared at-rest state, else ``None``."""
    if state.env is not EMPTY_ENV:
        return None
    kind = type(state)
    if kind is AutomatonState:
        key = ("automaton", state.current)
    elif kind is FlowState:
        left = _rest_key(state.left)
        right = None if left is None else _rest_key(state.right)
        if right is None:
            return None
        key = ("flow", left, right)
    elif kind is CallState:
        inner = _rest_key(state.inner)
        if inner is None:
            return None
        key = ("call", inner)
    else:
        return None
    return key if _AT_REST.get(key) is state else None


def _automaton_state(current: str, env: Env) -> AutomatonState:
    if env is EMPTY_ENV and type(current) is str:
        return _share(("automaton", current), AutomatonState, current, env)
    return AutomatonState(current, env)


def _flow_state(env: Env, left: Any, right: Any) -> FlowState:
    if env is EMPTY_ENV:
        left_key = _rest_key(left)
        right_key = None if left_key is None else _rest_key(right)
        if right_key is not None:
            return _share(("flow", left_key, right_key), FlowState, env, left, right)
    return FlowState(env, left, right)


def _call_state(env: Env, inner: Any) -> CallState:
    if env is EMPTY_ENV:
        inner_key = _rest_key(inner)
        if inner_key is not None:
            return _share(("call", inner_key), CallState, env, inner)
    return CallState(env, inner)


def _check_shape(spec: Node, state: Any) -> Callable:
    """Return the stepper for ``spec`` once ``state`` is known to fit it."""
    kind = _NODE_KINDS.get(type(spec))
    if kind is None:
        raise SpecificationError(f"unknown node type {type(spec).__name__}")
    if not isinstance(state, kind[0]):
        raise EngineError(
            f"state {type(state).__name__} does not match node "
            f"{type(spec).__name__} {spec.name!r}"
        )
    return kind[1]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_spec(spec: Node, defs: Mapping[str, Node] | None = None) -> None:
    """Raise ``SpecificationError`` if the tree is not well formed."""
    defs = defs or {}
    _validate(spec, defs, call_chain=())


def _validate(spec: Node, defs: Mapping[str, Node], call_chain: tuple[str, ...]) -> None:
    names = [n for n, _ in spec.attrs]
    if len(names) != len(set(names)):
        raise SpecificationError(f"node {spec.name!r} declares duplicate attributes")

    if isinstance(spec, Automaton):
        states = set(spec.states)
        if spec.initial not in states:
            raise SpecificationError(f"automaton {spec.name!r}: unknown initial state")
        if not set(spec.finals) <= states:
            raise SpecificationError(f"automaton {spec.name!r}: final states not declared")
        for t in spec.transitions:
            if t.source not in states or t.target not in states:
                raise SpecificationError(
                    f"automaton {spec.name!r}: transition uses undeclared state"
                )
            caps = [s.name for s in t.pattern.slots if isinstance(s, Capture)]
            if len(caps) != len(set(caps)):
                raise SpecificationError(
                    f"automaton {spec.name!r}: duplicate capture in pattern"
                )
    elif isinstance(spec, Flow):
        _validate(spec.left, defs, call_chain)
        _validate(spec.right, defs, call_chain)
    elif isinstance(spec, QuantifiedFlow):
        if spec.var in spec.attr_names():
            raise SpecificationError(
                f"node {spec.name!r}: quantified variable shadows an attribute"
            )
        _validate(spec.body, defs, call_chain)
    elif isinstance(spec, QuantifiedInterleave):
        if spec.var in spec.attr_names():
            raise SpecificationError(
                f"node {spec.name!r}: quantified variable shadows an attribute"
            )
        if spec.route_arg < 0:
            raise SpecificationError(f"node {spec.name!r}: negative routing index")
        _validate(spec.body, defs, call_chain)
    elif isinstance(spec, Call):
        if spec.attrs or spec.action:
            raise SpecificationError(f"call {spec.name!r} must not declare attributes")
        if spec.callee in call_chain:
            raise SpecificationError(
                f"recursive call to {spec.callee!r} (chain {' -> '.join(call_chain)})"
            )
        callee = defs.get(spec.callee)
        if callee is None:
            raise SpecificationError(f"call {spec.name!r}: unresolved callee {spec.callee!r}")
        if set(spec.args) != set(callee.params):
            raise SpecificationError(
                f"call {spec.name!r}: argument names {sorted(spec.args)} do not match "
                f"parameters {sorted(callee.params)} of {spec.callee!r}"
            )
        _validate(callee, defs, call_chain + (spec.callee,))
    else:
        raise SpecificationError(f"unknown node type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------


def init(spec: Node, env: Env | None = None, defs: Mapping[str, Node] | None = None) -> Any:
    """Build the initial runtime state of ``spec``.

    Attribute initialisers are evaluated against ``env`` extended with the
    attributes already initialised on the same node, in declaration order.
    """
    defs = defs or {}
    validate_spec(spec, defs)
    return _init(spec, env or EMPTY_ENV, defs)


def _init_attrs(spec: Node, env: Env) -> Env:
    if not spec.attrs:
        return EMPTY_ENV
    bound: dict[str, Any] = {}
    for name, initial in spec.attrs:
        scope = env.override(bound)
        bound[name] = initial(scope) if callable(initial) else initial
    return Env._wrap(bound)


def _init(spec: Node, env: Env, defs: Mapping[str, Node]) -> Any:
    local = _init_attrs(spec, env)
    inner_env = env.override(local)
    if isinstance(spec, Automaton):
        return _automaton_state(spec.initial, local)
    if isinstance(spec, Flow):
        return _flow_state(local, _init(spec.left, inner_env, defs), _init(spec.right, inner_env, defs))
    if isinstance(spec, QuantifiedFlow):
        instances = {
            value: _init(spec.body, inner_env.override({spec.var: value}), defs)
            for value in sorted(spec.domain)
        }
        return QuantifiedFlowState(local, instances)
    if isinstance(spec, QuantifiedInterleave):
        if isinstance(spec.domain, _UnboundedDomain):
            return QuantifiedInterleaveState(local, {})
        instances = {
            value: _init(spec.body, inner_env.override({spec.var: value}), defs)
            for value in sorted(spec.domain)
        }
        return QuantifiedInterleaveState(local, instances)
    if isinstance(spec, Call):
        callee = defs[spec.callee]
        params: dict[str, Any] = {}
        for name, value in spec.args.items():
            params[name] = value(env) if callable(value) else value
        param_env = Env._wrap(params) if params else EMPTY_ENV
        return _call_state(param_env, _init(callee, env.override(param_env), defs))
    raise SpecificationError(f"unknown node type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Final-state test
# ---------------------------------------------------------------------------


def is_final(spec: Node, state: Any, defs: Mapping[str, Node] | None = None) -> bool:
    """True when the state satisfies the node's acceptance condition."""
    defs = defs or {}
    _check_shape(spec, state)
    if isinstance(spec, Automaton):
        return state.current in set(spec.finals)
    if isinstance(spec, Flow):
        return is_final(spec.left, state.left, defs) and is_final(spec.right, state.right, defs)
    if isinstance(spec, (QuantifiedFlow, QuantifiedInterleave)):
        return all(is_final(spec.body, inst, defs) for inst in state.instances.values())
    if isinstance(spec, Call):
        return is_final(defs[spec.callee], state.inner, defs)
    raise SpecificationError(f"unknown node type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def step(
    spec: Node,
    state: Any,
    event: Event,
    env: Mapping[str, Any] | None = None,
    defs: Mapping[str, Node] | None = None,
) -> tuple[Any, Env] | None:
    """Attempt one transition on ``event``.

    Returns ``(new_state, new_enclosing_env)`` when some part of the tree
    fired, or ``None`` when the whole tree refuses the event.  A successful
    step consumes ``state``: every part of it that did not change comes back
    as the same object (the whole of ``state`` when nothing changed), and
    the instance maps of its quantified nodes are updated in place.  A
    refused step, or one that raises, leaves ``state`` and ``env`` as they
    were, apart from values an action mutated in place.  States of
    attribute-free nodes may be shared between instances and between
    machines, so callers must treat every state as read-only.
    """
    scope = dict(env) if env else {}
    commits: list[tuple[dict, Any, Any]] = []
    new_state = _step(spec, state, event, scope, defs or {}, commits)
    if new_state is None:
        return None
    for instances, value, instance in commits:
        instances[value] = instance
    return new_state, Env._wrap(scope)


def _step(spec, state, event, scope, defs, commits):
    return _check_shape(spec, state)(spec, state, event, scope, defs, commits)


def _bind(scope: dict, bindings: Mapping[str, Any]) -> dict:
    """Bind ``bindings`` into ``scope``; return the bindings they shadow."""
    shadowed = {name: scope[name] for name in bindings if name in scope}
    scope.update(bindings)
    return shadowed


def _drop(scope: dict, names: Iterable[str], shadowed: dict | None) -> None:
    """Pop ``names`` out of ``scope`` and restore what they shadowed."""
    for name in names:
        scope.pop(name, None)
    if shadowed:
        scope.update(shadowed)


_MISSING = object()


def _leave(spec: Node, scope: dict, env: Env, shadowed: dict | None) -> Env:
    """Run the node action, then pop the node's attributes out of ``scope``.

    Returns ``env`` itself when every attribute still holds the object it
    held on entry, else a new local environment.
    """
    if spec.action is not None:
        spec.action(scope)
    old = env._bindings
    unchanged = len(old) == len(spec.attrs)
    for name, _ in spec.attrs:
        value = scope.get(name, _MISSING)
        if value is _MISSING or value is not old.get(name, _MISSING):
            unchanged = False
            break
    if unchanged:
        for name in old:
            del scope[name]
        new = env
    else:
        popped = {name: scope.pop(name) for name, _ in spec.attrs if name in scope}
        new = Env._wrap(popped) if popped else EMPTY_ENV
    if shadowed:
        scope.update(shadowed)
    return new


def _step_automaton(spec, state, event, scope, defs, commits):
    env = state.env
    shadowed = _bind(scope, env._bindings) if env._bindings else None
    current = state.current
    for t in spec.transitions:
        if t.source != current:
            continue
        captures = t.pattern.match(event, scope)
        if captures is None:
            continue
        # Captures are transient: bound for the guard and action only.
        hidden = _bind(scope, captures)
        if t.guard is not None and not t.guard(scope):
            _drop(scope, captures, hidden)
            continue
        if t.action is not None:
            t.action(scope)
        _drop(scope, captures, hidden)
        new_env = _leave(spec, scope, env, shadowed)
        if new_env is env and t.target == current:
            return state
        return _automaton_state(t.target, new_env)
    if env._bindings:
        _drop(scope, env._bindings, shadowed)
    return None


def _step_flow(spec, state, event, scope, defs, commits):
    env = state.env
    shadowed = _bind(scope, env._bindings) if env._bindings else None
    left = _step(spec.left, state.left, event, scope, defs, commits)
    right = _step(spec.right, state.right, event, scope, defs, commits)
    if left is None and right is None:
        if env._bindings:
            _drop(scope, env._bindings, shadowed)
        return None
    new_env = _leave(spec, scope, env, shadowed)
    left = state.left if left is None else left
    right = state.right if right is None else right
    if new_env is env and left is state.left and right is state.right:
        return state
    return _flow_state(new_env, left, right)


def _step_qflow(spec, state, event, scope, defs, commits):
    instances = state.instances
    if spec.order_hook is not None:
        values = list(instances)
        ordered = list(spec.order_hook(values))
        if sorted(ordered, key=repr) != sorted(values, key=repr):
            raise SpecificationError(
                f"node {spec.name!r}: order hook must permute the domain"
            )
    else:
        ordered = instances  # built from the sorted domain; commits only replace values
    env = state.env
    shadowed = _bind(scope, env._bindings) if env._bindings else None
    hidden = {spec.var: scope[spec.var]} if spec.var in scope else None
    fired = False
    for value in ordered:
        scope[spec.var] = value
        instance = instances[value]
        stepped = _step(spec.body, instance, event, scope, defs, commits)
        if stepped is not None:
            fired = True
            if stepped is not instance:
                commits.append((instances, value, stepped))
    _drop(scope, (spec.var,), hidden)
    if not fired:
        if env._bindings:
            _drop(scope, env._bindings, shadowed)
        return None
    new_env = _leave(spec, scope, env, shadowed)
    return state if new_env is env else QuantifiedFlowState(new_env, instances)


def _step_qinterleave(spec, state, event, scope, defs, commits):
    if spec.route_arg >= len(event.args):
        raise InputError(
            f"node {spec.name!r}: event {event.name!r} has no argument "
            f"{spec.route_arg} to route on"
        )
    value = event.args[spec.route_arg]
    if value is None:
        raise InputError(f"node {spec.name!r}: routing value is missing")
    try:
        hash(value)
    except TypeError as exc:
        raise InputError(f"node {spec.name!r}: routing value is not hashable") from exc
    instance = state.instances.get(value)
    if instance is None and not isinstance(spec.domain, _UnboundedDomain):
        return None  # outside a bounded domain

    env = state.env
    shadowed = _bind(scope, env._bindings) if env._bindings else None
    hidden = {spec.var: scope[spec.var]} if spec.var in scope else None
    scope[spec.var] = value
    start = _init(spec.body, Env(scope), defs) if instance is None else instance
    stepped = _step(spec.body, start, event, scope, defs, commits)
    _drop(scope, (spec.var,), hidden)
    if stepped is None:
        if env._bindings:
            _drop(scope, env._bindings, shadowed)
        return None
    if stepped is not instance:
        commits.append((state.instances, value, stepped))
    new_env = _leave(spec, scope, env, shadowed)
    return state if new_env is env else QuantifiedInterleaveState(new_env, state.instances)


def _step_call(spec, state, event, scope, defs, commits):
    callee = defs.get(spec.callee)
    if callee is None:
        raise SpecificationError(f"call {spec.name!r}: unresolved callee {spec.callee!r}")
    # Parameters are constant; pop them before propagating updates.
    env = state.env
    shadowed = _bind(scope, env._bindings) if env._bindings else None
    inner = _step(callee, state.inner, event, scope, defs, commits)
    if env._bindings:
        _drop(scope, env._bindings, shadowed)
    if inner is None:
        return None
    return state if inner is state.inner else _call_state(env, inner)


#: Node type -> (the state type it runs on, its stepper).
_NODE_KINDS = {
    Automaton: (AutomatonState, _step_automaton),
    Flow: (FlowState, _step_flow),
    QuantifiedFlow: (QuantifiedFlowState, _step_qflow),
    QuantifiedInterleave: (QuantifiedInterleaveState, _step_qinterleave),
    Call: (CallState, _step_call),
}


# ---------------------------------------------------------------------------
# Debug serialization
# ---------------------------------------------------------------------------


def _dump_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (datetime, date)):
        return value.isoformat()
    if isinstance(value, (list, tuple)):
        return [_dump_value(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_dump_value(v) for v in value), key=repr)
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: (type(kv[0]).__name__, repr(kv[0])))
        return {str(k): _dump_value(v) for k, v in items}
    if hasattr(value, "to_debug_dict"):
        out = {"type": type(value).__name__}
        out.update(_dump_value(value.to_debug_dict()))
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"type": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = _dump_value(getattr(value, f.name))
        return out
    return {"type": type(value).__name__}


def state_to_dict(state: Any) -> dict[str, Any]:
    """Plain-data view of a runtime state with deterministic ordering."""
    if isinstance(state, AutomatonState):
        return {"kind": "automaton", "current": state.current, "env": _dump_value(state.env)}
    if isinstance(state, FlowState):
        return {
            "kind": "flow",
            "env": _dump_value(state.env),
            "left": state_to_dict(state.left),
            "right": state_to_dict(state.right),
        }
    if isinstance(state, (QuantifiedFlowState, QuantifiedInterleaveState)):
        kind = "quantified_flow" if isinstance(state, QuantifiedFlowState) else "quantified_interleave"
        keys = sorted(state.instances, key=lambda k: (type(k).__name__, repr(k)))
        return {
            "kind": kind,
            "env": _dump_value(state.env),
            "instances": {str(k): state_to_dict(state.instances[k]) for k in keys},
        }
    if isinstance(state, CallState):
        return {"kind": "call", "env": _dump_value(state.env), "inner": state_to_dict(state.inner)}
    raise EngineError(f"cannot serialize {type(state).__name__}")


def dump_state(state: Any) -> str:
    """Canonical nested text form of a runtime state (stable key order)."""
    return json.dumps(state_to_dict(state), sort_keys=True, indent=2)
