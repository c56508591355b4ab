"""Interpreter for trees of composable state machines.

A specification is a tree of nodes: plain automata at the leaves, combined by
``Flow`` (both operands observe every event), ``Call`` (delegation to a named
specification with argument binding) and one quantification, an operand
instance per value of a variable, under two offer rules: ``QuantifiedFlow``
offers each event to every instance, ``QuantifiedInterleave`` to the instance
its first argument names.  A bounded domain's values must be orderable and
hashable; only an interleave may range over ``UNBOUNDED``, building each
instance on first use.

Execution is a labelled transition relation over runtime states.  Each
step threads one mutable scope of variable bindings down the tree.  Entering
a node binds its attributes (a call's parameters, a quantified variable)
into the scope and remembers what they shadow, so a node that shadows no
name allocates nothing to bind; leaving it runs the node action on the
scope, pops the node's attributes into its new local environment and
restores what they shadowed, so every other name travels outward to the
caller.  A refusing node pops its bindings and leaves the
scope as it found it.  Guards must be side-effect free.  Local and
enclosing environments are ``Env`` objects: plain ``dict`` instances whose
mutators raise, so the scope is the only binding set a step writes.

Initialisation threads one scope the same way.  A node binds its attributes
for its operands' initialisers and pops them again; a callable initialiser
reads a read-only ``Env`` of the enclosing names and the attributes bound
before it, and a node whose initialisers (or a call whose arguments) are all
plain values shares one local ``Env`` between its instances.

Ownership is as ``step`` states it.  An environment is unchanged when its
attributes all hold the same objects, so an instance at rest allocates
nothing.  At-rest states of automata, and of flows and argument-less calls
of such parts, are shared per node, so they go when the spec goes.  A node
whose initial state is at rest, an automaton without attributes or a flow
of such parts, builds it when it is made and keeps it; a call starts the
callee ``defs`` names.  So a lazily built instance costs only the states
and environments it does not share.

Building: a node is checked and fixed when it is made; a step reads guards
and actions when it runs.  A constructor computes what the step reads (see
``Node``); only a node's ``action`` (a call has none) and a transition's
``guard`` and ``action`` may be assigned later.  A call reads its callee
from each step's ``defs``, so ``init`` checks only calls and starts the tree.

Matching: a step does the event-only part of a pattern (name, arity,
literals, capture types and the captures themselves) once for each run of
leaves that use that pattern object, in one slot of the step, and each leaf
then checks only the pattern's ``Ref`` slots against its own scope.

Operators: a node class holds its operator's rules (operands, header, field
checks and fixed facts, start, acceptance and step), and ``walk`` is the one
traversal of a tree.  ``step`` and ``is_final`` check only the root state's
kind, so a state must come from ``init`` or ``step`` for the same
specification.

Determinism: automaton transitions are tried in declaration order and the
first enabled one fires; quantified domains are iterated in ascending order
of their values, the order of the instance map they build.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Iterator, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any, Callable

from .errors import EngineError, InputError, SpecificationError

Guard = Callable[[Mapping[str, Any]], bool]
Action = Callable[[MutableMapping[str, Any]], None]


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------


class Env(dict):
    """Read-only map from variable names to values.

    An ``Env`` is the ``dict`` of its bindings, with every mutator raising
    ``TypeError``, so ``EMPTY_ENV`` and the shared at-rest states are safe
    to share.  ``override`` implements right-biased union.  Copies and
    pickles of an ``Env`` are ``Env`` instances.
    """

    __slots__ = ()

    def _read_only(self, *_: Any, **__: Any) -> Any:
        raise TypeError("Env is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only
    del _read_only

    def override(self, other: Mapping[str, Any]) -> Env:
        if not other:
            return self
        merged = Env(self)
        dict.update(merged, other)
        return merged

    def __reduce__(self) -> tuple:
        return Env, (dict(self),)

    def __repr__(self) -> str:
        return f"Env({dict.__repr__(self)})"


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


#: The event-only part of a pattern match: the ``(variable, argument)``
#: pairs its ``Ref`` slots still have to check, and the captures or ``None``.
_MatchPart = tuple[list[tuple[str, Any]], dict[str, Any] | None]


@dataclass(frozen=True)
class EventPattern:
    """Event name plus one slot per argument; literals match by equality."""

    name: str
    slots: tuple[Any, ...] = ()

    def match(self, event: Event, env: Mapping[str, Any]) -> dict[str, Any] | None:
        """Return capture bindings if ``event`` matches, else ``None``.

        Slots are checked in order, so a ``Ref`` to an unbound variable
        raises ``SpecificationError`` unless an earlier slot already failed.
        """
        return self._match_refs(self._match_event(event), env)

    def _match_event(self, event: Event) -> _MatchPart:
        """The part of ``match`` that reads only the event.

        Returns the ``(variable, argument)`` pairs of the ``Ref`` slots
        before the first slot that fails on the event alone, and the capture
        bindings, or ``None`` for them when the name, the arity, a literal
        or a capture's type fails.
        """
        refs: list[tuple[str, Any]] = []
        if event.name != self.name or len(event.args) != len(self.slots):
            return refs, None
        captures: dict[str, Any] = {}
        for slot, arg in zip(self.slots, event.args):
            if isinstance(slot, Capture):
                if slot.type is not None and not isinstance(arg, slot.type):
                    return refs, None
                captures[slot.name] = arg
            elif isinstance(slot, Ref):
                refs.append((slot.name, arg))
            elif slot != arg:
                return refs, None
        return refs, captures

    def _match_refs(self, part: _MatchPart, env: Mapping[str, Any]) -> dict[str, Any] | None:
        """Finish a match from its event-only ``part`` against ``env``."""
        refs, captures = part
        for name, arg in refs:
            if name not in env:
                raise SpecificationError(
                    f"pattern for {self.name!r} references unbound variable {name!r}"
                )
            if env[name] != arg:
                return None
        return captures


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

    Each kind is one operator with states of class ``state_type``.  It
    defines ``_operands(defs)``, ``_header()``, ``_start(local, scope,
    defs)`` from initialised attributes ``local``, also bound in ``scope``,
    ``_final(state, defs)``, and ``_step(state, scope, ctx)``, ``None`` on
    refusal; on the base class all five raise.

    A node is fixed, and valid, when it is made.  ``__post_init__`` holds
    each sequence field as a tuple, checks ``attrs``, sets ``_bare`` (no
    attributes, no action) and ``_plain``, and calls the kind's ``_fix()``,
    which checks its own fields and computes its facts; a refusal, like a
    non-callable action at any time, is a ``SpecificationError`` naming the
    node.  Once made, assigning a field not in ``_open`` raises ``AttributeError``.

    ``_rest`` holds the node's shared at-rest states.  The kinds that share
    them (automata, flows and calls) build each through ``_at_rest`` and
    answer ``_is_rest(state)`` by identity; a key names a state by its
    current state name or by the ids of its children's shared states, which
    the cached state holds, so no id in a key is ever reused.  The keys are
    bounded by the spec's declared states, and the table goes with the node.
    ``_kept`` is the one of them that every start of an automaton without
    attributes, or of a flow of kept parts, returns.  The instances of every
    machine share it and ``_plain``.
    """

    name: str
    params: Sequence[str] = ()
    attrs: Sequence[tuple[str, AttrInit]] = ()
    action: Action | None = None
    _rest: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _kept: Any = field(default=None, init=False, compare=False, repr=False)
    _plain: Env | None = field(default=None, init=False, compare=False, repr=False)
    _bare: bool = field(default=False, init=False, compare=False, repr=False)

    _made = False  # True once ``__post_init__`` ends: assignments are checked from then
    _open = ("action",)  # the fields a made node may still be given

    state_type = object

    def _unknown(self, *_: Any) -> Any:
        raise SpecificationError(f"unknown node type {type(self).__name__}")

    _operands = _header = _start = _final = _step = _unknown

    def __post_init__(self) -> None:
        self.params, self.attrs = self._names("params", self.params), tuple(self.attrs)
        try:
            local = Env(self.attrs)
        except (TypeError, ValueError):
            raise SpecificationError(f"node {self.name!r}: attrs are not (name, initial) pairs") from None
        if len(local) != len(self.attrs):
            raise SpecificationError(f"node {self.name!r} declares duplicate attributes")
        self._bare = not self.attrs and self.action is None
        if not any(map(callable, local.values())):
            self._plain = local or EMPTY_ENV
        self._fix()
        self._made = True

    def _fix(self) -> None:
        """Check the kind's own fields and compute its fixed facts; the common ones are set."""

    def _names(self, label: str, names: Iterable[str]) -> tuple[str, ...]:
        if isinstance(names, str):  # ``tuple`` would split it into characters
            raise SpecificationError(f"node {self.name!r}: {label} is a string, not names")
        return tuple(names)

    def __setattr__(self, name: str, value: Any) -> None:
        if self._made and name not in self._open:
            raise AttributeError(f"node {self.name!r} is fixed: {name!r} cannot change")
        if name == "action" and value is not None and not callable(value):
            raise SpecificationError(f"node {self.name!r}: action is not callable")
        if self._made:
            object.__setattr__(self, "_bare", not self.attrs and value is None)
        object.__setattr__(self, name, value)

    def _is_rest(self, state: Any) -> bool:
        return False

    def _at_rest(self, key: Any, make: type, *fields: Any) -> Any:
        """The shared state under ``key``, built from ``fields`` on first use."""
        state = self._rest.get(key)
        if state is None:
            state = self._rest[key] = make(*fields)
        return state


@dataclass(kw_only=True)
class Transition:
    source: str
    pattern: EventPattern
    target: str
    guard: Guard | None = None
    action: Action | None = None

    _made = False

    def __post_init__(self) -> None:
        self._made = True

    def __setattr__(self, name: str, value: Any) -> None:
        if self._made:
            if name not in ("guard", "action"):
                raise AttributeError(f"transition {self} is fixed: {name!r} cannot change")
            if value is not None and not callable(value):
                raise SpecificationError(f"transition {self}: {name} is not callable")
        object.__setattr__(self, name, value)

    def __str__(self) -> str:
        slots = ", ".join(map(_slot, self.pattern.slots))
        guard, action = _named(" [", self.guard, "]"), _named(" / ", self.action)
        return f"{self.source} -{self.pattern.name}({slots}){guard}{action}-> {self.target}"


@dataclass(kw_only=True)
class Automaton(Node):
    states: Sequence[str]
    initial: str
    finals: Sequence[str]
    transitions: Sequence[Transition] = ()
    _moves: dict = field(default=None, init=False, compare=False, repr=False)

    state_type = AutomatonState

    def _operands(self, defs):
        return ()

    def _header(self):
        states, finals = ", ".join(self.states), ", ".join(self.finals)
        moves = "".join(f"\n  {t}" for t in self.transitions)
        return f"Automaton {{{states}}} init {self.initial} final {{{finals}}}{moves}"

    def _fix(self):
        self.states, self.finals = self._names("states", self.states), self._names("finals", self.finals)
        self.transitions = tuple(self.transitions)
        states = set(self.states)
        if self.initial not in states:
            raise SpecificationError(f"automaton {self.name!r}: unknown initial state")
        if not set(self.finals) <= states:
            raise SpecificationError(f"automaton {self.name!r}: final states not declared")
        moves: dict[str, tuple] = {}
        for t in self.transitions:
            if not isinstance(t, Transition) or not isinstance(t.pattern, EventPattern):
                raise SpecificationError(f"automaton {self.name!r}: malformed transition {t!r}")
            if t.source not in states or t.target not in states:
                raise SpecificationError(f"automaton {self.name!r}: transition uses undeclared state")
            caps = [s for s in t.pattern.slots if isinstance(s, Capture)]
            names = tuple(s.name for s in caps)
            if len(set(names)) != len(names):
                raise SpecificationError(f"automaton {self.name!r}: duplicate capture in pattern")
            if not all(f is None or callable(f) for f in (t.guard, t.action)):
                raise SpecificationError(f"automaton {self.name!r}: uncallable guard or action")
            for s in caps:
                try:
                    isinstance(None, s.type or ())
                except TypeError:
                    raise SpecificationError(f"automaton {self.name!r}: bad capture type") from None
            moves[t.source] = moves.get(t.source, ()) + ((t, t.pattern, names),)
        self._moves = moves
        if not self.attrs:
            self._kept = self._state(self.initial, EMPTY_ENV)

    def _start(self, local, scope, defs):
        return self._state(self.initial, local)

    def _state(self, current, env):
        if env is EMPTY_ENV:
            return self._at_rest(current, AutomatonState, current, env)
        return AutomatonState(current, env)

    def _is_rest(self, state):
        return self._rest.get(state.current) is state

    def _final(self, state, defs):
        return state.current in set(self.finals)

    def _step(self, state, scope, ctx):
        env = state.env
        shadowed = _bind(scope, env) if env else None
        for t, pattern, names in self._moves.get(state.current, ()):
            if pattern is not ctx.pattern:
                ctx.pattern, ctx.part = pattern, pattern._match_event(ctx.event)
            refs, captures = ctx.part
            for name, arg in refs:
                if scope.get(name, _MISSING) != arg:  # let the pattern refuse or raise
                    captures = pattern._match_refs(ctx.part, scope)
                    break
            if captures is None:
                continue
            # Captures are transient: bound for the guard and action only.
            hidden = None
            for name in names:
                if name in scope:
                    hidden = _bind(scope, captures)
                    break
            else:
                scope.update(captures)
            if t.guard is not None and not t.guard(scope):
                _drop(scope, names, hidden)
                continue
            if t.action is not None:
                t.action(scope)
            _drop(scope, names, hidden)
            new_env = env if self._bare else _leave(self, scope, env, shadowed)
            if new_env is env and t.target == state.current:
                return state
            return self._state(t.target, new_env)
        if env:
            _drop(scope, env, shadowed)
        return None


@dataclass(kw_only=True)
class Flow(Node):
    """Both operands observe each event; the step is accepted if either fires."""

    left: Node
    right: Node

    state_type = FlowState

    def _operands(self, defs):
        return self.left, self.right

    def _header(self):
        return "Flow"

    def _fix(self):
        if not isinstance(self.left, Node) or not isinstance(self.right, Node):
            raise SpecificationError(f"node {self.name!r}: an operand is not a node")
        left, right = self.left._kept, self.right._kept
        if not self.attrs and left is not None and right is not None:
            self._kept = self._state(EMPTY_ENV, left, right)

    def _start(self, local, scope, defs):
        return self._state(local, _init(self.left, scope, defs), _init(self.right, scope, defs))

    def _state(self, env, left, right):
        if env is EMPTY_ENV and self.left._is_rest(left) and self.right._is_rest(right):
            return self._at_rest((id(left), id(right)), FlowState, env, left, right)
        return FlowState(env, left, right)

    def _is_rest(self, state):
        return self._rest.get((id(state.left), id(state.right))) is state

    def _final(self, state, defs):
        return self.left._final(state.left, defs) and self.right._final(state.right, defs)

    def _step(self, state, scope, ctx):
        env = state.env
        shadowed = _bind(scope, env) if env else None
        left = self.left._step(state.left, scope, ctx)
        right = self.right._step(state.right, scope, ctx)
        if left is None and right is None:
            if env:
                _drop(scope, env, shadowed)
            return None
        new_env = env if self._bare else _leave(self, scope, env, shadowed)
        left = state.left if left is None else left
        right = state.right if right is None else right
        if new_env is env and left is state.left and right is state.right:
            return state
        return self._state(new_env, left, right)


@dataclass(kw_only=True)
class _Quantified(Node):
    """One quantification, two offer rules.

    One ``body`` instance per value of ``var``, built up front in ascending
    order over a bounded ``domain``, held as its sorted, de-duplicated
    tuple, or on first use over ``UNBOUNDED``; the node accepts when every
    instance accepts, and fires when one fires.
    ``_offered(state, event)`` names the ``(value, instance)`` pairs an event
    is offered to, the instance ``None`` for one still to build.
    """

    var: str
    domain: Sequence[Any]
    body: Node

    def _operands(self, defs):
        return (self.body,)

    def _fix(self):
        if not isinstance(self.body, Node):
            raise SpecificationError(f"node {self.name!r}: body is not a node")
        if self.var in dict(self.attrs):
            raise SpecificationError(f"node {self.name!r}: quantified variable shadows an attribute")
        # A flow offers each event to every instance, so it builds them all up front.
        if self.state_type is QuantifiedFlowState or not isinstance(self.domain, _UnboundedDomain):
            try:
                self.domain = tuple(dict.fromkeys(sorted(self.domain)))
            except TypeError as exc:
                raise SpecificationError(f"node {self.name!r}: domain is not a bounded set of "
                                         f"orderable, hashable values ({exc})") from exc

    def _header(self):
        domain = self.domain if isinstance(self.domain, _UnboundedDomain) else list(self.domain)
        return f"{type(self).__name__} {self.var} in {domain}"

    def _start(self, local, scope, defs):
        instances = {}
        if not isinstance(self.domain, _UnboundedDomain):
            var, body = self.var, self.body
            hidden = {var: scope[var]} if var in scope else None
            for value in self.domain:
                scope[var] = value
                instances[value] = _init(body, scope, defs)
            _drop(scope, (var,), hidden)
        return self.state_type(local, instances)

    def _final(self, state, defs):
        return all(self.body._final(inst, defs) for inst in state.instances.values())

    def _step(self, state, scope, ctx):
        offered = self._offered(state, ctx.event)
        instances = state.instances  # commits replace or add values once the step succeeds
        env = state.env
        shadowed = _bind(scope, env) if env else None
        var, body = self.var, self.body
        hidden = scope.get(var, _MISSING)
        step_body = body._step
        fired = False
        for value, instance in offered:
            scope[var] = value
            start = _init(body, scope, ctx.defs) if instance is None else instance
            stepped = step_body(start, scope, ctx)
            if stepped is not None:
                fired = True
                if stepped is not instance:
                    ctx.commits.append((instances, value, stepped))
        scope.pop(var, None)
        if hidden is not _MISSING:
            scope[var] = hidden
        if not fired:
            if env:
                _drop(scope, env, shadowed)
            return None
        new_env = env if self._bare else _leave(self, scope, env, shadowed)
        return state if new_env is env else self.state_type(new_env, instances)


@dataclass(kw_only=True)
class QuantifiedFlow(_Quantified):
    """One operand instance per domain element, every instance sees each event."""

    state_type = QuantifiedFlowState

    def _offered(self, state, event):
        return state.instances.items()


@dataclass(kw_only=True)
class QuantifiedInterleave(_Quantified):
    """One isolated operand instance per routing value.

    The routing value is the event's first argument.  With
    ``domain=UNBOUNDED`` instances are created on first use.
    """

    domain: Sequence[Any] | _UnboundedDomain

    state_type = QuantifiedInterleaveState

    def _offered(self, state, event):
        if not event.args:
            raise InputError(
                f"node {self.name!r}: event {event.name!r} has no argument to route on"
            )
        value = event.args[0]
        if value is None:
            raise InputError(f"node {self.name!r}: routing value is missing")
        try:
            hash(value)
        except TypeError as exc:
            raise InputError(f"node {self.name!r}: routing value is not hashable") from exc
        if value != value:  # a NaN would route each object to its own instance
            raise InputError(f"node {self.name!r}: routing value is not equal to itself")
        instance = state.instances.get(value)
        if instance is None and not isinstance(self.domain, _UnboundedDomain):
            return ()  # outside a bounded domain
        return ((value, instance),)


@dataclass(kw_only=True)
class Call(Node):
    """Delegate to the specification registered under ``callee``.

    ``args`` binds the callee's parameters, held as an ``Env``; values may be
    callables evaluated against the environment at initialisation time.
    """

    callee: str
    args: Mapping[str, AttrInit] = field(default_factory=dict)

    state_type = CallState
    _open = ()  # a call has no action

    def _operands(self, defs):
        return (self._callee(defs),)

    def _fix(self):
        if self.attrs or self.action:
            raise SpecificationError(f"call {self.name!r} must not declare attributes")
        self.args = Env(self.args) if self.args else EMPTY_ENV

    def _header(self):
        return f"Call {self.callee}({', '.join(self.args)})"

    def _start(self, local, scope, defs):
        # A call declares no attributes; its parameters are bound like them.
        callee, params = self._callee(defs), self.args
        if not params:
            return self._state(callee, EMPTY_ENV, _init(callee, scope, defs))
        if any(map(callable, params.values())):
            enclosing = Env(scope)
            params = Env({n: v(enclosing) if callable(v) else v for n, v in params.items()})
        shadowed = _bind(scope, params)
        inner = _init(callee, scope, defs)
        _drop(scope, params, shadowed)
        return self._state(callee, params, inner)

    def _state(self, callee, env, inner):
        if env is EMPTY_ENV and callee._is_rest(inner):
            return self._at_rest(id(inner), CallState, env, inner)
        return CallState(env, inner)

    def _is_rest(self, state):
        return self._rest.get(id(state.inner)) is state

    def _callee(self, defs):
        callee = defs.get(self.callee)
        if isinstance(callee, Node):
            return callee
        raise SpecificationError(f"call {self.name!r}: unresolved callee {self.callee!r}")

    def _final(self, state, defs):
        return self._callee(defs)._final(state.inner, defs)

    def _step(self, state, scope, ctx):
        callee = self._callee(ctx.defs)
        # Parameters are constant; pop them before propagating updates.
        env = state.env
        shadowed = _bind(scope, env) if env else None
        inner = callee._step(state.inner, scope, ctx)
        if env:
            _drop(scope, env, shadowed)
        if inner is None:
            return None
        return state if inner is state.inner else self._state(callee, env, inner)


# ---------------------------------------------------------------------------
# Validation and initialisation
# ---------------------------------------------------------------------------


def walk(spec: Node, defs: Mapping[str, Node] | None = None) -> Iterator[tuple[int, Node]]:
    """Yield ``(depth, node)`` in pre-order, a call's callee from ``defs`` under the
    call; raise ``SpecificationError`` for an unresolved callee or a recursive call."""
    pending: list[tuple[int, Node, tuple[str, ...]]] = [(0, spec, ())]
    while pending:
        depth, node, chain = pending.pop()
        callee = node.callee if isinstance(node, Call) else None
        if callee in chain:
            raise SpecificationError(f"recursive call to {callee!r} (chain {' -> '.join(chain)})")
        chain += () if callee is None else (callee,)
        yield depth, node
        pending += [(depth + 1, operand, chain) for operand in reversed(node._operands(defs or {}))]


def validate_spec(spec: Node, defs: Mapping[str, Node] | None = None) -> None:
    """Raise ``SpecificationError`` for a call whose callee ``defs`` does not resolve,
    that recurses, or whose argument names are not the callee's ``params``."""
    for _, node in walk(spec, defs):
        if isinstance(node, Call) and set(node.args) != set(params := node._callee(defs or {}).params):
            raise SpecificationError(
                f"call {node.name!r}: argument names {sorted(node.args)} do not match "
                f"parameters {sorted(params)} of {node.callee!r}"
            )


def describe(spec: Node, defs: Mapping[str, Node] | None = None) -> str:
    """One line per node of ``walk``, indented by depth, and one per transition."""
    lines = []
    for depth, node in walk(spec, defs):
        params = f"({', '.join(node.params)})" if node.params else ""
        attrs = f" attrs({', '.join(n for n, _ in node.attrs)})" if node.attrs else ""
        text = f"{node.name}{params}{attrs}{_named(' / ', node.action)}: {node._header()}"
        lines += ["  " * depth + line for line in text.split("\n")]
    return "\n".join(lines)


def _named(before: str, value: Any, after: str = "") -> str:
    name = getattr(value, "__qualname__", type(value).__qualname__)
    return "" if value is None else f"{before}{name}{after}"


def _slot(slot: Any) -> str:
    name = slot.name if isinstance(slot, (Capture, Ref)) else repr(slot)
    return f"?{name}" if isinstance(slot, Capture) else name


def init(
    spec: Node, env: Mapping[str, Any] | None = None, defs: Mapping[str, Node] | None = None
) -> Any:
    """Build the initial runtime state of ``spec``.

    Attribute initialisers are evaluated against ``env`` extended with the
    attributes already initialised on the same node, in declaration order.
    """
    validate_spec(spec, defs)
    return _init(spec, dict(env) if env else {}, defs or EMPTY_ENV)


def _init(spec: Node, scope: dict, defs: Mapping[str, Node]) -> Any:
    """The initial state of ``spec`` under ``scope``, which it leaves as it found it."""
    state = spec._kept
    if state is not None:
        return state
    local = spec._plain
    if local is None:
        local = _init_attrs(spec, scope)
    if not local:
        return spec._start(local, scope, defs)
    shadowed = _bind(scope, local)
    state = spec._start(local, scope, defs)
    _drop(scope, local, shadowed)
    return state


def _init_attrs(spec: Node, scope: dict) -> Env:
    """The local ``Env`` of a node with a callable initialiser; each callable one
    reads a copy of ``scope`` and the attributes before it."""
    bound: dict[str, Any] = {}
    for name, initial in spec.attrs:
        if callable(initial):
            visible = Env(scope)
            dict.update(visible, bound)
            initial = initial(visible)
        bound[name] = initial
    return Env(bound)


# ---------------------------------------------------------------------------
# Acceptance and stepping
# ---------------------------------------------------------------------------


def _check_shape(spec: Node, state: Any) -> None:
    """Raise ``EngineError`` unless ``state`` is of the type ``spec`` runs on."""
    if not isinstance(state, spec.state_type):
        raise EngineError(
            f"state {type(state).__name__} does not match node "
            f"{type(spec).__name__} {spec.name!r}"
        )


def is_final(spec: Node, state: Any, defs: Mapping[str, Node] | None = None) -> bool:
    """True when the state satisfies the node's acceptance condition."""
    _check_shape(spec, state)
    return spec._final(state, defs or {})


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
    were.  Values bound in environments are not copied.  States of
    attribute-free nodes may be shared between the instances of one
    machine, so callers must treat every state as read-only.
    """
    _check_shape(spec, state)
    scope = dict(env) if env else {}
    ctx = _StepContext(event, defs or EMPTY_ENV)
    new_state = spec._step(state, scope, ctx)
    if new_state is None:
        return None
    for instances, value, instance in ctx.commits:
        instances[value] = instance
    return new_state, Env(scope)


class _StepContext:
    """What every node of one step shares.

    ``commits`` queues ``(instances, value, instance)`` writes, applied only
    once the whole step has succeeded.  ``part`` is ``_match_event`` of the
    last ``pattern``, its captures shared because nothing mutates them.
    """

    __slots__ = ("event", "defs", "commits", "pattern", "part")

    def __init__(self, event: Event, defs: Mapping[str, Node]):
        self.event = event
        self.defs = defs
        self.commits: list[tuple[dict, Any, Any]] = []
        self.pattern = self.part = None  # the last pattern matched, and its part


def _bind(scope: dict, bindings: Mapping[str, Any]) -> dict | None:
    """Bind ``bindings`` into ``scope``; return the bindings they shadow.

    Returns ``None``, allocating nothing, when they shadow no name.
    """
    shadowed = None
    for name in bindings:
        if name in scope:
            if shadowed is None:
                shadowed = {}
            shadowed[name] = scope[name]
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
    held on entry, at once for a node that declares none, else a new local
    environment.
    """
    if spec.action is not None:
        spec.action(scope)
    if not spec.attrs:
        new = env
    else:
        unchanged = len(env) == len(spec.attrs)
        for name, _ in spec.attrs:
            value = scope.get(name, _MISSING)
            if value is _MISSING or value is not env.get(name, _MISSING):
                unchanged = False
                break
        if unchanged:
            for name in env:
                del scope[name]
            new = env
        else:
            popped = {name: scope.pop(name) for name, _ in spec.attrs if name in scope}
            new = Env(popped) if popped else EMPTY_ENV
    if shadowed:
        scope.update(shadowed)
    return new


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
