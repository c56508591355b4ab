"""Engine for trees of composable state machines, each step compiled to Python.

A specification is a tree of nodes: plain automata at the leaves, combined by
``Flow`` (both operands observe every event), ``Call`` (delegation to a
callee node with argument binding) and one quantification, an operand
instance per value of a variable, under two offer rules: ``QuantifiedFlow``
offers each event to every instance, ``QuantifiedInterleave`` to the instance
its first argument names.  A bounded domain's values must be orderable and
hashable; only an interleave may range over ``UNBOUNDED``, building each
instance on first use.

Execution is a labelled transition relation over runtime states.  Each
step threads one mutable scope of variable bindings down the tree.  Entering
a node binds its attributes (a call's parameters, a quantified variable)
into the scope in place; only where one of its names is already bound does
it call ``_bind``, which remembers what they shadow.  Leaving it runs the
node action on the scope, takes back the names its entry bound into its new
local environment and restores what they shadowed, so every other name
travels outward to the caller.  A refusing node pops its bindings and leaves
the scope as it found it.  Guards must be side-effect free.  Local and
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
or argument-less call of such parts, builds it when it is made and keeps
it.  So a lazily built instance costs only the states and environments it
does not share.

Building: a node is checked and fixed when it is made, after its operands,
so no call is unresolved or recursive, and its constructor computes what
``init`` reads (see ``Node``); ``init`` checks nothing.  Its first ``step``
generates its step as Python and compiles it once, in the file ``<flowdetect
step 'NAME'>``, kept on the node and never copied or pickled: one function
unrolls its flows and automata (states and transitions in declaration
order), and one per quantified node runs its instance loop and routes an
event inline.  A callee's own code, compiled with its caller's if not
before, is a constant there, as are attributes, one-state leaves, capture
names, patterns, guards and actions: a node's ``action`` and a transition's
``guard`` and ``action`` may be assigned until then, not after.

Matching: each generated function tests the event side of each pattern
its leaves use (name, arity, literals and capture types) once, at its top,
as straight-line code.  Each leaf then checks the pattern's ``Ref`` slots
against its own scope and stores its captures; where a ``Ref`` differs, or
the event fails after one, it asks ``EventPattern.match``, which raises for
an unbound one or refuses.

Operators: a node class holds its operator's rules (operands, header, field
checks and fixed facts, start, acceptance and its step's code), and ``walk``
is the one traversal of a tree.  ``step`` and ``is_final`` check only the
root state's kind, so a state must come from ``init`` or ``step`` for the
same specification.

Determinism: automaton transitions are tried in declaration order and the
first enabled one fires; quantified domains are iterated in ascending order
of their values, the order of the instance map they build.

Dumping: one value dumper writes a state, even one held as a value, as its
kind and its fields.  A map's keys are written with ``str``, sorted by type
name and ``repr``; two keys that print alike raise, never merge.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from collections.abc import Iterable, Iterator, Mapping, MutableMapping, Sequence
from contextlib import contextmanager
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

    def __reduce__(self) -> str:
        # The module-level name, so copies and pickles are ``UNBOUNDED`` itself.
        return "UNBOUNDED"


#: Marker domain for ``QuantifiedInterleave`` over an open set of values.
UNBOUNDED = _UnboundedDomain()

#: Attribute initialisers may be plain values (stored as-is) or callables
#: evaluated against the enclosing environment, one fresh value per instance.
AttrInit = Any


class _Fixed:
    """A spec part, fixed once made but for the callables in ``_open``, which compiling
    a step that runs it empties.  A copy or pickle is remade by the constructor from the
    fields it takes, so it starts as a new part: its own at-rest states, unsealed, no code."""

    _made = False  # True once ``__post_init__`` ends: assignments are checked from then

    def __setattr__(self, name: str, value: Any) -> None:
        if self._made:
            if name not in self._open:
                raise AttributeError(f"{self._label} is fixed: {name!r} cannot change")
            _check_arity(f"{self._label}: {name}", value)
        object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:
        return _remake, (type(self), {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.init})


def _remake(kind: type, fields: dict) -> Any:
    return kind(**fields)


@dataclass(kw_only=True)
class Node(_Fixed):
    """Common header of every specification node.

    ``params`` names the values a ``Call`` targeting this node must bind;
    they are visible to the node like read-only enclosing variables.

    Each kind is one operator with states of class ``state_type``.  It
    defines ``_operands()``, ``_header()``, ``_start(local, scope)`` from
    initialised attributes ``local``, also bound in ``scope``,
    ``_final(state)``, and ``_emit(out, s)``, which writes its step's
    code to ``out`` for the state in variable ``s`` and names the variable of
    the new state, ``None`` on refusal; on the base class all five raise.

    A node is fixed, and valid, when it is made.  ``__post_init__`` holds each
    sequence field as a tuple, checks ``attrs`` and ``action`` (each callable
    must take one argument), sets ``_plain`` and calls the kind's ``_fix()``,
    which checks its own fields and computes what ``init`` reads; a refusal is
    a ``SpecificationError`` naming the node.
    Then only ``action`` may be assigned (a call has none), until compiled.

    ``_rest`` holds the node's shared at-rest states.  The kinds that share
    them (automata, flows and calls) build each through ``_at_rest`` and
    answer ``_is_rest(state)`` by identity; a key names a state by its
    current state name or by the ids of its children's shared states, which
    the cached state holds, so no id in a key is ever reused.  The keys are
    bounded by the spec's declared states, and the table goes with the node.
    ``_kept`` is the one of them that every start of an automaton without
    attributes, or of a flow or argument-less call of kept parts, returns.
    The instances of every machine share it and ``_plain``.
    """

    name: str
    params: Sequence[str] = ()
    attrs: Sequence[tuple[str, AttrInit]] = ()
    action: Action | None = None
    _rest: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _kept: Any = field(default=None, init=False, compare=False, repr=False)
    _plain: Env | None = field(default=None, init=False, compare=False, repr=False)

    _open = ("action",)
    _label = property(lambda self: f"node {self.name!r}")
    _code = None  # the compiled step, once a step needs it; copies and pickles leave it out

    state_type = object

    def _unknown(self, *_: Any) -> Any:
        raise SpecificationError(f"unknown node type {type(self).__name__}")

    _operands = _header = _start = _final = _emit = _unknown

    def __post_init__(self) -> None:
        self.params, self.attrs = self._names("params", self.params), tuple(self.attrs)
        try:
            local = Env(self.attrs)
        except (TypeError, ValueError):
            raise SpecificationError(f"node {self.name!r}: attrs are not (name, initial) pairs") from None
        if len(local) != len(self.attrs):
            raise SpecificationError(f"node {self.name!r} declares duplicate attributes")
        _check_arity(f"node {self.name!r}: action", self.action)
        self._check_initialisers(local)
        if not any(map(callable, local.values())):
            self._plain = local or EMPTY_ENV
        self._fix()
        self._made = True

    def _fix(self) -> None:
        """Check the kind's own fields and compute its fixed facts; the common ones are set."""

    def _check_initialisers(self, initials: Mapping[str, AttrInit]) -> None:
        for name, initial in initials.items():
            if callable(initial):
                _check_arity(f"node {self.name!r}: initialiser of {name!r}", initial)

    def _names(self, label: str, names: Iterable[str]) -> tuple[str, ...]:
        if isinstance(names, str):  # ``tuple`` would split it into characters
            raise SpecificationError(f"node {self.name!r}: {label} is a string, not names")
        return tuple(names)

    def _is_rest(self, state: Any) -> bool:
        return False

    def _at_rest(self, key: Any, make: type, *fields: Any) -> Any:
        """The shared state under ``key``, built from ``fields`` on first use."""
        state = self._rest.get(key)
        if state is None:
            state = self._rest[key] = make(*fields)
        return state


@dataclass(kw_only=True)
class Transition(_Fixed):
    source: str
    pattern: EventPattern
    target: str
    guard: Guard | None = None
    action: Action | None = None

    _open = ("guard", "action")
    _label = property(lambda self: f"transition {self}")

    def __post_init__(self) -> None:
        self._made = True

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

    state_type = AutomatonState

    def _operands(self):
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
        for t in self.transitions:
            if not isinstance(t, Transition) or not isinstance(t.pattern, EventPattern):
                raise SpecificationError(f"automaton {self.name!r}: malformed transition {t!r}")
            if t.source not in states or t.target not in states:
                raise SpecificationError(f"automaton {self.name!r}: transition uses undeclared state")
            caps = [s for s in t.pattern.slots if isinstance(s, Capture)]
            names = tuple(s.name for s in caps)
            if len(set(names)) != len(names):
                raise SpecificationError(f"automaton {self.name!r}: duplicate capture in pattern")
            _check_arity(f"automaton {self.name!r}: guard", t.guard)
            _check_arity(f"automaton {self.name!r}: action", t.action)
            members = [s.type or () for s in caps]
            while members:  # every member of each type spec, as ``isinstance`` may read it
                member = members.pop()
                if isinstance(member, tuple):
                    members += member
                    continue
                try:
                    isinstance(None, member)
                except TypeError:
                    raise SpecificationError(f"automaton {self.name!r}: bad capture type") from None
        if not self.attrs:
            self._kept = self._state(self.initial, EMPTY_ENV)

    def _start(self, local, scope):
        return self._state(self.initial, local)

    def _state(self, current, env):
        if env is EMPTY_ENV:
            return self._at_rest(current, AutomatonState, current, env)
        return AutomatonState(current, env)

    def _is_rest(self, state):
        return self._rest.get(state.current) is state

    def _final(self, state):
        return state.current in set(self.finals)

    def _emit(self, out, s):
        r, current, many = out.var("r"), out.var("c"), len(self.states) > 1
        out.sealed += (self, *self.transitions)
        bound = out.enter(s, dict(self.attrs))
        out.add(f"{r} = None" + (f"\n{current} = {s}.current" if many else ""))  # one state: always in it
        for source in dict.fromkeys(t.source for t in self.transitions):
            with out.block(f"if {current} == {out.const(source)}:", many):
                for i, t in enumerate([t for t in self.transitions if t.source == source]):
                    with out.block(f"if {r} is None:", i > 0):
                        self._emit_move(out, s, r, bound, t)
        out.refuse(bound, f"{r} is None and ")
        return r

    def _emit_move(self, out, s, r, bound, t):
        pattern, n = t.pattern, out.const(self)
        (q, late), p = out.test(pattern), out.const(pattern)
        names = tuple(slot.name for slot in pattern.slots if isinstance(slot, Capture))
        caps = [(out.const(slot.name), i) for i, slot in enumerate(pattern.slots) if isinstance(slot, Capture)]
        refs = [(out.const(slot.name), i) for i, slot in enumerate(pattern.slots) if isinstance(slot, Ref)]
        # Each Ref is checked against this leaf's scope.  Where one differs, or the event
        # fails after a Ref, ``match`` raises for an unbound one, or the leaf refuses.
        with out.block(f"if {q}:"):
            differ = " or ".join(f"scope.get({name}, _MISSING) != args[{i}]" for name, i in refs)
            out.add(f"if {differ}:\n    {p}.match(event, scope)" if refs else "")
            with out.block("else:", bool(refs)):
                # Captures are transient: stored for the guard and action only.
                pops = "".join(f"\n    scope.pop({name}, None)" for name, _ in caps)
                drop = f"if hid is None:{pops}\nelse:\n    _drop(scope, {out.const(names)}, hid)" if caps else ""
                guard = None if t.guard is None else f"{out.const(t.guard)}(scope)"
                if caps:
                    shadows = " or ".join(f"{name} in scope" for name, _ in caps)
                    given = ", ".join(f"{name}: args[{i}]" for name, i in caps)
                    stores = "".join(f"\n    scope[{name}] = args[{i}]" for name, i in caps)
                    out.add(f"if {shadows}:\n    hid = _bind(scope, {{{given}}})\nelse:{stores}\n    hid = None"
                            + (f"\nif not {guard}:\n    " + drop.replace("\n", "\n    ") if guard else ""))
                with out.block("else:" if caps else f"if {guard}:", guard is not None):
                    out.add(("" if t.action is None else f"{out.const(t.action)}(scope)\n") + drop)
                    env, target = out.leave(self, bound), out.const(t.target)
                    if t.target != t.source:
                        out.add(f"{r} = {n}._state({target}, {env or s + '.env'})")
                    else:  # a self-loop keeps its state when its env is unchanged
                        out.add(f"{r} = {s} if {env} is {bound[0]} else {n}._state({target}, {env})"
                                if env else f"{r} = {s}")
        out.add(f"elif {q} is None:\n    {p}.match(event, scope)" if late else "")


@dataclass(kw_only=True)
class Flow(Node):
    """Both operands observe each event; the step is accepted if either fires."""

    left: Node
    right: Node

    state_type = FlowState

    def _operands(self):
        return self.left, self.right

    def _header(self):
        return "Flow"

    def _fix(self):
        if not isinstance(self.left, Node) or not isinstance(self.right, Node):
            raise SpecificationError(f"node {self.name!r}: an operand is not a node")
        left, right = self.left._kept, self.right._kept
        if not self.attrs and left is not None and right is not None:
            self._kept = self._state(EMPTY_ENV, left, right)

    def _start(self, local, scope):
        return self._state(local, _init(self.left, scope), _init(self.right, scope))

    def _state(self, env, left, right):
        if env is EMPTY_ENV and self.left._is_rest(left) and self.right._is_rest(right):
            return self._at_rest((id(left), id(right)), FlowState, env, left, right)
        return FlowState(env, left, right)

    def _is_rest(self, state):
        return self._rest.get((id(state.left), id(state.right))) is state

    def _final(self, state):
        return self.left._final(state.left) and self.right._final(state.right)

    def _emit(self, out, s):
        n, left, right, r = out.const(self), out.var("s"), out.var("s"), out.var("r")
        out.sealed.append(self)
        bound = out.enter(s, dict(self.attrs))
        out.add(f"{left} = {s}.left")
        fired_left = self.left._emit(out, left)
        out.add(f"{right} = {s}.right")
        fired_right = self.right._emit(out, right)
        with out.block(f"if {fired_left} is None and {fired_right} is None:"):
            out.refuse(bound)
            out.add(f"{r} = None")
        with out.block("else:"):
            env = out.leave(self, bound)
            same = f"{env} is {bound[0]} and " if env else ""
            out.add(f"if {fired_left} is None:\n    {fired_left} = {left}\n"
                    f"if {fired_right} is None:\n    {fired_right} = {right}\n"
                    f"{r} = {s} if {same}{fired_left} is {left} and {fired_right} is {right} else "
                    f"{n}._state({env or s + '.env'}, {fired_left}, {fired_right})")
        return r


@dataclass(kw_only=True)
class _Quantified(Node):
    """One quantification, two offer rules.

    One ``body`` instance per value of ``var``, built up front in ascending
    order over a bounded ``domain``, held as its sorted, de-duplicated
    tuple, or on first use over ``UNBOUNDED``; the node accepts when every
    instance accepts, and fires when one fires.
    ``_offered(out)`` writes the routing of an event and returns the header
    of the block that offers it ``value`` and its ``instance`` (``None``
    for one still to build), ``None`` for no block: one instance, or none.
    """

    var: str
    domain: Sequence[Any]
    body: Node

    def _operands(self):
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

    def _start(self, local, scope):
        instances = {}
        if not isinstance(self.domain, _UnboundedDomain):
            var, body = self.var, self.body
            hidden = {var: scope[var]} if var in scope else None
            for value in self.domain:
                scope[var] = value
                instances[value] = _init(body, scope)
            _drop(scope, (var,), hidden)
        return self.state_type(local, instances)

    def _final(self, state):
        return all(self.body._final(inst) for inst in state.instances.values())

    def _emit(self, out, s):
        r = out.var("r")
        out.add(f"{r} = {out.function(self._loop)}({s}, scope, event, commits)")
        return r

    def _loop(self, out, s):
        """The node's own function: its instance loop, the body unrolled in it."""
        n, var, body = out.const(self), out.const(self.var), out.var("s")
        out.sealed.append(self)
        # Commits replace or add values once the whole step succeeds.
        out.add(f"instances = {s}.instances")
        offer = self._offered(out)
        bound = out.enter(s, dict(self.attrs))
        out.add(f"hidden = scope.get({var}, _MISSING)\nfired = False")
        with out.block(offer, offer is not None):
            lazy = isinstance(self.domain, _UnboundedDomain)
            start = f"_init({out.const(self.body)}, scope) if instance is None else " if lazy else ""
            out.add(f"scope[{var}] = value\n{body} = {start}instance")
            stepped = self.body._emit(out, body)
            out.add(f"if {stepped} is not None:\n    fired = True\n    if {stepped} is not instance:\n"
                    f"        commits.append((instances, value, {stepped}))")
        out.add(f"scope.pop({var}, None)\nif hidden is not _MISSING:\n    scope[{var}] = hidden")
        with out.block("if not fired:"):
            out.refuse(bound)
            out.add("return None")
        env = out.leave(self, bound)
        return f"{s} if {env} is {bound[0]} else {n}.state_type({env}, instances)" if env else s


@dataclass(kw_only=True)
class QuantifiedFlow(_Quantified):
    """One operand instance per domain element, every instance sees each event."""

    state_type = QuantifiedFlowState

    def _offered(self, out):
        return "for value, instance in instances.items():"


@dataclass(kw_only=True)
class QuantifiedInterleave(_Quantified):
    """One isolated operand instance per routing value.

    The routing value is the event's first argument.  With
    ``domain=UNBOUNDED`` instances are created on first use.
    """

    domain: Sequence[Any] | _UnboundedDomain

    state_type = QuantifiedInterleaveState

    def _offered(self, out):
        node = out.const(f"node {self.name!r}: ")
        out.add(f"if not event.args:\n    raise InputError({node} + 'event ' + repr(event.name) + "
                f"' has no argument to route on')\nvalue = event.args[0]\nif value is None:\n"
                f"    raise InputError({node} + 'routing value is missing')\ntry:\n    hash(value)\n"
                f"except TypeError as exc:\n    raise InputError({node} + 'routing value is not hashable') from exc\n"
                f"if value != value:  # a NaN would route each object to its own instance\n"
                f"    raise InputError({node} + 'routing value is not equal to itself')\n"
                f"instance = instances.get(value)")
        # Outside a bounded domain no instance is offered; an unbounded one builds it.
        return None if isinstance(self.domain, _UnboundedDomain) else "if instance is not None:"


@dataclass(kw_only=True)
class Call(Node):
    """Delegate to ``callee``, a node made before the call, so never unresolved or recursive.

    ``args`` binds exactly the callee's ``params``, held as an ``Env``; values may be
    callables evaluated against the environment at initialisation time.
    """

    callee: Node
    args: Mapping[str, AttrInit] = field(default_factory=dict)

    state_type = CallState
    _open = ()  # a call has no action

    def _operands(self):
        return (self.callee,)

    def _fix(self):
        if self.attrs or self.action:
            raise SpecificationError(f"call {self.name!r} must not declare attributes")
        if not isinstance(self.callee, Node):
            raise SpecificationError(f"call {self.name!r}: callee {self.callee!r} is not a node")
        if not isinstance(self.args, Mapping):
            raise SpecificationError(f"call {self.name!r}: args is not a mapping of names to values")
        self.args = Env(self.args) if self.args else EMPTY_ENV
        self._check_initialisers(self.args)
        if set(self.args) != set(params := self.callee.params):
            raise SpecificationError(
                f"call {self.name!r}: argument names {sorted(self.args)} do not match "
                f"parameters {sorted(params)} of {self.callee.name!r}"
            )
        if not self.args and self.callee._kept is not None:
            self._kept = self._state(EMPTY_ENV, self.callee._kept)

    def _header(self):
        return f"Call {self.callee.name}({', '.join(self.args)})"

    def _start(self, local, scope):
        # A call declares no attributes; its parameters are bound like them.
        params = self.args
        if not params:
            return self._state(EMPTY_ENV, _init(self.callee, scope))
        if any(map(callable, params.values())):
            enclosing = Env(scope)
            params = Env({n: v(enclosing) if callable(v) else v for n, v in params.items()})
        shadowed = None if scope.keys().isdisjoint(params) else _bind(scope, params)
        scope.update(params)
        inner = _init(self.callee, scope)
        _drop(scope, params, shadowed)
        return self._state(params, inner)

    def _state(self, env, inner):
        if env is EMPTY_ENV and self.callee._is_rest(inner):
            return self._at_rest(id(inner), CallState, env, inner)
        return CallState(env, inner)

    def _is_rest(self, state):
        return self._rest.get(id(state.inner)) is state

    def _final(self, state):
        return self.callee._final(state.inner)

    def _emit(self, out, s):
        # The callee's own function, compiled now if it is not yet, is a constant here.
        n, code = out.const(self), out.const(self.callee._code or _compile(self.callee))
        inner, r = out.var("r"), out.var("r")
        bound = out.enter(s, self.args)  # parameters are constant: popped whether or not it fires
        out.add(f"{inner} = {code}({s}.inner, scope, event, commits)")
        out.refuse(bound)
        out.add(f"{r} = None if {inner} is None else {s} if {inner} is {s}.inner else "
                f"{n}._state({s}.env, {inner})")
        return r


# ---------------------------------------------------------------------------
# Validation and initialisation
# ---------------------------------------------------------------------------


def walk(spec: Node) -> Iterator[tuple[int, Node]]:
    """Yield ``(depth, node)`` in pre-order, a call's callee under the call."""
    pending = [(0, spec)]
    while pending:
        depth, node = pending.pop()
        yield depth, node
        pending += [(depth + 1, operand) for operand in reversed(node._operands())]


def describe(spec: Node) -> str:
    """One line per node of ``walk``, indented by depth, and one per transition."""
    lines = []
    for depth, node in walk(spec):
        params = f"({', '.join(node.params)})" if node.params else ""
        attrs = f" attrs({', '.join(n for n, _ in node.attrs)})" if node.attrs else ""
        text = f"{node.name}{params}{attrs}{_named(' / ', node.action)}: {node._header()}"
        lines += ["  " * depth + line for line in text.split("\n")]
    return "\n".join(lines)


def _check_arity(label: str, f: Any) -> None:
    """Refuse ``f`` unless it is ``None`` or takes the one argument the engine
    passes; a callable whose signature cannot be read (``dict``, some builtins) passes."""
    try:
        signature = inspect.signature(f)
    except (TypeError, ValueError):  # not callable, or no signature to read
        if f is None or callable(f):
            return
        raise SpecificationError(f"{label} is not callable") from None
    try:
        signature.bind(object())
    except TypeError:
        raise SpecificationError(f"{label} does not take one argument") from None


def _named(before: str, value: Any, after: str = "") -> str:
    name = getattr(value, "__qualname__", type(value).__qualname__)
    return "" if value is None else f"{before}{name}{after}"


def _slot(slot: Any) -> str:
    name = slot.name if isinstance(slot, (Capture, Ref)) else repr(slot)
    return f"?{name}" if isinstance(slot, Capture) else name


def init(spec: Node, env: Mapping[str, Any] | None = None) -> Any:
    """Build the initial runtime state of ``spec``.

    Attribute initialisers are evaluated against ``env`` extended with the
    attributes already initialised on the same node, in declaration order.
    """
    return _init(spec, dict(env) if env else {})


def _init(spec: Node, scope: dict) -> Any:
    """The initial state of ``spec`` under ``scope``, which it leaves as it found it."""
    state = spec._kept
    if state is not None:
        return state
    local = spec._plain
    if local is None:
        local = _init_attrs(spec, scope)
    if not local:
        return spec._start(local, scope)
    shadowed = None if scope.keys().isdisjoint(local) else _bind(scope, local)
    scope.update(local)
    state = spec._start(local, scope)
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


def is_final(spec: Node, state: Any) -> bool:
    """True when the state satisfies the node's acceptance condition."""
    _check_shape(spec, state)
    return spec._final(state)


def step(
    spec: Node, state: Any, event: Event, env: Mapping[str, Any] | None = None
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
    code = spec._code or _compile(spec)
    scope = dict(env) if env else {}
    commits: list[tuple[dict, Any, Any]] = []  # instance writes, made once the step succeeds
    new_state = code(state, scope, event, commits)
    if new_state is None:
        return None
    for instances, value, instance in commits:
        instances[value] = instance
    return new_state, Env(scope)


def _compile(spec: Node) -> Callable:
    """Generate ``spec``'s step as top-level functions whose defaults read the consts, its
    callees' compiled first; compile it and keep it on ``spec``.  Each takes the state, the
    scope, the event and the commit queue."""
    out = _Source()
    entry = out.function(spec._loop if isinstance(spec, _Quantified) else spec._emit)
    namespace = dict(out.consts)  # what the defaults read; each function is defined into it
    exec(compile("\n".join(out.text) + "\n", f"<flowdetect step {spec.name!r}>", "exec"), globals(), namespace)
    object.__setattr__(spec, "_code", namespace[entry])
    for part in out.sealed:  # its guards and actions are constants of the code now
        object.__setattr__(part, "_open", ())
    return spec._code


class _Source:
    """The source of one compiled step: in ``text``, a top-level function for
    the node compiled and one per quantified node under it, down to the calls,
    and in ``sealed`` the parts it is written from.  A function takes the
    ``consts`` it names (nodes, patterns, guards, actions, names, states and
    its callees' functions) and the functions it calls as defaults no caller
    passes, so it reads them as locals; at its top it tests the event side of
    each pattern its leaves use, its ``tests``."""

    def __init__(self) -> None:
        # ``names`` maps a const's id to its name; ``used`` is what the current function names.
        self.consts, self.names, self.used, self.tests = {}, {}, {}, {}
        self.text, self.lines, self.sealed = [], [], []
        self.depth = self.count = 0

    def var(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, value: Any) -> str:
        name = self.names.setdefault(id(value), f"k{len(self.names)}")
        self.consts[name] = self.used[name] = value
        return name

    def add(self, code: str) -> None:
        self.lines += ["    " * self.depth + line for line in code.splitlines()]

    @contextmanager
    def block(self, header: str, opened: bool = True) -> Iterator[None]:
        self.add(header if opened else "")  # then what is added inside goes under it
        self.depth += opened
        yield
        self.depth -= opened

    def function(self, emit: Callable[[_Source, str], str]) -> str:
        """Emit a function of its own around ``emit``'s code; return its name."""
        outer = self.lines, self.depth, self.used, self.tests
        name, s = self.var("f"), self.var("s")
        self.lines, self.depth, self.used, self.tests = [], 1, {}, {}
        self.add(f"return {emit(self, s)}")
        defaults = ", ".join(f"{k}={k}" for k in self.used)
        self.text += [f"def {name}({s}, scope, event, commits, {defaults}):"]
        self.text += ["    args = event.args"] if self.tests else []
        self.text += ["    " + line for _, test in self.tests.values() for line in test.splitlines()]
        self.text += self.lines
        self.lines, self.depth, self.used, self.tests = outer
        self.used[name] = None
        return name

    def test(self, pattern: EventPattern) -> tuple[str, bool]:
        """The variable of this function's test of the event side of ``pattern``, and whether
        it may be ``None``: true when it matches, ``None`` when it fails after a ``Ref``, else false."""
        if id(pattern) not in self.tests:
            fails = early = [f"event.name != {self.const(pattern.name)}", f"len(args) != {len(pattern.slots)}"]
            late: list[str] = []
            for i, slot in enumerate(pattern.slots):
                if isinstance(slot, Ref):
                    fails = late
                elif not isinstance(slot, Capture):
                    fails.append(f"{self.const(slot)} != args[{i}]")
                elif slot.type is not None:
                    fails.append(f"not isinstance(args[{i}], {self.const(slot.type)})")
            q = self.var("q")
            test = f"if {' or '.join(early)}:\n    {q} = False\n" + (
                f"elif {' or '.join(late)}:\n    {q} = None\n" if late else "") + f"else:\n    {q} = True"
            self.tests[id(pattern)] = (q, bool(late)), test
        return self.tests[id(pattern)][0]

    def enter(self, s: str, bindings: Mapping[str, Any]) -> tuple[str, str] | None:
        """Bind the env of the state in ``s``, whose keys are among the names of ``bindings``,
        through ``_bind`` only if one of them is in scope; the variables of it and of what it shadowed."""
        if not bindings:
            return None
        env, shadowed = self.var("e"), self.var("h")
        names = " or ".join(f"{self.const(name)} in scope" for name in bindings)
        self.add(f"{env} = {s}.env\nif {names}:\n    {shadowed} = _bind(scope, {env})\n"
                 f"else:\n    scope.update({env})\n    {shadowed} = None")
        return env, shadowed

    def refuse(self, bound: tuple[str, str] | None, when: str = "") -> None:
        if bound:
            self.add(f"if {when}{bound[0]}:\n    _drop(scope, {bound[0]}, {bound[1]})")

    def leave(self, node: Node, bound: tuple[str, str] | None) -> str | None:
        """Run the node action, take back the keys of the env the entry bound, restore what they
        shadowed; the variable of the new env (``None``: a node without attributes keeps its own)."""
        if node.action is not None:
            self.add(f"{self.const(node.action)}(scope)")
        if bound is None:
            return None
        (env, shadowed), new = bound, self.var("e")
        names = [self.const(name) for name, _ in node.attrs]
        same = " and ".join(f"scope.get({k}, _MISSING) is {env}[{k}]" for k in names)
        self.add(f"if len({env}) == {len(names)} and {same}:"
                 + "".join(f"\n    del scope[{k}]" for k in names) + f"\n    {new} = {env}\nelse:\n    {new} = {{}}\n"
                 f"    for name in {env}:\n        if name in scope:\n            {new}[name] = scope.pop(name)\n"
                 f"    {new} = Env({new}) or EMPTY_ENV\nif {shadowed}:\n    scope.update({shadowed})")
        return new


def _bind(scope: dict, bindings: Mapping[str, Any]) -> dict | None:
    """Bind ``bindings`` into ``scope``; return the bindings they shadow.

    Returns ``None``, allocating nothing, when they shadow no name.  The
    engine calls it only where one of the names is bound already, and binds
    in place where none is.
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


# ---------------------------------------------------------------------------
# Debug serialization
# ---------------------------------------------------------------------------


#: The kind a runtime state dumps under, ahead of its fields.
_STATE_KINDS = {AutomatonState: "automaton", FlowState: "flow", CallState: "call",
                QuantifiedFlowState: "quantified_flow", QuantifiedInterleaveState: "quantified_interleave"}


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
        named = {}
        for k in sorted(value, key=lambda k: (type(k).__name__, repr(k))):
            first = named.setdefault(str(k), k)
            if first is not k:
                raise EngineError(f"cannot dump keys {first!r} and {k!r}: both print as {str(k)!r}")
        return {name: _dump_value(value[k]) for name, k in named.items()}
    if hasattr(value, "to_debug_dict"):
        out = {"type": type(value).__name__}
        out.update(_dump_value(value.to_debug_dict()))
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = _STATE_KINDS.get(type(value))
        out = {"type": type(value).__name__} if kind is None else {"kind": kind}
        for f in dataclasses.fields(value):
            out[f.name] = _dump_value(getattr(value, f.name))
        return out
    return {"type": type(value).__name__}


def state_to_dict(state: Any) -> dict[str, Any]:
    """Plain-data view of a runtime state: its ``kind`` and each field, as ``_dump_value`` writes them.

    Map keys sort by type name and ``repr``; two that print alike raise ``EngineError``.
    """
    if type(state) not in _STATE_KINDS:
        raise EngineError(f"cannot serialize {type(state).__name__}")
    return _dump_value(state)


def dump_state(state: Any) -> str:
    """Canonical nested text form of a runtime state (stable key order)."""
    return json.dumps(state_to_dict(state), sort_keys=True, indent=2)
