"""Operator semantics of the state-machine interpreter.

The fixtures here are tiny hand-built trees whose post-step environments can
be predicted by hand; a seeded random-tree generator backs the structural
laws (acceptance, refusal totality, determinism).
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import hashlib
import json
import operator
import pickle
import random
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowdetect import engine as engine_module
from flowdetect.engine import (
    EMPTY_ENV,
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
    describe,
    dump_state,
    init,
    is_final,
    state_to_dict,
    step,
    validate_spec,
    walk,
)
from flowdetect.errors import EngineError, InputError, SpecificationError

TICK = EventPattern("tick")
GO = EventPattern("go", (Capture("arg"),))


def inc(name, by=1):
    def action(env):
        env[name] = env[name] + by

    return action


def scale(name, by):
    def action(env):
        env[name] = env[name] * by

    return action


def loop(name, pattern=TICK, *, attrs=(), params=(), guard=None, action=None):
    """Single-state automaton that always accepts its pattern."""
    return Automaton(
        name=name,
        attrs=attrs,
        params=params,
        states=("s",),
        initial="s",
        finals=("s",),
        transitions=(
            Transition(source="s", pattern=pattern, target="s", guard=guard, action=action),
        ),
    )


# ------------------------------------------------------------------------ env

def test_env_override_is_right_biased():
    merged = Env({"a": 1, "b": 2}).override({"b": 9, "c": 3})
    assert dict(merged) == {"a": 1, "b": 9, "c": 3}
    assert type(merged) is Env
    env = Env({"a": 1})
    assert env.override({}) is env


MUTATIONS = {
    "__setitem__": lambda env: operator.setitem(env, "a", 1),
    "__delitem__": lambda env: operator.delitem(env, "a"),
    "__ior__": lambda env: operator.ior(env, {"a": 1}),
    "clear": lambda env: env.clear(),
    "pop": lambda env: env.pop("a", None),
    "popitem": lambda env: env.popitem(),
    "setdefault": lambda env: env.setdefault("a", 1),
    "update": lambda env: env.update(a=1),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_env_mutators_raise_and_leave_it_unchanged(mutation):
    for env in (EMPTY_ENV, Env({"a": 0})):
        before = dict(env)
        with pytest.raises(TypeError):
            MUTATIONS[mutation](env)
        assert env == before
    assert len(EMPTY_ENV) == 0


def test_env_copies_and_pickles_are_envs():
    env = Env({"a": 1, "b": [2, 3]})
    for twin in (copy.copy(env), copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
        assert type(twin) is Env
        assert twin == env and twin is not env
    assert copy.deepcopy(env)["b"] is not env["b"]
    assert copy.copy(env)["b"] is env["b"]


def test_env_equals_other_mappings_and_keeps_its_repr():
    env = Env({"a": 1, "b": 2})
    assert env == {"b": 2, "a": 1} and {"a": 1, "b": 2} == env
    assert env == MappingProxyType({"a": 1, "b": 2})
    assert MappingProxyType({"a": 1, "b": 2}) == env
    assert env != {"a": 1}
    assert repr(env) == "Env({'a': 1, 'b': 2})"
    assert repr(EMPTY_ENV) == "Env({})"


# ------------------------------------------------------------ events, patterns

def test_event_name_must_be_non_empty():
    with pytest.raises(InputError):
        Event("")


def test_pattern_literal_and_capture():
    pattern = EventPattern("e", ("fixed", Capture("v", int)))
    assert pattern.match(Event("e", ("fixed", 3)), EMPTY_ENV) == {"v": 3}
    assert pattern.match(Event("e", ("fixed", "3")), EMPTY_ENV) is None  # wrong type
    assert pattern.match(Event("e", ("other", 3)), EMPTY_ENV) is None
    assert pattern.match(Event("e", ("fixed",)), EMPTY_ENV) is None  # arity
    assert pattern.match(Event("x", ("fixed", 3)), EMPTY_ENV) is None


def test_pattern_ref_matches_bound_variable():
    pattern = EventPattern("e", (Ref("who"),))
    env = Env({"who": "alice"})
    assert pattern.match(Event("e", ("alice",)), env) == {}
    assert pattern.match(Event("e", ("bob",)), env) is None
    with pytest.raises(SpecificationError):
        pattern.match(Event("e", ("alice",)), EMPTY_ENV)


# -------------------------------------------------------------------- automata

def test_counter_automaton_steps_and_refuses():
    spec = loop("count", attrs=(("c", 0),), action=inc("c"))
    state = init(spec)
    assert dict(state.env) == {"c": 0}
    result = step(spec, state, Event("tick"))
    assert result is not None
    new_state, out = result
    assert dict(new_state.env) == {"c": 1}
    assert dict(out) == {}  # attr stays local
    assert dict(state.env) == {"c": 0}  # input state never mutated
    assert step(spec, state, Event("tock")) is None


def test_guard_false_refuses_event():
    spec = loop("gated", GO, guard=lambda env: env["arg"] > 3)
    state = init(spec)
    assert step(spec, state, Event("go", (2,))) is None
    assert step(spec, state, Event("go", (5,))) is not None


def test_first_declared_transition_wins():
    spec = Automaton(
        name="race",
        states=("s", "a", "b"),
        initial="s",
        finals=("a", "b"),
        transitions=(
            Transition(source="s", pattern=TICK, target="a"),
            Transition(source="s", pattern=TICK, target="b"),
        ),
    )
    new_state, _ = step(spec, init(spec), Event("tick"))
    assert new_state.current == "a"


def test_transitions_filtered_by_source_state():
    spec = Automaton(
        name="two-phase",
        states=("closed", "open"),
        initial="closed",
        finals=("open",),
        transitions=(
            Transition(source="open", pattern=EventPattern("shut"), target="closed"),
            Transition(source="closed", pattern=EventPattern("open"), target="open"),
        ),
    )
    state = init(spec)
    assert step(spec, state, Event("shut")) is None  # wrong source state
    new_state, _ = step(spec, state, Event("open"))
    assert new_state.current == "open"
    assert is_final(spec, new_state)


def test_captures_are_transient_but_visible_to_action():
    def record(env):
        env["seen"] = env["x"]

    spec = loop("shadow", EventPattern("t", (Capture("x"),)),
                attrs=(("x", 5), ("seen", None)), action=record)
    new_state, _ = step(spec, init(spec), Event("t", (9,)))
    # the action saw the captured 9, but the attribute x is restored
    assert dict(new_state.env) == {"x": 5, "seen": 9}


def test_action_exception_propagates_and_state_survives():
    def boom(env):
        raise RuntimeError("bad action")

    spec = loop("fragile", attrs=(("c", 0),), action=boom)
    state = init(spec)
    before = dump_state(state)
    with pytest.raises(RuntimeError):
        step(spec, state, Event("tick"))
    assert dump_state(state) == before


def test_guard_sees_captures():
    spec = loop("pick", EventPattern("t", (Capture("v"),)), guard=lambda env: env["v"] == "yes")
    state = init(spec)
    assert step(spec, state, Event("t", ("no",))) is None
    assert step(spec, state, Event("t", ("yes",))) is not None


# ------------------------------------------------------------------------ flow

def test_flow_runs_left_then_right():
    spec = Flow(
        name="pair",
        attrs=(("n", 0),),
        left=loop("adder", action=inc("n")),
        right=loop("scaler", action=scale("n", 10)),
    )
    new_state, out = step(spec, init(spec), Event("tick"))
    # left first: (0 + 1) * 10, not 0 * 10 + 1
    assert dict(new_state.env) == {"n": 10}
    assert dict(out) == {}


def test_flow_accepts_when_one_side_refuses():
    spec = Flow(
        name="half",
        left=loop("l", TICK, attrs=(("c", 0),), action=inc("c")),
        right=loop("r", EventPattern("other"), attrs=(("c", 0),), action=inc("c")),
    )
    new_state, _ = step(spec, init(spec), Event("tick"))
    assert dict(new_state.left.env) == {"c": 1}
    assert dict(new_state.right.env) == {"c": 0}
    assert new_state.right is not None


def test_flow_refuses_when_both_sides_refuse():
    spec = Flow(name="deaf", left=loop("l"), right=loop("r"))
    assert step(spec, init(spec), Event("nope")) is None


def test_bindings_partition_between_levels():
    # left's action touches one attr from each level and invents a new name
    def spread(env):
        env["inner"] = env["inner"] + 1
        env["outer"] = env["outer"] + 1
        env["fresh"] = "hello"

    spec = Flow(
        name="levels",
        attrs=(("outer", 0),),
        left=loop("writer", attrs=(("inner", 0),), action=spread),
        right=loop("bystander", EventPattern("other")),
    )
    new_state, out = step(spec, init(spec), Event("tick"))
    assert dict(new_state.left.env) == {"inner": 1}
    assert dict(new_state.env) == {"outer": 1}
    assert dict(out) == {"fresh": "hello"}  # unclaimed names travel outward


# -------------------------------------------------------------- quantified flow

def push_digit(env):
    env["acc"] = env["acc"] * 10 + env["x"]


def digits_spec():
    return QuantifiedFlow(
        name="digits",
        attrs=(("acc", 0),),
        var="x",
        domain=(3, 1, 2),  # declaration order is irrelevant
        body=loop("digit", action=push_digit),
    )


def in_order(state, order):
    """``state`` with its instance map rebuilt in ``order``.

    A quantified flow steps its instances in the order of that map, which
    ``init`` builds from the sorted domain.
    """
    return dataclasses.replace(state, instances={value: state.instances[value] for value in order})


def test_quantified_flow_iterates_ascending():
    spec = digits_spec()
    new_state, out = step(spec, init(spec), Event("tick"))
    assert dict(new_state.env) == {"acc": 123}
    assert "x" not in out  # the quantified variable never leaks


def test_order_hook_controls_iteration():
    # The step visits the instance map in its own order, so a map rebuilt
    # in another order forces that order.
    spec = digits_spec()
    for order, acc in (((3, 2, 1), 321), ((2, 3, 1), 231)):
        new_state, _ = step(spec, in_order(init(spec), order), Event("tick"))
        assert dict(new_state.env) == {"acc": acc}
        assert list(new_state.instances) == list(order)


def test_quantified_flow_shadowed_variable_is_restored():
    spec = digits_spec()
    state = init(spec, Env({"x": 99}))
    new_state, out = step(spec, state, Event("tick"), env=Env({"x": 99}))
    assert out["x"] == 99
    assert dict(new_state.env) == {"acc": 123}


def test_quantified_flow_fires_selectively():
    body = loop("pick", EventPattern("t", (Ref("x"),)), attrs=(("hits", 0),), action=inc("hits"))
    spec = QuantifiedFlow(name="sel", var="x", domain=(1, 2, 3), body=body)
    state = init(spec)
    new_state, _ = step(spec, state, Event("t", (2,)))
    assert {k: dict(v.env) for k, v in new_state.instances.items()} == {
        1: {"hits": 0},
        2: {"hits": 1},
        3: {"hits": 0},
    }
    assert step(spec, state, Event("t", (9,))) is None  # all instances refuse


def test_quantified_flow_failed_instance_leaves_state_untouched():
    def count_then_fail(env):
        env["hits"] = env["hits"] + 1
        if env["x"] == 2:
            raise RuntimeError("bad action")

    body = loop("fragile", attrs=(("hits", 0),), action=count_then_fail)
    spec = QuantifiedFlow(name="partial", attrs=(("acc", 0),), var="x", domain=(1, 2, 3), body=body)
    state = init(spec)
    before = dump_state(state)
    with pytest.raises(RuntimeError):
        step(spec, state, Event("tick"))  # instance 1 fired, instance 2 raised
    assert dump_state(state) == before


def test_quantified_flow_instances_get_fresh_attr_values():
    body = loop("own", attrs=(("bucket", lambda env: []),), action=lambda env: env["bucket"].append(1))
    spec = QuantifiedFlow(name="fresh", var="x", domain=(1, 2), body=body)
    state = init(spec)
    assert state.instances[1].env["bucket"] is not state.instances[2].env["bucket"]


# ------------------------------------------------------------------- shadowing

X_CAPTURE = EventPattern("t", (Capture("x"),))


def record_as(target, source):
    def action(env):
        env[target] = env[source]

    return action


def boom(env):
    raise RuntimeError("bad action")


def names_in_scope(env):
    env["names"] = sorted(env)


#: name -> (spec, step env, event, shadows, outcome).  ``shadows`` is the set
#: of kinds the step's binds return (None: it shadowed nothing; dict: it
#: shadowed a name).  ``outcome`` is ``(enclosing env, new state as
#: state_to_dict)``, ``None`` for a refusal or the exception the step raises.
SHADOWING = {
    "capture_shadows_an_attribute_guard_refuses": (
        loop("leaf", X_CAPTURE, attrs=(("x", 5), ("seen", None)),
             guard=lambda env: env["x"] != 9, action=record_as("seen", "x")),
        None, Event("t", (9,)), {None, dict}, None,
    ),
    "capture_shadows_an_attribute_guard_refuses_beside_a_sibling": (
        Flow(
            name="pair",
            attrs=(("n", 0),),
            left=loop("leaf", X_CAPTURE, attrs=(("x", 5), ("seen", None)),
                      guard=lambda env: env["x"] != 9, action=record_as("seen", "x")),
            right=loop("sibling", EventPattern("t", (Capture("y"),)), action=names_in_scope),
        ),
        None, Event("t", (9,)), {None, dict},
        ({"names": ["n", "y"]}, {
            "kind": "flow", "env": {"n": 0},
            "left": {"kind": "automaton", "current": "s", "env": {"seen": None, "x": 5}},
            "right": {"kind": "automaton", "current": "s", "env": {}},
        }),
    ),
    "capture_shadows_an_attribute_guard_accepts": (
        loop("leaf", X_CAPTURE, attrs=(("x", 5), ("seen", None)),
             guard=lambda env: env["x"] == 9, action=record_as("seen", "x")),
        None, Event("t", (9,)), {None, dict},
        ({}, {"kind": "automaton", "current": "s", "env": {"seen": 9, "x": 5}}),
    ),
    "capture_shadows_a_step_env_name": (
        loop("leaf", X_CAPTURE, action=record_as("got", "x")),
        {"x": 1}, Event("t", (9,)), {dict},
        ({"got": 9, "x": 1}, {"kind": "automaton", "current": "s", "env": {}}),
    ),
    "quantified_variable_shadows_an_enclosing_name_some_instances_fire": (
        Flow(
            name="outer",
            attrs=(("x", 99),),
            left=QuantifiedFlow(
                name="sel", var="x", domain=(1, 2, 3),
                body=loop("pick", EventPattern("t", (Ref("x"),)),
                          attrs=(("hits", 0),), action=inc("hits")),
            ),
            right=loop("after", EventPattern("t", (Capture("y"),)), action=inc("x")),
        ),
        None, Event("t", (2,)), {None},
        ({}, {
            "kind": "flow", "env": {"x": 100},
            "left": {"kind": "quantified_flow", "env": {}, "instances": {
                str(k): {"kind": "automaton", "current": "s", "env": {"hits": int(k == 2)}}
                for k in (1, 2, 3)
            }},
            "right": {"kind": "automaton", "current": "s", "env": {}},
        }),
    ),
    "attribute_free_flow_under_an_attribute_holding_parent": (
        Flow(
            name="outer",
            attrs=(("n", 0),),
            left=Flow(name="inner", left=loop("a", action=inc("n")), right=loop("b", action=scale("n", 10))),
            right=loop("deaf", EventPattern("other")),
        ),
        {"n": 7}, Event("tick"), {None, dict},
        ({"n": 7}, {
            "kind": "flow", "env": {"n": 10},
            "left": {
                "kind": "flow", "env": {},
                "left": {"kind": "automaton", "current": "s", "env": {}},
                "right": {"kind": "automaton", "current": "s", "env": {}},
            },
            "right": {"kind": "automaton", "current": "s", "env": {}},
        }),
    ),
    "action_raises_after_a_shadowing_bind": (
        loop("leaf", X_CAPTURE, attrs=(("x", 5),), action=boom),
        {"x": 1}, Event("t", (9,)), {dict}, RuntimeError,
    ),
}


@pytest.mark.parametrize("case", sorted(SHADOWING))
def test_shadowing_round_trips(case, monkeypatch):
    spec, env, event, shadows, outcome = SHADOWING[case]
    bind, drop = engine_module._bind, engine_module._drop
    kinds = set()

    # Attributes, parameters and shadowing captures bind through ``_bind``.
    # A step binds the captures that shadow nothing inline, so the kind of a
    # capture bind is read where ``_drop`` restores what it shadowed (an
    # action that raises restores nothing); the restores of ``_bind``'s own
    # binds add no kind it has not returned.
    def recording(scope, bindings):
        shadowed = bind(scope, bindings)
        kinds.add(None if shadowed is None else type(shadowed))
        return shadowed

    def restoring(scope, names, shadowed):
        kinds.add(None if shadowed is None else type(shadowed))
        drop(scope, names, shadowed)

    state = init(spec)  # init binds through ``_bind`` too; only the step's binds count
    monkeypatch.setattr(engine_module, "_bind", recording)
    monkeypatch.setattr(engine_module, "_drop", restoring)
    before = dump_state(state)
    given_env = dict(env) if env else None
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            step(spec, state, event, env=env)
    else:
        result = step(spec, state, event, env=env)
        if outcome is None:
            assert result is None
        else:
            new_state, out = result
            assert (dict(out), json.loads(dump_state(new_state))) == outcome
    if not isinstance(outcome, tuple):
        assert dump_state(state) == before
    assert env == given_env
    assert kinds == shadows


def test_shadowing_cases_see_both_kinds_of_bind():
    assert set().union(*(case[3] for case in SHADOWING.values())) == {None, dict}


# ---------------------------------------------------------------- node actions

@pytest.mark.parametrize("kind", ("flow", "quantified_flow"))
def test_a_node_action_runs_once_after_its_operands_and_keeps_what_it_rebinds(kind):
    seen = []

    def settle(env):
        seen.append(dict(env))
        env["n"] = env["n"] * 10

    if kind == "flow":
        spec = Flow(name="node", attrs=(("n", 0),), action=settle,
                    left=loop("a", action=inc("n")), right=loop("b", action=inc("n", 2)))
        event = Event("tick")
    else:
        spec = QuantifiedFlow(name="node", var="v", domain=(1, 2, 3), attrs=(("n", 0),),
                              action=settle, body=loop("pick", EventPattern("t", (Ref("v"),)),
                                                       action=inc("n", 3)))
        event = Event("t", (2,))
    new_state, out = step(spec, init(spec), event, env={"outer": 1})
    assert seen == [{"outer": 1, "n": 3}]  # the operands' updates, no quantified variable
    assert dict(new_state.env) == {"n": 30}
    assert dict(out) == {"outer": 1}


@pytest.mark.parametrize("kind", ("flow", "quantified_flow", "quantified_interleave"))
def test_a_refused_node_runs_no_action(kind):
    calls = []
    deaf = loop("deaf", EventPattern("other"))
    spec = {
        "flow": Flow(name="node", attrs=(("n", 0),), action=calls.append, left=deaf, right=deaf),
        "quantified_flow": QuantifiedFlow(name="node", var="v", domain=(1, 2), attrs=(("n", 0),),
                                          action=calls.append, body=deaf),
        "quantified_interleave": QuantifiedInterleave(name="node", var="v", domain=UNBOUNDED,
                                                      attrs=(("n", 0),), action=calls.append,
                                                      body=deaf),
    }[kind]
    assert step(spec, init(spec), Event("tick", ("alice",))) is None
    assert calls == []


@pytest.mark.parametrize("kind", ("flow", "quantified_flow"))
def test_a_node_action_that_raises_changes_nothing(kind):
    counter = loop("counter", attrs=(("hits", 0),), action=inc("hits"))
    if kind == "flow":
        spec = Flow(name="node", attrs=(("k", 1),), action=boom,
                    left=counter, right=loop("other", action=inc("k")))
    else:
        spec = QuantifiedFlow(name="node", var="v", domain=(1, 2), attrs=(("k", 1),),
                              action=boom, body=counter)
    state = init(spec)
    before = dump_state(state)
    env = {"k": "enclosing", "kept": [1]}
    with pytest.raises(RuntimeError, match="bad action"):
        step(spec, state, Event("tick"), env=env)  # the operands fired first
    assert dump_state(state) == before
    assert env == {"k": "enclosing", "kept": [1]}


def snapshot(env):
    env["seen"] = {name: env[name] for name in sorted(env) if name != "seen"}


#: An attribute-holding node that refuses ``Event("t", ("b",))``; its
#: attributes ``n`` and ``m`` shadow names of the enclosing scope.
REFUSING = {
    "flow": Flow(
        name="inner", attrs=(("n", 1), ("m", 2)),
        left=loop("deaf_l", EventPattern("other")), right=loop("deaf_r", EventPattern("other")),
    ),
    "interleave_outside_its_domain": QuantifiedInterleave(
        name="inner", attrs=(("n", 1), ("m", 2)), var="u", domain=("a",),
        body=loop("any", EventPattern("t", (Capture("who"),))),
    ),
    "interleave_whose_instance_refuses": QuantifiedInterleave(
        name="inner", attrs=(("n", 1), ("m", 2)), var="u", domain=UNBOUNDED,
        body=loop("picky", EventPattern("t", (Capture("who"),)), guard=lambda env: False),
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSING))
def test_a_refusing_node_with_attributes_leaves_the_scope_as_it_found_it(case):
    spec = Flow(
        name="outer", attrs=(("n", 99), ("u", "outer")),
        left=REFUSING[case],
        right=loop("sibling", EventPattern("t", (Capture("who"),)), action=snapshot),
    )
    state = init(spec)
    new_state, out = step(spec, state, Event("t", ("b",)), env={"m": "enclosing"})
    # the sibling steps after the refusal: the refused node's names are gone,
    # and what they shadowed is back
    assert out["seen"] == {"m": "enclosing", "n": 99, "u": "outer", "who": "b"}
    assert new_state.left is state.left
    assert dict(new_state.env) == {"n": 99, "u": "outer"}


# ------------------------------------------------- one match per pattern per step

def test_shared_ref_pattern_fires_only_where_the_variable_equals_the_argument():
    # Both leaves of every instance use one pattern object, so the step
    # matches the event once and each leaf checks only its own Ref.
    shared = EventPattern("t", (Ref("x"), Capture("n", int)))
    seen = []

    def record(side):
        return lambda env: seen.append((side, env["x"], env["n"]))

    body = Flow(
        name="pair",
        left=loop("left", shared, action=record("left")),
        right=loop("right", shared, action=record("right")),
    )
    spec = QuantifiedFlow(name="sel", var="x", domain=(1, 2, 3), body=body)
    state = init(spec)
    assert step(spec, state, Event("t", (2, 7))) is not None
    assert seen == [("left", 2, 7), ("right", 2, 7)]
    assert step(spec, state, Event("t", (9, 7))) is None
    assert step(spec, state, Event("t", (2, "7"))) is None  # the capture's type fails
    assert seen == [("left", 2, 7), ("right", 2, 7)]


def test_unbound_ref_before_a_failing_literal_still_raises():
    pattern = EventPattern("e", (Ref("missing"), "lit"))
    with pytest.raises(SpecificationError):
        pattern.match(Event("e", ("a", "other")), EMPTY_ENV)
    spec = loop("leaf", pattern)
    with pytest.raises(SpecificationError):
        step(spec, init(spec), Event("e", ("a", "other")))
    # A slot that fails before the Ref is reached refuses instead.
    late = loop("late", EventPattern("e", ("lit", Ref("missing"))))
    assert late.transitions[0].pattern.match(Event("e", ("other", "a")), EMPTY_ENV) is None
    assert step(late, init(late), Event("e", ("other", "a"))) is None


def test_a_leaf_without_the_variable_raises_though_another_leaf_matched():
    # The memo keeps only the event's side of a match: each leaf still
    # checks the Ref against its own scope.
    shared = EventPattern("t", (Ref("x"),))
    spec = Flow(
        name="mixed",
        left=QuantifiedFlow(name="sel", var="x", domain=(1, 2), body=loop("bound", shared)),
        right=loop("unbound", shared),
    )
    with pytest.raises(SpecificationError):
        step(spec, init(spec), Event("t", (1,)))


# -------------------------------------------------------- quantified interleave

def accumulate(env):
    env["c"] = env["c"] + env["k"]


def routed_spec(domain=UNBOUNDED):
    body = loop("acc", EventPattern("e", (Capture("u"), Capture("k"))),
                attrs=(("c", 0),), action=accumulate)
    return QuantifiedInterleave(name="users", var="u", domain=domain, body=body)


def run_events(spec, events, defs=None):
    state = init(spec, defs=defs)
    for event in events:
        result = step(spec, state, event, defs=defs)
        if result is not None:
            state, _ = result
    return state


def test_interleave_isolates_instances_per_routing_value():
    spec = routed_spec()
    mixed = [
        Event("e", ("alice", 1)),
        Event("e", ("bob", 10)),
        Event("e", ("alice", 2)),
        Event("e", ("bob", 20)),
    ]
    state = run_events(spec, mixed)
    assert dict(state.instances["alice"].env) == {"c": 3}
    assert dict(state.instances["bob"].env) == {"c": 30}

    # the same per-user history, replayed alone, yields the same instance
    alone = run_events(spec, [e for e in mixed if e.args[0] == "alice"])
    assert state_to_dict(alone.instances["alice"]) == state_to_dict(state.instances["alice"])


def test_interleave_bounded_domain_is_eager_and_closed():
    spec = routed_spec(domain=("alice",))
    state = init(spec)
    assert set(state.instances) == {"alice"}
    assert step(spec, state, Event("e", ("bob", 5))) is None  # outside the domain
    new_state, _ = step(spec, state, Event("e", ("alice", 5)))
    assert dict(new_state.instances["alice"].env) == {"c": 5}


def test_interleave_refusal_discards_lazy_instance():
    body = loop("picky", EventPattern("e", (Capture("u"), Capture("k"))),
                attrs=(("c", 0),), guard=lambda env: env["k"] > 0, action=accumulate)
    spec = QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED, body=body)
    state = init(spec)
    before = dump_state(state)
    assert step(spec, state, Event("e", ("carol", -5))) is None
    assert dump_state(state) == before
    assert state.instances == {}


def test_interleave_step_replaces_only_the_routed_instance_in_place():
    spec = routed_spec()
    state = run_events(spec, [Event("e", ("alice", 1)), Event("e", ("bob", 10))])
    instances = dict(state.instances)
    new_state, _ = step(spec, state, Event("e", ("alice", 2)))
    assert new_state.instances is state.instances  # no per-event copy of the map
    assert new_state.instances["bob"] is instances["bob"]
    assert new_state.instances["alice"] is not instances["alice"]
    assert dict(new_state.instances["alice"].env) == {"c": 3}


def fail_on_negative(env):
    if env["k"] < 0:
        raise RuntimeError("bad action")


def test_interleave_failed_step_leaves_state_untouched():
    pattern = EventPattern("e", (Ref("u"), Capture("k")))
    body = Flow(
        name="pair",
        left=loop("counter", pattern, attrs=(("c", 0),), action=inc("c")),
        right=loop("fragile", pattern, action=fail_on_negative),
    )
    spec = QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED, body=body)
    state = run_events(spec, [Event("e", ("alice", 1))])
    before = dump_state(state)
    with pytest.raises(RuntimeError):
        step(spec, state, Event("e", ("alice", -1)))  # counter fired, fragile raised
    assert dump_state(state) == before
    with pytest.raises(RuntimeError):
        step(spec, state, Event("e", ("bob", -1)))
    assert set(state.instances) == {"alice"}


def test_nested_interleave_commits_nothing_when_a_later_operand_raises():
    pattern = EventPattern("e", (Capture("u"), Capture("k")))
    spec = Flow(name="outer", left=routed_spec(), right=loop("fragile", pattern, action=fail_on_negative))
    state = run_events(spec, [Event("e", ("alice", 1))])
    before = dump_state(state)
    for user in ("alice", "bob"):
        with pytest.raises(RuntimeError):
            step(spec, state, Event("e", (user, -1)))  # the interleave fired first
        assert dump_state(state) == before


def test_interleave_shares_attribute_free_states_and_never_changes_them():
    pattern = EventPattern("e", (Ref("u"), Capture("k")))
    body = Automaton(
        name="toggle", states=("s0", "s1"), initial="s0", finals=("s1",),
        transitions=(
            Transition(source="s0", pattern=EventPattern("hold", (Ref("u"),)), target="s0"),
            Transition(source="s0", pattern=pattern, target="s1", action=fail_on_negative),
            Transition(source="s1", pattern=pattern, target="s0", action=fail_on_negative),
        ),
    )
    spec = QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED, body=body)
    state = run_events(spec, [Event("hold", ("alice",)), Event("hold", ("bob",))])
    rest = state.instances["alice"]
    assert state.instances["bob"] is rest  # one at-rest object for both users
    bob = dump_state(state.instances["bob"])

    state, _ = step(spec, state, Event("e", ("alice", 1)))
    assert state.instances["alice"].current == "s1"
    assert state.instances["bob"] is rest
    assert dump_state(state.instances["bob"]) == bob
    assert (rest.current, rest.env) == ("s0", EMPTY_ENV)

    alice = dump_state(state.instances["alice"])
    for user in ("alice", "bob"):
        with pytest.raises(RuntimeError):
            step(spec, state, Event("e", (user, -1)))  # s1 -> s0 and s0 -> s1 both raise
        assert dump_state(state.instances["alice"]) == alice
        assert dump_state(state.instances["bob"]) == bob
        assert (rest.current, rest.env) == ("s0", EMPTY_ENV)

    state, _ = step(spec, state, Event("e", ("bob", 1)))
    assert state.instances["bob"] is state.instances["alice"]  # both at rest in s1


def test_shared_states_are_kept_per_node_and_bounded_by_its_states():
    def users():
        return QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED, body=Automaton(
            name="toggle", states=("s0", "s1"), initial="s0", finals=("s1",),
            transitions=(
                Transition(source="s0", pattern=EventPattern("e", (Ref("u"),)), target="s1"),
                Transition(source="s1", pattern=EventPattern("e", (Ref("u"),)), target="s0"),
            ),
        ))

    spec, other = users(), users()
    names = [f"u{n}" for n in range(300)]
    events = [Event("e", (name,)) for name in names] + [Event("e", (name,)) for name in names[::2]]
    state, twin = run_events(spec, events), run_events(other, events)
    assert state.instances["u0"] is state.instances["u2"]  # back in s0, shared
    assert state.instances["u1"] is state.instances["u3"]  # in s1, shared
    assert state.instances["u0"] is not twin.instances["u0"]  # another node, another table
    assert sorted(spec.body._rest) == sorted(other.body._rest) == ["s0", "s1"]


def test_interleave_routing_errors():
    spec = routed_spec()
    state = init(spec)
    with pytest.raises(InputError):
        step(spec, state, Event("e"))  # no argument to route on
    with pytest.raises(InputError):
        step(spec, state, Event("e", (None, 1)))
    with pytest.raises(InputError):
        step(spec, state, Event("e", ([1, 2], 1)))  # unhashable
    for nan in (float("nan"), float("nan")):  # two objects, each unequal to itself
        with pytest.raises(InputError, match="not equal to itself"):
            step(spec, state, Event("e", (nan, 1)))
    assert state.instances == {}


def test_interleave_empty_bounded_domain_is_vacuously_final():
    spec = routed_spec(domain=())
    state = init(spec)
    assert is_final(spec, state)
    assert step(spec, state, Event("e", ("alice", 1))) is None


# ----------------------------------------------------------------------- calls

def add_param(env):
    env["total"] = env["total"] + env["base"]


def callee_spec():
    return loop("acc", params=("base",), attrs=(("total", 0),), action=add_param)


def test_call_binds_parameters():
    defs = {"acc": callee_spec()}
    spec = Call(name="use", callee="acc", args={"base": 7})
    state = init(spec, defs=defs)
    assert dict(state.env) == {"base": 7}
    new_state, out = step(spec, state, Event("tick"), defs=defs)
    assert dict(new_state.inner.env) == {"total": 7}
    assert dict(new_state.env) == {"base": 7}  # parameters are constant
    assert "base" not in out


def test_call_evaluates_callable_arguments_at_init():
    defs = {"acc": callee_spec()}
    spec = Call(name="use", callee="acc", args={"base": lambda env: env["offset"] * 2})
    state = init(spec, Env({"offset": 5}), defs=defs)
    assert dict(state.env) == {"base": 10}


def test_call_propagates_enclosing_updates_without_parameters():
    def bump(env):
        env["g"] = env["g"] + env["base"]

    defs = {"bumper": loop("b", params=("base",), action=bump)}
    spec = Call(name="use", callee="bumper", args={"base": 7})
    outer = Env({"g": 0})
    state = init(spec, outer, defs=defs)
    _, out = step(spec, state, Event("tick"), env=outer, defs=defs)
    assert dict(out) == {"g": 7}


def test_nested_calls_layer_parameters():
    inner = loop("leaf", params=("p2",), attrs=(("total", 0),),
                 action=lambda env: env.__setitem__("total", env["p2"]))
    middle = Call(name="mid", callee="leaf", params=("p1",),
                  args={"p2": lambda env: env["p1"] + 1})
    defs = {"leaf": inner, "outer": middle}
    top = Call(name="top", callee="outer", args={"p1": 3})
    state = init(top, defs=defs)
    new_state, _ = step(top, state, Event("tick"), defs=defs)
    assert dict(new_state.inner.inner.env) == {"total": 4}


def test_call_validation_errors():
    defs = {"acc": callee_spec()}
    with pytest.raises(SpecificationError):  # unresolved callee
        init(Call(name="u", callee="ghost"), defs=defs)
    for check in (validate_spec, lambda spec, defs: init(spec, defs=defs)):
        with pytest.raises(SpecificationError, match=r"argument names \['base', 'extra'\] do not"):
            check(Call(name="u", callee="acc", args={"base": 1, "extra": 2}), defs)
    with pytest.raises(SpecificationError):  # calls own no state
        init(Call(name="u", callee="acc", args={"base": 1}, attrs=(("z", 0),)), defs=defs)
    loops = {"a": Call(name="x", callee="a")}
    with pytest.raises(SpecificationError):  # recursion
        init(Call(name="top", callee="a"), defs=loops)
    spec = Call(name="c", callee="acc", args={"base": 1})
    state = init(spec, defs=defs)
    for check in (lambda: step(spec, state, Event("tick")), lambda: is_final(spec, state)):
        with pytest.raises(SpecificationError, match="unresolved callee 'acc'"):
            check()  # defs left out after init


def test_walk_is_pre_order_left_before_right_with_callees_under_calls():
    defs = {"acc": Flow(name="acc", params=("base",), left=loop("x"), right=loop("y"))}
    spec = Flow(
        name="root",
        left=QuantifiedFlow(name="q", var="v", domain=(1, 2), body=loop("body")),
        right=Call(name="c", callee="acc", args={"base": 1}),
    )
    assert [(depth, node.name) for depth, node in walk(spec, defs)] == [
        (0, "root"), (1, "q"), (2, "body"), (1, "c"), (2, "acc"), (3, "x"), (3, "y"),
    ]
    assert [node for _, node in walk(spec, defs)][5] is defs["acc"].left


def test_the_call_errors_come_from_the_walk():
    with pytest.raises(SpecificationError, match="unresolved callee 'ghost'"):
        list(walk(Flow(name="f", left=loop("l"), right=Call(name="u", callee="ghost"))))
    loops = {"a": Call(name="x", callee="b"), "b": Call(name="y", callee="a")}
    with pytest.raises(SpecificationError, match=r"recursive call to 'a' \(chain a -> b\)"):
        list(walk(Call(name="top", callee="a"), loops))
    # The walk refuses before it yields the node that recurses.
    seen = []
    with pytest.raises(SpecificationError):
        for _, node in walk(Call(name="top", callee="a"), loops):
            seen.append(node.name)
    assert seen == ["top", "x"]


def test_describe_prints_each_kind_its_parts_and_its_transitions():
    def keep(env):
        return True

    defs = {"acc": loop("acc", GO, params=("base",), guard=keep, action=inc("base"))}
    spec = Flow(
        name="root",
        attrs=(("n", 0),),
        action=scale("n", 2),
        left=QuantifiedInterleave(name="i", var="v", domain=UNBOUNDED, body=loop("b")),
        right=QuantifiedFlow(
            name="q", var="w", domain={3, 1, 2},
            body=Call(name="c", callee="acc", args={"base": 1}),
        ),
    )
    assert describe(spec, defs) == "\n".join([
        "root attrs(n) / scale.<locals>.action: Flow",
        "  i: QuantifiedInterleave v in UNBOUNDED",
        "    b: Automaton {s} init s final {s}",
        "      s -tick()-> s",
        "  q: QuantifiedFlow w in [1, 2, 3]",
        "    c: Call acc(base)",
        "      acc(base): Automaton {s} init s final {s}",
        "        s -go(?arg) [test_describe_prints_each_kind_its_parts_and_its_transitions"
        ".<locals>.keep] / inc.<locals>.action-> s",
    ])
    literal = EventPattern("e", (Ref("u"), "x", 3))
    assert str(Transition(source="a", pattern=literal, target="b")) == "a -e(u, 'x', 3)-> b"


# ------------------------------------------------------------------ validation

def test_validate_rejects_malformed_automata():
    with pytest.raises(SpecificationError):
        init(Automaton(name="bad", states=("a",), initial="z", finals=("a",)))
    with pytest.raises(SpecificationError):
        init(Automaton(name="bad", states=("a",), initial="a", finals=("z",)))
    with pytest.raises(SpecificationError):
        init(Automaton(
            name="bad", states=("a",), initial="a", finals=("a",),
            transitions=(Transition(source="a", pattern=TICK, target="z"),),
        ))
    with pytest.raises(SpecificationError):
        init(Automaton(
            name="bad", states=("a",), initial="a", finals=("a",),
            transitions=(
                Transition(source="a", pattern=EventPattern("t", (Capture("v"), Capture("v"))), target="a"),
            ),
        ))


def test_validate_rejects_duplicate_attrs_and_shadowing():
    with pytest.raises(SpecificationError):
        init(loop("dup", attrs=(("a", 1), ("a", 2))))
    with pytest.raises(SpecificationError):
        init(QuantifiedFlow(name="shadow", var="x", domain=(1,), attrs=(("x", 0),), body=loop("b")))


def _with_transition(pattern=TICK, **fields):
    return Automaton(
        name="bad", states=("a",), initial="a", finals=("a",),
        transitions=(Transition(source="a", pattern=pattern, target="a", **fields),),
    )


UNCALLABLE = {
    "guard": lambda: _with_transition(guard=5),
    "transition-action": lambda: _with_transition(action="x"),
    "automaton-action": lambda: loop("bad", action=7),
    "flow-action": lambda: Flow(name="bad", left=loop("l"), right=loop("r"), action=7),
    "quantified-action": lambda: QuantifiedFlow(
        name="bad", var="v", domain=(1,), body=loop("b"), action=1),
    "capture-type": lambda: _with_transition(pattern=EventPattern("go", (Capture("v", 5),))),
    "capture-type-tuple": lambda: _with_transition(
        pattern=EventPattern("go", (Capture("v", (int, "x")),))),
}


@pytest.mark.parametrize("name", sorted(UNCALLABLE))
def test_validate_refuses_what_a_step_could_not_call(name):
    # Each would otherwise raise a bare TypeError on the first step; the
    # node refuses to be made, so no tree can hold it.
    with pytest.raises(SpecificationError, match="'bad'"):
        UNCALLABLE[name]()


@pytest.mark.parametrize(
    "kind, domain",
    [
        (QuantifiedFlow, UNBOUNDED),
        (QuantifiedFlow, (1, "x")),
        (QuantifiedFlow, ([1], [2])),
        (QuantifiedInterleave, (1, "x")),
        (QuantifiedInterleave, ([1], [2])),
    ],
    ids=["flow-unbounded", "flow-unordered", "flow-unhashable",
         "interleave-unordered", "interleave-unhashable"],
)
def test_validate_rejects_a_domain_the_engine_cannot_order(kind, domain):
    with pytest.raises(SpecificationError, match="^node 'q': "):
        kind(name="q", var="v", domain=domain, body=loop("b"))


@pytest.mark.parametrize(
    "kind, domain",
    [(QuantifiedFlow, lambda: iter((2, 1, 2))), (QuantifiedInterleave, lambda: (v for v in (2, 1)))],
    ids=["flow-iterator", "interleave-generator"],
)
def test_a_one_pass_domain_is_read_once_when_the_node_is_made(kind, domain):
    spec = kind(name="q", var="v", domain=domain(), body=loop("b"))
    assert spec.domain == (1, 2)  # sorted, de-duplicated, held
    assert describe(spec).startswith(f"q: {kind.__name__} v in [1, 2]\n")
    for _ in range(2):
        assert list(init(spec).instances) == [1, 2]


def test_a_made_node_keeps_its_call_args_and_its_domain():
    values = [2, 1]
    leaf = loop("p", EventPattern("tick", (Capture("who"),)), params=("x",),
                attrs=(("seen", lambda env: dict(env)),))
    call = Call(name="c", callee="p", args={"x": 1})
    spec = Flow(name="f", left=QuantifiedFlow(name="q", var="v", domain=values, body=loop("b")),
                right=QuantifiedInterleave(name="i", var="u", domain=UNBOUNDED, body=call))
    defs = {"p": leaf}
    before, state = describe(spec, defs), init(spec, defs=defs)
    with pytest.raises(TypeError, match="read-only"):
        call.args["y"] = 2
    values.append(3)
    assert describe(spec, defs) == before
    assert dump_state(init(spec, defs=defs)) == dump_state(state)
    assert list(state.left.instances) == [1, 2]
    state, _ = step(spec, state, Event("tick", ("al",)), defs=defs)
    assert dict(state.right.instances["al"].inner.env["seen"]) == {"u": "al", "x": 1}


MALFORMED = {
    "transition-not-a-transition": lambda: Automaton(
        name="bad", states=("a",), initial="a", finals=("a",), transitions=("a -tick-> a",)),
    "pattern-not-an-event-pattern": lambda: _with_transition(pattern="tick"),
    "flow-operand-not-a-node": lambda: Flow(name="bad", left=loop("l"), right="r"),
    "quantified-body-not-a-node": lambda: QuantifiedFlow(name="bad", var="v", domain=(1,), body=0),
    "interleave-body-not-a-node": lambda: QuantifiedInterleave(
        name="bad", var="v", domain=UNBOUNDED, body=None),
    "attribute-not-a-pair": lambda: loop("bad", attrs=(("n", 0), ("m",))),
    "attribute-a-bare-name": lambda: loop("bad", attrs=(("n", 0), "m")),
    "defs-entry-not-a-node": lambda: init(Call(name="bad", callee="p"), defs={"p": None}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_field_is_refused_naming_the_node(name):
    # Each raised a bare AttributeError or ValueError from inside the engine.
    with pytest.raises(SpecificationError, match="'bad'"):
        MALFORMED[name]()


@pytest.mark.parametrize("make", [
    lambda: loop("bad", params="xy"),
    lambda: Automaton(name="bad", states="ab", initial="a", finals=("a",)),
    lambda: Automaton(name="bad", states=("a", "b"), initial="a", finals="a"),
], ids=["params", "states", "finals"])
def test_a_string_of_names_is_refused_not_split_into_characters(make):
    with pytest.raises(SpecificationError, match="^node 'bad': .* is a string"):
        make()


# -------------------------------------------------------------- initialisation

def test_init_takes_any_mapping_as_its_env():
    spec = loop("leaf", attrs=(("z", lambda env: env["y"] + 1),))
    expected = dump_state(init(spec, Env({"y": 1})))
    for env in ({"y": 1}, MappingProxyType({"y": 1})):
        assert dump_state(init(spec, env)) == expected
    assert dict(init(spec, {"y": 1}).env) == {"z": 2}
    assert init(loop("bare"), {}).env is EMPTY_ENV


def test_attr_initialisers_see_earlier_attrs():
    spec = loop("chain", attrs=(("a", 2), ("b", lambda env: env["a"] * 10)))
    assert dict(init(spec).env) == {"a": 2, "b": 20}

    # ... and the enclosing names, a quantified variable among them
    seen = []

    def record(env):
        seen.append(dict(env))
        return len(seen)

    body = loop("b", attrs=(("first", 1), ("second", record)))
    spec = QuantifiedFlow(name="q", var="v", domain=(2, 1), attrs=(("outer", "o"),), body=body)
    given = {"g": 0}
    state = init(spec, given)
    assert seen == [{"g": 0, "outer": "o", "v": v, "first": 1} for v in (1, 2)]
    assert [state.instances[v].env["second"] for v in (1, 2)] == [1, 2]
    assert given == {"g": 0}  # init writes its own scope, never the caller's mapping


def callees():
    """Two callees for one call: ``first`` moves s0 -> s1 on tick, ``second`` s1 -> s0."""
    first = Automaton(name="first", states=("s0", "s1"), initial="s0", finals=("s0",),
                      transitions=(Transition(source="s0", pattern=TICK, target="s1"),))
    second = Automaton(name="second", states=("s0", "s1"), initial="s1", finals=("s1",),
                       transitions=(Transition(source="s1", pattern=TICK, target="s0"),))
    return first, second


def test_a_call_starts_the_callee_its_defs_name_on_every_start():
    # The automata keep their initial states; neither the call nor a flow
    # over it may keep one, since another ``defs`` names another callee.
    # Its step is built for one defs object and again for another, so each
    # step runs the callee its own ``defs`` name.
    first, second = callees()
    call = Call(name="c", callee="a")
    flow = Flow(name="f", left=call, right=loop("r"))
    for spec, callee_state in ((call, lambda s: s.inner), (flow, lambda s: s.left.inner)):
        starts = [init(spec, defs={"a": callee}) for callee in (first, second, first)]
        assert [callee_state(s).current for s in starts] == ["s0", "s1", "s0"]
        assert callee_state(starts[0]) is callee_state(starts[2])  # kept by the automaton
        assert [is_final(spec, s, {"a": first}) for s in starts[::2]] == [True, True]
        assert is_final(spec, starts[1], {"a": second})
        stepped = [step(spec, s, Event("tick"), defs={"a": c})[0]
                   for s, c in zip(starts, (first, second, first))]
        assert [callee_state(s).current for s in stepped] == ["s1", "s0", "s1"]
    # a state started by ``first`` and stepped under ``second`` is refused by it
    assert step(call, init(call, defs={"a": first}), Event("tick"), defs={"a": second}) is None
    # ``call`` is in both trees: each steps the callee its own step's defs name
    under_first, under_second = init(call, defs={"a": first}), init(flow, defs={"a": second})
    assert step(call, under_first, Event("tick"), defs={"a": first})[0].inner.current == "s1"
    assert step(flow, under_second, Event("tick"), defs={"a": second})[0].left.inner.current == "s0"


def test_a_defs_changed_in_place_is_read_at_the_next_step():
    first, second = callees()
    spec = Call(name="c", callee="a")
    defs = {"a": first}
    state = init(spec, defs=defs)
    defs["a"] = second
    # the state ``first`` started is at s0, where ``second`` has no move
    assert step(spec, state, Event("tick"), defs=defs) is None
    state = init(spec, defs=defs)
    assert state.inner.current == "s1"
    new_state, _ = step(spec, state, Event("tick"), defs=defs)
    assert new_state.inner.current == "s0"
    del defs["a"]
    with pytest.raises(SpecificationError, match="unresolved callee 'a'"):
        step(spec, new_state, Event("tick"), defs=defs)


@pytest.mark.parametrize("with_defs", (True, False))
def test_a_built_tree_copies_and_pickles_and_each_copy_steps_alike(with_defs):
    right = Call(name="c", callee="p") if with_defs else loop("r", action=snapshot)
    spec = Flow(name="f", attrs=(("n", 0),), left=loop("l", action=names_in_scope), right=right)
    defs = {"p": loop("p")} if with_defs else None
    state = init(spec, defs=defs)
    expected = dump_state(step(spec, state, Event("tick"), defs=defs)[0])
    for twin, twin_defs in (copy.deepcopy((spec, defs)), pickle.loads(pickle.dumps((spec, defs)))):
        assert dump_state(step(twin, state, Event("tick"), defs=twin_defs)[0]) == expected


@pytest.mark.parametrize("part", ("guard", "transition_action", "node_action", "bare_node_action"))
def test_a_guard_or_action_replaced_after_init_is_the_one_the_next_step_calls(part):
    calls = []

    def record(name, result=None):
        return lambda env: calls.append(name) or result

    leaf = loop("leaf", attrs=(("n", 0),), guard=record("old guard", True),
                action=record("old action"))
    bare = loop("r")  # neither attributes nor an action
    spec = Flow(name="f", attrs=(("m", 0),), action=record("old node action"),
                left=leaf, right=bare)
    state = init(spec)
    if part == "guard":
        leaf.transitions[0].guard = record("new guard", True)
    elif part == "transition_action":
        leaf.transitions[0].action = record("new action")
    elif part == "node_action":
        spec.action = record("new node action")
    else:
        bare.action = record("new bare action")
    step(spec, state, Event("tick"))
    new = {"guard": "new guard", "transition_action": "new action",
           "node_action": "new node action", "bare_node_action": "new bare action"}[part]
    assert new in calls and f"old {new[4:]}" not in calls
    # one that is taken away is not called either
    calls.clear()
    leaf.transitions[0].guard = leaf.transitions[0].action = spec.action = bare.action = None
    assert step(spec, state, Event("tick")) is not None
    assert calls == []


@pytest.mark.parametrize("part", ("guard", "transition_action", "node_action"))
def test_a_guard_or_action_that_cannot_be_called_is_refused_when_assigned(part):
    guard, action = (lambda env: True), inc("n")
    spec = loop("leaf", attrs=(("n", 0),), guard=guard, action=action)
    owner, name = (spec, "action") if part == "node_action" else (
        spec.transitions[0], part.removeprefix("transition_"))
    state = init(spec)
    with pytest.raises(SpecificationError, match="not callable"):
        setattr(owner, name, 5)
    assert (spec.action, spec.transitions[0].guard, spec.transitions[0].action) == (
        None, guard, action)
    assert step(spec, state, Event("tick"))[0].env == {"n": 1}


def test_a_lazily_built_instance_dumps_as_one_built_by_init():
    hold = EventPattern("hold", (Ref("u"),))
    leaf = loop("leaf", hold, params=("who",), attrs=(("k", lambda env: env["who"]),))

    def users(domain):
        body = Flow(
            name="user",
            attrs=(("seen", lambda env: env["u"] * 2), ("n", 0)),
            left=QuantifiedFlow(
                name="q", var="d", domain=("x", "y"), attrs=(("m", ()),),
                body=Call(name="c", callee="leaf", args={"who": lambda env: (env["seen"], env["d"])}),
            ),
            right=Flow(name="pair", left=loop("l", hold), right=loop("r", hold)),
        )
        return QuantifiedInterleave(name="users", var="u", domain=domain, body=body)

    defs = {"leaf": leaf}
    lazy = run_events(users(UNBOUNDED), [Event("hold", ("al",))], defs=defs)  # built, then held
    eager = init(users(("al",)), defs=defs)
    assert dump_state(lazy) == dump_state(eager)
    assert lazy.instances["al"].left.instances["y"].inner.env == {"k": ("alal", "y")}


def write_env(env):
    env["x"] = 1


@pytest.mark.parametrize("spec", [
    loop("attr", attrs=(("y", write_env),)),
    Flow(name="f", attrs=(("a", 1), ("y", write_env)), left=loop("l"), right=loop("r")),
    Call(name="c", callee="p", args={"y": write_env}),
], ids=["attribute", "later_attribute", "call_argument"])
def test_an_initialiser_cannot_write_its_env(spec):
    with pytest.raises(TypeError, match="read-only"):
        init(spec, {"g": 0}, defs={"p": loop("p", params=("y",))})


def test_plain_attributes_share_one_env_and_a_rebinding_instance_gets_its_own():
    body = loop("count", EventPattern("e", (Ref("v"),)), attrs=(("n", 0), ("tag", "t")), action=inc("n"))
    spec = QuantifiedFlow(name="q", var="v", domain=(1, 2, 3), body=body)
    state = init(spec)
    shared = state.instances[1].env
    assert all(instance.env is shared for instance in state.instances.values())
    state, _ = step(spec, state, Event("e", (2,)))
    assert state.instances[2].env == {"n": 1, "tag": "t"}
    assert state.instances[1].env is state.instances[3].env is shared
    assert shared == {"n": 0, "tag": "t"}
    assert init(spec).instances[1].env is shared  # a later build shares it too


def made(kind):
    """The spec, its defs, the object whose fields are tried and the fields it may still be given."""
    leaf = loop("a", attrs=(("n", 0),), action=inc("n"))
    if kind == "transition":
        return leaf, None, leaf.transitions[0], {"guard", "action"}
    spec = {
        "automaton": leaf,
        "flow": Flow(name="f", attrs=(("n", 0),), left=loop("l"), right=loop("r", action=inc("n"))),
        "quantified_flow": QuantifiedFlow(name="q", var="v", domain=(1, 2), body=loop("b")),
        "quantified_interleave": QuantifiedInterleave(
            name="i", var="v", domain=UNBOUNDED, body=loop("b", EventPattern("tick", (Capture("u"),)))
        ),
        "call": Call(name="c", callee="p", args={"x": 1}),
    }[kind]
    return spec, {"p": loop("p", params=("x",))}, spec, set() if kind == "call" else {"action"}


@pytest.mark.parametrize(
    "kind", ("automaton", "call", "flow", "quantified_flow", "quantified_interleave", "transition")
)
def test_a_made_node_refuses_every_fixed_field_and_steps_as_before(kind):
    spec, defs, fixed, open_fields = made(kind)
    event = Event("tick", ("u",)) if kind == "quantified_interleave" else Event("tick")
    state = init(spec, defs=defs)
    expected = dump_state(step(spec, state, event, defs=defs)[0])
    names = [f.name for f in dataclasses.fields(fixed)] + ["extra"]
    assert open_fields < set(names)
    for name in names:
        if name in open_fields:
            continue
        with pytest.raises(AttributeError, match="is fixed"):
            setattr(fixed, name, getattr(fixed, name, None))
    for name in open_fields:  # the same value back, so the step below is unchanged
        setattr(fixed, name, getattr(fixed, name))
    assert "extra" not in vars(fixed)
    assert dump_state(step(spec, init(spec, defs=defs), event, defs=defs)[0]) == expected


def test_a_changed_copy_starts_from_its_own_fields():
    automaton = Automaton(name="a", states=("s0", "s1"), initial="s0", finals=("s1",))
    assert init(dataclasses.replace(automaton, initial="s1")).current == "s1"
    assert init(automaton).current == "s0"
    flow = Flow(name="f", left=loop("l"), right=loop("r"))
    for attrs, env in (((("x", 1),), {"x": 1}), ((("x", lambda env: 3),), {"x": 3})):
        assert dict(init(dataclasses.replace(flow, attrs=attrs)).env) == env
    assert init(flow).env is EMPTY_ENV


def test_one_pass_iterables_are_read_once_when_a_node_is_made():
    leaf = Automaton(name="a", states=(s for s in ("s0", "s1")), initial="s0",
                     finals=(s for s in ("s1",)), transitions=(
                         t for t in (Transition(source="s0", pattern=TICK, target="s1"),)))
    assert (leaf.states, leaf.finals) == (("s0", "s1"), ("s1",))
    state, _ = step(leaf, init(leaf), Event("tick"))
    assert state.current == "s1" and is_final(leaf, state)
    spec = Flow(name="f", attrs=((n, v) for n, v in (("x", 1), ("y", 2))), params=iter(("p",)),
                left=loop("l", action=inc("x")), right=loop("r"))
    assert spec.params == ("p",)
    state = init(spec, {"p": 0})
    assert dict(state.env) == {"x": 1, "y": 2}
    assert dict(step(spec, state, Event("tick"))[0].env) == {"x": 2, "y": 2}


def test_init_again_keeps_the_shared_states_of_an_unedited_node():
    spec = Flow(name="f", left=loop("l"), right=loop("r"))
    first = init(spec)
    assert init(spec) is first
    assert init(spec).left is first.left


# ------------------------------------------------------------------ node kinds

SHAPE_DEFS = {"acc": loop("acc")}
SHAPE_SPECS = {
    "automaton": loop("a"),
    "flow": Flow(name="f", left=loop("l"), right=loop("r")),
    "quantified_flow": QuantifiedFlow(name="q", var="v", domain=(1,), body=loop("b")),
    "quantified_interleave": QuantifiedInterleave(name="i", var="v", domain=UNBOUNDED, body=loop("b")),
    "call": Call(name="c", callee="acc"),
}


@pytest.mark.parametrize("op", ("step", "is_final"))
@pytest.mark.parametrize("kind", sorted(SHAPE_SPECS))
def test_step_rejects_mismatched_state_shape(kind, op):
    spec = SHAPE_SPECS[kind]
    # an automaton's state for every other kind, a flow's for the automaton
    other = SHAPE_SPECS["flow" if kind == "automaton" else "automaton"]
    wrong = init(other)
    with pytest.raises(EngineError, match="does not match node"):
        if op == "step":
            step(spec, wrong, Event("tick"), defs=SHAPE_DEFS)
        else:
            is_final(spec, wrong, SHAPE_DEFS)


def test_every_node_kind_defines_its_own_rules():
    """A kind that leaves one of its rules to the base class would only fail,
    as an unknown node type, when that rule is first used."""
    from flowdetect import engine

    kinds = [
        value for name, value in vars(engine).items()
        if not name.startswith("_") and isinstance(value, type)
        and issubclass(value, Node) and value is not Node
    ]
    assert sorted(k.__name__ for k in kinds) == sorted(
        ["Automaton", "Call", "Flow", "QuantifiedFlow", "QuantifiedInterleave"]
    )
    state_types = set()
    for kind in kinds:
        for rule in ("_operands", "_fix", "_header", "_start", "_final", "_step"):
            assert getattr(kind, rule) is not getattr(Node, rule), (kind, rule)
        assert "state_type" in vars(kind), kind
        state_types.add(kind.state_type)
    assert len(state_types) == len(kinds)
    # A kind checks its own fields when it is made, so no tree holds a
    # malformed node and validation has no per-kind rule left.
    assert not hasattr(Node, "_validate")
    with pytest.raises(SpecificationError, match="'bad'"):
        Automaton(name="bad", states=("a",), initial="z", finals=())


def test_both_quantified_kinds_share_one_set_of_rules():
    for kind in (QuantifiedFlow, QuantifiedInterleave):
        rules = {"_operands", "_fix", "_header", "_start", "_final", "_step"}
        assert not rules & set(vars(kind)), kind
        assert "_offered" in vars(kind), kind


def test_bare_node_is_an_unknown_node_type():
    bare = Node(name="x")
    state = init(loop("alone"))
    with pytest.raises(SpecificationError, match="unknown node type"):
        init(bare)
    with pytest.raises(SpecificationError, match="unknown node type"):
        step(bare, state, Event("tick"))
    with pytest.raises(SpecificationError, match="unknown node type"):
        is_final(bare, state)


# --------------------------------------------------------------- random trees

def gen_tree(rng: random.Random, depth: int, defs: dict, tag: list):
    """Random spec tree; returns (node, is_final_at_init)."""
    tag[0] += 1
    name = f"n{tag[0]}"
    if depth <= 0 or rng.random() < 0.35:
        states = ("A", "B")
        initial = rng.choice(states)
        finals = tuple(s for s in states if rng.random() < 0.5)
        node = Automaton(
            name=name,
            states=states,
            initial=initial,
            finals=finals,
            transitions=(
                Transition(source="A", pattern=GO, target="B"),
                Transition(source="B", pattern=GO, target="A"),
            ),
        )
        return node, initial in finals
    kind = rng.choice(("flow", "qflow", "interleave", "unbounded", "call"))
    if kind == "flow":
        left, fl = gen_tree(rng, depth - 1, defs, tag)
        right, fr = gen_tree(rng, depth - 1, defs, tag)
        return Flow(name=name, left=left, right=right), fl and fr
    if kind == "qflow":
        body, fb = gen_tree(rng, depth - 1, defs, tag)
        return QuantifiedFlow(name=name, var=f"v{tag[0]}", domain=tuple(range(rng.randint(1, 3))), body=body), fb
    if kind == "interleave":
        body, fb = gen_tree(rng, depth - 1, defs, tag)
        return QuantifiedInterleave(name=name, var=f"v{tag[0]}", domain=("k",), body=body), fb
    if kind == "unbounded":
        body, fb = gen_tree(rng, depth - 1, defs, tag)
        return QuantifiedInterleave(name=name, var=f"v{tag[0]}", domain=UNBOUNDED, body=body), True
    body, fb = gen_tree(rng, depth - 1, defs, tag)
    defs[name + "_def"] = body
    return Call(name=name, callee=name + "_def"), fb


@pytest.mark.parametrize("seed", range(40))
def test_random_tree_laws(seed):
    rng = random.Random(seed)
    defs: dict = {}
    spec, expect_final = gen_tree(rng, 3, defs, [0])
    state = init(spec, defs=defs)

    assert is_final(spec, state, defs) == expect_final

    # refusal totality: an alien event leaves no trace
    before = dump_state(state)
    assert step(spec, state, Event("nope", ("k",)), defs=defs) is None
    assert dump_state(state) == before

    # liveness: every leaf has an enabled transition on "go"
    result = step(spec, state, Event("go", ("k",)), defs=defs)
    assert result is not None

    # determinism: an identical rebuild replays to an identical dump
    rng2 = random.Random(seed)
    defs2: dict = {}
    spec2, _ = gen_tree(rng2, 3, defs2, [0])
    state2 = init(spec2, defs=defs2)
    replay = step(spec2, state2, Event("go", ("k",)), defs=defs2)
    assert dump_state(replay[0]) == dump_state(result[0])


#: sha256 over seeds 0-39 of ``gen_tree``: ``is_final`` at init, then the
#: dump after ``go``, after the refused ``nope`` and after a second ``go``.
RANDOM_TREE_DIGEST = "943d1f412a95a92471e8769a7dc89e35595dd992e090adb31373b768c9c32519"


def test_random_tree_digest():
    digest = hashlib.sha256()
    for seed in range(40):
        defs: dict = {}
        spec, _ = gen_tree(random.Random(seed), 3, defs, [0])
        state = init(spec, defs=defs)
        digest.update(repr(is_final(spec, state, defs)).encode())
        for name in ("go", "nope", "go"):
            result = step(spec, state, Event(name, ("k",)), defs=defs)
            if result is not None:
                state = result[0]
            digest.update(dump_state(state).encode())
    assert digest.hexdigest() == RANDOM_TREE_DIGEST


# --------------------------------------------------------------- serialization

def test_state_dump_golden():
    def tick_both(env):
        env["c"] = env["c"] + 1
        env["g"] = env["g"] + 1

    spec = Flow(
        name="root",
        attrs=(("g", 0),),
        left=loop("ticker", attrs=(("c", 0),), action=tick_both),
        right=Automaton(
            name="gate", states=("closed", "open"), initial="closed", finals=("open",),
            transitions=(Transition(source="closed", pattern=EventPattern("open"), target="open"),),
        ),
    )
    state = init(spec)
    for _ in range(2):
        state, _ = step(spec, state, Event("tick"))
    expected = {
        "kind": "flow",
        "env": {"g": 2},
        "left": {"kind": "automaton", "current": "s", "env": {"c": 2}},
        "right": {"kind": "automaton", "current": "closed", "env": {}},
    }
    assert state_to_dict(state) == expected
    text = dump_state(state)
    assert text == json.dumps(expected, sort_keys=True, indent=2)
    assert "0x" not in text  # no memory addresses anywhere


def test_dump_handles_rich_values():
    from datetime import datetime

    spec = loop("rich", attrs=(
        ("when", datetime(2010, 1, 4, 8, 5)),
        ("tags", {"b", "a"}),
        ("tbl", {2: "two", 1: "one"}),
    ))
    dumped = state_to_dict(init(spec))["env"]
    assert dumped["when"] == "2010-01-04T08:05:00"
    assert dumped["tags"] == ["a", "b"]
    assert list(dumped["tbl"]) == ["1", "2"]


@dataclasses.dataclass
class Point:
    x: int
    tags: tuple


def test_dump_handles_dataclasses_and_opaque_values():
    spec = loop("rich", attrs=(
        ("point", Point(1, ("a", 2))),
        ("kind", lambda env: Point),  # a dataclass type is opaque
        ("thing", object()),
    ))
    assert state_to_dict(init(spec))["env"] == {
        "kind": {"type": "type"},
        "point": {"type": "Point", "x": 1, "tags": ["a", 2]},
        "thing": {"type": "object"},
    }
    with pytest.raises(EngineError, match="cannot serialize int"):
        state_to_dict(42)


@settings(max_examples=60, deadline=None)
@given(ticks=st.integers(0, 30))
def test_dump_deterministic_for_same_history(ticks):
    def build():
        spec = digits_spec()
        state = init(spec)
        for _ in range(ticks % 5):
            state, _ = step(spec, state, Event("tick"))
        return dump_state(state)

    assert build() == build()


# ------------------------------------------------------------------ imports

def test_engine_needs_only_the_standard_library_and_errors():
    # The package __init__ loads the detection stack (numpy included), but
    # engine.py itself imports nothing beyond the standard library and
    # flowdetect.errors.
    from flowdetect import engine

    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            relative.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
    assert relative == {".errors"}
    assert absolute and {name.split(".")[0] for name in absolute} <= sys.stdlib_module_names
