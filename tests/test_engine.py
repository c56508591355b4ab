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
    walk,
)
from flowdetect.errors import EngineError, InputError, SpecificationError

import oracles

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


def test_unbounded_is_one_object_through_copies_and_pickles():
    from flowdetect.pipeline import PipelineConfig, build_spec

    assert copy.copy(UNBOUNDED) is UNBOUNDED
    assert copy.deepcopy(UNBOUNDED) is UNBOUNDED
    assert pickle.loads(pickle.dumps(UNBOUNDED)) is UNBOUNDED
    assert all(twin is UNBOUNDED for twin in pickle.loads(pickle.dumps([UNBOUNDED, UNBOUNDED])))
    spec = build_spec(PipelineConfig())[0]  # its lambdas do not pickle
    twin = copy.deepcopy(spec)
    assert twin.domain is UNBOUNDED
    assert describe(twin) == describe(spec)


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


def forgetful():
    """A one-state leaf with attribute ``a``: ``drop`` deletes it, ``write`` sets it."""
    def drop(env):
        del env["a"]

    def write(env):
        env["a"] = 5

    return Automaton(name="leaf", states=("s",), initial="s", finals=("s",), attrs=(("a", 1),), transitions=(
        Transition(source="s", pattern=EventPattern("drop"), target="s", action=drop),
        Transition(source="s", pattern=EventPattern("write"), target="s", action=write),
        Transition(source="s", pattern=TICK, target="s"),
    ))


def test_a_node_takes_back_only_the_names_its_entry_bound():
    # Once ``a`` is deleted the leaf binds nothing on entry, so the caller's
    # ``a`` is not the leaf's to take on the way out.
    spec = forgetful()
    state, out = step(spec, init(spec), Event("drop"))
    assert state.env is EMPTY_ENV and dict(out) == {}
    state, out = step(spec, state, Event("tick"), env={"a": 99})
    assert dict(out) == {"a": 99} and dict(state.env) == {}


def test_a_deleted_attribute_written_later_travels_outward_like_any_name():
    spec, twin = forgetful(), forgetful()
    state, twin_state = init(spec), init(twin)
    for event in (Event("drop"), Event("write"), Event("tick")):
        (state, out), (twin_state, twin_out) = (
            step(spec, state, event), oracles.step_reference(twin, twin_state, event))
        assert dump_state(state) == dump_state(twin_state) and dict(out) == dict(twin_out)
        assert state.env is EMPTY_ENV
        assert dict(out) == ({"a": 5} if event.name == "write" else {})


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
#: shadowed a name), as the reference interpreter, which binds each attribute
#: and parameter env and each shadowing capture through its ``_bind``, sees
#: them.  ``outcome`` is ``(enclosing env, new state as state_to_dict)``,
#: ``None`` for a refusal or the exception the step raises.
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
        {"n": 7}, Event("tick"), {dict},
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
    engine_binds, reference_kinds = [], []

    # The compiled step binds inline what shadows nothing, so it calls
    # ``_bind`` only for a bind that shadows: once for each shadowing bind
    # the reference interpreter makes, in the same order.
    def recording(bind, seen):
        def wrapper(scope, bindings):
            shadowed = bind(scope, bindings)
            seen.append(None if shadowed is None else type(shadowed))
            return shadowed

        return wrapper

    def attempt(run, state):
        given_env = dict(env) if env else None
        before = dump_state(state)
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                run(spec, state, event, env)
        else:
            result = run(spec, state, event, env)
            if outcome is None:
                assert result is None
            else:
                new_state, out = result
                assert (dict(out), json.loads(dump_state(new_state))) == outcome
        if not isinstance(outcome, tuple):
            assert dump_state(state) == before
        assert env == given_env

    state, twin = init(spec), init(spec)  # init binds through ``_bind`` too; only a step's binds count
    monkeypatch.setattr(engine_module, "_bind", recording(engine_module._bind, engine_binds))
    attempt(step, state)
    engine_binds = list(engine_binds)  # the reference starts lazy instances through the engine's ``_init``
    monkeypatch.setattr(oracles, "_bind", recording(oracles._bind, reference_kinds))
    attempt(oracles.step_reference, twin)
    assert set(reference_kinds) == shadows
    assert engine_binds == [k for k in reference_kinds if k is dict]


def test_shadowing_cases_see_both_kinds_of_bind():
    # Some case binds only what shadows nothing, so its step calls no
    # ``_bind``; some binds only what shadows, so every bind it makes does.
    kinds = {frozenset(case[3]) for case in SHADOWING.values()}
    assert {frozenset({None}), frozenset({dict}), frozenset({None, dict})} <= kinds


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


def run_events(spec, events):
    state = init(spec)
    for event in events:
        result = step(spec, state, event)
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
    spec = Call(name="use", callee=callee_spec(), args={"base": 7})
    state = init(spec)
    assert dict(state.env) == {"base": 7}
    new_state, out = step(spec, state, Event("tick"))
    assert dict(new_state.inner.env) == {"total": 7}
    assert dict(new_state.env) == {"base": 7}  # parameters are constant
    assert "base" not in out


def test_call_evaluates_callable_arguments_at_init():
    spec = Call(name="use", callee=callee_spec(), args={"base": lambda env: env["offset"] * 2})
    state = init(spec, Env({"offset": 5}))
    assert dict(state.env) == {"base": 10}


def test_call_propagates_enclosing_updates_without_parameters():
    def bump(env):
        env["g"] = env["g"] + env["base"]

    spec = Call(name="use", callee=loop("b", params=("base",), action=bump), args={"base": 7})
    outer = Env({"g": 0})
    state = init(spec, outer)
    _, out = step(spec, state, Event("tick"), env=outer)
    assert dict(out) == {"g": 7}


def test_nested_calls_layer_parameters():
    inner = loop("leaf", params=("p2",), attrs=(("total", 0),),
                 action=lambda env: env.__setitem__("total", env["p2"]))
    middle = Call(name="mid", callee=inner, params=("p1",),
                  args={"p2": lambda env: env["p1"] + 1})
    top = Call(name="top", callee=middle, args={"p1": 3})
    state = init(top)
    new_state, _ = step(top, state, Event("tick"))
    assert dict(new_state.inner.inner.env) == {"total": 4}


def test_call_validation_errors():
    # A call's arguments are its callee's parameters, checked when it is made.
    with pytest.raises(SpecificationError, match=r"argument names \['base', 'extra'\] do not match "
                                                 r"parameters \['base'\] of 'acc'"):
        Call(name="u", callee=callee_spec(), args={"base": 1, "extra": 2})
    with pytest.raises(SpecificationError, match=r"^call 'u': argument names \[\] do not"):
        Call(name="u", callee=callee_spec())
    with pytest.raises(SpecificationError):  # calls own no state
        Call(name="u", callee=callee_spec(), args={"base": 1}, attrs=(("z", 0),))


def test_the_call_errors_come_from_the_constructor():
    # A callee is a node, made before its call: a name, or nothing, is refused.
    for callee in ("acc", None):
        with pytest.raises(SpecificationError, match=f"^call 'u': callee {callee!r} is not a node"):
            Call(name="u", callee=callee)
    # A made call is fixed, so none can call itself, directly or through another.
    call = Call(name="x", callee=loop("a"))
    with pytest.raises(AttributeError, match="is fixed"):
        call.callee = call
    outer = Call(name="y", callee=call)
    assert [node.name for _, node in walk(outer)] == ["y", "x", "a"]


def test_walk_is_pre_order_left_before_right_with_callees_under_calls():
    acc = Flow(name="acc", params=("base",), left=loop("x"), right=loop("y"))
    spec = Flow(
        name="root",
        left=QuantifiedFlow(name="q", var="v", domain=(1, 2), body=loop("body")),
        right=Call(name="c", callee=acc, args={"base": 1}),
    )
    assert [(depth, node.name) for depth, node in walk(spec)] == [
        (0, "root"), (1, "q"), (2, "body"), (1, "c"), (2, "acc"), (3, "x"), (3, "y"),
    ]
    assert [node for _, node in walk(spec)][5] is acc.left


def test_describe_prints_each_kind_its_parts_and_its_transitions():
    def keep(env):
        return True

    acc = loop("acc", GO, params=("base",), guard=keep, action=inc("base"))
    spec = Flow(
        name="root",
        attrs=(("n", 0),),
        action=scale("n", 2),
        left=QuantifiedInterleave(name="i", var="v", domain=UNBOUNDED, body=loop("b")),
        right=QuantifiedFlow(
            name="q", var="w", domain={3, 1, 2},
            body=Call(name="c", callee=acc, args={"base": 1}),
        ),
    )
    assert describe(spec) == "\n".join([
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
    call = Call(name="c", callee=leaf, args={"x": 1})
    spec = Flow(name="f", left=QuantifiedFlow(name="q", var="v", domain=values, body=loop("b")),
                right=QuantifiedInterleave(name="i", var="u", domain=UNBOUNDED, body=call))
    before, state = describe(spec), init(spec)
    with pytest.raises(TypeError, match="read-only"):
        call.args["y"] = 2
    values.append(3)
    assert describe(spec) == before
    assert dump_state(init(spec)) == dump_state(state)
    assert list(state.left.instances) == [1, 2]
    state, _ = step(spec, state, Event("tick", ("al",)))
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
    "callee-not-a-node": lambda: Call(name="bad", callee=None),
    # A member after one that matches None was never checked: e(1) raised a bare TypeError.
    "capture-type-member-after-a-match": lambda: _with_transition(
        pattern=EventPattern("go", (Capture("v", (type(None), 5)),))),
    "capture-type-nested-member": lambda: _with_transition(
        pattern=EventPattern("go", (Capture("v", (int, (type(None), "x"))),))),
    "call-args-a-number": lambda: Call(name="bad", callee=loop("p", params=("x",)), args=5),
    "call-args-a-list-of-names": lambda: Call(name="bad", callee=loop("p", params=("x",)), args=["x"]),
    # Each of these ran until its first call, then raised a bare TypeError mid-stream.
    "guard-of-no-argument": lambda: _with_transition(guard=lambda: True),
    "action-of-two-arguments": lambda: _with_transition(action=lambda a, b: None),
    "node-action-of-no-argument": lambda: Flow(name="bad", left=loop("l"), right=loop("r"), action=lambda: None),
    "initialiser-of-no-argument": lambda: loop("bad", attrs=(("n", lambda: 0),)),
    "call-argument-of-no-argument": lambda: Call(
        name="bad", callee=loop("p", params=("x",)), args={"x": lambda: 0}),
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


def test_an_argument_less_call_of_a_kept_callee_keeps_its_initial_state():
    # The automaton keeps its initial state, so the call over it keeps one,
    # and so does a flow of such calls: every start returns the same object.
    callee = Automaton(name="a", states=("s0", "s1"), initial="s0", finals=("s0",),
                       transitions=(Transition(source="s0", pattern=TICK, target="s1"),))
    call = Call(name="c", callee=callee)
    flow = Flow(name="f", left=call, right=loop("r"))
    assert init(call) is call._kept and init(call).inner is init(callee) is callee._kept
    assert init(flow) is flow._kept and init(flow).left is call._kept
    assert is_final(call, init(call)) and is_final(flow, init(flow))
    stepped, _ = step(flow, init(flow), Event("tick"))
    assert stepped.left.inner.current == "s1" and init(flow).left.inner.current == "s0"
    # A call that binds parameters, or over a callee with attributes, keeps none.
    with_args = Call(name="d", callee=loop("p", params=("x",)), args={"x": 1})
    over_attrs = Call(name="e", callee=loop("q", attrs=(("n", 0),)))
    assert with_args._kept is None and over_attrs._kept is None
    assert init(with_args) is not init(with_args)


@pytest.mark.parametrize("with_call", (True, False))
def test_a_built_tree_copies_and_pickles_and_each_copy_steps_alike(with_call):
    right = Call(name="c", callee=loop("p")) if with_call else loop("r", action=snapshot)
    spec = Flow(name="f", attrs=(("n", 0),), left=loop("l", action=names_in_scope), right=right)
    state = init(spec)
    expected = dump_state(step(spec, state, Event("tick"))[0])
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert dump_state(step(twin, state, Event("tick"))[0]) == expected


def flip(name):
    """A two-state automaton without attributes that moves on every tick."""
    return Automaton(name=name, states=("s0", "s1"), initial="s0", finals=("s0",),
                     transitions=(Transition(source="s0", pattern=TICK, target="s1"),
                                  Transition(source="s1", pattern=TICK, target="s0")))


def test_copies_and_pickles_keep_at_rest_sharing():
    # A copy is a newly made tree, so its instances at rest share one state as
    # the original's do, whether it is copied before or after it stepped.
    def shared_after_a_step(spec):
        state, _ = step(spec, init(spec), Event("tick"))
        return state.instances[1] is state.instances[2]

    spec = QuantifiedFlow(name="q", var="v", domain=(1, 2),
                          body=Flow(name="f", left=flip("l"), right=flip("r")))
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert shared_after_a_step(twin)
    assert shared_after_a_step(spec)
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert twin._code is None and init(twin.body) is twin.body._kept is not spec.body._kept
        assert shared_after_a_step(twin)


def test_two_machines_of_one_tree_share_no_mutable_state():
    # Whatever the machines share (plain Envs, kept at-rest states), stepping
    # one never changes what the other holds.
    def count(env):
        env["n"] = env["n"] + env["by"]

    who = EventPattern("tick", (Capture("who"),))
    spec = Flow(
        name="root",
        attrs=(("total", 0),),
        left=QuantifiedFlow(
            name="q", var="v", domain=(1, 2), attrs=(("seen", ()),),
            body=Flow(name="pair", left=Call(name="kept", callee=flip("a")),
                      right=Call(name="given", callee=loop("by", who, params=("by",), attrs=(("n", 0),),
                                                            action=count),
                                 args={"by": lambda env: env["v"]})),
        ),
        right=QuantifiedInterleave(name="users", var="u", domain=UNBOUNDED,
                                   body=loop("user", who, attrs=(("n", lambda env: 0),),
                                             action=inc("n"))),
    )
    assert spec.left.body.left._kept is not None  # an argument-less call over a kept callee
    stream = [Event("tick", (user,)) for user in ("al", "bo", "al")]
    for first, second in ((0, 1), (1, 0)):
        machines = [init(spec), init(spec)]
        before = dump_state(machines[second])
        for event in stream:
            machines[first], _ = step(spec, machines[first], event)
            assert dump_state(machines[second]) == before
        assert dump_state(machines[first]) != before
        assert dump_state(step(spec, machines[second], stream[0])[0]) == dump_state(
            step(spec, init(spec), stream[0])[0])


@pytest.mark.parametrize("part", ("guard", "transition_action", "node_action", "bare_node_action"))
def test_a_guard_or_action_replaced_after_init_is_the_one_the_next_step_calls(part):
    # Until the first step compiles them in; then each is fixed.
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
    compiled = calls.copy()
    for owner, name in ((leaf.transitions[0], "guard"), (leaf.transitions[0], "action"),
                        (spec, "action"), (bare, "action")):
        with pytest.raises(AttributeError, match="is fixed"):
            setattr(owner, name, None)
    calls.clear()
    assert step(spec, state, Event("tick")) is not None
    assert calls == compiled


@pytest.mark.parametrize("part", ("guard", "transition_action", "node_action"))
def test_a_guard_or_action_that_cannot_be_called_is_refused_when_assigned(part):
    guard, action = (lambda env: True), inc("n")
    spec = loop("leaf", attrs=(("n", 0),), guard=guard, action=action)
    owner, name = (spec, "action") if part == "node_action" else (
        spec.transitions[0], part.removeprefix("transition_"))
    state = init(spec)
    with pytest.raises(SpecificationError, match="not callable"):
        setattr(owner, name, 5)
    with pytest.raises(SpecificationError, match="does not take one argument"):
        setattr(owner, name, lambda: True)
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
                body=Call(name="c", callee=leaf, args={"who": lambda env: (env["seen"], env["d"])}),
            ),
            right=Flow(name="pair", left=loop("l", hold), right=loop("r", hold)),
        )
        return QuantifiedInterleave(name="users", var="u", domain=domain, body=body)

    lazy = run_events(users(UNBOUNDED), [Event("hold", ("al",))])  # built, then held
    eager = init(users(("al",)))
    assert dump_state(lazy) == dump_state(eager)
    assert lazy.instances["al"].left.instances["y"].inner.env == {"k": ("alal", "y")}


def write_env(env):
    env["x"] = 1


@pytest.mark.parametrize("spec", [
    loop("attr", attrs=(("y", write_env),)),
    Flow(name="f", attrs=(("a", 1), ("y", write_env)), left=loop("l"), right=loop("r")),
    Call(name="c", callee=loop("p", params=("y",)), args={"y": write_env}),
], ids=["attribute", "later_attribute", "call_argument"])
def test_an_initialiser_cannot_write_its_env(spec):
    with pytest.raises(TypeError, match="read-only"):
        init(spec, {"g": 0})


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
    """The spec, the object whose fields are tried and the fields it may still be given."""
    leaf = loop("a", attrs=(("n", 0),), action=inc("n"))
    if kind == "transition":
        return leaf, leaf.transitions[0], {"guard", "action"}
    spec = {
        "automaton": leaf,
        "flow": Flow(name="f", attrs=(("n", 0),), left=loop("l"), right=loop("r", action=inc("n"))),
        "quantified_flow": QuantifiedFlow(name="q", var="v", domain=(1, 2), body=loop("b")),
        "quantified_interleave": QuantifiedInterleave(
            name="i", var="v", domain=UNBOUNDED, body=loop("b", EventPattern("tick", (Capture("u"),)))
        ),
        "call": Call(name="c", callee=loop("p", params=("x",)), args={"x": 1}),
    }[kind]
    return spec, spec, set() if kind == "call" else {"action"}


@pytest.mark.parametrize(
    "kind", ("automaton", "call", "flow", "quantified_flow", "quantified_interleave", "transition")
)
def test_a_made_node_refuses_every_fixed_field_and_steps_as_before(kind):
    spec, fixed, open_fields = made(kind)
    twin, _, _ = made(kind)
    event = Event("tick", ("u",)) if kind == "quantified_interleave" else Event("tick")
    expected = dump_state(step(twin, init(twin), event)[0])
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
    assert dump_state(step(spec, init(spec), event)[0]) == expected
    for name in open_fields:  # the first step compiled them in
        with pytest.raises(AttributeError, match="is fixed"):
            setattr(fixed, name, getattr(fixed, name))
    assert dump_state(step(spec, init(spec), event)[0]) == expected


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

SHAPE_SPECS = {
    "automaton": loop("a"),
    "flow": Flow(name="f", left=loop("l"), right=loop("r")),
    "quantified_flow": QuantifiedFlow(name="q", var="v", domain=(1,), body=loop("b")),
    "quantified_interleave": QuantifiedInterleave(name="i", var="v", domain=UNBOUNDED, body=loop("b")),
    "call": Call(name="c", callee=loop("acc")),
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
            step(spec, wrong, Event("tick"))
        else:
            is_final(spec, wrong)


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
        for rule in ("_operands", "_fix", "_header", "_start", "_final", "_emit"):
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
        rules = {"_operands", "_fix", "_header", "_start", "_final", "_emit"}
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

def gen_tree(rng: random.Random, depth: int, tag: list):
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
        left, fl = gen_tree(rng, depth - 1, tag)
        right, fr = gen_tree(rng, depth - 1, tag)
        return Flow(name=name, left=left, right=right), fl and fr
    if kind == "qflow":
        body, fb = gen_tree(rng, depth - 1, tag)
        return QuantifiedFlow(name=name, var=f"v{tag[0]}", domain=tuple(range(rng.randint(1, 3))), body=body), fb
    if kind == "interleave":
        body, fb = gen_tree(rng, depth - 1, tag)
        return QuantifiedInterleave(name=name, var=f"v{tag[0]}", domain=("k",), body=body), fb
    if kind == "unbounded":
        body, fb = gen_tree(rng, depth - 1, tag)
        return QuantifiedInterleave(name=name, var=f"v{tag[0]}", domain=UNBOUNDED, body=body), True
    body, fb = gen_tree(rng, depth - 1, tag)
    return Call(name=name, callee=body), fb


@pytest.mark.parametrize("seed", range(40))
def test_random_tree_laws(seed):
    spec, expect_final = gen_tree(random.Random(seed), 3, [0])
    state = init(spec)

    assert is_final(spec, state) == expect_final

    # refusal totality: an alien event leaves no trace
    before = dump_state(state)
    assert step(spec, state, Event("nope", ("k",))) is None
    assert dump_state(state) == before

    # liveness: every leaf has an enabled transition on "go"
    result = step(spec, state, Event("go", ("k",)))
    assert result is not None

    # determinism: an identical rebuild replays to an identical dump
    spec2, _ = gen_tree(random.Random(seed), 3, [0])
    replay = step(spec2, init(spec2), Event("go", ("k",)))
    assert dump_state(replay[0]) == dump_state(result[0])


#: sha256 over seeds 0-39 of ``gen_tree``: ``is_final`` at init, then the
#: dump after ``go``, after the refused ``nope`` and after a second ``go``.
RANDOM_TREE_DIGEST = "943d1f412a95a92471e8769a7dc89e35595dd992e090adb31373b768c9c32519"


def test_random_tree_digest():
    digest = hashlib.sha256()
    for seed in range(40):
        spec, _ = gen_tree(random.Random(seed), 3, [0])
        state = init(spec)
        digest.update(repr(is_final(spec, state)).encode())
        for name in ("go", "nope", "go"):
            result = step(spec, state, Event(name, ("k",)))
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


def test_dump_refuses_instances_whose_values_print_alike():
    spec = QuantifiedInterleave(name="q", var="u", domain=UNBOUNDED, body=loop("leaf", EventPattern("e", (Ref("u"),))))
    state = run_events(spec, [Event("e", (1,)), Event("e", ("1",))])
    assert len(state.instances) == 2
    with pytest.raises(EngineError, match="cannot dump keys 1 and '1': both print as '1'"):
        dump_state(state)


def test_dump_refuses_an_attribute_map_whose_keys_print_alike():
    spec = loop("tbl", attrs=(("tbl", {1: "a", "1": "b"}),))
    with pytest.raises(EngineError, match="cannot dump keys 1 and '1'"):
        dump_state(init(spec))


def test_dump_writes_a_state_held_as_a_value_in_its_kind_form():
    held = init(loop("held", attrs=(("n", 1),)))
    spec = loop("holder", attrs=(("held", held), ("opaque", object())))
    assert state_to_dict(init(spec))["env"] == {
        "held": {"kind": "automaton", "current": "s", "env": {"n": 1}},
        "opaque": {"type": "object"},
    }
    # A hand-built state whose child is no state dumps that child as a value.
    assert state_to_dict(engine_module.FlowState(EMPTY_ENV, held, 7)) == {
        "kind": "flow", "env": {}, "left": {"kind": "automaton", "current": "s", "env": {"n": 1}}, "right": 7,
    }
    with pytest.raises(EngineError, match="cannot serialize object"):
        state_to_dict(object())


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
