"""The compiled step against the interpreter it replaced, and what compiling guarantees.

``engine.step`` runs Python generated for each specification.  Its reference
is ``oracles.step_reference``: the per-kind steps the engine interpreted node
by node before.  A random tree is built twice from one drawn recipe, once for
each, so the two share no node, at-rest table or compiled code, and after
every event both must agree on acceptance or refusal, the exception raised,
the new state's dump, the returned environment and ``is_final``.
"""

from __future__ import annotations

import copy
import pickle
from datetime import datetime

import pytest
from hypothesis import Phase, example, given, note, settings
from hypothesis import strategies as st

from flowdetect import engine as engine_module
from flowdetect.engine import (
    UNBOUNDED,
    Automaton,
    AutomatonState,
    Call,
    CallState,
    Capture,
    Event,
    EventPattern,
    Flow,
    FlowState,
    Node,
    QuantifiedFlow,
    QuantifiedFlowState,
    QuantifiedInterleave,
    QuantifiedInterleaveState,
    Ref,
    Transition,
    describe,
    dump_state,
    init,
    is_final,
    step,
    walk,
)
from flowdetect.pipeline import Pipeline

import oracles

VALUES = (0, 1, 2)
EVENT_NAMES = ("a", "b")
#: Capture types by index: every argument here is an int, so only ``str``,
#: the last, never matches.
TYPES = (None, int, (type(None), int), str)
STEP_ENV = {"g": 0}
#: The kinds of state a step returns, as opposed to the ``(type, text)`` of an exception.
State = (AutomatonState, FlowState, QuantifiedFlowState, QuantifiedInterleaveState, CallState)


# ------------------------------------------------------------- recipes

# A recipe is plain data drawn from a ``random.Random`` that hypothesis
# seeds; ``build`` turns it into fresh nodes and closures, so building it
# twice gives two trees that behave alike and share nothing.

KINDS = ("auto", "flow", "qflow", "inter", "call")


def action(rng, names):
    """Rebind a name (one the caller may not know travels outward), drop it,
    or raise when it has grown past a bound."""
    return rng.choice(("add", "del", "raise")), rng.choice(sorted(names)), rng.choice(VALUES)


def maybe(rng, make, *args):
    return make(rng, *args) if rng.random() < 0.5 else None


def guard(rng, names):
    """Pass when a bound name has the drawn parity."""
    return rng.choice(sorted(names)), rng.choice((0, 1))


def pattern(rng, scope):
    """Literal, ``Ref`` and ``Capture`` slots; a capture's name is fresh or shadows one in scope."""
    slots, captured = [], set()
    for _ in range(rng.randint(1, 2)):
        kind = rng.choice(("lit", "ref", "cap"))
        name = rng.choice(sorted({"c", "d"} | scope) if kind == "cap" else sorted(scope))
        if kind == "lit" or name in captured:
            slots.append(("lit", rng.choice(VALUES)))
        elif kind == "ref":
            slots.append(("ref", name))
        else:
            captured.add(name)
            slots.append(("cap", name, rng.choice((0, 0, 1, 1, 2, 3))))
    return rng.choice(EVENT_NAMES), tuple(slots)


def attrs(rng, scope, taken=None):
    """Plain values, or initialisers that read a name in scope or an earlier
    attribute; ``g`` shadows the step env's, and ``x``, ``y`` or ``z`` a parent's."""
    out = []
    for name in rng.sample(("g", "x", "y", "z"), rng.randint(0, 2)):
        if name == taken:
            continue
        read = rng.choice(sorted(scope | {n for n, _ in out}))
        out.append((name, ("plain", rng.choice(VALUES)) if rng.random() < 0.5 else ("from", read, rng.choice(VALUES))))
    return tuple(out)


def tree(rng, depth, scope):
    """A node recipe, ``(kind, attrs, action, ...)``; ``scope`` holds the names
    bound whenever the node steps."""
    kind = rng.choice(KINDS if depth else ("auto",))
    if kind == "call":
        params = tuple(rng.sample(("p", "q"), rng.randint(0, 2)))
        args = tuple((p, ("plain", rng.choice(VALUES)) if rng.random() < 0.5 else ("from", "g", 1)) for p in params)
        return "call", params, args, tree(rng, depth - 1, scope | set(params))
    var = rng.choice(("v", "w", "x")) if kind in ("qflow", "inter") else None
    own = attrs(rng, scope, var)
    inner = scope | {name for name, _ in own}
    header = (kind, own, maybe(rng, action, inner | {"out"}))
    if kind == "flow":
        return (*header, tree(rng, depth - 1, inner), tree(rng, depth - 1, inner))
    if kind != "auto":
        domain = tuple(rng.sample(VALUES, rng.randint(1, 3)))
        domain = UNBOUNDED if kind == "inter" and rng.random() < 0.5 else domain
        return (*header, var, domain, tree(rng, depth - 1, inner | {var}))
    states = ("s0", "s1", "s2")[: rng.randint(1, 3)]
    moves = [(rng.choice(states), rng.choice(states),
              rng.choice((0, 1, pattern(rng, inner), pattern(rng, inner))),  # 0, 1: patterns leaves share
              maybe(rng, guard, inner), maybe(rng, action, inner | {"out"})) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:  # a second move on the first one's pattern: the first declared wins
        moves.append((moves[0][0], rng.choice(states), moves[0][2], None, action(rng, inner)))
    shadows = sorted(scope & {name for name, _ in own})
    if shadows:  # drop a shadowing attribute, so that a later leave finds it gone
        moves.append((moves[0][0], moves[0][0], rng.choice((0, 1, pattern(rng, inner))), None,
                      ("del", rng.choice(shadows), 0)))
    finals = tuple(state for state in states if rng.random() < 0.5)
    return (*header, states, moves[0][0], finals, tuple(moves))  # the initial state has a move


SHARED = (("a", (("cap", "c", 0),)), ("b", (("ref", "v"), ("cap", "d", 2))))


def build(recipe):
    """The spec made from ``recipe``: new nodes, closures and patterns."""
    shared = [make_pattern(p) for p in SHARED]
    counter = [0]

    def make(recipe, params=()):
        counter[0] += 1
        name = f"n{counter[0]}"
        kind = recipe[0]
        if kind == "call":
            _, callee_params, args, body = recipe
            callee = make(body, callee_params)
            return Call(name=name, params=params, callee=callee, args={p: initial(v) for p, v in args})
        _, own, act, *rest = recipe
        header = dict(name=name, params=params, attrs=[(n, initial(v)) for n, v in own],
                      action=act and make_action(act))
        if kind == "auto":
            states, first, finals, moves = rest
            return Automaton(**header, states=states, initial=first, finals=finals, transitions=[
                Transition(source=source, target=target,
                           pattern=shared[shape] if isinstance(shape, int) else make_pattern(shape),
                           guard=test and make_guard(test), action=act and make_action(act))
                for source, target, shape, test, act in moves
            ])
        if kind == "flow":
            return Flow(**header, left=make(rest[0]), right=make(rest[1]))
        var, domain, body = rest
        cls = QuantifiedFlow if kind == "qflow" else QuantifiedInterleave
        return cls(**header, var=var, domain=domain, body=make(body))

    return make(recipe)


def initial(value):
    """A plain value, or an initialiser that reads a name: ``("from", name, delta)``."""
    if value[0] == "plain":
        return value[1]
    _, read, delta = value
    return lambda env: env.get(read, 0) + delta


def make_pattern(recipe):
    event_name, slots = recipe
    return EventPattern(event_name, tuple(
        slot[1] if slot[0] == "lit" else Ref(slot[1]) if slot[0] == "ref" else Capture(slot[1], TYPES[slot[2]])
        for slot in slots
    ))


def make_guard(recipe):
    name, parity = recipe
    return lambda env: env.get(name, 0) % 2 == parity


def make_action(recipe):
    kind, name, value = recipe
    if kind == "add":
        def action(env):
            env[name] = env.get(name, 0) + value
    elif kind == "del":
        def action(env):
            env.pop(name, None)
    else:
        def action(env):
            if env.get(name, 0) > value:
                raise RuntimeError(f"{name} is past {value}")
    return action


def patterns_of(recipe):
    """The pattern recipes ``recipe``'s automata use."""
    found, pending = [], [recipe]
    while pending:
        node = pending.pop()
        if node[0] == "auto":
            found += [SHARED[move[2]] if isinstance(move[2], int) else move[2] for move in node[6]]
        else:
            pending += [part for part in node if isinstance(part, tuple) and part and part[0] in KINDS]
    return found


def case(rng, depth=3):
    """A recipe, and a stream of events three in four of which fit one of its
    patterns in name and arity, and in the literals after the first slot."""
    recipe = tree(rng, depth, frozenset(STEP_ENV))
    fitting, stream = patterns_of(recipe), []
    for _ in range(rng.randint(0, 10)):
        name, slots = rng.choice(fitting) if rng.random() < 0.75 else (rng.choice(EVENT_NAMES), "ab"[: rng.randint(1, 2)])
        stream.append(Event(name, tuple(
            slot[1] if i and slot[0] == "lit" else rng.choice(VALUES) for i, slot in enumerate(slots))))
    return recipe, stream


cases = st.randoms(use_true_random=False).map(case)


# ------------------------------------------------------------ the property

def attempt(run, spec, state, event, env):
    """``run``'s result, or the type and text of what it raised."""
    try:
        return run(spec, state, event, env)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return (type(exc), str(exc))


#: A leaf under a flow that both declare ``x``: ``a`` deletes the leaf's, then
#: ``b`` leaves the leaf while the flow's ``x`` is bound, which is not the leaf's.
DELETED_WHILE_BOUND = (
    ("flow", (("x", ("plain", 0)),), None,
     ("auto", (("x", ("plain", 1)),), None, ("s0",), "s0", ("s0",), (
         ("s0", "s0", ("a", (("lit", 0),)), None, ("del", "x", 0)),
         ("s0", "s0", ("b", (("lit", 0),)), None, None))),
     ("auto", (), None, ("s0",), "s0", (), (("s0", "s0", ("b", (("lit", 1),)), None, None),))),
    [Event("a", (0,)), Event("b", (0,))],
)


@settings(derandomize=True, max_examples=500, deadline=None, phases=[Phase.explicit, Phase.generate])
@given(drawn=cases)
@example(drawn=DELETED_WHILE_BOUND)
def test_the_compiled_step_is_the_reference_interpreter(drawn):
    recipe, stream = drawn
    spec, twin = build(recipe), build(recipe)
    note(describe(spec))
    state, twin_state = init(spec, STEP_ENV), init(twin, STEP_ENV)
    assert dump_state(state) == dump_state(twin_state)
    env = dict(STEP_ENV)
    for event in stream:
        note(f"event {event}")
        before, twin_before = dump_state(state), dump_state(twin_state)
        got = attempt(step, spec, state, event, env)
        want = attempt(oracles.step_reference, twin, twin_state, event, env)
        if not all(result is not None and isinstance(result[0], State) for result in (got, want)):
            assert got == want  # both refused, or both raised the same
            # A refused step, or one that raised, leaves the state it was given.
            assert dump_state(state) == before and dump_state(twin_state) == twin_before
            continue
        (state, out), (twin_state, twin_out) = got, want
        assert dump_state(state) == dump_state(twin_state)
        assert dict(out) == dict(twin_out)
        assert is_final(spec, state) == is_final(twin, twin_state)
        env = dict(out)


def test_the_recipes_reach_every_outcome_and_kind():
    # The property is only as good as what its trees do: each outcome and
    # each node kind shows up in the examples it draws.
    seen = set()

    @settings(derandomize=True, max_examples=200, deadline=None, phases=[Phase.generate])
    @given(drawn=cases)
    def record(drawn):
        recipe, stream = drawn
        spec = build(recipe)
        seen.update(type(node).__name__ for _, node in walk(spec))
        for _, node in walk(spec):
            if isinstance(node, QuantifiedInterleave):
                seen.add("unbounded" if node.domain is UNBOUNDED else "bounded")
            if isinstance(node, Automaton):
                seen.add("multi-state" if len(node.states) > 1 else "one-state")
        state, env = init(spec, STEP_ENV), dict(STEP_ENV)
        for event in stream:
            result = attempt(step, spec, state, event, env)
            if result is None:
                seen.add("refused")
            elif isinstance(result[0], type):
                seen.add(result[0].__name__)
            else:
                seen.add("accepted")
                state, env = result[0], dict(result[1])
                if deleted_while_bound(spec, state, set(env)):
                    seen.add("deleted while bound")

    record()
    assert seen >= {
        "Automaton", "Flow", "QuantifiedFlow", "QuantifiedInterleave", "Call", "bounded", "unbounded",
        "one-state", "multi-state", "accepted", "refused", "RuntimeError", "SpecificationError",
        "deleted while bound",
    }


def deleted_while_bound(spec, state, outer):
    """True when a node of ``state`` no longer holds one of its attributes while
    ``outer`` (the next step's env) or an enclosing node binds that name: the
    case where a leave that took back every declared name took the caller's."""
    if (set(dict(spec.attrs)) - set(state.env)) & outer:
        return True
    outer = outer | set(state.env)
    if isinstance(spec, Flow):
        parts = ((spec.left, state.left), (spec.right, state.right))
    elif isinstance(spec, Call):
        parts = ((spec.callee, state.inner),)
    elif isinstance(spec, Automaton):
        parts = ()
    else:
        outer |= {spec.var}
        parts = ((spec.body, instance) for instance in state.instances.values())
    return any(deleted_while_bound(node, part, outer) for node, part in parts)


# ------------------------------------------------------- deep and large trees

def leaf(name, move=None, guard=None, attrs=()):
    """A one-state automaton on ``t(?k:int)``."""
    pattern = EventPattern("t", (Capture("k", int),))
    return Automaton(name=name, states=("s",), initial="s", finals=("s",), attrs=attrs,
                     transitions=(Transition(source="s", pattern=pattern, target="s", guard=guard, action=move),))


def count(env):
    env["n"] = env["n"] + env["k"]


def test_a_tree_25_quantified_levels_deep_steps_as_the_reference():
    # Each quantified node is a function of its own, so the nesting of the
    # generated code does not grow with the depth of the tree.
    def tree():
        body = Automaton(name="bottom", states=("s0", "s1"), initial="s0", finals=("s1",), attrs=(("n", 0),),
                         transitions=(Transition(source="s0", pattern=EventPattern("t", (Ref("v0"), Capture("k"))),
                                                 target="s1", action=count),
                                      Transition(source="s1", pattern=EventPattern("t", (Ref("v0"), Capture("k"))),
                                                 target="s0", action=count)))
        for level in range(25):
            # One instance a level, or two at a few, where each steps.
            kind = (QuantifiedFlow, QuantifiedInterleave)[level % 2]
            domain = UNBOUNDED if kind is QuantifiedInterleave and level % 4 == 1 else (7, level) if level % 8 == 0 else (7,)
            body = kind(name=f"q{level}", var=f"v{level}", domain=domain, body=body,
                        attrs=((f"a{level}", level),) if level % 5 == 0 else ())
        return body

    spec, twin = tree(), tree()
    state, twin_state = init(spec), init(twin)
    assert dump_state(state) == dump_state(twin_state)
    for event in (Event("t", (7, 1)), Event("t", (0, 2)), Event("t", (7, 3)), Event("u", (7,))):
        got = step(spec, state, event)
        want = oracles.step_reference(twin, twin_state, event)
        assert (got is None) == (want is None)
        if got is not None:
            (state, out), (twin_state, twin_out) = got, want
            assert dump_state(state) == dump_state(twin_state) and out == twin_out
    assert '"n": 4' in dump_state(state)  # 1 + 3: the two events for instance 7 fired


def test_a_tree_300_flows_deep_inits_and_steps_as_the_reference():
    def tree():
        node = leaf("bottom", attrs=(("n", 0),), move=count)
        for level in range(300):
            right = leaf(f"r{level}", attrs=(("n", level),), move=count) if level % 50 == 0 else leaf(f"r{level}")
            node = Flow(name=f"f{level}", left=node, right=right, attrs=(("m", 0),) if level % 75 == 0 else ())
        return node

    spec, twin = tree(), tree()
    state, twin_state = init(spec), init(twin)
    assert dump_state(state) == dump_state(twin_state)
    for event in (Event("t", (2,)), Event("t", ("x",)), Event("t", (3,))):
        got = step(spec, state, event)
        want = oracles.step_reference(twin, twin_state, event)
        assert (got is None) == (want is None)
        if got is not None:
            (state, out), (twin_state, twin_out) = got, want
            assert dump_state(state) == dump_state(twin_state) and out == twin_out
    assert '"n": 5' in dump_state(state)


# --------------------------------------------------------- the compiled code

def test_a_guard_that_raises_is_traced_to_the_compiled_step():
    def broken(env):
        return 1 / 0

    spec = Flow(name="root", left=leaf("l"), right=Automaton(
        name="r", states=("s",), initial="s", finals=("s",),
        transitions=(Transition(source="s", pattern=EventPattern("t", (Capture("k"),)), target="s",
                                guard=broken),)))
    with pytest.raises(ZeroDivisionError) as raised:
        step(spec, init(spec), Event("t", (1,)))
    files = [entry.frame.code.raw.co_filename for entry in raised.traceback]
    assert "<flowdetect step 'root'>" in files
    assert files[-1].endswith("test_compiled_step.py")  # the guard itself


def nodes_of(code):
    """The nodes and patterns compiled code reads, by id."""
    return {id(value) for value in code.__defaults__ if isinstance(value, (Node, EventPattern))}


def open_fields(spec):
    """The ``(part, field)`` of every guard and action of a tree, set or not."""
    for _, node in walk(spec):
        if not isinstance(node, Call):
            yield node, "action"
        for t in getattr(node, "transitions", ()):
            yield from ((t, "guard"), (t, "action"))


def test_pipelines_and_copies_share_no_compiled_code():
    first, second = Pipeline(), Pipeline()
    event = Event("e", ("alice", "01/04/2010 09:00:00", "a-1"))
    for pipeline in (first, second):
        pipeline.process_event(event)
    for a, b in ((first.spec, second.spec), (callee_of(first.spec), callee_of(second.spec))):
        assert a._code is not None and b._code is not None and a._code is not b._code
        assert not nodes_of(a._code) & nodes_of(b._code)
    # A copy or a pickle of a stepped spec starts without code and unsealed,
    # and compiles its own, which reads the copy's nodes.
    callee = leaf("p", attrs=(("n", 0),), move=count)
    spec = Flow(name="f", attrs=(("n", 0),), left=leaf("l", move=count), right=Call(name="c", callee=callee))
    state, _ = step(spec, init(spec), Event("t", (1,)))
    originals = {id(node) for _, node in walk(spec)}
    for part, name in open_fields(spec):
        with pytest.raises(AttributeError, match="is fixed"):
            setattr(part, name, getattr(part, name))
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert all(node._code is None for _, node in walk(twin))
        for part, name in open_fields(twin):
            setattr(part, name, getattr(part, name))  # the same value back
        twin_state, _ = step(twin, init(twin), Event("t", (1,)))
        assert dump_state(twin_state) == dump_state(state)
        for node, original in ((twin, spec), (callee_of(twin), callee)):
            assert node._code is not None and node._code is not original._code
            assert not nodes_of(node._code) & originals


def callee_of(spec):
    """The callee of the first call in ``spec``."""
    return next(node.callee for _, node in walk(spec) if isinstance(node, Call))


def test_code_is_compiled_once_per_node_it_steps(monkeypatch):
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(engine_module, "compile", counting, raising=False)
    pipeline = Pipeline()
    for n in range(20):
        pipeline.process_event(Event("e", (f"u{n % 3}", f"01/0{4 + n % 3}/2010 09:00:00", f"e-{n}")))
    assert sorted(compiled) == ["<flowdetect step 'detector_instance'>", "<flowdetect step 'users'>"]

    # A callee is compiled with the first of its callers to step, before it,
    # and only then: every caller's code runs the callee's.
    compiled.clear()
    callee = Automaton(name="a", states=("s0", "s1"), initial="s0", finals=("s0",),
                       transitions=(Transition(source="s0", pattern=EventPattern("tick"), target="s1"),
                                    Transition(source="s1", pattern=EventPattern("tick"), target="s0")))
    calls = [Call(name="c", callee=callee), Call(name="d", callee=callee)]
    for spec in (*calls, callee):
        state = init(spec)
        for _ in range(3):
            state, _ = step(spec, state, Event("tick"))
    assert compiled == ["<flowdetect step 'a'>", "<flowdetect step 'c'>", "<flowdetect step 'd'>"]
    assert all(callee._code in call._code.__defaults__ for call in calls)


def test_the_pipelines_code_holds_its_guards_and_actions_as_constants(monkeypatch):
    # Each is taken into the code when it is compiled, so a step reads none
    # from the tree, and every part the code was compiled from is sealed.
    sources = {}

    def keeping(source, filename, mode):
        sources[filename] = source
        return compile(source, filename, mode)

    monkeypatch.setattr(engine_module, "compile", keeping, raising=False)
    pipeline = Pipeline()
    pipeline.process_event(Event("e", ("alice", "01/04/2010 09:00:00", "a-1")))
    assert sorted(sources) == ["<flowdetect step 'detector_instance'>", "<flowdetect step 'users'>"]
    for source in sources.values():
        assert ".guard" not in source and ".action" not in source and "_bare" not in source
        # Each function is defined at top level, and a call runs its callee's code, a constant.
        assert "def _unit" not in source and "_callee" not in source and "_compile" not in source
    for part, name in open_fields(pipeline.spec):
        with pytest.raises(AttributeError, match="is fixed"):
            setattr(part, name, getattr(part, name))
