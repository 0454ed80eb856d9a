import re
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crem import (
    Alternative,
    Basic,
    BaseMachine,
    DuplicateLeafName,
    Feedback,
    FeedbackOverflow,
    Kleisli,
    Left,
    Parallel,
    Right,
    RunConfig,
    Sequential,
    StateMachine,
    TraceError,
    DisallowedTransition,
    fanin,
    identity_machine,
    lmap,
    rmap,
    run_trace,
    stateless,
    unrestricted_mealy,
)
from crem.cart import CartCommand, CartEvent, cart

PAY = CartCommand.PayCart
MARK = CartCommand.MarkCartAsPaid


def counter(name="counter"):
    return Basic(unrestricted_mealy(name, 0, lambda s, _: (s + 1, s + 1)))


def emitter(name, func):
    return Basic(stateless(name, func))


def test_basic_delegates_to_machine():
    outputs = run_trace(cart(), [PAY, MARK])
    assert outputs == [[CartEvent.CartPaymentInitiated], [CartEvent.CartPaymentCompleted]]


def test_sequential_pipes_first_into_second():
    double = emitter("double", lambda x: 2 * x)
    inc = emitter("inc", lambda x: x + 1)
    output, stepped = Sequential(double, inc).step(5)
    assert output == 11
    assert isinstance(stepped, Sequential)


def test_sequential_threads_state():
    assert run_trace(Sequential(counter(), emitter("dbl", lambda x: 2 * x)), "abc") == [2, 4, 6]


def test_parallel_steps_both_halves():
    output, _ = Parallel(counter("left"), emitter("neg", lambda x: -x)).step(("u", 5))
    assert output == (1, -5)


def test_parallel_component_independence():
    lefts = ["a", "b", "c"]
    rights = [10, 20, 30]
    paired = run_trace(Parallel(counter("left"), counter("right")), list(zip(lefts, rights)))
    alone = run_trace(counter("left"), lefts)
    assert [b for b, _ in paired] == alone
    assert [d for _, d in paired] == run_trace(counter("right"), rights)


@pytest.mark.parametrize("value", [1, (1, 2, 3)], ids=["not-iterable", "three-items"])
def test_parallel_rejects_a_non_pair_naming_itself(value):
    with pytest.raises(TypeError, match=rf"^Parallel expects a pair, got {re.escape(repr(value))}$"):
        Parallel(counter("l"), counter("r")).step(value)


def test_alternative_routes_left_and_right():
    machine = Alternative(counter("left"), counter("right"))
    output, machine = machine.step(Left("x"))
    assert output == Left(1)
    output, machine = machine.step(Right("y"))
    assert output == Right(1)  # right child untouched by the Left input
    output, machine = machine.step(Left("z"))
    assert output == Left(2)


def test_left_and_right_differ_by_class_alone():
    assert Left(1) == Left(1)
    assert Left(1) != Right(1)
    assert hash(Left(1)) == hash(Right(1)) == hash((1,))
    assert (repr(Left("a")), repr(Right([1]))) == ("Left('a')", "Right([1])")


def test_alternative_rejects_untagged_input():
    with pytest.raises(TypeError):
        Alternative(counter("l"), counter("r")).step("bare")


def test_alternative_state_isolation():
    # stepping many Lefts never changes what the Right child will answer
    machine = Alternative(counter("left"), counter("right"))
    for _ in range(5):
        _, machine = machine.step(Left("u"))
    output, _ = machine.step(Right("u"))
    assert output == Right(1)


def test_feedback_accumulates_in_production_order():
    # forward expands n to [n]; backward decrements until zero: the loop
    # produces n, n-1, ..., 0 in that order
    forward = emitter("fwd", lambda n: [n])
    backward = emitter("bwd", lambda n: [n - 1] if n > 0 else [])
    output, _ = Feedback(forward, backward).step(3)
    assert output == [3, 2, 1, 0]


def test_feedback_fifo_is_breadth_first():
    # forward grows words level by level; breadth-first processing means a
    # whole generation is emitted before any of its children
    def fan(value):
        if len(value) >= 2:
            return []
        return [value + "a", value + "b"]

    forward = emitter("fwd", fan)
    backward = emitter("bwd", lambda v: [v])
    output, _ = Feedback(forward, backward).step("", RunConfig(feedback_cap=50))
    assert output == ["a", "b", "aa", "ab", "ba", "bb"]


def test_feedback_with_silent_forward_machine():
    output, _ = Feedback(emitter("mute", lambda _: []), emitter("echo", lambda x: [x])).step(9)
    assert output == []


def test_feedback_at_cap_one_settles_only_a_silent_forward_step():
    echo = emitter("echo", lambda x: [x])
    one = RunConfig(feedback_cap=1)
    output, _ = Feedback(emitter("mute", lambda _: []), echo).step(9, one)
    assert output == []
    with pytest.raises(FeedbackOverflow) as err:
        Feedback(emitter("once", lambda x: [x]), echo).step(9, one)
    assert err.value.cap == 1


def test_feedback_spends_one_unit_of_the_cap_per_step():
    # 3, 2, 1, 0 take four forward and four backward steps
    forward = emitter("fwd", lambda n: [n])
    backward = emitter("bwd", lambda n: [n - 1] if n > 0 else [])
    output, _ = Feedback(forward, backward).step(3, RunConfig(feedback_cap=8))
    assert output == [3, 2, 1, 0]
    with pytest.raises(FeedbackOverflow):
        Feedback(forward, backward).step(3, RunConfig(feedback_cap=7))


@pytest.mark.parametrize("shared", [[], ["x"]], ids=["empty", "one-item"])
def test_feedback_never_hands_out_the_forward_machines_list(shared):
    expected = list(shared)
    tree = Feedback(emitter("fwd", lambda _: shared), emitter("mute", lambda _: []))
    output, _ = tree.step(9)
    assert output == expected and output is not shared
    output.append("mutated")  # the caller owns the list it got
    assert shared == expected


def test_feedback_outputs_all_come_from_forward_machine():
    forward = emitter("fwd", lambda v: [("fwd", v)] if not isinstance(v, tuple) else [])
    backward = emitter("bwd", lambda v: [("bwd", v)])
    output, _ = Feedback(forward, backward).step("seed")
    assert output and all(tag == "fwd" for tag, _ in output)


def test_feedback_leaves_run_forward_then_backward():
    f1, f2, b1 = (emitter(name, lambda x: [x]) for name in ("f1", "f2", "b1"))
    forward = Sequential(f1, f2)
    tree = Feedback(forward, b1)
    assert list(tree.leaves()) == [f1.machine, f2.machine, b1.machine]
    assert tree.first is forward and tree.second is b1


def test_feedback_overflow_at_cap():
    ping = emitter("ping", lambda x: [x])
    pong = emitter("pong", lambda x: [x])
    with pytest.raises(FeedbackOverflow) as err:
        Feedback(ping, pong).step(0, RunConfig(feedback_cap=13))
    assert err.value.cap == 13
    assert str(err.value) == "feedback loop exceeded 13 iterations without settling"


LIST_SHAPE_ERRORS = {
    "feedback-forward-first": (
        Feedback(emitter("scalar", lambda x: x), emitter("echo", lambda x: [x])),
        "the forward machine of Feedback must produce a list, got int",
    ),
    "feedback-forward-reinjected": (
        Feedback(
            emitter("once", lambda x: [x + 1] if x == 0 else (x,)), emitter("echo", lambda x: [x])
        ),
        "the forward machine of Feedback must produce a list, got tuple",
    ),
    "feedback-backward": (
        Feedback(emitter("echo", lambda x: [x]), emitter("none", lambda x: None)),
        "the backward machine of Feedback must produce a list, got NoneType",
    ),
    "kleisli-first": (
        Kleisli(emitter("scalar", lambda x: x), emitter("echo", lambda x: [x])),
        "the first machine of Kleisli must produce a list, got int",
    ),
    "kleisli-second": (
        Kleisli(emitter("echo", lambda x: [x]), emitter("text", lambda x: str(x))),
        "the second machine of Kleisli must produce a list, got str",
    ),
}


@pytest.mark.parametrize("case", list(LIST_SHAPE_ERRORS))
def test_each_list_shaped_child_names_itself_when_it_returns_no_list(case):
    tree, message = LIST_SHAPE_ERRORS[case]
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        tree.step(0)


# -- Feedback against the two-queue scheduler it replaced -----------------------


def fanning(name, fans, log):
    """A counting leaf: its n-th step logs ``(name, input)`` and emits ``fans[n % len(fans)]``
    outputs ``(name, n, 0)``, ``(name, n, 1)``, ..."""

    def act(steps, value):
        log.append((name, value))
        return [(name, steps, j) for j in range(fans[steps % len(fans)])], steps + 1

    return Basic(unrestricted_mealy(name, 0, act))


def two_queue_feedback(value, cap, steps, forward, backward):
    """The reference: Feedback's FIFO rule as a scheduler over two deques.

    ``steps`` maps a leaf name to its step count, and ``forward`` and ``backward``
    are ``(name, fans, log)`` as :func:`fanning` takes them. Returns the outputs, or
    None if work is still queued once the cap is spent."""

    def run(leaf, item):
        name, fans, log = leaf
        log.append((name, item))
        n = steps[name]
        steps[name] = n + 1
        return [(name, n, j) for j in range(fans[n % len(fans)])]

    collected = run(forward, value)
    inputs, outputs = deque(), deque(collected)
    for _ in range(cap - 1):
        if inputs:
            produced = run(forward, inputs.popleft())
            collected.extend(produced)
            outputs.extend(produced)
        elif outputs:
            inputs.extend(run(backward, outputs.popleft()))
        else:
            break
    return None if inputs or outputs else collected


fans = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    forward_fans=fans,
    backward_fans=fans,
    cap=st.integers(min_value=1, max_value=60),
    inputs=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
)
# fwd, bwd, then the cap runs out on the third of three reinjected items
@example(forward_fans=[1], backward_fans=[3], cap=4, inputs=[0])
def test_feedback_matches_the_two_queue_scheduler(forward_fans, backward_fans, cap, inputs):
    config = RunConfig(feedback_cap=cap)
    log, expected_log = [], []
    tree = Feedback(fanning("fwd", forward_fans, log), fanning("bwd", backward_fans, log))
    steps = {"fwd": 0, "bwd": 0}
    forward = ("fwd", forward_fans, expected_log)
    backward = ("bwd", backward_fans, expected_log)
    for value in inputs:
        expected = two_queue_feedback(value, cap, steps, forward, backward)
        if expected is None:
            with pytest.raises(FeedbackOverflow) as err:
                tree.step(value, config)
            assert err.value.cap == cap
            assert log == expected_log
            return
        output, tree = tree.step(value, config)
        assert output == expected
        assert log == expected_log
        assert [leaf.state.payload for leaf in tree.leaves()] == [steps["fwd"], steps["bwd"]]


def test_kleisli_flat_maps_and_threads_state():
    expand = emitter("expand", lambda n: [n] * n)
    tally = Basic(unrestricted_mealy("tally", 0, lambda s, _: ([s + 1], s + 1)))
    output, stepped = Kleisli(expand, tally).step(3)
    assert output == [1, 2, 3]
    # the tally state persists across batches
    output, _ = stepped.step(2)
    assert output == [4, 5]


def test_kleisli_empty_batch_skips_second():
    output, _ = Kleisli(emitter("none", lambda _: []), counter()).step("x")
    assert output == []


def test_run_trace_empty():
    assert run_trace(cart(), []) == []


def test_run_trace_stateless():
    double = emitter("double", lambda x: 2 * x)
    assert run_trace(double, [1, 2]) == [2, 4]


def test_run_trace_wraps_error_with_input_index():
    bad = Basic(
        stateless("fussy", lambda x: (_ for _ in ()).throw(ValueError("nope")) if x == 2 else x)
    )
    with pytest.raises(TraceError) as err:
        run_trace(bad, [1, 2, 3])
    assert err.value.index == 1
    assert isinstance(err.value.error, ValueError)


def test_run_trace_propagates_disallowed_transition():
    from crem import BaseMachine, MachineState, StepResult, Topology

    topo = Topology((("a", ("b",)), ("b", ())))
    def back(state, value):
        return StepResult(value, MachineState({"a": "b", "b": "a"}[state.vertex]))

    machine = Basic(BaseMachine("flipflop", topo, MachineState("a"), back))
    with pytest.raises(TraceError) as err:
        run_trace(machine, [1, 2])
    assert err.value.index == 1
    assert isinstance(err.value.error, DisallowedTransition)


def test_identity_machine():
    output, _ = identity_machine().step("anything")
    assert output == "anything"


def test_sequential_identity_laws_on_traces():
    trace = [PAY, PAY, MARK, PAY]
    expected = run_trace(cart(), trace)
    assert run_trace(Sequential(identity_machine(), cart()), trace) == expected
    assert run_trace(Sequential(cart(), identity_machine()), trace) == expected


def test_lmap_preprocesses():
    to_upper = lmap(str.upper, identity_machine("echo"), name="up")
    assert run_trace(to_upper, ["a", "b"]) == ["A", "B"]


def test_rmap_postprocesses():
    count = rmap(cart(), len, name="count")
    assert run_trace(count, [PAY]) == [1]


def test_lmap_identity_is_noop():
    trace = [3, 1, 4]
    machine = lambda: counter()
    assert run_trace(lmap(lambda x: x, machine()), trace) == run_trace(machine(), trace)


def test_rmap_composes_like_functions():
    trace = [1, 2, 3]
    g = lambda x: x + 10
    h = lambda x: x * 2
    double_mapped = rmap(rmap(counter(), g, name="g"), h, name="h")
    fused = rmap(counter(), lambda x: h(g(x)), name="hg")
    assert run_trace(double_mapped, trace) == run_trace(fused, trace)


def test_alternative_identity_passthrough():
    machine = Alternative(identity_machine("l"), identity_machine("r"))
    output, _ = machine.step(Right("x"))
    assert output == Right("x")


def test_fanin_collapses_to_shared_output():
    shout = emitter("shout", lambda x: [f"{x}!"])
    silent = emitter("silent", lambda _: [])
    machine = fanin(shout, silent)
    output, machine = machine.step(Left("go"))
    assert output == ["go!"]
    output, _ = machine.step(Right("ignored"))
    assert output == []


def test_fanin_of_identities():
    machine = fanin(identity_machine("l"), identity_machine("r"))
    output, _ = machine.step(Left("x"))
    assert output == "x"


def test_fanin_matches_the_policy_wiring():
    # the bridge between domains: cart events answered with tagged shipping
    # commands, shipping events answered with silence
    from crem.cart import ShippingCommand, payment_complete_policy

    policy = rmap(
        payment_complete_policy(),
        lambda commands: [Right(c) for c in commands],
        name="wrap",
    )
    silent = emitter("silent", lambda _: [])
    machine = fanin(policy, silent)
    output, machine = machine.step(Left(CartEvent.CartPaymentCompleted))
    assert output == [Right(ShippingCommand.StartShipping)]
    output, _ = machine.step(Right("any shipping event"))
    assert output == []


def test_duplicate_leaf_names_rejected_at_construction():
    with pytest.raises(DuplicateLeafName):
        Sequential(identity_machine("same"), identity_machine("same"))
    with pytest.raises(DuplicateLeafName):
        Feedback(emitter("same", lambda x: [x]), emitter("same", lambda x: [x]))


class HandRolled(StateMachine):
    """A node outside the six kinds that defines its own step and leaves."""

    def step(self, value, config=None):
        return value, self

    def leaves(self):
        yield cart().machine


# a forgotten Basic(...), a value that is no machine at all, and two StateMachines
NOT_NODES = {
    "BaseMachine": lambda: cart().machine,
    "int": lambda: 42,
    "StateMachine": StateMachine,
    "HandRolled": HandRolled,
}


@pytest.mark.parametrize("side", ["first", "second"])
@pytest.mark.parametrize("name", list(NOT_NODES))
@pytest.mark.parametrize(
    "kind", [Sequential, Parallel, Alternative, Feedback, Kleisli], ids=lambda kind: kind.__name__
)
def test_a_child_outside_the_six_kinds_is_refused_at_construction(kind, name, side):
    children = [NOT_NODES[name](), identity_machine("x")]
    if side == "second":
        children.reverse()
    with pytest.raises(TypeError, match=f"^not a composition tree node: {name}$"):
        kind(*children)


# a value that is no machine, a machine's topology, and tree nodes where their machine belongs
NOT_MACHINES = {
    "int": lambda: 1,
    "NoneType": lambda: None,
    "Topology": lambda: cart().machine.topology,
    "Basic": cart,
    "Sequential": lambda: Sequential(identity_machine("a"), identity_machine("b")),
}


@pytest.mark.parametrize("name", list(NOT_MACHINES))
def test_basic_refuses_what_is_not_a_base_machine(name):
    with pytest.raises(TypeError, match=f"^Basic needs a BaseMachine, got {name}$"):
        Basic(NOT_MACHINES[name]())


def test_basic_takes_a_subclass_of_base_machine():
    class Named(BaseMachine):
        pass

    machine = cart().machine
    leaf = Basic(Named(machine.name, machine.topology, machine.state, machine.action))
    assert [type(m) for m in leaf.leaves()] == [Named]
    assert run_trace(leaf, [PAY]) == [[CartEvent.CartPaymentInitiated]]


def test_step_is_deterministic():
    machine = Kleisli(Feedback(cart(), emitter("gw", lambda e: [])), counterish())
    first = machine.step(PAY)
    second = machine.step(PAY)
    assert first[0] == second[0]


def counterish():
    return Basic(stateless("tally", lambda _: [1]))


def test_run_config_validates_cap():
    with pytest.raises(ValueError):
        RunConfig(feedback_cap=0)


@pytest.mark.parametrize("cap", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_run_config_refuses_a_cap_that_is_not_an_int(cap):
    with pytest.raises(TypeError, match="^feedback_cap must be an int, got "):
        RunConfig(feedback_cap=cap)


small_traces = st.lists(st.integers(min_value=0, max_value=99), max_size=12)


@given(small_traces)
def test_category_identity_law_property(trace):
    machine = lambda: counter()
    assert run_trace(Sequential(identity_machine(), machine()), trace) == run_trace(
        machine(), trace
    )


@given(small_traces)
def test_category_associativity_property(trace):
    f = emitter("f", lambda x: x + 1)
    g = emitter("g", lambda x: x * 2)
    h = emitter("h", lambda x: x - 3)
    assert run_trace(Sequential(Sequential(f, g), h), trace) == run_trace(
        Sequential(f, Sequential(g, h)), trace
    )


@given(small_traces)
def test_kleisli_unit_law_property(trace):
    unit = lambda name: emitter(name, lambda x: [x])
    machine = emitter("burst", lambda x: [x] * (x % 3))
    assert run_trace(Kleisli(unit("u"), machine), trace) == run_trace(machine, trace)
    assert run_trace(Kleisli(machine, unit("u")), trace) == run_trace(machine, trace)


@given(small_traces)
def test_kleisli_associativity_property(trace):
    f = emitter("f", lambda x: [x, x + 1])
    g = emitter("g", lambda x: [x * 2] if x % 2 else [])
    h = emitter("h", lambda x: [x - 1])
    assert run_trace(Kleisli(Kleisli(f, g), h), trace) == run_trace(
        Kleisli(f, Kleisli(g, h)), trace
    )
