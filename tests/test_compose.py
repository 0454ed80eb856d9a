import pytest
from hypothesis import given
from hypothesis import strategies as st

from crem import (
    Alternative,
    Basic,
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
    split_choice,
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


def test_alternative_routes_left_and_right():
    machine = Alternative(counter("left"), counter("right"))
    output, machine = machine.step(Left("x"))
    assert output == Left(1)
    output, machine = machine.step(Right("y"))
    assert output == Right(1)  # right child untouched by the Left input
    output, machine = machine.step(Left("z"))
    assert output == Left(2)


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


def test_feedback_outputs_all_come_from_forward_machine():
    forward = emitter("fwd", lambda v: [("fwd", v)] if not isinstance(v, tuple) else [])
    backward = emitter("bwd", lambda v: [("bwd", v)])
    output, _ = Feedback(forward, backward).step("seed")
    assert output and all(tag == "fwd" for tag, _ in output)


def test_feedback_leaves_run_forward_then_backward():
    f1, f2, b1 = (emitter(name, lambda x: [x]) for name in ("f1", "f2", "b1"))
    tree = Feedback(Sequential(f1, f2), b1)
    assert list(tree.leaves()) == [f1.machine, f2.machine, b1.machine]


def test_feedback_overflow_at_cap():
    ping = emitter("ping", lambda x: [x])
    pong = emitter("pong", lambda x: [x])
    with pytest.raises(FeedbackOverflow) as err:
        Feedback(ping, pong).step(0, RunConfig(feedback_cap=13))
    assert err.value.cap == 13
    assert str(err.value) == "feedback loop exceeded 13 iterations without settling"


def test_feedback_requires_list_outputs():
    with pytest.raises(TypeError):
        Feedback(emitter("scalar", lambda x: x), emitter("echo", lambda x: [x])).step(1)


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


def test_split_choice_routes_to_first_only():
    machine = split_choice(counter("cart-side"), counter("ship-side"))
    output, machine = machine.step(Left("pay"))
    assert output == Left(1)
    output, _ = machine.step(Right("ship"))
    assert output == Right(1)


def test_split_choice_identity_passthrough():
    machine = split_choice(identity_machine("l"), identity_machine("r"))
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
