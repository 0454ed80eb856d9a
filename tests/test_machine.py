import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crem import (
    UNIT_VERTEX,
    BaseMachine,
    DisallowedTransition,
    EmptyName,
    MachineState,
    StepResult,
    Topology,
    UnknownVertex,
    stateless,
    unrestricted_mealy,
)

LINE = Topology((("a", ("b",)), ("b", ("c",)), ("c", ())))


def walk(state: MachineState, value) -> StepResult:
    steps = {"a": "b", "b": "c", "c": "c"}
    return StepResult(value, MachineState(steps[state.vertex]))


def test_new_machine_starts_at_initial_state():
    machine = BaseMachine("walker", LINE, MachineState("a"), walk)
    assert machine.state == MachineState("a")


def test_initial_vertex_must_belong_to_topology():
    with pytest.raises(UnknownVertex):
        BaseMachine("walker", LINE, MachineState("z"), walk)


def test_name_must_be_non_empty():
    with pytest.raises(EmptyName):
        BaseMachine("", LINE, MachineState("a"), walk)


@pytest.mark.parametrize("name", [7, None, b"walker"], ids=["int", "none", "bytes"])
def test_name_must_be_a_str(name):
    message = f"machine name must be a str, got {name!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        BaseMachine(name, LINE, MachineState("a"), walk)


@pytest.mark.parametrize(
    ("field", "kind", "value"),
    [
        ("topology", "a Topology", "a"),
        ("topology", "a Topology", (("a", ("b",)),)),
        ("state", "a MachineState", "a"),
        ("state", "a MachineState", None),
        ("action", "callable", None),
        ("action", "callable", {"a": "b"}),
    ],
    ids=["topology-str", "topology-tuple", "state-str", "state-none", "action-none", "action-dict"],
)
def test_fields_are_checked_when_built(field, kind, value):
    fields = {"name": "walker", "topology": LINE, "state": MachineState("a"), "action": walk}
    fields[field] = value
    message = f"machine 'walker': {field} must be {kind}, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        BaseMachine(**fields)


def test_step_returns_new_value_and_keeps_old():
    machine = BaseMachine("walker", LINE, MachineState("a"), walk)
    output, stepped = machine.step(41)
    assert output == 41
    assert stepped.state.vertex == "b"
    assert machine.state.vertex == "a"  # caller decides whether to keep the old value


def test_machine_values_are_immutable():
    machine = BaseMachine("walker", LINE, MachineState("a"), walk)
    with pytest.raises(FrozenInstanceError):
        machine.state = MachineState("b")


def test_disallowed_transition_names_machine_and_edge():
    def jump_back(state: MachineState, value) -> StepResult:
        return StepResult(value, MachineState("a"))

    machine = BaseMachine("walker", LINE, MachineState("c"), jump_back)
    with pytest.raises(DisallowedTransition) as err:
        machine.step(0)
    assert err.value.machine == "walker"
    assert (err.value.source, err.value.target) == ("c", "a")
    assert str(err.value) == (
        "machine 'walker': transition 'c' -> 'a' is not allowed by the topology"
    )


def test_step_is_pure():
    machine = BaseMachine("walker", LINE, MachineState("a"), walk)
    assert machine.step(7) == machine.step(7)


def test_stateless_applies_function_and_keeps_vertex():
    double = stateless("double", lambda x: 2 * x)
    output, stepped = double.step(21)
    assert output == 42
    assert stepped.state.vertex == UNIT_VERTEX
    assert stepped == double


def test_stateless_identity():
    for value in (0, "x", [1, 2], None):
        output, _ = stateless("id", lambda x: x).step(value)
        assert output == value


def test_unrestricted_mealy_counter_matches_fold_oracle():
    machine = unrestricted_mealy("counter", 0, lambda s, _: (s + 1, s + 1))
    outputs = []
    for value in ["u", "u", "u"]:
        output, machine = machine.step(value)
        outputs.append(output)
    assert outputs == [1, 2, 3]


def test_unrestricted_mealy_constant():
    machine = unrestricted_mealy("const", None, lambda s, _: ("k", s))
    for _ in range(3):
        output, machine = machine.step(object())
        assert output == "k"


def test_unrestricted_mealy_emits_previous_state():
    machine = unrestricted_mealy("echo-state", "s0", lambda s, a: (s, a))
    output, machine = machine.step("s1")
    assert output == "s0"
    output, machine = machine.step("s2")
    assert output == "s1"


@given(
    st.integers(),
    st.lists(st.integers(), max_size=30),
    st.integers(min_value=1, max_value=9),
)
def test_unrestricted_mealy_equals_left_fold(initial, inputs, modulus):
    def step_fn(state, value):
        return (state + value) % modulus, state - value

    # brute-force oracle: fold step_fn directly over the inputs
    expected = []
    state = initial
    for value in inputs:
        output, state = step_fn(state, value)
        expected.append(output)

    machine = unrestricted_mealy("fold", initial, step_fn)
    got = []
    for value in inputs:
        output, machine = machine.step(value)
        got.append(output)
    assert got == expected


def test_replace_revalidates_state():
    machine = BaseMachine("walker", LINE, MachineState("a"), walk)
    with pytest.raises(UnknownVertex):
        replace(machine, state=MachineState("nope"))
