import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crem import (
    DisallowedTransition,
    Feedback,
    FeedbackOverflow,
    Kleisli,
    Left,
    MachineState,
    Right,
    RunConfig,
    run_trace,
)
from crem.cart import (
    DELIVERED,
    DELIVERED_INFO,
    INITIATING_PAYMENT,
    IN_TRANSIT_INFO,
    NOT_SHIPPED,
    NOT_SHIPPED_INFO,
    PAYMENT_COMPLETE,
    PAYMENT_DONE,
    PAYMENT_IN_PROGRESS,
    PAYMENT_PENDING,
    SHIPPING,
    WAITING_FOR_PAYMENT,
    CartCommand,
    CartEvent,
    CartView,
    ShippingCommand,
    ShippingEvent,
    ShippingInfo,
    _chain,
    _table_machine,
    cart,
    cart_and_shipping,
    payment_complete_policy,
    payment_gateway,
    payment_status,
    shipping,
    shipping_info,
    whole_cart_domain,
)

PAY = CartCommand.PayCart
MARK = CartCommand.MarkCartAsPaid
INITIATED = CartEvent.CartPaymentInitiated
COMPLETED = CartEvent.CartPaymentCompleted


def step_at(tree, vertex, value):
    machine = replace(tree.machine, state=MachineState(vertex))
    output, stepped = machine.step(value)
    return output, stepped.state.vertex


@pytest.mark.parametrize(
    "start,command,events,end",
    [
        (WAITING_FOR_PAYMENT, PAY, [INITIATED], INITIATING_PAYMENT),
        (WAITING_FOR_PAYMENT, MARK, [], WAITING_FOR_PAYMENT),
        (INITIATING_PAYMENT, PAY, [], INITIATING_PAYMENT),
        (INITIATING_PAYMENT, MARK, [COMPLETED], PAYMENT_COMPLETE),
        (PAYMENT_COMPLETE, PAY, [], PAYMENT_COMPLETE),
        (PAYMENT_COMPLETE, MARK, [], PAYMENT_COMPLETE),
        # a pair the table does not list outputs [] and stays put
        (WAITING_FOR_PAYMENT, ShippingCommand.StartShipping, [], WAITING_FOR_PAYMENT),
    ],
)
def test_cart_action_row(start, command, events, end):
    assert step_at(cart(), start, command) == (events, end)


def test_cart_starts_waiting_for_payment():
    assert cart().machine.state.vertex == WAITING_FOR_PAYMENT


def test_payment_gateway_confirms_initiated_payment():
    gateway = payment_gateway()
    assert run_trace(gateway, [INITIATED]) == [[MARK]]
    assert run_trace(gateway, [COMPLETED]) == [[]]


def test_payment_gateway_outage_never_confirms():
    gateway = payment_gateway(always_fail=True)
    assert run_trace(gateway, [INITIATED, COMPLETED]) == [[], []]


@pytest.mark.parametrize(
    "start,event,views,end",
    [
        (PAYMENT_PENDING, INITIATED, [CartView.PaymentInProgress], PAYMENT_IN_PROGRESS),
        (PAYMENT_PENDING, COMPLETED, [], PAYMENT_PENDING),
        (PAYMENT_IN_PROGRESS, COMPLETED, [CartView.PaymentDone], PAYMENT_DONE),
        (PAYMENT_IN_PROGRESS, INITIATED, [], PAYMENT_IN_PROGRESS),
        (PAYMENT_DONE, INITIATED, [], PAYMENT_DONE),
        (PAYMENT_DONE, COMPLETED, [], PAYMENT_DONE),
        (PAYMENT_PENDING, ShippingEvent.ShippingStarted, [], PAYMENT_PENDING),
    ],
)
def test_payment_status_row(start, event, views, end):
    assert step_at(payment_status(), start, event) == (views, end)


def test_whole_cart_domain_happy_path():
    assert run_trace(whole_cart_domain(), [PAY]) == [
        [CartView.PaymentInProgress, CartView.PaymentDone]
    ]


def test_whole_cart_domain_pay_spends_exactly_four_feedback_iterations():
    # cart on PayCart, gateway on CartPaymentInitiated, cart on
    # MarkCartAsPaid, gateway on CartPaymentCompleted: four steps in all
    output, _ = whole_cart_domain().step(PAY, RunConfig(feedback_cap=4))
    assert output == [CartView.PaymentInProgress, CartView.PaymentDone]
    with pytest.raises(FeedbackOverflow) as err:
        whole_cart_domain().step(PAY, RunConfig(feedback_cap=3))
    assert err.value.cap == 3


def test_whole_cart_domain_ignores_unexpected_mark():
    assert run_trace(whole_cart_domain(), [MARK]) == [[]]


def test_whole_cart_domain_second_pay_is_noop():
    assert run_trace(whole_cart_domain(), [PAY, PAY]) == [
        [CartView.PaymentInProgress, CartView.PaymentDone],
        [],
    ]


def test_whole_cart_domain_with_gateway_outage():
    stuck = Kleisli(
        Feedback(cart(), payment_gateway(always_fail=True)), payment_status()
    )
    # the payment starts but is never confirmed
    assert run_trace(stuck, [PAY, PAY]) == [[CartView.PaymentInProgress], []]


@pytest.mark.parametrize(
    "start,command,events,end",
    [
        (NOT_SHIPPED, ShippingCommand.StartShipping, [ShippingEvent.ShippingStarted], SHIPPING),
        (NOT_SHIPPED, ShippingCommand.MarkAsDelivered, [], NOT_SHIPPED),
        (SHIPPING, ShippingCommand.MarkAsDelivered, [ShippingEvent.ShippingDelivered], DELIVERED),
        (SHIPPING, ShippingCommand.StartShipping, [], SHIPPING),
        (DELIVERED, ShippingCommand.StartShipping, [], DELIVERED),
        (DELIVERED, ShippingCommand.MarkAsDelivered, [], DELIVERED),
        (NOT_SHIPPED, PAY, [], NOT_SHIPPED),
    ],
)
def test_shipping_action_row(start, command, events, end):
    assert step_at(shipping(), start, command) == (events, end)


def test_payment_complete_policy_rows():
    policy = payment_complete_policy()
    assert run_trace(policy, [INITIATED]) == [[]]
    assert run_trace(policy, [COMPLETED]) == [[ShippingCommand.StartShipping]]
    # stateless: the reaction repeats every time
    assert run_trace(policy, [COMPLETED, COMPLETED]) == [
        [ShippingCommand.StartShipping],
        [ShippingCommand.StartShipping],
    ]


@pytest.mark.parametrize(
    "start,event,views,end",
    [
        (NOT_SHIPPED_INFO, ShippingEvent.ShippingStarted, [ShippingInfo.InTransit], IN_TRANSIT_INFO),
        (NOT_SHIPPED_INFO, ShippingEvent.ShippingDelivered, [], NOT_SHIPPED_INFO),
        (IN_TRANSIT_INFO, ShippingEvent.ShippingDelivered, [ShippingInfo.Delivered], DELIVERED_INFO),
        (DELIVERED_INFO, ShippingEvent.ShippingStarted, [], DELIVERED_INFO),
        (IN_TRANSIT_INFO, ShippingEvent.ShippingStarted, [], IN_TRANSIT_INFO),
        (NOT_SHIPPED_INFO, COMPLETED, [], NOT_SHIPPED_INFO),
    ],
)
def test_shipping_info_row(start, event, views, end):
    assert step_at(shipping_info(), start, event) == (views, end)


@pytest.mark.parametrize(
    "leaf,start,value",
    [
        (cart, INITIATING_PAYMENT, PAY),
        (payment_status, PAYMENT_PENDING, COMPLETED),
        (shipping, SHIPPING, ShippingCommand.StartShipping),
        (shipping_info, DELIVERED_INFO, ShippingEvent.ShippingDelivered),
    ],
)
def test_table_leaf_stay_keeps_its_state_object(leaf, start, value):
    # a stay allocates no new state: the step path depends on it for speed
    machine = replace(leaf().machine, state=MachineState(start))
    _, stepped = machine.step(value)
    assert stepped.state is machine.state


def test_a_table_row_the_topology_forbids_fails_at_build():
    # a -> c skips b: the table is refused when it is built, before any input reaches the row
    table = {("a", "go"): (("went",), "b"), ("a", "jump"): ((), "c")}
    with pytest.raises(DisallowedTransition) as caught:
        _table_machine("skipper", _chain("a", "b", "c"), "a", table)
    error = caught.value
    assert (error.machine, error.source, error.target) == ("skipper", "a", "c")
    del table[("a", "jump")]
    _table_machine("skipper", _chain("a", "b", "c"), "a", table)  # every other row builds


def test_cart_and_shipping_pay_starts_shipping():
    assert run_trace(cart_and_shipping(), [Left(PAY)]) == [
        [
            Left(CartView.PaymentInProgress),
            Left(CartView.PaymentDone),
            Right(ShippingInfo.InTransit),
        ]
    ]


def test_cart_and_shipping_direct_shipping_command():
    assert run_trace(cart_and_shipping(), [Right(ShippingCommand.StartShipping)]) == [
        [Right(ShippingInfo.InTransit)]
    ]


def test_cart_and_shipping_ignores_premature_delivery():
    assert run_trace(cart_and_shipping(), [Right(ShippingCommand.MarkAsDelivered)]) == [[]]


def test_cart_and_shipping_full_lifecycle():
    outputs = run_trace(
        cart_and_shipping(),
        [Left(PAY), Right(ShippingCommand.MarkAsDelivered), Left(PAY)],
    )
    assert outputs == [
        [
            Left(CartView.PaymentInProgress),
            Left(CartView.PaymentDone),
            Right(ShippingInfo.InTransit),
        ],
        [Right(ShippingInfo.Delivered)],
        [],
    ]


commands = st.lists(st.sampled_from(list(CartCommand)), max_size=25)


@given(commands)
def test_cart_never_hits_a_disallowed_transition(trace):
    run_trace(cart(), trace)  # would raise TraceError on a violation


@given(commands)
def test_whole_cart_domain_views_are_monotone(trace):
    outputs = run_trace(whole_cart_domain(), trace)
    flat = [view for batch in outputs for view in batch]
    # progress is a prefix of InProgress -> Done, never repeated or reordered
    assert flat in (
        [],
        [CartView.PaymentInProgress],
        [CartView.PaymentInProgress, CartView.PaymentDone],
    )


@given(commands)
def test_pay_cart_is_idempotent_after_success(trace):
    machine = whole_cart_domain()
    _, machine = machine.step(PAY)
    for command in trace:
        output, machine = machine.step(PAY)
        assert output == []


def test_shipping_commands_do_not_disturb_cart_outputs():
    rng = random.Random(77)
    cart_inputs = [rng.choice([PAY, MARK]) for _ in range(12)]
    ship_inputs = [
        rng.choice(list(ShippingCommand)) for _ in range(6)
    ]

    plain = run_trace(cart_and_shipping(), [Left(c) for c in cart_inputs])

    mixed_inputs = []
    ship_iter = iter(ship_inputs)
    for index, command in enumerate(cart_inputs):
        if index % 2 == 0:
            try:
                mixed_inputs.append(Right(next(ship_iter)))
            except StopIteration:
                pass
        mixed_inputs.append(Left(command))
    mixed = run_trace(cart_and_shipping(), mixed_inputs)

    def cart_side(outputs, inputs):
        return [
            [item for item in batch if isinstance(item, Left)]
            for batch, value in zip(outputs, inputs)
            if isinstance(value, Left)
        ]

    assert cart_side(mixed, mixed_inputs) == cart_side(plain, [Left(c) for c in cart_inputs])
