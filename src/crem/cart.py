"""Reference shopping-cart domain: aggregates, policies and projections.

The write side validates commands and emits events, policies react to
events with new commands, and projections fold events into the views a
user would query. Everything is a machine, so the whole domain is one
composed machine from commands to views. Aggregates and projections are
written down as a topology plus a transition table, policies as a dict
from event to commands. ``registry`` names the runnable machines with
their text codecs.
"""

from __future__ import annotations

from enum import Enum

from .compose import (
    Alternative,
    Basic,
    Feedback,
    Kleisli,
    Left,
    Right,
    StateMachine,
    fanin,
    rmap,
)
from .eventlog import CodecError, RegistryEntry
from .machine import BaseMachine, DisallowedTransition, MachineState, stateless
from .topology import Topology


class CartCommand(Enum):
    PayCart = "PayCart"
    MarkCartAsPaid = "MarkCartAsPaid"


class CartEvent(Enum):
    CartPaymentInitiated = "CartPaymentInitiated"
    CartPaymentCompleted = "CartPaymentCompleted"


class CartView(Enum):
    PaymentPending = "PaymentPending"
    PaymentInProgress = "PaymentInProgress"
    PaymentDone = "PaymentDone"


class ShippingCommand(Enum):
    StartShipping = "StartShipping"
    MarkAsDelivered = "MarkAsDelivered"


class ShippingEvent(Enum):
    ShippingStarted = "ShippingStarted"
    ShippingDelivered = "ShippingDelivered"


class ShippingInfo(Enum):
    NotShipped = "NotShipped"
    InTransit = "InTransit"
    Delivered = "Delivered"


def _chain(*vertices: str) -> Topology:
    """Topology ``a -> b -> ... -> z``: each vertex moves only to the next."""
    steps = tuple((source, (target,)) for source, target in zip(vertices, vertices[1:]))
    return Topology(steps + ((vertices[-1], ()),))


def _table_machine(name: str, topology: Topology, initial: str, table: dict) -> StateMachine:
    """Leaf whose action looks ``(vertex, input)`` up as ``(outputs, next vertex)``.

    A pair the table does not list outputs ``[]`` and stays put. A stay
    returns the same state object, so the leaf and every node above it
    return themselves too: a stay builds no tree node, though each step still
    makes a new output list. Every row's move is checked against the topology
    here, so a row the topology forbids raises ``DisallowedTransition`` when
    the leaf is built, not when an input first reaches it.
    """
    for (source, _), (_, target) in table.items():
        if not topology.allows(source, target):
            raise DisallowedTransition(name, source, target)

    def act(state: MachineState, value) -> tuple[list, MachineState]:
        outputs, vertex = table.get((state.vertex, value), ((), state.vertex))
        if vertex != state.vertex:
            state = MachineState(vertex)
        return list(outputs), state

    return Basic(BaseMachine(name, topology, MachineState(initial), act))


def _policy(name: str, replies: dict) -> StateMachine:
    """Stateless leaf that answers each event from ``replies``, others with ``[]``."""
    return Basic(stateless(name, lambda event: list(replies.get(event, ()))))


WAITING_FOR_PAYMENT = "WaitingForPaymentVertex"
INITIATING_PAYMENT = "InitiatingPaymentVertex"
PAYMENT_COMPLETE = "PaymentCompleteVertex"

CART_TOPOLOGY = _chain(WAITING_FOR_PAYMENT, INITIATING_PAYMENT, PAYMENT_COMPLETE)

# a command the cart cannot act on in its vertex is not listed, so it emits nothing
_CART_TABLE: dict[tuple[str, CartCommand], tuple[tuple[CartEvent, ...], str]] = {
    (WAITING_FOR_PAYMENT, CartCommand.PayCart): (
        (CartEvent.CartPaymentInitiated,),
        INITIATING_PAYMENT,
    ),
    (INITIATING_PAYMENT, CartCommand.MarkCartAsPaid): (
        (CartEvent.CartPaymentCompleted,),
        PAYMENT_COMPLETE,
    ),
}


def cart() -> StateMachine:
    """The cart aggregate: validates payment commands, emits cart events."""
    return _table_machine("cart", CART_TOPOLOGY, WAITING_FOR_PAYMENT, _CART_TABLE)


def payment_gateway(always_fail: bool = False) -> StateMachine:
    """Simulated gateway policy: confirms initiated payments.

    ``always_fail`` models an outage where the gateway never confirms.
    """
    replies = {CartEvent.CartPaymentInitiated: (CartCommand.MarkCartAsPaid,)}
    return _policy("paymentGateway", {} if always_fail else replies)


PAYMENT_PENDING = "Pending"
PAYMENT_IN_PROGRESS = "InProgress"
PAYMENT_DONE = "Done"

PAYMENT_STATUS_TOPOLOGY = _chain(PAYMENT_PENDING, PAYMENT_IN_PROGRESS, PAYMENT_DONE)

# out-of-order events are not listed, so they are ignored
_PAYMENT_STATUS_TABLE = {
    (PAYMENT_PENDING, CartEvent.CartPaymentInitiated): (
        (CartView.PaymentInProgress,),
        PAYMENT_IN_PROGRESS,
    ),
    (PAYMENT_IN_PROGRESS, CartEvent.CartPaymentCompleted): (
        (CartView.PaymentDone,),
        PAYMENT_DONE,
    ),
}


def payment_status() -> StateMachine:
    """Projection folding cart events into the payment progress view."""
    return _table_machine(
        "paymentStatus", PAYMENT_STATUS_TOPOLOGY, PAYMENT_PENDING, _PAYMENT_STATUS_TABLE
    )


def whole_cart_domain() -> StateMachine:
    """Commands in, views out: the full cart payment loop."""
    return Kleisli(Feedback(cart(), payment_gateway()), payment_status())


NOT_SHIPPED = "NotShippedV"
SHIPPING = "ShippingV"
DELIVERED = "DeliveredV"

SHIPPING_TOPOLOGY = _chain(NOT_SHIPPED, SHIPPING, DELIVERED)

_SHIPPING_TABLE = {
    (NOT_SHIPPED, ShippingCommand.StartShipping): (
        (ShippingEvent.ShippingStarted,),
        SHIPPING,
    ),
    (SHIPPING, ShippingCommand.MarkAsDelivered): (
        (ShippingEvent.ShippingDelivered,),
        DELIVERED,
    ),
}


def shipping() -> StateMachine:
    """The shipping aggregate: start and deliver a shipment."""
    return _table_machine("shipping", SHIPPING_TOPOLOGY, NOT_SHIPPED, _SHIPPING_TABLE)


def payment_complete_policy() -> StateMachine:
    """Policy that starts shipping whenever a payment completes."""
    return _policy(
        "paymentCompletePolicy",
        {CartEvent.CartPaymentCompleted: (ShippingCommand.StartShipping,)},
    )


NOT_SHIPPED_INFO = "NotShippedI"
IN_TRANSIT_INFO = "InTransitI"
DELIVERED_INFO = "DeliveredI"

SHIPPING_INFO_TOPOLOGY = _chain(NOT_SHIPPED_INFO, IN_TRANSIT_INFO, DELIVERED_INFO)

_SHIPPING_INFO_TABLE = {
    (NOT_SHIPPED_INFO, ShippingEvent.ShippingStarted): (
        (ShippingInfo.InTransit,),
        IN_TRANSIT_INFO,
    ),
    (IN_TRANSIT_INFO, ShippingEvent.ShippingDelivered): (
        (ShippingInfo.Delivered,),
        DELIVERED_INFO,
    ),
}


def shipping_info() -> StateMachine:
    """Projection folding shipping events into the delivery status view."""
    return _table_machine(
        "shippingInfo", SHIPPING_INFO_TOPOLOGY, NOT_SHIPPED_INFO, _SHIPPING_INFO_TABLE
    )


def _tag_sides(branch):
    """Push the branch tag (an Alternative's Left or Right) inside its list of messages."""
    return [type(branch)(item) for item in branch.value]


def _wrap_right(items):
    return [Right(item) for item in items]


def cart_and_shipping() -> StateMachine:
    """Cart and shipping write models plus both projections, wired together.

    The payment-complete policy closes the loop between the two aggregates:
    completing a payment injects a StartShipping command.
    """
    write_model = Feedback(cart(), payment_gateway())
    write_with_shipping = rmap(
        Alternative(write_model, shipping()), _tag_sides, name="mergeWriteEvents"
    )
    start_on_payment = rmap(
        payment_complete_policy(), _wrap_right, name="routeShippingCommands"
    )
    policy_side = fanin(
        start_on_payment,
        Basic(stateless("ignoreShippingEvents", lambda _event: [])),
        name="mergePolicyOutput",
    )
    write_model_full = Feedback(write_with_shipping, policy_side)
    read_model = rmap(
        Alternative(payment_status(), shipping_info()), _tag_sides, name="mergeViews"
    )
    return Kleisli(write_model_full, read_model)


def _enum_decoder(enum_cls, wrap=None):
    # the map enum_cls[name] reads, snapshot once: a dict lookup, not a call into EnumType;
    # with wrap, each member is wrapped once, so a name always decodes to one object
    members = {name: wrap(member) if wrap else member
               for name, member in enum_cls.__members__.items()}

    def decode(text: str):
        name = text.strip()
        try:
            return members[name]
        except KeyError:
            raise CodecError(f"{name!r} is not a {enum_cls.__name__}") from None

    return decode


def _encode_enum(value) -> str:
    return value._name_  # the documented attribute the .name property reads, without its call


_SIDES = {
    "cart": (Left, _enum_decoder(CartCommand, Left)),
    "ship": (Right, _enum_decoder(ShippingCommand, Right)),
}


def _decode_side(text: str):
    parts = text.split()
    if len(parts) != 2 or parts[0] not in _SIDES:
        raise CodecError(
            f"expected 'cart <CartCommand>' or 'ship <ShippingCommand>', got {text.strip()!r}"
        )
    return _SIDES[parts[0]][1](parts[1])


def _encode_side(value) -> str:
    for tag, (wrapper, _) in _SIDES.items():
        if isinstance(value, wrapper):
            return f"{tag} {value.value._name_}"
    raise CodecError(f"cannot encode {value!r}")


def registry() -> dict[str, RegistryEntry]:
    """The domain's runnable machines by name, with the text codecs of their commands and
    outputs: an enum member's name, tagged ``cart`` or ``ship`` on ``cart-and-shipping``."""

    def enum_coded(factory, enum_cls) -> RegistryEntry:
        return RegistryEntry(factory, _enum_decoder(enum_cls), _encode_enum, _encode_enum)

    return {
        "cart": enum_coded(cart, CartCommand),
        "shipping": enum_coded(shipping, ShippingCommand),
        "whole-cart-domain": enum_coded(whole_cart_domain, CartCommand),
        "cart-and-shipping": RegistryEntry(
            cart_and_shipping, _decode_side, _encode_side, _encode_side
        ),
    }
