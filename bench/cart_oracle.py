"""Plain transition tables for the registered cart domains.

An oracle for ``crem run`` output that shares no code with crem: each
machine is a dict from ``(vertex, message)`` to ``(outputs, next vertex)``,
and the two registered compositions are spelled out as ordinary loops with
the same breadth-first feedback order the CLI documents.
"""

from __future__ import annotations

from collections import deque

CART = {
    ("waiting", "PayCart"): (["CartPaymentInitiated"], "initiating"),
    ("waiting", "MarkCartAsPaid"): ([], "waiting"),
    ("initiating", "PayCart"): ([], "initiating"),
    ("initiating", "MarkCartAsPaid"): (["CartPaymentCompleted"], "complete"),
    ("complete", "PayCart"): ([], "complete"),
    ("complete", "MarkCartAsPaid"): ([], "complete"),
}
GATEWAY = {"CartPaymentInitiated": ["MarkCartAsPaid"], "CartPaymentCompleted": []}
PAYMENT_STATUS = {
    ("pending", "CartPaymentInitiated"): (["PaymentInProgress"], "inProgress"),
    ("inProgress", "CartPaymentCompleted"): (["PaymentDone"], "done"),
}
SHIPPING = {
    ("notShipped", "StartShipping"): (["ShippingStarted"], "shipping"),
    ("shipping", "MarkAsDelivered"): (["ShippingDelivered"], "delivered"),
}
SHIPPING_INFO = {
    ("notShipped", "ShippingStarted"): (["InTransit"], "inTransit"),
    ("inTransit", "ShippingDelivered"): (["Delivered"], "delivered"),
}
PAYMENT_COMPLETE_POLICY = {"CartPaymentCompleted": ["StartShipping"], "CartPaymentInitiated": []}


def _move(table, state: dict, machine: str, message: str) -> list[str]:
    """Step one table machine; pairs missing from a table leave it in place."""
    outputs, state[machine] = table.get((state[machine], message), ([], state[machine]))
    return list(outputs)


class _Oracle:
    def __init__(self) -> None:
        self.state = {
            "cart": "waiting",
            "paymentStatus": "pending",
            "shipping": "notShipped",
            "shippingInfo": "notShipped",
        }

    def _cart_loop(self, command: str) -> list[str]:
        """Feedback(cart, paymentGateway): cart events in production order."""
        events = _move(CART, self.state, "cart", command)
        pending = deque(events)
        while pending:
            for reaction in GATEWAY[pending.popleft()]:
                produced = _move(CART, self.state, "cart", reaction)
                events.extend(produced)
                pending.extend(produced)
        return events


class WholeCartDomain(_Oracle):
    """Kleisli(Feedback(cart, paymentGateway), paymentStatus)."""

    def step(self, command: str) -> list[str]:
        views = []
        for event in self._cart_loop(command):
            views.extend(_move(PAYMENT_STATUS, self.state, "paymentStatus", event))
        return views


class CartAndShipping(_Oracle):
    """The two aggregates, the payment-complete policy and both projections."""

    def _write(self, side: str, command: str) -> list[tuple[str, str]]:
        if side == "cart":
            return [("cart", event) for event in self._cart_loop(command)]
        return [("ship", event) for event in _move(SHIPPING, self.state, "shipping", command)]

    def step(self, line: str) -> list[str]:
        side, command = line.split()
        collected = self._write(side, command)
        pending = deque(collected)
        while pending:
            tag, event = pending.popleft()
            if tag == "cart":
                for reaction in PAYMENT_COMPLETE_POLICY[event]:
                    produced = self._write("ship", reaction)
                    collected.extend(produced)
                    pending.extend(produced)
        views = []
        for tag, event in collected:
            if tag == "cart":
                views += ["cart " + v for v in _move(PAYMENT_STATUS, self.state, "paymentStatus", event)]
            else:
                views += ["ship " + v for v in _move(SHIPPING_INFO, self.state, "shippingInfo", event)]
        return views


ORACLES = {"whole-cart-domain": WholeCartDomain, "cart-and-shipping": CartAndShipping}
COMMANDS = {
    "whole-cart-domain": ("PayCart", "MarkCartAsPaid"),
    "cart-and-shipping": (
        "cart PayCart", "cart MarkCartAsPaid", "ship StartShipping", "ship MarkAsDelivered"),
}


def printed(outputs: list[str]) -> str:
    """The line ``crem run`` prints for one input."""
    return "[" + ", ".join(outputs) + "]"
