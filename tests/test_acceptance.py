"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the report lines. Every
expected value here was either taken from the domain's defining tables or
derived by hand-walking the composition trees; the derivations are recorded
as comments next to the assertions they justify.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
from dataclasses import replace

import pytest

import dotparse
from crem import (
    Basic,
    DisallowedTransition,
    Feedback,
    FeedbackOverflow,
    Kleisli,
    Left,
    MachineState,
    Right,
    RunConfig,
    Sequential,
    StepResult,
    BaseMachine,
    Topology,
    identity_machine,
    render_base,
    render_flow,
    run_trace,
    stateless,
)
from crem import cart as domain
from crem import cli
from crem.cart import (
    CART_TOPOLOGY,
    INITIATING_PAYMENT,
    PAYMENT_COMPLETE,
    WAITING_FOR_PAYMENT,
    CartCommand,
    CartEvent,
    CartView,
    ShippingInfo,
)

PAY = CartCommand.PayCart
MARK = CartCommand.MarkCartAsPaid
INITIATED = CartEvent.CartPaymentInitiated
COMPLETED = CartEvent.CartPaymentCompleted


def report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def fresh_cart_base() -> BaseMachine:
    tree = domain.cart()
    assert isinstance(tree, Basic)
    return tree.machine


# --- criterion 1: the cart action table, all six rows, exhaustively ---------

CART_ROWS = [
    (WAITING_FOR_PAYMENT, PAY, [INITIATED], INITIATING_PAYMENT),
    (WAITING_FOR_PAYMENT, MARK, [], WAITING_FOR_PAYMENT),
    (INITIATING_PAYMENT, PAY, [], INITIATING_PAYMENT),
    (INITIATING_PAYMENT, MARK, [COMPLETED], PAYMENT_COMPLETE),
    (PAYMENT_COMPLETE, PAY, [], PAYMENT_COMPLETE),
    (PAYMENT_COMPLETE, MARK, [], PAYMENT_COMPLETE),
]


def test_criterion_1_cart_action_table():
    def check():
        base = fresh_cart_base()
        seen = set()
        for start, command, events, end in CART_ROWS:
            machine = replace(base, state=MachineState(start))
            output, stepped = machine.step(command)
            assert output == events, (start, command)
            assert stepped.state.vertex == end, (start, command)
            seen.add((start, command))
        # all six (state, command) pairs covered, no more exist
        assert len(seen) == 6
        assert len(CART_TOPOLOGY.vertices()) * len(CartCommand) == 6

    report(1, "cart action table reproduces exactly (six rows)", check)


# --- criterion 2: topology enforcement ---------------------------------------


def test_criterion_2_topology_enforcement():
    def check():
        # buggy machine: jumps PaymentComplete -> WaitingForPayment, an edge
        # cartTopology does not contain
        def buggy_action(state: MachineState, command: CartCommand) -> StepResult:
            if state.vertex == PAYMENT_COMPLETE and command is PAY:
                return StepResult([], MachineState(WAITING_FOR_PAYMENT))
            return StepResult([], state)

        buggy = BaseMachine(
            "buggyCart", CART_TOPOLOGY, MachineState(PAYMENT_COMPLETE), buggy_action
        )
        with pytest.raises(DisallowedTransition) as err:
            buggy.step(PAY)
        assert err.value.machine == "buggyCart"
        assert err.value.source == PAYMENT_COMPLETE
        assert err.value.target == WAITING_FOR_PAYMENT
        assert PAYMENT_COMPLETE in str(err.value)
        assert WAITING_FOR_PAYMENT in str(err.value)

        # the legal cart never raises: exhaustive closure over 3 states x 2 inputs
        base = fresh_cart_base()
        visited: set[str] = set()
        frontier = [base.state.vertex]
        while frontier:
            vertex = frontier.pop()
            if vertex in visited:
                continue
            visited.add(vertex)
            for command in CartCommand:
                _, stepped = replace(base, state=MachineState(vertex)).step(command)
                frontier.append(stepped.state.vertex)
        assert visited == {WAITING_FOR_PAYMENT, INITIATING_PAYMENT, PAYMENT_COMPLETE}

    report(2, "disallowed edge raises, legal cart never does", check)


# --- criterion 3: allowed-transition semantics vs brute force ----------------


def test_criterion_3_allowed_transition_semantics():
    def check():
        rng = random.Random(8301)
        checked = 0
        for _ in range(500):
            vertex_count = rng.randint(1, 8)
            labels = [f"v{i}" for i in range(vertex_count)]
            pairs = [
                (rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randint(0, 20))
            ]
            groups = [(source, (target,)) for source, target in pairs]
            for label in labels:
                if rng.random() < 0.3:
                    groups.append((label, ()))
            rng.shuffle(groups)
            topology = Topology(tuple(groups))

            edge_set = set(pairs)  # brute-force membership oracle
            candidates = labels + ["foreign"]
            for vertex in candidates:
                assert topology.allows(vertex, vertex)  # reflexivity
            for _ in range(6):
                a, b = rng.choice(candidates), rng.choice(candidates)
                if a == b:
                    continue
                assert topology.allows(a, b) == ((a, b) in edge_set), (a, b, pairs)
                checked += 1
        assert checked >= 500

    report(3, "reflexivity and brute-force edge membership on random topologies", check)


# --- criterion 4: composition laws on random traces --------------------------


def _random_int_machine(rng: random.Random, name: str) -> Basic:
    table = tuple(rng.randrange(-50, 50) for _ in range(5))
    return Basic(stateless(name, lambda x, t=table: t[x % 5]))


def _random_list_machine(rng: random.Random, name: str) -> Basic:
    table = tuple(
        tuple(rng.randrange(-50, 50) for _ in range(rng.randrange(0, 4)))
        for _ in range(5)
    )
    return Basic(stateless(name, lambda x, t=table: list(t[x % 5])))


def _random_event_list_machine(rng: random.Random, name: str) -> Basic:
    table = {
        event: tuple(rng.randrange(-50, 50) for _ in range(rng.randrange(0, 4)))
        for event in CartEvent
    }
    return Basic(stateless(name, lambda event, t=table: list(t[event])))


def test_criterion_4_composition_laws():
    def check():
        rng = random.Random(41904)
        comparisons = 0

        def same(left_factory, right_factory, trace):
            nonlocal comparisons
            assert run_trace(left_factory(), trace) == run_trace(right_factory(), trace)
            comparisons += 1

        def int_trace():
            return [rng.randrange(0, 1000) for _ in range(rng.randrange(0, 21))]

        def command_trace():
            return [rng.choice(list(CartCommand)) for _ in range(rng.randrange(0, 21))]

        unit = lambda: Basic(stateless("unit", lambda x: [x]))

        for _ in range(30):
            # draw each random machine once per round; values are immutable,
            # so reusing one on both sides of a law still starts it fresh
            m = _random_int_machine(rng, "m")
            f = _random_int_machine(rng, "f")
            g = _random_int_machine(rng, "g")
            h = _random_int_machine(rng, "h")
            k = _random_list_machine(rng, "k")
            ka = _random_list_machine(rng, "ka")
            kb = _random_list_machine(rng, "kb")
            kc = _random_list_machine(rng, "kc")
            ke = _random_event_list_machine(rng, "ke")
            count_events = Basic(stateless("count", len))

            # Sequential identities, over a random machine and over the cart
            same(lambda: Sequential(identity_machine("id"), m), lambda: m, int_trace())
            same(lambda: Sequential(m, identity_machine("id")), lambda: m, int_trace())
            same(lambda: Sequential(identity_machine("id"), domain.cart()), domain.cart, command_trace())
            same(lambda: Sequential(domain.cart(), identity_machine("id")), domain.cart, command_trace())

            # Sequential associativity
            same(
                lambda: Sequential(Sequential(f, g), h),
                lambda: Sequential(f, Sequential(g, h)),
                int_trace(),
            )
            same(
                lambda: Sequential(Sequential(domain.cart(), count_events), h),
                lambda: Sequential(domain.cart(), Sequential(count_events, h)),
                command_trace(),
            )

            # Kleisli unit laws
            same(lambda: Kleisli(unit(), k), lambda: k, int_trace())
            same(lambda: Kleisli(k, unit()), lambda: k, int_trace())
            same(lambda: Kleisli(unit(), domain.cart()), domain.cart, command_trace())
            same(lambda: Kleisli(domain.cart(), unit()), domain.cart, command_trace())

            # Kleisli associativity
            same(
                lambda: Kleisli(Kleisli(ka, kb), kc),
                lambda: Kleisli(ka, Kleisli(kb, kc)),
                int_trace(),
            )
            same(
                lambda: Kleisli(Kleisli(domain.cart(), ke), kc),
                lambda: Kleisli(domain.cart(), Kleisli(ke, kc)),
                command_trace(),
            )

        assert comparisons >= 200

    report(4, "category and Kleisli laws hold on random traces", check)


# --- criterion 5: whole cart domain oracle trace ------------------------------
#
# Hand trace for inputs [PayCart, PayCart, MarkCartAsPaid]:
#
#   PayCart #1. The write loop starts by running the cart: at
#   WaitingForPayment, PayCart emits [CartPaymentInitiated] and moves to
#   InitiatingPayment. The loop hands CartPaymentInitiated to the gateway,
#   which answers [MarkCartAsPaid]; the cart, now at InitiatingPayment,
#   emits [CartPaymentCompleted] and moves to PaymentComplete. The loop
#   hands CartPaymentCompleted to the gateway, which answers []. Loop
#   output, in production order: [CartPaymentInitiated,
#   CartPaymentCompleted]. The Kleisli stage folds both events through the
#   payment-status projection: Pending --CartPaymentInitiated--> InProgress
#   emitting PaymentInProgress, then InProgress --CartPaymentCompleted-->
#   Done emitting PaymentDone. First output: [PaymentInProgress,
#   PaymentDone].
#
#   PayCart #2. The cart is now at PaymentComplete, where PayCart emits []
#   and stays put. Nothing enters the loop queue, so the loop yields [] and
#   the projection sees no events. Second output: [].
#
#   MarkCartAsPaid. Same story: at PaymentComplete the cart emits [].
#   Third output: [].


def test_criterion_5_whole_cart_domain_trace():
    def check():
        outputs = run_trace(domain.whole_cart_domain(), [PAY, PAY, MARK])
        assert outputs == [
            [CartView.PaymentInProgress, CartView.PaymentDone],
            [],
            [],
        ]

    report(5, "whole cart domain reproduces the hand-traced outputs", check)


# --- criterion 6: cart-and-shipping oracle trace ------------------------------
#
# Hand trace for inputs [Left PayCart, Right MarkAsDelivered], walking the
# tree Kleisli(Feedback(writeModelWithShipping, policySide), readModel):
#
#   Left PayCart. writeModelWithShipping routes the Left to the cart write
#   loop, which (exactly as in criterion 5) produces [CartPaymentInitiated,
#   CartPaymentCompleted]; the merge stage tags them, so the outer loop's
#   first batch is [Left CartPaymentInitiated, Left CartPaymentCompleted].
#   The outer loop now feeds that batch to the policy side:
#     - Left CartPaymentInitiated: the payment-complete policy answers [],
#       nothing is re-injected.
#     - Left CartPaymentCompleted: the policy answers [StartShipping],
#       wrapped as [Right StartShipping]. Re-injecting Right StartShipping
#       into writeModelWithShipping routes it to the shipping aggregate:
#       NotShipped --StartShipping--> Shipping emitting [ShippingStarted],
#       tagged as [Right ShippingStarted] and appended to the batch.
#     - Right ShippingStarted: the policy side maps shipping events to [],
#       so the loop settles.
#   Outer loop output, in production order: [Left CartPaymentInitiated,
#   Left CartPaymentCompleted, Right ShippingStarted]. The read model folds
#   each element: the two cart events drive the payment projection
#   (PaymentInProgress, then PaymentDone, tagged Left) and ShippingStarted
#   drives the shipping projection NotShipped -> InTransit (tagged Right).
#   First output: [Left PaymentInProgress, Left PaymentDone,
#   Right InTransit].
#
#   Right MarkAsDelivered. The shipping aggregate is already at Shipping
#   (the policy-injected StartShipping moved it), so MarkAsDelivered emits
#   [ShippingDelivered] and moves to Delivered. The policy side ignores
#   shipping events, so the loop settles with [Right ShippingDelivered].
#   The read model folds it through the shipping projection: InTransit
#   --ShippingDelivered--> Delivered emitting Delivered, tagged Right.
#   Second output: [Right Delivered].


def test_criterion_6_cart_and_shipping_trace():
    def check():
        outputs = run_trace(
            domain.cart_and_shipping(),
            [Left(PAY), Right(domain.ShippingCommand.MarkAsDelivered)],
        )
        assert outputs == [
            [
                Left(CartView.PaymentInProgress),
                Left(CartView.PaymentDone),
                Right(ShippingInfo.InTransit),
            ],
            [Right(ShippingInfo.Delivered)],
        ]

    report(6, "cart-and-shipping reproduces the hand-traced outputs", check)


# --- criterion 7: feedback guard ----------------------------------------------


def test_criterion_7_feedback_guard(tmp_path, monkeypatch, capsys):
    def check():
        # ping-pong pair: forward echoes [x], backward echoes [x]; the loop
        # never settles, so the budget is the only thing that stops it
        for cap in (1, 7, 50):
            steps = []
            ping = Basic(stateless("ping", lambda x: (steps.append("f"), [x])[1]))
            pong = Basic(stateless("pong", lambda x: (steps.append("b"), [x])[1]))
            with pytest.raises(FeedbackOverflow) as err:
                Feedback(ping, pong).step(0, RunConfig(feedback_cap=cap))
            assert err.value.cap == cap
            assert len(steps) == cap  # overflow at exactly the configured cap

        # the cap is honored from the CLI flag and from the environment.
        # One PayCart needs exactly 4 loop iterations (cart, gateway, cart,
        # gateway), so cap 3 overflows and cap 4 does not.
        commands = tmp_path / "commands.txt"
        commands.write_text("PayCart\n", encoding="utf-8")
        run = ["run", "whole-cart-domain", "--input", str(commands)]

        assert cli.main(run + ["--feedback-cap", "3"]) == cli.EXIT_FEEDBACK
        assert cli.main(run + ["--feedback-cap", "4"]) == cli.EXIT_OK

        monkeypatch.setenv(cli.ENV_FEEDBACK_CAP, "3")
        assert cli.main(run) == cli.EXIT_FEEDBACK
        assert cli.main(run + ["--feedback-cap", "1000"]) == cli.EXIT_OK  # flag wins
        capsys.readouterr()

    report(7, "feedback overflow at exactly the cap; cap honored from flag and env", check)


# --- criterion 8: rendering ----------------------------------------------------


def _parse_with_graphviz_tooling(text: str) -> str:
    dot = shutil.which("dot")
    if dot is not None:
        subprocess.run(
            [dot, "-Tcanon", "-o", "/dev/null"],
            input=text.encode("utf-8"),
            check=True,
        )
        return "graphviz"
    try:
        import pydot
    except ImportError:
        pydot = None
    if pydot is not None:
        graphs = pydot.graph_from_dot_data(text)
        assert graphs, "pydot found no graph"
        return "pydot"
    # no Graphviz tooling in this environment: fall back to the in-suite
    # validating parser for the published DOT grammar
    dotparse.parse_dot(text)
    return "grammar checker"


def test_criterion_8_rendering():
    def check():
        # byte-identical across two independent constructions and renders
        base_a = render_base(fresh_cart_base(), "dot")
        base_b = render_base(fresh_cart_base(), "dot")
        assert base_a.text == base_b.text
        flow_a = render_flow(domain.whole_cart_domain(), "dot")
        flow_b = render_flow(domain.whole_cart_domain(), "dot")
        assert flow_a.text == flow_b.text

        lines = flow_a.text.splitlines()
        clusters = [line for line in lines if "subgraph" in line]
        assert len(clusters) == 3  # cart, paymentGateway, paymentStatus
        assert any("cluster_cart" in line for line in clusters)
        assert any("cluster_paymentGateway" in line for line in clusters)
        assert any("cluster_paymentStatus" in line for line in clusters)

        into = lambda cluster: [
            line
            for line in lines
            if f'lhead="{cluster}"' in line and "->" in line
        ]
        outof = lambda cluster: [
            line
            for line in lines
            if f'ltail="{cluster}"' in line and "->" in line
        ]
        # one edge pair cart <-> gateway, one edge into the projection
        assert len(into("cluster_paymentGateway")) == 1
        assert len(outof("cluster_paymentGateway")) == 1
        assert len(into("cluster_paymentStatus")) == 1
        assert len(outof("cluster_cart")) == 2  # loop edge + kleisli edge

        tool = _parse_with_graphviz_tooling(base_a.text)
        tool_flow = _parse_with_graphviz_tooling(flow_a.text)
        print(f"        (DOT parsed by: {tool}, {tool_flow})")

    report(8, "diagrams deterministic, structurally right, and parseable DOT", check)


# --- criterion 9: replay round-trip --------------------------------------------


def test_criterion_9_replay_round_trip(tmp_path, capsys):
    def check():
        rng = random.Random(5150)
        vocabulary = [
            "cart PayCart",
            "cart MarkCartAsPaid",
            "ship StartShipping",
            "ship MarkAsDelivered",
        ]
        commands = tmp_path / "commands.txt"
        commands.write_text(
            "".join(rng.choice(vocabulary) + "\n" for _ in range(50)),
            encoding="utf-8",
        )
        log = tmp_path / "events.jsonl"

        assert (
            cli.main(
                ["run", "cart-and-shipping", "--input", str(commands), "--log", str(log)]
            )
            == cli.EXIT_OK
        )
        assert cli.main(["replay", "cart-and-shipping", "--log", str(log)]) == cli.EXIT_OK

        # corrupt one logged output and replay again
        records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 50
        records[23]["outputs"] = records[23]["outputs"] + ["ship InTransit"]
        log.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert cli.main(["replay", "cart-and-shipping", "--log", str(log)]) == cli.EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "23" in out

    report(9, "run-with-log replays cleanly; corruption is caught at the right seq", check)
