"""Resuming an event log from its sidecar manifest, ``LOG.crem``.

A ``run --log`` leaves a manifest beside the log: the machine, a topology
fingerprint, how many records and bytes it checked or wrote, their sha256,
and the leaf vertices after them. A later ``run`` that finds the manifest
matching re-steps only the records after it. These tests pin that down
with a counting wrapper on ``BaseMachine.step`` instead of timings, show
with a Hypothesis state machine that any split of the commands into runs
leaves the bytes one unsplit run leaves, and show that every damaged or
foreign manifest falls back to the full check of the log.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from crem import (
    DEFAULT_CONFIG,
    Alternative,
    Basic,
    BaseMachine,
    Feedback,
    Kleisli,
    MachineState,
    Sequential,
    StateMachine,
    StepResult,
    Topology,
    cli,
    identity_machine,
    unrestricted_mealy,
)
from crem.cart import CartCommand, cart, cart_and_shipping, shipping, whole_cart_domain
from crem.compose import _fingerprint, _leaf_vertices, _restore_vertices

VOCABULARY = {
    "cart": ["PayCart", "MarkCartAsPaid"],
    "whole-cart-domain": ["PayCart", "MarkCartAsPaid"],
    "cart-and-shipping": [
        "cart PayCart",
        "cart MarkCartAsPaid",
        "ship StartShipping",
        "ship MarkAsDelivered",
    ],
}
SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_FEEDBACK_CAP, raising=False)


def call(*argv) -> tuple[int, str, str]:
    """``cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def run(machine, log, commands) -> tuple[int, str, str]:
    source = Path(log).with_name("commands.txt")
    source.write_text("".join(command + "\n" for command in commands), encoding="utf-8")
    return call("run", machine, "--input", source, "--log", log)


def manifest_of(log: Path) -> Path:
    return log.with_name(log.name + ".crem")


def commands_for(machine, count, seed=7) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(VOCABULARY[machine]) for _ in range(count)]


@pytest.fixture
def leaf_steps(monkeypatch):
    """Counts every ``BaseMachine.step``: ``leaf_steps[0]``."""
    counter = [0]
    original = BaseMachine.step

    def counting(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(BaseMachine, "step", counting)
    return counter


def steps_of(counter, tree, values) -> tuple[int, object]:
    """Leaf steps of stepping ``tree`` through ``values``, and the tree after them."""
    before = counter[0]
    for value in values:
        _, tree = tree.step(value)
    return counter[0] - before, tree


# -- the manifest --------------------------------------------------------------


def test_run_writes_a_manifest_beside_the_log(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("whole-cart-domain", log, ["PayCart"])[0] == 0
    manifest = json.loads(manifest_of(log).read_text(encoding="utf-8"))
    data = log.read_bytes()
    assert manifest["version"] == cli.MANIFEST_VERSION
    assert manifest["machine"] == "whole-cart-domain"
    assert manifest["records"] == 1
    assert manifest["bytes"] == len(data)
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
    _, tree = whole_cart_domain().step(CartCommand.PayCart)
    assert manifest["vertices"] == _leaf_vertices(tree)
    assert manifest["fingerprint"] == cli._fingerprint(whole_cart_domain())
    assert not manifest_of(log).with_name(manifest_of(log).name + ".tmp").exists()


def test_no_manifest_for_a_leaf_with_a_payload(tmp_path):
    def tally():
        return Basic(unrestricted_mealy("tally", 0, lambda n, _: ([n], n + 1)))

    registry = {"tally": cli.RegistryEntry(tally, str.strip, str, str)}
    log = tmp_path / "log.jsonl"
    source = tmp_path / "commands.txt"
    source.write_text("x\ny\n", encoding="utf-8")
    argv = ["run", "tally", "--input", str(source), "--log", str(log)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv, registry) == 0
        assert cli.main(argv, registry) == 0
    assert not manifest_of(log).exists()
    assert [json.loads(line)["seq"] for line in log.read_text().splitlines()] == [0, 1, 2, 3]


# -- resume re-steps only the tail ---------------------------------------------


@pytest.mark.parametrize("machine", ["whole-cart-domain", "cart-and-shipping"])
def test_resume_steps_only_what_the_manifest_does_not_cover(machine, tmp_path, leaf_steps):
    entry = cli.default_registry()[machine]
    commands = commands_for(machine, 1000)
    decoded = [entry.decode_input(command) for command in commands]
    new = VOCABULARY[machine][0]
    logged = tmp_path / "logged"
    logged.mkdir()
    log = logged / "log.jsonl"

    assert run(machine, log, commands[:400])[0] == 0
    stale = manifest_of(log).read_bytes()  # covers records 0..399
    assert run(machine, log, commands[400:])[0] == 0

    head, at_400 = steps_of(leaf_steps, entry.factory(), decoded[:400])
    tail, at_1000 = steps_of(leaf_steps, at_400, decoded[400:])
    one, _ = steps_of(leaf_steps, at_1000, [entry.decode_input(new)])
    assert 0 < one < tail

    def resume(manifest: bytes | None) -> tuple[int, tuple, bytes]:
        case = tmp_path / f"case-{len(list(tmp_path.iterdir()))}"
        shutil.copytree(logged, case)
        if manifest is None:
            manifest_of(case / "log.jsonl").unlink()
        else:
            manifest_of(case / "log.jsonl").write_bytes(manifest)
        before = leaf_steps[0]
        done = run(machine, case / "log.jsonl", [new])
        return leaf_steps[0] - before, done, (case / "log.jsonl").read_bytes()

    current = manifest_of(log).read_bytes()
    fresh_steps, fresh_done, fresh_bytes = resume(current)
    stale_steps, stale_done, stale_bytes = resume(stale)
    full_steps, full_done, full_bytes = resume(None)
    assert fresh_steps == one
    assert stale_steps == tail + one
    assert full_steps == head + tail + one
    assert fresh_done == stale_done == full_done
    assert fresh_done[0] == 0
    assert fresh_bytes == stale_bytes == full_bytes


def corrupted_manifests(log: Path) -> dict[str, bytes]:
    manifest = json.loads(manifest_of(log).read_bytes())
    mid_line = manifest["bytes"] - 2  # inside the last record, its sha256 matching

    def changed(**fields) -> bytes:
        return json.dumps({**manifest, **fields}).encode()

    return {
        "vertex-off-topology": changed(vertices=["Nowhere"] + manifest["vertices"][1:]),
        "vertex-missing": changed(vertices=manifest["vertices"][:-1]),
        "vertex-extra": changed(vertices=manifest["vertices"] + ["Done"]),
        "fingerprint": changed(fingerprint="0" * 64),
        "other-machine": changed(machine="cart"),
        "version": changed(version=cli.MANIFEST_VERSION + 1),
        "sha256": changed(sha256="0" * 64),
        "bytes-past-the-end": changed(bytes=manifest["bytes"] + 1),
        "bytes-mid-line": changed(
            bytes=mid_line, sha256=hashlib.sha256(log.read_bytes()[:mid_line]).hexdigest()
        ),
        "records-as-bool": changed(records=True),
        # the sha256 covers the bytes, not the count: a wrong count must not set the next seq
        "records-short": changed(records=manifest["records"] - 1),
        "records-long": changed(records=manifest["records"] + 1),
        "version-1": changed(version=1),  # the format whose fingerprint hashed the DOT diagram
        "unknown-field": changed(extra=1),
        "not-json": b"{not json",
        "not-utf-8": b"\xff\xfe",
        "a-list": b"[]",
        "empty": b"",
    }


@pytest.mark.parametrize("kind", [
    "vertex-off-topology", "vertex-missing", "vertex-extra", "fingerprint", "other-machine",
    "version", "sha256", "bytes-past-the-end", "bytes-mid-line", "records-as-bool",
    "records-short", "records-long", "version-1", "unknown-field", "not-json", "not-utf-8",
    "a-list", "empty",
])
def test_a_bad_manifest_falls_back_silently_to_the_full_check(kind, tmp_path, leaf_steps):
    machine = "whole-cart-domain"
    commands = commands_for(machine, 50)
    log = tmp_path / "log.jsonl"
    assert run(machine, log, commands)[0] == 0
    original = log.read_bytes()
    bad = corrupted_manifests(log)[kind]

    manifest_of(log).unlink()
    before = leaf_steps[0]
    expected = run(machine, log, ["MarkCartAsPaid"])
    full = leaf_steps[0] - before
    expected_bytes = log.read_bytes()

    log.write_bytes(original)
    manifest_of(log).write_bytes(bad)
    before = leaf_steps[0]
    assert run(machine, log, ["MarkCartAsPaid"]) == expected
    assert leaf_steps[0] - before == full
    assert expected == (0, "[]\n", "")
    assert log.read_bytes() == expected_bytes
    # the run wrote a good manifest over the bad one
    rewritten = json.loads(manifest_of(log).read_bytes())
    assert rewritten["records"] == len(commands) + 1
    assert rewritten["version"] == cli.MANIFEST_VERSION == 2
    assert call("replay", machine, "--log", log) == (0, "", "")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_flipped_byte_under_the_manifest_is_caught_as_without_one(data):
    machine = "cart-and-shipping"
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch) / "log.jsonl"
        assert run(machine, log, commands_for(machine, 8, seed=3))[0] == 0
        original, manifest = log.read_bytes(), manifest_of(log).read_bytes()
        position = data.draw(st.integers(0, len(original) - 1), label="position")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[position]))
        flipped = original[:position] + bytes([byte]) + original[position + 1 :]

        def resume(with_manifest: bool):
            log.write_bytes(flipped)
            if with_manifest:
                manifest_of(log).write_bytes(manifest)
            else:
                manifest_of(log).unlink()
            return run(machine, log, ["cart PayCart"]), log.read_bytes()

        with_manifest, without = resume(True), resume(False)
        assert with_manifest == without
        try:
            same = [json.loads(line) for line in flipped.splitlines()] == [
                json.loads(line) for line in original.splitlines()
            ]
        except ValueError:
            same = False
        if not same and position != len(original) - 1:  # the last byte ends the last line
            assert with_manifest[0][0] in (cli.EXIT_CODEC, cli.EXIT_DIVERGED)
            assert log.read_bytes() == flipped


# -- any split of the commands into runs is one run ------------------------------


class SplitRuns(RuleBasedStateMachine):
    """Runs of any length with manifests deleted, made stale and tails torn between."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.log = self.dir / "split" / "log.jsonl"
        self.log.parent.mkdir()
        self.commands: list[str] = []
        self.printed: list[str] = []
        self.manifests: list[bytes] = []
        self.torn = False

    @initialize(machine=st.sampled_from(["whole-cart-domain", "cart-and-shipping"]))
    def choose_machine(self, machine):
        self.machine = machine

    def run_commands(self, chunk):
        code, out, err = run(self.machine, self.log, chunk)
        assert code == 0
        if self.torn:
            assert err.startswith(f"warning: {self.log}: removed a torn tail at line ")
            assert len(err.splitlines()) == 1
        else:
            assert err == ""
        self.torn = False
        self.commands += chunk
        self.printed += out.splitlines()
        self.manifests.append(manifest_of(self.log).read_bytes())

    @rule(data=st.data())
    def run_some(self, data):
        self.run_commands(data.draw(st.lists(st.sampled_from(VOCABULARY[self.machine]), max_size=5)))

    @rule()
    def delete_manifest(self):
        manifest_of(self.log).unlink(missing_ok=True)

    @precondition(lambda self: self.manifests)
    @rule(data=st.data())
    def restore_a_stale_manifest(self, data):
        manifest_of(self.log).write_bytes(data.draw(st.sampled_from(self.manifests)))

    @rule(data=st.data())
    def tear_the_tail(self, data):
        command = data.draw(st.sampled_from(VOCABULARY[self.machine]))
        line = json.dumps({"input": command, "outputs": [], "seq": len(self.commands)}).encode()
        cut = data.draw(st.integers(1, len(line) - 1))
        with self.log.open("ab") as log:
            log.write(line[:cut])
        self.torn = True

    def teardown(self):
        try:
            if self.torn:  # a replay refuses a torn tail; the next run removes it
                assert call("replay", self.machine, "--log", self.log)[0] == cli.EXIT_CODEC
            self.run_commands([])
            whole = self.dir / "whole" / "log.jsonl"
            whole.parent.mkdir()
            code, out, err = run(self.machine, whole, self.commands)
            assert (code, err) == (0, "")
            assert out.splitlines() == self.printed
            assert self.log.read_bytes() == whole.read_bytes()
            assert call("replay", self.machine, "--log", self.log) == (0, "", "")
        finally:
            shutil.rmtree(self.dir)


TestSplitRuns = SplitRuns.TestCase
TestSplitRuns.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- the restore helper ----------------------------------------------------------


def test_restore_is_the_inverse_of_the_snapshot_and_shares_what_did_not_move():
    fresh = cart_and_shipping()
    entry = cli.default_registry()["cart-and-shipping"]
    tree = fresh
    for command in ["cart PayCart", "ship StartShipping"]:
        _, tree = tree.step(entry.decode_input(command))
    restored = _restore_vertices(fresh, _leaf_vertices(tree))
    assert restored == tree
    assert _leaf_vertices(restored) == _leaf_vertices(tree)
    assert _restore_vertices(fresh, _leaf_vertices(fresh)) is fresh
    # the policy side holds stateless leaves only: its subtree is the fresh tree's own
    assert restored.first.backward is fresh.first.backward
    assert restored.first.forward is not fresh.first.forward


def test_restore_refuses_what_the_tree_cannot_hold():
    tree = Alternative(cart(), Sequential(shipping(), identity_machine("c")))
    vertices = _leaf_vertices(tree)
    assert vertices == ["WaitingForPaymentVertex", "NotShippedV", "Unit"]
    assert _restore_vertices(tree, ["Nowhere", *vertices[1:]]) is None
    assert _restore_vertices(tree, vertices[:-1]) is None
    assert _restore_vertices(tree, [*vertices, "Unit"]) is None
    moved = _restore_vertices(tree, ["PaymentCompleteVertex", *vertices[1:]])
    assert moved.first.machine.state.vertex == "PaymentCompleteVertex"
    assert moved.second is tree.second


def test_no_snapshot_or_restore_through_a_hand_rolled_node():
    class Opaque(StateMachine):
        def __init__(self, inner):
            self.inner = inner

        def step(self, value, config=DEFAULT_CONFIG):
            return self.inner.step(value, config)

        def leaves(self):
            return self.inner.leaves()

    not_a_node = "^not a composition tree node: Opaque$"
    with pytest.raises(TypeError, match=not_a_node):
        Feedback(Opaque(cart()), identity_machine("echo"))
    root = Opaque(cart())
    with pytest.raises(TypeError, match=not_a_node):
        _leaf_vertices(root)
    with pytest.raises(TypeError, match=not_a_node):
        _restore_vertices(root, ["WaitingForPaymentVertex"])
    with pytest.raises(TypeError, match=not_a_node):
        _fingerprint(root)


# -- the fingerprint -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(cli.default_registry()))
def test_two_builds_of_a_registered_machine_share_a_fingerprint(name):
    factory = cli.default_registry()[name].factory
    assert _fingerprint(factory()) == _fingerprint(factory())
    assert len(_fingerprint(factory())) == 64


# taken from the manifests existing logs hold: a change here orphans every LOG.crem
PINNED_FINGERPRINTS = {
    "cart": "149a162f9f0db78148d311e998cfbd0c27edd6c05c1b63b6b3206eacda3fe99d",
    "cart-and-shipping": "ce06af14280c11e232e68c0daa3fb32b244ecb9fbe65856312e3b8d02d18f93e",
    "shipping": "3ce462b0ed52c15cf554c4db0b933112d4ca0821f308afc9015bc217c343ca05",
    "whole-cart-domain": "72559195e98a4b854a2ee2445acac28a7dd46bb093d02a096040e9531a3e105a",
}


@pytest.mark.parametrize("name", sorted(cli.default_registry()))
def test_a_registered_machine_keeps_its_pinned_fingerprint(name):
    factory = cli.default_registry()[name].factory
    assert _fingerprint(factory()) == PINNED_FINGERPRINTS[name]


def leaf(name="m", edges=(("a", ("b",)),), vertex="a", act=lambda s, x: StepResult([x], s)):
    return Basic(BaseMachine(name, Topology(edges), MachineState(vertex), act))


def test_the_fingerprint_names_kinds_leaf_names_edges_and_vertices():
    def tree(kind=Sequential, **changes):
        return kind(leaf(**changes), leaf("echo"))

    base = _fingerprint(tree())
    assert _fingerprint(tree(act=lambda s, x: StepResult([], s))) == base  # not the code
    for other in [
        tree(name="n"),
        tree(edges=(("a", ("c",)),)),
        tree(edges=(("a", ("b",)), ("b", ("a",)))),
        tree(kind=Kleisli),
        tree(vertex="b"),
        Sequential(leaf("echo"), leaf()),
        Sequential(Sequential(leaf(), leaf("echo")), identity_machine("x")),
        Sequential(leaf(), Sequential(leaf("echo"), identity_machine("x"))),
    ]:
        assert _fingerprint(other) != base
    # the same leaves in pre-order, grouped two ways, do not collide
    left = Sequential(Sequential(leaf("a"), leaf("b")), leaf("c"))
    right = Sequential(leaf("a"), Sequential(leaf("b"), leaf("c")))
    assert _fingerprint(left) != _fingerprint(right)


def test_run_and_replay_render_no_diagram(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("render_flow called")

    monkeypatch.setattr(cli, "render_flow", refuse)
    log = tmp_path / "log.jsonl"
    assert run("cart-and-shipping", log, commands_for("cart-and-shipping", 5))[0] == 0
    assert run("cart-and-shipping", log, commands_for("cart-and-shipping", 5))[0] == 0
    assert call("replay", "cart-and-shipping", "--log", log) == (0, "", "")


# -- machine identity on replay --------------------------------------------------


def test_replay_refuses_a_log_written_by_another_machine(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["MarkCartAsPaid", "MarkCartAsPaid"])[0] == 0
    code, out, err = call("replay", "whole-cart-domain", "--log", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert err.startswith(f"error: malformed log: {log} was written by machine 'cart' ")
    assert "not by 'whole-cart-domain'" in err
    assert len(err.splitlines()) == 1
    assert call("replay", "cart", "--log", log) == (0, "", "")
    manifest_of(log).unlink()  # without a manifest nothing names the writer
    assert call("replay", "whole-cart-domain", "--log", log) == (0, "", "")


def test_replay_refuses_a_log_written_by_another_topology(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    registry = cli.default_registry()
    registry["cart"] = replace(
        registry["cart"], factory=lambda: Sequential(cart(), identity_machine("echo"))
    )
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["replay", "cart", "--log", str(log)], registry) == cli.EXIT_CODEC
    message = err.getvalue()
    assert "written by machine 'cart'" in message and "not by 'cart'" in message
    assert len(message.splitlines()) == 1


# -- torn tails ------------------------------------------------------------------

TORN = b'{"input": "MarkCartA'


def test_run_removes_a_torn_tail_and_says_so(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    whole = log.read_bytes()
    log.write_bytes(whole + TORN)
    code, out, err = run("cart", log, ["MarkCartAsPaid"])
    assert (code, out) == (0, "[CartPaymentCompleted]\n")
    assert err == (
        f"warning: {log}: removed a torn tail at line 2 "
        f"({len(TORN)} bytes, unterminated and not valid JSON)\n"
    )
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [r["seq"] for r in records] == [0, 1]
    assert log.read_bytes().startswith(whole)
    assert call("replay", "cart", "--log", log) == (0, "", "")


@pytest.mark.parametrize("with_manifest", [True, False])
def test_replay_calls_a_torn_tail_by_its_name(tmp_path, with_manifest):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    if not with_manifest:
        manifest_of(log).unlink()
    log.write_bytes(log.read_bytes() + TORN)
    assert call("replay", "cart", "--log", log) == (
        cli.EXIT_CODEC,
        "",
        f"error: malformed log: line 2: torn tail ({len(TORN)} bytes, "
        "unterminated and not valid JSON)\n",
    )


def test_a_whole_log_that_is_one_torn_line_resumes_at_seq_0(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_bytes(TORN)
    code, out, err = run("cart", log, ["PayCart"])
    assert (code, out) == (0, "[CartPaymentInitiated]\n")
    assert "line 1" in err
    assert log.read_bytes() == b'{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n'


def test_an_earlier_fault_beats_the_torn_tail_and_the_log_is_left_alone(tmp_path):
    log = tmp_path / "log.jsonl"
    diverged = {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentCompleted"]}
    log.write_bytes(json.dumps(diverged).encode() + b"\n" + TORN)
    tampered = log.read_bytes()
    code, out, _ = run("cart", log, ["PayCart"])
    assert code == cli.EXIT_DIVERGED
    assert out.startswith("replay diverged at seq 0")
    assert log.read_bytes() == tampered
    assert call("replay", "cart", "--log", log)[0] == cli.EXIT_DIVERGED


# -- one writer at a time --------------------------------------------------------


def crem_process(*argv) -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop(cli.ENV_FEEDBACK_CAP, None)
    return subprocess.Popen(
        [sys.executable, "-m", "crem", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def test_a_second_writer_waits_for_the_lock(tmp_path):
    log = tmp_path / "log.jsonl"
    source = tmp_path / "commands.txt"
    source.write_text("MarkCartAsPaid\n", encoding="utf-8")
    with log.open("a+b") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        writer = crem_process("run", "cart", "--input", source, "--log", log)
        try:
            time.sleep(0.5)
            assert writer.poll() is None  # blocked on the lock
            # written under the lock, so the waiting run must resume after it
            held.write(b'{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n')
            held.flush()
        finally:
            fcntl.flock(held, fcntl.LOCK_UN)
        out, err = writer.communicate(timeout=60)
    assert (writer.returncode, out, err) == (0, "[CartPaymentCompleted]\n", "")
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [(r["seq"], r["outputs"]) for r in records] == [
        (0, ["CartPaymentInitiated"]),
        (1, ["CartPaymentCompleted"]),
    ]
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_replay_waits_for_a_writer_instead_of_calling_its_record_torn(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    record = b'{"input": "MarkCartAsPaid", "outputs": ["CartPaymentCompleted"], "seq": 1}\n'
    with log.open("a+b") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        try:
            held.write(record[:20])  # a record half written, as a run in progress leaves it
            held.flush()
            reader = crem_process("replay", "cart", "--log", log)
            time.sleep(0.5)
            assert reader.poll() is None  # blocked on the lock
            held.write(record[20:])
            held.flush()
        finally:
            fcntl.flock(held, fcntl.LOCK_UN)
        out, err = reader.communicate(timeout=60)
    assert (reader.returncode, out, err) == (0, "", "")


@pytest.mark.parametrize("make, reason", [
    (lambda log: None, "[Errno 2] No such file or directory"),
    (Path.mkdir, "[Errno 21] Is a directory"),
], ids=["missing", "directory"])
def test_replay_locks_nothing_into_being_and_names_what_it_cannot_read(tmp_path, make, reason):
    log = tmp_path / "log.jsonl"
    make(log)
    existed = log.exists()
    code, out, err = call("replay", "cart", "--log", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert err == f"error: malformed log: cannot read log {log}: {reason}: '{log}'\n"
    assert log.exists() == existed


def test_two_writers_on_one_log_leave_one_gap_free_sequence(tmp_path):
    machine = "cart-and-shipping"
    log = tmp_path / "log.jsonl"
    sources = []
    for seed in (1, 2):
        source = tmp_path / f"commands-{seed}.txt"
        commands = commands_for(machine, 300, seed=seed)
        source.write_text("".join(c + "\n" for c in commands), encoding="utf-8")
        sources.append(source)
    writers = [crem_process("run", machine, "--input", s, "--log", log) for s in sources]
    for writer in writers:
        _, err = writer.communicate(timeout=120)
        assert (writer.returncode, err) == (0, "")
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [r["seq"] for r in records] == list(range(600))
    assert call("replay", machine, "--log", log) == (0, "", "")
