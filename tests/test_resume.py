"""Resuming an event log from its sidecar manifest, ``LOG.crem``.

A ``run --log`` leaves a manifest beside the log: the machine, a topology
fingerprint, how many records and bytes it checked or wrote, their sha256,
the leaf vertices after them, and a ``check`` over all of that. A later
``run`` that finds the manifest matching re-steps only the records after
it. These tests pin that down with a counting wrapper on
``BaseMachine.step`` instead of timings, show with a Hypothesis state
machine that any split of the commands into runs leaves the bytes one
unsplit run leaves, and show that every damaged or torn manifest falls back
to the full check of the log, while a whole one naming another machine or
topology makes ``run`` and ``replay`` alike refuse the log.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import fcntl
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

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
    Parallel,
    Right,
    Sequential,
    StateMachine,
    StepResult,
    Topology,
    cli,
    eventlog,
    identity_machine,
    render,
    stateless,
    unrestricted_mealy,
)
from crem.cart import CartCommand, cart, cart_and_shipping, shipping, whole_cart_domain
from crem.compose import _leaf_vertices, _restore_vertices
from crem.eventlog import _fingerprint
from crem_harness import VOCABULARY, call, commands_for, crem_env, manifest_of, written
from crem_harness import cli_run as run


def signed(manifest: dict) -> dict:
    """``manifest`` with the ``check`` a run writes: the sha256 of its canonical JSON without it."""
    body = {key: value for key, value in manifest.items() if key != "check"}
    return {**body, "check": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()}


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
    assert manifest["version"] == eventlog.MANIFEST_VERSION
    assert manifest["machine"] == "whole-cart-domain"
    assert manifest["records"] == 1
    assert manifest["bytes"] == len(data)
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
    _, tree = whole_cart_domain().step(CartCommand.PayCart)
    assert manifest["vertices"] == _leaf_vertices(tree)
    assert manifest["fingerprint"] == _fingerprint(whole_cart_domain())
    assert manifest == signed(manifest)
    assert manifest_of(log).read_bytes() == json.dumps(manifest, sort_keys=True).encode()


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


# text that json.dumps escapes or that looks like its separators
AWKWARD_TEXT = st.text(st.sampled_from(['a', '"', ",", " ", ":", "\\", "é", "☃", "\n"])) | st.text()


@settings(max_examples=200, deadline=None)
@given(manifest=st.fixed_dictionaries({
    "version": st.just(eventlog.MANIFEST_VERSION),
    "machine": AWKWARD_TEXT,
    "fingerprint": AWKWARD_TEXT,
    "records": st.integers(min_value=0, max_value=2**70),
    "bytes": st.integers(min_value=0, max_value=2**70),
    "sha256": AWKWARD_TEXT,
    "vertices": st.lists(AWKWARD_TEXT, max_size=4),
}))
def test_the_written_manifest_is_json_dumps_with_its_check(manifest):
    with tempfile.TemporaryDirectory() as scratch:
        log = Path(scratch, "log.jsonl")
        manifest_of(log).write_bytes(b"x" * 4096)  # written over in place, and cut to length
        eventlog._write_manifest(manifest_of(log), manifest)
        expected = json.dumps({**manifest, "check": eventlog._check(manifest)}, sort_keys=True)
        assert manifest_of(log).read_bytes() == expected.encode()
        assert eventlog._read_manifest(log, manifest["machine"], manifest["fingerprint"]) == manifest


# -- a run that stops at a failing command -------------------------------------


def gate():
    """Leaf on ``a -> b -> c``: "next" moves on, "back" tries the undeclared edge to ``a``."""

    def act(state, value):
        target = "a" if value == "back" else {"a": "b", "b": "c"}[state.vertex]
        return StepResult([value], MachineState(target))

    topology = Topology((("a", ("b",)), ("b", ("c",))))
    return Basic(BaseMachine("gate", topology, MachineState("a"), act))


def echo_loop():
    """Feedback over a leaf that flips off/on: "quiet" emits nothing, "loop" never settles."""
    flipper = flip("toggle", lambda x: [x] if x == "loop" else [])
    return Feedback(flipper, still("echo"))


FAILED_RUNS = {
    # machine, registry, the first run's commands, the second's, its exit, vertices after
    "exit-3-decode": ("cart", None, ["PayCart"], ["MarkCartAsPaid", "Bogus"],
                      cli.EXIT_CODEC, ["PaymentCompleteVertex"]),
    # "bad" steps to "on" before its output fails to encode: its machine is not saved
    "exit-3-encode": ("flip", {"flip": cli.RegistryEntry(
        lambda: flip("flip"), str.strip, str, lambda x: 0 if x == "bad" else x,
    )}, ["x"], ["y", "bad"], cli.EXIT_CODEC, ["off"]),
    "exit-4": ("gate", {"gate": cli.RegistryEntry(gate, str.strip, str, str)},
               ["next"], ["next", "back"], cli.EXIT_TOPOLOGY, ["c"]),
    "exit-5": ("loop", {"loop": cli.RegistryEntry(echo_loop, str.strip, str, repr)},
               ["quiet"], ["quiet", "loop"], cli.EXIT_FEEDBACK, ["off", "Unit"]),
}


@pytest.mark.parametrize("kind", list(FAILED_RUNS))
def test_a_failed_run_writes_the_manifest_of_what_it_appended(kind, tmp_path, leaf_steps):
    machine, registry, first, second, exit_code, vertices = FAILED_RUNS[kind]
    log = tmp_path / "log.jsonl"
    source = tmp_path / "commands.txt"

    def session(commands):
        source.write_text("".join(command + "\n" for command in commands), encoding="utf-8")
        return call("run", machine, "--input", source, "--log", log, registry=registry)

    assert session(first)[0] == 0
    code, _, err = session(second)
    assert code == exit_code
    assert err.startswith("error: ")
    data = log.read_bytes()
    assert data.count(b"\n") == 2
    manifest = json.loads(manifest_of(log).read_bytes())
    assert manifest["records"] == 2
    assert manifest["bytes"] == len(data)
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["vertices"] == vertices
    # the next resume trusts the manifest: it re-steps neither logged record
    before = leaf_steps[0]
    assert session([]) == (0, "", "")
    assert leaf_steps[0] - before == 0
    assert log.read_bytes() == data
    assert manifest_of(log).read_bytes() == json.dumps(manifest, sort_keys=True).encode()
    assert call("replay", machine, "--log", log, registry=registry) == (0, "", "")


def test_a_run_whose_log_fails_its_check_writes_no_manifest(tmp_path):
    log = tmp_path / "log.jsonl"
    diverged = {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentCompleted"]}
    log.write_bytes(json.dumps(diverged).encode() + b"\n")
    assert run("cart", log, ["PayCart"])[0] == cli.EXIT_DIVERGED
    assert not manifest_of(log).exists()
    log.write_bytes(b"not json\n")
    assert run("cart", log, ["PayCart"])[0] == cli.EXIT_CODEC
    assert not manifest_of(log).exists()
    # a logged PayCart needs more feedback iterations than a cap of 1 allows
    log.unlink()
    assert run("whole-cart-domain", log, ["PayCart"])[0] == 0
    manifest_of(log).unlink()
    source = log.with_name("commands.txt")
    resumed = call("run", "whole-cart-domain", "--input", source, "--log", log, "--feedback-cap", 1)
    assert resumed[0] == cli.EXIT_FEEDBACK
    assert not manifest_of(log).exists()


def test_a_run_whose_first_command_fails_writes_the_manifest_of_the_checked_log(
    tmp_path, leaf_steps
):
    # no record is appended, so the manifest covers exactly the log the resume checked
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart", "MarkCartAsPaid"])[0] == 0
    manifest_of(log).unlink()
    data = log.read_bytes()
    assert run("cart", log, ["Bogus"]) == (
        cli.EXIT_CODEC, "", "error: line 1: 'Bogus' is not a CartCommand\n"
    )
    assert log.read_bytes() == data
    manifest = json.loads(manifest_of(log).read_bytes())
    assert manifest["records"] == 2
    assert manifest["bytes"] == len(data)
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["vertices"] == ["PaymentCompleteVertex"]
    # the next resume trusts the manifest: it re-steps neither logged record
    before = leaf_steps[0]
    assert run("cart", log, []) == (0, "", "")
    assert leaf_steps[0] - before == 0


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

    def changed(**fields) -> bytes:  # re-signed, so each kind fails on its own field
        return json.dumps(signed({**manifest, **fields})).encode()

    unsigned = {key: value for key, value in manifest.items() if key != "check"}
    return {
        "vertex-off-topology": changed(vertices=["Nowhere"] + manifest["vertices"][1:]),
        "vertex-missing": changed(vertices=manifest["vertices"][:-1]),
        "vertex-extra": changed(vertices=manifest["vertices"] + ["Done"]),
        "version": changed(version=eventlog.MANIFEST_VERSION + 1),
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
        "version-2": json.dumps({**unsigned, "version": 2}).encode(),  # the format with no check
        "check-wrong": json.dumps({**manifest, "check": "0" * 64}).encode(),
        "check-missing": json.dumps(unsigned).encode(),
        # signed, naming the session's own writer in a field of the wrong type: the schema
        # refuses it before the writer is judged
        "machine-not-str": changed(machine=[manifest["machine"]]),
        "fingerprint-not-str": changed(fingerprint=5),
        "unknown-field": changed(extra=1),
        "not-json": b"{not json",
        "not-utf-8": b"\xff\xfe",
        "a-list": b"[]",
        "empty": b"",
        "nested-too-deep": b"[" * 100_000,  # json.loads raises RecursionError, not ValueError
    }


@pytest.mark.parametrize("kind", [
    "vertex-off-topology", "vertex-missing", "vertex-extra",
    "version", "sha256", "bytes-past-the-end", "bytes-mid-line", "records-as-bool",
    "records-short", "records-long", "version-1", "version-2", "check-wrong", "check-missing",
    "machine-not-str", "fingerprint-not-str", "unknown-field", "not-json", "not-utf-8", "a-list",
    "empty", "nested-too-deep",
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
    assert rewritten["version"] == eventlog.MANIFEST_VERSION == 3
    assert call("replay", machine, "--log", log) == (0, "", "")


def test_a_manifest_cut_short_at_any_byte_falls_back_silently(tmp_path, leaf_steps):
    machine = "cart-and-shipping"
    log = tmp_path / "log.jsonl"
    assert run(machine, log, commands_for(machine, 8, seed=3))[0] == 0
    original, manifest = log.read_bytes(), manifest_of(log).read_bytes()
    fingerprint = _fingerprint(cart_and_shipping())

    manifest_of(log).unlink()
    before = leaf_steps[0]
    expected = run(machine, log, ["cart PayCart"])
    full = leaf_steps[0] - before
    expected_bytes = log.read_bytes()
    assert (expected[0], expected[2]) == (0, "")

    for size in range(len(manifest)):  # every prefix the write can stop at, the empty one too
        log.write_bytes(original)
        manifest_of(log).write_bytes(manifest[:size])
        assert eventlog._read_manifest(log, machine, fingerprint) is None
        before = leaf_steps[0]
        assert run(machine, log, ["cart PayCart"]) == expected
        assert leaf_steps[0] - before == full
        assert log.read_bytes() == expected_bytes
        rewritten = eventlog._read_manifest(log, machine, fingerprint)
        assert rewritten is not None and rewritten["version"] == 3
        assert rewritten["records"] == 9


def test_a_re_signed_manifest_is_trusted_as_written(tmp_path, leaf_steps):
    # the kinds above fail on their field alone: unchanged and re-signed, the manifest holds
    machine = "whole-cart-domain"
    log = tmp_path / "log.jsonl"
    assert run(machine, log, commands_for(machine, 50))[0] == 0
    manifest = json.loads(manifest_of(log).read_bytes())
    manifest_of(log).write_bytes(json.dumps(signed(manifest)).encode())
    fingerprint = _fingerprint(whole_cart_domain())
    assert eventlog._read_manifest(log, machine, fingerprint) == {
        key: value for key, value in manifest.items() if key != "check"
    }
    before = leaf_steps[0]
    assert run(machine, log, []) == (0, "", "")
    assert leaf_steps[0] - before == 0


TORN_OVERWRITES = {
    # the runs before the one whose manifest overwrites theirs, and that run's commands:
    # a shipped, unpaid cart names longer vertices than a paid one
    "old-longer": (["ship StartShipping"], ["cart PayCart"]),
    "old-shorter": (["ship StartShipping", "cart PayCart"], ["ship MarkAsDelivered"]),
}


@pytest.mark.parametrize("case", list(TORN_OVERWRITES))
def test_a_torn_overwrite_of_the_manifest_falls_back_silently(case, tmp_path, leaf_steps):
    machine = "cart-and-shipping"
    earlier, last = TORN_OVERWRITES[case]
    log = tmp_path / "log.jsonl"
    for command in earlier:
        assert run(machine, log, [command])[0] == 0
    old = manifest_of(log).read_bytes()
    assert run(machine, log, last)[0] == 0
    new, original = manifest_of(log).read_bytes(), log.read_bytes()
    assert (len(old) > len(new)) == (case == "old-longer")
    fingerprint = _fingerprint(cart_and_shipping())

    manifest_of(log).unlink()
    before = leaf_steps[0]
    expected = run(machine, log, ["cart MarkCartAsPaid"])
    full = leaf_steps[0] - before
    expected_bytes = log.read_bytes()
    assert (expected[0], expected[2]) == (0, "")

    # every split an overwrite in place can stop at, and the new manifest with the old
    # one's tail behind it, as when the truncation never ran
    joined = {new[:split] + old[split:] for split in range(len(new) + 1)}
    joined.add(new + old[len(new):])
    wholes = [json.loads(old), json.loads(new)]

    def whole(manifest: bytes) -> bool:
        with contextlib.suppress(ValueError):
            return json.loads(manifest) in wholes
        return False

    # a split inside the bytes both share, or one that only drops a separator's space,
    # leaves one of the two whole: it is read as written, which is not torn
    for manifest in filter(whole, joined):
        manifest_of(log).write_bytes(manifest)
        assert signed(eventlog._read_manifest(log, machine, fingerprint)) in wholes
    torn = sorted(manifest for manifest in joined if not whole(manifest))
    assert len(torn) > 100
    assert new + old[len(new):] in torn or len(old) <= len(new)
    for manifest in torn:
        log.write_bytes(original)
        manifest_of(log).write_bytes(manifest)
        assert eventlog._read_manifest(log, machine, fingerprint) is None
        before = leaf_steps[0]
        assert run(machine, log, ["cart MarkCartAsPaid"]) == expected
        assert leaf_steps[0] - before == full
        assert log.read_bytes() == expected_bytes
        assert manifest_of(log).read_bytes() == json.dumps(
            signed(json.loads(manifest_of(log).read_bytes())), sort_keys=True
        ).encode()


SETTLE = ["ship StartShipping", "cart PayCart", "ship MarkAsDelivered", "cart MarkCartAsPaid"]


def big_log(log: Path, records: int) -> int:
    """Write a ``cart-and-shipping`` log of ``records`` records and its manifest, unchecked.

    Past its first four records the cart is paid and delivered, and every
    command leaves it where it is and emits nothing, so the manifest is
    written here, from the bytes, instead of by a run that steps them all.
    Returns the log's length.
    """
    machine = "cart-and-shipping"
    assert run(machine, log, SETTLE)[0] == 0
    vertices = json.loads(manifest_of(log).read_bytes())["vertices"]
    idle = VOCABULARY[machine]
    data = log.read_bytes() + "".join(
        json.dumps({"input": idle[seq % 4], "outputs": [], "seq": seq}, sort_keys=True) + "\n"
        for seq in range(len(SETTLE), records)
    ).encode()
    log.write_bytes(data)
    manifest_of(log).write_bytes(json.dumps(signed({
        "version": eventlog.MANIFEST_VERSION,
        "machine": machine,
        "fingerprint": _fingerprint(cart_and_shipping()),
        "records": records,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "vertices": vertices,
    }), sort_keys=True).encode())
    return len(data)


def test_a_resume_holds_no_more_of_the_log_in_memory_as_the_prefix_grows(tmp_path, leaf_steps):
    machine = "cart-and-shipping"
    entry = cli.default_registry()[machine]
    _, settled = steps_of(leaf_steps, entry.factory(), map(entry.decode_input, SETTLE))
    one, _ = steps_of(leaf_steps, settled, [entry.decode_input("cart PayCart")])

    def peak(records: int) -> tuple[int, int]:
        log = tmp_path / f"log-{records}.jsonl"
        size = big_log(log, records)
        before = leaf_steps[0]
        tracemalloc.start()
        try:
            done = run(machine, log, ["cart PayCart"])
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert done == (0, "[]\n", "")
        assert leaf_steps[0] - before == one  # the manifest was trusted: nothing re-stepped
        assert log.stat().st_size > size
        return size, traced

    small, small_peak = peak(40_000)
    large, large_peak = peak(160_000)
    assert small > 2_000_000 and large > 3 * small
    assert large_peak < small_peak + 100_000  # flat in the prefix
    assert large_peak < small // 4  # and far below even the smaller log


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
        try:  # a log line ends at "\n" only: a flip to "\r" after a comma is JSON whitespace
            same = [json.loads(line) for line in flipped.split(b"\n")[:-1]] == [
                json.loads(line) for line in original.split(b"\n")[:-1]
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


# -- the fingerprints logs carry ------------------------------------------------

# every existing log of a machine names its fingerprint in the manifest, so a change to
# one makes run and replay refuse all of that machine's logs with exit 3: a change to the
# cart wiring, a leaf name, a table topology or _fingerprint must be a deliberate one
REGISTERED_FINGERPRINTS = {
    "cart": "149a162f9f0db78148d311e998cfbd0c27edd6c05c1b63b6b3206eacda3fe99d",
    "shipping": "3ce462b0ed52c15cf554c4db0b933112d4ca0821f308afc9015bc217c343ca05",
    "whole-cart-domain": "72559195e98a4b854a2ee2445acac28a7dd46bb093d02a096040e9531a3e105a",
    "cart-and-shipping": "ce06af14280c11e232e68c0daa3fb32b244ecb9fbe65856312e3b8d02d18f93e",
}


def test_the_registered_fingerprints_do_not_change():
    registry = cli.default_registry()
    fingerprints = {name: _fingerprint(entry.factory()) for name, entry in registry.items()}
    assert fingerprints == REGISTERED_FINGERPRINTS


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
    assert restored.first.second is fresh.first.second
    assert restored.first.first is not fresh.first.first


class EqualsAnything:
    """A payload that compares equal to everything, None included."""

    def __eq__(self, other):
        return True


@pytest.mark.parametrize("payload", [7, EqualsAnything()], ids=["int", "equals-anything"])
def test_restore_onto_a_leaf_with_a_payload_builds_it_anew_without_one(payload):
    carrying = BaseMachine("m", Topology((("a", ("b",)),)), MachineState("a", payload),
                           lambda s, x: StepResult([x], s))
    fresh = Sequential(Basic(carrying), still("c"))
    restored = _restore_vertices(fresh, ["a", "Unit"])
    assert restored.first is not fresh.first
    assert restored.first.machine.state.payload is None
    assert restored.first.machine.state.vertex == "a"
    assert restored.first.machine.action is carrying.action
    assert restored.second is fresh.second
    assert _restore_vertices(fresh, ["b", "Unit"]).first.machine.state == MachineState("b")
    assert _restore_vertices(fresh, ["Nowhere", "Unit"]) is None


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


def leaf(name="m", edges=(("a", ("b",)),), vertex="a", act=lambda s, x: StepResult([x], s)):
    return Basic(BaseMachine(name, Topology(edges), MachineState(vertex), act))


def flip(name, out=lambda x: [x]):
    """Leaf that moves between "off" and "on" on every step, with no payload."""

    def act(state, value):
        return StepResult(out(value), MachineState("on" if state.vertex == "off" else "off"))

    return leaf(name, (("off", ("on",)), ("on", ("off",))), "off", act)


def still(name, out=lambda x: [x]):
    return Basic(stateless(name, out))


@pytest.mark.parametrize(
    "fresh, value, untouched",
    [
        (Sequential(flip("a", lambda x: x), still("b", lambda x: x)), 1, "second"),
        (Parallel(still("a"), flip("b")), (1, 2), "first"),
        (Alternative(flip("a"), flip("b")), Right(1), "first"),
        (Kleisli(flip("a"), still("b")), 1, "second"),
        (Feedback(still("a"), flip("b", lambda x: [])), 1, "first"),
    ],
    ids=["seq", "par", "alt", "kleisli", "feedback"],
)
def test_restore_on_every_composite_shares_what_did_not_move(fresh, value, untouched):
    _, stepped = fresh.step(value)
    restored = _restore_vertices(fresh, _leaf_vertices(stepped))
    assert restored == stepped
    assert getattr(restored, untouched) is getattr(fresh, untouched)
    moved = "second" if untouched == "first" else "first"
    assert getattr(restored, moved) != getattr(fresh, moved)
    assert _restore_vertices(fresh, _leaf_vertices(fresh)) is fresh


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
    # every render_flow and render_base reaches one of these, whichever module calls it
    for name in ("_layout", "_base_dot", "_base_mermaid"):
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"crem.render.{name} called")

        monkeypatch.setattr(render, name, refuse)
    log = tmp_path / "log.jsonl"
    assert run("cart-and-shipping", log, commands_for("cart-and-shipping", 5))[0] == 0
    assert run("cart-and-shipping", log, commands_for("cart-and-shipping", 5))[0] == 0
    assert call("replay", "cart-and-shipping", "--log", log) == (0, "", "")


# -- one writer identity for run and replay ---------------------------------------


def session(kind, machine, log, registry=None) -> tuple[int, str, str]:
    """``replay``, or a ``run`` of one ``PayCart``, on ``log`` as ``machine``."""
    if kind == "replay":
        return call("replay", machine, "--log", log, registry=registry)
    source = Path(log).with_name("commands.txt")
    source.write_text("PayCart\n", encoding="utf-8")
    return call("run", machine, "--input", source, "--log", log, registry=registry)


@pytest.mark.parametrize("kind", ["run", "replay"])
def test_run_and_replay_refuse_a_log_written_by_another_machine(kind, tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["MarkCartAsPaid", "MarkCartAsPaid"])[0] == 0
    before = written(log)
    code, out, err = session(kind, "whole-cart-domain", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert err.startswith(f"error: malformed log: {log} was written by machine 'cart' ")
    assert "not by 'whole-cart-domain'" in err
    assert len(err.splitlines()) == 1
    assert written(log) == before  # refused before anything is re-run or written
    assert call("replay", "cart", "--log", log) == (0, "", "")
    manifest_of(log).unlink()  # without a manifest nothing names the writer
    code, _, err = session(kind, "whole-cart-domain", log)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("kind", ["run", "replay"])
def test_run_and_replay_refuse_a_log_written_by_another_topology(kind, tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    before = written(log)
    registry = cli.default_registry()
    registry["cart"] = replace(
        registry["cart"], factory=lambda: Sequential(cart(), identity_machine("echo"))
    )
    code, out, message = session(kind, "cart", log, registry)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert "written by machine 'cart'" in message and "not by 'cart'" in message
    assert len(message.splitlines()) == 1
    assert written(log) == before
    assert call("replay", "cart", "--log", log) == (0, "", "")


@pytest.mark.parametrize("kind", ["run", "replay"])
@pytest.mark.parametrize(
    "manifest", ["version-1", "version-2", "version-4", "machine-only", "check-wrong"]
)
def test_a_manifest_that_is_not_a_whole_version_3_names_no_writer(manifest, kind, tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["MarkCartAsPaid", "MarkCartAsPaid"])[0] == 0
    current = json.loads(manifest_of(log).read_bytes())
    unsigned = {key: value for key, value in current.items() if key != "check"}
    foreign = {  # each names another machine than the session's, whole-cart-domain
        "version-1": signed({**current, "version": 1}),
        "version-2": {**unsigned, "version": 2},  # the format with no check
        "version-4": signed({**current, "version": eventlog.MANIFEST_VERSION + 1}),
        "machine-only": {"machine": "cart"},
        "check-wrong": {**current, "check": "0" * 64},
    }[manifest]
    original = log.read_bytes()

    manifest_of(log).unlink()  # the reference: a session with no manifest to name the writer
    expected = session(kind, "whole-cart-domain", log)
    expected_files = written(log) if kind == "run" else None

    log.write_bytes(original)
    manifest_of(log).write_bytes(json.dumps(foreign).encode())
    assert session(kind, "whole-cart-domain", log) == expected
    assert expected[::2] == (0, "")
    if kind == "run":
        assert written(log) == expected_files  # adopted: the log and a new manifest, as above
        assert json.loads(manifest_of(log).read_bytes())["machine"] == "whole-cart-domain"


@pytest.mark.parametrize("kind", ["run", "replay"])
def test_a_whole_manifest_naming_another_machine_is_refused_in_one_line(kind, tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["MarkCartAsPaid", "MarkCartAsPaid"])[0] == 0
    writer = json.loads(manifest_of(log).read_bytes())["fingerprint"][:12]
    before = written(log)
    code, out, err = session(kind, "whole-cart-domain", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    fingerprint = _fingerprint(whole_cart_domain())[:12]
    assert err == (
        f"error: malformed log: {log} was written by machine 'cart' (topology {writer}), "
        f"not by 'whole-cart-domain' (topology {fingerprint})\n"
    )
    assert written(log) == before  # refused before anything is re-run or written
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_a_run_cannot_relabel_a_log_another_machine_wrote(tmp_path):
    log = tmp_path / "log.jsonl"
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    assert run("cart", log, ["MarkCartAsPaid", "MarkCartAsPaid"])[0] == 0
    assert call("replay", "whole-cart-domain", "--log", log)[0] == cli.EXIT_CODEC
    assert call("run", "whole-cart-domain", "--input", empty, "--log", log)[0] == cli.EXIT_CODEC
    assert call("replay", "whole-cart-domain", "--log", log)[0] == cli.EXIT_CODEC
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_a_refused_run_creates_no_log(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    log.unlink()
    before = manifest_of(log).read_bytes()
    code, out, err = session("run", "whole-cart-domain", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert err.startswith(f"error: malformed log: {log} was written by machine 'cart' ")
    assert len(err.splitlines()) == 1
    assert not log.exists()
    assert manifest_of(log).read_bytes() == before


def test_a_directory_at_the_manifest_path_fails_only_the_write_and_the_resume_checks_all(
    tmp_path, leaf_steps
):
    machine = "whole-cart-domain"
    commands = commands_for(machine, 20)
    log, reference = tmp_path / "log.jsonl", tmp_path / "reference" / "log.jsonl"
    reference.parent.mkdir()
    manifest_of(log).mkdir()  # writing the manifest fails on a directory, and the run goes on
    done = run(machine, log, commands)
    assert done == run(machine, reference, commands)
    assert (done[0], done[2]) == (0, "")
    assert log.read_bytes() == reference.read_bytes()
    assert manifest_of(log).is_dir()

    def resume(target: Path):
        before = leaf_steps[0]
        done = run(machine, target, ["PayCart"])
        return done, leaf_steps[0] - before, target.read_bytes()

    manifest_of(reference).unlink()  # so the reference checks its whole log too
    resumed = resume(log)
    assert resumed == resume(reference)
    assert (resumed[0][0], resumed[0][2]) == (0, "")


@contextlib.contextmanager
def descriptors_of(path: Path):
    """Collects every ``os.open`` of ``path`` inside the block and every ``os.close``."""
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def tracked_open(file, *args, **kwargs):
        fd = real_open(file, *args, **kwargs)
        if os.fspath(file) == str(path):
            opened.append(fd)
        return fd

    def tracked_close(fd):
        closed.append(fd)
        real_close(fd)

    with mock.patch.object(os, "open", tracked_open), mock.patch.object(os, "close", tracked_close):
        yield opened, closed


@pytest.mark.parametrize("failing, first", [
    ("pwrite", []),  # the manifest file is created empty: nothing written
    ("ftruncate", ["ship StartShipping"]),  # its longer old manifest leaves its tail behind
], ids=["pwrite", "ftruncate"])
def test_a_failed_manifest_write_costs_the_next_run_a_full_check(
    failing, first, tmp_path, leaf_steps
):
    machine = "cart-and-shipping"
    log, reference = tmp_path / "log.jsonl", tmp_path / "reference" / "log.jsonl"
    reference.parent.mkdir()
    for target in (log, reference):
        for command in first:
            assert run(machine, target, [command])[0] == 0
    commands = ["cart PayCart", "ship StartShipping"]
    expected = run(machine, reference, commands)
    assert (expected[0], expected[2]) == (0, "")

    def fail(*args):
        raise OSError(errno.EIO, f"{failing} failed")

    with descriptors_of(manifest_of(log)) as (opened, closed), mock.patch.object(os, failing, fail):
        assert run(machine, log, commands) == expected
    # the write's descriptor, after the read's if a manifest was there to read: all closed
    assert len(opened) == (2 if first else 1) and set(opened) <= set(closed)
    assert log.read_bytes() == reference.read_bytes()
    fingerprint = _fingerprint(cart_and_shipping())
    assert eventlog._read_manifest(log, machine, fingerprint) is None

    def resume(target: Path):
        before = leaf_steps[0]
        done = run(machine, target, ["ship MarkAsDelivered"])
        return done, leaf_steps[0] - before, target.read_bytes()

    manifest_of(reference).unlink()  # so the reference checks its whole log
    resumed = resume(log)
    assert resumed == resume(reference)
    assert (resumed[0][0], resumed[0][2]) == (0, "")
    assert eventlog._read_manifest(log, machine, fingerprint)["records"] == len(first) + 3


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


@pytest.mark.parametrize("with_manifest", [True, False])
def test_an_unterminated_line_that_is_not_utf8_is_a_torn_tail(tmp_path, with_manifest):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    if not with_manifest:
        manifest_of(log).unlink()
    whole = log.read_bytes()
    torn = b'{"input": "\xff", "outputs": [], "seq": 1}'  # a record, but for one byte
    log.write_bytes(whole + torn)
    assert call("replay", "cart", "--log", log) == (
        cli.EXIT_CODEC,
        "",
        f"error: malformed log: line 2: torn tail ({len(torn)} bytes, "
        "unterminated and not valid JSON)\n",
    )
    code, out, err = run("cart", log, ["MarkCartAsPaid"])
    assert (code, out) == (0, "[CartPaymentCompleted]\n")
    assert err == (
        f"warning: {log}: removed a torn tail at line 2 "
        f"({len(torn)} bytes, unterminated and not valid JSON)\n"
    )
    assert log.read_bytes().startswith(whole)
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_an_unterminated_line_nested_past_the_recursion_limit_is_a_torn_tail(tmp_path):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    whole = log.read_bytes()
    torn = b"[" * 100_000  # json.loads raises RecursionError, not ValueError
    log.write_bytes(whole + torn)
    assert call("replay", "cart", "--log", log) == (
        cli.EXIT_CODEC,
        "",
        f"error: malformed log: line 2: torn tail ({len(torn)} bytes, "
        "unterminated and not valid JSON)\n",
    )
    code, out, err = run("cart", log, ["MarkCartAsPaid"])
    assert (code, out) == (0, "[CartPaymentCompleted]\n")
    assert err == (
        f"warning: {log}: removed a torn tail at line 2 "
        f"({len(torn)} bytes, unterminated and not valid JSON)\n"
    )
    assert log.read_bytes().startswith(whole)
    assert call("replay", "cart", "--log", log) == (0, "", "")


@pytest.mark.parametrize("tail", [b"[]", b'{"seq": 1}', b"7"])
def test_an_unterminated_line_that_is_json_but_no_record_is_refused(tmp_path, tail):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    log.write_bytes(log.read_bytes() + tail)
    tampered = log.read_bytes()
    refused = (cli.EXIT_CODEC, "", "error: malformed log: line 2: not a valid event record\n")
    assert run("cart", log, ["MarkCartAsPaid"]) == refused
    assert log.read_bytes() == tampered
    assert call("replay", "cart", "--log", log) == refused


# -- one handle per session ------------------------------------------------------


@contextlib.contextmanager
def opens_of(path: Path):
    """Collects the mode of every ``open`` or ``Path.open`` of ``path`` inside the block."""
    modes, real = [], io.open

    def counting(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            modes.append(mode)
        return real(file, mode, *args, **kwargs)

    with mock.patch.object(builtins, "open", counting), mock.patch.object(io, "open", counting):
        yield modes


@pytest.mark.parametrize("before", ["absent", "with-manifest", "without-manifest", "torn"])
def test_a_session_opens_its_log_once(tmp_path, before):
    log = tmp_path / "log.jsonl"
    if before != "absent":
        assert run("cart", log, ["PayCart"])[0] == 0
    if before == "without-manifest":
        manifest_of(log).unlink()
    if before == "torn":
        log.write_bytes(log.read_bytes() + TORN)
    with opens_of(log) as modes:
        assert run("cart", log, ["MarkCartAsPaid"])[0] == 0
    assert modes == ["a+b"]
    with opens_of(log) as modes:
        assert call("replay", "cart", "--log", log) == (0, "", "")
    assert modes == ["rb"]


class UnreadableHandle:
    """The locked log's handle, but every ``read`` fails as a failing disk does."""

    def __init__(self, handle):
        self._handle = handle

    def read(self, *args):
        raise OSError(errno.EIO, "Input/output error")

    def __getattr__(self, name):
        return getattr(self._handle, name)

    # a ``with`` looks special methods up on the type, past ``__getattr__``
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@pytest.mark.parametrize("kind", ["run", "replay"])
def test_a_log_that_cannot_be_read_is_malformed(kind, tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    assert run("whole-cart-domain", log, ["PayCart", "MarkCartAsPaid"])[0] == 0
    before = written(log)
    real = eventlog._locked_log

    def unreadable(path, exclusive):
        return UnreadableHandle(real(path, exclusive))

    monkeypatch.setattr(eventlog, "_locked_log", unreadable)
    code, out, err = session(kind, "whole-cart-domain", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    assert err.startswith(f"error: malformed log: cannot read log {log}: [Errno 5] ")
    assert len(err.splitlines()) == 1
    assert written(log) == before


class UnwritableHandle:
    """The locked log's handle, but every ``write`` and ``truncate`` fails with ``error``
    as a full or failing disk does; with ``error`` None, each ``write`` writes only the
    first half of its bytes and returns that short count instead."""

    def __init__(self, handle, error):
        self._handle = handle
        self._error = error

    def write(self, data):
        if self._error is not None:
            raise self._error
        return self._handle.write(data[: len(data) // 2])

    def truncate(self, *args):
        raise self._error

    def __getattr__(self, name):
        return getattr(self._handle, name)

    # a ``with`` looks special methods up on the type, past ``__getattr__``
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@contextlib.contextmanager
def unwritable(monkeypatch, error):
    """Inside the block, every session's log handle is an ``UnwritableHandle``."""
    real = eventlog._locked_log

    def locked(path, exclusive):
        return UnwritableHandle(real(path, exclusive), error)

    with monkeypatch.context() as patch:
        patch.setattr(eventlog, "_locked_log", locked)
        yield


NO_SPACE = OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("error", [NO_SPACE, None], ids=["ENOSPC", "short-count"])
def test_a_record_that_cannot_be_written_exits_3_and_names_the_log(error, tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    before, manifest = written(log)
    record = b'{"input": "MarkCartAsPaid", "outputs": ["CartPaymentCompleted"], "seq": 1}\n'
    batch = record + b"".join(
        b'{"input": "PayCart", "outputs": [], "seq": %d}\n' % seq for seq in (2, 3)
    )
    with unwritable(monkeypatch, error):
        code, out, err = run("cart", log, ["MarkCartAsPaid", "PayCart", "PayCart"])
    # the three records went in one write: a failed one commits and prints nothing, and a
    # short one, which took the first record and part of the second, exactly that record
    reason = f"wrote {len(batch) // 2} of {len(batch)} bytes" if error is None else error
    assert (code, err) == (cli.EXIT_CODEC, f"error: cannot write log {log}: {reason}\n")
    if error:
        assert (out, written(log)) == ("", (before, manifest))
        assert run("cart", log, ["MarkCartAsPaid"]) == (0, "[CartPaymentCompleted]\n", "")
    else:
        part = batch[len(record): len(batch) // 2]
        assert out == "[CartPaymentCompleted]\n"
        assert log.read_bytes() == before + record + part
        assert json.loads(manifest_of(log).read_bytes())["records"] == 2
        # the manifest covers the whole record; the next run removes what was cut short
        assert run("cart", log, []) == (0, "", (
            f"warning: {log}: removed a torn tail at line 3 ({len(part)} bytes, "
            "unterminated and not valid JSON)\n"
        ))
    assert log.read_bytes() == before + record
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_a_failing_commands_batch_is_written_first_and_its_write_error_wins(tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    before = written(log)
    with unwritable(monkeypatch, NO_SPACE):
        refused = run("cart", log, ["MarkCartAsPaid", "Bogus"])
    assert refused == (cli.EXIT_CODEC, "", f"error: cannot write log {log}: {NO_SPACE}\n")
    assert written(log) == before
    assert run("cart", log, ["MarkCartAsPaid", "Bogus"]) == (
        cli.EXIT_CODEC, "[CartPaymentCompleted]\n", "error: line 2: 'Bogus' is not a CartCommand\n"
    )
    assert call("replay", "cart", "--log", log) == (0, "", "")


@pytest.mark.parametrize("tail, error", [
    (b"", NO_SPACE),  # the newline that ends a whole last record cannot be written
    (TORN, OSError(errno.EIO, "Input/output error")),  # the torn tail cannot be removed
], ids=["unterminated", "torn"])
def test_a_log_that_cannot_be_mended_exits_3_and_names_it(tail, error, tmp_path, monkeypatch):
    log = tmp_path / "log.jsonl"
    assert run("cart", log, ["PayCart"])[0] == 0
    manifest_of(log).unlink()
    log.write_bytes(log.read_bytes().rstrip(b"\n") if not tail else log.read_bytes() + tail)
    before = log.read_bytes()
    with unwritable(monkeypatch, error):
        code, out, err = run("cart", log, ["MarkCartAsPaid"])
    assert (code, out, err) == (cli.EXIT_CODEC, "", f"error: cannot write log {log}: {error}\n")
    assert log.read_bytes() == before
    assert not manifest_of(log).exists()
    assert run("cart", log, ["MarkCartAsPaid"])[:2] == (0, "[CartPaymentCompleted]\n")
    assert call("replay", "cart", "--log", log) == (0, "", "")


def test_each_line_is_printed_after_its_record_is_in_the_log(tmp_path):
    log = tmp_path / "log.jsonl"

    class Watching(io.StringIO):
        """A stdout whose ``write`` checks the log through a handle of its own: it holds
        the record of every line printed so far, this write's lines included."""

        def __init__(self, start: int) -> None:
            super().__init__()
            self.start, self.writes = start, 0

        def write(self, text: str) -> int:
            self.writes += 1
            lines = self.getvalue().count("\n") + text.count("\n")
            assert log.read_bytes().count(b"\n") == self.start + lines
            return super().write(text)

    start = 0
    for count in (1_200, 600):  # a fresh log, then a resume from its manifest
        commands = commands_for("cart-and-shipping", count, seed=count)
        source = tmp_path / "commands.txt"
        source.write_text("".join(command + "\n" for command in commands), encoding="utf-8")
        out = Watching(start)
        argv = ["run", "cart-and-shipping", "--input", source, "--log", log]
        with contextlib.redirect_stdout(out):
            code = cli.main([str(arg) for arg in argv])
        assert code == 0 and len(out.getvalue().splitlines()) == count
        assert out.writes >= count // 300  # records of about 50 bytes: four batches, then two
        start += count
    assert json.loads(manifest_of(log).read_bytes())["records"] == start
    assert call("replay", "cart-and-shipping", "--log", log) == (0, "", "")


def test_a_command_that_fails_after_several_batches_leaves_them_logged(tmp_path):
    log = tmp_path / "log.jsonl"
    commands = [*commands_for("cart", 1_200), "Bogus", "PayCart"]
    code, out, err = run("cart", log, commands)
    assert (code, err) == (cli.EXIT_CODEC, "error: line 1201: 'Bogus' is not a CartCommand\n")
    data = log.read_bytes()
    assert len(out.splitlines()) == data.count(b"\n") == 1_200
    manifest = json.loads(manifest_of(log).read_bytes())
    assert (manifest["records"], manifest["bytes"]) == (1_200, len(data))
    assert manifest["sha256"] == hashlib.sha256(data).hexdigest()
    assert call("replay", "cart", "--log", log) == (0, "", "")


# -- one writer at a time --------------------------------------------------------


def crem_process(*argv, text=True, **options) -> subprocess.Popen:
    """``python -m crem *argv`` with its output piped; ``options`` go to ``Popen``."""
    return subprocess.Popen(
        [sys.executable, "-m", "crem", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=text,
        env=crem_env(),
        **options,
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


def test_a_writer_creates_no_missing_directory(tmp_path):
    log = tmp_path / "absent" / "log.jsonl"
    source = tmp_path / "commands.txt"
    source.write_text("PayCart\n", encoding="utf-8")
    assert call("run", "cart", "--input", source, "--log", log) == (
        cli.EXIT_USAGE,
        "",
        f"error: [Errno 2] No such file or directory: '{log}'\n",
    )
    assert not log.parent.exists()


def test_a_writer_names_a_log_it_cannot_open(tmp_path):
    log = tmp_path / "log.jsonl"
    log.mkdir()
    assert run("cart", log, ["PayCart"]) == (
        cli.EXIT_CODEC,
        "",
        f"error: malformed log: cannot read log {log}: [Errno 21] Is a directory: '{log}'\n",
    )
    assert not manifest_of(log).exists()


def test_replay_reads_a_log_from_a_pipe(tmp_path):
    machine, log = "cart-and-shipping", tmp_path / "log.jsonl"
    assert run(machine, log, commands_for(machine, 20))[0] == 0
    read, write = os.pipe()
    try:
        os.write(write, log.read_bytes())
        os.close(write)
        assert call("replay", machine, "--log", f"/dev/fd/{read}") == (0, "", "")
    finally:
        os.close(read)
    reader = crem_process("replay", machine, "--log", "/dev/stdin", stdin=subprocess.PIPE)
    out, err = reader.communicate(log.read_text(encoding="utf-8"), timeout=60)
    assert (reader.returncode, out, err) == (0, "", "")


def test_a_writer_refuses_a_log_it_cannot_seek(tmp_path):
    log = tmp_path / "log.jsonl"
    os.mkfifo(log)
    held = os.open(log, os.O_RDONLY | os.O_NONBLOCK)  # keeps whatever a writer would leave
    try:
        assert run("cart", log, ["PayCart"]) == (
            cli.EXIT_CODEC,
            "",
            f"error: malformed log: cannot read log {log}: [Errno 29] Illegal seek\n",
        )
        assert os.read(held, 1 << 16) == b""
    finally:
        os.close(held)
    assert not manifest_of(log).exists()


@pytest.mark.parametrize("before", ["no-log", "a-log"])
def test_a_fifo_at_the_manifest_path_reads_as_no_manifest_and_takes_no_write(tmp_path, before):
    log, reference = tmp_path / "log.jsonl", tmp_path / "reference" / "log.jsonl"
    reference.parent.mkdir()
    if before == "a-log":
        for target in (log, reference):
            assert run("cart", target, ["PayCart"])[0] == 0
            manifest_of(target).unlink()
    os.mkfifo(manifest_of(log))  # nothing holds its other end open
    expected = run("cart", reference, ["PayCart", "MarkCartAsPaid"])
    source = reference.with_name("commands.txt")  # the commands run wrote for the reference

    def session(*argv):  # a process and a timeout: a blocking open fails, never hangs
        process = crem_process(*argv)
        try:
            out, err = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise
        return process.returncode, out, err

    assert session("run", "cart", "--input", source, "--log", log) == expected
    assert expected[::2] == (0, "")
    assert log.read_bytes() == reference.read_bytes()
    assert session("replay", "cart", "--log", log) == (0, "", "")
    assert manifest_of(log).is_fifo()


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


# -- whole sessions as processes --------------------------------------------------


def test_a_process_prints_the_same_bytes_with_or_without_the_log(tmp_path):
    log, source = tmp_path / "log.jsonl", tmp_path / "commands.txt"
    source.write_bytes(b"cart PayCart\nship StartShipping\n")

    def session(*argv, stdin=b""):
        process = crem_process(*argv, stdin=subprocess.PIPE, text=False)
        out, err = process.communicate(stdin, timeout=60)
        return process.returncode, out, err

    printed = (0, b"[cart PaymentInProgress, cart PaymentDone, ship InTransit]\n[]\n", b"")
    assert session("run", "cart-and-shipping", "--input", source, "--log", log) == printed
    assert manifest_of(log).exists()
    assert session("run", "cart-and-shipping", "--input", source) == printed
    assert session("run", "cart-and-shipping", "--input", "-", stdin=source.read_bytes()) == printed
    assert session("replay", "cart-and-shipping", "--log", log) == (0, b"", b"")


def test_a_log_past_the_file_size_limit_exits_3_and_the_next_run_mends_it(tmp_path):
    log, source = tmp_path / "log.jsonl", tmp_path / "many.txt"
    source.write_text("PayCart\nMarkCartAsPaid\n" * 40, encoding="utf-8")

    def limit():  # CPython ignores SIGXFSZ, so a write past the limit fails instead of killing
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

    writer = crem_process("run", "cart", "--input", source, "--log", log, preexec_fn=limit)
    out, err = writer.communicate(timeout=60)
    assert writer.returncode == cli.EXIT_CODEC
    assert err.startswith(f"error: cannot write log {log}: ") and err.count("\n") == 1
    data = log.read_bytes()
    whole = data[: data.rindex(b"\n") + 1]
    records, torn = whole.count(b"\n"), len(data) - len(whole)
    # exactly the commands whose records are whole printed, and the manifest covers them
    assert len(out.splitlines()) == records
    manifest = json.loads(manifest_of(log).read_bytes())
    assert (manifest["records"], manifest["bytes"]) == (records, len(whole))
    assert torn > 0  # the limit cut a record short
    assert run("cart", log, []) == (0, "", (
        f"warning: {log}: removed a torn tail at line {records + 1} "
        f"({torn} bytes, unterminated and not valid JSON)\n"
    ))
    assert log.read_bytes() == whole
    assert call("replay", "cart", "--log", log) == (0, "", "")
