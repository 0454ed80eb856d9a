"""The event log as a Python API: ``crem.eventlog`` without argv.

``crem run --log`` and ``crem replay`` are thin callers of ``open_log`` and ``replay``, so
a log written, resumed or audited through the API must be the log the command line
writes, resumes or audits, byte for byte and message for message.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from crem import cli, eventlog
from crem_harness import SRC, VOCABULARY, call, cli_run, commands_for, manifest_of, written

REGISTRY = cli.default_registry()


def numbered(commands: list[str], start: int = 1) -> list[tuple[int, str]]:
    return list(enumerate(commands, start=start))


def api_append(machine: str, log: Path, commands: list[str]) -> str:
    """Append ``commands`` to ``log`` through ``open_log``; return the lines it printed."""
    printed = []
    with eventlog.open_log(log, machine, REGISTRY[machine]) as events:
        events.append(numbered(commands), printed.append)
    return "".join(printed)


@pytest.mark.parametrize("machine", sorted(VOCABULARY))
def test_the_api_writes_the_log_and_manifest_the_cli_writes(machine, tmp_path):
    commands = commands_for(machine, 2_000, seed=41)  # past several 16 KiB batches
    (tmp_path / "cli").mkdir()
    (tmp_path / "api").mkdir()
    code, out, err = cli_run(machine, tmp_path / "cli" / "log.jsonl", commands)
    assert (code, err) == (0, "")
    assert api_append(machine, tmp_path / "api" / "log.jsonl", commands) == out
    assert written(tmp_path / "api" / "log.jsonl") == written(tmp_path / "cli" / "log.jsonl")


@pytest.mark.parametrize("first_by_cli", [True, False], ids=["cli-then-api", "api-then-cli"])
def test_a_resume_continues_a_log_the_other_side_wrote(first_by_cli, tmp_path):
    machine = "cart-and-shipping"
    commands = commands_for(machine, 1_500, seed=41)
    first, second = commands[:900], commands[900:]
    (tmp_path / "whole").mkdir()
    (tmp_path / "split").mkdir()
    whole, split = tmp_path / "whole" / "log.jsonl", tmp_path / "split" / "log.jsonl"
    assert cli_run(machine, whole, commands)[0] == 0
    if first_by_cli:
        assert cli_run(machine, split, first)[0] == 0
        with eventlog.open_log(split, machine, REGISTRY[machine]) as events:
            assert (events.seq, events.torn) == (len(first), 0)
            events.append(numbered(second), lambda text: None)
            assert events.seq == len(commands)
    else:
        api_append(machine, split, first)
        assert cli_run(machine, split, second)[0] == 0
    assert written(split) == written(whole)
    assert eventlog.replay(split, machine, REGISTRY[machine]) == len(commands)


def test_replay_raises_on_a_torn_tail_with_the_cli_message(tmp_path):
    log = tmp_path / "log.jsonl"
    api_append("cart", log, ["PayCart", "MarkCartAsPaid"])
    with log.open("ab") as handle:
        handle.write(b'{"input": "PayC')
    code, out, err = call("replay", "cart", "--log", log)
    assert (code, out) == (cli.EXIT_CODEC, "")
    with pytest.raises(eventlog.MalformedLog) as error:
        eventlog.replay(log, "cart", REGISTRY["cart"])
    assert err == f"error: {error.value}\n"
    assert str(error.value) == (
        "malformed log: line 3: torn tail (15 bytes, unterminated and not valid JSON)"
    )


def test_open_log_removes_a_torn_tail_the_cli_would_warn_about(tmp_path):
    (tmp_path / "cli").mkdir()
    (tmp_path / "api").mkdir()
    logs = tmp_path / "cli" / "log.jsonl", tmp_path / "api" / "log.jsonl"
    for log in logs:
        assert cli_run("cart", log, ["PayCart"])[0] == 0
        with log.open("ab") as handle:
            handle.write(b'{"inp')
    code, out, err = cli_run("cart", logs[0], ["MarkCartAsPaid"])
    assert (code, out) == (0, "[CartPaymentCompleted]\n")
    with eventlog.open_log(logs[1], "cart", REGISTRY["cart"]) as events:
        assert err == (f"warning: {logs[0]}: removed a torn tail at line {events.seq + 1} "
                       f"({events.torn} bytes, unterminated and not valid JSON)\n")
        assert (events.seq, events.torn) == (1, 5)
        events.append(numbered(["MarkCartAsPaid"]), lambda text: None)
    assert written(logs[1]) == written(logs[0])


def test_replay_raises_diverged_on_a_tampered_record_with_the_cli_message(tmp_path):
    log = tmp_path / "log.jsonl"
    api_append("whole-cart-domain", log, ["PayCart", "MarkCartAsPaid"])
    log.write_bytes(log.read_bytes().replace(b'"PaymentDone"', b'"PaymentPending"', 1))
    code, out, err = call("replay", "whole-cart-domain", "--log", log)
    assert (code, err) == (cli.EXIT_DIVERGED, "")
    with pytest.raises(eventlog.Diverged) as error:
        eventlog.replay(log, "whole-cart-domain", REGISTRY["whole-cart-domain"])
    assert out == f"{error.value}\n"
    assert str(error.value).startswith("replay diverged at seq 0: logged ")
    with pytest.raises(eventlog.Diverged) as again:  # a resume checks as replay does
        with eventlog.open_log(log, "whole-cart-domain", REGISTRY["whole-cart-domain"]):
            pass
    assert str(again.value) == str(error.value)


def unlocked(log: Path) -> bool:
    """Whether a fresh handle on ``log`` takes its exclusive lock at once."""
    with log.open("rb") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
    return True


@pytest.mark.parametrize("ending", ["block", "raising-block", "diverged", "another-machine"])
def test_open_log_releases_the_lock_however_it_ends(ending, tmp_path):
    log, machine = tmp_path / "log.jsonl", "whole-cart-domain"
    api_append(machine, log, ["PayCart", "MarkCartAsPaid"])
    if ending in ("block", "raising-block"):
        failing = ending == "raising-block"
        with pytest.raises(RuntimeError) if failing else contextlib.nullcontext():
            with eventlog.open_log(log, machine, REGISTRY[machine]) as events:
                events.append(numbered(["PayCart"]), lambda text: None)
                assert not unlocked(log)
                if failing:
                    raise RuntimeError("the block failed")
        # the manifest covers the record the block appended, also when the block raised
        manifest = json.loads(manifest_of(log).read_bytes())
        assert manifest["records"] == 3
    elif ending == "diverged":
        log.write_bytes(log.read_bytes().replace(b'"PaymentDone"', b'"PaymentPending"', 1))
        with pytest.raises(eventlog.Diverged):
            with eventlog.open_log(log, machine, REGISTRY[machine]):
                pass
    else:
        with pytest.raises(eventlog.MalformedLog, match="written by machine 'whole-cart-domain'"):
            with eventlog.open_log(log, "cart", REGISTRY["cart"]):
                pass
    assert unlocked(log)


def test_append_after_the_block_raises_before_it_decodes(tmp_path):
    log, machine = tmp_path / "log.jsonl", "cart"
    api_append(machine, log, ["PayCart"])
    decoded, entry = [], REGISTRY[machine]

    def decode_input(text):
        decoded.append(text)
        return entry.decode_input(text)

    counting = replace(entry, decode_input=decode_input)
    with eventlog.open_log(log, machine, counting) as events:
        pass
    decoded.clear()  # opening re-decoded the logged record
    before = written(log)
    with pytest.raises(ValueError, match=f"^log {re.escape(str(log))} is closed"):
        events.append(numbered(["MarkCartAsPaid"]), print)
    assert decoded == [] and written(log) == before


def test_importing_crem_loads_neither_the_event_log_nor_the_cli():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import crem; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, SRC], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    loaded = json.loads(done.stdout)
    assert "crem.eventlog" not in loaded and "crem.cli" not in loaded
    assert "crem.compose" in loaded  # the package itself did load
    assert "hashlib" not in loaded  # the manifest's fingerprint is the event log's
