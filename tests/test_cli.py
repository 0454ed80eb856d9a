import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crem import Basic, BaseMachine, Left, MachineState, Right, StepResult, Topology, cart, cli
from crem.cart import (
    CartCommand,
    CartEvent,
    CartView,
    ShippingCommand,
    ShippingEvent,
    ShippingInfo,
)
from crem_harness import SRC, crem_env, write_commands


def test_list_prints_sorted_registry(capsys):
    assert cli.main(["list"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert names == sorted(names)
    for required in ("cart", "whole-cart-domain", "cart-and-shipping"):
        assert required in names


@pytest.mark.parametrize("module", ["crem", "crem.cli"])
def test_module_entry_points_list_the_registry(module, capsys):
    assert cli.main(["list"]) == 0
    expected = capsys.readouterr().out
    done = subprocess.run(
        [sys.executable, "-m", module, "list"],
        capture_output=True, text=True, env=crem_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


# every CLI command once, then the top-level modules imported that the standard library lacks
NO_DEPENDENCIES = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from crem import cli
tmp = Path(sys.argv[2])
(tmp / "commands.txt").write_text("PayCart\\nMarkCartAsPaid\\n", encoding="utf-8")
for argv in (
    ["list"],
    ["run", "cart", "--input", tmp / "commands.txt", "--log", tmp / "log.jsonl"],
    ["replay", "cart", "--log", tmp / "log.jsonl"],
    ["render", "cart-and-shipping", "--out", tmp / "flow.dot"],
):
    assert cli.main([str(arg) for arg in argv]) == 0, argv
imported = {name.partition(".")[0] for name in sys.modules}
print(sorted(imported - set(sys.stdlib_module_names) - {"crem", "__main__"}))
"""


def test_the_cli_imports_nothing_outside_the_standard_library(tmp_path):
    # -S keeps site-packages off sys.path, so a third-party import fails instead of passing
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", NO_DEPENDENCIES, SRC, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "[]"


def test_list_on_empty_registry(capsys):
    assert cli.main(["list"], registry={}) == 0
    assert capsys.readouterr().out == ""


def test_render_flow_dot_to_stdout(capsys):
    assert cli.main(["render", "whole-cart-domain", "--format", "dot", "--mode", "flow"]) == 0
    out = capsys.readouterr().out
    assert out.count("subgraph") == 3


def test_render_base_mermaid_has_initial_marker(capsys):
    assert cli.main(["render", "cart", "--format", "mermaid", "--mode", "base"]) == 0
    assert "[*] -->" in capsys.readouterr().out


def test_render_unknown_machine_exits_2(capsys):
    assert cli.main(["render", "nosuch"]) == 2
    assert "unknown machine" in capsys.readouterr().err


def test_render_base_mode_rejected_for_composed_machine(capsys):
    assert cli.main(["render", "whole-cart-domain", "--mode", "base"]) == 2
    assert "composed" in capsys.readouterr().err


# a closed stdout (`crem ... >&-`) leaves sys.stdout None: each command then writes
# nothing there, as print does, and still does the rest of its work


def test_run_with_no_stdout_logs_every_record(tmp_path, monkeypatch):
    commands = write_commands(tmp_path / "commands.txt", ["PayCart", "MarkCartAsPaid"])
    shown, closed = tmp_path / "shown.jsonl", tmp_path / "closed.jsonl"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(shown)]) == 0
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["run", "cart", "--input", commands, "--log", str(closed)]) == 0
    assert len(closed.read_bytes().splitlines()) == 2
    assert closed.read_bytes() == shown.read_bytes()
    manifest = Path(str(closed) + ".crem").read_bytes()
    assert manifest == Path(str(shown) + ".crem").read_bytes()
    assert json.loads(manifest)["records"] == 2


@pytest.mark.parametrize(
    "argv",
    [["list"], ["render", "cart"], ["render", "cart-and-shipping", "--format", "mermaid"]],
    ids=["list", "render-dot", "render-mermaid"],
)
def test_list_and_render_with_no_stdout_exit_0(argv, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(argv) == 0


@pytest.mark.parametrize(
    ("closed", "argv", "code"),
    [
        ("stderr", ["run", "cart", "--input", "absent.txt"], 2),
        ("stderr", ["run", "cart"], 2),
        ("stdout", ["-h"], 0),
    ],
    ids=["error-line", "usage-error", "help"],
)
def test_a_line_for_a_closed_stream_goes_nowhere(closed, argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, closed, None)
    assert cli.main(argv) == code
    assert capsys.readouterr() == ("", "")


# A closed stream is None in sys when Python is started directly (`2>&-`), or a descriptor
# whose writes fail when a wrapper left it open on another file, as /dev/full's writes do.
# Neither changes an exit code, buffered or not: Python flushes a buffered stream only
# at exit, so a failed write surfaces there.
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.fixture(params=["buffered", "unbuffered"])
def shell_crem(request, tmp_path):
    """Run a ``sh`` script in ``tmp_path``, where ``crem`` runs ``python -m crem`` on this
    checkout; returns the finished process, its output as bytes."""
    env = crem_env(CREM_PYTHON=sys.executable)
    env.pop("PYTHONUNBUFFERED", None)
    if request.param == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"

    def run(script):
        script = 'crem() { "$CREM_PYTHON" -m crem "$@"; }; ' + script
        return subprocess.run(
            ["sh", "-c", script], capture_output=True, cwd=tmp_path, env=env, timeout=60
        )

    return run


@needs_dev_full
def test_an_error_line_that_cannot_be_written_keeps_its_exit_code(shell_crem):
    done = shell_crem("crem run cart --input absent.txt 2>/dev/full")
    assert (done.returncode, done.stdout) == (2, b"")


def test_a_closed_stderr_gets_no_error_line_and_stdout_gets_none(shell_crem):
    done = shell_crem("crem run cart --input absent.txt 2>&-")
    assert (done.returncode, done.stdout) == (2, b"")


@needs_dev_full
def test_a_torn_tail_warning_that_cannot_be_written_stops_nothing(shell_crem, tmp_path):
    both = write_commands(tmp_path / "both.txt", ["PayCart", "MarkCartAsPaid"])
    first = write_commands(tmp_path / "first.txt", ["PayCart"])
    write_commands(tmp_path / "second.txt", ["MarkCartAsPaid"])
    clean, log = tmp_path / "clean.jsonl", tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", both, "--log", str(clean)]) == 0
    assert cli.main(["run", "cart", "--input", first, "--log", str(log)]) == 0
    with log.open("ab") as handle:
        handle.write(b'{"inp')
    done = shell_crem("crem run cart --input second.txt --log log.jsonl 2>/dev/full")
    assert (done.returncode, done.stdout) == (0, b"[CartPaymentCompleted]\n")
    assert log.read_bytes() == clean.read_bytes()
    assert Path(f"{log}.crem").read_bytes() == Path(f"{clean}.crem").read_bytes()


@needs_dev_full
def test_a_divergence_line_that_cannot_be_written_keeps_exit_6(shell_crem, tmp_path):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    log.write_bytes(log.read_bytes().replace(b"CartPaymentInitiated", b"CartPaymentCompleted"))
    done = shell_crem("crem replay cart --log log.jsonl >/dev/full")
    assert (done.returncode, done.stderr) == (6, b"")


def test_input_from_a_closed_stdin_is_a_usage_error(shell_crem, tmp_path):
    done = shell_crem("crem run cart --input - --log log.jsonl <&-")
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == b"error: --input -: there is no stdin to read\n"
    assert not (tmp_path / "log.jsonl").exists()


@needs_dev_full
@pytest.mark.parametrize("shell_crem", ["buffered"], indirect=True)
def test_output_that_fails_only_at_the_exit_flush_exits_2(shell_crem, tmp_path):
    # unbuffered, the first write fails and main reports it, as it always has
    write_commands(tmp_path / "cmds.txt", ["PayCart"])
    done = shell_crem("crem run cart --input cmds.txt >/dev/full")
    assert done.returncode == 2
    assert done.stderr == b"error: [Errno 28] No space left on device\n"


@needs_dev_full
def test_output_that_cannot_be_written_still_logs_each_record_first(shell_crem, tmp_path):
    # a line is printed only once its record is in the log, buffered or not
    write_commands(tmp_path / "c.txt", ["PayCart", "MarkCartAsPaid"])
    done = shell_crem("crem run cart --input c.txt --log U >/dev/full")
    assert done.returncode == 2
    assert done.stderr == b"error: [Errno 28] No space left on device\n"
    assert len((tmp_path / "U").read_bytes().splitlines()) == 2
    assert json.loads((tmp_path / "U.crem").read_bytes())["records"] == 2


def test_render_writes_output_file(tmp_path, capsys):
    out = tmp_path / "cart.dot"
    assert cli.main(["render", "cart", "--mode", "base", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8").startswith('digraph "cart"')


def test_run_whole_cart_domain(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["run", "whole-cart-domain", "--input", commands]) == 0
    assert capsys.readouterr().out == "[PaymentInProgress, PaymentDone]\n"


def test_run_cart_and_shipping(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["cart PayCart"])
    assert cli.main(["run", "cart-and-shipping", "--input", commands]) == 0
    assert (
        capsys.readouterr().out
        == "[cart PaymentInProgress, cart PaymentDone, ship InTransit]\n"
    )


def test_run_empty_input(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", [])
    assert cli.main(["run", "cart", "--input", commands]) == 0
    assert capsys.readouterr().out == ""


def test_run_skips_blanks_and_comments(tmp_path, capsys):
    commands = write_commands(
        tmp_path / "cmds.txt", ["# warm-up", "", "PayCart", "   ", "MarkCartAsPaid"]
    )
    assert cli.main(["run", "cart", "--input", commands]) == 0
    assert capsys.readouterr().out == "[CartPaymentInitiated]\n[CartPaymentCompleted]\n"


def test_run_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"PayCart\n")))
    assert cli.main(["run", "cart", "--input", "-"]) == 0
    assert capsys.readouterr().out == "[CartPaymentInitiated]\n"


def test_run_codec_error_reports_line(tmp_path, capsys):
    cases = [
        ("cart", ["PayCart", "FooBar"], "line 2: 'FooBar' is not a CartCommand"),
        (
            "cart-and-shipping",
            ["bogus PayCart"],
            "line 1: expected 'cart <CartCommand>' or 'ship <ShippingCommand>', "
            "got 'bogus PayCart'",
        ),
        ("cart-and-shipping", ["cart Bogus"], "line 1: 'Bogus' is not a CartCommand"),
    ]
    for machine, lines, message in cases:
        commands = write_commands(tmp_path / "cmds.txt", lines)
        assert cli.main(["run", machine, "--input", commands]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "separator", ["\u2028", "\x85", "\x1e"], ids=["line-separator", "next-line", "record-separator"]
)
def test_a_command_line_ends_only_at_newline(separator, tmp_path, capsys):
    # str.splitlines would end a line at each of these and count Bogus as line 3
    commands = tmp_path / "cmds.txt"
    commands.write_text(f"PayCart{separator}\nBogus\n", encoding="utf-8")
    assert cli.main(["run", "cart", "--input", str(commands)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "[CartPaymentInitiated]\n"
    assert captured.err == "error: line 2: 'Bogus' is not a CartCommand\n"


def test_run_reads_a_crlf_command_file(tmp_path, capsys):
    commands = tmp_path / "cmds.txt"
    commands.write_bytes(b"# paid\r\nPayCart\r\n\r\nMarkCartAsPaid\r\nBogus\r\n")
    assert cli.main(["run", "cart", "--input", str(commands)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "[CartPaymentInitiated]\n[CartPaymentCompleted]\n"
    assert captured.err == "error: line 5: 'Bogus' is not a CartCommand\n"


def test_run_writes_event_log(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert records == [
        {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentInitiated"]},
        {"seq": 1, "input": "MarkCartAsPaid", "outputs": ["CartPaymentCompleted"]},
    ]
    capsys.readouterr()


def test_run_appends_and_resumes_from_existing_log(tmp_path, capsys):
    first = write_commands(tmp_path / "first.txt", ["PayCart"])
    second = write_commands(tmp_path / "second.txt", ["MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", first, "--log", str(log)]) == 0
    assert cli.main(["run", "cart", "--input", second, "--log", str(log)]) == 0
    out = capsys.readouterr().out
    # the second run resumed from the logged state: the cart was already
    # at InitiatingPayment, so MarkCartAsPaid completes the payment
    assert out.splitlines() == ["[CartPaymentInitiated]", "[CartPaymentCompleted]"]
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [r["seq"] for r in records] == [0, 1]
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0


def test_run_rejects_feedback_cap_below_one(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["run", "cart", "--input", commands, "--feedback-cap", "0"]) == 2
    assert capsys.readouterr().err == "error: feedback_cap must be at least 1\n"


def test_run_rejects_invalid_env_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_FEEDBACK_CAP, "many")
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["run", "cart", "--input", commands]) == 2
    assert cli.ENV_FEEDBACK_CAP in capsys.readouterr().err


def test_run_rejects_env_cap_below_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_FEEDBACK_CAP, "0")
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["run", "cart", "--input", commands]) == 2
    assert "at least 1" in capsys.readouterr().err


def test_run_feedback_overflow_exit_code(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert (
        cli.main(["run", "whole-cart-domain", "--input", commands, "--feedback-cap", "2"])
        == 5
    )
    assert capsys.readouterr().err == (
        "error: feedback loop exceeded 2 iterations without settling\n"
    )


def test_replay_takes_the_feedback_cap(tmp_path, capsys):
    # one PayCart spends exactly four feedback iterations
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "whole-cart-domain", "--input", commands, "--log", str(log)]) == 0
    capsys.readouterr()
    replay = ["replay", "whole-cart-domain", "--log", str(log), "--feedback-cap"]
    assert cli.main([*replay, "3"]) == 5
    assert "exceeded 3 iterations" in capsys.readouterr().err
    assert cli.main([*replay, "4"]) == 0
    assert cli.main([*replay, "0"]) == 2


def test_run_missing_input_file(tmp_path, capsys):
    absent = str(tmp_path / "absent.txt")
    assert cli.main(["run", "cart", "--input", absent]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {absent!r}\n"


def test_replay_empty_log(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0


def test_replay_detects_corruption(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    records[1]["outputs"] = ["CartPaymentCompleted"]
    log.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    capsys.readouterr()
    assert cli.main(["replay", "cart", "--log", str(log)]) == 6
    out = capsys.readouterr().out
    assert "seq 1" in out
    assert "CartPaymentCompleted" in out  # logged list
    assert "[]" in out  # regenerated list


def test_run_refuses_to_resume_a_tampered_log(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    records[1]["outputs"] = ["CartPaymentCompleted"]
    log.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    tampered = log.read_bytes()
    more = write_commands(tmp_path / "more.txt", ["PayCart"])
    capsys.readouterr()
    assert cli.main(["run", "cart", "--input", more, "--log", str(log)]) == 6
    assert capsys.readouterr().out.startswith("replay diverged at seq 1")
    assert log.read_bytes() == tampered


def test_resume_ends_an_unterminated_last_line_before_appending(tmp_path, capsys):
    first = write_commands(tmp_path / "first.txt", ["PayCart"])
    second = write_commands(tmp_path / "second.txt", ["MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    assert cli.main(["run", "cart", "--input", first, "--log", str(log)]) == 0
    log.write_bytes(log.read_bytes().rstrip(b"\n"))
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0
    assert cli.main(["run", "cart", "--input", second, "--log", str(log)]) == 0
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [r["seq"] for r in records] == [0, 1]
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0
    assert cli.main(["run", "cart", "--input", first, "--log", str(log)]) == 0
    capsys.readouterr()


def test_resume_on_an_empty_log_appends_from_seq_0(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    assert capsys.readouterr().out == "[CartPaymentInitiated]\n"
    assert log.read_text(encoding="utf-8") == (
        '{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n'
    )


def test_run_input_that_is_not_utf8_exits_3(tmp_path, capsys):
    commands = tmp_path / "cmds.txt"
    commands.write_bytes(b"PayCart\n\xff\n")
    assert cli.main(["run", "cart", "--input", str(commands)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: input is not valid UTF-8")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("encoding", ["utf-8:surrogateescape", "latin-1"])
def test_stdin_that_is_not_utf8_exits_3_as_a_file_does(encoding):
    # stdin is read as bytes, whatever text encoding the interpreter gives it
    done = subprocess.run(
        [sys.executable, "-m", "crem", "run", "cart", "--input", "-"],
        input=b"PayCart\n\xff\n",
        capture_output=True,
        env=crem_env(PYTHONIOENCODING=encoding),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, b"")
    assert done.stderr.startswith(b"error: input is not valid UTF-8")
    assert len(done.stderr.splitlines()) == 1


def test_replay_log_that_is_not_utf8_exits_3(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    record = {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentInitiated"]}
    log.write_bytes(json.dumps(record).encode() + b"\n\xff\n")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err == "error: malformed log: line 2: not valid UTF-8\n"


PAID = {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentInitiated"]}


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({**PAID, "input": "PayCart\u2028"}, ensure_ascii=False),
        json.dumps({**PAID, "input": "PayCart\x85"}, ensure_ascii=False),
        json.dumps(PAID).replace(", ", ",\r"),
    ],
    ids=["line-separator", "next-line", "carriage-return"],
)
def test_a_log_line_ends_only_at_newline(line, tmp_path, capsys):
    # str.splitlines would also break these one-line records, which the
    # manifest and the torn-tail check count as one line each
    log = tmp_path / "log.jsonl"
    log.write_bytes(line.encode("utf-8") + b"\n")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    assert json.loads(log.read_bytes().split(b"\n")[1])["seq"] == 1
    assert cli.main(["replay", "cart", "--log", str(log)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit"
)
def test_replay_calls_a_line_python_cannot_parse_not_valid_json(tmp_path, capsys):
    # an integer past Python's digit limit raises a plain ValueError inside json.loads
    log = tmp_path / "log.jsonl"
    log.write_bytes(json.dumps(PAID).encode() + b'\n{"seq": ' + b"1" * 5000 + b"}\n")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed log: line 2: not valid JSON: Exceeds the limit")
    assert len(err.splitlines()) == 1


def test_replay_calls_json_nested_past_the_recursion_limit_not_valid_json(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on nesting this deep
    log = tmp_path / "log.jsonl"
    log.write_bytes(json.dumps(PAID).encode() + b"\n" + b"[" * 100_000 + b"\n")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed log: line 2: not valid JSON: maximum recursion depth")
    assert len(err.splitlines()) == 1


def test_replay_rejects_boolean_seq(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    record = {"seq": False, "input": "PayCart", "outputs": ["CartPaymentInitiated"]}
    log.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert "line 1: not a valid event record" in capsys.readouterr().err


def test_first_fault_in_file_order_decides_the_exit_code(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    diverged = {"seq": 0, "input": "PayCart", "outputs": ["CartPaymentCompleted"]}
    log.write_text(json.dumps(diverged) + "\nnot json\n", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 6
    assert capsys.readouterr().out.startswith("replay diverged at seq 0")


def test_replay_rejects_bad_json(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("not json\n", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert capsys.readouterr().err == (
        "error: malformed log: line 1: not valid JSON: Expecting value: line 1 column 1 (char 0)\n"
    )


def test_replay_rejects_bad_seq(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    record = {"seq": 5, "input": "PayCart", "outputs": []}
    log.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert capsys.readouterr().err == "error: malformed log: line 1: expected seq 0, found 5\n"


def test_replay_rejects_wrong_schema(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"seq": 0, "input": "PayCart"}) + "\n", encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert capsys.readouterr().err == "error: malformed log: line 1: not a valid event record\n"


@pytest.mark.parametrize("outputs", ["[1]", "[null]", '[["CartPaymentInitiated"]]', '[{}]'])
def test_replay_rejects_an_output_that_is_not_a_str(outputs, tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(f'{{"input": "PayCart", "outputs": {outputs}, "seq": 0}}\n', encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert capsys.readouterr().err == "error: malformed log: line 1: not a valid event record\n"


def test_replay_rejects_an_undecodable_input(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text('{"input": "Bogus", "outputs": [], "seq": 0}\n', encoding="utf-8")
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    assert capsys.readouterr().err == (
        "error: malformed log: seq 0: 'Bogus' is not a CartCommand\n"
    )


def test_replay_missing_log_exits_3(tmp_path, capsys):
    log = tmp_path / "absent.jsonl"
    assert cli.main(["replay", "cart", "--log", str(log)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed log: cannot read log {log}: ")
    assert len(err.splitlines()) == 1


def test_replay_unknown_machine(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text("", encoding="utf-8")
    assert cli.main(["replay", "nosuch", "--log", str(log)]) == 2
    assert capsys.readouterr().err == "error: unknown machine 'nosuch'\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "cart", "--input", "cmds.txt", "--log", ""], "--log"),
        (["run", "cart", "--input", ""], "--input"),
        (["render", "cart", "--out", ""], "--out"),
        (["replay", "cart", "--log", ""], "--log"),
    ],
    ids=["run-log", "run-input", "render-out", "replay-log"],
)
def test_an_empty_path_is_a_usage_error(argv, option, tmp_path, monkeypatch, capsys):
    # Path("") is Path("."), so an unchecked run --log "" would run and write no log
    monkeypatch.chdir(tmp_path)
    write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {option}: a path must not be empty\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cmds.txt"]


def test_usage_error_exit_code(capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2


def test_run_maps_disallowed_transition_to_exit_4(tmp_path, capsys):
    from crem import Basic, BaseMachine, MachineState, StepResult, Topology

    topo = Topology((("a", ("b",)), ("b", ())))

    def jump_back(state, value):
        return StepResult([value], MachineState({"a": "b", "b": "a"}[state.vertex]))

    registry = {
        "flipflop": cli.RegistryEntry(
            lambda: Basic(BaseMachine("flipflop", topo, MachineState("a"), jump_back)),
            lambda text: text.strip(),
            lambda value: value,
            lambda value: value,
        )
    }
    commands = write_commands(tmp_path / "cmds.txt", ["x", "y"])
    assert cli.main(["run", "flipflop", "--input", commands], registry=registry) == 4
    assert capsys.readouterr().err == (
        "error: machine 'flipflop': transition 'b' -> 'a' is not allowed by the topology\n"
    )


@pytest.mark.parametrize(
    "codec,seven_for",
    [
        ("encode_input", CartCommand.MarkCartAsPaid),
        ("encode_output", CartEvent.CartPaymentCompleted),
    ],
)
@pytest.mark.parametrize("logged", [True, False], ids=["log", "no-log"])
def test_a_codec_that_returns_no_str_exits_3_before_its_line(
    codec, seven_for, logged, tmp_path, capsys
):
    entry = cli.default_registry()["cart"]
    encode = getattr(entry, codec)
    registry = {"cart": replace(entry, **{codec: lambda v: 7 if v is seven_for else encode(v)})}
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    argv = ["run", "cart", "--input", commands] + (["--log", str(log)] if logged else [])
    assert cli.main(argv, registry) == 3
    assert capsys.readouterr() == (
        "[CartPaymentInitiated]\n",
        f"error: line 2: {codec} returned int 7, not a str\n",
    )
    if logged:  # the log keeps the records before that line
        first = b'{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n'
        assert log.read_bytes() == first
        assert cli.main(["replay", "cart", "--log", str(log)]) == 0
    else:
        assert not log.exists()


def refusing(codec, culprit, error=None):
    """The ``cart`` registry whose ``codec`` raises on ``culprit``: ``error("boom")``, or
    ``CodecError`` if ``error`` is None."""
    entry = cli.default_registry()["cart"]

    def encode(value, encode=getattr(entry, codec)):
        if value == culprit:
            raise cli.CodecError(f"cannot encode {value!r}") if error is None else error("boom")
        return encode(value)

    return {"cart": replace(entry, **{codec: encode})}


@pytest.mark.parametrize("codec, culprit", [
    ("encode_input", CartCommand.MarkCartAsPaid),
    ("encode_output", CartEvent.CartPaymentCompleted),
])
def test_an_encoder_that_refuses_a_value_names_its_line(codec, culprit, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    argv = ["run", "cart", "--input", commands, "--log", str(log)]
    assert cli.main(argv, refusing(codec, culprit)) == 3
    error = f"error: line 2: cannot encode {culprit!r}\n"
    assert capsys.readouterr() == ("[CartPaymentInitiated]\n", error)
    # nothing is printed or logged for that line
    assert log.read_bytes() == b'{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n'


@pytest.mark.parametrize("command", ["replay", "run"])
def test_an_encoder_that_refuses_a_logged_output_names_its_seq(command, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log, manifest = tmp_path / "log.jsonl", tmp_path / "log.jsonl.crem"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    manifest.unlink()  # so a resume re-runs every record
    before = log.read_bytes()
    capsys.readouterr()
    argv = [command, "cart", "--log", str(log)] + (["--input", commands] if command == "run" else [])
    assert cli.main(argv, refusing("encode_output", CartEvent.CartPaymentCompleted)) == 3
    error = f"error: seq 1: cannot encode {CartEvent.CartPaymentCompleted!r}\n"
    assert capsys.readouterr() == ("", error)
    assert (log.read_bytes(), manifest.exists()) == (before, False)


# what a ``MarkCartAsPaid`` command brings to each codec of ``cart``
CULPRITS = {
    "decode_input": "MarkCartAsPaid",
    "encode_input": CartCommand.MarkCartAsPaid,
    "encode_output": CartEvent.CartPaymentCompleted,
}
FIRST_RECORD = b'{"input": "PayCart", "outputs": ["CartPaymentInitiated"], "seq": 0}\n'


@pytest.mark.parametrize("codec", list(CULPRITS))
@pytest.mark.parametrize("logged", [True, False], ids=["log", "no-log"])
def test_a_codec_that_raises_exits_3_naming_its_line(codec, logged, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log = tmp_path / "log.jsonl"
    argv = ["run", "cart", "--input", commands] + (["--log", str(log)] if logged else [])
    assert cli.main(argv, refusing(codec, CULPRITS[codec], KeyError)) == 3
    error = f"error: line 2: {codec} raised KeyError: 'boom'\n"
    assert capsys.readouterr() == ("[CartPaymentInitiated]\n", error)
    if logged:  # the log and its manifest keep the records before that line
        assert log.read_bytes() == FIRST_RECORD
        assert json.loads(log.with_name("log.jsonl.crem").read_bytes())["records"] == 1
        assert cli.main(["replay", "cart", "--log", str(log)]) == 0


@pytest.mark.parametrize("codec", list(CULPRITS))
@pytest.mark.parametrize("command", ["replay", "run"])
def test_a_codec_that_raises_on_a_logged_record_exits_3_naming_its_seq(
    command, codec, tmp_path, capsys
):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart", "MarkCartAsPaid"])
    log, manifest = tmp_path / "log.jsonl", tmp_path / "log.jsonl.crem"
    assert cli.main(["run", "cart", "--input", commands, "--log", str(log)]) == 0
    manifest.unlink()  # so a resume re-runs every record
    before = log.read_bytes()
    capsys.readouterr()
    argv = [command, "cart", "--log", str(log)]
    if command == "run":
        argv += ["--input", commands]
    code = cli.main(argv, refusing(codec, CULPRITS[codec], KeyError))
    if codec != "encode_input":
        assert (code, capsys.readouterr()) == (
            3, ("", f"error: seq 1: {codec} raised KeyError: 'boom'\n")
        )
        assert (log.read_bytes(), manifest.exists()) == (before, False)
    elif command == "replay":  # checking a record never encodes its input
        assert (code, capsys.readouterr()) == (0, ("", ""))
    else:  # the resume checks every record, then fails on a new command's line
        assert (code, capsys.readouterr()) == (
            3, ("[]\n", "error: line 2: encode_input raised KeyError: 'boom'\n")
        )
        after = b'{"input": "PayCart", "outputs": [], "seq": 2}\n'
        assert log.read_bytes() == before + after
        assert cli.main(["replay", "cart", "--log", str(log)]) == 0


@pytest.mark.parametrize("lazy", [False, True], ids=["list", "generator"])
def test_a_step_that_raises_keeps_its_exception(lazy, tmp_path, capsys):
    def act(state, value):
        def outputs():  # as a generator, this runs only when the CLI reads the outputs
            if value == "codec":
                raise cli.CodecError("refused by the step")
            if value != "ok":
                raise KeyError(value)
            yield value

        return StepResult(outputs() if lazy else list(outputs()), state)

    def factory():
        return Basic(BaseMachine("strict", Topology((("s", ()),)), MachineState("s"), act))

    registry = {"strict": cli.RegistryEntry(factory, str.strip, str, str)}
    commands = write_commands(tmp_path / "cmds.txt", ["ok", "codec"])
    assert cli.main(["run", "strict", "--input", commands], registry) == 3
    assert capsys.readouterr() == ("[ok]\n", "error: line 2: refused by the step\n")
    commands = write_commands(tmp_path / "cmds.txt", ["other"])
    with pytest.raises(KeyError):  # not a codec's fault: no exit code claims it
        cli.main(["run", "strict", "--input", commands], registry)
    # replay steps by the same rule, naming the seq
    log = tmp_path / "log.jsonl"
    for value, outcome in [("codec", 3), ("other", KeyError)]:
        log.write_text(f'{{"input": "{value}", "outputs": [], "seq": 0}}\n', encoding="utf-8")
        if outcome == 3:
            assert cli.main(["replay", "strict", "--log", str(log)], registry) == 3
            assert capsys.readouterr().err == "error: seq 0: refused by the step\n"
        else:
            with pytest.raises(KeyError):
                cli.main(["replay", "strict", "--log", str(log)], registry)


def faulty(fault):
    """A one-vertex registry machine ``echo`` whose input ``bad`` meets ``fault``: in its
    step, eagerly or while its lazy outputs are read, or in the output ``bad``'s encoder."""
    def act(state, value):
        def outputs():
            if value == "bad" and fault == "step-lazy":
                raise cli.CodecError("refused by the step")
            yield value

        if value == "bad" and fault == "step-eager":
            raise cli.CodecError("refused by the step")
        return StepResult(outputs() if fault == "step-lazy" else [value], state)

    def encode_output(value):
        if value != "bad":
            return value
        if fault == "codec-CodecError":
            raise cli.CodecError("cannot encode 'bad'")
        if fault == "codec-KeyError":
            raise KeyError(value)
        return 1 if fault == "codec-int" else value

    def factory():
        return Basic(BaseMachine("echo", Topology((("s", ()),)), MachineState("s"), act))

    return {"echo": cli.RegistryEntry(factory, str.strip, str, encode_output)}


# what each fault of ``faulty`` reports after the ``line N: `` or ``seq N: `` that names it
FAULTS = {
    "codec-CodecError": "cannot encode 'bad'",
    "codec-KeyError": "encode_output raised KeyError: 'bad'",
    "codec-int": "encode_output returned int 1, not a str",
    "step-eager": "refused by the step",
    "step-lazy": "refused by the step",
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("command", ["run", "resume", "replay"])
def test_run_resume_and_replay_step_and_encode_by_one_rule(command, fault, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["ok", "bad"])
    log = tmp_path / "log.jsonl"
    logged = (
        b'{"input": "ok", "outputs": ["ok"], "seq": 0}\n'
        b'{"input": "bad", "outputs": ["bad"], "seq": 1}\n'
    )
    if command == "run":
        argv, where, out = ["run", "echo", "--input", commands], "line 2", "[ok]\n"
    else:  # the record of "bad" is seq 1; with no manifest, a resume checks it as replay does
        log.write_bytes(logged)
        argv, where, out = [command, "echo", "--log", str(log)], "seq 1", ""
        if command == "resume":
            argv[0:1] = ["run"]
            argv += ["--input", commands]
    assert cli.main(argv, faulty(fault)) == 3
    assert capsys.readouterr() == (out, f"error: {where}: {FAULTS[fault]}\n")
    if command != "run":  # the log is left as it was, and no manifest vouches for it
        assert (log.read_bytes(), log.with_name("log.jsonl.crem").exists()) == (logged, False)


def test_an_output_fault_is_reported_before_an_input_fault(tmp_path, capsys):
    entry = faulty("codec-int")["echo"]

    def encode_input(value):
        raise KeyError(value)

    commands = write_commands(tmp_path / "cmds.txt", ["bad"])
    registry = {"echo": replace(entry, encode_input=encode_input)}
    assert cli.main(["run", "echo", "--input", commands], registry) == 3
    assert capsys.readouterr() == ("", "error: line 1: encode_output returned int 1, not a str\n")


ENUMS =[CartCommand, CartEvent, CartView, ShippingCommand, ShippingEvent, ShippingInfo]


@pytest.mark.parametrize("enum_cls", ENUMS, ids=[enum.__name__ for enum in ENUMS])
def test_enum_codecs_agree_with_enum_lookup_and_name(enum_cls):
    decode = cart._enum_decoder(enum_cls)
    for member in enum_cls:
        assert decode(member.name) is enum_cls[member.name]
        assert decode(f" {member.name}\t") is member
        assert cart._encode_enum(member) == member.name
        assert cart._encode_side(Left(member)) == f"cart {member.name}"
        assert cart._encode_side(Right(member)) == f"ship {member.name}"
    for name in ("name", "value", "mro", "_member_map_", "__class__", member.name.lower()):
        with pytest.raises(KeyError):
            enum_cls[name]
        with pytest.raises(cli.CodecError) as error:
            decode(name)
        assert str(error.value) == f"{name!r} is not a {enum_cls.__name__}"


def test_every_registered_command_decodes_as_enum_lookup():
    registry = cli.default_registry()
    for machine, enum_cls in [("cart", CartCommand), ("whole-cart-domain", CartCommand),
                              ("shipping", ShippingCommand)]:
        for member in enum_cls:
            assert registry[machine].decode_input(member.name) is enum_cls[member.name]
    for tag, side, enum_cls in [("cart", Left, CartCommand), ("ship", Right, ShippingCommand)]:
        for member in enum_cls:
            decoded = registry["cart-and-shipping"].decode_input(f"{tag} {member.name}")
            assert type(decoded) is side and decoded.value is enum_cls[member.name]


def test_a_tagged_command_decodes_to_one_object_equal_to_a_fresh_one():
    for tag, side, enum_cls in [("cart", Left, CartCommand), ("ship", Right, ShippingCommand)]:
        for member in enum_cls:
            decoded = cart._decode_side(f"{tag} {member.name}")
            assert cart._decode_side(f"  {tag}\t{member.name} \r") is decoded
            fresh = side(member)
            assert decoded == fresh and fresh == decoded
            assert (hash(decoded), repr(decoded)) == (hash(fresh), repr(fresh))


# quotes, backslashes, control and line-separator characters, and non-ASCII ones
TRICKY = st.sampled_from(list('"\\\x00\x1f\x7f\t\r\x85\u2028\u2029é\U0001f600'))
TEXT = st.text(TRICKY | st.characters(exclude_categories=("Cs",), exclude_characters="\n"))


def echo_entry(table):
    """A one-vertex machine whose outputs are ``table[text]``, every codec the identity."""

    def same(text):
        return text

    def act(state, text):
        return StepResult(table[text], state)

    def factory():
        return Basic(BaseMachine("echo", Topology((("s", ()),)), MachineState("s"), act))

    return cli.RegistryEntry(factory, same, same, same)


@settings(max_examples=60, deadline=None)
@given(
    table=st.dictionaries(
        TEXT.filter(lambda text: text.strip() and not text.strip().startswith("#")),
        st.lists(TEXT | st.just("\n"), max_size=3),
        min_size=1,
    ),
    data=st.data(),
)
def test_run_writes_each_record_as_sorted_key_json_dumps(table, data):
    commands = data.draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=8))
    echo = echo_entry(table)
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        source = Path(scratch, "cmds.txt")
        source.write_bytes("".join(f"{text}\n" for text in commands).encode("utf-8"))
        log = Path(scratch, "log.jsonl")
        argv = ["run", "echo", "--input", str(source), "--log", str(log)]
        assert cli.main(argv, {"echo": echo}) == 0
        expected = [
            json.dumps({"seq": seq, "input": text, "outputs": table[text]}, sort_keys=True) + "\n"
            for seq, text in enumerate(commands)
        ]
        assert log.read_bytes() == "".join(expected).encode("ascii")
        assert cli.main(["replay", "echo", "--log", str(log)], {"echo": echo}) == 0


@pytest.mark.parametrize(
    "machine,lines",
    [
        ("cart", [c.name for c in CartCommand]),
        ("whole-cart-domain", [c.name for c in CartCommand]),
        ("shipping", [c.name for c in ShippingCommand]),
        (
            "cart-and-shipping",
            [f"cart {c.name}" for c in CartCommand]
            + [f"ship {c.name}" for c in ShippingCommand],
        ),
    ],
)
def test_codec_round_trip_is_canonical(machine, lines):
    entry = cli.default_registry()[machine]
    for line in lines:
        assert entry.encode_input(entry.decode_input(line)) == line
        # decoding is forgiving about surrounding whitespace
        assert entry.encode_input(entry.decode_input(f"  {line}  ")) == line


def test_encoding_an_unknown_value_is_a_codec_error():
    entry = cli.default_registry()["cart-and-shipping"]
    with pytest.raises(cli.CodecError) as err:
        entry.encode_output(5)
    assert str(err.value) == "cannot encode 5"


def test_run_round_trip_for_every_registered_machine(tmp_path, capsys):
    inputs = {
        "cart": ["PayCart", "MarkCartAsPaid", "PayCart"],
        "shipping": ["StartShipping", "MarkAsDelivered"],
        "whole-cart-domain": ["PayCart", "MarkCartAsPaid"],
        "cart-and-shipping": ["cart PayCart", "ship MarkAsDelivered"],
    }
    for name, lines in inputs.items():
        commands = write_commands(tmp_path / f"{name}.txt", lines)
        log = tmp_path / f"{name}.jsonl"
        assert cli.main(["run", name, "--input", commands, "--log", str(log)]) == 0
        assert cli.main(["replay", name, "--log", str(log)]) == 0
    capsys.readouterr()


def test_run_output_is_deterministic(tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["cart PayCart", "ship StartShipping"])
    assert cli.main(["run", "cart-and-shipping", "--input", commands]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "cart-and-shipping", "--input", commands]) == 0
    assert capsys.readouterr().out == first


# -- one parser per process ----------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Drop the kept parser before and after the test, so the next one builds anew."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_is_built_once(fresh_parser, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    assert cli.main(["list"]) == 0
    assert cli.main(["run", "cart", "--input", commands]) == 0
    assert cli.main(["render", "cart"]) == 0
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()


HANDLERS = ("_cmd_list", "_cmd_render", "_cmd_run", "_cmd_replay")


@contextlib.contextmanager
def recording_parser():
    """Keep a parser whose handlers record the namespace they get and return 0."""
    seen = []

    def recorder(name):
        def record(args, registry):
            seen.append(args)
            return 0

        record.__name__ = name
        return record

    cli._parser.cache_clear()
    with contextlib.ExitStack() as stack:
        stack.callback(cli._parser.cache_clear)
        for name in HANDLERS:
            stack.enter_context(mock.patch.object(cli, name, recorder(name)))
        cli._parser()
        yield seen


def parsed(parse, argv):
    """``(exit code, stdout, stderr, namespace or None)`` of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, args = parse(argv)
    return code, out.getvalue(), err.getvalue(), args


def by_main(seen):
    def parse(argv):
        code = cli.main(argv)
        return code, seen.pop() if seen else None

    return parse


def by_parse_args(argv):
    try:
        return 0, cli._parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, None


def assert_parses_as_parse_args(seen, argv):
    assert parsed(by_main(seen), argv) == parsed(by_parse_args, argv)
    assert seen == []


ARGV_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["frobnicate"],
    ["run", "-h"],
    ["run", "cart"],
    ["run", "cart", "--input", "x", "--feedback-cap", "x"],
    ["run", "cart", "--input", "x", "--bogus"],
    ["run", "cart", "--bogus", "--input", "x", "extra"],
    ["render", "cart", "--format", "svg"],
    ["render", "cart", "--format", "mermaid", "--mode", "base", "--out", "o"],
    ["list"],
    ["list", "extra"],
    ["replay", "cart", "--log", "l", "--feedback-cap", "2"],
    ["run", "cart", "--input=x", "--log", "l"],
    ["run", "cart", "--inp", "x"],
    ["run", "--", "cart", "--input", "x"],
    ["-h", "run"],
    ["--", "run", "cart", "--input", "x"],
]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_parse_args(argv):
    with recording_parser() as seen:
        assert_parses_as_parse_args(seen, argv)


ARGV_TOKENS = st.sampled_from([
    "run", "render", "replay", "list", "cart", "nosuch", "--input", "--input=x", "--inp", "x",
    "-", "--log", "--feedback-cap", "3", "--format", "svg", "dot", "--mode", "flow", "--out",
    "-h", "--help", "--", "--bogus",
])


@settings(max_examples=300, deadline=None)
@given(argv=st.lists(ARGV_TOKENS, max_size=7))
def test_main_parses_any_argv_as_parse_args(argv):
    with recording_parser() as seen:
        assert_parses_as_parse_args(seen, argv)


def test_no_argument_leaks_between_calls(fresh_parser, tmp_path, capsys):
    commands = write_commands(tmp_path / "cmds.txt", ["PayCart"])
    run = ["run", "whole-cart-domain", "--input", commands]
    assert cli.main([*run, "--feedback-cap", "3"]) == 5
    assert capsys.readouterr().err == (
        "error: feedback loop exceeded 3 iterations without settling\n"
    )
    assert cli.main(run) == 0
    assert capsys.readouterr() == ("[PaymentInProgress, PaymentDone]\n", "")

    out = tmp_path / "cart.dot"
    assert cli.main(["render", "cart", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["render", "cart"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")
