"""The log check's one decode and one scan against the per-line loop it replaced.

``eventlog._replay`` decodes a log once and scans the text with ``json``'s own
``raw_decode``, falling back to ``json.loads`` on one line alone wherever the
scan does not end exactly at that line's end. ``per_line_replay`` below is
the loop it replaced, which decoded and parsed each line on its own, kept as
the reference; its one change is that JSON nested too deeply to parse is
judged as any other line that is not valid JSON. On logs mutated in every
way the two could part (a record split over lines or two on one line,
padding, a byte order mark, bytes that are not UTF-8, numbers json accepts
or refuses, duplicate keys, deep nesting, torn tails), both return the same
triple or raise the same type with the same message.
"""

from __future__ import annotations

import json
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crem import cli, eventlog
from crem.eventlog import CodecError, Diverged, MalformedLog, _codec_failed
from crem_harness import VOCABULARY

REGISTRY = cli.default_registry()
COMMANDS = {machine: VOCABULARY[machine] for machine in ("cart", "cart-and-shipping")}


def per_line_replay(machine, log, entry, config, seq=0):
    """The reference: each line decoded and parsed alone, then checked and stepped."""
    *lines, tail = log.split(b"\n")
    for index, line in enumerate([*lines, tail] if tail else lines):
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            if index == len(lines):
                return machine, seq, line
            if isinstance(error, UnicodeDecodeError):
                raise MalformedLog(f"line {seq + 1}: not valid UTF-8") from None
            raise MalformedLog(f"line {seq + 1}: not valid JSON: {error}") from None
        if (
            not isinstance(record, dict)
            or set(record) != {"seq", "input", "outputs"}
            or type(record["seq"]) is not int
            or not isinstance(record["input"], str)
            or not isinstance(record["outputs"], list)
            or not all(isinstance(item, str) for item in record["outputs"])
        ):
            raise MalformedLog(f"line {seq + 1}: not a valid event record")
        if record["seq"] != seq:
            raise MalformedLog(f"line {seq + 1}: expected seq {seq}, found {record['seq']}")
        try:
            value = entry.decode_input(record["input"])
        except CodecError as error:
            raise MalformedLog(f"seq {seq}: {error}") from error
        except Exception as error:
            raise _codec_failed(f"seq {seq}", "decode_input", error) from error
        outputs, machine = machine.step(value, config)
        if not isinstance(outputs, list):
            outputs = list(outputs)
        try:
            encoded = [entry.encode_output(item) for item in outputs]
        except Exception as error:
            raise _codec_failed(f"seq {seq}", "encode_output", error) from error
        if encoded != record["outputs"]:
            raise Diverged(
                f"replay diverged at seq {seq}: "
                f"logged {record['outputs']}, regenerated {encoded}"
            )
        seq += 1
    return machine, seq, b""


def records(machine: str, commands: list[str]) -> list[bytes]:
    """The lines ``run --log`` writes for ``commands``, without their newlines."""
    entry = REGISTRY[machine]
    tree, lines = entry.factory(), []
    for seq, command in enumerate(commands):
        value = entry.decode_input(command)
        outputs, tree = tree.step(value)
        record = {
            "input": entry.encode_input(value),
            "outputs": [entry.encode_output(item) for item in outputs],
            "seq": seq,
        }
        lines.append(json.dumps(record, sort_keys=True).encode())
    return lines


def outcome(replay, machine: str, commands: list[str], skip: int, log: bytes):
    """What ``replay`` makes of ``log``, the records from ``skip`` on, resumed after the
    first ``skip`` commands: its triple, with the tree as its leaves' names and states,
    or the type and message of what it raised."""
    entry = REGISTRY[machine]
    tree = entry.factory()
    for command in commands[:skip]:
        _, tree = tree.step(entry.decode_input(command))
    try:
        tree, seq, torn = replay(tree, log, entry, cli.DEFAULT_CONFIG, skip)
    except Exception as error:
        return type(error), str(error)
    return [(leaf.name, leaf.state) for leaf in tree.leaves()], seq, torn


# -- mutations: each takes a draw and the log's lines, and returns new lines ---------

SEQ = re.compile(rb'"seq": -?[0-9]+')
NUMBERS = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1" * 5000, b"0.0", b"-0", b"true"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf0\x9f\x98", b"\xc0\xaf"]
SPACE = st.text(" \t\r", max_size=3).map(str.encode)


def split(draw, lines, i):
    line = lines[i]
    # at a JSON whitespace boundary the halves still scan as one object across the newline
    cuts = [m.end() for m in re.finditer(rb", |: ", line)] or [len(line) // 2]
    cut = draw(st.sampled_from(cuts) | st.integers(0, len(line)))
    return lines[:i] + [line[:cut], line[cut:]] + lines[i + 1:]


def join(draw, lines, i):
    if i + 1 == len(lines):
        return lines
    glue = draw(st.sampled_from([b"", b" ", b"\t", b"\r"]))
    return lines[:i] + [lines[i] + glue + lines[i + 1]] + lines[i + 2:]


def pad(draw, lines, i):
    return lines[:i] + [draw(SPACE) + lines[i] + draw(SPACE)] + lines[i + 1:]


def bom(draw, lines, i):
    return lines[:i] + [b"\xef\xbb\xbf" + lines[i]] + lines[i + 1:]


def not_utf8(draw, lines, i):
    at = draw(st.integers(0, len(lines[i])))
    bad = draw(st.sampled_from(NOT_UTF8))
    return lines[:i] + [lines[i][:at] + bad + lines[i][at:]] + lines[i + 1:]


def number(draw, lines, i):
    value = draw(st.sampled_from(NUMBERS))
    return lines[:i] + [SEQ.sub(b'"seq": ' + value, lines[i])] + lines[i + 1:]


def duplicate_key(draw, lines, i):
    # json keeps the last of two equal keys: the record's own one, or the one put after it
    key = draw(st.sampled_from([b'"seq": 7', b'"input": "PayCart"', b'"outputs": []']))
    line = lines[i]
    line = b"{" + key + b", " + line[1:] if draw(st.booleans()) else line[:-1] + b", " + key + b"}"
    return lines[:i] + [line] + lines[i + 1:]


def deep(draw, lines, i):
    nest = b"[" * draw(st.sampled_from([3, 100_000]))
    line = draw(st.sampled_from([nest, lines[i].replace(b'"outputs": [', b'"outputs": [' + nest)]))
    return lines[:i] + [line] + lines[i + 1:]


def edit(draw, lines, i):
    line = draw(st.sampled_from([
        lines[i].replace(b'"outputs": [', b'"outputs": ["X", '),  # diverges
        lines[i].replace(b'"input": "', b'"input": "Bogus'),  # no command
        lines[i].replace(b'"seq": ', b'"seq": 1'),  # another seq
        lines[i].replace(b'"input"', b'"inputs"'),  # another key
        b"",
        b"7",
    ]))
    return lines[:i] + [line] + lines[i + 1:]


MUTATIONS = [split, join, pad, bom, not_utf8, number, duplicate_key, deep, edit]


@st.composite
def mutated_logs(draw):
    machine = draw(st.sampled_from(sorted(COMMANDS)))
    commands = draw(st.lists(st.sampled_from(COMMANDS[machine]), max_size=6))
    skip = draw(st.integers(0, len(commands)))
    lines = records(machine, commands)[skip:]
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if lines:
            lines = mutate(draw, lines, draw(st.integers(0, len(lines) - 1)))
    log = b"".join(line + b"\n" for line in lines)
    if lines and draw(st.booleans()):  # a torn tail: the last line cut short, its newline gone
        log = log[: draw(st.integers(len(log) - len(lines[-1]) - 1, len(log) - 1))]
    return machine, commands, skip, log


CART_COMMANDS = ["PayCart", "MarkCartAsPaid", "PayCart"]
PAY, MARK, AGAIN = records("cart", CART_COMMANDS)


def cart_log(*lines: bytes, tail: bytes = b"") -> tuple:
    return "cart", CART_COMMANDS, 0, b"".join(line + b"\n" for line in lines) + tail


@settings(max_examples=400, deadline=None)
@given(mutated_logs())
@example(cart_log(PAY, MARK, AGAIN))
@example(cart_log(PAY, MARK, tail=AGAIN))  # an unterminated record
@example(cart_log(PAY[:9], PAY[9:], MARK))  # an object split across lines at ", "
@example(cart_log(PAY[:30], PAY[30:]))  # split inside a string
@example(cart_log(PAY + MARK))  # two objects on one line
@example(cart_log(PAY + b" " + MARK, AGAIN))
@example(cart_log(b"  " + PAY + b" \t\r", MARK))  # a padded line is accepted
@example(cart_log(PAY, b"", MARK))  # an empty line
@example(cart_log(b"\xef\xbb\xbf" + PAY))  # a byte order mark
@example(cart_log(PAY, b"\xff" + MARK, AGAIN))  # not UTF-8 on a line
@example(cart_log(PAY, MARK + b"\xc3"))  # a truncated sequence at a line's end
@example(cart_log(PAY, MARK, tail=b'{"input": "\xff'))  # not UTF-8 in the tail
@example(cart_log(PAY, b"\xff", tail=b"\xff"))  # not UTF-8 on a line and in the tail
@example(cart_log(PAY.replace(b'"seq": 0', b'"seq": NaN')))
@example(cart_log(PAY.replace(b'"seq": 0', b'"seq": 1e999')))
@example(cart_log(PAY, MARK.replace(b'"seq": 1', b'"seq": ' + b"1" * 5000)))  # past the digits
@example(cart_log(b'{"seq": 5, ' + PAY[1:]))  # a duplicate key: the last one counts
@example(cart_log(PAY[:-1] + b', "seq": 5}'))
@example(cart_log(PAY, b"[" * 100_000, MARK))  # nested past the recursion limit
@example(cart_log(PAY.replace(b'"outputs": [', b'"outputs": [' + b"[" * 100_000)))
@example(cart_log(PAY, tail=b"[" * 100_000))
@example(cart_log(PAY, tail=MARK[:12]))  # torn tails
@example(cart_log(tail=PAY[:-1]))
@example(cart_log(PAY, MARK, tail=b"{"))
@example(cart_log(PAY, tail=b" "))
@example(cart_log(PAY.replace(b'"input"', b'"inputs"')))  # no record: another key
@example(cart_log(PAY[:-1] + b', "extra": 1}'))
@example(cart_log(PAY.replace(b'"CartPaymentInitiated"', b"7")))
@example(cart_log(b'["input", "outputs", "seq"]'))
@example(cart_log(PAY.replace(b"Initiated", b"Completed"), b"not json"))  # divergence first
@example(("cart", CART_COMMANDS, 1, MARK + b"\n" + AGAIN + b"\n"))  # a resume at seq 1
@example(("cart", CART_COMMANDS, 1, PAY + b"\n"))  # a resume that expects seq 1
def test_the_scan_judges_a_log_as_the_per_line_loop_does(case):
    machine, commands, skip, log = case
    assert outcome(eventlog._replay, machine, commands, skip, log) == outcome(
        per_line_replay, machine, commands, skip, log
    )
