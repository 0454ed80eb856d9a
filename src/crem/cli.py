"""Command line driver: list machines, render diagrams, run traces, replay logs.

Input files carry one encoded command per line; blank lines and ``#``
comments are skipped. With ``--log``, each processed input appends one
record to a JSONL event log, which ``replay`` later re-runs against a
fresh machine to verify that every logged output regenerates exactly.
A ``run`` on an existing log resumes it the same way: every logged record
is re-run and checked before anything new is appended. A log is checked in
one pass, record by record, so its first fault in file order decides the
exit code.

Exit codes are part of the contract: 0 ok, 2 usage or unknown machine,
3 codec or log problems, 4 topology violation, 5 feedback overflow,
6 log divergence (on ``replay``, or when ``run`` resumes a log), printed on
stdout. The table ``_EXIT_CODES`` holds the rest of that contract: each
failure it names prints one ``error:`` line on stderr.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import cart as cart_domain
from .cart import CartCommand, ShippingCommand
from .compose import DEFAULT_CONFIG, Basic, FeedbackOverflow, Left, Right, RunConfig, StateMachine
from .machine import DisallowedTransition
from .render import FORMATS, render_base, render_flow

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CODEC = 3
EXIT_TOPOLOGY = 4
EXIT_FEEDBACK = 5
EXIT_DIVERGED = 6

ENV_FEEDBACK_CAP = "CREM_FEEDBACK_CAP"


class CodecError(ValueError):
    """A line of input text could not be decoded for the chosen machine."""


class MalformedLog(CodecError):
    """An event log file violated the record schema."""

    def __init__(self, message: str) -> None:
        super().__init__(f"malformed log: {message}")


class _UsageError(ValueError):
    pass


class _Diverged(Exception):
    """A logged record's outputs did not regenerate exactly."""


@dataclass(frozen=True)
class RegistryEntry:
    """A runnable machine: fresh-instance factory plus text codecs."""

    factory: Callable[[], StateMachine]
    decode_input: Callable[[str], Any]
    encode_input: Callable[[Any], str]
    encode_output: Callable[[Any], str]


def _enum_decoder(enum_cls):
    def decode(text: str):
        name = text.strip()
        try:
            return enum_cls[name]
        except KeyError:
            raise CodecError(f"{name!r} is not a {enum_cls.__name__}") from None

    return decode


def _encode_enum(value) -> str:
    return value.name


_SIDES = {
    "cart": (Left, _enum_decoder(CartCommand)),
    "ship": (Right, _enum_decoder(ShippingCommand)),
}


def _decode_side(text: str):
    parts = text.split()
    if len(parts) != 2 or parts[0] not in _SIDES:
        raise CodecError(
            f"expected 'cart <CartCommand>' or 'ship <ShippingCommand>', got {text.strip()!r}"
        )
    wrapper, decode = _SIDES[parts[0]]
    return wrapper(decode(parts[1]))


def _encode_side(value) -> str:
    for tag, (wrapper, _) in _SIDES.items():
        if isinstance(value, wrapper):
            return f"{tag} {value.value.name}"
    raise CodecError(f"cannot encode {value!r}")


def default_registry() -> dict[str, RegistryEntry]:
    def enum_coded(factory, enum_cls) -> RegistryEntry:
        return RegistryEntry(factory, _enum_decoder(enum_cls), _encode_enum, _encode_enum)

    return {
        "cart": enum_coded(cart_domain.cart, CartCommand),
        "shipping": enum_coded(cart_domain.shipping, ShippingCommand),
        "whole-cart-domain": enum_coded(cart_domain.whole_cart_domain, CartCommand),
        "cart-and-shipping": RegistryEntry(
            cart_domain.cart_and_shipping,
            _decode_side,
            _encode_side,
            _encode_side,
        ),
    }


def _lookup(registry: Mapping[str, RegistryEntry], name: str) -> RegistryEntry:
    try:
        return registry[name]
    except KeyError:
        raise _UsageError(f"unknown machine {name!r}") from None


def _run_config(flag: int | None) -> RunConfig:
    """``--feedback-cap``, else the environment, else the default; RunConfig checks it."""
    if flag is not None:
        cap = flag
    else:
        raw = os.environ.get(ENV_FEEDBACK_CAP)
        if raw is None:
            return DEFAULT_CONFIG
        try:
            cap = int(raw)
        except ValueError:
            raise _UsageError(f"{ENV_FEEDBACK_CAP} must be an integer, got {raw!r}") from None
    try:
        return RunConfig(feedback_cap=cap)
    except ValueError as error:
        raise _UsageError(str(error)) from None


def _read_command_lines(source: str) -> list[tuple[int, str]]:
    try:
        raw = sys.stdin.read() if source == "-" else Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"input is not valid UTF-8: {error}") from None
    lines = []
    for number, text in enumerate(raw.splitlines(), start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((number, text))
    return lines


def _cmd_list(args, registry) -> int:
    for name in sorted(registry):
        print(name)
    return EXIT_OK


def _cmd_render(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    tree = entry.factory()
    if args.mode == "base":
        if not isinstance(tree, Basic):
            raise _UsageError(
                f"machine {args.machine!r} is composed; base mode works only "
                "for single machines (use --mode flow)"
            )
        diagram = render_base(tree.machine, args.format)
    else:
        diagram = render_flow(tree, args.format)
    if args.out is None:
        sys.stdout.write(diagram.text)
    else:
        Path(args.out).write_text(diagram.text, encoding="utf-8")
    return EXIT_OK


def _replay(machine: StateMachine, path: Path, entry, config) -> tuple[StateMachine, int]:
    """Check and re-run the log at ``path`` in one pass, record by record.

    Each line is parsed, checked, stepped and compared before the next, so
    the first fault in file order is the one raised. Returns the machine
    after the last record, where new records continue, and the record count.
    """
    try:
        # a byte that is not UTF-8 becomes a lone surrogate, caught on its line
        raw = path.read_text(encoding="utf-8", errors="surrogateescape")
    except OSError as error:
        raise MalformedLog(f"cannot read log {path}: {error}") from error
    seq = 0
    for number, text in enumerate(raw.splitlines(), start=1):
        try:
            text.encode("utf-8")
            record = json.loads(text)
        except UnicodeEncodeError:
            raise MalformedLog(f"line {number}: not valid UTF-8") from None
        except json.JSONDecodeError as error:
            raise MalformedLog(f"line {number}: not valid JSON: {error}") from None
        if (
            not isinstance(record, dict)
            or set(record) != {"seq", "input", "outputs"}
            or type(record["seq"]) is not int
            or not isinstance(record["input"], str)
            or not isinstance(record["outputs"], list)
            or not all(isinstance(item, str) for item in record["outputs"])
        ):
            raise MalformedLog(f"line {number}: not a valid event record")
        if record["seq"] != seq:
            raise MalformedLog(f"line {number}: expected seq {seq}, found {record['seq']}")
        try:
            value = entry.decode_input(record["input"])
        except CodecError as error:
            raise MalformedLog(f"seq {seq}: {error}") from error
        outputs, machine = machine.step(value, config)
        encoded = [entry.encode_output(item) for item in outputs]
        if encoded != record["outputs"]:
            raise _Diverged(
                f"replay diverged at seq {seq}: "
                f"logged {record['outputs']}, regenerated {encoded}"
            )
        seq += 1
    return machine, seq


def _cmd_run(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    config = _run_config(args.feedback_cap)
    machine = entry.factory()
    lines = _read_command_lines(args.input)

    seq = 0
    log_path = Path(args.log) if args.log else None
    if log_path is not None and log_path.exists():
        machine, seq = _replay(machine, log_path, entry, config)

    with log_path.open("a+b") if log_path else nullcontext() as log_handle:
        if seq:  # never glue a record onto an unterminated last line
            log_handle.seek(-1, os.SEEK_END)
            if log_handle.read(1) != b"\n":
                log_handle.write(b"\n")
        for number, text in lines:
            try:
                value = entry.decode_input(text)
            except CodecError as error:
                raise CodecError(f"line {number}: {error}") from None
            outputs, machine = machine.step(value, config)
            encoded = [entry.encode_output(item) for item in outputs]
            print(f"[{', '.join(encoded)}]")
            if log_handle is not None:
                record = {
                    "seq": seq,
                    "input": entry.encode_input(value),
                    "outputs": encoded,
                }
                log_handle.write(json.dumps(record, sort_keys=True).encode() + b"\n")
                log_handle.flush()
                seq += 1
    return EXIT_OK


def _cmd_replay(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    _replay(entry.factory(), Path(args.log), entry, _run_config(args.feedback_cap))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crem",
        description="Run, render and replay composed state machines.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered machines")
    list_parser.set_defaults(handler=_cmd_list)

    render_parser = commands.add_parser("render", help="emit a diagram")
    render_parser.add_argument("machine")
    render_parser.add_argument("--format", choices=FORMATS, default="dot")
    render_parser.add_argument("--mode", choices=["base", "flow"], default="flow")
    render_parser.add_argument("--out", default=None, help="output path (default stdout)")
    render_parser.set_defaults(handler=_cmd_render)

    run_parser = commands.add_parser("run", help="feed a command file to a machine")
    run_parser.add_argument("machine")
    run_parser.add_argument("--input", required=True, help="command file, or - for stdin")
    run_parser.add_argument("--log", default=None, help="append event records to this file")
    run_parser.add_argument("--feedback-cap", type=int, default=None)
    run_parser.set_defaults(handler=_cmd_run)

    replay_parser = commands.add_parser("replay", help="verify a log regenerates exactly")
    replay_parser.add_argument("machine")
    replay_parser.add_argument("--log", required=True)
    replay_parser.add_argument("--feedback-cap", type=int, default=None)
    replay_parser.set_defaults(handler=_cmd_replay)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use and kept for the process."""
    return _build_parser()


# a subclass, such as MalformedLog of CodecError, takes its nearest listed base's code
_EXIT_CODES: dict[type[Exception], int] = {
    _UsageError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    CodecError: EXIT_CODEC,
    DisallowedTransition: EXIT_TOPOLOGY,
    FeedbackOverflow: EXIT_FEEDBACK,
}


def main(
    argv: Sequence[str] | None = None,
    registry: Mapping[str, RegistryEntry] | None = None,
) -> int:
    if registry is None:
        registry = default_registry()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args, registry)
    except _Diverged as error:
        print(error)
        return EXIT_DIVERGED
    except tuple(_EXIT_CODES) as error:
        print(f"error: {error}", file=sys.stderr)
        return next(_EXIT_CODES[kind] for kind in type(error).__mro__ if kind in _EXIT_CODES)


def script_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    script_main()
