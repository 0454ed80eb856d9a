"""Command line driver: list machines, render diagrams, run traces, replay logs.

The README's "The command line" section is the contract this module keeps:
the command-file format and exit codes (``crem.eventlog`` keeps the log's).
``_EXIT_CODES`` maps each failure to its exit code and one ``error:`` line
on stderr; a divergence (exit 6) prints on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from functools import cache
from typing import Any, Callable, Mapping, NoReturn, Sequence

from . import cart as cart_domain
from . import eventlog
from .compose import DEFAULT_CONFIG, Basic, FeedbackOverflow, RunConfig
from .eventlog import CodecError, Diverged, RegistryEntry
from .machine import DisallowedTransition
from .render import FORMATS, render_base, render_flow

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CODEC = 3
EXIT_TOPOLOGY = 4
EXIT_FEEDBACK = 5
EXIT_DIVERGED = 6

ENV_FEEDBACK_CAP = "CREM_FEEDBACK_CAP"

default_registry = cart_domain.registry  # the machines ``main`` knows when given no registry


class _UsageError(ValueError):
    pass


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
    """The numbered command lines of ``source``; a line ends at ``"\n"`` only, as in the log."""
    if source != "-":
        with open(source, "rb") as handle:
            data = handle.read()
    elif sys.stdin is None:  # a closed stdin (`<&-`)
        raise _UsageError("--input -: there is no stdin to read")
    else:
        data = sys.stdin.buffer.read()
    try:  # stdin too is read as bytes: text's universal newlines end a line at a lone "\r"
        raw = data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"input is not valid UTF-8: {error}") from None
    lines = []
    for number, text in enumerate(raw.split("\n"), start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((number, text))
    return lines


def _write_nothing(text: str) -> None:
    pass


def _writer(stream: str) -> Callable[[str], Any]:
    """The ``write`` of the stream that is ``sys.stdout`` or ``sys.stderr`` now, as
    ``stream`` names it, or, when there is none (a closed stream), one that writes nothing.

    Every line the CLI writes goes through it, argparse's through ``_Parser``, by one of two
    rules. Output (``list``'s names, a diagram, ``run``'s lines, help) is written by the
    ``write`` it returns, bound once per command; a write that fails raises ``OSError``,
    exit 2. A report line (an ``error:`` line or a usage error on stderr, the torn-tail
    ``warning:`` line, a divergence on stdout) goes through ``_report``, which drops it if
    its write fails, so it never changes the exit code or stops a run, and is never sent to
    the other stream. A buffered stream may fail only when Python flushes it at exit, which
    would exit 120: ``script_main`` flushes both streams first, by the same two rules.
    """
    out = getattr(sys, stream)
    return _write_nothing if out is None else out.write


def _report(line: str, stream: str = "stderr") -> None:
    """Write the report ``line`` to ``stream``, or drop it if it cannot be written."""
    with suppress(OSError):
        _writer(stream)(f"{line}\n")


def _cmd_list(args, registry) -> int:
    write = _writer("stdout")
    for name in sorted(registry):
        write(f"{name}\n")
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
        _writer("stdout")(diagram.text)
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(diagram.text)
    return EXIT_OK


def _cmd_run(args, registry) -> int:
    """Run the command file; with ``--log``, append to that log by ``eventlog.open_log``."""
    entry = _lookup(registry, args.machine)
    config = _run_config(args.feedback_cap)
    lines = _read_command_lines(args.input)
    write = _writer("stdout")
    if args.log is None:
        eventlog.run(entry, lines, write, config)
        return EXIT_OK
    with eventlog.open_log(args.log, args.machine, entry, config) as log:
        if log.torn:
            _report(
                f"warning: {log.path}: removed a torn tail at line {log.seq + 1} "
                f"({log.torn} bytes, unterminated and not valid JSON)"
            )
        log.append(lines, write)
    return EXIT_OK


def _cmd_replay(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    eventlog.replay(args.log, args.machine, entry, _run_config(args.feedback_cap))
    return EXIT_OK


def _path(text: str) -> str:
    """A file option's value: any text but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("a path must not be empty")
    return text


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that writes by ``_writer``'s rules. argparse's own writes send
    a line meant for a closed stream to the other one, and on Python 3.10 raise when one
    fails."""

    def print_help(self, file=None) -> None:
        _writer("stdout")(self.format_help())

    def error(self, message: str) -> NoReturn:
        _report(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_USAGE)


@cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crem",
        description="Run, render and replay composed state machines.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands.choices  # name -> subparser: main parses with one alone

    list_parser = commands.add_parser("list", help="list registered machines")
    list_parser.set_defaults(handler=_cmd_list)

    render_parser = commands.add_parser("render", help="emit a diagram")
    render_parser.add_argument("machine")
    render_parser.add_argument("--format", choices=FORMATS, default="dot")
    render_parser.add_argument("--mode", choices=["base", "flow"], default="flow")
    render_parser.add_argument("--out", type=_path, help="output path (default stdout)")
    render_parser.set_defaults(handler=_cmd_render)

    run_parser = commands.add_parser("run", help="feed a command file to a machine")
    run_parser.add_argument("machine")
    run_parser.add_argument(
        "--input", type=_path, required=True, help="command file, or - for stdin"
    )
    run_parser.add_argument("--log", type=_path, help="append event records to this file")
    run_parser.add_argument("--feedback-cap", type=int, default=None)
    run_parser.set_defaults(handler=_cmd_run)

    replay_parser = commands.add_parser("replay", help="verify a log regenerates exactly")
    replay_parser.add_argument("machine")
    replay_parser.add_argument("--log", type=_path, required=True)
    replay_parser.add_argument("--feedback-cap", type=int, default=None)
    replay_parser.set_defaults(handler=_cmd_replay)

    return parser


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
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no args, -h or an unknown command: the full parser reports it
            args = parser.parse_args(argv)
        else:  # what parse_args does for a known command, without parsing the top level
            args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.handler(args, registry)
    except SystemExit as exc:  # -h, or a usage error the parser has reported
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except Diverged as error:
        _report(str(error), "stdout")
        return EXIT_DIVERGED
    except tuple(_EXIT_CODES) as error:
        _report(f"error: {error}")
        return next(_EXIT_CODES[kind] for kind in type(error).__mro__ if kind in _EXIT_CODES)


def script_main() -> None:
    code = main()
    for stream in ("stdout", "stderr"):  # see _writer
        out = getattr(sys, stream)
        try:
            if out is not None:
                out.flush()
        except OSError as error:
            # what is left in its buffer goes nowhere, so Python's own flush at exit succeeds
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
            if stream == "stdout" and code == EXIT_OK:  # output that was never written
                _report(f"error: {error}")
                code = EXIT_USAGE
    raise SystemExit(code)


if __name__ == "__main__":
    script_main()
