"""Command line driver: list machines, render diagrams, run traces, replay logs.

Input files carry one encoded command per line; blank lines and ``#``
comments are skipped. With ``--log``, each processed input appends one
record to a JSONL event log, which ``replay`` later re-runs against a
fresh machine to verify that every logged output regenerates exactly.
A ``run`` on an existing log resumes it the same way: the logged records
are re-run and checked before anything new is appended. A log is checked in
one pass, record by record, so its first fault in file order decides the
exit code.

After each ``run --log`` a sidecar manifest, ``LOG.crem`` beside ``LOG``,
records the format version (2), the machine name, a topology fingerprint
(the sha256 of one walk of the fresh tree: each node's kind, and each
leaf's name, edges and initial vertex), the count of records, the length
and sha256 of the log bytes that run checked or wrote, and the leaf
vertices after them. It is written to a temporary file and then renamed
into place. A resuming ``run`` whose manifest matches the version, machine
and fingerprint, and covers a prefix that ends a line, holds one line per
record and matches its hash, restores those vertices into a fresh tree and
re-runs only the records after that prefix. That is the trade: only a run
that checked or wrote exactly those bytes writes a manifest, so a matching
hash stands for "checked as ``replay`` does". Any mismatch, an unreadable
manifest or vertices the tree cannot hold fall back to checking the whole
log. No manifest is written for a tree with a leaf whose payload is not
None when the run ends. ``replay`` re-runs
every record; when a manifest exists it first refuses, with exit 3, a log
whose manifest names another machine or topology.

A torn tail is a last line that is both unterminated and not valid JSON,
as a write cut short leaves it. A resuming ``run`` removes it, once the
lines before it check out, says so in one ``warning:`` line on stderr and
goes on; ``replay`` exits 3 and calls it a torn tail. An unterminated last
line that is valid JSON is checked as a record and ended with a newline
before the run appends. A ``run --log`` holds an exclusive ``flock`` on the
log from before it reads the log until its manifest is in place, so a
second writer waits and then resumes after the first; ``replay`` reads the
log and its manifest under a shared ``flock``, so it waits for a writer.

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
import fcntl
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import cart as cart_domain
from .cart import CartCommand, ShippingCommand
from .compose import (
    DEFAULT_CONFIG,
    Basic,
    FeedbackOverflow,
    Left,
    Right,
    RunConfig,
    StateMachine,
    _fingerprint,
    _leaf_vertices,
    _restore_vertices,
)
from .machine import DisallowedTransition
from .render import FORMATS, render_base, render_flow

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CODEC = 3
EXIT_TOPOLOGY = 4
EXIT_FEEDBACK = 5
EXIT_DIVERGED = 6

ENV_FEEDBACK_CAP = "CREM_FEEDBACK_CAP"

MANIFEST_VERSION = 2


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


def _replay(
    machine: StateMachine, log_text: str, entry, config, seq: int = 0, first_line: int = 1
) -> tuple[StateMachine, int]:
    """Check and re-run the records in ``log_text`` in one pass, record by record.

    ``log_text`` starts with record ``seq`` on log line ``first_line``. Each
    line is parsed, checked, stepped and compared before the next, so the
    first fault in file order is the one raised. Returns the machine after
    the last record, where new records continue, and the next seq.
    """
    for number, text in enumerate(log_text.splitlines(), start=first_line):
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


def _text(data: bytes) -> str:
    # a byte that is not UTF-8 becomes a lone surrogate, caught on its line
    return data.decode("utf-8", errors="surrogateescape")


def _split_torn_tail(data: bytes) -> tuple[bytes, bytes]:
    """Split the log bytes into the lines to check and a torn tail (``b""`` if none).

    A torn tail is a last line that is both unterminated and not valid
    JSON, which is what a write cut short leaves behind.
    """
    if not data or data.endswith(b"\n"):
        return data, b""
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:].decode("utf-8"))
    except ValueError:
        return data[:start], data[start:]
    return data, b""


@contextmanager
def _locked_log(path: Path, exclusive: bool) -> Iterator[bytes]:
    """Hold a lock on the log at ``path`` and yield its bytes.

    A writer's lock is exclusive and creates a missing log; a reader's is shared.
    """
    create = os.O_CREAT if exclusive else 0
    existed = not create or path.exists()
    try:  # "rb" through an opener, as no mode of open() creates a file it only reads
        handle = open(path, "rb", opener=lambda name, flags: os.open(name, flags | create, 0o666))
    except OSError as error:
        if existed:
            raise MalformedLog(f"cannot read log {path}: {error}") from error
        raise
    with handle:  # closing it releases the lock
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        try:
            data = handle.read()
        except OSError as error:
            raise MalformedLog(f"cannot read log {path}: {error}") from error
        yield data


def _manifest_path(log: Path) -> Path:
    return log.with_name(log.name + ".crem")


_MANIFEST_FIELDS = {
    "version": int,
    "machine": str,
    "fingerprint": str,
    "records": int,
    "bytes": int,
    "sha256": str,
    "vertices": list,
}


def _read_manifest(log: Path) -> dict | None:
    """The manifest beside ``log``, or None if it is absent, unreadable or malformed."""
    try:
        manifest = json.loads(_manifest_path(log).read_bytes())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(manifest, dict)
        or set(manifest) != set(_MANIFEST_FIELDS)
        or any(type(manifest[key]) is not kind for key, kind in _MANIFEST_FIELDS.items())
        or manifest["version"] != MANIFEST_VERSION
        or manifest["records"] < 0
        or manifest["bytes"] < 0
        or not all(isinstance(vertex, str) for vertex in manifest["vertices"])
    ):
        return None
    return manifest


def _write_manifest(log: Path, manifest: dict) -> None:
    target = _manifest_path(log)
    temp = target.with_name(target.name + ".tmp")
    try:
        temp.write_bytes(json.dumps(manifest, sort_keys=True).encode())
        os.replace(temp, target)
    except OSError:
        pass  # no manifest only costs time: the next run checks the whole log


def _restore(
    fresh: StateMachine, manifest: dict | None, name: str, fingerprint: str, body: bytes
) -> tuple[StateMachine, int, int, Any] | None:
    """Resume from the manifest: ``(machine, seq, bytes covered, their sha256)``, or None.

    The manifest must name this machine and topology, and must cover a
    prefix of ``body`` that ends a line, holds as many lines as it has
    records and hashes to its ``sha256``; its vertices must then fit the
    fresh tree's leaves.
    """
    if manifest is None or manifest["machine"] != name or manifest["fingerprint"] != fingerprint:
        return None
    size = manifest["bytes"]
    # the prefix is empty or ends a line, and holds one line per record (no hash covers that)
    if body.rfind(b"\n", 0, size) != size - 1 or manifest["records"] != body.count(b"\n", 0, size):
        return None
    digest = hashlib.sha256(memoryview(body)[:size])
    if digest.hexdigest() != manifest["sha256"]:
        return None
    machine = _restore_vertices(fresh, manifest["vertices"])
    if machine is None:
        return None
    return machine, manifest["records"], size, digest


def _cmd_run(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    config = _run_config(args.feedback_cap)
    machine = entry.factory()
    lines = _read_command_lines(args.input)
    if not args.log:
        _run_commands(machine, lines, entry, config)
        return EXIT_OK

    path = Path(args.log)
    with _locked_log(path, exclusive=True) as data:
        body, torn = _split_torn_tail(data)
        fingerprint = _fingerprint(machine)
        resumed = _restore(machine, _read_manifest(path), args.machine, fingerprint, body)
        if resumed is None:
            resumed = machine, 0, 0, hashlib.sha256()
        machine, seq, start, digest = resumed
        machine, seq = _replay(machine, _text(body[start:]), entry, config, seq, seq + 1)
        digest.update(memoryview(body)[start:])

        with path.open("a+b") as log:
            if torn:
                log.truncate(len(body))
                print(
                    f"warning: {path}: removed a torn tail at line {seq + 1} "
                    f"({len(torn)} bytes, unterminated and not valid JSON)",
                    file=sys.stderr,
                )
            elif body and not body.endswith(b"\n"):  # never glue a record onto it
                log.write(b"\n")
                digest.update(b"\n")

            def append(record: bytes) -> None:
                log.write(record)
                log.flush()
                digest.update(record)

            machine, seq = _run_commands(machine, lines, entry, config, seq, append)
            size = log.seek(0, os.SEEK_END)

        vertices = _leaf_vertices(machine)
        if vertices is not None:
            _write_manifest(path, {
                "version": MANIFEST_VERSION,
                "machine": args.machine,
                "fingerprint": fingerprint,
                "records": seq,
                "bytes": size,
                "sha256": digest.hexdigest(),
                "vertices": vertices,
            })
    return EXIT_OK


def _run_commands(machine, lines, entry, config, seq=0, append=None) -> tuple[StateMachine, int]:
    """Decode, step and print each command; ``append`` gets its log record from ``seq`` on."""
    for number, text in lines:
        try:
            value = entry.decode_input(text)
        except CodecError as error:
            raise CodecError(f"line {number}: {error}") from None
        outputs, machine = machine.step(value, config)
        encoded = [entry.encode_output(item) for item in outputs]
        print(f"[{', '.join(encoded)}]")
        if append is not None:
            record = {"seq": seq, "input": entry.encode_input(value), "outputs": encoded}
            append(json.dumps(record, sort_keys=True).encode() + b"\n")
            seq += 1
    return machine, seq


def _check_identity(log: Path, name: str, fresh: StateMachine) -> None:
    """Refuse a log whose manifest names another machine or topology than ``name``'s."""
    manifest = _read_manifest(log)
    if manifest is None:
        return
    fingerprint = _fingerprint(fresh)
    if (manifest["machine"], manifest["fingerprint"]) != (name, fingerprint):
        raise MalformedLog(
            f"{log} was written by machine {manifest['machine']!r} "
            f"(topology {manifest['fingerprint'][:12]}), not by {name!r} "
            f"(topology {fingerprint[:12]})"
        )


def _cmd_replay(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    machine = entry.factory()
    config = _run_config(args.feedback_cap)
    path = Path(args.log)
    with _locked_log(path, exclusive=False) as data:  # a run in progress finishes first
        _check_identity(path, args.machine, machine)
    body, torn = _split_torn_tail(data)
    _, seq = _replay(machine, _text(body), entry, config)
    if torn:
        raise MalformedLog(
            f"line {seq + 1}: torn tail ({len(torn)} bytes, unterminated and not valid JSON)"
        )
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
