"""Command line driver: list machines, render diagrams, run traces, replay logs.

The README's "The command line" section is the contract this module keeps:
the command-file, log and manifest formats, resuming, torn tails, locking
and exit codes. ``_EXIT_CODES`` maps each failure to its exit code and one
``error:`` line on stderr; a divergence (exit 6) prints on stdout.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Mapping, Sequence

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

MANIFEST_VERSION = 3


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
    # the map enum_cls[name] reads, snapshot once: a dict lookup, not a call into EnumType
    members = dict(enum_cls.__members__)

    def decode(text: str):
        name = text.strip()
        try:
            return members[name]
        except KeyError:
            raise CodecError(f"{name!r} is not a {enum_cls.__name__}") from None

    return decode


def _encode_enum(value) -> str:
    return value._name_  # the documented attribute the .name property reads, without its call


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
            return f"{tag} {value.value._name_}"
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
    """The numbered command lines of ``source``; a line ends at ``"\n"`` only, as in the log."""
    data = sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()
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


# the keys of an event record, exactly
_RECORD_KEYS = frozenset(("input", "outputs", "seq"))

# the scan of the decoder json.loads uses, without its whitespace and end-of-text rules
_scan = json.JSONDecoder().raw_decode


def _replay(
    machine: StateMachine, log: bytes, entry, config, seq: int = 0
) -> tuple[StateMachine, int, bytes]:
    """Check and re-run the records in the log bytes ``log`` in one pass, record by record.

    ``log`` starts with record ``seq``, and the line of record ``seq`` is log
    line ``seq + 1``; a line ends at ``b"\n"`` only, as the manifest counts
    lines. Each is parsed, checked, stepped and compared before the next, so
    the first fault in file order is the one raised. An unterminated last line
    that is not valid UTF-8 or not valid JSON is a torn tail: it is returned,
    not raised. Returns the machine after the last record, where new records
    continue, the next seq and the torn tail (``b""`` if none).

    The log is decoded once, up to the start of the line that holds its first
    byte that is not UTF-8, if any; that line is judged once every line before
    it has checked out. The text is then scanned once, by the ``raw_decode``
    of ``json.loads``'s own decoder, from the start of each line. A record is
    taken from the scan only if it ends exactly at its line's end; JSON
    whitespace includes ``"\n"``, so a scan can run on into the next line.
    Any other line (padded, split, joined with another, or faulty) is parsed
    alone by ``json.loads``, so it is accepted or refused as that call alone
    would, with that call's message.
    """
    try:
        text, bad = str(log, "utf-8"), -1
    except UnicodeDecodeError as error:
        bad = log.rfind(b"\n", 0, error.start) + 1  # the start of the line that holds it
        text = str(memoryview(log)[:bad], "utf-8")
    pos, size = 0, len(text)
    while pos < size:
        end = text.find("\n", pos)
        if end < 0:
            end = size  # the unterminated tail
        try:
            record, stop = _scan(text, pos)
        except (ValueError, RecursionError):
            stop = -1
        if stop != end:
            try:
                record = json.loads(text[pos:end])
            except (ValueError, RecursionError) as error:
                if end == size:  # torn, as a cut-short write leaves it
                    return machine, seq, log[log.rfind(b"\n") + 1:]
                raise MalformedLog(f"line {seq + 1}: not valid JSON: {error}") from None
        if (
            type(record) is not dict
            or record.keys() != _RECORD_KEYS
            or type(record["seq"]) is not int
            or type(record["input"]) is not str
            or type(record["outputs"]) is not list
            or not all(type(item) is str for item in record["outputs"])
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
        encoded, machine = _step(machine, value, entry, config, "seq", seq)
        if encoded != record["outputs"]:
            raise _Diverged(
                f"replay diverged at seq {seq}: "
                f"logged {record['outputs']}, regenerated {encoded}"
            )
        seq += 1
        pos = end + 1
    if bad < 0:
        return machine, seq, b""
    if log.find(b"\n", bad) < 0:  # the unterminated tail: torn
        return machine, seq, log[bad:]
    raise MalformedLog(f"line {seq + 1}: not valid UTF-8")


@contextmanager
def _reading(path: Path) -> Iterator[None]:
    """Turn an ``OSError`` raised while reading the log at ``path`` into ``MalformedLog``."""
    try:
        yield
    except OSError as error:
        raise MalformedLog(f"cannot read log {path}: {error}") from error


def _append(log: BinaryIO, path: Path, data: bytes) -> None:
    """Append ``data`` to the log at ``path`` through its unbuffered handle ``log``, in
    one ``write``; a failed or short write raises ``CodecError`` naming the log."""
    try:
        written = log.write(data)
    except OSError as error:
        raise CodecError(f"cannot write log {path}: {error}") from error
    if written != len(data):
        raise CodecError(f"cannot write log {path}: wrote {written} of {len(data)} bytes")


@contextmanager
def _locked_log(path: Path, exclusive: bool) -> Iterator[BinaryIO]:
    """Hold a lock on the log at ``path`` and yield its one handle, where ``open`` left it.

    A writer's handle appends, creates a missing log, holds an exclusive lock
    and starts at the end. A reader's handle only reads, holds a shared lock
    and starts at 0: it is never seeked, so it can be a pipe. Either is
    unbuffered, so each ``write`` reaches the kernel at once and closing the
    handle has nothing left to write.
    """
    try:
        handle = open(path, "a+b" if exclusive else "rb", buffering=0)
    except OSError as error:
        if not exclusive or path.exists():  # a failed open created nothing
            raise MalformedLog(f"cannot read log {path}: {error}") from error
        raise
    with handle:  # closing it releases the lock
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield handle


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

# the versions whose fingerprint hashes the walk of the fresh tree (1 hashed the DOT diagram)
_WALK_FINGERPRINTS = (2, 3)

# how much of the covered prefix a resume holds in memory at once while it hashes it
_PREFIX_CHUNK = 1 << 16


def _check(manifest: dict) -> str:
    """The ``check`` field: the sha256 of the canonical manifest without that field."""
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _read_manifest(
    log: Path, name: str, fingerprint: str, sidecar: Path | None = None
) -> dict | None:
    """The manifest beside ``log``, read from ``sidecar`` if the caller has its path, without
    its ``check``, or None if it is absent, unreadable, malformed, of another version or
    fails its check.

    A version 3 manifest is read only once its ``check`` holds: a torn overwrite can
    join new fields to old ones, or shift one by a byte, and still parse. Then the
    writer is judged: a JSON object of any version naming another ``machine``, or of
    version 2 or 3 another ``fingerprint``, raises ``MalformedLog``.
    """
    try:
        with open(sidecar or _manifest_path(log), "rb", buffering=0) as handle:
            manifest = json.loads(handle.read())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(manifest, dict):
        return None
    if manifest.get("version") == MANIFEST_VERSION:
        if manifest.pop("check", None) != _check(manifest):
            return None  # torn or tampered: none of its fields is read, the writer's included
    writer = manifest.get("machine")
    written = manifest.get("fingerprint") if manifest.get("version") in _WALK_FINGERPRINTS else None
    if isinstance(writer, str) and (writer != name or written not in (None, fingerprint)):
        topology = "" if written is None else f" (topology {str(written)[:12]})"
        raise MalformedLog(f"{log} was written by machine {writer!r}{topology}, "
                           f"not by {name!r} (topology {fingerprint[:12]})")
    if (
        set(manifest) != set(_MANIFEST_FIELDS)
        or any(type(manifest[key]) is not kind for key, kind in _MANIFEST_FIELDS.items())
        or manifest["version"] != MANIFEST_VERSION
        or manifest["records"] < 0
        or manifest["bytes"] < 0
        or not all(isinstance(vertex, str) for vertex in manifest["vertices"])
    ):
        return None
    return manifest


def _write_manifest(sidecar: Path, manifest: dict) -> None:
    """Write ``manifest`` and its ``check`` over the manifest file ``sidecar`` in place: no
    truncation to zero, no temporary file and no rename, which together took about a third
    of a short resuming session on ext4. A write cut short fails the check when read.

    The bytes are those of ``json.dumps({**manifest, "check": _check(manifest)},
    sort_keys=True)``, made from the one ``json.dumps`` that ``check`` hashes: ``"check"``
    sorts second, after ``"bytes"``, whose int value holds no ``", "``.
    """
    text = json.dumps(manifest, sort_keys=True)
    cut = text.index(", ")  # the end of "bytes", the first key
    check = hashlib.sha256(text.encode()).hexdigest()
    data = f'{text[:cut]}, "check": "{check}"{text[cut:]}'.encode()
    with suppress(OSError):  # no manifest only costs time: the next run checks the whole log
        fd = os.open(sidecar, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            os.pwrite(fd, data, 0)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


def _restore(
    fresh: StateMachine, manifest: dict | None, log: BinaryIO
) -> tuple[StateMachine, int, int, Any]:
    """Where to resume the log read through ``log``: ``(machine, seq, bytes covered, their
    sha256)``, with ``log`` left at that many bytes, or ``(fresh, 0, 0, sha256())`` at
    offset 0 if ``manifest``, which ``_read_manifest`` has already judged on its own, does
    not fit ``fresh`` and the log as the README's manifest section requires.

    The covered prefix is read once, ``_PREFIX_CHUNK`` bytes at a time, hashed and its
    lines counted in the same pass, so a resume holds at most one chunk of it in memory.
    """
    start = fresh, 0, 0, hashlib.sha256()
    if manifest is None:
        return start
    machine = _restore_vertices(fresh, manifest["vertices"])
    if machine is None:
        return start
    # last starts as a newline, so an empty prefix ends a line
    digest, lines, last, left = hashlib.sha256(), 0, b"\n", manifest["bytes"]
    while left and (chunk := log.read(min(left, _PREFIX_CHUNK))):
        digest.update(chunk)
        lines += chunk.count(b"\n")
        last, left = chunk[-1:], left - len(chunk)
    if left or last != b"\n" or lines != manifest["records"] or (
        digest.hexdigest() != manifest["sha256"]
    ):
        log.seek(0)
        return start
    return machine, manifest["records"], manifest["bytes"], digest


def _cmd_run(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    config = _run_config(args.feedback_cap)
    machine = entry.factory()
    lines = _read_command_lines(args.input)
    if args.log is None:
        for _ in _run_commands(machine, lines, entry, config):
            pass
        return EXIT_OK

    path = Path(args.log)
    sidecar = _manifest_path(path)
    fingerprint = _fingerprint(machine)
    if not path.exists():  # refuse another writer's manifest before the open creates the log
        _read_manifest(path, args.machine, fingerprint, sidecar)
    with _locked_log(path, exclusive=True) as log:
        manifest = _read_manifest(path, args.machine, fingerprint, sidecar)
        with _reading(path):
            log.seek(0)  # "a+b" opens at the end
            machine, seq, start, digest = _restore(machine, manifest, log)
            data = log.read()  # the bytes after the prefix the manifest vouched for
        machine, seq, torn = _replay(machine, data, entry, config, seq)
        checked = len(data) - len(torn)
        digest.update(memoryview(data)[:checked])
        if torn:
            try:
                log.truncate(start + checked)
            except OSError as error:
                raise CodecError(f"cannot write log {path}: {error}") from error
            print(
                f"warning: {path}: removed a torn tail at line {seq + 1} "
                f"({len(torn)} bytes, unterminated and not valid JSON)",
                file=sys.stderr,
            )
        elif data and not data.endswith(b"\n"):  # never glue a record onto it
            _append(log, path, b"\n")
            digest.update(b"\n")
        size = log.seek(0, os.SEEK_END)  # machine, seq and size stay at the last record written
        try:
            for record, stepped in _run_commands(machine, lines, entry, config, seq):
                _append(log, path, record)  # in the file before the next command runs
                digest.update(record)
                machine, seq, size = stepped, seq + 1, size + len(record)
        finally:  # a command that fails (exit 3, 4 or 5) leaves what was appended covered
            vertices = _leaf_vertices(machine)
            if vertices is not None:
                _write_manifest(sidecar, {
                    "version": MANIFEST_VERSION,
                    "machine": args.machine,
                    "fingerprint": fingerprint,
                    "records": seq,
                    "bytes": size,
                    "sha256": digest.hexdigest(),
                    "vertices": vertices,
                })
    return EXIT_OK


def _run_commands(machine, lines, entry, config, seq=0) -> Iterator[tuple[bytes, StateMachine]]:
    """Decode, step and print each command, then yield its log record, from ``seq`` on,
    with the machine after that command.

    A record is formatted directly as the bytes ``json.dumps(record,
    sort_keys=True)`` gives, through ``_quote``, the escaper that call uses. A
    codec fault raises ``CodecError`` naming the input line before that command
    prints or yields anything, so the caller never sees the machine that
    command stepped to.
    """
    for number, text in lines:
        try:
            value = entry.decode_input(text)
        except Exception as error:
            raise _codec_failed(f"line {number}", "decode_input", error) from None
        encoded, machine = _step(machine, value, entry, config, "line", number)
        try:
            code = entry.encode_input(value)
            if not isinstance(code, str):
                raise _not_str("encode_input", code)
        except Exception as error:
            raise _codec_failed(f"line {number}", "encode_input", error) from None
        quoted = ", ".join(map(_quote, encoded))
        record = f'{{"input": {_quote(code)}, "outputs": [{quoted}], "seq": {seq}}}\n'
        print(f"[{', '.join(encoded)}]")
        yield record.encode(), machine
        seq += 1


def _step(machine, value, entry, config, where: str, number: int) -> tuple[list, StateMachine]:
    """Step ``machine`` on the decoded command ``value`` and encode its outputs: ``(the
    outputs' codes, the machine after the step)``, the one rule by which ``run`` writes a
    record and ``_replay`` checks one.

    ``where`` and ``number`` name the command, ``"line"`` and an input line or ``"seq"``
    and a seq, in the ``CodecError`` raised when the step raises one, also while its lazy
    outputs are read, or when ``encode_output`` raises anything or returns a non-``str``.
    Any other error of a step propagates as it is. The encoder runs in a plain loop: a
    comprehension is a call of its own before Python 3.12.
    """
    try:
        outputs, machine = machine.step(value, config)
        if not isinstance(outputs, list):  # a lazy iterable runs the step's code here
            outputs = list(outputs)
    except CodecError as error:
        raise CodecError(f"{where} {number}: {error}") from None
    encoded = []
    try:
        for item in outputs:
            code = entry.encode_output(item)
            if not isinstance(code, str):
                raise _not_str("encode_output", code)
            encoded.append(code)
    except Exception as error:
        raise _codec_failed(f"{where} {number}", "encode_output", error) from None
    return encoded, machine


def _codec_failed(where: str, codec: str, error: Exception) -> CodecError:
    """The error for the registry's ``codec``, which raised ``error`` at ``where``, an input
    line or a seq: a ``CodecError`` keeps its message, any other is named by its type."""
    if isinstance(error, CodecError):
        return CodecError(f"{where}: {error}")
    return CodecError(f"{where}: {codec} raised {type(error).__name__}: {error}")


def _not_str(codec: str, code: Any) -> CodecError:
    """The error for the registry's ``codec``, which returned ``code``, not a ``str``."""
    return CodecError(f"{codec} returned {type(code).__name__} {code!r}, not a str")


def _cmd_replay(args, registry) -> int:
    entry = _lookup(registry, args.machine)
    machine = entry.factory()
    config = _run_config(args.feedback_cap)
    path = Path(args.log)
    with _locked_log(path, exclusive=False) as log:  # a run in progress finishes first
        _read_manifest(path, args.machine, _fingerprint(machine))
        with _reading(path):
            data = log.read()
    _, seq, torn = _replay(machine, data, entry, config)
    if torn:
        raise MalformedLog(
            f"line {seq + 1}: torn tail ({len(torn)} bytes, unterminated and not valid JSON)"
        )
    return EXIT_OK


def _path(text: str) -> str:
    """A file option's value: any text but the empty one, which ``Path`` reads as ``.``."""
    if not text:
        raise argparse.ArgumentTypeError("a path must not be empty")
    return text


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
