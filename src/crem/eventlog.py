"""Event logs: one machine's commands and outputs as JSONL records, with a manifest.

The README's "The command line" section is the contract this module keeps for ``crem run
--log`` and ``crem replay``: the log and manifest formats, resuming, torn tails and
locking. ``open_log`` returns an ``OpenLog`` for a ``with`` block: like ``open``, the call
locks and checks the log, and the block's end writes the manifest and releases the lock.
``replay`` audits a log and ``run`` runs commands with no log, all by ``_step``'s one rule.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

from .compose import (
    DEFAULT_CONFIG, Basic, RunConfig, StateMachine, _leaf_vertices, _restore_vertices, _walk
)

MANIFEST_VERSION = 3


class CodecError(ValueError):
    """A line of input text could not be decoded for the chosen machine."""


class MalformedLog(CodecError):
    """An event log file violated the record schema."""

    def __init__(self, message: str) -> None:
        super().__init__(f"malformed log: {message}")


class Diverged(Exception):
    """A logged record's outputs did not regenerate exactly."""


@dataclass(frozen=True)
class RegistryEntry:
    """A runnable machine: fresh-instance factory plus text codecs."""

    factory: Callable[[], StateMachine]
    decode_input: Callable[[str], Any]
    encode_input: Callable[[Any], str]
    encode_output: Callable[[Any], str]


def run(entry: RegistryEntry, lines: list[tuple[int, str]], write: Callable[[str], Any],
        config: RunConfig = DEFAULT_CONFIG) -> None:
    """Run the numbered command ``lines`` on a fresh machine of ``entry`` with no log,
    handing ``write`` the printed lines in the batches ``OpenLog.append`` uses."""
    _run_commands(entry.factory(), lines, entry, config, 0,
                  lambda batch: write("".join([line for _, line, _ in batch])))


def open_log(path: str | os.PathLike, name: str, entry: RegistryEntry,
             config: RunConfig = DEFAULT_CONFIG) -> OpenLog:
    """Open the event log at ``path`` for the machine ``name`` of ``entry`` under its
    exclusive lock and check it as ``crem run --log`` does before it appends: the ``OpenLog``
    for a ``with`` block, whose end writes the manifest, also on an error, and unlocks.

    Creates a missing log and removes a torn tail. Raises ``MalformedLog`` for a log that
    another machine wrote or that breaks the record schema, ``Diverged`` for a record that
    does not regenerate, and what a step raises.
    """
    return OpenLog(path, name, entry, config)


def replay(path: str | os.PathLike, name: str, entry: RegistryEntry,
           config: RunConfig = DEFAULT_CONFIG) -> int:
    """Check the whole event log at ``path`` as ``crem replay`` does: re-run every record on
    a fresh machine of ``entry`` and compare its outputs. Returns the number of records.

    Raises ``Diverged`` at the first record whose outputs differ, ``MalformedLog`` for a log
    that another machine wrote, that breaks the record schema or that ends in a torn tail,
    and what a step raises.
    """
    path, machine = Path(path), entry.factory()
    with _locked_log(path, exclusive=False) as handle, _failing(path, "read"):
        _read_manifest(path, name, _fingerprint(machine))  # refuse another writer's
        data = handle.read()  # under the shared lock: a run in progress finishes first
    _, seq, torn = _replay(machine, data, entry, config)
    if torn:
        raise MalformedLog(
            f"line {seq + 1}: torn tail ({len(torn)} bytes, unterminated and not valid JSON)"
        )
    return seq


class OpenLog:
    """An event log that ``open_log`` holds open under its lock, checked up to its end.

    ``machine`` is the machine after the last record and ``seq`` the seq of the next one;
    both move only past records in the log. ``torn`` is the length in bytes of the torn
    tail that opening the log removed, 0 if none.
    """

    def __init__(self, path: str | os.PathLike, name: str, entry: RegistryEntry,
                 config: RunConfig = DEFAULT_CONFIG) -> None:
        path, machine = Path(path), entry.factory()
        sidecar, fingerprint = _manifest_path(path), _fingerprint(machine)
        if not path.exists():  # refuse another writer's manifest before the open creates the log
            _read_manifest(path, name, fingerprint, sidecar)
        handle = _locked_log(path, exclusive=True)
        try:
            manifest = _read_manifest(path, name, fingerprint, sidecar)
            with _failing(path, "read"):
                handle.seek(0)  # "a+b" opens at the end
                machine, seq, size, digest = _restore(machine, manifest, handle)
                data = handle.read()
            machine, seq, torn = _replay(machine, data, entry, config, seq)
            checked = len(data) - len(torn)
            digest.update(memoryview(data)[:checked])
            if torn:
                with _failing(path, "write"):
                    handle.truncate(size + checked)
            elif data and not data.endswith(b"\n"):  # never glue a record onto it
                with _failing(path, "write"):
                    handle.write(b"\n")  # one byte is written whole or fails
                digest.update(b"\n")
            self._size = handle.seek(0, os.SEEK_END)
        except BaseException:  # closing the handle releases the lock
            handle.close()
            raise
        self.path, self._name, self._entry, self._config = path, name, entry, config
        self.machine, self.seq, self.torn, self._sidecar = machine, seq, len(torn), sidecar
        self._handle, self._fingerprint, self._digest = handle, fingerprint, digest

    def __enter__(self) -> OpenLog:
        return self

    def __exit__(self, *exc_info) -> None:
        try:  # a command that fails (exit 3, 4 or 5) leaves what was committed covered
            vertices = _leaf_vertices(self.machine)
            if vertices is not None:
                _write_manifest(self._sidecar, dict(zip(_MANIFEST_FIELDS, (
                    MANIFEST_VERSION, self._name, self._fingerprint, self.seq, self._size,
                    self._digest.hexdigest(), vertices))))
        finally:  # releases the lock
            self._handle.close()

    def append(self, lines: list[tuple[int, str]], write: Callable[[str], Any]) -> None:
        """Run the numbered command ``lines``, ``(line number, text)`` pairs, from ``seq``
        on, append one record each and hand ``write`` each command's printed line.

        Records are group-committed: ``_run_commands`` gathers the commands' records and
        lines until the records reach ``_BATCH_BYTES``, the commands run out or one raises. A
        flush appends the batch's records to the log in one write, hashes and commits them
        (``machine``, ``seq`` and the size the manifest is written from move past them),
        and only then hands ``write`` their lines in one call, so no line is printed before
        its record is in the log. A log write cut short commits and prints exactly the whole
        records it took, then raises ``CodecError``. A failing command's batch is flushed
        before its error propagates; if that flush fails, its own error propagates instead.
        Once the ``with`` block has ended, it raises ``ValueError`` before it decodes anything.
        """
        if self._handle.closed:
            raise ValueError(f"log {self.path} is closed: its with block has ended")
        _run_commands(self.machine, lines, self._entry, self._config, self.seq,
                      lambda batch: self._commit(batch, write))

    def _commit(self, batch: list, write: Callable[[str], Any]) -> None:
        data = b"".join([record for record, _, _ in batch])
        with _failing(self.path, "write"):
            wanted, written = len(data), self._handle.write(data)
        if written != wanted:  # a record ends at its one "\n": keep the whole ones taken
            data = data[: data.rfind(b"\n", 0, written) + 1]
            batch = batch[: data.count(b"\n")]
        if batch:
            self._digest.update(data)
            self.machine, self.seq = batch[-1][2], self.seq + len(batch)
            self._size += len(data)
            write("".join([line for _, line, _ in batch]))
        if written != wanted:
            raise CodecError(f"cannot write log {self.path}: wrote {written} of {wanted} bytes")


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
            or not all(map(str.__instancecheck__, record["outputs"]))
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
            raise Diverged(
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


_FAULTS = {"read": MalformedLog, "write": CodecError}


@contextmanager
def _failing(path: Path, verb: str) -> Iterator[None]:
    """Turn an ``OSError`` raised while the log at ``path`` is read or written, as ``verb``
    says, into the ``_FAULTS`` error that names the log."""
    try:
        yield
    except OSError as error:
        raise _FAULTS[verb](f"cannot {verb} log {path}: {error}") from error


def _locked_log(path: Path, exclusive: bool) -> BinaryIO:
    """Open and lock the log at ``path``: its one handle, where ``open`` left it.

    A writer's handle appends, creates a missing log, holds an exclusive lock
    and starts at the end. A reader's handle only reads, holds a shared lock
    and starts at 0: it is never seeked, so it can be a pipe. Either is
    unbuffered, so each ``write`` reaches the kernel at once, and closing the
    handle releases the lock and has nothing left to write.
    """
    try:
        handle = open(path, "a+b" if exclusive else "rb", buffering=0)
    except OSError as error:
        if not exclusive or path.exists():  # a failed open created nothing
            raise MalformedLog(f"cannot read log {path}: {error}") from error
        raise
    try:
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
    except BaseException:
        handle.close()
        raise
    return handle


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


# how much of the covered prefix a resume holds in memory at once while it hashes it
_PREFIX_CHUNK = 1 << 16


def _fingerprint(tree: StateMachine) -> str:
    """The sha256 of ``tree``'s walk: each node's kind, and each leaf's name, edges and vertex.

    It names the topology, not the actions' code or the payloads. Composites have two
    children, so pre-order fixes the shape.
    """
    walk = [
        (type(node).__name__, node.machine.name, node.machine.topology.edges,
         node.machine.state.vertex) if isinstance(node, Basic) else type(node).__name__
        for node, done in _walk(tree) if not done
    ]
    return hashlib.sha256(repr(walk).encode()).hexdigest()


def _check(manifest: dict) -> str:
    """The ``check`` field: the sha256 of the canonical manifest without that field."""
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def _nonblocking(path, flags: int) -> int:
    """``os.open`` with ``O_NONBLOCK``, so that a FIFO at ``path`` never waits for its
    other end: with none, reading it reads nothing and writing it fails."""
    return os.open(path, flags | os.O_NONBLOCK, 0o666)


def _read_manifest(
    log: Path, name: str, fingerprint: str, sidecar: Path | None = None
) -> dict | None:
    """The manifest beside ``log``, read from ``sidecar`` if the caller has its path, without
    its ``check``, or None if it is absent, unreadable, of another version, fails its check
    or its schema. A manifest that passes all three naming another ``machine`` or
    ``fingerprint`` raises ``MalformedLog``.

    No field but ``version`` is read before the ``check`` holds: a torn overwrite can join
    new fields to old ones, or shift one by a byte, and still parse.
    """
    try:
        path = sidecar or _manifest_path(log)
        with open(path, "rb", buffering=0, opener=_nonblocking) as handle:
            manifest = json.loads(handle.read())
    except (OSError, ValueError, RecursionError):
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("version") != MANIFEST_VERSION
        or manifest.pop("check", None) != _check(manifest)
        or set(manifest) != set(_MANIFEST_FIELDS)
        or any(type(manifest[key]) is not kind for key, kind in _MANIFEST_FIELDS.items())
        or manifest["records"] < 0
        or manifest["bytes"] < 0
        or not all(isinstance(vertex, str) for vertex in manifest["vertices"])
    ):
        return None
    if manifest["machine"] != name or manifest["fingerprint"] != fingerprint:
        raise MalformedLog(f"{log} was written by machine {manifest['machine']!r} "
                           f"(topology {manifest['fingerprint'][:12]}), "
                           f"not by {name!r} (topology {fingerprint[:12]})")
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
        fd = _nonblocking(sidecar, os.O_WRONLY | os.O_CREAT)
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


# the record bytes at which a run's gathered records are appended to its log in one write
_BATCH_BYTES = 1 << 14


def _run_commands(machine, lines, entry, config, seq: int, flush: Callable) -> None:
    """Decode and step each command, from ``seq`` on, and hand ``flush`` lists of its log
    record, printed line and machine after it, in the batches ``OpenLog.append`` describes.

    A record is formatted directly as the bytes ``json.dumps(record,
    sort_keys=True)`` gives, through ``_quote``, the escaper that call uses. A
    codec fault raises ``CodecError`` naming the input line before that command
    joins a batch, so ``flush`` never sees the machine that command stepped to.
    """
    batch, size = [], 0
    try:
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
            batch.append((record.encode(), f"[{', '.join(encoded)}]\n", machine))
            size, seq = size + len(batch[-1][0]), seq + 1
            if size >= _BATCH_BYTES:
                full, batch, size = batch, [], 0
                flush(full)
    finally:  # the last batch, also the one before a command that raised, ahead of its error
        if batch:
            flush(batch)


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
