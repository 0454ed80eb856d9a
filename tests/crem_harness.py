"""What the tests that drive ``crem`` share.

The source directory and the environment a ``python -m crem`` process runs in, ``cli.main``
with its output captured, a command file, a ``run --log`` on a list of commands, the log's
manifest, and seeded commands for the registered machines.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from pathlib import Path

from crem import Basic, BaseMachine, MachineState, StepResult, Topology, cli

SRC = str(Path(cli.__file__).resolve().parents[1])

# the commands each registered machine decodes
VOCABULARY = {
    "cart": ["PayCart", "MarkCartAsPaid"],
    "shipping": ["StartShipping", "MarkAsDelivered"],
    "whole-cart-domain": ["PayCart", "MarkCartAsPaid"],
    "cart-and-shipping": [
        "cart PayCart",
        "cart MarkCartAsPaid",
        "ship StartShipping",
        "ship MarkAsDelivered",
    ],
}


def crem_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``SRC`` first on ``PYTHONPATH``, plus ``extra``."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def call(*argv, registry=None) -> tuple[int, str, str]:
    """``cli.main`` with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv], registry)
    return code, out.getvalue(), err.getvalue()


def write_commands(path, commands) -> str:
    """Write the command file ``path``: each of ``commands`` and ``"\n"``, as UTF-8."""
    Path(path).write_text("".join(command + "\n" for command in commands), encoding="utf-8")
    return str(path)


def cli_run(machine, log, commands) -> tuple[int, str, str]:
    """``crem run MACHINE --log LOG`` on a command file of ``commands``, output captured."""
    source = write_commands(Path(log).with_name("commands.txt"), commands)
    return call("run", machine, "--input", source, "--log", log)


def manifest_of(log: Path) -> Path:
    return log.with_name(log.name + ".crem")


def written(log: Path) -> tuple[bytes, bytes]:
    """The bytes of ``log`` and of its manifest."""
    return log.read_bytes(), manifest_of(log).read_bytes()


def commands_for(machine, count, seed=7) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(VOCABULARY[machine]) for _ in range(count)]


def _leaf(name: str, edges, initial: str) -> Basic:
    """A leaf on ``Topology(edges)`` that outputs each value it gets and never moves."""
    return Basic(
        BaseMachine(name, Topology(edges), MachineState(initial), lambda s, v: StepResult([v], s))
    )
