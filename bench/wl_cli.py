"""cli-log: the command line over the registered cart domains, in-process.

Each round runs, for both ``whole-cart-domain`` and ``cart-and-shipping``,
one fresh ``run --log`` over a long command file, a ``replay`` of that log,
and then a series of short ``run --log`` sessions that each append a few
commands to one growing log per machine, so every session resumes it.
Every printed line is checked against the plain tables in cart_oracle,
every replay must exit 0 silently, and the logs left behind are compared
record by record with what the oracle expects.
"""

from __future__ import annotations

import io
import json
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import cart_oracle
from harness import Recorder, merge, metric, over_rounds, percentile

MACHINES = ("whole-cart-domain", "cart-and-shipping")
RUN_COMMANDS = 1500  # per machine, fresh run
SESSION_SIZES = tuple(range(1, 9))  # commands appended by one session
SESSIONS = 15 * len(SESSION_SIZES)  # >= 100, so p90 has ten samples past it


def _command_file(commands: list[str]) -> str:
    """Command text with the comments and blank lines the CLI must skip."""
    lines = []
    for i, command in enumerate(commands):
        if i % 50 == 0:
            lines += [f"# commands {i} onwards", ""]
        lines.append(command)
    return "\n".join(lines) + "\n"


def _balanced(rng: random.Random, choices, count: int) -> list[str]:
    """``count`` commands in fixed proportions, in seeded order."""
    commands = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(commands)
    return commands


def _records(commands: list[str], outputs: list[list[str]], start: int = 0) -> list[dict]:
    return [
        {"seq": start + i, "input": command, "outputs": out}
        for i, (command, out) in enumerate(zip(commands, outputs))
    ]


class CliLog:
    name = "cli-log"
    # BENCHMARK.json's workload-neutral names -> (metric of this workload, scale)
    GENERIC = {
        "throughput_per_s": ("run_cmds_per_s", 1.0),
        "secondary_per_s": ("replay_records_per_s", 1.0),
        "op_p50_ms": ("session_p50_ms", 1.0),
        "op_tail_ms": ("session_p90_ms", 1.0),
    }

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.inputs = Path(ctx.tmpdir) / "inputs"
        self.logs = Path(ctx.tmpdir) / "logs"

    def setup(self, rec: Recorder) -> None:
        rng = random.Random(self.ctx.seed)
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.runs = []  # (machine, command file, expected lines, expected records)
        live = {"run": 0, "session": 0}  # commands that print a non-empty list
        for machine in MACHINES:
            commands = _balanced(rng, cart_oracle.COMMANDS[machine], RUN_COMMANDS)
            oracle = cart_oracle.ORACLES[machine]()
            outputs = [oracle.step(command) for command in commands]
            live["run"] += sum(1 for out in outputs if out)
            path = self.inputs / f"run-{machine}.txt"
            path.write_text(_command_file(commands), encoding="utf-8")
            lines = [cart_oracle.printed(out) for out in outputs]
            self.runs.append((machine, str(path), lines, _records(commands, outputs)))
            rec.lap()

        # a fixed order of sizes, rotated by one per block so that both
        # machines get every size, keeps each session's log length the same
        # for every seed; the seed picks the commands
        n = len(SESSION_SIZES)
        sizes = [SESSION_SIZES[(j + block) % n] for block in range(SESSIONS // n) for j in range(n)]
        oracles = {machine: cart_oracle.ORACLES[machine]() for machine in MACHINES}
        self.session_records = {machine: [] for machine in MACHINES}
        self.sessions = []  # (machine, command file, new commands, expected lines)
        for i, size in enumerate(sizes):
            machine = MACHINES[i % len(MACHINES)]
            commands = [rng.choice(cart_oracle.COMMANDS[machine]) for _ in range(size)]
            outputs = [oracles[machine].step(command) for command in commands]
            live["session"] += sum(1 for out in outputs if out)
            done = self.session_records[machine]
            done += _records(commands, outputs, start=len(done))
            path = self.inputs / f"session-{i}.txt"
            path.write_text(_command_file(commands), encoding="utf-8")
            lines = [cart_oracle.printed(out) for out in outputs]
            self.sessions.append((machine, str(path), size, lines))
        self.live_share = {
            "run": live["run"] / (RUN_COMMANDS * len(MACHINES)),
            "session": live["session"] / sum(sizes),
        }

    def _main(self, rec: Recorder, argv: list[str]):
        """One closed-loop ``cli.main`` call with stdout and stderr in memory."""
        out, err = io.StringIO(), io.StringIO()
        rec.ops += 1
        tracer = self.ctx.tracer
        steps_before = tracer.top_steps if tracer else 0
        try:
            with redirect_stdout(out), redirect_stderr(err):
                start = perf_counter()
                code = self.ctx.api.cli_main(argv, self.ctx.api.registry)
                elapsed = perf_counter() - start
        except Exception:
            rec.crashed(" ".join(argv))
            return None
        steps = tracer.top_steps - steps_before if tracer else 0
        return code, out.getvalue(), err.getvalue(), rec.scaled(elapsed), steps

    def _check_log(self, rec: Recorder, path: Path, expected: list[dict]) -> None:
        try:
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        except (OSError, ValueError):
            rec.crashed(f"read log {path.name}")
            return
        rec.outcome(records == expected, f"log {path.name} differs from the oracle")

    def round(self, rec: Recorder) -> None:
        shutil.rmtree(self.logs, ignore_errors=True)
        self.logs.mkdir(parents=True)
        totals = rec.totals

        for machine, path, lines, _ in self.runs:
            log = self.logs / f"run-{machine}.jsonl"
            done = self._main(rec, ["run", machine, "--input", path, "--log", str(log)])
            if done is None:
                continue
            code, out, err, elapsed, steps = done
            rec.outcome(code == 0 and out.splitlines() == lines,
                        f"run {machine}: exit {code}, {err.strip()!r}")
            totals["run_commands"] += len(lines)
            totals["run_s"] += elapsed
            totals["log_bytes"] += log.stat().st_size if log.exists() else 0
            totals["run_steps"] += steps
            totals["run_new"] += len(lines)

        for machine, _, lines, _ in self.runs:
            log = self.logs / f"run-{machine}.jsonl"
            done = self._main(rec, ["replay", machine, "--log", str(log)])
            if done is None:
                continue
            code, out, err, elapsed, _ = done
            rec.outcome(code == 0 and out == "", f"replay {machine}: exit {code}, {out + err!r}")
            totals["replay_records"] += len(lines)
            totals["replay_s"] += elapsed

        for machine, path, size, lines in self.sessions:
            log = self.logs / f"session-{machine}.jsonl"
            before = log.stat().st_size if log.exists() else 0
            done = self._main(rec, ["run", machine, "--input", path, "--log", str(log)])
            if done is None:
                continue
            code, out, err, elapsed, steps = done
            rec.outcome(code == 0 and out.splitlines() == lines,
                        f"session {machine}: exit {code}, {err.strip()!r}")
            rec.samples["session"].append(elapsed)
            totals["log_bytes"] += (log.stat().st_size if log.exists() else 0) - before
            totals["run_steps"] += steps
            totals["run_new"] += size
            totals["session_steps"] += steps
            totals["session_new"] += size

        for machine, _, _, records in self.runs:
            self._check_log(rec, self.logs / f"run-{machine}.jsonl", records)
        for machine in MACHINES:
            self._check_log(rec, self.logs / f"session-{machine}.jsonl",
                            self.session_records[machine])

    def metrics(self, rounds: list[Recorder]) -> dict:
        total = merge(rounds)
        t, sessions = total.totals, len(total.samples["session"])
        return {
            "run_cmds_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["run_commands"] / r.totals["run_s"]),
                "1/s", int(t["run_commands"])),
            "replay_records_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["replay_records"] / r.totals["replay_s"]),
                "1/s", int(t["replay_records"])),
            "session_p50_ms": metric(over_rounds(
                rounds, lambda r: percentile(r.samples["session"], 50)) * 1e3,
                "ms", sessions),
            "session_p90_ms": metric(over_rounds(
                rounds, lambda r: percentile(r.samples["session"], 90)) * 1e3,
                "ms", sessions),
            # what the command mix exercises: most commands reach machines
            # already in their terminal state and print []
            "run_live_share": metric(self.live_share["run"], "ratio", RUN_COMMANDS * len(MACHINES)),
            "session_live_share": metric(self.live_share["session"], "ratio",
                                         sum(size for _, _, size, _ in self.sessions)),
        }

    def layer_counts(self, rec: Recorder) -> dict:
        t = rec.totals
        return {
            "cli.restep.count": (t["run_steps"] - t["run_new"]) / rec.ops,
            "cli.useful_step_ratio": t["session_new"] / t["session_steps"] if t["session_steps"] else 0.0,
            "cli.log_bytes": t["log_bytes"] / rec.ops,
        }
