"""Shared pieces of the workloads: operation accounting, host-speed
calibration and percentiles."""

from __future__ import annotations

import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

# Every timed figure is reported at a fixed reference speed: the speed at
# which one calibration chunk takes CALIBRATION_S. The host this benchmark
# was written on (a 2-vCPU VM on a shared host) changes speed by up to a
# factor of two within minutes and by a tenth within a second, and CPU time
# drifts with wall time, so neither clock alone gives repeatable figures. A
# chunk of plain Python runs between operations, at least every
# CALIBRATION_EVERY_S and always right after an operation that took longer;
# each operation's time is scaled by CALIBRATION_S over the median of the
# last RECENT_CHUNKS chunk times. The chunk uses no crem code, so a change
# to crem moves the scaled figures as it moves the raw ones.
CALIBRATION_S = 1e-3
CALIBRATION_EVERY_S = 0.02
CALIBRATION_LOOPS = 8000
RECENT_CHUNKS = 3


def calibration_chunk() -> float:
    """Seconds one fixed chunk of dict and integer work takes now."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = i & 31
        table[key] = table.get(key, 0) + (i * i) % 7
    return perf_counter() - start


def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated as statistics.quantiles does."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


@dataclass
class Recorder:
    """What one measured phase did: operations, failures, samples, totals.

    ``samples`` holds per-operation latencies in seconds by kind;
    ``totals`` holds summed work and time by name; ``ops`` counts the
    timed top-level operations that per-operation layer counts divide by;
    ``calibration`` holds the calibration chunk times taken meanwhile.
    """

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    failures: list[str] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    next_calibration: float = 0.0
    lap_start: float = field(default_factory=perf_counter)

    def pace(self, force: bool = False) -> None:
        """Time a calibration chunk if CALIBRATION_EVERY_S passed since the last.

        Workloads call this between timed operations, never inside one.
        """
        if force or perf_counter() >= self.next_calibration:
            self.calibration.append(calibration_chunk())
            self.next_calibration = perf_counter() + CALIBRATION_EVERY_S

    def scaled(self, elapsed: float) -> float:
        """``elapsed`` seconds of an operation that just ended, in reference seconds."""
        self.pace()
        return elapsed * CALIBRATION_S / statistics.median(self.calibration[-RECENT_CHUNKS:])

    def lap(self) -> None:
        """Add the time since the last lap, in reference seconds, to ``totals["lap_s"]``.

        Set-ups call this between pieces of work, so long set-ups are scaled
        piece by piece; calibration chunks fall between laps, not in them.
        """
        elapsed = perf_counter() - self.lap_start
        self.totals["lap_s"] += self.scaled(elapsed)
        self.lap_start = perf_counter()

    @property
    def scale(self) -> float:
        """Factor from this host's seconds to reference seconds over this phase."""
        if not self.calibration:
            return 1.0
        return CALIBRATION_S / statistics.median(self.calibration)

    def outcome(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember the first few that failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    def crashed(self, what: str) -> None:
        """Count an operation that raised; the run carries on."""
        self.outcome(False, f"{what}: {traceback.format_exc(limit=3).strip()}")


@dataclass
class Context:
    """What a workload may use: the crem package, its entry points, a temporary dir.

    ``api`` holds the functions the workload calls through (``cli_main``,
    ``render_flow``, ``render_base``, ``registry``); the traced run swaps
    in timed wrappers. ``tracer`` is None in untraced runs.
    """

    crem: Any
    api: Any
    seed: int
    tmpdir: str
    tracer: Any = None


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def over_rounds(rounds: list[Recorder], value) -> float:
    """Median over rounds of a per-round figure.

    Every round does the same work, so the median discards rounds that a
    burst of load on the host slowed or sped up, where a figure pooled over
    the whole run would absorb them.
    """
    figures = []
    for rec in rounds:
        try:
            figures.append(value(rec))
        except (ZeroDivisionError, IndexError, statistics.StatisticsError):
            pass  # a round whose operations all failed; the failures are counted
    return statistics.median(figures) if figures else 0.0


def merge(rounds: list[Recorder]) -> Recorder:
    """One Recorder holding the sums and samples of all ``rounds``."""
    total = Recorder()
    for rec in rounds:
        total.attempted += rec.attempted
        total.failed += rec.failed
        total.ops += rec.ops
        for kind, values in rec.samples.items():
            total.samples[kind].extend(values)
        for name, value in rec.totals.items():
            total.totals[name] += value
        total.failures.extend(rec.failures[: 5 - len(total.failures)])
        total.calibration.extend(rec.calibration)
    return total
