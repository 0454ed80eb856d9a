"""crem benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {cli-log,deep-trees,diagrams} \
        --seed N --seconds S --trace {0,1}

Run from the root of a crem checkout; crem is imported from its ``src``
directory. A single closed-loop caller drives crem's public API: the next
call starts only after the previous one returned. Inputs come from the
seed alone. Set-up (input generation and construction) runs at least
SETUP_REPEATS times and reports its median; then the workload repeats
identical rounds until ``--seconds`` have passed. Times are reported in
reference seconds, corrected for the host's speed by harness's
calibration chunks.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics named in BENCHMARK.json; the lines before it list every
metric of the workload under its own name, with unit and sample count.
With ``--trace 1`` the process first runs rounds untraced for half the
time, then installs tracing.py's wrappers, sets up again and runs traced
rounds for the other half; the last line then carries the per-layer
metrics and ``trace.overhead_ratio``. Untraced runs never import tracing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from harness import Context, Recorder, merge, metric

ROOT = Path(__file__).resolve().parent.parent
# set-up is repeated at least SETUP_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS times); setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 31
SETUP_PROBES = 3  # calibration chunks before a set-up


def load_crem():
    """Import crem from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "crem" / "__init__.py").is_file():
        raise SystemExit(f"error: no crem package under {src}")
    sys.path.insert(0, str(src))
    import crem
    import crem.cli

    if Path(crem.__file__).resolve().parent != (src / "crem").resolve():
        raise SystemExit(f"error: imported crem from {crem.__file__}, not {src}")
    return crem


def _workloads():
    from wl_cli import CliLog
    from wl_diagrams import Diagrams
    from wl_trees import DeepTrees

    return {wl.name: wl for wl in (CliLog, DeepTrees, Diagrams)}


def _declared():
    """Metric names and units BENCHMARK.json declares, by kind."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: no {path}")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def run_record(crem) -> dict:
    sources = sorted((ROOT / "src" / "crem").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "recursion_limit": sys.getrecursionlimit(),
        "crem_version": crem.__version__,
        "crem_commit": commit,
        "crem_source_sha256": digest,
    }


def measure(workload, seconds: float) -> tuple[list[Recorder], list[float]]:
    """Run whole rounds until ``seconds`` have passed; at least one.

    The collector runs between rounds and is off inside them. Round times
    are returned in reference seconds (see harness.CALIBRATION_S).
    """
    rounds, round_s = [], []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        gc.collect()
        rec = Recorder()
        gc.disable()
        try:
            rec.pace(force=True)
            start = perf_counter()
            workload.round(rec)
            elapsed = perf_counter() - start
            rec.pace(force=True)
        finally:
            gc.enable()
        round_s.append(elapsed * rec.scale)
        rounds.append(rec)
    return rounds, round_s


def timed_setup(workload) -> float:
    """One set-up in reference seconds, scaled lap by lap."""
    gc.collect()
    probe = Recorder()
    for _ in range(SETUP_PROBES):
        probe.pace(force=True)
    probe.lap_start = perf_counter()
    workload.setup(probe)
    probe.lap()
    return probe.totals["lap_s"]


def untraced(workload, seconds: float):
    setup_s = []
    started = perf_counter()
    while len(setup_s) < SETUP_REPEATS or (
            perf_counter() - started < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS):
        setup_s.append(timed_setup(workload))
    rounds, _ = measure(workload, seconds)
    rec = merge(rounds)
    named = workload.metrics(rounds)
    named["setup_s"] = metric(statistics.median(setup_s), "s", len(setup_s))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    named["peak_rss_mb"] = metric(rss_kib / 1024, "MB", 1)
    named["failed_ratio"] = metric(rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)
    named["host_scale"] = metric(statistics.median(r.scale for r in rounds), "ratio", len(rec.calibration))
    generic = {name: named[name]["value"] for name in ("setup_s", "peak_rss_mb")}
    for name, (source, scale) in workload.GENERIC.items():
        generic[name] = named[source]["value"] * scale
    return rec, len(rounds), named, generic


def traced(workload, ctx: Context, seconds: float):
    workload.setup(Recorder())
    plain_rounds, plain_s = measure(workload, seconds / 2)

    import tracing

    tracer = tracing.Tracer()
    ctx.api = tracer.install(ctx.crem, ctx.api)
    ctx.tracer = tracer
    try:
        workload.setup(Recorder())
        tracer.phase = "measure"
        traced_rounds, traced_s = measure(workload, seconds / 2)
    finally:
        tracer.uninstall()
    rec = merge(traced_rounds)
    layers = tracer.layer_metrics(rec.ops, rec.scale)
    layers.update(workload.layer_counts(rec))
    layers["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    return merge(plain_rounds + traced_rounds), tracer, layers


def _as_declared(values: dict, declared: dict) -> dict:
    """The metrics BENCHMARK.json names, with its units; any gap is an error."""
    missing = sorted(set(declared) - set(values))
    if missing:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run lacks: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared()
    crem = load_crem()
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    os.environ.pop(crem.cli.ENV_FEEDBACK_CAP, None)

    work = ROOT / ".bench_tmp"
    work.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work)
    try:
        api = SimpleNamespace(cli_main=crem.cli.main, render_flow=crem.render_flow,
                              render_base=crem.render_base, registry=None)
        ctx = Context(crem=crem, api=api, seed=args.seed, tmpdir=tmpdir)
        workload = workloads[args.workload](ctx)
        print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     **run_record(crem)}, sort_keys=True))
        if args.trace:
            rec, tracer, layers = traced(workload, ctx, args.seconds)
            print("# spans: phase name parent count total_s self_s")
            for line in tracer.span_table():
                print("#   " + line)
            metrics = _as_declared(layers, declared["per_layer"])
        else:
            rec, rounds, named, generic = untraced(workload, args.seconds)
            print(f"# {rounds} rounds, {rec.ops} timed operations")
            declared_as = {source: name for name, (source, _) in workload.GENERIC.items()}
            print(f"# {'metric':28} {'value':>16} {'unit':8} {'samples':>9}  BENCHMARK.json name")
            for name, m in named.items():
                print(f"# {name:28} {m['value']:16.6f} {m['unit']:8} {m['samples']:9d}  "
                      f"{declared_as.get(name, name if name in generic else '-')}")
            metrics = _as_declared(generic, declared["end_to_end"])
        for failure in rec.failures:
            print(f"# FAILED {failure}")
        print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                          "failed": rec.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
