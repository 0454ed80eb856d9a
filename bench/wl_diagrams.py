"""diagrams: render_flow and render_base to DOT and Mermaid, no stepping.

Rendered per round, in both formats: one seeded tree for each of 25
ladder specs (16 to 512 leaves), every registered machine as a flow
diagram, and every distinct leaf machine of the registered machines as a
base diagram. Each diagram's sha256 must match digests.json, which was
frozen from crem's seed commit: diagrams must stay byte-identical.

Digests can only be frozen for a finite set of trees, so each ladder spec
has VARIANTS corpus trees generated from fixed seeds, and the run seed
chooses one variant per spec.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

import treegen
from harness import Recorder, merge, metric, over_rounds, percentile

SPECS = treegen.ladder_specs(16, 512, 25)
VARIANTS = 4
FORMATS = ("dot", "mermaid")
DIGESTS = Path(__file__).with_name("digests.json")


def corpus_tree(k: int, variant: int):
    """Description of variant ``variant`` of ladder spec ``k``; the same in every run."""
    return treegen.generate(SPECS[k], random.Random(1000 * k + variant), prefix=f"d{k}_")


def registered_targets(registry):
    """Flow targets for every registered machine and base targets for their leaves."""
    flows, bases = [], {}
    for name in sorted(registry):
        tree = registry[name].factory()
        flows.append((f"registered.{name}", tree))
        for leaf in tree.leaves():
            bases.setdefault(f"base.{leaf.name}", leaf)
    return flows, list(bases.items())


class Diagrams:
    name = "diagrams"
    # BENCHMARK.json's workload-neutral names -> (metric of this workload, scale)
    GENERIC = {
        "throughput_per_s": ("diagram_bytes_per_s", 1.0),
        "secondary_per_s": ("flow_leaves_per_s", 1.0),
        "op_p50_ms": ("render_p50_ms", 1.0),
        "op_tail_ms": ("render_p90_ms", 1.0),
    }

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def setup(self, rec: Recorder) -> None:
        crem, api = self.ctx.crem, self.ctx.api
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        rng = random.Random(self.ctx.seed)
        flows = []
        for k in range(len(SPECS)):
            variant = rng.randrange(VARIANTS)
            tree = corpus_tree(k, variant)
            machine = treegen.build(tree, treegen.crem_parts(tree, crem), crem)
            flows.append((f"tree{k}.v{variant}", machine))
            rec.lap()
        registry = api.registry or crem.cli.default_registry()
        registered, bases = registered_targets(registry)
        self.jobs = []  # (key, flow or base, target, format, leaves drawn)
        for key, machine in flows + registered:
            leaves = sum(1 for _ in machine.leaves())
            for fmt in FORMATS:
                self.jobs.append((f"{key}.{fmt}", "flow", machine, fmt, leaves))
        for key, leaf in bases:
            for fmt in FORMATS:
                self.jobs.append((f"{key}.{fmt}", "base", leaf, fmt, 1))
        self.expected = {job[0]: digests.get(job[0]) for job in self.jobs}

    def round(self, rec: Recorder) -> None:
        api, totals, renders = self.ctx.api, rec.totals, rec.samples["render"]
        for key, mode, target, fmt, leaves in self.jobs:
            render = api.render_flow if mode == "flow" else api.render_base
            rec.ops += 1
            try:
                start = perf_counter()
                diagram = render(target, fmt)
                elapsed = rec.scaled(perf_counter() - start)
            except Exception:
                rec.crashed(f"render {key}")
                continue
            data = diagram.text.encode("utf-8")
            digest = hashlib.sha256(data).hexdigest()
            rec.outcome(digest == self.expected[key], f"diagram {key} differs from its frozen digest")
            renders.append(elapsed)
            totals["render_s"] += elapsed
            totals["bytes"] += len(data)
            if mode == "flow":
                totals["flow_s"] += elapsed
                totals["flow_leaves"] += leaves

    def metrics(self, rounds: list[Recorder]) -> dict:
        total = merge(rounds)
        t, renders = total.totals, len(total.samples["render"])
        return {
            "render_p50_ms": metric(over_rounds(
                rounds, lambda r: percentile(r.samples["render"], 50)) * 1e3,
                "ms", renders),
            "render_p90_ms": metric(over_rounds(
                rounds, lambda r: percentile(r.samples["render"], 90)) * 1e3,
                "ms", renders),
            "diagram_bytes_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["bytes"] / r.totals["render_s"]),
                "B/s", int(t["bytes"])),
            "flow_leaves_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["flow_leaves"] / r.totals["flow_s"]),
                "1/s", int(t["flow_leaves"])),
        }

    def layer_counts(self, rec: Recorder) -> dict:
        return {"render.bytes": rec.totals["bytes"] / rec.ops}


def freeze(crem) -> dict:
    """Digests of every diagram any seed can ask for, from the crem imported now."""
    registry = crem.cli.default_registry()
    digests = {}

    def add(key, diagram):
        digests[key] = hashlib.sha256(diagram.text.encode("utf-8")).hexdigest()

    for k in range(len(SPECS)):
        for variant in range(VARIANTS):
            tree = corpus_tree(k, variant)
            machine = treegen.build(tree, treegen.crem_parts(tree, crem), crem)
            for fmt in FORMATS:
                add(f"tree{k}.v{variant}.{fmt}", crem.render_flow(machine, fmt))
    flows, bases = registered_targets(registry)
    for key, machine in flows:
        for fmt in FORMATS:
            add(f"{key}.{fmt}", crem.render_flow(machine, fmt))
    for key, leaf in bases:
        for fmt in FORMATS:
            add(f"{key}.{fmt}", crem.render_base(leaf, fmt))
    return digests
