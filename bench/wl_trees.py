"""deep-trees: build seeded composition trees and step them, library calls only.

The trees follow a fixed ladder of 31 specs (8 to 256 leaves, left,
right and balanced nesting, leaf topologies of 4 to 64 vertices, Feedback
fan-out 1 to 3, Kleisli batches of 1, 2 or 4, node positions fixed per
spec); the seed picks topologies, leaf constants and inputs. Each round
constructs every tree BUILDS_PER_TREE times (timed as the build) and then
steps the last one STEPS_PER_TREE times; each step's output is compared with treegen's reference
interpreter.
"""

from __future__ import annotations

import random
from time import perf_counter

import treegen
from harness import Recorder, merge, metric, over_rounds, percentile

SPECS = treegen.ladder_specs(8, 256, 31)
STEPS_PER_TREE = 24
BUILDS_PER_TREE = 3  # per round; the last build is stepped


class DeepTrees:
    name = "deep-trees"
    # BENCHMARK.json's workload-neutral names -> (metric of this workload, scale)
    GENERIC = {
        "throughput_per_s": ("leaf_steps_per_s", 1.0),
        "secondary_per_s": ("leaves_built_per_s", 1.0),
        "op_p50_ms": ("step_p50_us", 1e-3),
        "op_tail_ms": ("step_p99_us", 1e-3),
    }

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def setup(self, rec: Recorder) -> None:
        crem = self.ctx.crem
        rng = random.Random(self.ctx.seed)
        self.cases = []
        for k, spec in enumerate(SPECS):
            # node positions are fixed per spec, so every seed's trees cost
            # about the same to step; the seed picks topologies, leaf
            # constants and inputs
            tree = treegen.generate(spec, random.Random(rng.getrandbits(64)), prefix=f"t{k}_",
                                    layout=random.Random(k))
            inputs = [(rng.randrange(treegen.MASK + 1), spec.ttl) for _ in range(STEPS_PER_TREE)]
            reference = treegen.Reference(tree)
            expected = []
            for value in inputs:
                before = reference.leaf_steps
                expected.append((reference.step(value), reference.leaf_steps - before))
            parts = treegen.crem_parts(tree, crem)
            self.cases.append((tree, parts, spec.leaves, list(zip(inputs, expected))))
            rec.lap()
        # set-up ends with the trees built, as a program pays for its trees
        # before the first step; rounds rebuild them to time construction
        self.built = []
        for tree, parts, _, _ in self.cases:
            self.built.append(treegen.build(tree, parts, crem))
            rec.lap()

    def round(self, rec: Recorder) -> None:
        crem, totals, steps = self.ctx.crem, rec.totals, rec.samples["step"]
        build_s = 0.0
        for k, (tree, parts, leaves, script) in enumerate(self.cases):
            machine = None
            for _ in range(BUILDS_PER_TREE):
                try:
                    start = perf_counter()
                    machine = treegen.build(tree, parts, crem)
                    elapsed = rec.scaled(perf_counter() - start)
                except Exception:
                    rec.crashed(f"build tree {k}")
                    machine = None
                    break
                rec.outcome(True, f"build tree {k}")
                build_s += elapsed
                totals["leaves_built"] += leaves
            if machine is None:
                continue
            for i, (value, (output, leaf_steps)) in enumerate(script):
                rec.ops += 1
                try:
                    start = perf_counter()
                    result, machine = machine.step(value)
                    elapsed = rec.scaled(perf_counter() - start)
                except Exception:
                    rec.crashed(f"tree {k} step {i}")
                    break
                rec.outcome(result == output, f"tree {k} step {i}: {result!r} != {output!r}")
                steps.append(elapsed)
                totals["step_s"] += elapsed
                totals["leaf_steps"] += leaf_steps
        totals["build_s"] += build_s

    def metrics(self, rounds: list[Recorder]) -> dict:
        total = merge(rounds)
        t, steps = total.totals, total.samples["step"]
        return {
            "build_s": metric(over_rounds(rounds, lambda r: r.totals["build_s"] / BUILDS_PER_TREE),
                              "s", len(rounds) * BUILDS_PER_TREE),
            "leaves_built_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["leaves_built"] / r.totals["build_s"]),
                "1/s", int(t["leaves_built"])),
            "step_p50_us": metric(over_rounds(
                rounds, lambda r: percentile(r.samples["step"], 50)) * 1e6, "us", len(steps)),
            # one round has too few steps past its 99th percentile: pool them
            "step_p99_us": metric(percentile(steps, 99) * 1e6, "us", len(steps)),
            "leaf_steps_per_s": metric(over_rounds(
                rounds, lambda r: r.totals["leaf_steps"] / r.totals["step_s"]),
                "1/s", int(t["leaf_steps"])),
        }

    def layer_counts(self, rec: Recorder) -> dict:
        return {}
