"""Timed wrappers around crem's public boundaries, installed from outside.

Only the traced run imports this module. ``Tracer.install`` replaces
methods on crem's classes (Topology, BaseMachine, the six composition
nodes), the ``json`` functions while a ``cli.main`` call is running, and
returns an api whose ``cli_main``, ``render_flow``, ``render_base`` and
``registry`` entries are wrapped. Spans are aggregated in memory by
(phase, name, parent name); a span's self time is its duration minus the
time of its child spans. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

NODE_KINDS = ("basic", "sequential", "parallel", "alternative", "feedback", "kleisli")
# calls counted (not timed) inside top-level steps and renders
EVENTS = ("normalize", "vertices", "machine_construct", "compose_construct", "leaves")


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.stack: list[list] = []  # [name, time covered by children]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # key -> count, total s, self s
        self.counts = defaultdict(int)  # (phase, "event@step" or "event@render") -> n
        self.events = dict.fromkeys(EVENTS, 0)  # running totals
        self.marks: dict[str, dict] = {}  # open scopes -> event counts at entry
        self.top_steps = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans and counters ---------------------------------------------------

    def call(self, name, func, args, kwargs):
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            span = self.spans[(self.phase, name, parent)]
            span[0] += 1
            span[1] += elapsed
            span[2] += elapsed - frame[1]

    def _enter(self, scope: str) -> None:
        """Open a top-level step, render or cli.main call: note the event counts."""
        self.marks[scope] = dict(self.events)

    def _leave(self, scope: str) -> None:
        """Attribute the events since ``_enter`` to this scope and phase."""
        for event, before in self.marks.pop(scope).items():
            self.counts[(self.phase, f"{event}@{scope}")] += self.events[event] - before

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_method(self, cls, attr, name, event=None):
        original, tracer, events = getattr(cls, attr), self, self.events

        def wrapper(*args, **kwargs):
            if event:
                events[event] += 1
            return tracer.call(name, original, args, kwargs)

        self._patch(cls, attr, wrapper)

    def _step_method(self, cls, name):
        original, tracer = cls.step, self

        def step(*args, **kwargs):
            if "step" in tracer.marks:
                return tracer.call(name, original, args, kwargs)
            tracer.top_steps += 1
            tracer.counts[(tracer.phase, "top_steps")] += 1
            tracer._enter("step")
            try:
                return tracer.call(name, original, args, kwargs)
            finally:
                tracer._leave("step")

        self._patch(cls, "step", step)

    def _leaves_method(self, cls):
        original, events = cls.leaves, self.events

        def leaves(self_):
            for leaf in original(self_):
                events["leaves"] += 1
                yield leaf

        self._patch(cls, "leaves", leaves)

    def _wrap(self, name, func, scope=None):
        """Span around ``func``; a scope ("cli" or "render") also marks its extent."""
        tracer = self

        def wrapper(*args, **kwargs):
            if scope is None:
                return tracer.call(name, func, args, kwargs)
            tracer._enter(scope)
            try:
                return tracer.call(name, func, args, kwargs)
            finally:
                tracer._leave(scope)

        return wrapper

    def install(self, crem, api):
        """Wrap crem's boundaries; return the api the workload should call."""
        topology = crem.Topology
        self._span_method(topology, "allows", "topology.allows")
        self._span_method(topology, "normalize", "topology.normalize", "normalize")
        self._span_method(topology, "vertices", "topology.vertices", "vertices")
        self._step_method(crem.BaseMachine, "machine.step")
        self._span_method(crem.BaseMachine, "__init__", "machine.construct", "machine_construct")
        for kind in NODE_KINDS:
            cls = getattr(crem, kind.capitalize())
            self._step_method(cls, f"compose.{kind}.step")
            self._span_method(cls, "__init__", f"compose.{kind}.construct", "compose_construct")
            self._leaves_method(cls)

        tracer = self
        for func in ("loads", "dumps"):
            original = getattr(json, func)

            def in_cli(*args, _original=original, **kwargs):
                if "cli" in tracer.marks:
                    return tracer.call("cli.json", _original, args, kwargs)
                return _original(*args, **kwargs)

            self._patch(json, func, in_cli)

        render_flow, render_base = api.render_flow, api.render_base
        flow = {fmt: self._wrap(f"render.flow_{fmt}", render_flow, "render")
                for fmt in ("dot", "mermaid")}
        registry = {
            name: replace(
                entry,
                factory=self._wrap("cart.factory", entry.factory),
                decode_input=self._wrap("cli.codec", entry.decode_input),
                encode_input=self._wrap("cli.codec", entry.encode_input),
                encode_output=self._wrap("cli.codec", entry.encode_output),
            )
            for name, entry in crem.cli.default_registry().items()
        }
        return SimpleNamespace(
            cli_main=self._wrap("cli.main", api.cli_main, "cli"),
            render_flow=lambda machine, fmt: flow[fmt](machine, fmt),
            render_base=self._wrap("render.base", render_base, "render"),
            registry=registry,
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def _measure(self, counter: str) -> int:
        return self.counts[("measure", counter)]

    def _spans(self, name):
        """Summed count, total and self time of the measuring spans called ``name``."""
        found = [0, 0.0, 0.0]
        for (phase, span_name, _), values in self.spans.items():
            if phase == "measure" and span_name == name:
                for i in range(3):
                    found[i] += values[i]
        return found

    def layer_metrics(self, ops: int, scale: float) -> dict:
        """The per-layer metrics of the measuring rounds: counts per top-level
        operation or step, and self times per top-level operation in reference
        seconds (``scale`` converts this host's seconds to them)."""
        steps = self._measure("top_steps")
        renders = sum(self._spans(name)[0]
                      for name in ("render.flow_dot", "render.flow_mermaid", "render.base"))

        def per(n, base):
            return n / base if base else 0.0

        def self_s(name):
            return per(self._spans(name)[2] * scale, ops)

        def child_steps(parent):
            return sum(values[0] for (phase, name, span_parent), values in self.spans.items()
                       if phase == "measure" and span_parent == parent
                       and name.endswith(".step"))

        def count(name):
            return per(self._spans(name)[0], ops)

        def per_step(event):
            return per(self._measure(f"{event}@step"), steps)

        out = {
            "topology.allows.count": count("topology.allows"),
            "topology.allows.self_s": self_s("topology.allows"),
            "topology.normalize.per_step": per_step("normalize"),
            "topology.vertices.per_step": per_step("vertices"),
            "machine.step.count": count("machine.step"),
            "machine.step.self_s": self_s("machine.step"),
            "machine.construct.per_step": per_step("machine_construct"),
        }
        for kind in NODE_KINDS:
            out[f"compose.{kind}.step.count"] = count(f"compose.{kind}.step")
            out[f"compose.{kind}.step.self_s"] = self_s(f"compose.{kind}.step")
        feedback = self._spans("compose.feedback.step")[0]
        kleisli = self._spans("compose.kleisli.step")[0]
        out.update({
            "compose.construct.per_step": per_step("compose_construct"),
            "compose.construct.self_s": sum(self_s(f"compose.{kind}.construct") for kind in NODE_KINDS),
            "compose.leaves_yielded.per_step": per_step("leaves"),
            "compose.leaves_yielded.per_render": per(self._measure("leaves@render"), renders),
            "compose.feedback.iterations_per_input": per(child_steps("compose.feedback.step"), feedback),
            "compose.kleisli.batch_size": per(child_steps("compose.kleisli.step") - kleisli, kleisli),
            "cart.factory.self_s": self_s("cart.factory"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.codec.self_s": self_s("cli.codec"),
            "cli.json.self_s": self_s("cli.json"),
            "render.flow_dot.self_s": self_s("render.flow_dot"),
            "render.flow_mermaid.self_s": self_s("render.flow_mermaid"),
            "render.base.self_s": self_s("render.base"),
            # replaced by the workload that drives these layers
            "cli.restep.count": 0.0,
            "cli.useful_step_ratio": 0.0,
            "cli.log_bytes": 0.0,
            "render.bytes": 0.0,
        })
        return out

    def span_table(self) -> list[str]:
        rows = sorted(self.spans.items(), key=lambda item: -item[1][2])
        return [f"{phase:7} {name:32} {str(parent):32} {n:9d} {total:10.4f} {own:10.4f}"
                for (phase, name, parent), (n, total, own) in rows]
