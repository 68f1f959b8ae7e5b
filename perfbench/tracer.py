"""Spans around the calls into each storywiggle module, from outside it.

`Tracer.install()` replaces a module attribute (the name a caller
imported, such as `storywiggle.pipeline.solve_model`) with a wrapper
that records one span per call: name, start, end, parent span and call
id.  Spans stay in memory; the returned object and first argument are
kept on the span until `span_counters` has read its exact counters
from them (simplex pivots, B&B nodes, QP iterations, model sizes, routing
report), so counting costs nothing inside the timed region.
`uninstall()` puts every original back.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

from storywiggle.programs import EQ

INF = math.inf

# (module, attribute, span name): every import site the pipeline reaches
SITES = (
    ("storywiggle.pipeline", "load_instance", "instance.load"),
    ("storywiggle.pipeline", "compute_metrics", "instance.metrics"),
    ("storywiggle.pipeline", "minimal_stack_coordination", "instance.stack"),
    ("storywiggle.pipeline", "build_lwh_program", "programs.build"),
    ("storywiggle.pipeline", "build_qwh_program", "programs.build"),
    ("storywiggle.pipeline", "build_wc_program", "programs.build"),
    ("storywiggle.pipeline", "assignment_from_coordination", "programs.warm"),
    ("storywiggle.pipeline", "extract_coordination", "programs.extract"),
    ("storywiggle.pipeline", "solve_model", "solver"),
    ("storywiggle.pipeline", "max_wiggle_free_set", "wigglefree"),
    ("storywiggle.pipeline", "unrestricted_wc_min", "wigglefree"),
    ("storywiggle.pipeline", "route_all_gaps", "routing"),
    ("storywiggle.pipeline", "render_svg", "render"),
    ("storywiggle.wigglefree", "build_lwh_program", "programs.build"),
    ("storywiggle.wigglefree", "extract_coordination", "programs.extract"),
    ("storywiggle.wigglefree", "solve_model", "solver"),
    ("storywiggle.routing", "solve_model", "solver"),
    ("storywiggle.solver", "solve_lp", "simplex"),
    ("storywiggle.solver", "solve_ilp", "branch_bound"),
    ("storywiggle.solver", "solve_qp", "qp"),
    ("storywiggle.branch_bound", "solve_lp", "simplex"),
    ("storywiggle.qp", "solve_lp", "simplex"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    call: int
    arg: object = None
    ret: object = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.call = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, 0.0, 0.0, parent, self.call,
                        args[0] if args else None)
            spans.append(span)
            if parent >= 0:
                spans[parent].children.append(idx)
            stack.append(idx)
            span.start = clock()
            try:
                span.ret = fn(*args, **kwargs)
                return span.ret
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def run(self, name: str, fn, *args):
        """Call `fn` under a new root span with its own call id."""
        self.call += 1
        return self._wrap(name, fn)(*args)

    def self_time(self, span: Span) -> float:
        return span.duration - sum(self.spans[c].duration for c in span.children)


def tableau_mb(model) -> float:
    """Size of the dense simplex tableau, computed from model dimensions.

    The simplex solver splits free variables, adds one slack per
    inequality row and one artificial column per row.
    """
    m = len(model.constraints)
    cols = sum(2 if v.lower == -INF and v.upper == INF else 1
               for v in model.variables)
    cols += sum(1 for r in model.constraints if r.sense != EQ) + m
    return m * cols * 8 / 1e6


def span_counters(tracer: Tracer) -> list[dict]:
    """Exact counters of every span, read from the objects it returned."""
    out = []
    for s in tracer.spans:
        c: dict = {}
        r = s.ret
        if r is not None:
            if s.name == "simplex":
                c = {"pivots": r.iterations, "status": r.status,
                     "objective": r.objective}
            elif s.name == "branch_bound":
                c = {"nodes": r.nodes, "status": r.status,
                     "gap": r.gap if math.isfinite(r.gap) else None}
            elif s.name == "qp":
                c = {"iterations": r.iterations, "status": r.status}
            elif s.name == "programs.build":
                model = r[0]
                c = {"vars": len(model.variables), "rows": len(model.constraints)}
            elif s.name == "routing":
                c = {"dropped": r.report()["droppedTotal"]}
            elif s.name == "render":
                c = {"svg_bytes": len(r)}
        if s.name == "simplex" and s.arg is not None:
            c["tableau_mb"] = tableau_mb(s.arg)
        out.append(c)
    return out


def release(tracer: Tracer) -> None:
    """Drop the objects kept on spans once their counters are read."""
    for s in tracer.spans:
        s.arg = s.ret = None
