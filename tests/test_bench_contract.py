"""The benchmark's tracer binds to names in the package; each must exist.

`perfbench/tracer.py` replaces module attributes by name, and
`perfbench/run.py` fails a traced pass when a workload's required layer
records no span.  `tracer.span_counters` then reads each solver's
counters by attribute from the result it returned.  A renamed or removed
import site or result field, or a change that leaves a layer with no
call on a workload, therefore breaks the benchmark without breaking any
other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from storywiggle.instance import save_instance
from storywiggle.pipeline import RunConfig, run_pipeline

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load(name):
    """Import `perfbench/<name>.py` under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


@pytest.mark.parametrize("module, attr, span", tracer.SITES)
def test_site_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_required_layer_has_a_site(name):
    # "pipeline" is the root span `run.py` opens around each call
    spans = {span for _, _, span in tracer.SITES} | {"pipeline"}
    assert set(workloads.WORKLOADS[name](7).layers) <= spans


@pytest.mark.parametrize("name", ["ladder-lwh", "ladder-qwh", "batch-small"])
def test_every_required_layer_records_a_span(name, tmp_path):
    wl = workloads.WORKLOADS[name](7)
    spans = tracer.Tracer()
    spans.install()
    try:
        for k, call in enumerate(wl.calls):
            path = tmp_path / f"{call.instance.name}.json"
            if not path.exists():
                save_instance(str(path), call.instance.inst,
                              call.instance.params)
            r = spans.run("pipeline", run_pipeline, RunConfig(
                str(path), objective=call.objective,
                svg_path=str(tmp_path / "out.svg"),
                metrics_path=str(tmp_path / "out.metrics.json"),
                routing_report_path=str(tmp_path / "out.routing.json"),
                time_limit=call.time_limit))
            assert r.exit_code == 0, (call.instance.name, call.objective)
    finally:
        spans.uninstall()
    assert set(wl.layers) <= {s.name for s in spans.spans}


def test_span_counters_read_every_solver_result(tmp_path):
    calls = (workloads.WORKLOADS["wc-bnb"](7).calls[0],
             workloads.WORKLOADS["ladder-qwh"](7).calls[0])
    spans = tracer.Tracer()
    spans.install()
    try:
        for call in calls:
            path = tmp_path / f"{call.instance.name}.json"
            save_instance(str(path), call.instance.inst, call.instance.params)
            r = spans.run("pipeline", run_pipeline, RunConfig(
                str(path), objective=call.objective,
                time_limit=call.time_limit))
            assert r.exit_code == 0, (call.instance.name, call.objective)
    finally:
        spans.uninstall()
    counters: dict[str, list[dict]] = {}
    for span, c in zip(spans.spans, tracer.span_counters(spans)):
        counters.setdefault(span.name, []).append(c)
    (bnb,) = counters["branch_bound"]
    assert type(bnb["nodes"]) is int and bnb["nodes"] > 0
    assert type(bnb["gap"]) is float
    assert counters["simplex"]
    assert all(type(c["pivots"]) is int for c in counters["simplex"])
    (qp,) = counters["qp"]
    assert type(qp["iterations"]) is int
