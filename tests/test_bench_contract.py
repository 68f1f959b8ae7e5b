"""The benchmark's tracer binds to names in the package; each must exist.

`perfbench/tracer.py` replaces module attributes by name, and
`perfbench/run.py` fails a traced pass when a workload's required layer
records no span.  A renamed or removed import site, or a change that
leaves a layer with no call on a workload, therefore breaks the
benchmark without breaking any other test.
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
