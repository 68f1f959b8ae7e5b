"""End-to-end pipeline runs, exit codes, and the CLI wrapper."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storywiggle import pipeline as pipeline_mod
from storywiggle.cli import main as cli_main
from storywiggle.generate import generate_instance
from storywiggle.instance import compute_metrics, instance_to_dict
from storywiggle.oracle import OracleLimitError
from storywiggle.pipeline import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_MISMATCH,
                                  EXIT_OK, EXIT_TIME, OBJECTIVES, RunConfig,
                                  compare_objectives, format_compare_table,
                                  run_pipeline)
from storywiggle.solver import SolveResult, SolverConfig, SolveStatus

INSTANCES = Path(__file__).parent.parent / "instances"
CROSSING = str(INSTANCES / "crossing_pair.json")
DEMO = str(INSTANCES / "demo.json")

DEMO_TABLE = """\
layout               wiggleCount      linearWiggleHeight   quadraticWiggleHeight             totalHeight
wc                 5.000 (1.00x)          19.000 (1.36x)          75.000 (2.76x)           5.000 (1.67x)
lwh                8.000 (1.60x)          14.000 (1.00x)          28.000 (1.03x)           3.000 (1.00x)
qwh                9.000 (1.80x)          14.333 (1.02x)          27.167 (1.00x)           3.000 (1.00x)
base              10.000 (2.00x)          15.000 (1.07x)          27.500 (1.01x)           3.000 (1.00x)"""

METRIC_KEYS = {"wiggleCount", "linearWiggleHeight", "quadraticWiggleHeight",
               "totalHeight", "objective", "solverStatus", "solveSeconds"}


# instances without time steps, and a spacing far beyond float precision
ZERO_STEPS = {"characters": [{"id": "a", "activeFrom": 1, "activeTo": 1}],
              "meetings": [], "orderings": []}
EMPTY = {"characters": [], "meetings": [], "orderings": []}
HUGE_SPACING = {"characters": [{"id": "a", "activeFrom": 1, "activeTo": 2},
                               {"id": "b", "activeFrom": 1, "activeTo": 2}],
                "meetings": [], "orderings": [["a", "b"], ["b", "a"]],
                "params": {"delta": 1e300, "deltaBar": 1e300}}


def run(tmp_path, input_path, **kwargs):
    kwargs.setdefault("metrics_path", str(tmp_path / "metrics.json"))
    return run_pipeline(RunConfig(input_path=input_path, **kwargs))


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestSuccessRuns:
    def test_crossing_wc_frozen_values(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="wc", check_oracle=True)
        assert r.exit_code == EXIT_OK
        m = r.metrics
        assert METRIC_KEYS <= set(m)
        assert m["objective"] == pytest.approx(1.5)   # one wiggle plus h/Y
        assert m["wiggleCount"] == 1
        assert m["linearWiggleHeight"] == pytest.approx(2.0)
        assert m["quadraticWiggleHeight"] == pytest.approx(4.0)
        assert m["totalHeight"] == pytest.approx(2.0)
        assert m["solverStatus"] == "optimal"
        assert m["oracleValue"] == 1.0 and m["oracleMatch"] is True

    def test_demo_lwh_frozen_values(self, tmp_path):
        r = run(tmp_path, DEMO, objective="lwh", check_oracle=True)
        assert r.exit_code == EXIT_OK
        m = r.metrics
        assert m["objective"] == pytest.approx(14.0)
        assert m["linearWiggleHeight"] == pytest.approx(14.0)
        assert m["wiggleCount"] == 8
        assert m["quadraticWiggleHeight"] == pytest.approx(28.0)
        assert m["totalHeight"] == pytest.approx(3.0)
        assert m["oracleMatch"] is True

    def test_qwh_reports_kkt(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="qwh", check_oracle=True)
        assert r.exit_code == EXIT_OK
        assert r.metrics["objective"] == pytest.approx(2.0)
        assert r.metrics["kktResidual"] < 1e-6
        assert r.metrics["oracleMatch"] is True

    def test_wc_unrestricted(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="wc-unrestricted")
        assert r.exit_code == EXIT_OK
        assert r.metrics["objective"] == pytest.approx(1.0)
        assert r.metrics["perGapWiggles"] == [1]

    def test_wc_unrestricted_without_time_steps(self, tmp_path):
        r = run(tmp_path, write_doc(tmp_path, EMPTY),
                objective="wc-unrestricted")
        assert r.exit_code == EXIT_OK
        assert r.metrics["objective"] == 0.0
        assert r.metrics["perGapWiggles"] == []

    def test_wigglefree(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="wigglefree")
        assert r.exit_code == EXIT_OK
        assert r.metrics["wiggleFreeSize"] == 1
        assert len(r.metrics["wiggleFreeSubset"]) == 1

    def test_param_overrides(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="lwh", delta_bar=2.0)
        assert r.metrics["objective"] == pytest.approx(4.0)

    def test_artifacts_written(self, tmp_path):
        svg_path = tmp_path / "out.svg"
        report_path = tmp_path / "routing.json"
        r = run(tmp_path, CROSSING, objective="wc",
                svg_path=str(svg_path), routing_report_path=str(report_path))
        assert r.exit_code == EXIT_OK
        assert svg_path.read_text().startswith("<svg ")
        assert "<title>crossing_pair.json</title>" in r.svg
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk == r.metrics
        report = json.loads(report_path.read_text())
        assert report == r.routing_report
        # default rmin is delta/2, so the lone mover needs dx = |dy|
        assert report["gaps"][0]["dx"] == pytest.approx(2.0)
        assert report["droppedTotal"] == 0

    def test_svg_bytes_are_stable(self, tmp_path):
        first = run(tmp_path, DEMO, svg_path=str(tmp_path / "a.svg"))
        second = run(tmp_path, DEMO, svg_path=str(tmp_path / "b.svg"))
        assert first.svg == second.svg


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_wc_layouts_are_integral(seed):
    # only the indicators are integral; with them fixed the rows are
    # differences, so y is integral at every vertex the solver returns
    inst, params = generate_instance(4, 3, seed=seed, meeting_prob=0.5)
    status, coord, _, _ = pipeline_mod._solve_objective(
        inst, params, "wc", SolverConfig(backend="builtin"))
    assert status is SolveStatus.OPTIMAL
    assert all(abs(y - round(y)) <= 1e-9 for _, y in coord.items())


def test_wc_layout_is_exact():
    # the simplex left this layout's height at 5.999999999999999
    inst, params = generate_instance(6, 6, seed=71, meeting_prob=0.5)
    status, coord, _, _ = pipeline_mod._solve_objective(
        inst, params, "wc", SolverConfig(backend="builtin"))
    assert status is SolveStatus.OPTIMAL
    assert compute_metrics(inst, coord).as_report()["totalHeight"] == 6.0
    assert all(y == round(y) for _, y in coord.items())


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        r = run(tmp_path, str(tmp_path / "nope.json"))
        assert r.exit_code == EXIT_INPUT and "nope" in r.message

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{half a document")
        assert run(tmp_path, str(bad)).exit_code == EXIT_INPUT

    def test_unknown_objective(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="height")
        assert r.exit_code == EXIT_INPUT and "height" in r.message

    def test_oracle_needs_an_optimizing_objective(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="wigglefree", check_oracle=True)
        assert r.exit_code == EXIT_INPUT

    def test_wc_rejects_fractional_spacing(self, tmp_path):
        r = run(tmp_path, CROSSING, objective="wc", delta=0.5, delta_bar=0.5)
        assert r.exit_code == EXIT_INPUT and "integral" in r.message

    def test_bad_delta_override(self, tmp_path):
        for flag, value in [("delta", -1.0), ("delta", math.inf),
                            ("delta_bar", math.inf), ("delta", 1e300),
                            ("delta_bar", 1e300), ("r_min", math.inf),
                            ("r_min", math.nan), ("r_min", 0.0),
                            ("r_min", -1.0)]:
            r = run(tmp_path, CROSSING, svg_path=str(tmp_path / "out.svg"),
                    **{flag: value})
            assert r.exit_code == EXIT_INPUT, (flag, value, r.message)

    def test_infinite_spacing_in_file(self, tmp_path):
        text = Path(CROSSING).read_text().replace('"delta": 1.0',
                                                  '"delta": 1e999')
        bad = tmp_path / "inf.json"
        bad.write_text(text)
        r = run(tmp_path, str(bad))
        assert r.exit_code == EXIT_INPUT and "finite" in r.message

    def test_activity_beyond_the_last_step(self, tmp_path):
        r = run(tmp_path, write_doc(tmp_path, ZERO_STEPS), objective="lwh")
        assert r.exit_code == EXIT_INPUT
        assert r.message.startswith("activity['a']")

    def test_compare_rejects_fractional_spacing(self, tmp_path):
        r = run(tmp_path, CROSSING, compare=True, delta=0.5)
        assert r.exit_code == EXIT_INPUT and "integral" in r.message

    def test_svg_clashes_with_compare(self, tmp_path):
        r = run(tmp_path, CROSSING, compare=True,
                svg_path=str(tmp_path / "x.svg"))
        assert r.exit_code == EXIT_INPUT and "--svg" in r.message


class TestSolverOutcomes:
    def test_infeasible_exit(self, tmp_path, monkeypatch):
        def stub(model, config=None, **kw):
            return SolveResult(SolveStatus.INFEASIBLE, None, None,
                               None, None, None, None)

        monkeypatch.setattr(pipeline_mod, "solve_model", stub)
        r = run(tmp_path, CROSSING, objective="lwh")
        assert r.exit_code == EXIT_INFEASIBLE
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk["solverStatus"] == "infeasible"
        assert on_disk["objective"] is None

    def test_time_limit_without_incumbent(self, tmp_path, monkeypatch):
        def stub(model, config=None, **kw):
            return SolveResult(SolveStatus.TIME_LIMIT, None, None,
                               -math.inf, math.inf, None, None)

        monkeypatch.setattr(pipeline_mod, "solve_model", stub)
        r = run(tmp_path, CROSSING, objective="lwh")
        assert r.exit_code == EXIT_TIME
        assert r.metrics["bestBound"] is None and r.metrics["gap"] is None

    def test_time_limit_keeps_the_incumbent(self, tmp_path):
        # a zero budget stops the search at the warm start, which is
        # still a full layout, so every artifact gets written
        svg_path = tmp_path / "out.svg"
        r = run(tmp_path, CROSSING, objective="wc", time_limit=0.0,
                svg_path=str(svg_path))
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "time_limit"
        assert r.metrics["wiggleCount"] >= 1
        assert r.metrics["bestBound"] is None and r.metrics["gap"] is None
        assert svg_path.exists()


    def test_qwh_time_limit_keeps_the_iterate(self, tmp_path):
        # the QP stops at its feasible warm start, a full nice layout
        paths = {"svg_path": str(tmp_path / "out.svg"),
                 "routing_report_path": str(tmp_path / "routing.json")}
        r = run(tmp_path, DEMO, objective="qwh", time_limit=0.0, **paths)
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "time_limit"
        assert "bestBound" not in r.metrics and "gap" not in r.metrics
        assert all(Path(p).exists() for p in paths.values())

    @pytest.mark.parametrize("objective", ["lwh", "wigglefree"])
    def test_simplex_time_limit_exits_four(self, tmp_path, objective):
        # the simplex stops before its second pivot, with no layout yet
        r = run(tmp_path, DEMO, objective=objective, time_limit=1e-6)
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "time_limit"
        assert r.svg is None

    def test_iteration_limit_with_layout_exits_four(self, tmp_path,
                                                    monkeypatch):
        real = pipeline_mod.solve_model

        def stopped_early(model, config=None, **kw):
            r = real(model, config, **kw)
            r.status = SolveStatus.ITERATION_LIMIT
            return r

        monkeypatch.setattr(pipeline_mod, "solve_model", stopped_early)
        r = run(tmp_path, CROSSING, objective="lwh")
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "iteration_limit"

    @pytest.mark.parametrize("status", [SolveStatus.NODE_LIMIT,
                                        SolveStatus.ITERATION_LIMIT])
    def test_other_limits_without_incumbent_exit_four(self, tmp_path,
                                                      monkeypatch, status):
        def stub(model, config=None, **kw):
            return SolveResult(status, None, None, None, None, None, None)

        monkeypatch.setattr(pipeline_mod, "solve_model", stub)
        r = run(tmp_path, CROSSING, objective="lwh")
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == status.value

    def test_node_limit_on_wc_exits_four(self, tmp_path, monkeypatch):
        real = pipeline_mod._solver_config
        monkeypatch.setattr(pipeline_mod, "_solver_config",
                            lambda config: replace(real(config), node_limit=1))
        r = run(tmp_path, DEMO, objective="wc")
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "node_limit"

    def test_external_timeout_exits_four(self, tmp_path):
        # the external command gets the limit, then is killed
        backend = f"external:{sys.executable} -c 'import time; time.sleep(30)'"
        r = run(tmp_path, CROSSING, objective="lwh", backend=backend,
                time_limit=0.05)
        assert r.exit_code == EXIT_TIME
        assert r.metrics["solverStatus"] == "time_limit"

    @pytest.mark.parametrize("text, message", [
        ("status weird\n", "bad solution line"),
        ("status optimal\ny_t1_c0\n", "bad solution line"),
        ("status optimal\ny_t1_c0 abc\n", "bad solution line"),
        ("status optimal\nobjective 1\n", "no value for")])
    def test_malformed_solution_exits_two(self, tmp_path, text, message):
        script = tmp_path / "fake_solver.py"
        script.write_text(f"import sys\nopen(sys.argv[2], 'w').write({text!r})\n")
        r = run(tmp_path, CROSSING, objective="lwh",
                backend=f"external:{sys.executable} {script}")
        assert r.exit_code == EXIT_INPUT and message in r.message

    def test_routing_failure_exits_two(self, tmp_path):
        # wc-unrestricted needs no solver, so the first model this backend
        # sees is the routing LP of a gap with a kept pair, which it
        # declares infeasible
        write = "open(sys.argv[2], 'w').write('status infeasible')"
        backend = f"external:{sys.executable} -c \"import sys; {write}\""
        r = run(tmp_path, DEMO, objective="wc-unrestricted",
                backend=backend)
        assert r.exit_code == EXIT_INPUT and "routing" in r.message


class TestOracleGate:
    def test_mismatch_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            pipeline_mod, "oracle_optimum",
            lambda inst, params, objective: SimpleNamespace(value=999.0))
        r = run(tmp_path, CROSSING, objective="lwh", check_oracle=True)
        assert r.exit_code == EXIT_MISMATCH
        assert r.metrics["oracleMatch"] is False
        # artifacts still land for the postmortem
        assert (tmp_path / "metrics.json").exists()

    def test_oracle_overflow_counts_as_failure(self, tmp_path, monkeypatch):
        def blow_up(inst, params, objective):
            raise OracleLimitError("too many states")

        monkeypatch.setattr(pipeline_mod, "oracle_optimum", blow_up)
        r = run(tmp_path, CROSSING, objective="lwh", check_oracle=True)
        assert r.exit_code == EXIT_MISMATCH
        assert "too many states" in r.metrics["oracleError"]


class TestCompare:
    def test_table_properties(self, tmp_path):
        r = run(tmp_path, DEMO, compare=True)
        assert r.exit_code == EXIT_OK
        layouts = r.metrics["layouts"]
        assert set(layouts) == {"wc", "lwh", "qwh", "base"}
        own = {"wc": "wiggleCount", "lwh": "linearWiggleHeight",
               "qwh": "quadraticWiggleHeight"}
        for name, key in own.items():
            assert layouts[name][f"{key}Ratio"] == pytest.approx(1.0)
        for row in layouts.values():
            for key in ("wiggleCount", "linearWiggleHeight",
                        "quadraticWiggleHeight", "totalHeight"):
                ratio = row[f"{key}Ratio"]
                assert ratio is None or ratio >= 1.0 - 1e-9
        assert layouts["base"]["totalHeightRatio"] == pytest.approx(1.0)
        assert layouts["base"]["solverStatus"] == "stacked"
        on_disk = json.loads((tmp_path / "metrics.json").read_text())
        assert on_disk == r.metrics

    def test_formatted_table(self, tmp_path):
        r = run(tmp_path, DEMO, compare=True)
        lines = format_compare_table(r.metrics).splitlines()
        assert lines[0].startswith("layout")
        assert len(lines) == 5
        assert lines[1].startswith("wc") and lines[4].startswith("base")
        assert r.message == format_compare_table(r.metrics)

    def test_demo_table_is_frozen(self, tmp_path):
        assert run(tmp_path, DEMO, compare=True).message == DEMO_TABLE

    def test_lwh_is_solved_once(self, tmp_path, monkeypatch):
        # the wc warm start reuses the lwh column's layout
        builds = []
        build = pipeline_mod.build_lwh_program
        monkeypatch.setattr(pipeline_mod, "build_lwh_program",
                            lambda *args: builds.append(args) or build(*args))
        assert run(tmp_path, DEMO, compare=True).exit_code == EXIT_OK
        assert len(builds) == 1


class TestCli:
    def test_success_prints_metrics(self, tmp_path, capsys):
        code = cli_main(["--input", CROSSING, "--objective", "wc",
                         "--metrics", str(tmp_path / "m.json"), "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["wiggleCount"] == 1

    def test_compare_prints_the_table(self, tmp_path, capsys):
        code = cli_main(["--input", DEMO, "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("layout")
        assert "{" not in out                  # table only, no JSON dump

    def test_flag_conflict(self, tmp_path, capsys):
        code = cli_main(["--input", CROSSING, "--compare",
                         "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert "--svg" in capsys.readouterr().err

    def test_missing_input_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli_main([])
        assert exc.value.code == 2

    def test_unknown_objective_choice(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--input", CROSSING, "--objective", "area"])
        assert exc.value.code == 2

    def test_oracle_mismatch_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            pipeline_mod, "oracle_optimum",
            lambda inst, params, objective: SimpleNamespace(value=999.0))
        code = cli_main(["--input", CROSSING, "--objective", "lwh",
                         "--oracle"])
        assert code == 1
        assert "oracle" in capsys.readouterr().err


SPACINGS = (1.0, 2.0, 0.5, 1.5)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


@st.composite
def documents(draw):
    """A generated instance of at most 4x4, or a damaged copy of one."""
    inst, params = generate_instance(
        draw(st.integers(1, 4)), draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        meeting_prob=draw(st.sampled_from((0.0, 0.5, 1.0))),
        delta=draw(st.sampled_from(SPACINGS)),
        delta_bar=draw(st.sampled_from(SPACINGS)))
    doc = instance_to_dict(inst, params)
    if draw(st.booleans()):
        return doc
    # walk into the document, then drop or overwrite one entry
    node = doc
    while node:
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and draw(st.booleans()):
            node = node[key]
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
        break
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=documents() | st.text(max_size=12))
@example(doc=ZERO_STEPS)
@example(doc=EMPTY)
@example(doc=HUGE_SPACING)
def test_no_input_ends_in_a_traceback(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = write_doc(tmp, doc)
    outputs = {"svg_path": str(tmp / "out.svg"),
               "metrics_path": str(tmp / "metrics.json"),
               "routing_report_path": str(tmp / "routing.json")}
    for objective in OBJECTIVES:
        r = run_pipeline(RunConfig(path, objective, time_limit=1.0, **outputs))
        assert r.exit_code in range(5), (objective, r.message)
    r = run_pipeline(RunConfig(path, compare=True, time_limit=1.0))
    assert r.exit_code in range(5), ("compare", r.message)
