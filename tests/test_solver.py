"""Solver facade: dispatch, statuses, and the external round trip."""

import os
import sys
import time
from pathlib import Path

import pytest

import storywiggle
from storywiggle.generate import generate_instance
from storywiggle.lpsolve import main as lpsolve_main
from storywiggle.programs import (GE, LE, LinearConstraint, ModelError,
                                  OptimizationModel, Variable,
                                  build_lwh_program)
from storywiggle.solver import (SolveResult, SolveStatus, SolverConfig,
                                default_backend, solve_model, write_solution)

EXTERNAL = f"external:{sys.executable} -m storywiggle.lpsolve"


def lp_model():
    return OptimizationModel(
        "lp",
        [Variable("x", 0.0, 4.0), Variable("y", 0.0, 4.0)],
        [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), GE, 3.0)],
        {"x": 2.0, "y": 3.0})


def ilp_model():
    return OptimizationModel(
        "ilp",
        [Variable("x", 0.0, 4.0, True)],
        [LinearConstraint("r", (("x", 2.0),), GE, 3.0)],
        {"x": 1.0})


def qp_model():
    return OptimizationModel(
        "qp", [Variable("x", 0.0, 4.0)], [], {"x": -6.0}, {"x": 1.0})


class TestDispatch:
    def test_lp_path(self):
        r = solve_model(lp_model())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(6.0)      # x carries the load
        assert r.assignment["x"] == pytest.approx(3.0)
        assert r.duals is not None and r.kkt is None
        assert r.gap == 0.0 and r.best_bound == pytest.approx(6.0)
        assert r.stats["solve_seconds"] >= 0.0

    def test_network_path(self):
        # an lwh model is all difference rows: the network simplex takes it
        inst, params = generate_instance(10, 10, seed=7, meeting_prob=0.5)
        r = solve_model(build_lwh_program(inst, params)[0])
        assert r.status is SolveStatus.OPTIMAL and r.objective == 30.0
        assert r.duals is None and r.gap == 0.0
        assert 0 < r.stats["degenerate_pivots"] < r.stats["iterations"]

    def test_ilp_path(self):
        r = solve_model(ilp_model())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(2.0)      # x=1.5 rounds up
        assert r.duals is None and "nodes" in r.stats

    def test_qp_path(self):
        r = solve_model(qp_model())
        assert r.status is SolveStatus.OPTIMAL
        assert r.objective == pytest.approx(-9.0)
        assert r.kkt is not None
        assert max(r.kkt.values()) < 1e-7
        steps = ("newton_steps", "ray_steps", "zero_steps")
        assert sum(r.stats[k] for k in steps) == r.stats["iterations"] > 0
        assert r.stats["null_dim"] == 1

    def test_integral_quadratic_rejected(self):
        model = OptimizationModel(
            "bad", [Variable("x", 0.0, 4.0, True)], [], {}, {"x": 1.0})
        with pytest.raises(ModelError, match="quadratic"):
            solve_model(model)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError, match="backend"):
            solve_model(lp_model(), SolverConfig(backend="gurobi"))

    def test_infeasible_status(self):
        model = OptimizationModel(
            "inf", [Variable("x", 0.0, 1.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 5.0)], {"x": 1.0})
        r = solve_model(model)
        assert r.status is SolveStatus.INFEASIBLE
        assert r.assignment is None and r.gap is None

    def test_node_limit_has_its_own_status(self):
        r = solve_model(ilp_model(), SolverConfig(node_limit=0))
        assert r.status is SolveStatus.NODE_LIMIT

    def test_external_honours_the_time_limit(self):
        sleeper = f"external:{sys.executable} -c 'import time; time.sleep(30)'"
        start = time.monotonic()
        r = solve_model(lp_model(), SolverConfig(backend=sleeper, time_limit=0.5))
        assert r.status is SolveStatus.TIME_LIMIT
        assert time.monotonic() - start < 5.0

    def test_default_backend_env(self, monkeypatch):
        monkeypatch.delenv("STORYWIGGLE_BACKEND", raising=False)
        assert default_backend() == "builtin"
        monkeypatch.setenv("STORYWIGGLE_BACKEND", EXTERNAL)
        assert default_backend() == EXTERNAL
        assert SolverConfig().backend == EXTERNAL


class TestExternalBackend:
    @pytest.fixture(autouse=True)
    def package_on_path(self, monkeypatch):
        # the command is a fresh interpreter that must import the package
        src = str(Path(storywiggle.__file__).parent.parent)
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

    def test_round_trip_lp(self):
        base = solve_model(lp_model())
        ext = solve_model(lp_model(), SolverConfig(backend=EXTERNAL))
        assert ext.status is SolveStatus.OPTIMAL
        assert ext.objective == pytest.approx(base.objective, abs=1e-9)
        for name in ("x", "y"):
            assert ext.assignment[name] == pytest.approx(
                base.assignment[name], abs=1e-9)
        # duals do not survive the file format
        assert ext.duals is None

    def test_round_trip_ilp(self):
        ext = solve_model(ilp_model(), SolverConfig(backend=EXTERNAL))
        assert ext.status is SolveStatus.OPTIMAL
        assert ext.objective == pytest.approx(2.0)

    def test_round_trip_infeasible(self):
        model = OptimizationModel(
            "inf", [Variable("x", 0.0, 1.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 5.0)], {"x": 1.0})
        ext = solve_model(model, SolverConfig(backend=EXTERNAL))
        assert ext.status is SolveStatus.INFEASIBLE

    def test_failing_command_raises(self):
        bad = f"external:{sys.executable} -c 'import sys; sys.exit(3)'"
        with pytest.raises(ModelError, match="external solver failed"):
            solve_model(lp_model(), SolverConfig(backend=bad))


class TestSolutionFiles:
    def test_write_then_parse(self, tmp_path):
        r = solve_model(lp_model())
        path = tmp_path / "a.sol"
        write_solution(str(path), r)
        text = path.read_text()
        assert text.splitlines()[0] == "status optimal"
        from storywiggle.solver import _parse_solution
        back = _parse_solution(text)
        assert back.objective == pytest.approx(r.objective)
        assert back.assignment == pytest.approx(r.assignment)

    def test_parse_requires_status(self):
        from storywiggle.solver import _parse_solution
        with pytest.raises(ModelError, match="status"):
            _parse_solution("objective 3.0\nx 1\n")


class TestLpsolveCli:
    def test_usage_error(self, capsys):
        assert lpsolve_main(["only_one.lp"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.lp"
        bad.write_text("this is not an lp file\n")
        out = str(tmp_path / "out.sol")
        assert lpsolve_main([str(tmp_path / "missing.lp"), out]) == 2
        assert lpsolve_main([str(bad), out]) == 2
        assert capsys.readouterr().err.count("lpsolve: ") == 2

    def test_solves_file(self, tmp_path):
        from storywiggle.lp_format import write_lp
        lp = tmp_path / "m.lp"
        sol = tmp_path / "m.sol"
        lp.write_text(write_lp(lp_model()))
        assert lpsolve_main([str(lp), str(sol)]) == 0
        lines = sol.read_text().splitlines()
        assert lines[0] == "status optimal"
        assert any(line.startswith("objective 6.0") for line in lines)
