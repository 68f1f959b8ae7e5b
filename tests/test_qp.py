"""Active-set QP solver against separable oracles and KKT checks."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle.generate import generate_instance
from storywiggle.instance import minimal_stack_coordination
from storywiggle.programs import (EQ, GE, LE, LinearConstraint,
                                  OptimizationModel, Variable,
                                  assignment_from_coordination,
                                  build_qwh_program, model_violations,
                                  objective_value)
from storywiggle import qp as qp_mod
from storywiggle.qp import solve_qp
from storywiggle.simplex import solve_lp

KKT_KEYS = ("stationarity", "primal", "dual", "complementarity")
STEPS = ("newton_steps", "ray_steps", "zero_steps")


def qp(variables, constraints, objective, quadratic):
    model = OptimizationModel("t", variables, constraints, objective,
                              quadratic)
    model.validate()
    return model


def assert_kkt_clean(r, tol=1e-6):
    assert r.kkt is not None
    for key in KKT_KEYS:
        assert r.kkt[key] < tol, f"{key} residual {r.kkt[key]}"


class TestHandCases:
    def test_interior_minimum(self):
        # x^2 - 6x bottoms out at x=3 inside the box
        model = qp([Variable("x", 0.0, 10.0)], [], {"x": -6.0}, {"x": 1.0})
        r = solve_qp(model)
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(3.0)
        assert r.objective == pytest.approx(-9.0)
        assert_kkt_clean(r)

    def test_bound_pinned_minimum(self):
        model = qp([Variable("x", 0.0, 2.0)], [], {"x": -6.0}, {"x": 1.0})
        r = solve_qp(model)
        assert r.x["x"] == pytest.approx(2.0)
        assert r.objective == pytest.approx(-8.0)
        assert r.duals["_ub_x"] == pytest.approx(2.0)   # gradient pushed into the lid
        assert_kkt_clean(r)

    def test_equality_split(self):
        model = qp(
            [Variable("x"), Variable("y")],
            [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), EQ, 2.0)],
            {}, {"x": 1.0, "y": 1.0})
        r = solve_qp(model)
        assert r.x["x"] == pytest.approx(1.0)
        assert r.x["y"] == pytest.approx(1.0)
        assert r.objective == pytest.approx(2.0)
        assert r.duals["r"] == pytest.approx(2.0)
        assert_kkt_clean(r)

    def test_active_inequality(self):
        # unconstrained minimum (0, 0) sits outside x + y >= 1
        model = qp(
            [Variable("x"), Variable("y")],
            [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), GE, 1.0)],
            {}, {"x": 1.0, "y": 1.0})
        r = solve_qp(model)
        assert r.x["x"] == pytest.approx(0.5)
        assert r.x["y"] == pytest.approx(0.5)
        assert r.duals["r"] == pytest.approx(1.0)
        assert_kkt_clean(r)

    def test_inactive_inequality_has_zero_dual(self):
        model = qp(
            [Variable("x", -5.0, 5.0)],
            [LinearConstraint("r", (("x", 1.0),), LE, 4.0)],
            {"x": -2.0}, {"x": 1.0})
        r = solve_qp(model)
        assert r.x["x"] == pytest.approx(1.0)
        assert r.duals["r"] == pytest.approx(0.0)
        assert_kkt_clean(r)

    def test_infeasible(self):
        model = qp(
            [Variable("x", 0.0, 1.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 3.0)],
            {}, {"x": 1.0})
        r = solve_qp(model)
        assert r.status == "infeasible"
        assert r.x is None and r.kkt is None

    def test_unbounded_flat_ray(self):
        # no curvature on x, so the linear term rides off along the free axis
        model = qp([Variable("x")], [], {"x": -1.0}, {})
        assert solve_qp(model).status == "unbounded"

    def test_flat_ray_stops_at_a_bound(self):
        # -x has no curvature, so once y sits at its vertex the step is a
        # ray along x that only the upper bound stops
        model = qp([Variable("x", 0.0, 3.0), Variable("y", -5.0, 5.0)], [],
                   {"x": -1.0, "y": -2.0}, {"y": 1.0})
        r = solve_qp(model)
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(3.0)
        assert r.x["y"] == pytest.approx(1.0)
        assert r.objective == pytest.approx(-4.0)
        assert r.duals["_ub_x"] == pytest.approx(1.0)
        assert_kkt_clean(r)

    def test_time_limit_returns_the_feasible_iterate(self):
        model = qp(
            [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
            [LinearConstraint("r", (("x", 1.0), ("y", 2.0)), GE, 4.0)],
            {"x": 1.0}, {"x": 1.0, "y": 1.0})
        assert solve_qp(model).iterations >= 1
        r = solve_qp(model, time_limit=0.0)
        assert r.status == "time_limit"
        assert model_violations(model, r.x, tol=1e-9) == []
        assert r.kkt is not None and r.kkt["primal"] <= 1e-9

    def test_iteration_limit(self, monkeypatch):
        model = qp([Variable("x", 0.0, 10.0)], [], {"x": -6.0}, {"x": 1.0})
        monkeypatch.setattr(qp_mod, "_MAXITER", 0)
        r = solve_qp(model)
        assert r.status == "iteration_limit"

    def test_warm_start_at_optimum(self):
        model = qp(
            [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
            [LinearConstraint("r", (("x", 1.0), ("y", 2.0)), GE, 4.0)],
            {"x": 1.0}, {"x": 1.0, "y": 1.0})
        cold = solve_qp(model)
        warm = solve_qp(model, warm=cold.x)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.iterations <= cold.iterations

    def test_infeasible_warm_is_ignored(self):
        model = qp(
            [Variable("x", 0.0, 10.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 2.0)],
            {}, {"x": 1.0})
        r = solve_qp(model, warm={"x": 0.0})
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(2.0)

    def test_empty_model(self):
        r = solve_qp(qp([], [], {}, {}))
        assert r.status == "optimal" and r.objective == 0.0


def eq(name, coeffs, rhs):
    return LinearConstraint(name, coeffs, EQ, rhs)


class TestDegenerateEqualities:
    """Equality sets that the one-time factorization must see through."""

    def test_duplicated_row(self):
        # min x^2 + y^2 on x + y = 2, stated twice: (1, 1), and the two
        # rows share the multiplier 2 that one row would carry
        row = (("x", 1.0), ("y", 1.0))
        r = solve_qp(qp([Variable("x"), Variable("y")],
                        [eq("a", row, 2.0), eq("b", row, 2.0)],
                        {}, {"x": 1.0, "y": 1.0}))
        assert r.status == "optimal" and r.stats["null_dim"] == 1
        assert r.x["x"] == pytest.approx(1.0, abs=1e-12)
        assert r.x["y"] == pytest.approx(1.0, abs=1e-12)
        assert r.objective == pytest.approx(2.0, abs=1e-12)
        assert r.duals["a"] + r.duals["b"] == pytest.approx(2.0, abs=1e-12)
        assert_kkt_clean(r, tol=1e-9)

    def test_cycle_of_differences(self):
        # x - y = 1, y - z = 1, z - x = -2 has rank 2, so x = z + 2 and
        # y = z + 1.  Free, the optimum is z = -1; with z >= 0 the bound
        # holds it at z = 0 with multiplier d/dz (z+2)^2+(z+1)^2+z^2 = 6
        rows = [eq("xy", (("x", 1.0), ("y", -1.0)), 1.0),
                eq("yz", (("y", 1.0), ("z", -1.0)), 1.0),
                eq("zx", (("z", 1.0), ("x", -1.0)), -2.0)]
        weights = {"x": 1.0, "y": 1.0, "z": 1.0}
        x, y = Variable("x", -math.inf), Variable("y", -math.inf)
        free = solve_qp(qp([x, y, Variable("z", -math.inf)], rows, {}, weights))
        assert free.stats["null_dim"] == 1
        assert [free.x[v] for v in "xyz"] == pytest.approx([1.0, 0.0, -1.0],
                                                           abs=1e-12)
        assert free.objective == pytest.approx(2.0, abs=1e-12)
        assert_kkt_clean(free, tol=1e-9)
        held = solve_qp(qp([x, y, Variable("z", 0.0)], rows, {}, weights))
        assert [held.x[v] for v in "xyz"] == pytest.approx([2.0, 1.0, 0.0],
                                                           abs=1e-12)
        assert held.objective == pytest.approx(5.0, abs=1e-12)
        assert held.duals["_lb_z"] == pytest.approx(6.0, abs=1e-12)
        assert_kkt_clean(held, tol=1e-9)

    def test_full_column_rank(self):
        # x + y = 3 and x - y = 1 leave one point, (2, 1), whatever the
        # objective; its upper bound on y is tight there
        model = qp([Variable("x", 0.0, 5.0), Variable("y", 0.0, 1.0)],
                   [eq("s", (("x", 1.0), ("y", 1.0)), 3.0),
                    eq("d", (("x", 1.0), ("y", -1.0)), 1.0)],
                   {"x": -5.0}, {"x": 1.0, "y": 1.0})
        r = solve_qp(model)
        assert r.status == "optimal" and r.stats["null_dim"] == 0
        assert r.x == pytest.approx({"x": 2.0, "y": 1.0}, abs=1e-12)
        assert r.objective == pytest.approx(-5.0, abs=1e-12)
        assert_kkt_clean(r, tol=1e-9)

    def test_no_equality_rows(self):
        # (x-1)^2 + (y-2)^2 projected onto x + y <= 2: (0.5, 1.5), and
        # the row's multiplier (in its >= form) is 2 * 0.5
        model = qp([Variable("x"), Variable("y")],
                   [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), LE, 2.0)],
                   {"x": -2.0, "y": -4.0}, {"x": 1.0, "y": 1.0})
        r = solve_qp(model)
        assert r.status == "optimal" and r.stats["null_dim"] == 2
        assert r.x == pytest.approx({"x": 0.5, "y": 1.5}, abs=1e-12)
        assert r.objective + 5.0 == pytest.approx(0.5, abs=1e-12)
        assert r.duals["r"] == pytest.approx(1.0, abs=1e-12)
        assert_kkt_clean(r, tol=1e-9)


@pytest.mark.parametrize("shape, optimum", [((10, 10), 60.125),
                                            ((15, 15), 732.4476190476191),
                                            ((20, 20), 971.9380952380952)],
                         ids=str)
def test_ladder_qwh_optima_are_frozen(shape, optimum):
    # the seed-7 rungs of the benchmark ladder, warm-started from the
    # stacked layout as the pipeline does
    inst, params = generate_instance(*shape, seed=7, meeting_prob=0.5)
    model, index = build_qwh_program(inst, params)
    warm = assignment_from_coordination(
        model, index, minimal_stack_coordination(inst, params))
    r = solve_qp(model, warm=warm)
    assert r.status == "optimal"
    assert sum(r.stats[k] for k in STEPS) == r.iterations
    assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
    assert_kkt_clean(r, tol=1e-9)


@pytest.mark.parametrize("model, rays", [
    (qp([Variable("x", 0.0, 3.0), Variable("y", -5.0, 5.0)], [],
        {"x": -1.0, "y": -2.0}, {"y": 1.0}), True),
    (qp([Variable("x", -math.inf)], [], {"x": -1.0}, {}), True),
    (qp([Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [LinearConstraint("r", (("x", 1.0), ("y", 2.0)), GE, 4.0)],
        {"x": 1.0}, {"x": 1.0, "y": 1.0}), False),
], ids=["ray-to-bound", "unbounded", "pinned-row"])
def test_step_counts_add_up(model, rays):
    r = solve_qp(model)
    assert sum(r.stats[k] for k in STEPS) == r.iterations > 0
    assert (r.stats["ray_steps"] > 0) is rays


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_box_only_matches_separable_oracle(seed):
    # with only box bounds the coordinates decouple: each is the clipped
    # vertex of its own parabola
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    variables, objective, quadratic, expected = [], {}, {}, 0.0
    for i in range(n):
        lo = float(rng.randint(-4, 0))
        hi = float(rng.randint(1, 5))
        c = float(rng.randint(-6, 6))
        q = float(rng.randint(1, 4))
        variables.append(Variable(f"x{i}", lo, hi))
        objective[f"x{i}"] = c
        quadratic[f"x{i}"] = q
        best = min(max(-c / (2.0 * q), lo), hi)
        expected += c * best + q * best * best
    r = solve_qp(qp(variables, [], objective, quadratic))
    assert r.status == "optimal"
    assert r.objective == pytest.approx(expected, abs=1e-8)
    assert_kkt_clean(r, tol=1e-7)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_constrained_beats_random_feasible_points(seed):
    # convexity makes any feasible point an upper-bound certificate
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    variables = [Variable(f"x{i}", float(rng.randint(-3, 0)),
                          float(rng.randint(1, 4))) for i in range(n)]
    rows = []
    for j in range(rng.randint(0, 2)):
        coeffs = tuple((f"x{i}", float(rng.randint(-2, 2)))
                       for i in range(n))
        rows.append(LinearConstraint(f"r{j}", coeffs, (GE, LE)[j % 2],
                                     float(rng.randint(-3, 3))))
    objective = {f"x{i}": float(rng.randint(-4, 4)) for i in range(n)}
    # zero weights leave flat directions, which only the boxes stop
    quadratic = {f"x{i}": float(rng.randint(0, 3)) for i in range(n)}
    model = qp(variables, rows, objective, quadratic)
    r = solve_qp(model)
    if r.status == "infeasible":
        probe = OptimizationModel("p", variables, rows, {}, {})
        assert solve_lp(probe).status == "infeasible"
        return
    assert r.status == "optimal"
    assert model_violations(model, r.x, tol=1e-6) == []
    assert_kkt_clean(r)
    for k in range(4):
        push = {f"x{i}": float(rng.randint(-5, 5)) for i in range(n)}
        probe = OptimizationModel("p", variables, rows, push, {})
        other = solve_lp(probe)
        if other.status != "optimal":
            continue
        assert r.objective <= objective_value(model, other.x) + 1e-7
