"""Active-set QP solver against separable oracles and KKT checks."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle.generate import generate_instance
from storywiggle.instance import minimal_stack_coordination
from storywiggle.lp_format import write_lp
from storywiggle.lpsolve import main as lpsolve_main
from storywiggle.programs import (EQ, GE, LE, LinearConstraint, ModelError,
                                  OptimizationModel, Variable,
                                  assignment_from_coordination,
                                  build_lwh_program, build_qwh_program,
                                  compile_model, extract_coordination,
                                  model_violations, objective_value)
from storywiggle import qp as qp_mod
from storywiggle.network import difference_form
from storywiggle.qp import solve_qp
from storywiggle.simplex import solve_lp

from oracles import dense_qp

KKT_KEYS = ("stationarity", "primal", "dual", "complementarity")
STEPS = ("newton_steps", "ray_steps", "zero_steps")


def qp(variables, constraints, objective, quadratic):
    model = OptimizationModel("t", variables, constraints, objective,
                              quadratic)
    model.validate()
    return model


def on_blocks(model):
    """Whether `solve_qp` reads `model` as a difference form with no pairs."""
    form = difference_form(compile_model(model))
    return form is not None and not form.pairs


def either(model, **kw):
    """`solve_qp` on a difference-form QP, the dense reference on any other."""
    return (solve_qp if on_blocks(model) else dense_qp)(model, **kw)


def assert_kkt_clean(r, tol=1e-6):
    assert r.kkt is not None
    for key in KKT_KEYS:
        assert r.kkt[key] < tol, f"{key} residual {r.kkt[key]}"


class TestHandCases:
    """Hand answers; a QP whose rows are no differences checks the dense reference."""

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
        r = dense_qp(model)
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
        r = dense_qp(model)
        assert r.x["x"] == pytest.approx(0.5)
        assert r.x["y"] == pytest.approx(0.5)
        assert r.duals["r"] == pytest.approx(1.0)
        assert_kkt_clean(r)

    def test_inactive_inequality_has_zero_dual(self):
        model = qp(
            [Variable("x", -5.0, 5.0)],
            [LinearConstraint("r", (("x", 1.0),), LE, 4.0)],
            {"x": -2.0}, {"x": 1.0})
        r = dense_qp(model)
        assert r.x["x"] == pytest.approx(1.0)
        assert r.duals["r"] == pytest.approx(0.0)
        assert_kkt_clean(r)

    def test_infeasible(self):
        model = qp(
            [Variable("x", 0.0, 1.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 3.0)],
            {}, {"x": 1.0})
        r = dense_qp(model)
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
        assert dense_qp(model).iterations >= 1
        r = dense_qp(model, time_limit=0.0)
        assert r.status == "time_limit"
        assert model_violations(model, r.x, tol=1e-9) == []
        assert r.kkt is not None and r.kkt["primal"] <= 1e-9
        # the block path stops at its feasible warm start
        diff = qp(
            [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
            [LinearConstraint("r", (("y", 1.0), ("x", -1.0)), GE, 4.0)],
            {"x": 1.0}, {"x": 1.0, "y": 1.0})
        assert solve_qp(diff).iterations >= 1
        r = solve_qp(diff, warm={"x": 1.0, "y": 6.0}, time_limit=0.0)
        assert r.status == "time_limit" and r.x == {"x": 1.0, "y": 6.0}
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
        cold = dense_qp(model)
        warm = dense_qp(model, warm=cold.x)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.iterations <= cold.iterations

    def test_infeasible_warm_is_ignored(self):
        model = qp(
            [Variable("x", 0.0, 10.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 2.0)],
            {}, {"x": 1.0})
        r = dense_qp(model, warm={"x": 0.0})
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(2.0)
        # and on the block path, with x - z >= 2 for a z fixed at 0
        model = qp(
            [Variable("x", 0.0, 10.0), Variable("z", 0.0, 0.0)],
            [LinearConstraint("r", (("x", 1.0), ("z", -1.0)), GE, 2.0)],
            {}, {"x": 1.0})
        r = solve_qp(model, warm={"x": 0.0, "z": 0.0})
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(2.0)

    def test_empty_model(self):
        r = solve_qp(qp([], [], {}, {}))
        assert r.status == "optimal" and r.objective == 0.0


def eq(name, coeffs, rhs):
    return LinearConstraint(name, coeffs, EQ, rhs)


class TestDegenerateEqualities:
    """Equality sets that the contraction, or the reference's one-time
    factorization for rows that are no differences, must see through."""

    def test_duplicated_row(self):
        # min x^2 + y^2 on x + y = 2, stated twice: (1, 1), and the two
        # rows share the multiplier 2 that one row would carry
        row = (("x", 1.0), ("y", 1.0))
        r = dense_qp(qp([Variable("x"), Variable("y")],
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

    def test_fixed_column_holds_a_row(self):
        # x is fixed at 2 and y >= x + 1 holds y at 3 against its pull
        # 2y = 6, which the row hands on to x's lower bound
        model = qp([Variable("x", 2.0, 2.0), Variable("y", -5.0, 5.0)],
                   [LinearConstraint("r", (("y", 1.0), ("x", -1.0)), GE, 1.0)],
                   {}, {"y": 1.0})
        assert on_blocks(model)
        r = solve_qp(model)
        assert r.x == pytest.approx({"x": 2.0, "y": 3.0}, abs=1e-12)
        assert r.duals["r"] == pytest.approx(6.0, abs=1e-12)
        assert r.duals["_lb_x"] == pytest.approx(6.0, abs=1e-12)
        assert r.duals["_ub_x"] == pytest.approx(0.0, abs=1e-12)
        assert_kkt_clean(r, tol=1e-9)

    def test_full_column_rank(self):
        # x + y = 3 and x - y = 1 leave one point, (2, 1), whatever the
        # objective; its upper bound on y is tight there
        model = qp([Variable("x", 0.0, 5.0), Variable("y", 0.0, 1.0)],
                   [eq("s", (("x", 1.0), ("y", 1.0)), 3.0),
                    eq("d", (("x", 1.0), ("y", -1.0)), 1.0)],
                   {"x": -5.0}, {"x": 1.0, "y": 1.0})
        r = dense_qp(model)
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
        r = dense_qp(model)
        assert r.status == "optimal" and r.stats["null_dim"] == 2
        assert r.x == pytest.approx({"x": 0.5, "y": 1.5}, abs=1e-12)
        assert r.objective + 5.0 == pytest.approx(0.5, abs=1e-12)
        assert r.duals["r"] == pytest.approx(1.0, abs=1e-12)
        assert_kkt_clean(r, tol=1e-9)


# the seed-7 ladder optima that `test_ladder_qwh_optima_are_frozen` holds
FROZEN = [((10, 10), 60.125), ((15, 15), 732.4476190476191),
          ((20, 20), 971.9380952380952)]


def ladder_rung(shape):
    # a seed-7 rung of the benchmark ladder, with the stacked layout the
    # pipeline warm-starts from
    inst, params = generate_instance(*shape, seed=7, meeting_prob=0.5)
    model, index = build_qwh_program(inst, params)
    warm = assignment_from_coordination(
        model, index, minimal_stack_coordination(inst, params))
    return model, index, warm


@pytest.mark.parametrize("shape, optimum, iterations", [
    pytest.param((10, 10), 60.125, 21, id="(10, 10)-60.125"),
    pytest.param((15, 15), 732.4476190476191, 29, id="(15, 15)-732.4476190476191"),
    pytest.param((20, 20), 971.9380952380952, 39, id="(20, 20)-971.9380952380952")])
def test_ladder_qwh_optima_are_frozen(shape, optimum, iterations):
    # the seed-7 rungs of the benchmark ladder, warm-started from the
    # stacked layout as the pipeline does
    inst, params = generate_instance(*shape, seed=7, meeting_prob=0.5)
    model, index = build_qwh_program(inst, params)
    warm = assignment_from_coordination(
        model, index, minimal_stack_coordination(inst, params))
    r = solve_qp(model, warm=warm)
    assert r.status == "optimal"
    assert sum(r.stats[k] for k in STEPS) == r.iterations == iterations
    assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
    assert_kkt_clean(r, tol=1e-9)


class TestBlockPath:
    """Difference-form QPs run on contracted blocks, as the dense reference
    does in its own way; any other QP is refused."""

    def test_ladder_needs_no_svd_or_eigh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense factorization on the block path")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for shape, optimum in FROZEN:
            model, _, warm = ladder_rung(shape)
            r = solve_qp(model, warm=warm)
            assert r.status == "optimal"
            assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
            assert_kkt_clean(r, tol=1e-9)

    @pytest.mark.parametrize("shape, blocks", [((10, 10), 25), ((15, 15), 65),
                                               ((20, 20), 80)], ids=str)
    def test_qwh_null_dim_is_its_block_count(self, shape, blocks):
        # the meeting rows of a step chain its members into one block
        model, index, warm = ladder_rung(shape)
        meetings = sum(row.name.startswith("meet_") for row in model.constraints)
        assert on_blocks(model)
        assert len(index.y) - meetings == blocks
        assert solve_qp(model, warm=warm).stats["null_dim"] == blocks
        assert dense_qp(model, warm=warm).stats["null_dim"] == blocks

    def test_other_qps_are_refused(self, tmp_path, capsys):
        # a row that is no difference, and an lwh model (it has pairs) with
        # a quadratic term: the reference solves the first, and solve_qp
        # and lpsolve refuse both
        split = qp([Variable("x"), Variable("y")],
                   [eq("r", (("x", 1.0), ("y", 1.0)), 2.0)],
                   {}, {"x": 1.0, "y": 1.0})
        assert difference_form(compile_model(split)) is None
        ref = dense_qp(split)
        assert ref.stats["null_dim"] == 1
        assert ref.x == pytest.approx({"x": 1.0, "y": 1.0}, abs=1e-12)
        inst, params = generate_instance(4, 4, seed=7, meeting_prob=0.5)
        curved, _ = build_lwh_program(inst, params)
        curved.quadratic[curved.variables[0].name] = 1.0
        assert difference_form(compile_model(curved)).pairs
        for k, model in enumerate((split, curved)):
            with pytest.raises(ModelError, match="no difference-form QP"):
                solve_qp(model)
            lp = tmp_path / f"{k}.lp"
            lp.write_text(write_lp(model))
            assert lpsolve_main([str(lp), str(tmp_path / "out.sol")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("lpsolve: ") for line in err)

    @pytest.mark.parametrize("shape, optimum", FROZEN, ids=str)
    def test_ray_back_to_the_frozen_optimum(self, shape, optimum):
        # sum d^2 is blind to a common shift, so no qwh gradient has a
        # flat component; a unit cost on the y that the frozen optimum puts
        # at 0 gives the shift one without moving the optimum, and from
        # the stacked layout raised by 5 the first step rides it down
        model, index, warm = ladder_rung(shape)
        frozen = solve_qp(model, warm=warm)
        low = min(index.y.values(), key=lambda name: (frozen.x[name], name))
        assert frozen.x[low] == 0.0
        model.objective[low] = 1.0
        raised = {name: value + (5.0 if name in index.y.values() else 0.0)
                  for name, value in warm.items()}
        r = solve_qp(model, warm=raised)
        assert r.status == "optimal" and r.stats["ray_steps"] > 0
        assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
        assert_kkt_clean(r, tol=1e-9)

    @pytest.mark.parametrize("shape, optimum", FROZEN, ids=str)
    def test_floating_start_follows_the_dense_path(self, shape, optimum):
        # from the stacked layout raised by 5 nothing touches ground, so
        # the Newton steps move components with no ground; held orthogonal
        # to the flat shift, as the dense path's are, they take the same
        # steps to the same layout
        model, index, warm = ladder_rung(shape)
        raised = {name: value + (5.0 if name in index.y.values() else 0.0)
                  for name, value in warm.items()}
        r, ref = solve_qp(model, warm=raised), dense_qp(model, warm=raised)
        assert r.iterations == ref.iterations
        assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
        assert r.x == pytest.approx(ref.x, abs=1e-9)

    def test_cold_start_comes_from_the_network(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simplex probe on the block path")

        monkeypatch.setattr(qp_mod, "solve_lp", refuse)
        (shape, optimum), = FROZEN[:1]
        model, _, _ = ladder_rung(shape)
        r = solve_qp(model)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(optimum, rel=1e-9, abs=0.0)
        assert solve_qp(model, time_limit=0.0).status == "time_limit"
        x, y = Variable("x", -5.0, 5.0), Variable("y", -5.0, 5.0)
        apart = qp([x, y], [LinearConstraint("a", (("x", 1.0), ("y", -1.0)), GE, 1.0),
                            LinearConstraint("b", (("y", 1.0), ("x", -1.0)), GE, 1.0)],
                   {}, {"x": 1.0})
        assert solve_qp(apart).status == "infeasible"
        tied = qp([x, y], [eq("a", (("x", 1.0), ("y", -1.0)), 1.0),
                           eq("b", (("y", 1.0), ("x", -1.0)), 1.0)],
                  {}, {"x": 1.0})
        assert solve_qp(tied).status == "infeasible"


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(st.integers(3, 7), st.integers(3, 7)),
       seed=st.integers(0, 100_000),
       delta=st.floats(0.25, 3.0), delta_bar=st.floats(0.25, 3.0),
       cold=st.booleans())
def test_block_path_matches_dense(shape, seed, delta, delta_bar, cold):
    inst, params = generate_instance(*shape, seed=seed, meeting_prob=0.5,
                                     delta=delta, delta_bar=delta_bar)
    model, index = build_qwh_program(inst, params)
    warm = None if cold else assignment_from_coordination(
        model, index, minimal_stack_coordination(inst, params))
    r, ref = solve_qp(model, warm=warm), dense_qp(model, warm=warm)
    assert r.status == ref.status == "optimal"
    assert r.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
    assert_kkt_clean(r, tol=1e-9)
    assert_kkt_clean(ref, tol=1e-9)
    extract_coordination(index, r.x)


@pytest.mark.parametrize("model, rays", [
    (qp([Variable("x", 0.0, 3.0), Variable("y", -5.0, 5.0)], [],
        {"x": -1.0, "y": -2.0}, {"y": 1.0}), True),
    (qp([Variable("x", -math.inf)], [], {"x": -1.0}, {}), True),
    (qp([Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [LinearConstraint("r", (("x", 1.0), ("y", 2.0)), GE, 4.0)],
        {"x": 1.0}, {"x": 1.0, "y": 1.0}), False),
], ids=["ray-to-bound", "unbounded", "pinned-row"])
def test_step_counts_add_up(model, rays):
    r = either(model)
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
    r = either(model)
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
