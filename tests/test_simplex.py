"""Bounded-variable two-phase simplex against brute-force vertex search.

Every case is solved on both pivot paths (dense, and the sparse one that
large tableaux take), which must agree exactly.
"""

import math
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lp_vertex_optimum
from storywiggle import simplex
from storywiggle.generate import generate_instance
from storywiggle.network import difference_form, solve_network
from storywiggle.programs import (EQ, GE, LE, LinearConstraint, ModelError,
                                  OptimizationModel, Variable,
                                  build_lwh_program, build_wc_program,
                                  compile_model, model_violations,
                                  objective_value)


def solve_lp(model):
    """Status, x, duals, objective and pivot count, equal on both paths."""
    with mock.patch.object(simplex, "_SPARSE_MIN_CELLS", math.inf):
        dense = simplex.solve_lp(model)
    with mock.patch.object(simplex, "_SPARSE_MIN_CELLS", 0):
        sparse = simplex.solve_lp(model)
    assert sparse == dense
    return dense


def lp(variables, constraints, objective):
    model = OptimizationModel("t", variables, constraints, objective)
    model.validate()
    return model


class TestHandCases:
    def test_unconstrained_box(self):
        model = lp([Variable("x", 1.0, 5.0)], [], {"x": 2.0})
        r = solve_lp(model)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(2.0)
        assert r.x["x"] == pytest.approx(1.0)

    def test_negative_cost_hits_upper_bound(self):
        model = lp([Variable("x", 0.0, 7.0)], [], {"x": -3.0})
        r = solve_lp(model)
        assert r.objective == pytest.approx(-21.0)

    def test_classic_two_var(self):
        model = lp(
            [Variable("x"), Variable("y")],
            [LinearConstraint("r1", (("x", 1.0), ("y", 1.0)), GE, 2.0),
             LinearConstraint("r2", (("x", 1.0), ("y", -1.0)), LE, 1.0)],
            {"x": 1.0, "y": 2.0})
        r = solve_lp(model)
        # cheapest point of the wedge is x=2, y=0... check against vertices
        assert r.status == "optimal"
        assert r.objective == pytest.approx(lp_vertex_optimum(model))

    def test_equality_row(self):
        model = lp(
            [Variable("x"), Variable("y")],
            [LinearConstraint("r", (("x", 1.0), ("y", 2.0)), EQ, 4.0)],
            {"x": 3.0, "y": 1.0})
        r = solve_lp(model)
        assert r.objective == pytest.approx(2.0)     # x=0, y=2
        assert r.x == pytest.approx({"x": 0.0, "y": 2.0})

    def test_free_variable(self):
        # x = -3 - s, so pushing x up lands on the free negative value
        model = lp(
            [Variable("x", -math.inf, math.inf), Variable("s")],
            [LinearConstraint("r", (("x", 1.0), ("s", 1.0)), EQ, -3.0)],
            {"x": -1.0, "s": 0.0})
        r = solve_lp(model)
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(-3.0)
        assert r.objective == pytest.approx(3.0)

    def test_infeasible(self):
        model = lp(
            [Variable("x", 0.0, 1.0)],
            [LinearConstraint("r", (("x", 1.0),), GE, 2.0)], {"x": 1.0})
        assert solve_lp(model).status == "infeasible"

    def test_unbounded(self):
        model = lp([Variable("x")], [], {"x": -1.0})
        assert solve_lp(model).status == "unbounded"

    def test_degenerate_does_not_cycle(self):
        # many redundant rows through the optimum
        rows = [LinearConstraint(f"r{i}", (("x", 1.0), ("y", float(i))), GE, 0.0)
                for i in range(1, 8)]
        model = lp([Variable("x"), Variable("y")], rows, {"x": 1.0, "y": 1.0})
        r = solve_lp(model)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(0.0)

    def test_variable_leaving_at_upper_bound_stays_there(self):
        # phase 2 enters a slack from its lower bound and x0 leaves the
        # basis at its upper bound; marking x0 at lower instead made the
        # basis infeasible and the "optimal" point broke r0
        model = lp(
            [Variable("x0", -3.0, 1.0), Variable("x1", -1.0, 4.0),
             Variable("x2", -3.0, 2.0)],
            [LinearConstraint("r0", (("x0", 2.0), ("x1", -1.0), ("x2", -1.0)),
                              LE, -1.0),
             LinearConstraint("r1", (("x0", 3.0), ("x1", -3.0), ("x2", 3.0)),
                              LE, 1.0),
             LinearConstraint("r2", (("x0", -1.0), ("x1", 3.0), ("x2", 2.0)),
                              GE, 2.0)],
            {"x0": -2.0, "x1": -1.0, "x2": 0.0})
        r = solve_lp(model)
        assert r.status == "optimal"
        assert model_violations(model, r.x, tol=1e-9) == []
        assert r.objective == pytest.approx(lp_vertex_optimum(model), abs=1e-9)

    def test_rejects_quadratic(self):
        model = OptimizationModel("q", [Variable("x")], quadratic={"x": 1.0})
        with pytest.raises(ModelError):
            solve_lp(model)

    def test_fixed_variable(self):
        model = lp(
            [Variable("x", 2.0, 2.0), Variable("y")],
            [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), GE, 5.0)],
            {"y": 1.0})
        r = solve_lp(model)
        assert r.x["x"] == pytest.approx(2.0)
        assert r.x["y"] == pytest.approx(3.0)


class TestTimeLimit:
    def test_zero_budget_stops_before_the_second_pivot(self):
        # each row starts on an artificial that phase 1 must pivot out
        model = lp([Variable(f"x{i}", 0.0, 5.0) for i in range(3)],
                   [LinearConstraint(f"r{i}", ((f"x{i}", 1.0),
                                               (f"x{(i + 1) % 3}", 1.0)),
                                     GE, 2.0) for i in range(3)],
                   {f"x{i}": 1.0 for i in range(3)})
        assert simplex.solve_lp(model).iterations > 2
        r = simplex.solve_lp(model, time_limit=0.0)
        assert r.status == "time_limit"
        assert r.x is None and r.objective is None

    def test_a_one_pivot_phase_finishes_under_any_budget(self):
        model = lp([Variable("x", 0.0, 5.0)],
                   [LinearConstraint("r", (("x", 1.0),), GE, 2.0)], {"x": 1.0})
        r = simplex.solve_lp(model, time_limit=0.0)
        assert r.status == "optimal"
        assert r.x["x"] == pytest.approx(2.0)

    def test_a_generous_budget_changes_nothing(self):
        inst, params = generate_instance(10, 10, seed=7, meeting_prob=0.5)
        model, _ = build_lwh_program(inst, params)
        assert simplex.solve_lp(model, time_limit=60.0) == simplex.solve_lp(model)


class TestTableau:
    def box(self):
        # min -x - 2y  s.t.  x + y <= 3,  0 <= x, y <= 2: optimum x=1, y=2
        return lp([Variable("x", 0.0, 2.0), Variable("y", 0.0, 2.0)],
                  [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), LE, 3.0)],
                  {"x": -1.0, "y": -2.0})

    def open_box(self):
        # min -x - 2y  s.t.  x + y <= 3,  y - x <= 1,  x <= 2, y free:
        # optimum x=1, y=2
        return lp([Variable("x", -math.inf, 2.0),
                   Variable("y", -math.inf, math.inf)],
                  [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), LE, 3.0),
                   LinearConstraint("s", (("y", 1.0), ("x", -1.0)), LE, 1.0)],
                  {"x": -1.0, "y": -2.0})

    def test_resolve_matches_cold_solves(self):
        inf = math.inf
        box_cases = [((0.0, 0.0), (2.0, 1.0)),     # y capped
                     ((0.0, 0.0), (0.5, 2.0)),     # x capped: one pivot
                     ((2.0, 2.0), (2.0, 2.0)),     # infeasible
                     ((0.0, 0.0), (0.0, 2.0)),     # x fixed at 0
                     ((0.0, 0.0), (2.0, 2.0))]     # the root's bounds again
        open_cases = [((-inf, -inf), (0.5, inf)),  # upper-only x capped
                      ((-inf, -inf), (-1.0, inf)),
                      ((-inf, 2.5), (2.0, inf)),   # infeasible
                      ((0.0, -inf), (2.0, inf)),   # x bounded below
                      ((-inf, -inf), (2.0, inf)),  # the root's bounds again
                      ((-inf, 0.0), (2.0, 1.0))]   # free y boxed
        for model, cases in ((self.box(), box_cases),
                             (self.open_box(), open_cases)):
            tab = simplex.solve_lp(model, keep_tableau=True).tableau
            for lower, upper in cases:
                warm = tab.resolve(lower, upper)
                cold = solve_lp(replace(compile_model(model),
                                        lower=lower, upper=upper))
                assert warm.status == cold.status
                if cold.status == "optimal":
                    assert warm.objective == pytest.approx(cold.objective,
                                                           abs=1e-12)
                    assert warm.x == pytest.approx(cold.x, abs=1e-12)

    def test_resolve_stops_at_a_zero_budget(self):
        tab = simplex.solve_lp(self.box(), keep_tableau=True).tableau
        r = tab.resolve((0.0, 0.0), (0.5, 2.0), time_limit=0.0)  # needs a pivot
        assert r.status == "time_limit" and r.x is None
        assert tab.resolve((0.0, 0.0), (2.0, 2.0), time_limit=0.0).x == \
            pytest.approx({"x": 1.0, "y": 2.0})             # needs none

    def test_resolve_defers_what_it_cannot_answer(self):
        tab = simplex.solve_lp(self.box(), keep_tableau=True).tableau
        with mock.patch.object(simplex, "_DUAL_MAXITER", 0):
            assert tab.resolve((0.0, 0.0), (0.5, 2.0)) is None
        free = lp([Variable("x", -math.inf, math.inf)],
                  [LinearConstraint("r", (("x", 1.0),), GE, -1.0)], {"x": 1.0})
        tab = simplex.solve_lp(free, keep_tableau=True).tableau
        warm = tab.resolve((0.0,), (math.inf,))           # free column bounded
        cold = solve_lp(replace(compile_model(free), lower=(0.0,)))
        assert (warm.status, warm.x, warm.objective) == \
            (cold.status, cold.x, cold.objective)
        # x, fixed at 0, leaves at its upper bound with a negative reduced
        # cost; freed again, the bound its cost asks for is infinite
        row = lp([Variable("x", 0.0, math.inf), Variable("y", 0.0, math.inf)],
                 [LinearConstraint("r", (("x", 1.0), ("y", 1.0)), LE, 4.0)],
                 {"x": -1.0})
        tab = simplex.solve_lp(row, keep_tableau=True).tableau
        assert tab.resolve((0.0, 0.0), (0.0, math.inf)).objective == 0.0
        assert tab.resolve((0.0, 0.0), (math.inf, math.inf)) is None


class TestDuals:
    def test_strong_duality_and_complementary_slackness(self):
        rng = random.Random(4)
        for trial in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            variables = [Variable(f"x{i}", 0.0, rng.uniform(2.0, 6.0))
                         for i in range(n)]
            rows = []
            for j in range(m):
                coeffs = tuple((f"x{i}", rng.uniform(-2.0, 2.0))
                               for i in range(n))
                sense = (LE, GE, EQ)[rng.randrange(3)]
                rows.append(LinearConstraint(f"r{j}", coeffs, sense,
                                             rng.uniform(-1.0, 1.0)))
            objective = {f"x{i}": rng.uniform(-2.0, 2.0) for i in range(n)}
            model = lp(variables, rows, objective)
            r = solve_lp(model)
            if r.status != "optimal":
                continue
            assert model_violations(model, r.x, tol=1e-6) == []
            # lagrangian stationarity on the reduced objective: shifting
            # the row prices out of the cost leaves only bound forces
            for row in rows:
                lhs = sum(coef * r.x[var] for var, coef in row.coeffs)
                dual = r.duals[row.name]
                slack = lhs - row.rhs
                if row.sense != EQ:
                    assert dual * slack == pytest.approx(0.0, abs=1e-5)
                if row.sense == LE:
                    assert dual <= 1e-7
                if row.sense == GE:
                    assert dual >= -1e-7
            reduced = dict(objective)
            for row in rows:
                for var, coef in row.coeffs:
                    reduced[var] = reduced.get(var, 0.0) - r.duals[row.name] * coef
            for v in variables:
                rc = reduced.get(v.name, 0.0)
                at_lower = abs(r.x[v.name] - v.lower) < 1e-6
                at_upper = abs(r.x[v.name] - v.upper) < 1e-6
                if not at_lower and not at_upper:
                    assert rc == pytest.approx(0.0, abs=1e-5)
                elif at_lower and not at_upper:
                    assert rc >= -1e-5
                elif at_upper and not at_lower:
                    assert rc <= 1e-5


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_matches_vertex_enumeration_on_boxed_models(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    m = rng.randint(0, 3)
    variables = [Variable(f"x{i}", float(rng.randint(-3, 0)),
                          float(rng.randint(1, 4))) for i in range(n)]
    rows = []
    for j in range(m):
        coeffs = tuple((f"x{i}", float(rng.randint(-3, 3))) for i in range(n))
        rows.append(LinearConstraint(
            f"r{j}", coeffs, (LE, GE, EQ)[rng.randrange(3)],
            float(rng.randint(-4, 4))))
    objective = {f"x{i}": float(rng.randint(-3, 3)) for i in range(n)}
    model = lp(variables, rows, objective)
    r = solve_lp(model)
    try:
        expected = lp_vertex_optimum(model)
    except ValueError:
        assert r.status == "infeasible"
        return
    assert r.status == "optimal"
    assert r.objective == pytest.approx(expected, abs=1e-7)
    assert model_violations(model, r.x, tol=1e-6) == []
    assert objective_value(model, r.x) == pytest.approx(r.objective, abs=1e-7)


@pytest.mark.parametrize("shape", [(10, 10), (15, 15)], ids=str)
@pytest.mark.parametrize("build", [build_lwh_program, build_wc_program],
                         ids=["lwh", "wc"])
def test_ladder_relaxations_agree_on_both_paths(shape, build):
    inst, params = generate_instance(*shape, seed=7, meeting_prob=0.5)
    model, _ = build(inst, params)
    assert solve_lp(model).status == "optimal"


def test_matches_highs_on_lwh_models():
    optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    cases = [(4, 4, 1), (4, 5, 2), (4, 6, 3), (5, 4, 4), (5, 5, 5),
             (5, 6, 6), (6, 4, 7), (6, 5, 8), (6, 6, 9), (5, 5, 10),
             (10, 10, 7), (25, 30, 7)]
    for n, steps, seed in cases:
        inst, params = generate_instance(n, steps, seed=seed, meeting_prob=0.5)
        cm = compile_model(build_lwh_program(inst, params)[0])
        rows = {EQ: ([], []), LE: ([], [])}
        for i, row in enumerate(cm.constraints):
            a = np.zeros(len(cm.variables))
            for j, coef in cm.terms(i):
                a[j] += coef
            sign = -1.0 if row.sense == GE else 1.0
            rows[EQ if row.sense == EQ else LE][0].append(sign * a)
            rows[EQ if row.sense == EQ else LE][1].append(sign * row.rhs)
        (a_eq, b_eq), (a_ub, b_ub) = rows[EQ], rows[LE]
        ref = optimize.linprog(cm.cost, A_ub=a_ub or None, b_ub=b_ub or None,
                               A_eq=a_eq or None, b_eq=b_eq or None,
                               bounds=list(zip(cm.lower, cm.upper)),
                               method="highs")
        assert ref.status == 0, (n, steps, seed)
        for r in (simplex.solve_lp(cm), solve_network(cm, difference_form(cm))):
            assert r.status == "optimal"
            assert r.objective == pytest.approx(ref.fun, abs=1e-6), (n, steps, seed)
