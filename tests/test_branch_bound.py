"""Branch and bound against exhaustive integer search, cold node solves
and HiGHS."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_ilp
from storywiggle import branch_bound
from storywiggle.branch_bound import solve_ilp
from storywiggle.generate import generate_instance
from storywiggle.instance import minimal_stack_coordination
from storywiggle.programs import (EQ, GE, LE, LinearConstraint,
                                  OptimizationModel, SolveResult, SolveStatus,
                                  Variable, assignment_from_coordination,
                                  build_wc_program, compile_model,
                                  model_violations)
from storywiggle import simplex
from storywiggle.simplex import Tableau, solve_lp

# The 6x6 `wc` instances the benchmark solves (generator seed: optimum).
EASY_WC = {11: 4.277777777777778, 12: 4.2631578947368425,
           25: 4.2631578947368425, 34: 4.315789473684211,
           41: 4.333333333333333, 56: 4.333333333333333,
           66: 4.2631578947368425, 69: 4.25, 70: 4.235294117647059,
           71: 4.352941176470589, 84: 4.2272727272727275,
           85: 4.2631578947368425}
# Their search, as (nodes, dual pivots), pinned so that a change to the
# node arithmetic shows up as a failing count rather than silent drift.
EASY_WC_SEARCH = {11: (47, 87), 12: (55, 126), 25: (77, 134), 34: (54, 115),
                  41: (65, 98), 56: (57, 86), 66: (53, 95), 69: (62, 114),
                  70: (65, 108), 71: (55, 103), 84: (56, 124), 85: (72, 131)}


def ilp(variables, constraints, objective):
    model = OptimizationModel("t", variables, constraints, objective)
    model.validate()
    return model


def random_ilp(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 4)
    variables = []
    for i in range(n):
        lower = float(rng.randint(-3, 0))
        upper = lower + rng.randint(1, 5) + rng.choice((0.0, 0.5))
        variables.append(Variable(f"x{i}", lower, upper, True))
    rows = []
    for j in range(m):
        coeffs = tuple((f"x{i}", float(rng.randint(-3, 3))) for i in range(n))
        rows.append(LinearConstraint(
            f"r{j}", coeffs, (LE, GE, EQ)[rng.randrange(3)],
            float(rng.randint(-4, 6))))
    objective = {f"x{i}": float(rng.randint(-4, 4)) for i in range(n)}
    return ilp(variables, rows, objective)


class TestHandCases:
    def test_knapsack(self):
        model = ilp(
            [Variable("a", 0.0, 1.0, True), Variable("b", 0.0, 1.0, True),
             Variable("c", 0.0, 1.0, True)],
            [LinearConstraint("w", (("a", 3.0), ("b", 4.0), ("c", 5.0)),
                              LE, 7.0)],
            {"a": -4.0, "b": -5.0, "c": -6.0})
        r = solve_ilp(model)
        assert r.status == "optimal"
        assert r.objective == pytest.approx(-9.0)       # a + b
        assert r.x == {"a": 1.0, "b": 1.0, "c": 0.0}

    def test_rounding_is_not_enough(self):
        # LP relaxation peaks at x=3.8 but the lattice best is x=3
        model = ilp(
            [Variable("x", 0.0, 10.0, True)],
            [LinearConstraint("r", (("x", 5.0),), LE, 19.0)],
            {"x": -1.0})
        r = solve_ilp(model)
        assert r.objective == pytest.approx(-3.0)

    def test_mixed_integer(self):
        model = ilp(
            [Variable("n", 0.0, 5.0, True), Variable("x", 0.0, 5.0)],
            [LinearConstraint("r", (("n", 1.0), ("x", 1.0)), GE, 2.5)],
            {"n": 1.0, "x": 2.0})
        r = solve_ilp(model)
        assert r.status == "optimal"
        # n=3 alone and n=2 plus half a unit of pricey x both cost 3
        assert r.objective == pytest.approx(3.0)
        assert abs(r.x["n"] - round(r.x["n"])) < 1e-9

    def test_infeasible_lattice(self):
        model = ilp(
            [Variable("x", 0.0, 3.0, True)],
            [LinearConstraint("lo", (("x", 2.0),), GE, 3.0),
             LinearConstraint("hi", (("x", 2.0),), LE, 3.0)],
            {"x": 1.0})
        assert solve_ilp(model).status == "infeasible"

    def test_pure_lp_passthrough(self):
        model = ilp([Variable("x", 0.0, 2.0)], [], {"x": 1.0})
        r = solve_ilp(model)
        assert r.status == "optimal" and r.objective == pytest.approx(0.0)

    def test_lp_time_limit_ends_the_search(self):
        seen = []

        def stopped(model, **kwargs):
            seen.append(kwargs.get("time_limit"))
            return SolveResult(SolveStatus.TIME_LIMIT, stats={"iterations": 1})

        with mock.patch("storywiggle.branch_bound.solve_lp", stopped):
            r = solve_ilp(random_ilp(3), time_limit=5.0)
        assert r.status == "time_limit" and r.nodes == 1 and r.x is None
        assert len(seen) == 1 and 0.0 <= seen[0] <= 5.0

    def test_cold_node_solves_get_the_time_left(self):
        seen = []

        def spy(model, **kwargs):
            seen.append(kwargs.get("time_limit"))
            return solve_lp(model, **kwargs)

        model, warm = wc_model(6, 6, 11)
        with mock.patch("storywiggle.branch_bound.solve_lp", spy), \
                mock.patch.object(Tableau, "resolve", lambda *a, **kw: None):
            r = solve_ilp(model, warm=(warm,), time_limit=60.0)
        assert r.status == "optimal" and r.objective == EASY_WC[11]
        assert len(seen) == r.nodes > 1
        assert all(0.0 <= left <= 60.0 for left in seen)

    def test_search_counters(self):
        # min -x  s.t.  2x <= 3,  x in 0..5 integral.  The root LP makes
        # one pivot (x enters at 1.5) in phase 1, which takes one more
        # pass to find no entering column, as phase 2 does at once with
        # no pivot; no column flips bounds.  The
        # floor child x <= 1 pivots once (the slack enters) to x = 1, the
        # incumbent; the ceiling child x >= 2 pivots once (x re-enters at
        # 1.5) and then finds no column to lift it: infeasible.
        model = ilp([Variable("x", 0.0, 5.0, True)],
                    [LinearConstraint("r", (("x", 2.0),), LE, 3.0)],
                    {"x": -1.0})
        assert solve_lp(model).stats == {
            "iterations": 3, "phase1_pivots": 1, "phase2_pivots": 0,
            "bound_flips": 0}
        r = solve_ilp(model)
        assert r.status == "optimal" and r.x == {"x": 1.0}
        assert r.stats == {"nodes": 3, "dual_pivots": 2, "cold_solves": 1,
                           "infeasible_nodes": 1, "root_bound": -1.5}

    def test_node_limit_reports_bound(self, monkeypatch):
        model = random_ilp(99)
        monkeypatch.setattr(branch_bound, "_NODE_LIMIT", 1)
        r = solve_ilp(model)
        assert r.status in ("optimal", "node_limit", "infeasible")
        if r.status == "node_limit":
            assert r.best_bound <= (r.objective or float("inf")) + 1e-9

    def test_warm_start_seeds_incumbent(self, monkeypatch):
        model = ilp(
            [Variable("x", 0.0, 5.0, True)],
            [LinearConstraint("r", (("x", 1.0),), GE, 2.0)],
            {"x": 1.0})
        monkeypatch.setattr(branch_bound, "_NODE_LIMIT", 0)
        r = solve_ilp(model, warm=({"x": 3.0},))
        assert r.status == "node_limit"
        assert r.objective == pytest.approx(3.0)      # the seed survives

    def test_bad_warm_candidates_skipped(self):
        model = ilp(
            [Variable("x", 0.0, 5.0, True)],
            [LinearConstraint("r", (("x", 1.0),), GE, 2.0)],
            {"x": 1.0})
        r = solve_ilp(model, warm=({"x": 0.0},       # violates the row
                                   {"y": 1.0},       # misses the variable
                                   {"x": 2.5},       # fractional
                                   {"x": 4.0}))      # usable
        assert r.status == "optimal"
        assert r.objective == pytest.approx(2.0)

    def test_fractional_bound_prunes_empty_child(self):
        # the up branch of x=2.5 would need 3 <= x <= 2.5
        model = ilp([Variable("x", 0.0, 2.5, True)], [], {"x": -1.0})
        r = solve_ilp(model)
        assert r.status == "optimal" and r.x == {"x": 2.0}

    @pytest.mark.parametrize("lower, upper, row, sense, rhs, cost, want", [
        # upper-only column at the root, bounded below once v >= -2
        (-math.inf, 5.0, 2.0, GE, -5.0, 1.0, -2.0),
        # free column at the root, upper-only once v <= 2
        (-math.inf, math.inf, 2.0, LE, 5.0, -1.0, 2.0),
        # free column at the root, bounded below once v >= -2
        (-math.inf, math.inf, 2.0, GE, -5.0, 1.0, -2.0),
    ])
    def test_node_bounds_change_column_transform(self, lower, upper, row,
                                                 sense, rhs, cost, want):
        model = ilp([Variable("v", lower, upper, True)],
                    [LinearConstraint("r", (("v", row),), sense, rhs)],
                    {"v": cost})
        r = solve_ilp(model)
        assert r.status == "optimal"
        assert r.x == {"v": want} and r.nodes == 3


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_matches_exhaustive_search(seed):
    model = random_ilp(seed)
    r = solve_ilp(model)
    expected = brute_force_ilp(model)
    if expected is None:
        assert r.status == "infeasible"
        return
    assert r.status == "optimal"
    assert r.objective == pytest.approx(expected[0], abs=1e-7)
    assert model_violations(model, r.x, tol=1e-6) == []
    assert all(abs(v - round(v)) < 1e-6 for v in r.x.values())


def wc_model(n, steps, seed):
    inst, params = generate_instance(n, steps, seed=seed, meeting_prob=0.5)
    model, index = build_wc_program(inst, params)
    warm = assignment_from_coordination(
        model, index, minimal_stack_coordination(inst, params))
    return model, warm


def solve_checking_nodes(model, **kwargs):
    """Solve, checking each warm-started node LP against a cold solve."""
    cm = compile_model(model)
    real = Tableau.resolve
    nodes = []

    def resolve(self, lower, upper, **kw):
        warm = real(self, lower, upper, **kw)
        cold = solve_lp(replace(cm, lower=lower, upper=upper))
        assert warm is not None and warm.status == cold.status
        if cold.status == "optimal":
            assert abs(warm.objective - cold.objective) \
                <= 1e-9 * (1 + abs(cold.objective))
        nodes.append(warm.status)
        return warm

    with mock.patch.object(Tableau, "resolve", resolve):
        r = solve_ilp(model, **kwargs)
    assert len(nodes) == r.nodes - 1          # every node but the root
    return r


class TestWarmNodes:
    @pytest.mark.parametrize("seed", sorted(EASY_WC))
    def test_wc_nodes_match_cold_solves(self, seed):
        model, warm = wc_model(6, 6, seed)
        r = solve_checking_nodes(model, warm=(warm,))
        assert r.status == "optimal" and r.objective == EASY_WC[seed]

    @pytest.mark.parametrize("seed", sorted(EASY_WC))
    def test_wc_search_is_pinned(self, seed):
        model, warm = wc_model(6, 6, seed)
        r = solve_ilp(model, warm=(warm,))
        assert r.status == "optimal" and r.objective == EASY_WC[seed]
        assert (r.nodes, r.stats["dual_pivots"]) == EASY_WC_SEARCH[seed]
        assert r.stats["cold_solves"] == 1

    @pytest.mark.parametrize("seed", [11, 41, 84])
    def test_sparse_pivots_match_cold_solves(self, seed):
        model, warm = wc_model(6, 6, seed)
        with mock.patch.object(simplex, "_SPARSE_MIN_CELLS", 0):
            r = solve_checking_nodes(model, warm=(warm,))
        assert r.status == "optimal" and r.objective == EASY_WC[seed]
        assert (r.nodes, r.stats["dual_pivots"]) == EASY_WC_SEARCH[seed]

    def test_random_nodes_match_cold_solves(self):
        statuses = set()
        for seed in range(250):
            model = random_ilp(seed)
            r = solve_checking_nodes(model)
            statuses.add(r.status)
        assert statuses == {"optimal", "infeasible"}

    def test_fixed_column_is_moved_to_the_bound_its_cost_asks_for(self):
        # A node that fixes a column leaves it nonbasic at either bound,
        # and later pivots may flip the sign of its reduced cost.  A later
        # node that frees it again must first move it to the bound that
        # sign asks for; left where it was, the basis is not dual
        # feasible, and here the search ends at 7 instead of 4.
        model = ilp(
            [Variable("x0", 0.0, 2.0, True), Variable("x1", -1.0, 1.0, True),
             Variable("x2", -3.0, -1.0, True)],
            [LinearConstraint("r", (("x0", -3.0), ("x1", -2.0), ("x2", 2.0)),
                              LE, -1.0)],
            {"x0": 4.0, "x1": 1.0, "x2": -4.0})
        r = solve_checking_nodes(model)
        assert r.status == "optimal" and r.objective == pytest.approx(4.0)
        assert r.x == {"x0": 0.0, "x1": 0.0, "x2": -1.0}


def test_matches_highs_on_wc_models():
    optimize = pytest.importorskip("scipy.optimize")
    for n, steps, seed in [(4, 4, 1), (4, 5, 2), (4, 6, 3), (5, 4, 4),
                           (5, 5, 5), (5, 6, 6), (6, 4, 7), (6, 5, 8),
                           (6, 6, 9), (5, 5, 10)]:
        model, warm = wc_model(n, steps, seed)
        cm = compile_model(model)
        A = np.zeros((len(cm.constraints), len(cm.variables)))
        lo = np.full(len(cm.constraints), -np.inf)
        hi = np.full(len(cm.constraints), np.inf)
        for i, row in enumerate(cm.constraints):
            for j, coef in cm.terms(i):
                A[i, j] += coef
            if row.sense in (GE, EQ):
                lo[i] = row.rhs
            if row.sense in (LE, EQ):
                hi[i] = row.rhs
        ref = optimize.milp(
            np.array(cm.cost), constraints=optimize.LinearConstraint(A, lo, hi),
            integrality=[v.integral for v in cm.variables],
            bounds=optimize.Bounds(cm.lower, cm.upper),
            options={"mip_rel_gap": 0.0})
        assert ref.status == 0
        r = solve_ilp(model, warm=(warm,))
        assert r.status == "optimal"
        assert r.objective == pytest.approx(ref.fun, abs=1e-6)
