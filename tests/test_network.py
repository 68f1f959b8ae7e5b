"""Network simplex on difference-form LPs, against the dense simplex."""

import json
import math
from dataclasses import replace

import pytest

from storywiggle import routing as routing_mod
from storywiggle import simplex
from storywiggle.generate import generate_instance
from storywiggle.instance import is_nice, parse_instance
from storywiggle.network import difference_form, solve_network
from storywiggle.programs import (EQ, GE, LE, LinearConstraint, OptimizationModel,
                                  Variable, big_y, build_lwh_program,
                                  build_qwh_program, compile_model,
                                  model_violations)
from storywiggle.routing import route_all_gaps
from storywiggle.solver import solve_model
from storywiggle.wigglefree import max_wiggle_free_set

from test_solver import lp_model

# a gap between steps 2 and 3 that no character crosses, and characters
# that join late or leave early
SPLIT = {
    "characters": [{"id": "a", "activeFrom": 1, "activeTo": 2},
                   {"id": "b", "activeFrom": 1, "activeTo": 2},
                   {"id": "c", "activeFrom": 2, "activeTo": 2},
                   {"id": "d", "activeFrom": 3, "activeTo": 5},
                   {"id": "e", "activeFrom": 3, "activeTo": 4},
                   {"id": "f", "activeFrom": 4, "activeTo": 5}],
    "meetings": [{"t": 1, "members": ["a", "b"]},
                 {"t": 4, "members": ["e", "d"]}],
    "orderings": [["a", "b"], ["b", "c", "a"], ["d", "e"], ["e", "d", "f"],
                  ["f", "d"]],
}

SPACINGS = [(1.0, 1.0), (2.0, 1.0), (0.3, 0.7), (1.5, 0.5)]


def flat_pinned(inst, params):
    """The model `max_wiggle_free_set` solves for its flat subset."""
    subset = max_wiggle_free_set(inst, params).subset
    model, index = build_lwh_program(inst, params)
    for c in subset:
        for t in inst.gaps():
            ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
            model.constraints.append(LinearConstraint(
                f"flat_{ya}", ((ya, 1.0), (yb, -1.0)), EQ, 0.0))
    return model, index


def check_against_simplex(inst, params, model, index):
    cm = compile_model(model)
    form = difference_form(cm)
    assert form is not None
    r = solve_network(cm, form)
    ref = simplex.solve_lp(cm)
    assert r.status == ref.status == "optimal"
    if params.is_integral:
        assert r.objective == ref.objective
    else:
        assert r.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
    assert model_violations(model, r.x, tol=1e-9) == []
    coord = index.coordination_from(r.x)
    assert is_nice(inst, coord, params, 1e-9).ok
    top = big_y(inst, params)
    assert all(-1e-9 <= y <= top + 1e-9 for y in coord.values.values())
    if params.is_integral:
        assert all(float(y).is_integer() for y in coord.values.values())
    return r


@pytest.mark.parametrize("shape", [(4, 4, 1), (5, 6, 2), (6, 5, 3), (8, 8, 4),
                                   (10, 10, 7)], ids=str)
@pytest.mark.parametrize("spacing", SPACINGS, ids=str)
def test_lwh_matches_simplex(shape, spacing):
    n, steps, seed = shape
    inst, params = generate_instance(n, steps, seed=seed, meeting_prob=0.5,
                                     delta=spacing[0], delta_bar=spacing[1])
    check_against_simplex(inst, params, *build_lwh_program(inst, params))


@pytest.mark.parametrize("spacing", SPACINGS, ids=str)
def test_lwh_with_an_uncrossed_gap(spacing):
    doc = dict(SPLIT, params={"delta": spacing[0], "deltaBar": spacing[1]})
    inst, params = parse_instance(json.dumps(doc))
    assert not inst.shared_at_gap(2)
    check_against_simplex(inst, params, *build_lwh_program(inst, params))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("spacing", SPACINGS, ids=str)
def test_flat_pinned_matches_simplex(seed, spacing):
    inst, params = generate_instance(5, 5, seed=seed, meeting_prob=0.5,
                                     all_active=True, delta=spacing[0],
                                     delta_bar=spacing[1])
    check_against_simplex(inst, params, *flat_pinned(inst, params))


def test_contradicting_rows_are_infeasible():
    xs = [Variable(v, 0.0, 10.0) for v in "abc"]
    ab = LinearConstraint("ab", (("b", 1.0), ("a", -1.0)), GE, 1.0)
    bc = LinearConstraint("bc", (("c", 1.0), ("b", -1.0)), GE, 1.0)
    cases = [
        ([ab, bc, LinearConstraint("ca", (("a", 1.0), ("c", -1.0)), GE, -1.5)],
         "infeasible"),
        ([ab, bc, LinearConstraint("ca", (("a", 1.0), ("c", -1.0)), GE, -2.5)],
         "optimal"),
        ([ab, bc, LinearConstraint("ac", (("c", 1.0), ("a", -1.0)), GE, 11.0)],
         "infeasible"),
        ([replace(ab, sense=EQ), LinearConstraint(
            "ba", (("a", 1.0), ("b", -1.0)), EQ, 1.0)], "infeasible"),
    ]
    for rows, expected in cases:
        cm = compile_model(OptimizationModel("m", xs, rows))
        assert simplex.solve_lp(cm).status == expected
        assert solve_network(cm, difference_form(cm)).status == expected


def test_columns_without_bounds_get_far_ones():
    # min |a - b| + 2|b - c| with a free, b and c bounded on one side
    xs = [Variable("a", -math.inf, math.inf), Variable("b", -math.inf, 4.0),
          Variable("c", 1.0, math.inf), Variable("w", 0.0, math.inf),
          Variable("v", 0.0, math.inf)]
    rows = [LinearConstraint("p1", (("a", 1.0), ("b", -1.0), ("w", -1.0)), LE, 0.0),
            LinearConstraint("p2", (("b", 1.0), ("a", -1.0), ("w", -1.0)), LE, 0.0),
            LinearConstraint("q1", (("b", -1.0), ("c", 1.0), ("v", 1.0)), GE, 0.0),
            LinearConstraint("q2", (("c", -1.0), ("b", 1.0), ("v", 1.0)), GE, 0.0),
            LinearConstraint("gap", (("a", 1.0), ("c", -1.0)), GE, 3.0)]
    model = OptimizationModel("m", xs, rows, {"w": 1.0, "v": 2.0})
    cm = compile_model(model)
    r = solve_network(cm, difference_form(cm))
    assert r.status == "optimal"
    assert r.objective == simplex.solve_lp(cm).objective == 3.0
    assert model_violations(model, r.x) == []


def test_zero_budget_stops_before_the_first_pivot():
    inst, params = generate_instance(10, 10, seed=7, meeting_prob=0.5)
    cm = compile_model(build_lwh_program(inst, params)[0])
    r = solve_network(cm, difference_form(cm), time_limit=0.0)
    assert (r.status, r.x, r.objective, r.iterations) == ("time_limit", None,
                                                          None, 0)
    r = solve_network(cm, difference_form(cm), time_limit=60.0)
    assert r.status == "optimal" and r.iterations > 0


class TestOtherModelsStayOnTheSimplex:
    def test_routing_lp(self, monkeypatch):
        # the only routing LP: concentricity over the paired leaving radii
        inst, params = generate_instance(6, 6, seed=6, meeting_prob=0.5)
        model, index = build_lwh_program(inst, params)
        cm = compile_model(model)
        r = solve_network(cm, difference_form(cm))
        coord = index.coordination_from(r.x)
        seen = []
        monkeypatch.setattr(routing_mod, "solve_model",
                            lambda m, config=None: seen.append(m)
                            or solve_model(m, config))
        route_all_gaps(inst, coord, r_min=0.5)
        assert seen
        assert all(difference_form(compile_model(m)) is None for m in seen)

    def test_qwh_probe(self):
        inst, params = generate_instance(6, 6, seed=3, meeting_prob=0.5)
        cm = compile_model(build_qwh_program(inst, params)[0])
        zero = (0.0,) * len(cm.cost)
        assert difference_form(replace(cm, cost=zero, quad=zero)) is None

    def test_non_difference_rows(self):
        assert difference_form(compile_model(lp_model())) is None

    def test_costed_level_column(self):
        inst, params = generate_instance(4, 4, seed=1, meeting_prob=0.5)
        model, index = build_lwh_program(inst, params)
        model.objective[next(iter(index.y.values()))] = 1.0
        assert difference_form(compile_model(model)) is None
