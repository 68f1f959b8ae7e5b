"""Model builders: shapes, row content, extraction, warm starts."""

import json
import math

import pytest

from storywiggle.instance import (Coordination, NicenessParams,
                                  minimal_stack_coordination, parse_instance)
from storywiggle.programs import (EQ, GE, LE, ExtractionError,
                                  LinearConstraint, ModelError,
                                  OptimizationModel, Variable,
                                  assignment_from_coordination, big_y,
                                  build_lwh_program, build_qwh_program,
                                  build_wc_program, extract_coordination,
                                  model_violations, objective_value)

CROSSING = {
    "characters": [{"id": "a", "activeFrom": 1, "activeTo": 2},
                   {"id": "b", "activeFrom": 1, "activeTo": 2}],
    "meetings": [],
    "orderings": [["a", "b"], ["b", "a"]],
    "params": {"delta": 1, "deltaBar": 1},
}


def crossing():
    return parse_instance(json.dumps(CROSSING))


def rows_by_name(model):
    return {row.name: row for row in model.constraints}


class TestModelBasics:
    def test_validate_catches_duplicates_and_unknowns(self):
        model = OptimizationModel("m", [Variable("x"), Variable("x")])
        with pytest.raises(ModelError, match="duplicate"):
            model.validate()
        model = OptimizationModel("m", [Variable("x")],
                                  [LinearConstraint("r", (("y", 1.0),), GE, 0.0)])
        with pytest.raises(ModelError, match="unknown"):
            model.validate()

    def test_validate_rejects_negative_quadratic(self):
        model = OptimizationModel("m", [Variable("x")], quadratic={"x": -1.0})
        with pytest.raises(ModelError, match="quadratic"):
            model.validate()

    def test_model_violations(self):
        model = OptimizationModel(
            "m", [Variable("x", 0.0, 2.0, integral=True)],
            [LinearConstraint("r", (("x", 1.0),), GE, 1.0)])
        assert model_violations(model, {"x": 1.0}) == []
        assert model_violations(model, {"x": 0.0}) == ["r"]
        assert "bound x" in model_violations(model, {"x": 3.0})
        assert "integrality x" in model_violations(model, {"x": 1.5})

    def test_objective_value_mixes_linear_and_quadratic(self):
        model = OptimizationModel("m", [Variable("x")],
                                  objective={"x": 2.0}, quadratic={"x": 1.0})
        assert objective_value(model, {"x": 3.0}) == 15.0


class TestBuilders:
    def test_big_y(self):
        inst, params = crossing()
        assert big_y(inst, params) == 4.0       # 2 + 2 active slots, spacing 1

    def test_lwh_crossing_shape(self):
        inst, params = crossing()
        model, index = build_lwh_program(inst, params)
        assert sorted(model.variable_names()) == [
            "w_t1_c0", "w_t1_c1", "y_t1_c0", "y_t1_c1", "y_t2_c0", "y_t2_c1"]
        rows = rows_by_name(model)
        # bottom-to-top spacing at both steps: upper minus lower >= 1
        free1 = rows["free_t1_y_t1_c0_y_t1_c1"]
        assert free1.sense == GE and free1.rhs == 1.0
        free2 = rows["free_t2_y_t2_c1_y_t2_c0"]
        assert dict(free2.coeffs) == {"y_t2_c0": 1.0, "y_t2_c1": -1.0}
        # |y_a(1) - y_a(2)| linearization
        assert rows["wpos_t1_c0"].sense == LE
        assert dict(rows["wpos_t1_c0"].coeffs) == {
            "y_t1_c0": 1.0, "y_t2_c0": -1.0, "w_t1_c0": -1.0}
        assert model.objective == {"w_t1_c0": 1.0, "w_t1_c1": 1.0}
        assert not model.quadratic
        for v in model.variables:
            if v.name.startswith("y_"):
                assert (v.lower, v.upper) == (0.0, 4.0)
                assert not v.integral

    def test_meeting_rows_pin_exact_spacing(self):
        doc = json.loads(json.dumps(CROSSING))
        doc["meetings"] = [{"t": 1, "members": ["a", "b"]}]
        doc["params"] = {"delta": 2, "deltaBar": 1}
        inst, params = parse_instance(json.dumps(doc))
        model, _ = build_lwh_program(inst, params)
        meet = [r for r in model.constraints if r.name.startswith("meet_")]
        assert len(meet) == 1
        assert meet[0].sense == EQ and meet[0].rhs == 2.0

    def test_qwh_difference_form(self):
        inst, params = crossing()
        model, index = build_qwh_program(inst, params)
        rows = rows_by_name(model)
        assert model.quadratic == {"d_t1_c0": 1.0, "d_t1_c1": 1.0}
        assert not model.objective
        d_var = next(v for v in model.variables if v.name == "d_t1_c0")
        assert d_var.lower == -math.inf and d_var.upper == math.inf
        assert rows["dlink_t1_c0"].sense == EQ
        assert dict(rows["dlink_t1_c0"].coeffs) == {
            "y_t1_c0": 1.0, "y_t2_c0": -1.0, "d_t1_c0": -1.0}

    def test_wc_crossing_shape(self):
        inst, params = crossing()
        model, index = build_wc_program(inst, params)
        rows = rows_by_name(model)
        y_vars = [v for v in model.variables if v.name.startswith("y_")]
        assert all(v.upper == 3.0 for v in y_vars)
        z_vars = [v for v in model.variables if v.name.startswith("z_")]
        assert all(v.integral and (v.lower, v.upper) == (0.0, 1.0)
                   for v in z_vars)
        assert dict(rows["m1_t1_c0"].coeffs) == {
            "y_t1_c0": 1.0, "y_t2_c0": -1.0, "z_t1_c0": 4.0}
        assert rows["m1_t1_c0"].sense == GE and rows["m1_t1_c0"].rhs == 0.0
        assert dict(rows["m2_t1_c0"].coeffs) == {
            "y_t1_c0": 1.0, "y_t2_c0": -1.0, "z_t1_c0": -4.0}
        assert rows["cap_y_t1_c0"].sense == LE
        assert model.objective["h"] == pytest.approx(1.0 / 4.0)
        assert model.objective["z_t1_c0"] == 1.0

    def test_wc_needs_integral_params(self):
        inst, _ = crossing()
        with pytest.raises(ModelError, match="integral"):
            build_wc_program(inst, NicenessParams(1.0, 1.5))

    def test_empty_instance_builds_empty_models(self):
        doc = {"characters": [], "meetings": [], "orderings": []}
        inst, params = parse_instance(json.dumps(doc))
        for build in (build_lwh_program, build_qwh_program, build_wc_program):
            model, index = build(inst, params)
            assert not model.variables and not model.constraints
            model.validate()


class TestExtraction:
    def test_extract_round_trip(self):
        inst, params = crossing()
        model, index = build_lwh_program(inst, params)
        coord = Coordination({(1, "a"): 0.0, (1, "b"): 1.0,
                              (2, "a"): 2.0, (2, "b"): 1.0})
        assignment = assignment_from_coordination(model, index, coord)
        assert model_violations(model, assignment) == []
        assert objective_value(model, assignment) == 2.0
        back = extract_coordination(index, assignment)
        assert back.values == coord.values

    def test_extract_rejects_sloppy_solutions(self):
        inst, params = crossing()
        _, index = build_lwh_program(inst, params)
        bad = {"y_t1_c0": 0.0, "y_t1_c1": 1.0,
               "y_t2_c0": 1.0, "y_t2_c1": 0.5}       # spacing 0.5 < delta bar
        with pytest.raises(ExtractionError):
            extract_coordination(index, bad)

    def test_warm_start_covers_every_variable(self):
        doc = {
            "characters": [{"id": c, "activeFrom": 1, "activeTo": 3}
                           for c in "abc"],
            "meetings": [{"t": 2, "members": ["a", "b"]}],
            "orderings": [["a", "b", "c"]] * 3,
        }
        inst, params = parse_instance(json.dumps(doc))
        for build in (build_lwh_program,
                      build_qwh_program,
                      build_wc_program):
            model, index = build(inst, params)
            coord = minimal_stack_coordination(inst, params)
            assignment = assignment_from_coordination(model, index, coord)
            assert set(assignment) == set(model.variable_names())
            assert model_violations(model, assignment, tol=1e-9) == []
