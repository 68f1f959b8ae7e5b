"""LP text format: writer goldens, parser variants, and round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storywiggle.generate import generate_instance
from storywiggle.lp_format import LpFormatError, parse_lp, write_lp
from storywiggle.network import difference_form
from storywiggle.programs import (EQ, GE, LE, LinearConstraint,
                                  OptimizationModel, Variable,
                                  build_lwh_program, build_qwh_program,
                                  build_wc_program, compile_model)
from storywiggle.solver import solve_model

from test_network import routing_models


def small_model():
    return OptimizationModel(
        "sample",
        variables=[
            Variable("x", 0.0, 4.0),
            Variable("y", -math.inf, math.inf),
            Variable("n", 0.0, 10.0, integral=True),
            Variable("b", 0.0, 1.0, integral=True),
        ],
        constraints=[
            LinearConstraint("r1", (("x", 1.0), ("y", -2.0)), LE, 3.0),
            LinearConstraint("r2", (("n", 1.0), ("b", 1.0)), GE, 1.0),
            LinearConstraint("r3", (("x", 1.0), ("n", -1.0)), EQ, 0.0),
        ],
        objective={"x": 1.0, "y": 0.5},
        quadratic={"x": 2.0},
    )


class TestWriter:
    def test_golden_output(self):
        text = write_lp(small_model())
        assert text == """\
\\ model: sample
Minimize
 obj: 1 x + 0.5 y + [ 4 x ^ 2 ] / 2
Subject To
 r1: 1 x - 2 y <= 3
 r2: 1 n + 1 b >= 1
 r3: 1 x - 1 n = 0
Bounds
 0 <= x <= 4
 y free
 0 <= n <= 10
 0 <= b <= 1
Generals
 n
Binaries
 b
End
"""

    def test_writer_skips_default_bounds(self):
        model = OptimizationModel("m", [Variable("x")], objective={"x": 1.0})
        text = write_lp(model)
        assert "Bounds" not in text

    def test_negative_and_two_sided_bounds(self):
        model = OptimizationModel(
            "m", [Variable("x", -2.0, 5.0), Variable("y", 1.0, math.inf)],
            objective={"x": 1.0})
        text = write_lp(model)
        assert " -2 <= x <= 5" in text
        assert " y >= 1" in text


class TestParser:
    def test_round_trip_small_model(self):
        model = small_model()
        parsed = parse_lp(write_lp(model))
        assert parsed.variable_names() == model.variable_names()
        assert parsed.objective == model.objective
        assert parsed.quadratic == model.quadratic
        assert [(r.name, r.sense, r.rhs) for r in parsed.constraints] == \
            [(r.name, r.sense, r.rhs) for r in model.constraints]
        for ours, theirs in zip(parsed.constraints, model.constraints):
            assert dict(ours.coeffs) == dict(theirs.coeffs)
        for ours, theirs in zip(parsed.variables, model.variables):
            assert ours == theirs

    def test_section_spellings_and_comments(self):
        text = """\
\\ free-standing comment
minimize
 obj: 2x + 3 y \\ trailing comment
s.t.
 c1: x + y >= 1
bounds
 x <= 2
end
"""
        model = parse_lp(text)
        assert model.objective == {"x": 2.0, "y": 3.0}
        assert model.constraints[0].sense == GE
        assert model.variables[0].upper == 2.0

    def test_implicit_coefficients_and_signs(self):
        model = parse_lp("""Minimize
 obj: -x + 2.5y - -3 z
Subject To
 c: x - y + z <= 0
End
""")
        assert model.objective == {"x": -1.0, "y": 2.5, "z": 3.0}

    def test_unnamed_rows_rejected(self):
        with pytest.raises(LpFormatError):
            parse_lp("Minimize\n obj: x\nSubject To\n x + y <= 1\nEnd\n")

    def test_sign_after_coefficient_rejected(self):
        with pytest.raises(LpFormatError):
            parse_lp("Minimize\n obj: 2 - x\nSubject To\nEnd\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(LpFormatError):
            parse_lp("Minimize\n obj: x\nMaximize\n obj: x\nEnd\n")

    def test_maximize_unsupported(self):
        with pytest.raises(LpFormatError, match="[Mm]aximize"):
            parse_lp("Maximize\n obj: x\nSubject To\nEnd\n")


names = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
                 min_size=1, max_size=5, unique=True)


@st.composite
def models(draw):
    var_names = draw(names)
    variables = []
    for n in var_names:
        integral = draw(st.booleans())
        style = draw(st.sampled_from(["default", "boxed", "free", "upper"]))
        if style == "default":
            lo, hi = 0.0, math.inf
        elif style == "boxed":
            lo = draw(st.integers(-5, 0))
            hi = draw(st.integers(1, 9))
        elif style == "free" and not integral:
            lo, hi = -math.inf, math.inf
        else:
            lo, hi = 0.0, draw(st.integers(1, 9))
        variables.append(Variable(n, float(lo), float(hi), integral))
    rows = []
    for i in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, len(var_names)))
        coeffs = tuple(
            (n, float(draw(st.integers(-4, 4).filter(bool))))
            for n in var_names[:k])
        rows.append(LinearConstraint(
            f"row{i}", coeffs, draw(st.sampled_from([LE, GE, EQ])),
            float(draw(st.integers(-9, 9)))))
    objective = {n: float(draw(st.integers(-3, 3)))
                 for n in var_names if draw(st.booleans())}
    quadratic = {n: float(draw(st.integers(1, 3)))
                 for n in var_names if draw(st.booleans())}
    # the format only carries variables somewhere in the text, so any
    # default-bounded continuous variable outside every section must be
    # kept visible through a zero objective term
    in_rows = {n for row in rows for n, _ in row.coeffs}
    for v in variables:
        visible = (v.name in objective or v.name in quadratic
                   or v.name in in_rows or v.integral
                   or (v.lower, v.upper) != (0.0, math.inf))
        if not visible:
            objective[v.name] = 0.0
    model = OptimizationModel("fuzz", variables, rows, objective, quadratic)
    model.validate()
    return model


@settings(max_examples=120, deadline=None)
@given(models())
def test_write_parse_round_trip(model):
    parsed = parse_lp(write_lp(model))
    # declaration order is not carried by the format, names are
    assert sorted(parsed.variable_names()) == sorted(model.variable_names())
    assert {v.name: v for v in parsed.variables} == \
        {v.name: v for v in model.variables}
    assert {k: v for k, v in parsed.objective.items() if v} == \
        {k: v for k, v in model.objective.items() if v}
    assert parsed.quadratic == {k: v for k, v in model.quadratic.items() if v}
    assert len(parsed.constraints) == len(model.constraints)
    for ours, theirs in zip(parsed.constraints, model.constraints):
        assert ours.name == theirs.name
        assert ours.sense == theirs.sense
        assert ours.rhs == theirs.rhs
        combined: dict[str, float] = {}
        for var, coef in theirs.coeffs:
            combined[var] = combined.get(var, 0.0) + coef
        assert dict(ours.coeffs) == {k: v for k, v in combined.items() if v}


def verdict(model):
    """What `difference_form` makes of a model, as the solvers dispatch on it."""
    cm = compile_model(model)
    form = difference_form(cm)
    if form is None:
        return None
    if form.is_network_lp(cm):
        return "network LP"
    if form.links and not form.pairs:
        return "pairless links"
    return "no network LP"


BUILDERS = {"lwh": (build_lwh_program, "network LP"),
            "qwh": (build_qwh_program, "pairless links"),
            "wc": (build_wc_program, None)}


# the seed-7 6x6 layout routes no gap by LP, so routing comes from 10x10
@pytest.mark.parametrize("shape, kind", [
    *((shape, kind) for shape in ((6, 6), (10, 10)) for kind in BUILDERS),
    ((10, 10), "routing")], ids=str)
def test_round_trip_keeps_each_model_on_its_solver(shape, kind):
    # what the `external:` backend writes, `lpsolve` reads back into the
    # same solver with the same optimum
    inst, params = generate_instance(*shape, seed=7, meeting_prob=0.5)
    if kind == "routing":
        model, expected = routing_models(inst, params)[0], "no network LP"
    else:
        build, expected = BUILDERS[kind]
        model = build(inst, params)[0]
    parsed = parse_lp(write_lp(model))
    assert verdict(model) == verdict(parsed) == expected
    ours, theirs = solve_model(model), solve_model(parsed)
    assert ours.status == theirs.status == "optimal"
    assert theirs.objective == pytest.approx(ours.objective, rel=1e-9, abs=0.0)
