"""Mathematical programs for wiggle minimization.

Builders translate an ordered instance into one of three models over a
shared polytope of nice coordinations:

* linear wiggle height: LP with one absolute-difference variable per
  character alive across a gap,
* quadratic wiggle height: QP with one free difference variable per
  such character carrying the squared objective,
* wiggle count: ILP with one binary indicator per such character plus a
  height tiebreaker.

All three bound y-variables by the safe box derived from the spacing
parameters, so every model is bounded.

`compile_model` validates a model and resolves its names, once; the
simplex, network simplex, QP and branch-and-bound solvers read the
`CompiledModel`: row terms by column index, and per-column bounds, costs
and quad weights.

Every solver returns one `SolveResult`: a `SolveStatus` member, the
assignment `x` and its `objective` (the optimum, or where a limit
stopped), `best_bound` and relative `gap` (a continuous optimum's own
objective and 0; for branch and bound, the least open bound and a float
gap, inf until both are finite), `duals` and QP `kkt` residuals where a
solver has them, its counters in `stats` (`iterations` and `nodes` are
also attributes), and, for an optimum of `solve_lp`, its `tableau` and
the column `values` as an array in model order.  An optimum of
`Tableau.resolve` carries `values` but names no `x`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from .instance import (
    Coordination,
    NicenessParams,
    OrderedStorylineInstance,
    is_nice,
    neighbor_sets,
)

if TYPE_CHECKING:
    import numpy as np

    from .simplex import Tableau

LE = "<="
GE = ">="
EQ = "="


class ModelError(ValueError):
    """Ill-formed optimization model or builder precondition violation."""


class ExtractionError(RuntimeError):
    """A solver returned an assignment that is not a nice coordination."""


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


@dataclass
class SolveResult:
    """What every solver returns (see the module docstring)."""

    status: SolveStatus
    x: dict[str, float] | None = None
    objective: float | None = None
    best_bound: float | None = None
    gap: float | None = None
    duals: dict[str, float] | None = None
    kkt: dict[str, float] | None = None
    stats: dict[str, float] = field(default_factory=dict)
    tableau: Tableau | None = field(default=None, compare=False, repr=False)
    values: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.status is SolveStatus.OPTIMAL and self.best_bound is None:
            self.best_bound, self.gap = self.objective, 0.0

    @property
    def iterations(self) -> int:
        return self.stats.get("iterations", 0)

    @property
    def nodes(self) -> int:
        return self.stats.get("nodes", 0)


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = 0.0
    upper: float = math.inf
    integral: bool = False


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str          # one of LE, GE, EQ
    rhs: float


@dataclass
class OptimizationModel:
    name: str
    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)      # linear terms
    quadratic: dict[str, float] = field(default_factory=dict)      # coeff * var^2

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def validate(self) -> None:
        compile_model(self)

    def is_integer_program(self) -> bool:
        return any(v.integral for v in self.variables)


@dataclass(frozen=True)
class CompiledModel:
    """A validated model; column j is `variables[j]`, row i `constraints[i]`.

    `terms(i)` yields row i's `(column, coefficient)` pairs in model order
    from flat tuples; a tuple per term would make thousands of GC-tracked
    objects per compile.  Solvers read bounds from `lower` and `upper`
    only; `variables` and `constraints` stay for names.
    """

    name: str
    variables: tuple[Variable, ...]
    constraints: tuple[LinearConstraint, ...]
    starts: tuple[int, ...]
    cols: tuple[int, ...]
    coefs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    cost: tuple[float, ...]
    quad: tuple[float, ...]

    def terms(self, i: int):
        s, e = self.starts[i], self.starts[i + 1]
        return zip(self.cols[s:e], self.coefs[s:e])


def _finite(values) -> bool:
    # `sum` is one C loop, and only an inf, a NaN or an overflow of finite
    # numbers makes it non-finite
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def compile_model(model: OptimizationModel | CompiledModel) -> CompiledModel:
    """Validate `model` and resolve its names; compiled models pass through.

    Every coefficient, right-hand side, cost and quadratic weight must be
    finite, and a bound may be infinite only on its own side.
    """
    if isinstance(model, CompiledModel):
        return model
    col: dict[str, int] = {}
    for v in model.variables:
        if v.name in col:
            raise ModelError(f"duplicate variable {v.name!r}")
        col[v.name] = len(col)
        if not v.lower <= v.upper:                      # NaN fails too
            empty = "empty" if v.lower > v.upper else "NaN"
            raise ModelError(f"{empty} bound interval for {v.name!r}")
    rownames = set()
    starts, cols, coefs = [0], [], []
    for row in model.constraints:
        if row.sense not in (LE, GE, EQ):
            raise ModelError(f"bad sense {row.sense!r} in {row.name!r}")
        if row.name in rownames:
            raise ModelError(f"duplicate constraint {row.name!r}")
        rownames.add(row.name)
        for var, coef in row.coeffs:
            if var not in col:
                raise ModelError(f"{row.name!r} references unknown {var!r}")
            cols.append(col[var])
            coefs.append(coef)
        starts.append(len(cols))
    for var in (*model.objective, *model.quadratic):
        if var not in col:
            raise ModelError(f"objective references unknown {var!r}")
    for var, coef in model.quadratic.items():
        if coef < 0:
            raise ModelError(f"negative quadratic coefficient on {var!r}")
    for what, values in (("coefficient", coefs),
                         ("right-hand side", [row.rhs for row in model.constraints]),
                         ("cost", list(model.objective.values())),
                         ("quadratic weight", list(model.quadratic.values()))):
        if not _finite(values):
            raise ModelError(f"non-finite {what} in {model.name!r}")
    vs = model.variables
    lower, upper = tuple(v.lower for v in vs), tuple(v.upper for v in vs)
    if max(lower, default=0.0) == math.inf or min(upper, default=0.0) == -math.inf:
        raise ModelError(f"lower bound +inf or upper bound -inf in {model.name!r}")
    return CompiledModel(
        model.name, tuple(vs), tuple(model.constraints), tuple(starts), tuple(cols),
        tuple(coefs), lower, upper,
        tuple(model.objective.get(v.name, 0.0) for v in vs),
        tuple(model.quadratic.get(v.name, 0.0) for v in vs))


def evaluate_row(row: LinearConstraint, assignment: Mapping[str, float]) -> float:
    return sum(coef * assignment[var] for var, coef in row.coeffs)


def model_violations(model: OptimizationModel, assignment: Mapping[str, float],
                     tol: float = 1e-7) -> list[str]:
    """Names of bounds/rows the assignment violates beyond tol."""
    bad = []
    for v in model.variables:
        x = assignment[v.name]
        if x < v.lower - tol or x > v.upper + tol:
            bad.append(f"bound {v.name}")
        if v.integral and abs(x - round(x)) > tol:
            bad.append(f"integrality {v.name}")
    for row in model.constraints:
        lhs = evaluate_row(row, assignment)
        if row.sense == LE and lhs > row.rhs + tol:
            bad.append(row.name)
        elif row.sense == GE and lhs < row.rhs - tol:
            bad.append(row.name)
        elif row.sense == EQ and abs(lhs - row.rhs) > tol:
            bad.append(row.name)
    return bad


def objective_value(model: OptimizationModel, assignment: Mapping[str, float]) -> float:
    val = sum(coef * assignment[var] for var, coef in model.objective.items())
    val += sum(coef * assignment[var] ** 2 for var, coef in model.quadratic.items())
    return val


@dataclass
class VariableIndex:
    """Variable names of a built program, keyed by what they stand for."""

    inst: OrderedStorylineInstance
    params: NicenessParams
    kind: str                                   # "lwh" | "qwh" | "wc"
    y: dict[tuple[int, str], str] = field(default_factory=dict)
    gapvar: dict[tuple[int, str], str] = field(default_factory=dict)  # w, d, or z
    h: str | None = None

    def add_y(self, t: int, c: str, k: int) -> str:
        self.y[(t, c)] = f"y_t{t}_c{k}"
        return self.y[(t, c)]

    def add_gapvar(self, prefix: str, t: int, c: str, k: int) -> str:
        self.gapvar[(t, c)] = f"{prefix}_t{t}_c{k}"
        return self.gapvar[(t, c)]

    def coordination_from(self, assignment: Mapping[str, float]) -> Coordination:
        return Coordination({key: assignment[name] for key, name in self.y.items()})


def big_y(inst: OrderedStorylineInstance, params: NicenessParams) -> float:
    """Safe upper bound for y-coordinates: max spacing times total activity."""
    return max(params.delta, params.delta_bar) * inst.total_active()


def _niceness_rows(inst: OrderedStorylineInstance, params: NicenessParams,
                   index: VariableIndex, rows: list[LinearConstraint]) -> None:
    for t in range(1, inst.time_steps + 1):
        sets = neighbor_sets(inst, t)
        for c, cc in sets.meeting_pairs:
            rows.append(LinearConstraint(
                f"meet_t{t}_{index.y[(t, c)]}_{index.y[(t, cc)]}",
                ((index.y[(t, cc)], 1.0), (index.y[(t, c)], -1.0)),
                EQ, params.delta))
        for c, cc in sets.free_pairs:
            rows.append(LinearConstraint(
                f"free_t{t}_{index.y[(t, c)]}_{index.y[(t, cc)]}",
                ((index.y[(t, cc)], 1.0), (index.y[(t, c)], -1.0)),
                GE, params.delta_bar))


def _new_model_with_y(inst: OrderedStorylineInstance, params: NicenessParams,
                      kind: str, y_upper: float) -> tuple[OptimizationModel, VariableIndex]:
    model = OptimizationModel(kind)
    index = VariableIndex(inst, params, kind)
    char_idx = {c: k for k, c in enumerate(inst.characters)}
    for t in range(1, inst.time_steps + 1):
        for c in inst.active_at(t):
            name = index.add_y(t, c, char_idx[c])
            model.variables.append(Variable(name, 0.0, y_upper))
    return model, index


def build_lwh_program(inst: OrderedStorylineInstance,
                      params: NicenessParams) -> tuple[OptimizationModel, VariableIndex]:
    """LP minimizing total absolute vertical movement across all gaps."""
    Y = big_y(inst, params)
    model, index = _new_model_with_y(inst, params, "lwh", Y)
    char_idx = {c: k for k, c in enumerate(inst.characters)}
    _niceness_rows(inst, params, index, model.constraints)
    for t in inst.gaps():
        for c in inst.shared_at_gap(t):
            w = index.add_gapvar("w", t, c, char_idx[c])
            model.variables.append(Variable(w, 0.0, math.inf))
            ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
            model.constraints.append(LinearConstraint(
                f"wpos_t{t}_c{char_idx[c]}",
                ((ya, 1.0), (yb, -1.0), (w, -1.0)), LE, 0.0))
            model.constraints.append(LinearConstraint(
                f"wneg_t{t}_c{char_idx[c]}",
                ((yb, 1.0), (ya, -1.0), (w, -1.0)), LE, 0.0))
            model.objective[w] = 1.0
    return model, index


def build_qwh_program(inst: OrderedStorylineInstance,
                      params: NicenessParams) -> tuple[OptimizationModel, VariableIndex]:
    """QP minimizing total squared vertical movement.

    Each gap difference gets a free variable pinned by an equality row,
    and the squared objective sits on those variables.
    """
    Y = big_y(inst, params)
    model, index = _new_model_with_y(inst, params, "qwh", Y)
    char_idx = {c: k for k, c in enumerate(inst.characters)}
    _niceness_rows(inst, params, index, model.constraints)
    for t in inst.gaps():
        for c in inst.shared_at_gap(t):
            ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
            d = index.add_gapvar("d", t, c, char_idx[c])
            model.variables.append(Variable(d, -math.inf, math.inf))
            model.constraints.append(LinearConstraint(
                f"dlink_t{t}_c{char_idx[c]}",
                ((ya, 1.0), (yb, -1.0), (d, -1.0)), EQ, 0.0))
            model.quadratic[d] = 1.0
    return model, index


def build_wc_program(inst: OrderedStorylineInstance,
                     params: NicenessParams) -> tuple[OptimizationModel, VariableIndex]:
    """ILP minimizing the number of moving characters, height as tiebreak.

    Requires integral spacing parameters.  The y-variables live in
    [0, Y-1] with Y the safe box bound; each gap indicator is forced to 1
    by a big-Y pair whenever the character moves.  The objective adds
    h/Y with h an upper bound on all y, so the floor of the optimum is
    the minimum wiggle count.  Only the indicators are integral: once
    they are fixed, every row is a difference of two variables with an
    integral right-hand side, which is totally unimodular, so y and h
    are integral at every vertex.
    """
    if not params.is_integral:
        raise ModelError(
            f"wiggle-count model needs integral spacing, got "
            f"delta={params.delta}, deltaBar={params.delta_bar}")
    Y = big_y(inst, params)
    model, index = _new_model_with_y(inst, params, "wc", max(Y - 1.0, 0.0))
    char_idx = {c: k for k, c in enumerate(inst.characters)}
    _niceness_rows(inst, params, index, model.constraints)
    if not index.y:
        return model, index
    h = index.h = "h"
    model.variables.append(Variable(h, 0.0, max(Y - 1.0, 0.0)))
    model.objective[h] = 1.0 / Y
    for (t, c), yname in index.y.items():
        model.constraints.append(LinearConstraint(
            f"cap_{yname}", ((yname, 1.0), (h, -1.0)), LE, 0.0))
    for t in inst.gaps():
        for c in inst.shared_at_gap(t):
            z = index.add_gapvar("z", t, c, char_idx[c])
            model.variables.append(Variable(z, 0.0, 1.0, True))
            ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
            model.constraints.append(LinearConstraint(
                f"m1_t{t}_c{char_idx[c]}",
                ((ya, 1.0), (yb, -1.0), (z, Y)), GE, 0.0))
            model.constraints.append(LinearConstraint(
                f"m2_t{t}_c{char_idx[c]}",
                ((ya, 1.0), (yb, -1.0), (z, -Y)), LE, 0.0))
            model.objective[z] = 1.0
    return model, index


def extract_coordination(index: VariableIndex,
                         assignment: Mapping[str, float]) -> Coordination:
    """Read y-variables back into a coordination, verifying niceness."""
    coord = index.coordination_from(assignment)
    report = is_nice(index.inst, coord, index.params)
    if not report.ok:
        raise ExtractionError(
            "solution is not a nice coordination: " + "; ".join(report.violations))
    return coord


def assignment_from_coordination(model: OptimizationModel, index: VariableIndex,
                                 coord: Coordination) -> dict[str, float]:
    """Complete a coordination into a full model assignment (for warm starts)."""
    assignment: dict[str, float] = {}
    for (t, c), name in index.y.items():
        assignment[name] = coord.y(t, c)
    for (t, c), name in index.gapvar.items():
        d = coord.y(t, c) - coord.y(t + 1, c)
        if index.kind == "lwh":
            assignment[name] = abs(d)
        elif index.kind == "qwh":
            assignment[name] = d
        else:
            assignment[name] = 1.0 if abs(d) > 1e-9 else 0.0
    if index.h is not None:
        assignment[index.h] = max(
            (assignment[name] for name in index.y.values()), default=0.0)
    return assignment
