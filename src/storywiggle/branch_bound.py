"""Branch and bound for integer programs over the simplex relaxation.

Depth-first with most-fractional branching (declaration order breaks
ties), floor child explored first.  The open-node stack is re-sorted to
best-bound order every few thousand nodes so long runs do not starve on
one subtree.  Warm assignments are validated and used as incumbents, and
a node is pruned as soon as its relaxation cannot beat the incumbent.

The model is compiled once; a node is a pair of bound vectors, and a
child with an empty interval is pruned unsolved.  Only the root LP is
solved cold.  Its final tableau stays live for the whole search: every
later node, a sibling popped after a backtrack included, applies its
bounds to that tableau and reoptimizes it in place with the bounded
dual simplex of `Tableau.resolve`.  On the `wc` models that takes about
two pivots a node, where a cold solve took about sixty.  Bounds do not
enter reduced costs, so the basis the last node left is dual feasible
for the next one, except for a column that an earlier node fixed: it
could not enter while fixed, so its reduced cost may have changed sign,
and it is first moved to the bound that sign asks for.  A node falls
back to a cold `solve_lp` only where the tableau cannot answer (see
`Tableau.resolve`).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

from .programs import (ModelError, OptimizationModel, SolveResult, SolveStatus,
                       compile_model, model_violations, objective_value)
from .simplex import solve_lp

_RESORT_EVERY = 10000
_NODE_LIMIT = 200000


def _result(status: SolveStatus, inc_x: dict[str, float] | None, inc_obj: float,
            best_bound: float, nodes: int) -> SolveResult:
    """The search's result, with a gap of inf unless both ends are finite."""
    objective = inc_obj if inc_x is not None else None
    if objective is None or not math.isfinite(best_bound):
        gap = math.inf
    else:
        gap = (objective - best_bound) / max(1.0, abs(objective))
    return SolveResult(status, inc_x, objective, best_bound, gap,
                       stats={"nodes": nodes})


def _rounded(x: dict[str, float], int_names: list[str]) -> dict[str, float]:
    out = dict(x)
    for name in int_names:
        out[name] = float(round(out[name]))
    return out


def solve_ilp(model: OptimizationModel, *,
              warm: tuple[dict[str, float], ...] = (),
              time_limit: float | None = None) -> SolveResult:
    """Minimize `model` with its integrality constraints enforced.

    `warm` holds candidate assignments; feasible integral ones seed the
    incumbent.  The search ends with `node_limit` once it has explored
    `_NODE_LIMIT` nodes.  `time_limit` bounds the whole search: it is
    checked between nodes, and each node LP, warm or cold, gets the time
    left; the search ends with `time_limit` as soon as one of them stops.
    """
    cm = compile_model(model)
    if any(cm.quad):
        raise ModelError("quadratic objective passed to the integer solver")
    ints = [(j, v.name) for j, v in enumerate(cm.variables) if v.integral]
    int_names = [name for _, name in ints]

    inc_x: dict[str, float] | None = None
    inc_obj = math.inf
    for cand in warm:
        if any(name not in cand for name in model.variable_names()):
            continue
        full = _rounded(cand, int_names)
        if model_violations(model, full, tol=1e-5):
            continue
        if any(abs(cand[n] - full[n]) > 1e-6 for n in int_names):
            continue
        val = objective_value(model, full)
        if val < inc_obj:
            inc_obj, inc_x = val, full

    deadline = time.monotonic() + time_limit if time_limit is not None else None
    stack = [(cm.lower, cm.upper, -math.inf)]     # bounds, parent's bound
    nodes = 0
    status = SolveStatus.OPTIMAL
    live = None             # the root's tableau, reoptimized at later nodes
    while stack:
        if nodes and nodes % _RESORT_EVERY == 0:
            stack.sort(key=lambda nd: -nd[2])
        if nodes >= _NODE_LIMIT:
            status = SolveStatus.NODE_LIMIT
            break
        if deadline is not None and time.monotonic() > deadline:
            status = SolveStatus.TIME_LIMIT
            break
        lower, upper, parent_bound = stack.pop()
        if parent_bound >= inc_obj - 1e-9:
            continue
        nodes += 1
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        if live is None:                  # the root
            lp = solve_lp(cm, time_limit=left)
            live = lp.tableau
        else:
            lp = (live.resolve(lower, upper, time_limit=left)
                  or solve_lp(replace(cm, lower=lower, upper=upper),
                              time_limit=left))
        if lp.status is SolveStatus.INFEASIBLE:
            continue
        if lp.status is SolveStatus.UNBOUNDED:
            return _result(SolveStatus.UNBOUNDED, inc_x, inc_obj, -math.inf, nodes)
        if lp.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.TIME_LIMIT):
            status = lp.status
            stack.append((lower, upper, parent_bound))
            break
        assert lp.x is not None and lp.objective is not None
        if lp.objective >= inc_obj - 1e-9:
            continue
        fractional = [(-abs(lp.x[n] - round(lp.x[n])), j) for j, n in ints
                      if abs(lp.x[n] - round(lp.x[n])) > 1e-6]
        if not fractional:
            full = _rounded(lp.x, int_names)
            if not model_violations(model, full, tol=1e-5):
                val = objective_value(model, full)
                if val < inc_obj:
                    inc_obj, inc_x = val, full
            continue
        _, j = min(fractional)
        val = lp.x[cm.variables[j].name]
        ceil, floor = float(math.ceil(val)), float(math.floor(val))
        if ceil <= upper[j]:
            stack.append((lower[:j] + (ceil,) + lower[j + 1:], upper, lp.objective))
        if lower[j] <= floor:
            stack.append((lower, upper[:j] + (floor,) + upper[j + 1:], lp.objective))

    open_bounds = [pb for _, _, pb in stack]
    if status is SolveStatus.OPTIMAL:
        if inc_x is None:
            return _result(SolveStatus.INFEASIBLE, None, inc_obj, math.inf, nodes)
        return _result(status, inc_x, inc_obj, inc_obj, nodes)
    best_bound = min(open_bounds + [inc_obj]) if (open_bounds or inc_x) else -math.inf
    return _result(status, inc_x, inc_obj, best_bound, nodes)
