"""Branch and bound for integer programs over the simplex relaxation.

Depth-first with most-fractional branching (declaration order breaks
ties), floor child explored first.  The open-node stack is re-sorted to
best-bound order every few thousand nodes so long runs do not starve on
one subtree.  Warm assignments are validated and used as incumbents, and
a node is pruned as soon as its relaxation cannot beat the incumbent.

The model is compiled once; a node is a pair of bound arrays, and a
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

A node's column values stay an array: the branching column is picked
by one vectorized test, and a name-to-value dict is built only for an
integral candidate and for the result.  With the smaller node tableau
and the row-restricted pivot of `simplex`, a node of the seed-7 8x8
`wc` search costs about 0.10-0.11 ms instead of 0.14-0.15 ms, with the same
pivots.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .programs import (ModelError, OptimizationModel, SolveResult, SolveStatus,
                       compile_model, model_violations, objective_value)
from .simplex import solve_lp

_RESORT_EVERY = 10000
_NODE_LIMIT = 200000


def _result(status: SolveStatus, inc_x: dict[str, float] | None, inc_obj: float,
            best_bound: float, stats: dict[str, float]) -> SolveResult:
    """The search's result, with a gap of inf unless both ends are finite."""
    objective = inc_obj if inc_x is not None else None
    if objective is None or not math.isfinite(best_bound):
        gap = math.inf
    else:
        gap = (objective - best_bound) / max(1.0, abs(objective))
    return SolveResult(status, inc_x, objective, best_bound, gap, stats=stats)


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

    `stats` counts the `nodes` solved, the pivots of the warm node LPs
    (`dual_pivots`), the node LPs solved cold, the root included
    (`cold_solves`), and the nodes whose LP was infeasible
    (`infeasible_nodes`), and gives the root relaxation's optimum
    (`root_bound`: inf if it is infeasible, -inf if it was not solved to
    optimality).
    """
    cm = compile_model(model)
    if any(cm.quad):
        raise ModelError("quadratic objective passed to the integer solver")
    names = [v.name for v in cm.variables]
    int_cols = np.array([j for j, v in enumerate(cm.variables) if v.integral],
                        dtype=int)
    int_names = [names[j] for j in int_cols]

    inc_x: dict[str, float] | None = None
    inc_obj = math.inf
    for cand in warm:
        if any(name not in cand for name in names):
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
    # open nodes: bound arrays and the parent's bound
    stack = [(np.array(cm.lower), np.array(cm.upper), -math.inf)]
    stats = {"nodes": 0, "dual_pivots": 0, "cold_solves": 0,
             "infeasible_nodes": 0, "root_bound": -math.inf}
    status = SolveStatus.OPTIMAL
    live = None             # the root's tableau, reoptimized at later nodes
    while stack:
        nodes = stats["nodes"]
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
        stats["nodes"] += 1
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        lp = None if live is None else live.resolve(lower, upper, time_limit=left)
        if lp is not None:
            stats["dual_pivots"] += lp.iterations
        else:
            lp = solve_lp(replace(cm, lower=tuple(lower.tolist()),
                                  upper=tuple(upper.tolist())),
                          time_limit=left)
            stats["cold_solves"] += 1
            if live is None:              # the root
                live = lp.tableau
                if lp.status is SolveStatus.OPTIMAL:
                    stats["root_bound"] = lp.objective
                elif lp.status is SolveStatus.INFEASIBLE:
                    stats["root_bound"] = math.inf
        if lp.status is SolveStatus.INFEASIBLE:
            stats["infeasible_nodes"] += 1
            continue
        if lp.status is SolveStatus.UNBOUNDED:
            return _result(SolveStatus.UNBOUNDED, inc_x, inc_obj, -math.inf, stats)
        if lp.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.TIME_LIMIT):
            status = lp.status
            stack.append((lower, upper, parent_bound))
            break
        assert lp.values is not None and lp.objective is not None
        if lp.objective >= inc_obj - 1e-9:
            continue
        values = lp.values
        ints = values[int_cols]
        frac = np.abs(ints - np.round(ints))
        k = int(np.argmax(frac)) if frac.size else 0
        if not frac.size or frac[k] <= 1e-6:
            values = values.copy()
            values[int_cols] = np.round(ints) + 0.0     # no -0.0
            full = dict(zip(names, values.tolist()))
            if not model_violations(model, full, tol=1e-5):
                val = objective_value(model, full)
                if val < inc_obj:
                    inc_obj, inc_x = val, full
            continue
        # the most fractional column, the first in declaration order on ties
        j = int_cols[k]
        ceil, floor = float(math.ceil(values[j])), float(math.floor(values[j]))
        if ceil <= upper[j]:
            child = lower.copy()
            child[j] = ceil
            stack.append((child, upper, lp.objective))
        if lower[j] <= floor:
            child = upper.copy()
            child[j] = floor
            stack.append((lower, child, lp.objective))

    open_bounds = [pb for _, _, pb in stack]
    if status is SolveStatus.OPTIMAL:
        if inc_x is None:
            return _result(SolveStatus.INFEASIBLE, None, inc_obj, math.inf, stats)
        return _result(status, inc_x, inc_obj, inc_obj, stats)
    best_bound = min(open_bounds + [inc_obj]) if (open_bounds or inc_x) else -math.inf
    return _result(status, inc_x, inc_obj, best_bound, stats)
