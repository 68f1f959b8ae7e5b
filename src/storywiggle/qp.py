"""Primal active-set method for convex quadratic programs.

Handles `min c'x + sum_i q_i x_i^2` with q >= 0 over linear rows and
variable bounds of a compiled model.  Inequalities (rows and bounds
alike) are normalized to `a'x >= b`; the working set W holds the
equality rows plus whichever inequalities are currently pinned.

Every iteration takes one step rule, the null-space form of the method
(Nocedal and Wright, Numerical Optimization, ch. 16).  One SVD of W
gives its rank, a basis Z of its null space, and the least-squares
multipliers W'lam = g.  One `eigh` of the reduced Hessian Z'QZ splits
the reduced gradient: on the curved eigendirections the step is the
Newton step, capped at alpha = 1; when the gradient has a component on
the flat ones the objective falls without bound along that ray, which
is walked uncapped to the first blocking constraint.  A zero step means
the working set's minimizer is reached, and the multipliers decide
which pinned row to release, with a lowest-index rule after a stretch
of degenerate steps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .programs import (EQ, GE, CompiledModel, ModelError, OptimizationModel,
                       compile_model, model_violations)
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import solve_lp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
TIME_LIMIT = "time_limit"

_ACTIVE_TOL = 1e-8
_MULT_TOL = 1e-8
_STALL_LIMIT = 40


@dataclass
class QpResult:
    status: str
    x: dict[str, float] | None
    objective: float | None
    duals: dict[str, float] | None
    kkt: dict[str, float] | None
    iterations: int


def _build(cm: CompiledModel):
    names = [v.name for v in cm.variables]
    n = len(names)
    q = 2.0 * np.array(cm.quad, dtype=float)
    c = np.array(cm.cost, dtype=float)
    eq_rows: list[tuple[np.ndarray, float, str]] = []
    ge_rows: list[tuple[np.ndarray, float, str]] = []
    for i, row in enumerate(cm.constraints):
        a = np.zeros(n)
        for j, coef in cm.terms(i):
            a[j] += coef
        if row.sense == EQ:
            eq_rows.append((a, row.rhs, row.name))
        elif row.sense == GE:
            ge_rows.append((a, row.rhs, row.name))
        else:
            ge_rows.append((-a, -row.rhs, row.name))
    for i, (name, lo, hi) in enumerate(zip(names, cm.lower, cm.upper)):
        if lo > -math.inf:
            a = np.zeros(n)
            a[i] = 1.0
            ge_rows.append((a, lo, f"_lb_{name}"))
        if hi < math.inf:
            a = np.zeros(n)
            a[i] = -1.0
            ge_rows.append((a, -hi, f"_ub_{name}"))
    E = np.array([a for a, _, _ in eq_rows]).reshape(len(eq_rows), n)
    eb = np.array([b for _, b, _ in eq_rows])
    G = np.array([a for a, _, _ in ge_rows]).reshape(len(ge_rows), n)
    gb = np.array([b for _, b, _ in ge_rows])
    gnames = [name for _, _, name in ge_rows]
    enames = [name for _, _, name in eq_rows]
    return names, q, c, E, eb, enames, G, gb, gnames


def _feasible_start(cm: CompiledModel,
                    warm: dict[str, float] | None) -> dict[str, float] | None:
    if warm is not None and not model_violations(cm, warm, tol=1e-9):
        return dict(warm)
    zero = (0.0,) * len(cm.variables)
    res = solve_lp(replace(cm, cost=zero, quad=zero))
    if res.status == LP_INFEASIBLE:
        return None
    if res.status != LP_OPTIMAL:
        raise ModelError(f"feasibility probe ended with status {res.status}")
    return res.x


def solve_qp(model: OptimizationModel, *,
             warm: dict[str, float] | None = None,
             maxiter: int = 5000,
             time_limit: float | None = None) -> QpResult:
    """Minimize the model's convex quadratic-plus-linear objective.

    Returns multipliers for every row (bound rows under `_lb_`/`_ub_`
    names, inequalities in their `>=` normalization) and the four KKT
    residual maxima under keys stationarity/primal/dual/complementarity.
    A stop at `maxiter` or `time_limit` (seconds) returns the current
    feasible iterate with the latest multipliers.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    names, q, c, E, eb, enames, G, gb, gnames = _build(cm)
    n = len(names)
    if n == 0:
        return QpResult(OPTIMAL, {}, 0.0, {}, {"stationarity": 0.0, "primal": 0.0,
                                               "dual": 0.0, "complementarity": 0.0}, 0)
    start = _feasible_start(cm, warm)
    if start is None:
        return QpResult(INFEASIBLE, None, None, None, None, 0)
    x = np.array([start[name] for name in names])

    active = np.flatnonzero(G @ x - gb <= _ACTIVE_TOL).tolist()
    lam_g = np.zeros(len(gnames))
    lam_e = np.zeros(len(enames))
    stall = 0
    bland = False
    status = ITERATION_LIMIT
    iters = 0
    while iters < maxiter:
        if deadline is not None and time.perf_counter() >= deadline:
            status = TIME_LIMIT
            break
        iters += 1
        g = q * x + c
        u, s, vt = np.linalg.svd(np.vstack([E, G[active]]))
        rank = int((s > 1e-10 * s.max(initial=1.0)).sum())
        Z = vt[rank:].T
        vals, vecs = np.linalg.eigh(Z.T @ (q[:, None] * Z))
        flat = vals <= 1e-9 * vals.max(initial=1.0)
        gz = vecs.T @ (Z.T @ g)
        ray = Z @ (vecs[:, flat] @ gz[flat])
        if np.abs(ray).max(initial=0.0) > 1e-7 * (1.0 + np.abs(g).max()):
            p = -ray / np.abs(ray).max()
            alpha = math.inf
        else:
            p = -(Z @ (vecs[:, ~flat] @ (gz[~flat] / vals[~flat])))
            alpha = 1.0
        if np.abs(p).max() <= 1e-9:
            lam = u[:, :rank] @ ((vt[:rank] @ g) / s[:rank])
            lam_e = lam[:len(enames)]
            lam_g = np.zeros(len(gnames))
            lam_g[active] = lam[len(enames):]
            neg = [i for i in active if lam_g[i] < -_MULT_TOL]
            if not neg:
                status = OPTIMAL
                break
            if bland:
                drop = min(neg)
            else:
                drop = min(neg, key=lambda i: (lam_g[i], i))
            active.remove(drop)
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
            continue
        gp = G @ p
        resid = G @ x - gb
        block = -1
        pinned = set(active)
        for i in np.flatnonzero(gp < -1e-12).tolist():
            if i in pinned:
                continue
            step = max(resid[i], 0.0) / -gp[i]
            if step < alpha - 1e-12:
                alpha = step
                block = i
        if math.isinf(alpha):
            return QpResult(UNBOUNDED, None, None, None, None, iters)
        x = x + alpha * p
        if block >= 0:
            active.append(block)
            active.sort()
        if alpha > 1e-12:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True

    xmap = {name: float(x[i]) for i, name in enumerate(names)}
    duals = {name: float(lam_e[i]) for i, name in enumerate(enames)}
    duals.update({name: float(lam_g[i]) for i, name in enumerate(gnames)})
    kkt = kkt_residuals(q, c, E, eb, G, gb, x, lam_e, lam_g)
    obj = float(c @ x + (q * x) @ x / 2.0)
    return QpResult(status, xmap, obj, duals, kkt, iters)


def kkt_residuals(q, c, E, eb, G, gb, x, lam_e, lam_g) -> dict[str, float]:
    """Max-norm KKT residuals of a candidate primal/dual pair (Q = diag(q))."""
    stat = q * x + c - E.T @ lam_e - G.T @ lam_g
    primal = max(0.0, float(np.abs(E @ x - eb).max(initial=0.0)),
                 float(np.maximum(gb - G @ x, 0.0).max(initial=0.0)))
    return {
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "primal": primal,
        "dual": float(np.maximum(-lam_g, 0.0).max(initial=0.0)),
        "complementarity": float(np.abs(lam_g * (G @ x - gb)).max(initial=0.0)),
    }
