"""Primal active-set method for convex quadratic programs.

Handles `min c'x + sum_i q_i x_i^2` with q >= 0 over linear rows and
variable bounds of a compiled model.  Inequalities (rows and bounds
alike) are normalized to `a'x >= b`; the working set holds the equality
rows plus whichever inequalities are currently pinned.  Each step solves
the equality constrained subproblem through its KKT system; when that
system is inconsistent the objective is flat along some feasible ray, so
the step walks the ray to the first blocking constraint instead.
Multipliers decide which pinned row to release, with a lowest-index rule
after a stretch of degenerate steps.
"""

from __future__ import annotations

import math
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
    Q = np.diag(2.0 * np.array(cm.quad, dtype=float))
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
    return names, Q, c, E, eb, enames, G, gb, gnames


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


def _null_space(A: np.ndarray, n: int) -> np.ndarray:
    if A.size == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    rank = int((s > 1e-10 * max(1.0, s[0] if s.size else 1.0)).sum())
    return vt[rank:].T


def solve_qp(model: OptimizationModel, *,
             warm: dict[str, float] | None = None,
             maxiter: int = 5000) -> QpResult:
    """Minimize the model's convex quadratic-plus-linear objective.

    Returns multipliers for every row (bound rows under `_lb_`/`_ub_`
    names, inequalities in their `>=` normalization) and the four KKT
    residual maxima under keys stationarity/primal/dual/complementarity.
    """
    cm = compile_model(model)
    names, Q, c, E, eb, enames, G, gb, gnames = _build(cm)
    n = len(names)
    if n == 0:
        return QpResult(OPTIMAL, {}, 0.0, {}, {"stationarity": 0.0, "primal": 0.0,
                                               "dual": 0.0, "complementarity": 0.0}, 0)
    start = _feasible_start(cm, warm)
    if start is None:
        return QpResult(INFEASIBLE, None, None, None, None, 0)
    x = np.array([start[name] for name in names])

    resid = G @ x - gb if G.size else np.zeros(len(gnames))
    active = [i for i in range(len(gnames)) if resid[i] <= _ACTIVE_TOL]
    lam_g = np.zeros(len(gnames))
    lam_e = np.zeros(len(enames))
    stall = 0
    bland = False
    status = ITERATION_LIMIT
    iters = 0
    while iters < maxiter:
        iters += 1
        W = np.vstack([E, G[active]]) if (len(enames) or active) else np.zeros((0, n))
        k = W.shape[0]
        g = Q @ x + c
        K = np.zeros((n + k, n + k))
        K[:n, :n] = Q
        K[:n, n:] = W.T
        K[n:, :n] = W
        rhs = np.concatenate([-g, np.zeros(k)])
        sol, _, _, _ = np.linalg.lstsq(K, rhs, rcond=None)
        consistent = np.abs(K @ sol - rhs).max() <= 1e-7 * (1.0 + np.abs(g).max())
        p = sol[:n]
        if consistent and np.abs(p).max() <= 1e-9:
            nu = sol[n:]
            lam = -nu
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
        if not consistent:
            Z = _null_space(W, n)
            if Z.shape[1] == 0:
                raise ModelError("inconsistent KKT system with empty null space")
            H = Z.T @ Q @ Z
            gz = Z.T @ g
            vals, vecs = np.linalg.eigh(H)
            zero = vals <= 1e-9 * max(1.0, float(vals.max()) if vals.size else 1.0)
            w = -(vecs[:, zero] @ (vecs[:, zero].T @ gz))
            if np.abs(w).max() <= 1e-12:
                raise ModelError("flat subproblem with no descent ray")
            p = Z @ w
            p /= np.abs(p).max()
            alpha_cap = math.inf
        else:
            alpha_cap = 1.0
        gp = G @ p if G.size else np.zeros(len(gnames))
        resid = G @ x - gb if G.size else np.zeros(len(gnames))
        alpha = alpha_cap
        block = -1
        pinned = set(active)
        for i in range(len(gnames)):
            if i in pinned or gp[i] >= -1e-12:
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
    kkt = kkt_residuals(Q, c, E, eb, G, gb, x, lam_e, lam_g)
    obj = float(c @ x + x @ Q @ x / 2.0)
    return QpResult(status, xmap, obj, duals, kkt, iters)


def kkt_residuals(Q, c, E, eb, G, gb, x, lam_e, lam_g) -> dict[str, float]:
    """Max-norm KKT residuals of a candidate primal/dual pair."""
    stat = Q @ x + c
    if E.size:
        stat = stat - E.T @ lam_e
    if G.size:
        stat = stat - G.T @ lam_g
    primal = 0.0
    if E.size:
        primal = max(primal, float(np.abs(E @ x - eb).max()))
    if G.size:
        primal = max(primal, float(np.maximum(gb - G @ x, 0.0).max()))
    dual = float(np.maximum(-lam_g, 0.0).max()) if lam_g.size else 0.0
    comp = float(np.abs(lam_g * (G @ x - gb)).max()) if G.size else 0.0
    return {
        "stationarity": float(np.abs(stat).max()) if stat.size else 0.0,
        "primal": primal,
        "dual": dual,
        "complementarity": comp,
    }
