"""Primal active-set method for convex quadratic programs.

Handles `min c'x + sum_i q_i x_i^2` with q >= 0 over linear rows and
variable bounds of a compiled model.  Inequalities (rows and bounds
alike) are normalized to `a'x >= b`; the working set holds the equality
rows E, which never leave it, plus whichever inequalities G_A are
currently pinned.

The method is the null-space form of the primal active-set method, with
the equalities eliminated once up front (Nocedal and Wright, Numerical
Optimization, ch. 16.2-16.5).  One SVD of E per solve gives an
orthonormal basis Ze of its null space, m_E columns; every iterate is
x = x0 + Ze w for the feasible start x0, so the loop runs on w and sees
the inequality rows as G Ze and the Hessian as Ze'QZe.  On the `qwh`
models Ze keeps about a third of the columns (80 of 256 at 20x20, 200
of 601 at 25x30), and the equality rows, most of the working set, drop
out of every iteration.

Each iteration takes one step rule.  One SVD of the pinned rows of G Ze
gives their rank and a basis Y of their null space within Ze, and on a
zero step the least-squares multipliers of the pinned rows.  One `eigh`
of the reduced Hessian Y'(Ze'QZe)Y splits the reduced gradient: on the
curved eigendirections the step is the Newton step, capped at alpha =
1; when the gradient has a component on the flat ones the objective
falls without bound along that ray, which is walked uncapped to the
first blocking constraint.  A zero step means the working set's
minimizer is reached, and the multipliers decide which pinned row to
release, with a lowest-index rule after a stretch of degenerate steps.
The equality rows get their multipliers once, at the end, from the
stored SVD of E applied to what the pinned rows leave of the gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .programs import (EQ, GE, CompiledModel, ModelError, OptimizationModel,
                       SolveResult, SolveStatus, compile_model, model_violations)
from .simplex import solve_lp

_ACTIVE_TOL = 1e-8
_MULT_TOL = 1e-8
_STALL_LIMIT = 40
_MAXITER = 5000


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values."""
    return int((s > 1e-10 * s.max(initial=1.0)).sum())


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


def _feasible_start(cm: CompiledModel, warm: dict[str, float] | None,
                    time_limit: float | None) -> dict[str, float] | SolveStatus:
    """A feasible point, or the status of the probe LP that found none."""
    if warm is not None and not model_violations(cm, warm, tol=1e-9):
        return dict(warm)
    zero = (0.0,) * len(cm.variables)
    res = solve_lp(replace(cm, cost=zero, quad=zero), time_limit=time_limit)
    if res.status is SolveStatus.OPTIMAL:
        return res.x
    if res.status in (SolveStatus.INFEASIBLE, SolveStatus.TIME_LIMIT):
        return res.status
    raise ModelError(f"feasibility probe ended with status {res.status.value}")


def solve_qp(model: OptimizationModel, *,
             warm: dict[str, float] | None = None,
             time_limit: float | None = None) -> SolveResult:
    """Minimize the model's convex quadratic-plus-linear objective.

    Returns multipliers for every row (bound rows under `_lb_`/`_ub_`
    names, inequalities in their `>=` normalization) and the four KKT
    residual maxima under keys stationarity/primal/dual/complementarity.
    `stats` splits the `iterations` into `newton_steps`, uncapped
    `ray_steps` and `zero_steps` (releases and the optimal last one), and
    holds `null_dim`, m_E.  A stop at `_MAXITER` iterations or at
    `time_limit` (seconds) returns the current feasible iterate with the
    latest multipliers.  The feasibility probe gets what is left of the
    limit, and the first deadline check comes right after the one-time
    SVD of the equality rows.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    names, q, c, E, eb, enames, G, gb, gnames = _build(cm)
    start = _feasible_start(
        cm, warm, None if deadline is None
        else max(deadline - time.perf_counter(), 0.0))
    if isinstance(start, SolveStatus):
        return SolveResult(start)
    x0 = np.array([start[name] for name in names])

    # x = x0 + Ze w keeps every equality row satisfied, so the iteration
    # runs on w alone and sees the inequality rows as G Ze
    ue, se, vte = np.linalg.svd(E)
    rank_e = _rank(se)
    Ze = vte[rank_e:].T
    m_e = Ze.shape[1]
    GZ = G @ Ze
    H = Ze.T @ (q[:, None] * Ze)
    g0 = Ze.T @ (q * x0 + c)
    r0 = G @ x0 - gb
    w = np.zeros(m_e)

    active = np.flatnonzero(r0 <= _ACTIVE_TOL).tolist()
    lam_g = np.zeros(len(gnames))
    stall = 0
    bland = False
    status = SolveStatus.ITERATION_LIMIT
    iters = newton = rays = zeros = 0

    def steps():
        return {"iterations": iters, "newton_steps": newton, "ray_steps": rays,
                "zero_steps": zeros, "null_dim": m_e}

    while iters < _MAXITER:
        if deadline is not None and time.perf_counter() >= deadline:
            status = SolveStatus.TIME_LIMIT
            break
        iters += 1
        g = g0 + H @ w
        u, s, vt = np.linalg.svd(GZ[active])
        rank = _rank(s)
        Y = vt[rank:].T
        vals, vecs = np.linalg.eigh(Y.T @ H @ Y)
        flat = vals <= 1e-9 * vals.max(initial=1.0)
        gy = vecs.T @ (Y.T @ g)
        ray = Y @ (vecs[:, flat] @ gy[flat])
        if np.abs(ray).max(initial=0.0) > 1e-7 * (1.0 + np.abs(g).max(initial=0.0)):
            p = -ray / np.abs(ray).max()
            alpha = math.inf
        else:
            p = -(Y @ (vecs[:, ~flat] @ (gy[~flat] / vals[~flat])))
            alpha = 1.0
        if np.abs(p).max(initial=0.0) <= 1e-9:
            zeros += 1
            lam_g = np.zeros(len(gnames))
            lam_g[active] = u[:, :rank] @ ((vt[:rank] @ g) / s[:rank])
            neg = [i for i in active if lam_g[i] < -_MULT_TOL]
            if not neg:
                status = SolveStatus.OPTIMAL
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
        if math.isinf(alpha):
            rays += 1
        else:
            newton += 1
        gp = GZ @ p
        resid = r0 + GZ @ w
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
            return SolveResult(SolveStatus.UNBOUNDED, stats=steps())
        w = w + alpha * p
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

    x = x0 + Ze @ w
    # the equality rows take what the pinned inequalities leave of g
    rest = q * x + c - G.T @ lam_g
    lam_e = ue[:, :rank_e] @ ((vte[:rank_e] @ rest) / se[:rank_e])
    xmap = {name: float(x[i]) for i, name in enumerate(names)}
    duals = {name: float(lam_e[i]) for i, name in enumerate(enames)}
    duals.update({name: float(lam_g[i]) for i, name in enumerate(gnames)})
    kkt = kkt_residuals(q, c, E, eb, G, gb, x, lam_e, lam_g)
    obj = float(c @ x + (q * x) @ x / 2.0)
    return SolveResult(status, xmap, obj, duals=duals, kkt=kkt, stats=steps())


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
