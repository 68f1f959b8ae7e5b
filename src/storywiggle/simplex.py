"""Two-phase primal simplex with variable bounds, on a dense tableau, and
a bounded dual simplex that reoptimizes a kept tableau under new bounds.

The solver normalizes a compiled model to `min c'x, Ax = b, 0 <= x <= u`
from its bound vectors: finite lower bounds are shifted out, upper-only
variables are negated, free variables are split, and slack columns turn
inequalities into equalities.  Phase 1 starts from an all-artificial
basis; the artificial block doubles as an explicit basis inverse, which
is what the dual values are read from.  Pricing is steepest-edge-flavored
with a Bland fallback after a run of degenerate steps, and nonbasic
variables may sit at either bound (bound flips do not pivot).

Tableaux of at least `_SPARSE_MIN_CELLS` cells pivot sparsely.  The
storyline models are difference constraints, so pivot columns and rows
are sparse: on the 25x30 `lwh` LP (859 rows by 2206 columns) the median
pivot column has 29 nonzeros, the median pivot row 14, and a pivot
changes 0.3 % of the tableau on average.  The rank-1 update then
touches only the block of nonzero pivot-column rows by nonzero
pivot-row columns; every cell outside it would have had a zero
subtracted, so T keeps exactly the values the dense update gives.
Reduced costs and squared column norms are kept between pivots and
recomputed, with the same expressions as the dense path, for the pivot
row's nonzero columns only: no other column of T changed, and its price
term for the pivot row is zero before and after.  Pricing, the ratio
test and the Bland fallback therefore see the same numbers and choose
the same pivots.  Small tableaux keep the dense update, because the
extra numpy calls cost more than they save there: timed on seed-7
storyline LPs, the sparse path took 1.2-1.3x the dense time below 3k
cells, 0.9-1.04x between 9k and 18k, and at most 0.9x from 24k up.

`solve_lp(..., keep_tableau=True)` hands its final phase-2 tableau back
as a `Tableau`.  Column bounds enter a tableau only through the values
of its nonbasic columns, never through its reduced costs, so an optimal
basis stays dual feasible under any new bounds, and `Tableau.resolve`
reoptimizes it in place with the dual simplex (`_dual`, after Bixby
2002, "Solving real-world linear programs"): the basic variable furthest
outside its bounds leaves, the dual ratio test picks the entering
column, and a row that no column can move back proves the bounds
infeasible.  One exception needs care.  A column whose new bounds fix it
(l = u) cannot enter, so while it is fixed its reduced cost may change
sign; when later bounds free it, it may sit at the bound its reduced
cost points away from.  `resolve` first moves every such column to the
other bound.  Without that step the dual loop starts from a basis that
is not dual feasible and stops at a point that is not optimal: branch
and bound then reported 7 of its 13 benchmark `wc` optima too high.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .programs import (EQ, GE, LE, CompiledModel, ModelError, OptimizationModel,
                       compile_model)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
TIME_LIMIT = "time_limit"

_STALL_LIMIT = 60
_SPARSE_MIN_CELLS = 20_000
_DUAL_MAXITER = 1000


@dataclass
class SimplexResult:
    status: str
    x: dict[str, float] | None
    objective: float | None
    duals: dict[str, float] | None
    iterations: int
    tableau: Tableau | None = field(default=None, compare=False, repr=False)


def _standard_form(cm: CompiledModel):
    """Rewrite into equality form with all lower bounds at zero."""
    inf = math.inf
    transforms: list[tuple[str, int, float]] = []
    upper: list[float] = []
    cost: list[float] = []
    const = 0.0
    for lo, hi, c in zip(cm.lower, cm.upper, cm.cost):
        col = len(upper)
        if lo > -inf:
            transforms.append(("shift", col, lo))
            upper.append(hi - lo)
            cost.append(c)
            const += c * lo
        elif hi < inf:
            transforms.append(("negate", col, hi))
            upper.append(inf)
            cost.append(-c)
            const += c * hi
        else:
            transforms.append(("split", col, 0.0))
            upper.extend((inf, inf))
            cost.extend((c, -c))
    nstruct = len(upper)
    m = len(cm.constraints)
    nslack = sum(1 for row in cm.constraints if row.sense != EQ)
    A = np.zeros((m, nstruct + nslack))
    b = np.zeros(m)
    flips = np.ones(m)
    scol = nstruct
    for i, row in enumerate(cm.constraints):
        rhs = row.rhs
        for j, coef in cm.terms(i):
            kind, col, off = transforms[j]
            if kind == "shift":
                A[i, col] += coef
                rhs -= coef * off
            elif kind == "negate":
                A[i, col] -= coef
                rhs -= coef * off
            else:
                A[i, col] += coef
                A[i, col + 1] -= coef
        if row.sense == LE:
            A[i, scol] = 1.0
            scol += 1
        elif row.sense == GE:
            A[i, scol] = -1.0
            scol += 1
        b[i] = rhs
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flips[i] = -1.0
    u = np.array(upper + [inf] * nslack)
    c = np.array(cost + [0.0] * nslack)
    return transforms, A, b, c, u, const, flips


def _pivot(T, Tb, basis, in_basis, at_upper, rr, j, sparse):
    """Make column j basic in row rr.

    Returns the pivot row's nonzero columns on the sparse path (the only
    columns whose entries or price changed), None on the dense one.
    """
    lv = basis[rr]
    piv = T[rr, j]
    T[rr] /= piv
    Tb[rr] /= piv
    col = T[:, j].copy()
    col[rr] = 0.0
    nz_cols = None
    if sparse:
        # cells outside this block would only lose a signed zero
        nz_rows = np.flatnonzero(col)
        nz_cols = np.flatnonzero(T[rr])
        T[np.ix_(nz_rows, nz_cols)] -= np.outer(col[nz_rows], T[rr, nz_cols])
    else:
        T -= np.outer(col, T[rr])
    Tb -= col * Tb[rr]
    basis[rr] = j
    in_basis[j] = True
    in_basis[lv] = False
    at_upper[j] = False
    return nz_cols


def _run(T, Tb, basis, in_basis, at_upper, upper, c, allow, maxiter,
         deadline=None):
    """Pivot until optimal, unbounded, out of iterations or past `deadline`.

    The deadline is checked before every pivot but the first, so each
    call makes at least one pivot of progress.
    """
    m, n = T.shape
    ctol = 1e-9 * (1.0 + (np.abs(c).max() if n else 0.0))
    ptol = 1e-9
    bland = False
    stall = 0
    iters = 0
    sparse = T.size >= _SPARSE_MIN_CELLS
    if sparse:
        r = c - c[basis] @ T
        sq = (T ** 2).sum(axis=0)
    while iters < maxiter:
        iters += 1
        up_idx = np.flatnonzero(at_upper)
        xB = Tb - T[:, up_idx] @ upper[up_idx] if up_idx.size else Tb.copy()
        if not sparse:
            r = c - c[basis] @ T if m else c.copy()
        cand = allow & ~in_basis & (
            (~at_upper & (r < -ctol)) | (at_upper & (r > ctol)))
        idx = np.flatnonzero(cand)
        if idx.size == 0:
            return OPTIMAL, iters
        if iters > 1 and deadline is not None and time.perf_counter() >= deadline:
            return TIME_LIMIT, iters
        if bland:
            j = idx[0]
        else:
            norms = 1.0 + (sq[idx] if sparse else (T[:, idx] ** 2).sum(axis=0))
            j = idx[np.argmax(r[idx] ** 2 / norms)]
        g = (-T[:, j] if at_upper[j] else T[:, j])
        ratios = np.full(m, math.inf)
        pos = g > ptol
        ratios[pos] = np.maximum(xB[pos], 0.0) / g[pos]
        ub = upper[basis]
        neg = (g < -ptol) & np.isfinite(ub)
        ratios[neg] = np.maximum(ub[neg] - xB[neg], 0.0) / -g[neg]
        row_min = ratios.min() if m else math.inf
        t_own = upper[j]
        if math.isfinite(t_own) and t_own <= row_min:
            at_upper[j] = not at_upper[j]
            stall = 0 if t_own > 1e-12 else stall + 1
            if stall >= _STALL_LIMIT:
                bland = True
            continue
        if not math.isfinite(row_min):
            return UNBOUNDED, iters
        rows = np.flatnonzero(ratios <= row_min + 1e-12)
        if bland:
            rr = rows[np.argmin(basis[rows])]
        else:
            rr = rows[np.argmax(np.abs(g[rows]))]
        # read before the pivot: g may view column j, which becomes a unit
        at_upper[basis[rr]] = g[rr] < 0
        nz_cols = _pivot(T, Tb, basis, in_basis, at_upper, rr, j, sparse)
        if sparse:
            # only the columns in the pivot row changed (or changed price)
            changed = T[:, nz_cols]
            r[nz_cols] = c[nz_cols] - c[basis] @ changed
            sq[nz_cols] = (changed ** 2).sum(axis=0)
        if row_min > 1e-12:
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    return ITERATION_LIMIT, iters


def solve_lp(model: OptimizationModel | CompiledModel, *,
             maxiter: int = 50000, keep_tableau: bool = False,
             time_limit: float | None = None) -> SimplexResult:
    """Solve the linear relaxation of `model` (integrality is ignored).

    Models with a nonzero quadratic weight are rejected; zero it first if
    a feasible vertex is all that is needed.  With `keep_tableau`, an
    optimal result carries its final tableau for `Tableau.resolve`.
    Once `time_limit` (seconds) has run out, either phase stops before
    its next pivot with `time_limit`; a phase that needs one pivot still
    takes it, so a small feasibility probe finishes under any budget.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    if any(cm.quad):
        raise ModelError("quadratic objective passed to the LP solver")
    transforms, A, b, c, u, const, flips = _standard_form(cm)
    m, nreal = A.shape
    T = np.hstack([A, np.eye(m)])
    Tb = b.copy()
    n = nreal + m
    upper = np.concatenate([u, np.full(m, math.inf)])
    basis = np.arange(nreal, n)
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(n, dtype=bool)
    allow = np.zeros(n, dtype=bool)
    allow[:nreal] = upper[:nreal] > 0

    c1 = np.concatenate([np.zeros(nreal), np.ones(m)])
    status, it1 = _run(T, Tb, basis, in_basis, at_upper, upper, c1, allow,
                       maxiter, deadline)
    if status in (ITERATION_LIMIT, TIME_LIMIT):
        return SimplexResult(status, None, None, None, it1)
    xB = _basic_values(T, Tb, at_upper, upper)
    art_sum = float(xB[basis >= nreal].sum()) if m else 0.0
    if art_sum > 1e-7 * (1.0 + (abs(b).max() if m else 0.0)):
        return SimplexResult(INFEASIBLE, None, None, None, it1)
    upper[nreal:] = 0.0

    c2 = np.concatenate([c, np.zeros(m)])
    status, it2 = _run(T, Tb, basis, in_basis, at_upper, upper, c2, allow,
                       maxiter, deadline)
    iters = it1 + it2
    if status != OPTIMAL:
        return SimplexResult(status, None, None, None, iters)

    x_full = np.where(at_upper & np.isfinite(upper), upper, 0.0)
    x_full[basis] = _basic_values(T, Tb, at_upper, upper)
    x: dict[str, float] = {}
    for v, (kind, col, off) in zip(cm.variables, transforms):
        if kind == "shift":
            x[v.name] = float(x_full[col] + off)
        elif kind == "negate":
            x[v.name] = float(off - x_full[col])
        else:
            x[v.name] = float(x_full[col] - x_full[col + 1])
    y = c2[basis] @ T[:, nreal:] if m else np.zeros(0)
    duals = {row.name: float(y[i] * flips[i])
             for i, row in enumerate(cm.constraints)}
    obj = float(c2 @ x_full + const)
    tableau = None
    if keep_tableau:
        tableau = Tableau(cm, transforms, T, Tb, basis, in_basis, at_upper,
                          upper, c2, allow, const)
    return SimplexResult(OPTIMAL, x, obj, duals, iters, tableau)


def _basic_values(T, Tb, at_upper, upper):
    up_idx = np.flatnonzero(at_upper)
    if up_idx.size:
        return Tb - T[:, up_idx] @ upper[up_idx]
    return Tb.copy()


class Tableau:
    """An optimal tableau that `resolve` reoptimizes under new bounds.

    Columns keep the coordinates of the standard form the tableau was
    built in: l <= x_j <= u becomes l - lo <= x' <= u - lo on a column
    shifted by its lower bound lo, and hi - u <= x' <= hi - l on one
    negated about its upper bound hi.
    """

    def __init__(self, cm: CompiledModel, transforms, T, Tb, basis, in_basis,
                 at_upper, upper, cost, allow, const):
        self.names = [v.name for v in cm.variables]
        self.T, self.Tb, self.basis = T, Tb, basis
        self.in_basis, self.at_upper = in_basis, at_upper
        self.upper, self.cost, self.allow, self.const = upper, cost, allow, const
        self.r = cost - cost[basis] @ T
        self.ctol = 1e-9 * (1.0 + (np.abs(cost).max() if cost.size else 0.0))
        by_kind = {kind: [] for kind in ("shift", "negate", "split")}
        for j, (kind, col, off) in enumerate(transforms):
            by_kind[kind].append((j, col, off))
        self.kinds = {
            kind: (np.array([t[0] for t in cols], dtype=int),
                   np.array([t[1] for t in cols], dtype=int),
                   np.array([t[2] for t in cols], dtype=float))
            for kind, cols in by_kind.items()}

    def resolve(self, lower, upper) -> SimplexResult | None:
        """Reoptimize under model column bounds `lower`/`upper`.

        Returns None where this tableau cannot answer and a cold solve
        must: a bound on a split free column, a column whose reduced cost
        points at an infinite bound, or a dual loop out of iterations.
        """
        L = np.asarray(lower, dtype=float)
        U = np.asarray(upper, dtype=float)
        j, col, _ = self.kinds["split"]
        if np.isfinite(L[j]).any() or np.isfinite(U[j]).any():
            return None
        lo = np.zeros(self.upper.size)
        up = self.upper.copy()
        j, col, off = self.kinds["shift"]
        lo[col] = L[j] - off
        up[col] = U[j] - off
        j, col, off = self.kinds["negate"]
        lo[col] = off - U[j]
        up[col] = off - L[j]

        # A column fixed (l = u) by an earlier solve could not enter its
        # ratio tests, so its reduced cost may now disagree with the bound
        # it sits at.  Move it to the bound its sign asks for, or the
        # basis is not dual feasible and the dual loop stops too early.
        r, at_upper = self.r, self.at_upper
        movable = self.allow & ~self.in_basis & (up > lo)
        to_upper = movable & (r < -self.ctol)
        if np.isinf(up[to_upper]).any():
            return None
        at_upper[to_upper] = True
        at_upper[movable & (r > self.ctol)] = False
        at_upper &= np.isfinite(up)

        status, iters, x_full = _dual(self.T, self.Tb, self.basis, self.in_basis,
                                      at_upper, lo, up, r, self.cost, self.allow,
                                      _DUAL_MAXITER)
        if status == ITERATION_LIMIT:
            return None
        if status != OPTIMAL:
            return SimplexResult(status, None, None, None, iters)
        values = np.empty(len(self.names))
        j, col, off = self.kinds["shift"]
        values[j] = x_full[col] + off
        j, col, off = self.kinds["negate"]
        values[j] = off - x_full[col]
        j, col, _ = self.kinds["split"]
        values[j] = x_full[col] - x_full[col + 1]
        obj = float(self.cost @ x_full + self.const)
        return SimplexResult(OPTIMAL, dict(zip(self.names, values.tolist())),
                             obj, None, iters)


def _dual(T, Tb, basis, in_basis, at_upper, lo, up, r, c, allow, maxiter):
    """Bounded dual simplex from a dual feasible basis.

    Nonbasic columns sit at `lo`, or at `up` where `at_upper`.  The basic
    variable furthest outside its bounds leaves at the bound it broke;
    the entering column is the one whose reduced cost reaches zero first
    as that row's dual moves (the dual ratio test), ties going to the
    largest pivot.  When no column can move the row back, the bounds are
    infeasible.  `r` holds the reduced costs and is kept current.
    Returns the status, the pivot count and, if optimal, every column's
    value.
    """
    m = T.shape[0]
    sparse = T.size >= _SPARSE_MIN_CELLS
    movable = allow & (up > lo)
    iters = 0
    while True:
        x = np.where(at_upper, up, lo)
        x[basis] = 0.0
        xB = Tb - T @ x
        x[basis] = xB
        below = lo[basis] - xB
        above = xB - up[basis]
        viol = np.maximum(below, above)
        rr = int(np.argmax(viol)) if m else 0
        if not m or viol[rr] <= 1e-9 * (1.0 + np.abs(xB).max()):
            return OPTIMAL, iters, x
        if iters >= maxiter:
            return ITERATION_LIMIT, iters, None
        to_lower = below[rr] > 0.0
        # how far row rr moves toward its broken bound per unit step of
        # each column away from its own bound
        step = np.where(at_upper, T[rr], -T[rr])
        if not to_lower:
            step = -step
        idx = np.flatnonzero(movable & ~in_basis & (step > 1e-9))
        if idx.size == 0:
            return INFEASIBLE, iters, None
        d = np.maximum(np.where(at_upper[idx], -r[idx], r[idx]), 0.0)
        ratios = d / step[idx]
        ties = idx[ratios <= ratios.min() + 1e-12]
        q = ties[np.argmax(step[ties])]
        at_upper[basis[rr]] = not to_lower
        nz_cols = _pivot(T, Tb, basis, in_basis, at_upper, rr, q, sparse)
        iters += 1
        cols = slice(None) if nz_cols is None else nz_cols
        r[cols] = c[cols] - c[basis] @ T[:, cols]
