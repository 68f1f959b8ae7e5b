"""Two-phase primal simplex with variable bounds, on a dense tableau, and
a bounded dual simplex that reoptimizes a kept tableau under new bounds.

Both run on the model's own columns plus one slack per inequality, each
column measured from where it rests: its finite lower bound, else its
finite upper bound, else 0.  In that measure a column's lower bound is 0
or -inf; a column open below rests at an upper bound of 0, or is free and
may enter in either direction, as in bounded simplex codes (Bixby 2002,
"Solving real-world linear programs"; Koberstein 2005, "The dual simplex
method").  Phase 1 starts from an all-artificial basis; the artificial
block doubles as an explicit basis inverse, which is what the dual
values are read from.  Pricing is steepest-edge-flavored with a Bland
fallback after a run of degenerate steps, and nonbasic columns may sit
at either bound (bound flips do not pivot).

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
as a `Tableau`.  Bounds enter a tableau only through the values of its
nonbasic columns, never through its reduced costs, so an optimal basis
stays dual feasible under new bounds: `Tableau.resolve` subtracts the
rests from them and reoptimizes in place with the dual simplex (`_dual`).
A column that earlier bounds fixed (l = u) could not enter, so its
reduced cost may have changed sign; `resolve` first moves each column to
the bound its reduced cost asks for.  Without that step the dual loop
starts from a basis that is not dual feasible, and branch and bound
reported 7 of its 13 benchmark `wc` optima too high.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .programs import (EQ, LE, CompiledModel, ModelError, OptimizationModel,
                       compile_model)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"
TIME_LIMIT = "time_limit"

_STALL_LIMIT = 60
_SPARSE_MIN_CELLS = 20_000
_DUAL_MAXITER = 1000
_MAXITER = 50000


@dataclass
class SimplexResult:
    status: str
    x: dict[str, float] | None
    objective: float | None
    duals: dict[str, float] | None
    iterations: int
    tableau: Tableau | None = field(default=None, compare=False, repr=False)


def _standard_form(cm: CompiledModel):
    """Rows `A x' = b` over x' = x - rest, slacks last, b >= 0 (`flips`
    marks negated rows); the rests, upper bounds and objective constant."""
    inf = math.inf
    rest = [lo if lo > -inf else hi if hi < inf else 0.0
            for lo, hi in zip(cm.lower, cm.upper)]
    m = len(cm.constraints)
    nslack = sum(1 for row in cm.constraints if row.sense != EQ)
    scol = len(rest)
    A = np.zeros((m, scol + nslack))
    b = np.zeros(m)
    flips = np.ones(m)
    for i, row in enumerate(cm.constraints):
        rhs = row.rhs
        for j, coef in cm.terms(i):
            A[i, j] += coef
            rhs -= coef * rest[j]
        if row.sense != EQ:
            A[i, scol] = 1.0 if row.sense == LE else -1.0
            scol += 1
        b[i] = rhs
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flips[i] = -1.0
    const = 0.0
    for c, r in zip(cm.cost, rest):
        const += c * r
    upper = [hi - r for hi, r in zip(cm.upper, rest)] + [inf] * nslack
    return np.array(rest), A, b, upper, const, flips


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


def _run(T, Tb, basis, in_basis, at_upper, upper, open_below, c, allow,
         deadline=None):
    """Pivot until optimal, unbounded, out of iterations or past `deadline`.

    Nonbasic columns sit at 0, or at `upper` where `at_upper`.  Lower
    bounds are 0, or -inf where `open_below` (None if nowhere); a column
    open below with an infinite upper bound is free and enters either
    way.  The deadline is checked before every pivot but the first, so
    each call makes at least one pivot of progress.
    """
    m, n = T.shape
    ctol = 1e-9 * (1.0 + (np.abs(c).max() if n else 0.0))
    ptol = 1e-9
    free = None if open_below is None else open_below & np.isinf(upper)
    bland = False
    stall = 0
    iters = 0
    sparse = T.size >= _SPARSE_MIN_CELLS
    if sparse:
        r = c - c[basis] @ T
        sq = (T ** 2).sum(axis=0)
    while iters < _MAXITER:
        iters += 1
        xB = _basic_values(T, Tb, at_upper, upper)
        if not sparse:
            r = c - c[basis] @ T if m else c.copy()
        cand = allow & ~in_basis & (
            (~at_upper & (r < -ctol)) | (at_upper & (r > ctol)))
        if free is not None:
            cand |= free & ~in_basis & (r > ctol)
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
        # a positive reduced cost enters downward
        g = (-T[:, j] if r[j] > 0 else T[:, j])
        ratios = np.full(m, math.inf)
        pos = g > ptol
        if open_below is not None:
            pos &= ~open_below[basis]
        ratios[pos] = np.maximum(xB[pos], 0.0) / g[pos]
        ub = upper[basis]
        neg = (g < -ptol) & np.isfinite(ub)
        ratios[neg] = np.maximum(ub[neg] - xB[neg], 0.0) / -g[neg]
        row_min = ratios.min() if m else math.inf
        t_own = math.inf if open_below is not None and open_below[j] else upper[j]
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
             keep_tableau: bool = False,
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
    rest, A, b, upper, const, flips = _standard_form(cm)
    m, nreal = A.shape
    n = nreal + m
    T = np.hstack([A, np.eye(m)])
    Tb = b.copy()
    upper = np.array(upper + [math.inf] * m)
    basis = np.arange(nreal, n)
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(n, dtype=bool)
    allow = np.zeros(n, dtype=bool)
    allow[:nreal] = upper[:nreal] > 0
    open_below = None
    if -math.inf in cm.lower:
        open_below = np.isinf(np.array(cm.lower + (0.0,) * (n - rest.size)))
        allow |= open_below
        at_upper |= open_below & np.isfinite(upper)

    c1 = np.concatenate([np.zeros(nreal), np.ones(m)])
    status, it1 = _run(T, Tb, basis, in_basis, at_upper, upper, open_below, c1,
                       allow, deadline)
    if status in (ITERATION_LIMIT, TIME_LIMIT):
        return SimplexResult(status, None, None, None, it1)
    xB = _basic_values(T, Tb, at_upper, upper)
    art_sum = float(xB[basis >= nreal].sum()) if m else 0.0
    if art_sum > 1e-7 * (1.0 + (abs(b).max() if m else 0.0)):
        return SimplexResult(INFEASIBLE, None, None, None, it1)
    upper[nreal:] = 0.0

    c2 = np.concatenate([np.array(cm.cost), np.zeros(n - rest.size)])
    status, it2 = _run(T, Tb, basis, in_basis, at_upper, upper, open_below, c2,
                       allow, deadline)
    iters = it1 + it2
    if status != OPTIMAL:
        return SimplexResult(status, None, None, None, iters)

    x_full = np.where(at_upper & np.isfinite(upper), upper, 0.0)
    x_full[basis] = _basic_values(T, Tb, at_upper, upper)
    y = c2[basis] @ T[:, nreal:] if m else np.zeros(0)
    duals = {row.name: float(y[i] * flips[i])
             for i, row in enumerate(cm.constraints)}
    names = [v.name for v in cm.variables]
    tableau = None
    if keep_tableau:
        tableau = Tableau(names, rest, T, Tb, basis, in_basis, at_upper, upper,
                          c2, allow, const)
    return _optimum(names, rest, x_full, c2, const, iters, duals, tableau)


def _optimum(names, rest, x_full, cost, const, iters, duals=None, tableau=None):
    """The optimal result at column values `x_full`, measured from `rest`."""
    x = dict(zip(names, (x_full[:rest.size] + rest).tolist()))
    return SimplexResult(OPTIMAL, x, float(cost @ x_full + const), duals, iters,
                         tableau)


def _basic_values(T, Tb, at_upper, upper):
    up_idx = np.flatnonzero(at_upper)
    if up_idx.size:
        return Tb - T[:, up_idx] @ upper[up_idx]
    return Tb.copy()


class Tableau:
    """An optimal tableau that `resolve` reoptimizes under new bounds.

    Its columns keep the measure of the solve that built it, x' = x -
    rest, so model bounds l <= x <= u become l - rest <= x' <= u - rest.
    """

    def __init__(self, names, rest, T, Tb, basis, in_basis, at_upper, upper,
                 cost, allow, const):
        self.names, self.rest = names, rest
        self.T, self.Tb, self.basis = T, Tb, basis
        self.in_basis, self.at_upper = in_basis, at_upper
        self.upper, self.cost, self.allow, self.const = upper, cost, allow, const
        self.r = cost - cost[basis] @ T
        self.ctol = 1e-9 * (1.0 + (np.abs(cost).max() if cost.size else 0.0))

    def resolve(self, lower, upper,
                time_limit: float | None = None) -> SimplexResult | None:
        """Reoptimize under model column bounds `lower`/`upper`.

        Returns None where this tableau cannot answer and a cold solve
        must: a nonbasic column with no finite bound, or whose reduced
        cost points at an infinite one, or a dual loop out of iterations.
        Once `time_limit` (seconds) has run out, the dual loop stops
        before its next pivot with `time_limit`.
        """
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        n = self.rest.size
        lo = np.zeros(self.upper.size)
        up = self.upper.copy()
        lo[:n] = np.asarray(lower, dtype=float) - self.rest
        up[:n] = np.asarray(upper, dtype=float) - self.rest

        # A column fixed (l = u) by an earlier solve could not enter its
        # ratio tests, so its reduced cost may now disagree with the bound
        # it sits at.  Move it to the bound its sign asks for, or the
        # basis is not dual feasible and the dual loop stops too early.
        r, at_upper = self.r, self.at_upper
        movable = self.allow & ~self.in_basis & (up > lo)
        to_upper = movable & (r < -self.ctol)
        to_lower = movable & (r > self.ctol)
        open_below = np.isinf(lo)
        if open_below.any():
            # a column open below can sit only at its upper bound
            if open_below[to_lower].any():
                return None
            to_upper = to_upper | (open_below & ~self.in_basis)
        if np.isinf(up[to_upper]).any():
            return None
        at_upper[to_upper] = True
        at_upper[to_lower] = False
        at_upper &= np.isfinite(up)

        status, iters, x_full = _dual(self.T, self.Tb, self.basis, self.in_basis,
                                      at_upper, lo, up, r, self.cost,
                                      self.allow, deadline)
        if status == ITERATION_LIMIT:
            return None
        if status != OPTIMAL:
            return SimplexResult(status, None, None, None, iters)
        return _optimum(self.names, self.rest, x_full, self.cost, self.const, iters)


def _dual(T, Tb, basis, in_basis, at_upper, lo, up, r, c, allow, deadline):
    """Bounded dual simplex from a dual feasible basis.

    Nonbasic columns sit at `lo`, or at `up` where `at_upper`.  The basic
    variable furthest outside its bounds leaves at the bound it broke;
    the entering column is the one whose reduced cost reaches zero first
    as that row's dual moves (the dual ratio test), ties going to the
    largest pivot.  When no column can move the row back, the bounds are
    infeasible.  `r` holds the reduced costs and is kept current.  The
    deadline is checked before every pivot.  Returns the status, the
    pivot count and, if optimal, every column's value.
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
        if iters >= _DUAL_MAXITER:
            return ITERATION_LIMIT, iters, None
        if deadline is not None and time.perf_counter() >= deadline:
            return TIME_LIMIT, iters, None
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
