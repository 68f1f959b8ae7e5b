"""Two-phase primal simplex with variable bounds, on a dense tableau, and
a bounded dual simplex that reoptimizes an optimal tableau under new bounds.

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

Every optimum of `solve_lp` carries the `Tableau` it was solved on.
Bounds enter a tableau only through the values of its nonbasic columns,
never through its reduced costs, so an optimal basis stays dual
feasible under new bounds: `Tableau.resolve` subtracts the rests from
them and reoptimizes in place with the dual simplex (`_dual`).
A column that earlier bounds fixed (l = u) could not enter, so its
reduced cost may have changed sign; `resolve` first moves each column to
the bound its reduced cost asks for.  Without that step the dual loop
starts from a basis that is not dual feasible, and branch and bound
reported 7 of its 13 benchmark `wc` optima too high.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .programs import (EQ, LE, CompiledModel, ModelError, OptimizationModel,
                       SolveResult, SolveStatus, compile_model)

_STALL_LIMIT = 60
_SPARSE_MIN_CELLS = 20_000
_DUAL_MAXITER = 1000
_MAXITER = 50000


class Tableau:
    """The simplex state of one compiled model, pivoted in place.

    Rows read `T x' = Tb` over x' = x - rest: the model's columns and one
    slack per inequality (`nreal` columns), then one artificial per row.
    Rows with a negative right-hand side are negated (`flips`).  Nonbasic
    columns sit at 0, or at `upper` where `at_upper`; lower bounds are 0,
    or -inf where `open_below` (None if nowhere), so model bounds
    l <= x <= u become l - rest <= x' <= u - rest.
    """

    def __init__(self, cm: CompiledModel):
        inf = math.inf
        rest = [lo if lo > -inf else hi if hi < inf else 0.0
                for lo, hi in zip(cm.lower, cm.upper)]
        m = len(cm.constraints)
        nslack = sum(1 for row in cm.constraints if row.sense != EQ)
        scol = len(rest)
        self.nreal = nreal = scol + nslack
        n = nreal + m
        self.T = T = np.zeros((m, n))
        self.Tb = Tb = np.zeros(m)
        self.flips = np.ones(m)
        for i, row in enumerate(cm.constraints):
            rhs = row.rhs
            for j, coef in cm.terms(i):
                T[i, j] += coef
                rhs -= coef * rest[j]
            if row.sense != EQ:
                T[i, scol] = 1.0 if row.sense == LE else -1.0
                scol += 1
            Tb[i] = rhs
            if Tb[i] < 0:
                T[i, :nreal] *= -1.0
                Tb[i] *= -1.0
                self.flips[i] = -1.0
        T[np.arange(m), np.arange(nreal, n)] = 1.0
        self.const = 0.0
        for c, r in zip(cm.cost, rest):
            self.const += c * r
        self.names = [v.name for v in cm.variables]
        self.rest = np.array(rest)
        self.upper = np.array([hi - r for hi, r in zip(cm.upper, rest)]
                              + [inf] * (nslack + m))
        self.cost = np.concatenate([np.array(cm.cost), np.zeros(n - len(rest))])
        self.basis = np.arange(nreal, n)
        self.in_basis = np.zeros(n, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(n, dtype=bool)
        self.allow = np.zeros(n, dtype=bool)
        self.allow[:nreal] = self.upper[:nreal] > 0
        self.open_below = None
        if -inf in cm.lower:
            self.open_below = np.isinf(np.array(cm.lower + (0.0,) * (n - len(rest))))
            self.allow |= self.open_below
            self.at_upper |= self.open_below & np.isfinite(self.upper)
        self.ctol = 1e-9 * (1.0 + (np.abs(self.cost).max() if n else 0.0))
        self.sparse = T.size >= _SPARSE_MIN_CELLS     # decided once
        self.r = None       # phase-2 reduced costs, from the first `resolve` on

    def _pivot(self, rr, j):
        """Make column j basic in row rr.

        Returns the pivot row's nonzero columns on the sparse path (the only
        columns whose entries or price changed), None on the dense one.
        """
        T, Tb, basis = self.T, self.Tb, self.basis
        lv = basis[rr]
        piv = T[rr, j]
        T[rr] /= piv
        Tb[rr] /= piv
        col = T[:, j].copy()
        col[rr] = 0.0
        nz_cols = None
        if self.sparse:
            # cells outside this block would only lose a signed zero
            nz_rows = np.flatnonzero(col)
            nz_cols = np.flatnonzero(T[rr])
            T[np.ix_(nz_rows, nz_cols)] -= np.outer(col[nz_rows], T[rr, nz_cols])
        else:
            T -= np.outer(col, T[rr])
        Tb -= col * Tb[rr]
        basis[rr] = j
        self.in_basis[j] = True
        self.in_basis[lv] = False
        self.at_upper[j] = False
        return nz_cols

    def _primal(self, c, deadline):
        """Pivot on costs `c` until optimal, unbounded, or out of pivots or time.

        A column open below with an infinite upper bound is free and enters
        either way.  `deadline` is checked before every pivot but the first,
        so each call makes at least one pivot of progress.
        """
        T, basis, in_basis, at_upper = self.T, self.basis, self.in_basis, self.at_upper
        upper, open_below, allow, sparse = (self.upper, self.open_below,
                                            self.allow, self.sparse)
        m, n = T.shape
        ctol = 1e-9 * (1.0 + (np.abs(c).max() if n else 0.0))
        ptol = 1e-9
        free = None if open_below is None else open_below & np.isinf(upper)
        bland = False
        stall = 0
        iters = 0
        if sparse:
            r = c - c[basis] @ T
            sq = (T ** 2).sum(axis=0)
        while iters < _MAXITER:
            iters += 1
            xB = self._basic_values()
            if not sparse:
                r = c - c[basis] @ T if m else c.copy()
            cand = allow & ~in_basis & (
                (~at_upper & (r < -ctol)) | (at_upper & (r > ctol)))
            if free is not None:
                cand |= free & ~in_basis & (r > ctol)
            idx = np.flatnonzero(cand)
            if idx.size == 0:
                return SolveStatus.OPTIMAL, iters
            if iters > 1 and deadline is not None and time.perf_counter() >= deadline:
                return SolveStatus.TIME_LIMIT, iters
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
                return SolveStatus.UNBOUNDED, iters
            rows = np.flatnonzero(ratios <= row_min + 1e-12)
            if bland:
                rr = rows[np.argmin(basis[rows])]
            else:
                rr = rows[np.argmax(np.abs(g[rows]))]
            # read before the pivot: g may view column j, which becomes a unit
            at_upper[basis[rr]] = g[rr] < 0
            nz_cols = self._pivot(rr, j)
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
        return SolveStatus.ITERATION_LIMIT, iters

    def _basic_values(self):
        up_idx = np.flatnonzero(self.at_upper)
        if up_idx.size:
            return self.Tb - self.T[:, up_idx] @ self.upper[up_idx]
        return self.Tb.copy()

    def _optimum(self, x_full, iters, duals=None):
        """The optimal result at column values `x_full`, measured from `rest`."""
        x = dict(zip(self.names, (x_full[:self.rest.size] + self.rest).tolist()))
        return SolveResult(SolveStatus.OPTIMAL, x,
                           float(self.cost @ x_full + self.const), duals=duals,
                           stats={"iterations": iters}, tableau=self)

    def resolve(self, lower, upper,
                time_limit: float | None = None) -> SolveResult | None:
        """Reoptimize under model column bounds `lower`/`upper`.

        Returns None where this tableau cannot answer and a cold solve
        must: a nonbasic column with no finite bound, or whose reduced
        cost points at an infinite one, or a dual loop out of iterations.
        Once `time_limit` (seconds) has run out, the dual loop stops
        before its next pivot with `time_limit`.
        """
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        if self.r is None:
            self.r = self.cost - self.cost[self.basis] @ self.T
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

        status, iters, x_full = self._dual(lo, up, deadline)
        if status is SolveStatus.ITERATION_LIMIT:
            return None
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status, stats={"iterations": iters})
        return self._optimum(x_full, iters)

    def _dual(self, lo, up, deadline):
        """Bounded dual simplex from a dual feasible basis.

        Nonbasic columns sit at `lo`, or at `up` where `at_upper`.  The basic
        variable furthest outside its bounds leaves at the bound it broke;
        the entering column is the one whose reduced cost reaches zero first
        as that row's dual moves (the dual ratio test), ties going to the
        largest pivot.  When no column can move the row back, the bounds are
        infeasible.  The reduced costs `r` are kept current.  The deadline
        is checked before every pivot.  Returns the status, the pivot count
        and, if optimal, every column's value.
        """
        T, Tb, basis, at_upper = self.T, self.Tb, self.basis, self.at_upper
        r, c = self.r, self.cost
        m = T.shape[0]
        movable = self.allow & (up > lo)
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
                return SolveStatus.OPTIMAL, iters, x
            if iters >= _DUAL_MAXITER:
                return SolveStatus.ITERATION_LIMIT, iters, None
            if deadline is not None and time.perf_counter() >= deadline:
                return SolveStatus.TIME_LIMIT, iters, None
            to_lower = below[rr] > 0.0
            # how far row rr moves toward its broken bound per unit step of
            # each column away from its own bound
            step = np.where(at_upper, T[rr], -T[rr])
            if not to_lower:
                step = -step
            idx = np.flatnonzero(movable & ~self.in_basis & (step > 1e-9))
            if idx.size == 0:
                return SolveStatus.INFEASIBLE, iters, None
            d = np.maximum(np.where(at_upper[idx], -r[idx], r[idx]), 0.0)
            ratios = d / step[idx]
            ties = idx[ratios <= ratios.min() + 1e-12]
            q = ties[np.argmax(step[ties])]
            at_upper[basis[rr]] = not to_lower
            nz_cols = self._pivot(rr, q)
            iters += 1
            cols = slice(None) if nz_cols is None else nz_cols
            r[cols] = c[cols] - c[basis] @ T[:, cols]


def solve_lp(model: OptimizationModel | CompiledModel, *,
             time_limit: float | None = None) -> SolveResult:
    """Solve the linear relaxation of `model` (integrality is ignored).

    Models with a nonzero quadratic weight are rejected; zero it first if
    a feasible vertex is all that is needed.  An optimal result carries
    its `Tableau` for `Tableau.resolve`.  Once `time_limit` (seconds) has
    run out, either phase stops before its next pivot with `time_limit`;
    a phase that needs one pivot still takes it, so a small feasibility
    probe finishes under any budget.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    if any(cm.quad):
        raise ModelError("quadratic objective passed to the LP solver")
    tab = Tableau(cm)
    m, nreal = len(tab.Tb), tab.nreal
    # phase 1's residue is judged against the right-hand side before any pivot
    art_tol = 1e-7 * (1.0 + (abs(tab.Tb).max() if m else 0.0))
    status, it1 = tab._primal(np.concatenate([np.zeros(nreal), np.ones(m)]),
                              deadline)
    if status in (SolveStatus.ITERATION_LIMIT, SolveStatus.TIME_LIMIT):
        return SolveResult(status, stats={"iterations": it1})
    xB = tab._basic_values()
    art_sum = float(xB[tab.basis >= nreal].sum()) if m else 0.0
    if art_sum > art_tol:
        return SolveResult(SolveStatus.INFEASIBLE, stats={"iterations": it1})
    tab.upper[nreal:] = 0.0

    status, it2 = tab._primal(tab.cost, deadline)
    iters = it1 + it2
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, stats={"iterations": iters})
    x_full = np.where(tab.at_upper & np.isfinite(tab.upper), tab.upper, 0.0)
    x_full[tab.basis] = tab._basic_values()
    y = tab.cost[tab.basis] @ tab.T[:, nreal:] if m else np.zeros(0)
    duals = {row.name: float(y[i] * tab.flips[i])
             for i, row in enumerate(cm.constraints)}
    return tab._optimum(x_full, iters, duals)
