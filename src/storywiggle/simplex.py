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

Tableaux of at least `_SPARSE_MIN_CELLS` cells pivot sparsely, and
those of at least `_ROWS_MIN_CELLS` update only the rows where the pivot
column is nonzero.  The storyline models are difference constraints, so
pivot columns and rows are sparse: on the 25x30 `lwh` LP (859 rows by
2206 columns) the median pivot column has 29 nonzeros, the median pivot
row 14, and a pivot changes 0.3 % of the tableau on average; a dual
pivot of the seed-7 8x8 `wc` search changes a median 15 of 88 rows.
The rank-1 update touches only the nonzero pivot-column rows, and on
the sparse path only their cells in nonzero pivot-row columns; every
cell outside would have had a zero subtracted, so T keeps exactly the
values the full update gives.  Reduced costs and squared column norms
are kept between pivots on the sparse path and recomputed, with the
same expressions as the dense path, for the pivot row's nonzero columns
only: no other column of T changed, and its price term for the pivot
row is zero before and after.  Pricing, the ratio test and the Bland
fallback therefore see the same numbers and choose the same pivots on
every path.  Small tableaux keep the full update, because the extra
numpy calls cost more than they save there: timed on seed-7 storyline
LPs (one 2-vCPU VM, BLAS on one thread), updating only the nonzero rows
took 1.01-1.09x the full update's time below 3k cells, 0.99x at 6k
and 0.83-0.87x from 9k up; the sparse path took 1.06-1.24x the dense
time below 10k cells, 0.93-0.99x between 17k and 24k, and at most 0.82x
from 46k up.  On the trimmed node tableaux of the `wc` searches (4k-11k
cells) it took 1.03-1.09x the dense time.

Every optimum of `solve_lp` carries the `Tableau` it was solved on.
Bounds enter a tableau only through the values of its nonbasic columns,
never through its reduced costs, so an optimal basis stays dual
feasible under new bounds: `Tableau.resolve` subtracts the rests from
them and reoptimizes in place with the dual simplex (`_dual`).
A column that earlier bounds fixed (l = u) could not enter, so its
reduced cost may have changed sign; `resolve` first moves each column to
the bound its reduced cost asks for.  Without that step the dual loop
starts from a basis that is not dual feasible, and branch and bound
reported 7 of its 13 benchmark `wc` optima too high.  A column that the
cold solve itself fixed stays out of `allow`, which no loop lets enter,
so bounds that give it room go to a cold solve (`resolve` returns None;
branch and bound only tightens bounds and never asks that).

The first `resolve` drops the phase-1 artificial block, which
`solve_lp` has read the duals from (`_drop_artificials`): on the 8x8
`wc` model the node tableau shrinks from 88x215 to 88x127.  Once phase
1 ends, a nonbasic artificial is fixed at 0, so it never enters the
dual ratio test and adds an exact zero to every `Tb - T x`; every node
value stays bit-identical, as checked on all 5045 node LPs of the 13
benchmark `wc` searches at two relabelings.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .programs import (EQ, LE, CompiledModel, ModelError, OptimizationModel,
                       SolveResult, SolveStatus, compile_model)

_STALL_LIMIT = 60
_SPARSE_MIN_CELLS = 20_000
_ROWS_MIN_CELLS = 3_000
_DUAL_MAXITER = 1000
_MAXITER = 50000


class Tableau:
    """The simplex state of one compiled model, pivoted in place.

    Rows read `T x' = Tb` over x' = x - rest: the model's columns and one
    slack per inequality (`nreal` columns), then one artificial per row
    until the first `resolve` drops them (`_drop_artificials`).  Rows
    with a negative right-hand side are negated (`flips`).  Nonbasic
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
        self.r = None       # reduced costs, kept from the first `resolve` on

    def _pivot(self, rr, j):
        """Make column j basic in row rr.

        From `_ROWS_MIN_CELLS` cells up, only the rows with a nonzero in
        column j are updated (see the module docstring).  Returns the pivot
        row's nonzero columns on the sparse path (the only columns whose
        entries or price changed), None on the dense one.
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
            nz_rows = col.nonzero()[0]
            nz_cols = T[rr].nonzero()[0]
            T[np.ix_(nz_rows, nz_cols)] -= np.outer(col[nz_rows], T[rr, nz_cols])
        elif T.size >= _ROWS_MIN_CELLS:
            nz_rows = col.nonzero()[0]
            T[nz_rows] -= np.outer(col[nz_rows], T[rr])
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
        so each call makes at least one pivot of progress.  Returns the
        status, the passes (pricing rounds, the last one included), the
        basis changes and the bound flips.
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
        iters = pivots = flips = 0
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
            idx = cand.nonzero()[0]
            if idx.size == 0:
                return SolveStatus.OPTIMAL, iters, pivots, flips
            if iters > 1 and deadline is not None and time.perf_counter() >= deadline:
                return SolveStatus.TIME_LIMIT, iters, pivots, flips
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
                flips += 1
                stall = 0 if t_own > 1e-12 else stall + 1
                if stall >= _STALL_LIMIT:
                    bland = True
                continue
            if not math.isfinite(row_min):
                return SolveStatus.UNBOUNDED, iters, pivots, flips
            rows = (ratios <= row_min + 1e-12).nonzero()[0]
            if bland:
                rr = rows[np.argmin(basis[rows])]
            else:
                rr = rows[np.argmax(np.abs(g[rows]))]
            # read before the pivot: g may view column j, which becomes a unit
            at_upper[basis[rr]] = g[rr] < 0
            nz_cols = self._pivot(rr, j)
            pivots += 1
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
        return SolveStatus.ITERATION_LIMIT, iters, pivots, flips

    def _basic_values(self):
        up_idx = self.at_upper.nonzero()[0]
        if up_idx.size:
            return self.Tb - self.T[:, up_idx] @ self.upper[up_idx]
        return self.Tb.copy()

    def _optimum(self, x_full, stats, duals=None):
        """The optimal result at column values `x_full`, measured from `rest`.

        A cold solve (`duals` given) also names the values in `x`;
        `resolve` leaves that to its caller, which needs few of them.
        """
        values = x_full[:self.rest.size] + self.rest
        x = None if duals is None else dict(zip(self.names, values.tolist()))
        return SolveResult(SolveStatus.OPTIMAL, x,
                           float(self.cost @ x_full + self.const), duals=duals,
                           stats=stats, tableau=self, values=values)

    def _drop_artificials(self):
        """Shrink the tableau to its `nreal` columns before the first `resolve`.

        A nonbasic artificial is fixed at 0 once phase 1 ends: it never
        enters `_dual` and adds an exact zero to `Tb - T x`, so dropping it
        changes no value.  An artificial still basic (at level 0) first
        leaves by a dual ratio test in either direction, which keeps the
        basis dual feasible.  Where no column can replace it, its row
        restates fixed columns only, and the row goes too.
        """
        nreal = self.nreal
        self.r = self.cost - self.cost[self.basis] @ self.T
        keep = np.ones(self.T.shape[0], dtype=bool)
        for rr in np.flatnonzero(self.basis >= nreal):
            if not (self._dual_pivot(rr, True, self.allow)
                    or self._dual_pivot(rr, False, self.allow)):
                keep[rr] = False
        self.T = self.T[keep, :nreal]
        self.Tb, self.flips, self.basis = (
            self.Tb[keep], self.flips[keep], self.basis[keep])
        self.r, self.cost, self.upper = (
            self.r[:nreal], self.cost[:nreal], self.upper[:nreal])
        self.in_basis, self.at_upper, self.allow = (
            self.in_basis[:nreal], self.at_upper[:nreal], self.allow[:nreal])
        if self.open_below is not None:
            self.open_below = self.open_below[:nreal]
        self.sparse = self.T.size >= _SPARSE_MIN_CELLS
        # the columns fixed in the first solve, which never entered its
        # ratio tests and which `_dual` keeps out of them too
        self.fixed = np.flatnonzero(~self.allow)

    def resolve(self, lower, upper,
                time_limit: float | None = None) -> SolveResult | None:
        """Reoptimize under model column bounds `lower`/`upper`.

        An optimum carries the column `values` and no `x` dict.  Returns
        None where this tableau cannot answer and a cold solve must: a
        column that the first solve fixed (l = u) given room, a nonbasic
        column with no finite bound, or whose reduced cost points at an
        infinite one, or a dual loop out of iterations.  Once
        `time_limit` (seconds) has run out, the dual loop stops before its
        next pivot with `time_limit`.
        """
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        if self.r is None:
            self._drop_artificials()
        n = self.rest.size
        lo = np.zeros(self.upper.size)
        up = self.upper.copy()
        lo[:n] = np.asarray(lower, dtype=float) - self.rest
        up[:n] = np.asarray(upper, dtype=float) - self.rest
        fixed = self.fixed
        if fixed.size and (up[fixed] > lo[fixed]).any():
            return None

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
        return self._optimum(x_full, {"iterations": iters})

    def _dual(self, lo, up, deadline):
        """Bounded dual simplex from a dual feasible basis.

        Nonbasic columns sit at `lo`, or at `up` where `at_upper`.  The basic
        variable furthest outside its bounds leaves at the bound it broke
        (`_dual_pivot`).  When no column can move the row back, the bounds
        are infeasible.  The deadline is checked before every pivot.
        Returns the status, the pivot count and, if optimal, every column's
        value.
        """
        T, Tb, basis, at_upper = self.T, self.Tb, self.basis, self.at_upper
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
            if not self._dual_pivot(rr, below[rr] > 0.0, movable):
                return SolveStatus.INFEASIBLE, iters, None
            iters += 1

    def _dual_pivot(self, rr, to_lower, movable):
        """Pivot row rr's basic column out at its lower bound, else its upper.

        The entering column is the `movable` one whose reduced cost reaches
        zero first as that row's dual moves (the dual ratio test), ties
        going to the largest pivot; the reduced costs `r` are kept current.
        Returns False, pivoting nothing, when no column can move the row
        toward that bound.
        """
        T, r, at_upper = self.T, self.r, self.at_upper
        # how far row rr moves toward the bound per unit step of each
        # column away from its own bound
        step = np.where(at_upper, T[rr], -T[rr])
        if not to_lower:
            step = -step
        idx = (movable & ~self.in_basis & (step > 1e-9)).nonzero()[0]
        if idx.size == 0:
            return False
        d = np.maximum(np.where(at_upper[idx], -r[idx], r[idx]), 0.0)
        ratios = d / step[idx]
        ties = idx[ratios <= ratios.min() + 1e-12]
        q = ties[np.argmax(step[ties])]
        at_upper[self.basis[rr]] = not to_lower
        nz_cols = self._pivot(rr, q)
        cols = slice(None) if nz_cols is None else nz_cols
        r[cols] = self.cost[cols] - self.cost[self.basis] @ T[:, cols]
        return True


def solve_lp(model: OptimizationModel | CompiledModel, *,
             time_limit: float | None = None) -> SolveResult:
    """Solve the linear relaxation of `model` (integrality is ignored).

    Models with a nonzero quadratic weight are rejected; zero it first if
    a feasible vertex is all that is needed.  An optimal result carries
    its `Tableau` for `Tableau.resolve`.  Once `time_limit` (seconds) has
    run out, either phase stops before its next pivot with `time_limit`;
    a phase that needs one pivot still takes it, so a small feasibility
    probe finishes under any budget.  `stats` counts the basis changes of
    each phase (`phase1_pivots`, `phase2_pivots`), the `bound_flips` of
    both, and the passes of both (`iterations`): every pivot or flip, and
    each phase's last pricing round.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    if any(cm.quad):
        raise ModelError("quadratic objective passed to the LP solver")
    tab = Tableau(cm)
    m, nreal = len(tab.Tb), tab.nreal
    # phase 1's residue is judged against the right-hand side before any pivot
    art_tol = 1e-7 * (1.0 + (abs(tab.Tb).max() if m else 0.0))
    status, it1, pv1, fl1 = tab._primal(
        np.concatenate([np.zeros(nreal), np.ones(m)]), deadline)
    stats = {"iterations": it1, "phase1_pivots": pv1, "phase2_pivots": 0,
             "bound_flips": fl1}
    if status in (SolveStatus.ITERATION_LIMIT, SolveStatus.TIME_LIMIT):
        return SolveResult(status, stats=stats)
    xB = tab._basic_values()
    art_sum = float(xB[tab.basis >= nreal].sum()) if m else 0.0
    if art_sum > art_tol:
        return SolveResult(SolveStatus.INFEASIBLE, stats=stats)
    tab.upper[nreal:] = 0.0

    status, it2, pv2, fl2 = tab._primal(tab.cost, deadline)
    stats.update(iterations=it1 + it2, phase2_pivots=pv2, bound_flips=fl1 + fl2)
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, stats=stats)
    x_full = np.where(tab.at_upper & np.isfinite(tab.upper), tab.upper, 0.0)
    x_full[tab.basis] = tab._basic_values()
    y = tab.cost[tab.basis] @ tab.T[:, nreal:] if m else np.zeros(0)
    duals = {row.name: float(y[i] * tab.flips[i])
             for i, row in enumerate(cm.constraints)}
    return tab._optimum(x_full, stats, duals)
