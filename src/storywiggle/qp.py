"""Primal active-set method for convex quadratic programs.

Handles `min c'x + sum_i q_i x_i^2` with q >= 0 over linear rows and
variable bounds of a compiled model.  Inequalities (rows and bounds
alike) are normalized to `a'x >= b`; the working set holds the equality
rows, which never leave it, plus whichever inequalities are currently
pinned.  Each iteration takes one step rule (Nocedal and Wright,
Numerical Optimization, ch. 16.2-16.5): on the curved directions of the
working set's null space the Newton step, capped at alpha = 1; when the
reduced gradient has a component on the flat ones the objective falls
without bound along that ray, which is walked uncapped to the first
blocking constraint.  A zero step means the working set's minimizer is
reached, and the multipliers decide which pinned row to release, with a
lowest-index rule after a stretch of degenerate steps.  The loop is
shared; the linear algebra of a step comes from one of two working sets,
chosen by the model's structure alone.

Difference form (`_Blocks`).  Every row is a difference
`y_p - y_q (<=, >=, =) r` or a link `y_p - y_q + s d = r`, s = +-1, whose
column d is free, curved (q_d > 0) and in no other row: the `qwh`
models.  The equalities and fixed columns are contracted into blocks as
`network.solve_network` contracts them, so the iterate is one level per
block, each link fixes its d, and every inequality is an arc between two
blocks (a bound is an arc to ground).  Pinning arcs merges blocks into
super-blocks, the connected components of the pinned arcs, found
afresh each iteration; the free super-blocks are the null-space basis.
The reduced Hessian is the weighted Laplacian of the links between
super-blocks, grounded where a component reaches the ground's
super-block (or a curved y column), so the Newton step is a Laplacian
solve, and a component with no ground is flat: a nonzero gradient sum
on it is the ray.  On a zero step the multipliers are the flows on a
spanning forest of the pinned arcs that carry each block's gradient to
its tree's root; arcs that close a cycle get 0.  This is the
optimal-tension view of the QP (Rockafellar, Network Flows and
Monotropic Optimization, 1984), and the merging of blocks is that of
pool-adjacent-violators (Best and Chakravarti 1990, Math.
Programming).  No matrix as wide as the model is formed, and no SVD.  A
start that is not feasible comes from the network simplex on the
difference rows at zero cost.

Any other QP (`_Dense`).  One SVD of the equality rows E gives an
orthonormal basis Ze of their null space; every iterate is x = x0 + Ze w
for the feasible start x0, so the loop sees the inequality rows as G Ze.
Each iteration takes one SVD of the pinned rows of G Ze for their rank, a
basis Y of their null space and, on a zero step, the least-squares
multipliers, and one `eigh` of Y'(Ze'QZe)Y to split curved from flat
directions.  The start comes from a simplex probe LP.

Both working sets end with multipliers for every row: the equality rows
take what the pinned inequalities leave of the gradient (by tree flows,
or by the stored SVD of E), and the KKT residuals are computed from the
compiled rows.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from .network import (DifferenceForm, as_difference, contract_equalities,
                      solve_network, tolerance)
from .programs import (EQ, LE, CompiledModel, ModelError,
                       OptimizationModel, SolveResult, SolveStatus,
                       compile_model, model_violations)
from .simplex import solve_lp

_ACTIVE_TOL = 1e-8
_MULT_TOL = 1e-8
_STALL_LIMIT = 40
_MAXITER = 5000
_MIN_WIDTH = 32


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values."""
    return int((s > 1e-10 * s.max(initial=1.0)).sum())


def _ge_rows(cm: CompiledModel) -> list[int]:
    """The `>=` rows in working-set order, as indices into the duals.

    Duals are indexed by model row i, then `m + j` for column j's lower
    bound and `m + n + j` for its upper bound.  The working set lists the
    inequality rows in model order, then each column's finite bounds.
    """
    m, n = len(cm.constraints), len(cm.variables)
    rows = [i for i, row in enumerate(cm.constraints) if row.sense != EQ]
    for j in range(n):
        if cm.lower[j] > -math.inf:
            rows.append(m + j)
        if cm.upper[j] < math.inf:
            rows.append(m + n + j)
    return rows


def _difference_qp(cm: CompiledModel):
    """`(diffs, links)` of a difference-form QP, or None for another form.

    `diffs` holds `(i, p, q)` for row i reading `y_p - y_q`, and `links`
    `(i, d, p, q, s)` for row i reading `y_p - y_q + s d = rhs`.
    """
    uses = Counter(cm.cols)
    diffs, links = [], []
    for i, row in enumerate(cm.constraints):
        pq = as_difference(cm, i)
        if pq is not None:
            diffs.append((i, *pq))
            continue
        s, e = cm.starts[i], cm.starts[i + 1]
        if e - s != 3 or row.sense != EQ:
            return None
        terms = list(zip(cm.cols[s:e], cm.coefs[s:e]))
        for k, (d, s_d) in enumerate(terms):
            (a, ca), (b, cb) = terms[:k] + terms[k + 1:]
            if (abs(s_d) == 1.0 and uses[d] == 1 and cm.quad[d] > 0.0
                    and cm.lower[d] == -math.inf and cm.upper[d] == math.inf
                    and a != b and ca == -cb and abs(ca) == 1.0):
                links.append((i, d, *((a, b) if ca == 1.0 else (b, a)), s_d))
                break
        else:
            return None
    return diffs, links


def _feasible_start(cm: CompiledModel, warm: dict[str, float] | None,
                    time_limit: float | None, diffs) -> dict[str, float] | SolveStatus:
    """A feasible point, or the status of the probe that found none.

    The probe minimizes zero over the rows: on the network simplex over
    the difference rows `diffs` of a difference-form QP, its links left
    out, else (`diffs` None) on the simplex.
    """
    if warm is not None and not model_violations(cm, warm, tol=1e-9):
        return dict(warm)
    zero = (0.0,) * len(cm.variables)
    probe = replace(cm, cost=zero, quad=zero)
    if diffs is None:
        res = solve_lp(probe, time_limit=time_limit)
    else:
        rows = tuple((p, q, cm.constraints[i].sense, cm.constraints[i].rhs)
                     for i, p, q in diffs)
        res = solve_network(probe, DifferenceForm(rows, ()), time_limit=time_limit)
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
    holds `null_dim`, the dimension of the equality rows' null space (the
    number of blocks off ground, in difference form).  A stop at
    `_MAXITER` iterations or at `time_limit` (seconds) returns the current
    feasible iterate with the latest multipliers.  The feasibility probe
    gets what is left of the limit, and the first deadline check comes
    once the working set is built.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit

    def left():
        return None if deadline is None else max(deadline - time.perf_counter(), 0.0)

    cm = compile_model(model)
    ge = _ge_rows(cm)
    form = _difference_qp(cm)
    if form is None:
        start = _feasible_start(cm, warm, left(), None)
        if isinstance(start, SolveStatus):
            return SolveResult(start)
        ws = _Dense(cm, ge, start)
    else:
        ws = _Blocks.contract(cm, ge, *form)
        if ws is None:
            return SolveResult(SolveStatus.INFEASIBLE)
        start = _feasible_start(cm, warm, left(), form[0])
        if isinstance(start, SolveStatus):
            return SolveResult(start)
        ws.place(start)

    active = np.flatnonzero(ws.slack() <= _ACTIVE_TOL).tolist()
    lam_g = np.zeros(len(ge))
    stall = 0
    bland = False
    status = SolveStatus.ITERATION_LIMIT
    iters = newton = rays = zeros = 0

    def steps():
        return {"iterations": iters, "newton_steps": newton, "ray_steps": rays,
                "zero_steps": zeros, "null_dim": ws.null_dim}

    while iters < _MAXITER:
        if deadline is not None and time.perf_counter() >= deadline:
            status = SolveStatus.TIME_LIMIT
            break
        iters += 1
        p, ray = ws.step(active)
        if np.abs(p).max(initial=0.0) <= 1e-9:
            zeros += 1
            lam_g = ws.multipliers(active)
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
        if ray:
            rays += 1
            alpha = math.inf
        else:
            newton += 1
            alpha = 1.0
        # the first row, in working-set order, to block the step by more
        # than 1e-12 before the step found so far
        gp = ws.along(p)
        cand = np.flatnonzero(gp < -1e-12)
        pinned = np.zeros(len(ge), dtype=bool)
        pinned[active] = True
        cand = cand[~pinned[cand]]
        ratio = np.maximum(ws.slack()[cand], 0.0) / -gp[cand]
        block = -1
        k = 0
        while True:
            hit = np.flatnonzero(ratio[k:] < alpha - 1e-12)
            if not hit.size:
                break
            k += int(hit[0])
            alpha, block = float(ratio[k]), int(cand[k])
            k += 1
        if math.isinf(alpha):
            return SolveResult(SolveStatus.UNBOUNDED, stats=steps())
        ws.move(alpha, p)
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

    x, lam = ws.finish(lam_g)
    names = [v.name for v in cm.variables]
    m, n = len(cm.constraints), len(names)
    duals = {row.name: float(lam[i]) for i, row in enumerate(cm.constraints)}
    duals.update({f"_lb_{names[j]}": float(lam[m + j])
                  for j in range(n) if cm.lower[j] > -math.inf})
    duals.update({f"_ub_{names[j]}": float(lam[m + n + j])
                  for j in range(n) if cm.upper[j] < math.inf})
    q = 2.0 * np.array(cm.quad, dtype=float)
    obj = float(np.dot(cm.cost, x) + (q * x) @ x / 2.0)
    return SolveResult(status, dict(zip(names, map(float, x))), obj,
                       duals=duals, kkt=kkt_residuals(cm, x, lam), stats=steps())


class _Dense:
    """The working set of any QP, by SVDs of dense rows (module docstring)."""

    def __init__(self, cm: CompiledModel, ge: list[int],
                 start: dict[str, float]) -> None:
        m, n = len(cm.constraints), len(cm.variables)
        self.q = 2.0 * np.array(cm.quad, dtype=float)
        self.c = np.array(cm.cost, dtype=float)
        self.eq = [i for i, row in enumerate(cm.constraints) if row.sense == EQ]
        self.ge = ge
        rows = np.zeros((m, n))
        for i in range(m):
            for j, coef in cm.terms(i):
                rows[i, j] += coef
        self.E = rows[self.eq]
        self.G = np.zeros((len(ge), n))
        self.gb = np.zeros(len(ge))
        for r, a in enumerate(ge):
            if a < m:
                sign = -1.0 if cm.constraints[a].sense == LE else 1.0
                self.G[r], self.gb[r] = sign * rows[a], sign * cm.constraints[a].rhs
            elif a < m + n:
                self.G[r, a - m], self.gb[r] = 1.0, cm.lower[a - m]
            else:
                self.G[r, a - m - n], self.gb[r] = -1.0, -cm.upper[a - m - n]
        self.n_duals = m + 2 * n
        self.x0 = np.array([start[v.name] for v in cm.variables])

        # x = x0 + Ze w keeps every equality row satisfied, so the iteration
        # runs on w alone and sees the inequality rows as G Ze
        self.ue, self.se, self.vte = np.linalg.svd(self.E)
        self.rank_e = _rank(self.se)
        self.Ze = self.vte[self.rank_e:].T
        self.null_dim = self.Ze.shape[1]
        self.GZ = self.G @ self.Ze
        self.H = self.Ze.T @ (self.q[:, None] * self.Ze)
        self.g0 = self.Ze.T @ (self.q * self.x0 + self.c)
        self.r0 = self.G @ self.x0 - self.gb
        self.w = np.zeros(self.null_dim)

    def slack(self) -> np.ndarray:
        return self.r0 + self.GZ @ self.w

    def along(self, p: np.ndarray) -> np.ndarray:
        return self.GZ @ p

    def move(self, alpha: float, p: np.ndarray) -> None:
        self.w = self.w + alpha * p

    def step(self, active: list[int]) -> tuple[np.ndarray, bool]:
        """The step on w, and whether it is a ray."""
        g = self.g0 + self.H @ self.w
        u, s, vt = np.linalg.svd(self.GZ[active])
        rank = _rank(s)
        self._lsq = u, s, vt, rank, g
        Y = vt[rank:].T
        vals, vecs = np.linalg.eigh(Y.T @ self.H @ Y)
        flat = vals <= 1e-9 * vals.max(initial=1.0)
        gy = vecs.T @ (Y.T @ g)
        ray = Y @ (vecs[:, flat] @ gy[flat])
        if np.abs(ray).max(initial=0.0) > 1e-7 * (1.0 + np.abs(g).max(initial=0.0)):
            return -ray / np.abs(ray).max(), True
        return -(Y @ (vecs[:, ~flat] @ (gy[~flat] / vals[~flat]))), False

    def multipliers(self, active: list[int]) -> np.ndarray:
        """Least-squares multipliers of the pinned rows, from the last step."""
        u, s, vt, rank, g = self._lsq
        lam = np.zeros(len(self.ge))
        lam[active] = u[:, :rank] @ ((vt[:rank] @ g) / s[:rank])
        return lam

    def finish(self, lam_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.x0 + self.Ze @ self.w
        # the equality rows take what the pinned inequalities leave of g
        rest = self.q * x + self.c - self.G.T @ lam_g
        r = self.rank_e
        lam = np.zeros(self.n_duals)
        lam[self.ge] = lam_g
        lam[self.eq] = self.ue[:, :r] @ ((self.vte[:r] @ rest) / self.se[:r])
        return x, lam


class _Blocks:
    """The working set of a difference-form QP, on block levels (module docstring).

    Nodes are the non-link columns plus ground (node 0); the contraction
    puts each node at its block's level plus an offset, with ground's
    block 0 at level 0.  Inequality `a` of the working set reads
    `Y[head[a]] - Y[tail[a]] >= delta[a]` on the block levels Y, and the
    Hessian is the Laplacian of the edges `(ea, eb, ew)`: links and the
    curved y columns (an edge to ground).
    """

    @classmethod
    def contract(cls, cm: CompiledModel, ge: list[int], diffs, links) -> _Blocks | None:
        """The working set, or None when the equalities contradict."""
        linked = {d for _, d, *_ in links}
        node = {j: k + 1 for k, j in enumerate(
            j for j in range(len(cm.variables)) if j not in linked)}
        eqs = [(p, q, cm.constraints[i].rhs) for i, p, q in diffs
               if cm.constraints[i].sense == EQ]
        found = contract_equalities(
            cm, node, eqs, tolerance(cm, (cm.constraints[i].rhs for i, *_ in diffs)))
        if found is None:
            return None
        return cls(cm, ge, diffs, links, node, *found)

    def __init__(self, cm, ge, diffs, links, node, block, off, n_blocks) -> None:
        self.m, self.n = m, n = len(cm.constraints), len(cm.variables)
        self.ge = ge
        self.null_dim = n_blocks - 1
        self.nb = n_blocks
        self.n_nodes = len(node) + 1
        self.names = [v.name for v in cm.variables]
        self.q = 2.0 * np.array(cm.quad, dtype=float)
        self.c = np.array(cm.cost, dtype=float)
        block, off = np.array(block), np.array(off)
        col_node = np.zeros(n, dtype=int)            # 0 on the link columns
        col_node[list(node)] = list(node.values())
        self.ycol = np.array(list(node), dtype=int)
        self.ynode = col_node[self.ycol]
        self.yblock = block[self.ynode]
        self.yoff = off[self.ynode]
        self.ny = np.bincount(self.yblock, minlength=n_blocks).astype(float)

        # link k: d = s (r - y_p + y_q)
        L = np.array([(i, d, p, q) for i, d, p, q, _ in links], dtype=int).reshape(-1, 4)
        self.lrow, self.lcol, self.lp, self.lq = L.T
        self.ls = np.array([s for *_, s in links], dtype=float)
        self.lr = np.array([cm.constraints[i].rhs for i in self.lrow], dtype=float)
        self.lpnode, self.lqnode = col_node[self.lp], col_node[self.lq]
        self.lP, self.lQ = block[self.lpnode], block[self.lqnode]
        # the gradient on the blocks gathers each y column's, and each d's
        # through its link
        self.gblock = np.concatenate([self.yblock, self.lP, self.lQ])
        self.gcol = np.concatenate([self.ycol, self.lcol, self.lcol])
        self.gcoef = np.concatenate([np.ones(len(self.ycol)), -self.ls, self.ls])

        # every difference row and bound in `>=` form, level(head) -
        # level(tail) >= rhs, indexed as the duals; the working set's are
        # arcs between blocks
        D = np.array(diffs, dtype=int).reshape(-1, 3)
        sense = [cm.constraints[i].sense for i in D[:, 0]]
        le = np.array([s == LE for s in sense], dtype=bool)
        r = np.array([cm.constraints[i].rhs for i in D[:, 0]], dtype=float)
        p, q = col_node[D[:, 1]], col_node[D[:, 2]]
        head, tail = np.zeros((2, m + 2 * n), dtype=int)
        rhs = np.zeros(m + 2 * n)
        head[D[:, 0]], tail[D[:, 0]] = np.where(le, q, p), np.where(le, p, q)
        rhs[D[:, 0]] = np.where(le, -r, r)
        head[m:m + n], rhs[m:m + n] = col_node, cm.lower
        tail[m + n:], rhs[m + n:] = col_node, [-u for u in cm.upper]
        self.hnode, self.tnode = head[ge], tail[ge]
        self.tail, self.head = block[self.tnode], block[self.hnode]
        self.delta = rhs[ge] + off[self.tnode] - off[self.hnode]

        # Hessian edges between blocks: links, and curved y columns to ground
        curved = self.q[self.ycol] > 0.0
        ea = np.concatenate([self.lP, self.yblock[curved]])
        eb = np.concatenate([self.lQ, np.zeros(int(curved.sum()), dtype=int)])
        ew = np.concatenate([self.q[self.lcol], self.q[self.ycol][curved]])
        keep = ea != eb
        self.ea, self.eb, self.ew = ea[keep], eb[keep], ew[keep]
        self.linked = _components(n_blocks, self.ea, self.eb)

        # the equality rows' arcs, for their multipliers: fixed columns to
        # ground first, as `contract_equalities` joins them, then the rows
        self.fixed = np.array([j for j in node if cm.lower[j] == cm.upper[j]], dtype=int)
        eq = D[[s == EQ for s in sense]]
        self.eqrow = eq[:, 0]
        self.eqhead = col_node[np.concatenate([self.fixed, eq[:, 1]])].tolist()
        self.eqtail = np.concatenate([np.zeros(len(self.fixed), dtype=int),
                                      col_node[eq[:, 2]]]).tolist()
        self.Y = np.zeros(n_blocks)
        self._key = None

    def place(self, start: dict[str, float]) -> None:
        """Take the block levels from a feasible point."""
        y = np.array([start[self.names[j]] for j in self.ycol])
        self.Y[self.yblock] = y - self.yoff
        self.Y[0] = 0.0

    def x(self) -> np.ndarray:
        x = np.empty(len(self.q))
        x[self.ycol] = self.Y[self.yblock] + self.yoff
        x[self.lcol] = self.ls * (self.lr - x[self.lp] + x[self.lq])
        return x

    def gradient(self) -> np.ndarray:
        """The objective's gradient on the block levels, ground's included."""
        gx = self.q * self.x() + self.c
        return np.bincount(self.gblock, self.gcoef * gx[self.gcol], self.nb)

    def slack(self) -> np.ndarray:
        return self.Y[self.head] - self.Y[self.tail] - self.delta

    def along(self, p: np.ndarray) -> np.ndarray:
        return p[self.head] - p[self.tail]

    def move(self, alpha: float, p: np.ndarray) -> None:
        self.Y += alpha * p
        self.Y[0] = 0.0

    def _split(self, active: list[int]):
        """The free super-blocks of a working set and its Laplacian.

        Returns each block's free super-block (-1 for ground's), the
        number of y columns per free super-block, the flat directions or
        None, and the Laplacian as a band.  The flat directions are the
        loose super-blocks (in a component with no ground), each one's
        component, the super-block held still in each component, and
        each component's y count.  The last working set's answer is kept,
        since a full Newton step leaves the working set as it was.
        """
        key = tuple(active)
        if key == self._key:
            return self._last
        T, H = self.tail[active], self.head[active]
        sb = _components(self.nb, T, H)
        is_root = sb == np.arange(self.nb)
        k = int(is_root.sum()) - 1
        at = (np.cumsum(is_root) - 2)[sb]
        free = at >= 0
        ny = np.bincount(at[free], self.ny[free], k)
        a, b = at[self.ea], at[self.eb]
        keep = a != b
        a, b, w = a[keep], b[keep], self.ew[keep]
        grounded = (a < 0) | (b < 0)
        diag = np.bincount(np.maximum(a, b)[grounded], w[grounded], k).astype(float)
        a, b, w = a[~grounded], b[~grounded], w[~grounded]

        # the pinned arcs join the links' components; those left apart
        # from ground's are flat, one direction each
        comp = _components(self.nb, self.linked[T], self.linked[H])
        comp = comp[self.linked[np.flatnonzero(is_root)[1:]]]
        loose = comp != 0
        flat = None
        if loose.any():
            _, first, which = np.unique(comp[loose], return_index=True,
                                        return_inverse=True)
            held = np.flatnonzero(loose)[first]
            pinned = np.zeros(k, dtype=bool)
            pinned[held] = True
            to_held = pinned[a] | pinned[b]
            diag += np.bincount(np.where(pinned[a], b, a)[to_held], w[to_held], k)
            a, b, w = a[~to_held], b[~to_held], w[~to_held]
            diag[held] = 1.0
            flat = loose, which, held, np.bincount(which, ny[loose])
        self._key = key
        self._last = at, free, ny, flat, _band(a, b, w, diag)
        return self._last

    def step(self, active: list[int]) -> tuple[np.ndarray, bool]:
        """The step on the block levels, and whether it is a ray."""
        at, free, ny, flat, band = self._split(active)
        self._grad = self.gradient()
        g = np.bincount(at[free], self._grad[free], len(ny))
        if flat is None:
            z = _band_solve(band, -g)
        else:
            loose, which, held, n_loose = flat
            ray = np.zeros(len(g))
            ray[loose] = (np.bincount(which, g[loose]) / n_loose)[which]
            if np.abs(ray).max() > 1e-7 * (1.0 + np.abs(g).max()):
                return self._lift(-ray / np.abs(ray).max(), at, free), True
            rhs = -g
            rhs[held] = 0.0
            z = _band_solve(band, rhs)
            # the Newton step, found with one super-block of each loose
            # component held still, moves by the mean that makes it
            # orthogonal to the flat direction, as the dense path's is
            z[loose] -= (np.bincount(which, ny[loose] * z[loose]) / n_loose)[which]
        return self._lift(z, at, free), False

    def _lift(self, z: np.ndarray, at: np.ndarray, free: np.ndarray) -> np.ndarray:
        p = np.zeros(self.nb)
        p[free] = z[at[free]]
        return p

    def multipliers(self, active: list[int]) -> np.ndarray:
        """Flows on a spanning forest of the pinned arcs (module docstring)."""
        lam = np.zeros(len(self.ge))
        lam[active] = _forest_flows(self.nb, self.tail[active].tolist(),
                                    self.head[active].tolist(), self._grad)
        return lam

    def finish(self, lam_g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.x()
        gx = self.q * x + self.c
        m, n, nn = self.m, self.n, self.n_nodes
        lam = np.zeros(m + 2 * n)
        lam[self.ge] = lam_g
        # a link's multiplier balances its d alone; what the links and the
        # inequalities leave at each node, the equality rows carry
        lam_link = self.ls * gx[self.lcol]
        lam[self.lrow] = lam_link
        left = (np.bincount(self.ynode, gx[self.ycol], nn)
                - np.bincount(self.lpnode, lam_link, nn)
                + np.bincount(self.lqnode, lam_link, nn)
                - np.bincount(self.hnode, lam_g, nn)
                + np.bincount(self.tnode, lam_g, nn))
        flows = _forest_flows(nn, self.eqtail, self.eqhead, left)
        nf = len(self.fixed)
        lam[self.eqrow] = flows[nf:]
        mu = np.array(flows[:nf])
        lam[m + self.fixed] += np.maximum(mu, 0.0)
        lam[m + n + self.fixed] += np.maximum(-mu, 0.0)
        return x, lam


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of n nodes' least node joined to it by the edges (a, b).

    A union-find that keeps the lesser root, then pointer jumping.
    """
    up = list(range(n))
    for x, y in zip(a.tolist(), b.tolist()):
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        while up[y] != y:
            up[y] = up[up[y]]
            y = up[y]
        if x < y:
            up[y] = x
        elif y < x:
            up[x] = y
    label = np.array(up)
    while True:
        jump = label[label]
        if (jump == label).all():
            return label
        label = jump


def _band(a, b, w, diag):
    """`sum_e w_e (u_a - u_b)(u_a - u_b)' + diag(diag)` as a block band.

    The matrix is cut into blocks as wide as its band, so it is block
    tridiagonal: row i of block c = i // width keeps its columns from
    c * width on, its diagonal block then the one that couples it to
    block c + 1.  The width is set by how far apart the edges' ends are
    numbered.
    """
    k = len(diag)
    if not k:
        return None
    width = max(int(np.abs(a - b).max(initial=0)), _MIN_WIDTH)
    nc = -(-k // width)
    i = np.arange(k)
    row = np.concatenate([i, a, b, a, b])
    col = np.concatenate([i, a, b, b, a])
    at = col - row // width * width
    keep = at >= 0
    band = np.bincount(row[keep] * 2 * width + at[keep],
                       np.concatenate([diag, w, w, -w, -w])[keep],
                       nc * width * 2 * width).reshape(nc, width, 2 * width)
    pad = np.arange(k - (nc - 1) * width, width)
    band[-1, pad, pad] = 1.0
    return band


def _band_solve(band, rhs: np.ndarray) -> np.ndarray:
    """Solve the system of `_band` by block elimination, a dense solve a block."""
    k = len(rhs)
    if not k:
        return np.zeros(0)
    nc, width, _ = band.shape
    if nc == 1:
        return np.linalg.solve(band[0, :k, :k], rhs)
    R = np.zeros(nc * width)
    R[:k] = rhs
    R = R.reshape(nc, width)
    solved = []
    S, y = band[0, :, :width], R[0]
    for c in range(nc - 1):
        O = band[c, :, width:]
        X = np.linalg.solve(S, np.column_stack([O, y]))
        solved.append(X)
        S = band[c + 1, :, :width] - O.T @ X[:, :-1]
        y = R[c + 1] - O.T @ X[:, -1]
    z = [np.linalg.solve(S, y)]
    for X in reversed(solved):
        z.append(X[:, -1] - X[:, :-1] @ z[-1])
    return np.concatenate(z[::-1])[:k]


def _forest_flows(n: int, tails: list[int], heads: list[int], supply) -> list[float]:
    """Flows on the arcs tail -> head that deliver `supply` to each node.

    Only the arcs of a breadth-first spanning forest carry flow; an arc
    that closes a cycle carries 0.  Each tree's least node is its root and
    takes what is left.
    """
    adj: dict[int, list[int]] = {}
    for k, (t, h) in enumerate(zip(tails, heads)):
        if t != h:
            adj.setdefault(t, []).append(k)
            adj.setdefault(h, []).append(k)
    flow = [0.0] * len(tails)
    acc = np.asarray(supply, dtype=float).tolist()
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        order, via = [root], [-1]
        for v in order:
            for k in adj[v]:
                u = tails[k] if heads[k] == v else heads[k]
                if u not in seen:
                    seen.add(u)
                    order.append(u)
                    via.append(k)
        for v, k in zip(reversed(order), reversed(via)):
            if k < 0:
                break
            if heads[k] == v:
                flow[k] = acc[v]
                acc[tails[k]] += acc[v]
            else:
                flow[k] = -acc[v]
                acc[heads[k]] += acc[v]
    return flow


def kkt_residuals(cm: CompiledModel, x: np.ndarray, lam: np.ndarray) -> dict[str, float]:
    """Max-norm KKT residuals of a primal/dual pair, from the compiled rows.

    `lam` is indexed as in `_ge_rows`: rows in their `>=` normalization,
    then lower and upper bounds; an infinite bound's entry is ignored.
    """
    m, n = len(cm.constraints), len(cm.variables)
    rows = np.repeat(np.arange(m), np.diff(cm.starts))
    cols = np.array(cm.cols, dtype=int)
    coefs = np.array(cm.coefs, dtype=float)
    sign = np.array([-1.0 if row.sense == LE else 1.0 for row in cm.constraints])
    ineq = np.array([row.sense != EQ for row in cm.constraints], dtype=bool)
    b = np.array([row.rhs for row in cm.constraints], dtype=float)
    lo, hi = np.array(cm.lower), np.array(cm.upper)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    lam_r = lam[:m]
    lam_lo = np.where(has_lo, lam[m:m + n], 0.0)
    lam_hi = np.where(has_hi, lam[m + n:], 0.0)
    slack = sign * (np.bincount(rows, coefs * x[cols], m) - b)
    stat = (2.0 * np.array(cm.quad) * x + np.array(cm.cost)
            - np.bincount(cols, coefs * (sign * lam_r)[rows], n) - lam_lo + lam_hi)
    above = np.where(has_lo, x - np.where(has_lo, lo, 0.0), 0.0)
    below = np.where(has_hi, np.where(has_hi, hi, 0.0) - x, 0.0)
    primal = np.concatenate([np.abs(slack[~ineq]), -slack[ineq], -above, -below])
    dual = np.concatenate([-lam_r[ineq], -lam_lo, -lam_hi])
    comp = np.concatenate([lam_r[ineq] * slack[ineq], lam_lo * above, lam_hi * below])
    return {
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "primal": max(0.0, float(primal.max(initial=0.0))),
        "dual": max(0.0, float(dual.max(initial=0.0))),
        "complementarity": float(np.abs(comp).max(initial=0.0)),
    }
