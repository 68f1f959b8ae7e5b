"""Independent reference implementations used only by the tests.

Everything here favors brute force over cleverness: nested loops and
exhaustive enumeration, so results are trustworthy on the tiny shapes
the tests use and any agreement with the package is meaningful.  The
one exception is `dense_qp`, the reference for the QP's block path: it
runs the package's active-set loop on dense linear algebra.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from storywiggle import qp
from storywiggle.instance import (Coordination, NicenessParams,
                                  OrderedStorylineInstance)
from storywiggle.programs import (EQ, GE, LE, CompiledModel, ModelError,
                                  OptimizationModel, SolveResult, SolveStatus,
                                  compile_model, model_violations)
from storywiggle.simplex import solve_lp


def step_levels(inst: OrderedStorylineInstance, params: NicenessParams,
                t: int, cap: int) -> list[tuple[int, ...]]:
    """All integral nice level tuples for step t with values in [0, cap]."""
    order = inst.ordering_at(t)
    if not order:
        return [()]
    meeting_gap = []
    for i in range(len(order) - 1):
        m = inst.meeting_of(t, order[i])
        meeting_gap.append(m is not None and order[i + 1] in m.members)
    delta = params.delta
    delta_bar = params.delta_bar
    levels = []
    for combo in itertools.combinations(range(cap + 1), len(order)):
        ok = True
        for i, in_meeting in enumerate(meeting_gap):
            gap = combo[i + 1] - combo[i]
            if in_meeting:
                ok = gap == delta
            else:
                ok = gap >= delta_bar
            if not ok:
                break
        if ok:
            levels.append(combo)
    return levels


def enumerate_nice_coordinations(inst: OrderedStorylineInstance,
                                 params: NicenessParams, cap: int):
    """Yield every integral nice coordination with levels in [0, cap]."""
    per_step = [step_levels(inst, params, t, cap)
                for t in range(1, inst.time_steps + 1)]
    orders = [inst.ordering_at(t) for t in range(1, inst.time_steps + 1)]
    for combo in itertools.product(*per_step):
        values: dict[tuple[int, str], float] = {}
        for t, levels in enumerate(combo, start=1):
            for c, y in zip(orders[t - 1], levels):
                values[(t, c)] = float(y)
        yield Coordination(values)


def brute_force_optimum(inst: OrderedStorylineInstance, params: NicenessParams,
                        objective: str, cap: int) -> tuple[float, Coordination]:
    """Exhaustive minimum of one wiggle metric over integral nice layouts."""
    best = math.inf
    best_coord = None
    for coord in enumerate_nice_coordinations(inst, params, cap):
        total = 0.0
        for t in inst.gaps():
            for c in inst.shared_at_gap(t):
                d = coord.y(t + 1, c) - coord.y(t, c)
                if objective == "wc":
                    total += 1.0 if d != 0.0 else 0.0
                elif objective == "lwh":
                    total += abs(d)
                else:
                    total += d * d
        if total < best:
            best = total
            best_coord = coord
    if best_coord is None:
        raise ValueError("no nice coordination within the cap")
    return best, best_coord


def _rows_as_geq(model: OptimizationModel):
    """All rows and finite bounds as (coeffs, rhs, is_equality) over >=."""
    names = model.variable_names()
    idx = {n: i for i, n in enumerate(names)}
    rows = []
    for row in model.constraints:
        a = np.zeros(len(names))
        for var, coef in row.coeffs:
            a[idx[var]] += coef
        if row.sense == LE:
            rows.append((-a, -row.rhs, False))
        elif row.sense == GE:
            rows.append((a, row.rhs, False))
        else:
            rows.append((a, row.rhs, True))
    for i, v in enumerate(model.variables):
        if math.isfinite(v.lower):
            a = np.zeros(len(names))
            a[i] = 1.0
            rows.append((a, v.lower, False))
        if math.isfinite(v.upper):
            a = np.zeros(len(names))
            a[i] = -1.0
            rows.append((a, -v.upper, False))
    return names, rows


def enumerate_lp_vertices(model: OptimizationModel, tol: float = 1e-8):
    """All basic feasible points of a small LP, by trying every basis.

    Any n linearly independent rows that meet and satisfy everything
    else form a vertex; redundant or degenerate rows simply never make
    a nonsingular subset.  Only complete for models whose feasible set
    is bounded (box bounds on every variable do); unbounded directions
    are invisible here.
    """
    names, rows = _rows_as_geq(model)
    n = len(names)
    c = np.array([model.objective.get(name, 0.0) for name in names])
    vertices = []
    for subset in itertools.combinations(rows, n):
        a_mat = np.array([r[0] for r in subset])
        b_vec = np.array([r[1] for r in subset])
        if abs(np.linalg.det(a_mat)) < 1e-12:
            continue
        x = np.linalg.solve(a_mat, b_vec)
        feasible = all(
            (abs(a @ x - b) <= tol) if eq else (a @ x >= b - tol)
            for a, b, eq in rows)
        if feasible:
            vertices.append((float(c @ x), x))
    return vertices


def lp_vertex_optimum(model: OptimizationModel) -> float:
    vertices = enumerate_lp_vertices(model)
    if not vertices:
        raise ValueError("no feasible vertex found")
    return min(v[0] for v in vertices)


def brute_force_ilp(model: OptimizationModel) -> tuple[float, dict[str, float]] | None:
    """Exhaustive minimum of an all-integral model with finite bounds."""
    names = model.variable_names()
    ranges = []
    for v in model.variables:
        if not v.integral or not math.isfinite(v.lower) or not math.isfinite(v.upper):
            raise ValueError("brute force needs all-integral boxed variables")
        ranges.append(range(int(math.ceil(v.lower)), int(math.floor(v.upper)) + 1))
    best = None
    for point in itertools.product(*ranges):
        assignment = dict(zip(names, (float(p) for p in point)))
        ok = True
        for row in model.constraints:
            lhs = sum(coef * assignment[var] for var, coef in row.coeffs)
            if row.sense == LE and lhs > row.rhs + 1e-9:
                ok = False
            elif row.sense == GE and lhs < row.rhs - 1e-9:
                ok = False
            elif row.sense == EQ and abs(lhs - row.rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(coef * assignment[var] for var, coef in model.objective.items())
        if best is None or val < best[0]:
            best = (val, assignment)
    return best


def max_flat_subset_exhaustive(inst: OrderedStorylineInstance,
                               params: NicenessParams) -> int:
    """Largest flat-realizable character set by brute force over subsets.

    A subset passes when the least-movement program stays feasible with
    every member pinned to a single level across all steps.
    """
    from storywiggle.programs import LinearConstraint, build_lwh_program
    from storywiggle.solver import SolveStatus, solve_model
    from storywiggle.wigglefree import always_active

    full = always_active(inst)
    for size in range(len(full), 0, -1):
        for subset in itertools.combinations(full, size):
            model, index = build_lwh_program(inst, params)
            for c in subset:
                for t in inst.gaps():
                    ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
                    model.constraints.append(LinearConstraint(
                        f"flat_{ya}", ((ya, 1.0), (yb, -1.0)), EQ, 0.0))
            if solve_model(model).status is SolveStatus.OPTIMAL:
                return size
    return 0


def dense_qp(model: OptimizationModel, warm: dict[str, float] | None = None,
             time_limit: float | None = None) -> SolveResult:
    """`qp.solve_qp`'s loop on the dense null-space working set, for any QP.

    The start is `warm` if feasible, else the simplex at zero cost; the
    loop is `qp._active_set`, so iterations, statuses and time limits
    read as `solve_qp`'s do.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    cm = compile_model(model)
    if warm is not None and not model_violations(cm, warm, tol=1e-9):
        start = dict(warm)
    else:
        zero = (0.0,) * len(cm.variables)
        left = None if deadline is None else max(deadline - time.perf_counter(), 0.0)
        res = solve_lp(replace(cm, cost=zero, quad=zero), time_limit=left)
        if res.status in (SolveStatus.INFEASIBLE, SolveStatus.TIME_LIMIT):
            return SolveResult(res.status)
        if res.status is not SolveStatus.OPTIMAL:
            raise ModelError(f"feasibility probe ended with status {res.status.value}")
        start = res.x
    return qp._active_set(cm, _Dense(cm, start), deadline)


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


class _Dense:
    """A working set for `qp._active_set` from SVDs of the dense rows.

    One SVD of the equality rows E gives an orthonormal basis Ze of their
    null space; every iterate is x = x0 + Ze w for the feasible start x0,
    so the loop sees the inequality rows as G Ze.  Each iteration takes
    one SVD of the pinned rows of G Ze for their rank, a basis Y of their
    null space and, on a zero step, the least-squares multipliers, and
    one `eigh` of Y'(Ze'QZe)Y to split curved from flat directions.  The
    equality rows take what the pinned inequalities leave of the
    gradient, by the stored SVD of E.
    """

    def __init__(self, cm: CompiledModel, start: dict[str, float]) -> None:
        m, n = len(cm.constraints), len(cm.variables)
        self.q = 2.0 * np.array(cm.quad, dtype=float)
        self.c = np.array(cm.cost, dtype=float)
        self.eq = [i for i, row in enumerate(cm.constraints) if row.sense == EQ]
        self.ge = ge = _ge_rows(cm)
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
