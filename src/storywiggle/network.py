"""The difference graph of a model, and the network simplex that solves it.

`difference_form` reads each row of a compiled model once.  A row is a
difference `y_p - y_q (<=, >=, =) r`; one of a pair `y_a - y_b - w <= 0`,
`y_b - y_a - w <= 0` whose column w lies in [0, inf), costs c >= 0 and
appears in no other row; or a link `y_p - y_q + s d = r`, s = +-1, whose
column d is free, curved (q_d > 0) and in no other row.  Any other row
means the model has no difference form.  `contract` turns a form into a
`DifferenceGraph`: every column that is no pair's w and no link's d is a
node, and one ground node sits at level 0, so a finite bound
l <= y <= u is the pair of arcs y - ground >= l and ground - y >= -u.
Fixed columns and equality rows are contracted first: a weighted
union-find keeps every node as an offset from its block's root, so no
equality is left as an arc.  Every inequality row and bound then is an
arc between two blocks, listed in dual order.

Two solvers read the graph.  `qp._Blocks` runs the active-set QP on its
block levels (the `qwh` models: links and no pairs).  `solve_network`
solves a network LP, a form with no links, no quadratic or integral
column and costs on pair columns only: minimizing it minimizes
sum c |y_a - y_b| over a system of difference constraints, the
coordinate-assignment LP of Gansner et al. 1993 ("A technique for
drawing directed graphs", IEEE TSE, section 4).  The `lwh` models and
`max_wiggle_free_set`'s flat-pinned models are network LPs; routing
stage 2 (costs on levels), `qwh` and `wc` models are not.  Parallel arcs
between two blocks collapse to the tightest one, and pairs with the
same blocks and offset to one pair with summed cost.

`solve_network` runs the primal network simplex on the LP dual, a
min-cost flow: an arc y_h - y_t >= d is an arc t -> h carrying flow in
[0, inf) at cost -d, and a pair is an arc a -> b carrying flow in
[-c, c] at cost -d, for its offset d.  The node potentials are the
levels y, an arc's reduced cost is its slack y_h - y_t - d, and the
spanning tree's arcs are the tight ones, so the levels are exact sums
of right-hand sides along tree paths (integral for integral spacing).
The first tree hangs every block from ground by its bound arc, with
every pair at a bound.  Block pricing (LEMON's block search) picks the
entering arc.  Cycling is ruled out by strongly feasible trees
(Cunningham 1976, "A network simplex method", Math. Programming 11),
here in the form where ground can push a little more flow to every node
along the tree: the leaving arc is the blocking arc met first when the
pivot cycle is walked from its apex in the direction of flow, so every
pivot keeps the property and no basis repeats.  A block with no finite
bound on the side its first tree arc needs gets a far bound there
instead, further from ground than any vertex of the model.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

from .programs import EQ, GE, LE, CompiledModel, SolveResult, SolveStatus

_REL_TOL = 1e-9          # contradiction between contracted rows, relative
_PRICE_TOL = 1e-11       # reduced cost that still counts as zero, relative


@dataclass(frozen=True)
class DifferenceForm:
    """A model's rows read as differences, pairs and links.

    `diffs` holds `(i, p, q)` for row i reading `y_p - y_q`, `pairs`
    `(w, a, b)` for the two rows that make w >= |y_a - y_b|, and `links`
    `(i, d, p, q, s)` for row i reading `y_p - y_q + s d = rhs`.
    """

    diffs: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int, int], ...]
    links: tuple[tuple[int, int, int, int, float], ...]

    def is_network_lp(self, cm: CompiledModel) -> bool:
        """Whether `solve_network` finds the model's optimum."""
        paid = {w for w, _, _ in self.pairs}
        return (not self.links and not any(cm.quad)
                and not any(v.integral for v in cm.variables)
                and all(j in paid for j, c in enumerate(cm.cost) if c))


def _as_difference(cols, coefs) -> tuple[int, int] | None:
    """Columns (p, q) when the terms read `y_p - y_q`, else None."""
    if (len(cols) == 2 and cols[0] != cols[1] and coefs[0] == -coefs[1]
            and abs(coefs[0]) == 1.0):
        return (cols[0], cols[1]) if coefs[0] == 1.0 else (cols[1], cols[0])
    return None


def difference_form(cm: CompiledModel) -> DifferenceForm | None:
    """The model's rows as a difference graph, or None when it has another form."""
    inf = math.inf
    uses = Counter(cm.cols)
    diffs, triples, links = [], [], []
    for i, row in enumerate(cm.constraints):
        s, e = cm.starts[i], cm.starts[i + 1]
        cols, coefs = cm.cols[s:e], cm.coefs[s:e]
        pq = _as_difference(cols, coefs)
        if pq is not None:
            diffs.append((i, *pq))
        elif e - s != 3:
            return None
        elif row.sense == EQ:
            for k, d in enumerate(cols):
                pq = _as_difference(cols[:k] + cols[k + 1:], coefs[:k] + coefs[k + 1:])
                if (pq is not None and abs(coefs[k]) == 1.0 and uses[d] == 1
                        and cm.quad[d] > 0.0 and cm.lower[d] == -inf
                        and cm.upper[d] == inf):
                    links.append((i, d, *pq, coefs[k]))
                    break
            else:
                return None
        elif row.rhs == 0.0:
            sign = 1.0 if row.sense == LE else -1.0
            plus = [j for j, c in zip(cols, coefs) if c * sign == 1.0]
            minus = [j for j, c in zip(cols, coefs) if c * sign == -1.0]
            if len(plus) != 1 or len(minus) != 2:
                return None
            triples.append((plus[0], *minus))
        else:
            return None
    minus_uses = Counter(j for _, *minus in triples for j in minus)

    def is_w(j: int) -> bool:
        return (uses[j] == minus_uses[j] == 2 and cm.lower[j] == 0.0
                and cm.upper[j] == inf and cm.cost[j] >= 0.0)

    rows_of: dict[int, list[tuple[int, int]]] = {}
    for a, m1, m2 in triples:
        if is_w(m1) == is_w(m2):
            return None
        w, b = (m1, m2) if is_w(m1) else (m2, m1)
        rows_of.setdefault(w, []).append((a, b))
    pairs = []
    for w, ((a1, b1), (a2, b2)) in rows_of.items():
        if a1 == b1 or (a2, b2) != (b1, a1):
            return None
        pairs.append((w, a1, b1))
    return DifferenceForm(tuple(diffs), tuple(pairs), tuple(links))


class _Levels:
    """Weighted union-find: level(v) = level(find(v)) + off[v] once found.

    The smaller root always stays root, so node 0 (ground) is never moved.
    """

    def __init__(self, n: int) -> None:
        self.up = list(range(n))
        self.off = [0.0] * n

    def find(self, v: int) -> int:
        up, off = self.up, self.off
        path = []
        while up[v] != v:
            path.append(v)
            v = up[v]
        acc = 0.0
        for x in reversed(path):
            acc += off[x]
            off[x] = acc
            up[x] = v
        return v

    def join(self, p: int, q: int, r: float, tol: float) -> bool:
        """Record level(p) - level(q) = r; False if earlier rows contradict it."""
        rp, rq = self.find(p), self.find(q)
        op = self.off[p] if p != rp else 0.0
        oq = self.off[q] if q != rq else 0.0
        if rp == rq:
            return abs(op - oq - r) <= tol
        if rp > rq:
            self.up[rp], self.off[rp] = rq, r + oq - op
        else:
            self.up[rq], self.off[rq] = rp, op - oq - r
        return True


@dataclass
class DifferenceGraph:
    """A difference form with its equalities contracted (module docstring).

    `node` maps each column that is no pair's w and no link's d to its
    node 1.., node 0 being ground; `block` maps a node to its block
    (ground's is 0) and `off` to its level above the block's.  `joins`
    holds `(dual, head, tail)` for each equation level(head) - level(tail)
    = r contracted: every fixed column to ground at its lower bound (dual
    m + j), in column order, then the equality rows (dual i).  The arc k
    reads `Y[block[head[k]]] - Y[block[tail[k]]] >= delta[k]` on the block
    levels Y, for the `>=` row `dual[k]`: the inequality rows in model
    order, then each node column's finite lower (m + j) and upper
    (m + n + j) bound, fixed ones included.
    """

    form: DifferenceForm
    node: dict[int, int]
    block: list[int]
    off: list[float]
    n_blocks: int
    joins: list[tuple[int, int, int]]
    dual: list[int]
    tail: list[int]
    head: list[int]
    delta: list[float]
    tol: float                # contradiction tolerance

    def solve(self, cm: CompiledModel, deadline: float | None) -> SolveResult:
        """Minimize the pairs' costs over the arcs by the network simplex.

        That is the optimum of a network LP, and a feasible point of any
        other form.  Pairs and links take the values their rows give them.
        """
        net = _network(self, cm)
        if net is None:
            return SolveResult(SolveStatus.INFEASIBLE)
        status, pot, iterations, degenerate = _simplex(*net, self.n_blocks, deadline)
        stats = {"iterations": iterations, "degenerate_pivots": degenerate}
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(status, stats=stats)
        level = [0.0] * len(cm.variables)
        for j, v in self.node.items():
            level[j] = pot[self.block[v]] + self.off[v]
        for w, a, b in self.form.pairs:
            level[w] = abs(level[a] - level[b])
        for i, d, p, q, s in self.form.links:
            level[d] = s * (cm.constraints[i].rhs - level[p] + level[q])
        x = {v.name: level[j] for j, v in enumerate(cm.variables)}
        objective = sum(c * level[j] for j, c in enumerate(cm.cost) if c)
        return SolveResult(SolveStatus.OPTIMAL, x, objective, stats=stats)


def contract(cm: CompiledModel, form: DifferenceForm) -> DifferenceGraph | None:
    """The graph of a form, or None when its equalities contradict one another."""
    inf = math.inf
    m, n = len(cm.constraints), len(cm.variables)
    derived = {w for w, _, _ in form.pairs} | {d for _, d, *_ in form.links}
    node = {j: k + 1 for k, j in enumerate(j for j in range(n) if j not in derived)}
    rhs = [cm.constraints[i].rhs for i, _, _ in form.diffs]
    finite = [abs(b) for b in (*cm.lower, *cm.upper) if abs(b) < inf]
    tol = _REL_TOL * (1.0 + max((*finite, *map(abs, rhs)), default=0.0))

    joins = [(m + j, v, 0, cm.lower[j]) for j, v in node.items()
             if cm.lower[j] == cm.upper[j]]
    arcs = []
    for (i, p, q), r in zip(form.diffs, rhs):
        sense = cm.constraints[i].sense
        if sense == EQ:
            joins.append((i, node[p], node[q], r))
        elif sense == GE:
            arcs.append((i, node[q], node[p], r))
        else:
            arcs.append((i, node[p], node[q], -r))
    for j, v in node.items():
        if cm.lower[j] > -inf:
            arcs.append((m + j, 0, v, cm.lower[j]))
        if cm.upper[j] < inf:
            arcs.append((m + n + j, v, 0, -cm.upper[j]))

    levels = _Levels(len(node) + 1)
    for _, h, t, r in joins:
        if not levels.join(h, t, r, tol):
            return None
    roots = [levels.find(v) for v in range(len(node) + 1)]
    ids: dict[int, int] = {}
    for v, root in enumerate(roots):
        if v == root:
            ids[v] = len(ids)
    off = levels.off
    return DifferenceGraph(
        form, node, [ids[root] for root in roots], off, len(ids),
        [join[:3] for join in joins], [a[0] for a in arcs], [a[1] for a in arcs],
        [a[2] for a in arcs], [r + off[t] - off[h] for _, t, h, r in arcs], tol)


def _network(graph: DifferenceGraph, cm: CompiledModel):
    """The network's arcs between blocks: `(tail, head, delta, cap)`.

    The tightest arc per block pair comes first, in first-seen order,
    with cap inf, then the merged pairs with cap c.  None if an arc
    inside a block contradicts the contraction.
    """
    inf = math.inf
    block, off, node = graph.block, graph.off, graph.node
    rows: dict[tuple[int, int], float] = {}
    for t, h, d in zip(graph.tail, graph.head, graph.delta):
        T, H = block[t], block[h]
        if T == H:
            if d > graph.tol:
                return None
        elif rows.get((T, H), -inf) < d:
            rows[(T, H)] = d
    pairs: dict[tuple[int, int, float], float] = {}
    for w, a, b in graph.form.pairs:
        A, B = block[node[a]], block[node[b]]
        d = off[node[a]] - off[node[b]]
        if cm.cost[w] == 0.0 or A == B:
            continue
        if A > B:
            A, B, d = B, A, -d
        pairs[(A, B, d)] = pairs.get((A, B, d), 0.0) + cm.cost[w]
    tail = [t for t, _ in rows] + [t for t, _, _ in pairs]
    head = [h for _, h in rows] + [h for _, h, _ in pairs]
    delta = list(rows.values()) + [d for _, _, d in pairs]
    cap = [inf] * len(rows) + list(pairs.values())
    return tail, head, delta, cap


def solve_network(cm: CompiledModel, form: DifferenceForm, *,
                  time_limit: float | None = None) -> SolveResult:
    """Minimize a network LP (see `DifferenceForm.is_network_lp`).

    Once `time_limit` (seconds) has run out, the solve stops before its
    next pivot, or before its first once the starting tree is built, with
    `time_limit` and no assignment.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    graph = contract(cm, form)
    if graph is None:
        return SolveResult(SolveStatus.INFEASIBLE)
    return graph.solve(cm, deadline)


def _simplex(tail: list[int], head: list[int], delta: list[float],
             cap: list[float], n: int, deadline: float | None):
    """Primal network simplex on n blocks (0 is ground), appending far arcs.

    Returns (status, potentials, pivots, degenerate pivots).
    """
    inf = math.inf
    eps = _PRICE_TOL * (1.0 + max(map(abs, delta), default=0.0))
    lo = [-c if c < inf else 0.0 for c in cap]
    hi = list(cap)
    # every pair starts at its upper bound; the rows carry nothing
    flow = [c if c < inf else 0.0 for c in cap]
    state = [-1 if c < inf else 1 for c in cap]      # 1 at lower, -1 at upper, 0 in tree
    excess = [0.0] * n
    for e, f in enumerate(flow):
        if f:
            excess[tail[e]] += f
            excess[head[e]] -= f

    # strongly feasible star: a block whose tree arc carries nothing hangs
    # from ground by its lower bound, one that sends flow up by its upper
    index = {(t, h): e for e, (t, h, c) in enumerate(zip(tail, head, cap))
             if c == inf and (t == 0 or h == 0)}
    far = 1.0 + sum(map(abs, delta))
    parent = [0] * n
    pred = [-1] * n
    depth = [1] * n
    depth[0] = 0
    pot = [0.0] * n
    kids: list[dict[int, None]] = [{} for _ in range(n)]
    for v in range(1, n):
        up = excess[v] < 0.0
        key = (v, 0) if up else (0, v)
        e = index.get(key)
        if e is None:
            e = len(tail)
            tail.append(key[0])
            head.append(key[1])
            delta.append(-far)
            lo.append(0.0)
            hi.append(inf)
            flow.append(0.0)
            state.append(0)
        flow[e] = -excess[v] if up else excess[v]
        state[e] = 0
        pred[v] = e
        pot[v] = -delta[e] if up else delta[e]
        kids[0][v] = None
    m = len(tail)

    if deadline is not None and time.perf_counter() >= deadline:
        return SolveStatus.TIME_LIMIT, None, 0, 0
    block = max(10, int(math.sqrt(m)))
    nxt = 0
    iterations = degenerate = 0
    while True:
        e_in = -1
        lowest = -eps
        pos, left = nxt, m
        while left > 0:
            end = min(pos + block, m)
            for e in range(pos, end):
                s = state[e]
                if s:
                    v = s * (pot[head[e]] - pot[tail[e]] - delta[e])
                    if v < lowest:
                        lowest, e_in = v, e
            left -= end - pos
            pos = 0 if end == m else end
            if e_in >= 0:
                break
        if e_in < 0:
            return SolveStatus.OPTIMAL, pot, iterations, degenerate
        nxt = pos
        if deadline is not None and time.perf_counter() >= deadline:
            return SolveStatus.TIME_LIMIT, None, iterations, degenerate
        iterations += 1

        # flow goes first -> second on the entering arc, then back up
        # from second to the apex and down to first
        rising = state[e_in] == 1
        first, second = (tail[e_in], head[e_in]) if rising else (head[e_in], tail[e_in])
        x, y = first, second
        while depth[x] > depth[y]:
            x = parent[x]
        while depth[y] > depth[x]:
            y = parent[y]
        while x != y:
            x, y = parent[x], parent[y]
        apex = x
        # the leaving arc is the first blocking one met from the apex along
        # the flow: down to first (ties: nearest the apex, hence <=), the
        # entering arc itself, then up from second (ties: nearest second)
        theta = hi[e_in] - lo[e_in]
        leave, side = -1, 0
        x = second
        while x != apex:
            e = pred[x]
            r = hi[e] - flow[e] if tail[e] == x else flow[e] - lo[e]
            if r < theta:
                theta, leave, side = r, x, 2
            x = parent[x]
        x = first
        while x != apex:
            e = pred[x]
            r = flow[e] - lo[e] if tail[e] == x else hi[e] - flow[e]
            if r <= theta:
                theta, leave, side = r, x, 1
            x = parent[x]
        if theta == inf:
            # a cycle of rows that can carry any flow: they contradict
            return SolveStatus.INFEASIBLE, None, iterations, degenerate
        if theta > 0.0:
            flow[e_in] += theta if rising else -theta
            x = second
            while x != apex:
                e = pred[x]
                flow[e] += theta if tail[e] == x else -theta
                x = parent[x]
            x = first
            while x != apex:
                e = pred[x]
                flow[e] += -theta if tail[e] == x else theta
                x = parent[x]
        else:
            degenerate += 1
        if side == 0:
            state[e_in] = -state[e_in]
            flow[e_in] = hi[e_in] if rising else lo[e_in]
            continue

        e_out = pred[leave]
        at_upper = (tail[e_out] == leave) == (side == 2)
        flow[e_out] = hi[e_out] if at_upper else lo[e_out]
        state[e_out] = -1 if at_upper else 1
        state[e_in] = 0
        entry, other = (first, second) if side == 1 else (second, first)
        # re-hang the subtree below the leaving arc from the entering arc
        new_parent, new_pred = other, e_in
        x = entry
        while True:
            old_parent, old_pred = parent[x], pred[x]
            del kids[old_parent][x]
            kids[new_parent][x] = None
            parent[x], pred[x] = new_parent, new_pred
            if x == leave:
                break
            new_parent, new_pred = x, old_pred
            x = old_parent
        stack = [entry]
        while stack:
            x = stack.pop()
            p, e = parent[x], pred[x]
            depth[x] = depth[p] + 1
            pot[x] = pot[p] + delta[e] if tail[e] == p else pot[p] - delta[e]
            stack.extend(kids[x])
