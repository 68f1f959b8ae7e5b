"""Network simplex for LPs whose rows are differences of two columns.

`difference_form` accepts a pure LP in which every row is either a
difference `y_p - y_q (<=, >=, =) r`, or one of a pair
`y_a - y_b - w <= 0`, `y_b - y_a - w <= 0` whose column w lies in
[0, inf), costs c >= 0 and appears in no other row, and in which every
other column costs 0.  Minimizing such a model minimizes
sum c |y_a - y_b| over a system of difference constraints: the
coordinate-assignment LP of Gansner et al. 1993 ("A technique for
drawing directed graphs", IEEE TSE, section 4).  The `lwh` models and
`max_wiggle_free_set`'s flat-pinned models have this form; routing,
`qwh` and `wc` models do not.

Each y column is a node, and one ground node sits at level 0: a finite
bound l <= y <= u is the pair of rows y - ground >= l and
ground - y >= -u.  Equality rows (meetings, flat pins, fixed columns)
are contracted first: a weighted union-find keeps every node as an
offset from its block's root, so no equality reaches the network.
`contract_equalities` does this, and `qp.py` contracts the `qwh`
models with it too.  Parallel rows between two blocks collapse to the
tightest one, and pairs with the same blocks and offset to one pair
with summed cost.

`solve_network` runs the primal network simplex on the LP dual, a
min-cost flow: a row y_h - y_t >= d is an arc t -> h carrying flow in
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
from dataclasses import dataclass

from .programs import EQ, GE, LE, CompiledModel, SolveResult, SolveStatus

_REL_TOL = 1e-9          # contradiction between contracted rows, relative
_PRICE_TOL = 1e-11       # reduced cost that still counts as zero, relative


@dataclass(frozen=True)
class DifferenceForm:
    """A model's rows read as differences and absolute-difference pairs.

    `diffs` holds `(p, q, sense, rhs)` for the row `y_p - y_q sense rhs`;
    `pairs` holds `(w, a, b)` for the two rows that make w >= |y_a - y_b|.
    """

    diffs: tuple[tuple[int, int, str, float], ...]
    pairs: tuple[tuple[int, int, int], ...]


def as_difference(cm: CompiledModel, i: int) -> tuple[int, int] | None:
    """Columns (p, q) when row i reads `y_p - y_q`, else None."""
    s, e = cm.starts[i], cm.starts[i + 1]
    cols, coefs = cm.cols[s:e], cm.coefs[s:e]
    if (e - s == 2 and cols[0] != cols[1] and coefs[0] == -coefs[1]
            and abs(coefs[0]) == 1.0):
        return (cols[0], cols[1]) if coefs[0] == 1.0 else (cols[1], cols[0])
    return None


def difference_form(cm: CompiledModel) -> DifferenceForm | None:
    """The model's rows as a network, or None when it has another form."""
    if any(cm.quad) or any(v.integral for v in cm.variables):
        return None
    diffs, triples = [], []
    for i, row in enumerate(cm.constraints):
        s, e = cm.starts[i], cm.starts[i + 1]
        cols, coefs = cm.cols[s:e], cm.coefs[s:e]
        pq = as_difference(cm, i)
        if pq is not None:
            diffs.append((*pq, row.sense, row.rhs))
        elif e - s == 3 and row.sense != EQ and row.rhs == 0.0:
            sign = 1.0 if row.sense == LE else -1.0
            plus = [j for j, c in zip(cols, coefs) if c * sign == 1.0]
            minus = [j for j, c in zip(cols, coefs) if c * sign == -1.0]
            if len(plus) != 1 or len(minus) != 2:
                return None
            triples.append((plus[0], *minus))
        else:
            return None
    uses = [0] * len(cm.variables)
    for p, q, _, _ in diffs:
        uses[p] += 1
        uses[q] += 1
    minus_uses = [0] * len(cm.variables)
    for a, m1, m2 in triples:
        uses[a] += 1
        for j in (m1, m2):
            uses[j] += 1
            minus_uses[j] += 1

    def is_w(j: int) -> bool:
        return (uses[j] == minus_uses[j] == 2 and cm.lower[j] == 0.0
                and cm.upper[j] == math.inf and cm.cost[j] >= 0.0)

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
    if any(cm.cost[j] != 0.0 for j in range(len(cm.variables)) if j not in rows_of):
        return None
    return DifferenceForm(tuple(diffs), tuple(pairs))


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
class _Network:
    """Contracted blocks (0 is ground) and the arcs between them."""

    block: list[int]          # node -> block
    off: list[float]          # node -> level above its block
    tail: list[int]
    head: list[int]
    delta: list[float]
    cap: list[float]          # inf for a row, c for a pair
    n_blocks: int


def contract_equalities(cm: CompiledModel, node: dict[int, int],
                        eqs: list[tuple[int, int, float]], tol: float):
    """Blocks of the nodes once fixed columns and equality rows are contracted.

    `node` maps columns to nodes 1.., node 0 being ground, and `eqs` holds
    `(p, q, r)` for the row `y_p - y_q = r` on columns.  The joins are the
    fixed columns, in column order, each tied to ground at its bound, then
    `eqs`.  Returns `(block, off, n_blocks)`: node -> block (ground's is
    0) and node -> level above its block; or None if the joins contradict
    one another.
    """
    joins = [(v, 0, cm.lower[j]) for j, v in node.items()
             if cm.lower[j] == cm.upper[j]]
    joins += [(node[p], node[q], r) for p, q, r in eqs]
    levels = _Levels(len(node) + 1)
    for p, q, r in joins:
        if not levels.join(p, q, r, tol):
            return None
    roots = [levels.find(v) for v in range(len(node) + 1)]
    ids: dict[int, int] = {}
    for v, r in enumerate(roots):
        if v == r:
            ids[v] = len(ids)
    return [ids[r] for r in roots], levels.off, len(ids)


def tolerance(cm: CompiledModel, rhs) -> float:
    """Contradiction tolerance: relative to the largest finite bound or rhs."""
    finite = [abs(b) for b in (*cm.lower, *cm.upper) if abs(b) < math.inf]
    return _REL_TOL * (1.0 + max((*finite, *map(abs, rhs)), default=0.0))


def _contract(cm: CompiledModel, form: DifferenceForm,
              node: dict[int, int]) -> _Network | None:
    """Contract the equalities and collect arcs; None if the rows contradict."""
    inf = math.inf
    tol = tolerance(cm, (r for *_, r in form.diffs))
    found = contract_equalities(
        cm, node, [(p, q, r) for p, q, sense, r in form.diffs if sense == EQ], tol)
    if found is None:
        return None
    block, off, n_blocks = found

    rows: dict[tuple[int, int], float] = {}

    def need(t: int, h: int, d: float) -> bool:
        # level(h) - level(t) >= d, between the blocks of t and h
        T, H = block[t], block[h]
        d += off[t] - off[h]
        if T == H:
            return d <= tol
        if rows.get((T, H), -inf) < d:
            rows[(T, H)] = d
        return True

    for p, q, sense, r in form.diffs:
        if sense == GE and not need(node[q], node[p], r):
            return None
        if sense == LE and not need(node[p], node[q], -r):
            return None
    for j, v in node.items():
        lo, hi = cm.lower[j], cm.upper[j]
        if lo == hi:
            continue
        if lo > -inf and not need(0, v, lo):
            return None
        if hi < inf and not need(v, 0, -hi):
            return None
    pairs: dict[tuple[int, int, float], float] = {}
    for w, a, b in form.pairs:
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
    return _Network(block, off, tail, head, delta, cap, n_blocks)


def solve_network(cm: CompiledModel, form: DifferenceForm, *,
                  time_limit: float | None = None) -> SolveResult:
    """Minimize a model in difference form (see the module docstring).

    Once `time_limit` (seconds) has run out, the solve stops before its
    next pivot, or before its first once the starting tree is built, with
    `time_limit` and no assignment.
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    w_cols = {w for w, _, _ in form.pairs}
    node = {j: k + 1 for k, j in enumerate(
        j for j in range(len(cm.variables)) if j not in w_cols)}
    net = _contract(cm, form, node)
    if net is None:
        return SolveResult(SolveStatus.INFEASIBLE)
    status, pot, iterations, degenerate = _simplex(net, deadline)
    stats = {"iterations": iterations, "degenerate_pivots": degenerate}
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, stats=stats)
    level = {j: pot[net.block[v]] + net.off[v] for j, v in node.items()}
    for w, a, b in form.pairs:
        level[w] = abs(level[a] - level[b])
    x = {v.name: level[j] for j, v in enumerate(cm.variables)}
    objective = sum(c * level[j] for j, c in enumerate(cm.cost) if c)
    return SolveResult(SolveStatus.OPTIMAL, x, objective, stats=stats)


def _simplex(net: _Network, deadline: float | None):
    """Primal network simplex; returns (status, potentials, pivots, degenerate)."""
    inf = math.inf
    tail, head, delta, cap = net.tail, net.head, net.delta, net.cap
    n = net.n_blocks
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
