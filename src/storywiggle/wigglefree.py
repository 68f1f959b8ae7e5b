"""Combinatorial algorithms around wiggle-free characters.

A character drawn at one level for the whole story is wiggle-free.  For
characters active at every step this is a pairwise-compatibility
question: two of them can be simultaneously flat iff they never swap
sides and the vertical distances their niceness chains allow share a
common value across all steps.  Those allowed distances form an
interval per step (a sum of pinned meeting gaps and stretchable free
gaps), so compatibility is an interval-intersection test, the relation
is a DAG ordered by the first step's ordering, and the largest flat set
is a longest path.  Dropping niceness instead makes flatness a pure
ordering question per gap, answered by a longest common subsequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import (Coordination, NicenessParams, OrderedStorylineInstance,
                       stack_offsets)
from .programs import LinearConstraint, EQ, build_lwh_program, extract_coordination
from .solver import SolveStatus, SolverConfig, solve_model


@dataclass
class WiggleFreeResult:
    subset: tuple[str, ...]
    size: int
    coordination: Coordination | None
    status: SolveStatus = SolveStatus.OPTIMAL


@dataclass
class UnrestrictedWitness:
    wiggles: int
    per_gap: tuple[int, ...]
    coordination: Coordination


def always_active(inst: OrderedStorylineInstance) -> tuple[str, ...]:
    """Characters alive at every step, in first-step order."""
    full = {c for c in inst.characters
            if inst.activity[c] == (1, inst.time_steps)}
    if inst.time_steps == 0:
        return tuple()
    return tuple(c for c in inst.ordering_at(1) if c in full)


def compute_span_tables(inst: OrderedStorylineInstance, params: NicenessParams,
                        ) -> dict[tuple[str, str], tuple[float, float]]:
    """Allowed flat distances for order-consistent always-active pairs.

    Maps (lower, upper) character pairs to the intersection over steps
    of the distance intervals their niceness chains admit; pairs that
    swap sides somewhere are absent.  At each step the least distance is
    the pair's distance in the minimal stack, and a pair in one meeting
    (meetings are consecutive) is pinned to it.  An empty intersection
    is kept as an inverted interval so callers can see why a pair failed.
    """
    full = always_active(inst)
    steps = [stack_offsets(inst, params, t) for t in range(1, inst.time_steps + 1)]
    spans: dict[tuple[str, str], tuple[float, float]] = {}
    for ai, a in enumerate(full):
        for b in full[ai + 1:]:
            lo, hi = 0.0, math.inf
            for t, off in enumerate(steps, 1):
                if inst.position(t, a) > inst.position(t, b):
                    break
                lo = max(lo, off[b] - off[a])
                meeting = inst.meeting_of(t, a)
                if meeting is not None and meeting is inst.meeting_of(t, b):
                    hi = min(hi, off[b] - off[a])
            else:
                spans[(a, b)] = (lo, hi)
    return spans


def max_wiggle_free_set(inst: OrderedStorylineInstance, params: NicenessParams,
                        config: SolverConfig | None = None) -> WiggleFreeResult:
    """Largest set of characters drawable flat in one nice layout.

    Longest path in the compatibility DAG over always-active characters
    (nodes in first-step order, ties resolved toward lower positions),
    then a least-movement layout with the chosen characters pinned flat.
    When a solver limit stops that layout's LP, the result keeps the set
    and the limit's status but has no coordination.
    """
    full = always_active(inst)
    spans = compute_span_tables(inst, params)
    ok = {pair for pair, (lo, hi) in spans.items() if lo <= hi + 1e-9}
    best_len: dict[str, int] = {}
    best_prev: dict[str, str | None] = {}
    for b in full:
        best_len[b] = 1
        best_prev[b] = None
        for a in full:
            if a == b:
                break
            if (a, b) in ok and best_len[a] + 1 > best_len[b]:
                best_len[b] = best_len[a] + 1
                best_prev[b] = a
    subset: tuple[str, ...] = tuple()
    if full:
        end = max(full, key=lambda c: best_len[c])
        chain = []
        cur: str | None = end
        while cur is not None:
            chain.append(cur)
            cur = best_prev[cur]
        subset = tuple(reversed(chain))

    model, index = build_lwh_program(inst, params)
    for c in subset:
        for t in inst.gaps():
            ya, yb = index.y[(t, c)], index.y[(t + 1, c)]
            model.constraints.append(
                LinearConstraint(f"flat_{ya}", ((ya, 1.0), (yb, -1.0)), EQ, 0.0))
    result = solve_model(model, config)
    if result.status in (SolveStatus.TIME_LIMIT, SolveStatus.ITERATION_LIMIT):
        return WiggleFreeResult(subset, len(subset), None, result.status)
    if result.status is not SolveStatus.OPTIMAL:
        raise RuntimeError(
            f"flat layout solve ended {result.status.value}; "
            "the compatibility spans should guarantee feasibility")
    coord = extract_coordination(index, result.x)
    return WiggleFreeResult(subset, len(subset), coord)


def _lcs(a: list[str], b: list[str]) -> list[str]:
    """One longest common subsequence, deterministic reconstruction."""
    n, m = len(a), len(b)
    L = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                L[i][j] = 1 + L[i + 1][j + 1]
            else:
                L[i][j] = max(L[i + 1][j], L[i][j + 1])
    out: list[str] = []
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif L[i + 1][j] >= L[i][j + 1]:
            i += 1
        else:
            j += 1
    return out


def unrestricted_wc_min(inst: OrderedStorylineInstance) -> UnrestrictedWitness:
    """Minimal wiggle count when only the orderings must be respected.

    Per gap the flat characters must appear in the same relative order
    on both sides, so each gap independently costs the shared characters
    beyond a longest common subsequence.  The witness keeps one LCS per
    gap flat: a kept (t + 1, c) shares the node of (t, c), and each
    step's ordering adds unit arcs upward between neighbours.  The graph
    is acyclic, because the kept nodes of step t + 1 rise in both steps'
    orders, so the new nodes fit between them.  Each node takes its
    least integer level, its longest path from a source, in Kahn's order;
    no level exceeds the number of active (t, c) pairs.
    """
    node: dict[tuple[int, str], tuple[int, str]] = {}
    succ: dict[tuple[int, str], list[tuple[int, str]]] = {}
    per_gap: list[int] = []
    prev_order: tuple[str, ...] = ()
    for t in range(1, inst.time_steps + 1):
        order = inst.ordering_at(t)
        keep: set[str] = set()
        if t > 1:
            shared_set = set(prev_order) & set(order)
            keep = set(_lcs([c for c in prev_order if c in shared_set],
                            [c for c in order if c in shared_set]))
            per_gap.append(len(shared_set) - len(keep))
        for c in order:
            node[(t, c)] = node[(t - 1, c)] if c in keep else (t, c)
            succ.setdefault(node[(t, c)], [])
        for a, b in zip(order, order[1:]):
            succ[node[(t, a)]].append(node[(t, b)])
        prev_order = order
    indegree = dict.fromkeys(succ, 0)
    for heads in succ.values():
        for v in heads:
            indegree[v] += 1
    level = dict.fromkeys(succ, 0)
    ready = [v for v, d in indegree.items() if d == 0]
    while ready:
        u = ready.pop()
        for v in succ[u]:
            level[v] = max(level[v], level[u] + 1)
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    coord = Coordination({key: float(level[v]) for key, v in node.items()})
    return UnrestrictedWitness(sum(per_gap), tuple(per_gap), coord)
