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
from fractions import Fraction

from .instance import (Coordination, NicenessParams, OrderedStorylineInstance,
                       neighbor_sets)
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
    swap sides somewhere are absent.  An empty intersection is kept as
    an inverted interval so callers can see why a pair failed.
    """
    full = always_active(inst)
    spans: dict[tuple[str, str], tuple[float, float]] = {}
    if not full:
        return spans
    prefix_meet: list[list[int]] = []
    for t in range(1, inst.time_steps + 1):
        order = inst.ordering_at(t)
        meeting_pairs = set(neighbor_sets(inst, t).meeting_pairs)
        pre = [0]
        for i in range(len(order) - 1):
            pre.append(pre[-1] + ((order[i], order[i + 1]) in meeting_pairs))
        prefix_meet.append(pre)
    for ai, a in enumerate(full):
        for b in full[ai + 1:]:
            consistent = True
            lo, hi = 0.0, math.inf
            for t in range(1, inst.time_steps + 1):
                pa, pb = inst.position(t, a), inst.position(t, b)
                if pa > pb:
                    consistent = False
                    break
                d = pb - pa
                c = prefix_meet[t - 1][pb] - prefix_meet[t - 1][pa]
                lo = max(lo, c * params.delta + (d - c) * params.delta_bar)
                if c == d:
                    hi = min(hi, d * params.delta)
            if consistent:
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
    coord = extract_coordination(index, result.assignment)
    return WiggleFreeResult(subset, len(subset), coord)


def two_step_wc_min(inst: OrderedStorylineInstance, params: NicenessParams,
                    config: SolverConfig | None = None) -> int:
    """Exact minimal wiggle count for a two-step instance, nice layouts.

    Characters absent from either step never cross the gap, so the
    answer is how many shared characters cannot be kept flat together.
    """
    if inst.time_steps != 2:
        raise ValueError("closed form needs exactly two time steps")
    shared = [c for c in inst.characters if inst.activity[c] == (1, 2)]
    if not shared:
        return 0
    return len(shared) - max_wiggle_free_set(inst, params, config).size


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
    gap at fixed levels and threads everyone else between them; exact
    rational arithmetic is scaled to integers at the end.
    """
    if inst.time_steps == 0:
        return UnrestrictedWitness(0, (), Coordination({}))
    values: dict[tuple[int, str], Fraction] = {}
    for i, c in enumerate(inst.ordering_at(1)):
        values[(1, c)] = Fraction(i)
    per_gap: list[int] = []
    for t in inst.gaps():
        prev_order = inst.ordering_at(t)
        next_order = inst.ordering_at(t + 1)
        prev_set = set(prev_order)
        shared_next = [c for c in next_order if c in prev_set]
        shared_set = set(shared_next)
        shared_prev = [c for c in prev_order if c in shared_set]
        keep = set(_lcs(shared_prev, shared_next))
        per_gap.append(len(shared_next) - len(keep))
        vals: dict[str, Fraction] = {c: values[(t, c)] for c in keep}
        kept_pos = [i for i, c in enumerate(next_order) if c in keep]
        if not kept_pos:
            for i, c in enumerate(next_order):
                vals[c] = Fraction(i)
        else:
            low = vals[next_order[kept_pos[0]]]
            for i in range(kept_pos[0] - 1, -1, -1):
                low -= 1
                vals[next_order[i]] = low
            for p, q in zip(kept_pos, kept_pos[1:]):
                step = (vals[next_order[q]] - vals[next_order[p]]) / (q - p)
                for j in range(1, q - p):
                    vals[next_order[p + j]] = vals[next_order[p]] + j * step
            high = vals[next_order[kept_pos[-1]]]
            for i in range(kept_pos[-1] + 1, len(next_order)):
                high += 1
                vals[next_order[i]] = high
        for c in next_order:
            values[(t + 1, c)] = vals[c]
    den = math.lcm(*(v.denominator for v in values.values())) if values else 1
    scaled = {key: v * den for key, v in values.items()}
    shift = min(scaled.values()) if scaled else Fraction(0)
    coord = Coordination({key: float(v - shift) for key, v in scaled.items()})
    return UnrestrictedWitness(sum(per_gap), tuple(per_gap), coord)
