"""Exhaustive dynamic-programming oracle for small instances.

Enumerates, per time step, every nice integral assignment of the step's
characters to levels in [0, cap], then runs a min-plus DP across gaps.
The step states come from a stars-and-bars bijection: a nice assignment
is the minimal stack plus nonnegative extras (one bottom shift, one per
gap) summing to at most the free slack, and those extras correspond to
k-subsets of a range.  Costs are exact integer arithmetic, so the oracle
is a trustworthy reference for the solver stack on instances it can
afford; it refuses instances whose state space exceeds the limit.

For the quadratic objective the oracle optimum is over integral layouts
only, an upper bound for the continuous optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (Coordination, NicenessParams, OrderedStorylineInstance,
                       neighbor_sets, stack_offsets)
from .programs import big_y

_OBJECTIVES = ("wc", "lwh", "qwh")


class OracleLimitError(RuntimeError):
    """The instance needs more states than the oracle is allowed."""


@dataclass
class OracleResult:
    objective: str
    value: float
    coordination: Coordination


def _step_states(inst: OrderedStorylineInstance, params: NicenessParams,
                 t: int, cap: int, state_limit: int) -> np.ndarray:
    """All nice integral level vectors for step t, one row per state.

    Columns follow the step ordering bottom to top.  Extra slack can go
    into the bottom shift and the free gaps only; meeting gaps are
    pinned to their exact spacing.  The states are counted before any is
    built, so a step over `state_limit` fails fast.
    """
    order = inst.ordering_at(t)
    k = len(order)
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    base = stack_offsets(inst, params, t)
    base_arr = np.array([base[c] for c in order])
    if not np.allclose(base_arr, np.round(base_arr)):
        raise ValueError("oracle needs integral spacing parameters")
    base_arr = np.round(base_arr).astype(np.int64)
    extra = cap - int(base_arr[-1])
    if extra < 0:
        raise ValueError(f"cap {cap} below the minimal span of step {t}")
    meeting_pairs = set(neighbor_sets(inst, t).meeting_pairs)
    # slot_of[i]: index of the last stretchable gap at or below position i
    slot_of = [0] * k
    nslots = 1
    for i in range(1, k):
        if (order[i - 1], order[i]) not in meeting_pairs:
            nslots += 1
        slot_of[i] = nslots - 1
    count = math.comb(extra + nslots, nslots)
    if count > state_limit:
        raise OracleLimitError(
            f"step {t} has {count} states (limit {state_limit})")
    combos = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(extra + nslots), nslots)),
        dtype=np.int64).reshape(-1, nslots)
    slot_idx = np.array(slot_of)
    return base_arr[None, :] + combos[:, slot_idx] - slot_idx[None, :]


def oracle_optimum(inst: OrderedStorylineInstance, params: NicenessParams,
                   objective: str, *, cap: int | None = None,
                   state_limit: int = 20_000_000) -> OracleResult:
    """Exact minimum of one wiggle objective over nice integral layouts.

    `cap` bounds the levels searched (inclusive); the default is one
    less than the standard coordinate bound, which is large enough to
    contain an optimal layout.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if not params.is_integral:
        raise ValueError("oracle needs integral spacing parameters")
    if cap is None:
        cap = max(int(big_y(inst, params)) - 1, 0)
    if inst.time_steps == 0:
        return OracleResult(objective, 0.0, Coordination({}))

    orders = [inst.ordering_at(t) for t in range(1, inst.time_steps + 1)]
    states = []
    for t in range(1, inst.time_steps + 1):
        states.append(_step_states(inst, params, t, cap, state_limit))

    dp = np.zeros(states[0].shape[0], dtype=np.int64)
    parents: list[np.ndarray] = []
    for g in range(inst.time_steps - 1):
        s1, s2 = states[g], states[g + 1]
        if s1.shape[0] * s2.shape[0] > state_limit:
            raise OracleLimitError(
                f"gap {g + 1} has {s1.shape[0] * s2.shape[0]} transitions")
        trans = np.zeros((s1.shape[0], s2.shape[0]), dtype=np.int64)
        pos1 = {c: i for i, c in enumerate(orders[g])}
        pos2 = {c: i for i, c in enumerate(orders[g + 1])}
        for c in orders[g]:
            if c not in pos2:
                continue
            diff = s1[:, pos1[c]][:, None] - s2[None, :, pos2[c]]
            if objective == "wc":
                trans += diff != 0
            elif objective == "lwh":
                trans += np.abs(diff)
            else:
                trans += diff * diff
        total = dp[:, None] + trans
        parents.append(np.argmin(total, axis=0))
        dp = np.min(total, axis=0)

    best_last = int(np.argmin(dp))
    value = float(dp[best_last])
    choice = [0] * inst.time_steps
    choice[-1] = best_last
    for g in range(inst.time_steps - 2, -1, -1):
        choice[g] = int(parents[g][choice[g + 1]])
    values: dict[tuple[int, str], float] = {}
    for t in range(1, inst.time_steps + 1):
        row = states[t - 1][choice[t - 1]]
        for i, c in enumerate(orders[t - 1]):
            values[(t, c)] = float(row[i])
    return OracleResult(objective, value, Coordination(values))
