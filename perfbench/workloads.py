"""Seeded instance sets for the four benchmark workloads.

Every instance comes from `storywiggle.generate.generate_instance` with
`meeting_prob=0.5`, and every workload is a fixed set of them: the
ROADMAP size ladder (generator seed 7), a list of small `wc` instances,
and a batch of small stories drawn from a stream seeded with 7.

The benchmark seed presents a set under different names.  Seed 7 runs
the instances as generated; any other seed renames the characters and
shuffles their declaration order, which permutes the model's variables
and rows but keeps every optimum and, as measured, the work.  Drawing
new instances per seed instead would swamp any bound: the 25x30 `lwh`
rung takes 1.6 s to 7.7 s across generator seeds, B&B node counts vary
tenfold between small `wc` instances, and in trial runs the median
8-character story of a fresh batch differed by up to 60 % between seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from storywiggle.generate import generate_instance
from storywiggle.instance import Meeting, OrderedStorylineInstance

MEETING_PROB = 0.5
LADDER_SEED = 7

# wc-bnb: the per-call time limit and the generator seeds of one pass.
# Easy instances: the first twelve 6x6 generator seeds (counting from 1)
# whose per-gap LCS bound is 2..5, whose solve was proven optimal in
# 45..65 B&B nodes, and whose node count stayed within 40..70 and pivot
# total within 25 % under three relabelings, when they were chosen.
# Similar instances keep the median call steady across seeds.  The hard
# one is ROADMAP's 8x8 at seed 7: LCS bound 9 against a root relaxation
# near 1, so the limit stops it.
WC_TIME_LIMIT = 2.0
WC_EASY = {(6, 6): (11, 12, 25, 34, 41, 56, 66, 69, 70, 71, 84, 85)}
WC_HARD = {(8, 8): (7,)}

BATCH_CHARS = range(4, 9)
BATCH_STEPS = range(4, 11)
BATCH_PER_SHAPE = 4
BATCH_OBJECTIVES = ("lwh", "qwh", "wigglefree", "wc-unrestricted")


@dataclass(frozen=True)
class Instance:
    name: str
    shape: tuple[int, int]
    inst: object
    params: object


@dataclass(frozen=True)
class Call:
    instance: Instance
    objective: str
    time_limit: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    largest: tuple[tuple[int, int], ...]   # shapes whose calls give largest_s
    layers: tuple[str, ...]                # span names every pass must record


def lcs_wiggle_bound(inst) -> int:
    """Minimal wiggles when only the orderings must hold (a lower bound).

    Per gap, the characters kept flat must keep their relative order, so
    a gap costs its shared characters beyond a longest common
    subsequence of the two orderings.
    """
    total = 0
    for t in inst.gaps():
        a, b = inst.orderings[t - 1], inst.orderings[t]
        shared = set(a) & set(b)
        a = [c for c in a if c in shared]
        b = [c for c in b if c in shared]
        prev = [0] * (len(b) + 1)
        for x in a:
            cur = [0]
            for j, y in enumerate(b):
                cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
            prev = cur
        total += len(a) - prev[-1]
    return total


def _generate(n: int, T: int, gen_seed: int):
    return generate_instance(n, T, seed=gen_seed, meeting_prob=MEETING_PROB)


def relabel(inst: OrderedStorylineInstance, seed: int) -> OrderedStorylineInstance:
    """The same instance with renamed, reordered characters (seed 7: as is)."""
    if seed == LADDER_SEED:
        return inst
    shuffled = list(inst.characters)
    random.Random(f"relabel/{seed}").shuffle(shuffled)
    name = {c: f"c{i}" for i, c in enumerate(shuffled)}
    return OrderedStorylineInstance(
        characters=tuple(f"c{i}" for i in range(len(shuffled))),
        time_steps=inst.time_steps,
        meetings=tuple(Meeting(m.time_step, tuple(name[c] for c in m.members))
                       for m in inst.meetings),
        activity={name[c]: span for c, span in inst.activity.items()},
        groups={},
        orderings=tuple(tuple(name[c] for c in o) for o in inst.orderings))


def _fixed(seed: int, label: str, n: int, T: int, gen_seed: int) -> Instance:
    inst, params = _generate(n, T, gen_seed)
    return Instance(f"{label}_{n}x{T}_g{gen_seed}", (n, T), relabel(inst, seed),
                    params)


def _ladder(name: str, objective: str, seed: int, shapes, layers) -> Workload:
    calls = tuple(Call(_fixed(seed, "ladder", n, T, LADDER_SEED), objective)
                  for n, T in shapes)
    return Workload(name, calls, (shapes[-1],), layers)


_COMMON = ("pipeline", "instance.load", "instance.metrics", "routing",
           "render", "solver", "simplex")


def ladder_lwh(seed: int) -> Workload:
    return _ladder("ladder-lwh", "lwh", seed,
                   ((10, 10), (15, 15), (20, 20), (25, 30)),
                   _COMMON + ("programs.build", "programs.extract"))


def ladder_qwh(seed: int) -> Workload:
    return _ladder("ladder-qwh", "qwh", seed,
                   ((10, 10), (15, 15), (20, 20)),
                   _COMMON + ("qp", "programs.build", "programs.extract"))


def wc_bnb(seed: int) -> Workload:
    calls = tuple(Call(_fixed(seed, "wc", n, T, g), "wc", WC_TIME_LIMIT)
                  for table in (WC_EASY, WC_HARD)
                  for (n, T), gens in table.items() for g in gens)
    return Workload("wc-bnb", calls, tuple(WC_HARD),
                    _COMMON + ("branch_bound", "programs.build",
                               "programs.extract"))


def batch_small(seed: int) -> Workload:
    rng = random.Random(f"batch/{LADDER_SEED}")
    calls = []
    for n in BATCH_CHARS:
        for T in BATCH_STEPS:
            for _ in range(BATCH_PER_SHAPE):
                instance = _fixed(seed, "batch", n, T, rng.randrange(1, 2**31))
                calls.extend(Call(instance, obj) for obj in BATCH_OBJECTIVES)
    largest = tuple((BATCH_CHARS[-1], T) for T in BATCH_STEPS)
    return Workload("batch-small", tuple(calls), largest,
                    _COMMON + ("qp", "wigglefree", "programs.build",
                               "programs.extract"))


WORKLOADS = {
    "ladder-lwh": ladder_lwh,
    "ladder-qwh": ladder_qwh,
    "wc-bnb": wc_bnb,
    "batch-small": batch_small,
}
