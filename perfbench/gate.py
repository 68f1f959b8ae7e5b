"""Correctness gate applied to every benchmarked call.

Reference values never come from the solver under test:

* `lwh` and `wc` optima come from scipy's HiGHS on the model the
  program builds, when `import scipy` succeeds, and from the values
  stored in `references.json` otherwise.  Both are compared once per
  run, and with the exhaustive oracle where it is affordable.
* `qwh` optima are bounded above by the integral oracle optimum where
  it is affordable.
* `wc-unrestricted` optima are the per-gap LCS bound, which is exact
  when niceness is dropped.

The oracle materialises every state of a step before it checks its
`state_limit`, so `oracle_cost` counts the states with `math.comb` first
and the oracle is only called when that count is within budget.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import numpy as np

from storywiggle.instance import neighbor_sets, stack_offsets
from storywiggle.oracle import oracle_optimum
from storywiggle.programs import EQ, GE, LE, big_y, build_lwh_program, build_wc_program

from workloads import lcs_wiggle_bound

ORACLE_BUDGET = 200_000       # largest step state count or gap transition count
KKT_TOL = 1e-6
HERE = os.path.dirname(os.path.abspath(__file__))
STORED = os.path.join(HERE, "references.json")


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(b))


def oracle_cost(inst, params) -> float:
    """States or transitions the oracle would build, whichever is larger."""
    if not params.is_integral:
        return math.inf
    cap = max(int(big_y(inst, params)) - 1, 0)
    counts = []
    for t in range(1, inst.time_steps + 1):
        order = inst.ordering_at(t)
        if not order:
            counts.append(1)
            continue
        extra = cap - int(round(stack_offsets(inst, params, t)[order[-1]]))
        if extra < 0:
            return math.inf
        meeting = set(neighbor_sets(inst, t).meeting_pairs)
        slots = 1 + sum(pair not in meeting for pair in zip(order, order[1:]))
        counts.append(math.comb(extra + slots, slots))
    pairs = [a * b for a, b in zip(counts, counts[1:])]
    return max(counts + pairs)


def oracle_value(inst, params, objective: str) -> float | None:
    if oracle_cost(inst, params) > ORACLE_BUDGET:
        return None
    return oracle_optimum(inst, params, objective,
                          state_limit=ORACLE_BUDGET).value


def highs_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


@contextlib.contextmanager
def _quiet_stdout():
    """Silence what HiGHS prints straight to file descriptor 1."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
            yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def highs_optimum(model) -> float:
    """Optimum of a linear or mixed-integer model, solved by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    pos = {v.name: i for i, v in enumerate(model.variables)}
    n, m = len(pos), len(model.constraints)
    c = np.zeros(n)
    for name, coef in model.objective.items():
        c[pos[name]] = coef
    A = np.zeros((m, n))
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    for i, row in enumerate(model.constraints):
        for name, coef in row.coeffs:
            A[i, pos[name]] += coef
        if row.sense in (GE, EQ):
            lo[i] = row.rhs
        if row.sense in (LE, EQ):
            hi[i] = row.rhs
    with _quiet_stdout():
        res = milp(c, constraints=LinearConstraint(A, lo, hi) if m else (),
                   bounds=Bounds([v.lower for v in model.variables],
                                 [v.upper for v in model.variables]),
                   integrality=[1 if v.integral else 0 for v in model.variables],
                   options={"mip_rel_gap": 0.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS on {model.name}: {res.message}")
    return float(res.fun)


def load_stored() -> dict:
    """Stored reference values by instance name (any seed: see workloads)."""
    with open(STORED, encoding="utf-8") as fh:
        return json.load(fh)


def compute_references(workload, use_highs: bool) -> dict:
    """Reference values per instance name, for the objectives it runs."""
    refs: dict[str, dict] = {}
    for call in workload.calls:
        i = call.instance
        ref = refs.setdefault(i.name, {})
        if call.objective in ("lwh", "wc") and use_highs:
            build = build_lwh_program if call.objective == "lwh" else build_wc_program
            ref[call.objective] = highs_optimum(build(i.inst, i.params)[0])
        if call.objective == "qwh":
            ref["qwh_oracle"] = oracle_value(i.inst, i.params, "qwh")
        if call.objective == "wc-unrestricted":
            ref["wc-unrestricted"] = lcs_wiggle_bound(i.inst)
    return refs


def reconcile(workload, refs: dict, stored: dict) -> list[str]:
    """Merge stored references in and cross-check every source once.

    Returns a list of disagreements; any one of them fails the run.
    """
    problems = []
    for name, ref in refs.items():
        old = stored.get(name, {})
        for key in ("lwh", "wc", "qwh_oracle"):
            if old.get(key) is None:
                continue
            if key not in ref:
                ref[key] = old[key]
            elif ref[key] is not None and not close(ref[key], old[key]):
                problems.append(f"{name}: {key} {ref[key]!r} != stored {old[key]!r}")
    by_name = {c.instance.name: c.instance for c in workload.calls}
    for name, ref in refs.items():
        i = by_name[name]
        for key in ("lwh", "wc"):
            if ref.get(key) is None:
                continue
            oracle = oracle_value(i.inst, i.params, key)
            if oracle is None:
                continue
            value = ref[key] if key == "lwh" else math.floor(ref[key] + 1e-9)
            if not close(value, oracle):
                problems.append(f"{name}: {key} reference {ref[key]!r} "
                                f"disagrees with the oracle {oracle!r}")
    return problems


def check_call(call, result, ref: dict, paths: dict[str, str]) -> list[str]:
    """Everything wrong with one call's result; empty when it is correct."""
    errors = []
    if result.exit_code not in (0, 4):
        return [f"exit code {result.exit_code}: {result.message}"]
    m = result.metrics
    status, obj = m.get("solverStatus"), m.get("objective")
    if obj is None:
        return [f"no objective (status {status})"]
    if status == "time_limit" and call.time_limit is None:
        errors.append("time_limit status without a time limit")
    if (result.exit_code == 4) != (status == "time_limit"):
        errors.append(f"exit code {result.exit_code} with status {status}")

    kind = call.objective
    if kind == "lwh":
        if not close(obj, m["linearWiggleHeight"]):
            errors.append(f"objective {obj} != linearWiggleHeight "
                          f"{m['linearWiggleHeight']}")
        if ref.get("lwh") is not None and not close(obj, ref["lwh"]):
            errors.append(f"objective {obj} != reference {ref['lwh']}")
    elif kind == "wc":
        if math.floor(obj + 1e-9) != m["wiggleCount"]:
            errors.append(f"floor(objective {obj}) != wiggleCount {m['wiggleCount']}")
        best = ref.get("wc")
        if best is not None:
            if status == "optimal" and not close(obj, best):
                errors.append(f"objective {obj} != reference {best}")
            if obj < best - 1e-6 * max(1.0, abs(best)):
                errors.append(f"objective {obj} below the optimum {best}")
            bound = m.get("bestBound")
            if bound is not None and bound > best + 1e-6 * max(1.0, abs(best)):
                errors.append(f"bestBound {bound} above the optimum {best}")
    elif kind == "qwh":
        kkt = m.get("kktResidual")
        if kkt is None or kkt > KKT_TOL:
            errors.append(f"kktResidual {kkt} > {KKT_TOL}")
        oracle = ref.get("qwh_oracle")
        if oracle is not None and obj > oracle + 1e-6 * max(1.0, abs(oracle)):
            errors.append(f"objective {obj} above the integral oracle {oracle}")
    elif kind == "wigglefree":
        if not (obj == m["wiggleFreeSize"] == len(m["wiggleFreeSubset"])):
            errors.append(f"objective {obj} != wiggle-free set size")
    elif kind == "wc-unrestricted":
        if obj != ref["wc-unrestricted"] or m["wiggleCount"] != obj:
            errors.append(f"objective {obj} / wiggleCount {m['wiggleCount']} "
                          f"!= LCS optimum {ref['wc-unrestricted']}")

    with open(paths["metrics"], encoding="utf-8") as fh:
        if json.load(fh) != m:
            errors.append("metrics file differs from the returned metrics")
    with open(paths["svg"], encoding="utf-8") as fh:
        if fh.read() != result.svg or not result.svg.startswith("<svg"):
            errors.append("SVG file missing or differs from the returned SVG")
    with open(paths["routing"], encoding="utf-8") as fh:
        if json.load(fh) != result.routing_report:
            errors.append("routing report file differs from the returned report")
    return errors


def is_optimal(metrics: dict | None) -> bool:
    """Proven optimal: status optimal and no remaining gap.

    Counted from the reported status and gap, never from the exit code,
    which is 0 for node and iteration limits too.  Objectives solved
    combinatorially report no gap.
    """
    if not metrics or metrics.get("solverStatus") != "optimal":
        return False
    return metrics.get("gap") in (None, 0.0)
