"""One entry point for all model solves, built-in or external.

`solve_model` inspects the model (quadratic? integral? rows all
differences?) and dispatches to the matching built-in solver.  The
`external:<command>` backend instead round-trips through the LP file
format: the command is invoked as `<command> in.lp out.sol` and must
write a solution file of the shape

    status optimal
    objective 12.5
    y_t1_c0 3
    ...

`python3 -m storywiggle.lpsolve` is such a command (it applies the
built-in solvers), so the round trip can be exercised without any third
party installs.
"""

from __future__ import annotations

import math
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum

from .branch_bound import solve_ilp
from .lp_format import write_lp
from .network import difference_form, solve_network
from .programs import ModelError, OptimizationModel, compile_model
from .qp import solve_qp
from .simplex import solve_lp


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"


_STATUS = {s.value: s for s in SolveStatus}


def default_backend() -> str:
    return os.environ.get("STORYWIGGLE_BACKEND", "builtin")


@dataclass
class SolverConfig:
    backend: str = field(default_factory=default_backend)
    time_limit: float | None = None
    node_limit: int = 200000


@dataclass
class SolveResult:
    status: SolveStatus
    assignment: dict[str, float] | None
    objective: float | None
    best_bound: float | None
    gap: float | None
    duals: dict[str, float] | None
    kkt: dict[str, float] | None
    stats: dict[str, float] = field(default_factory=dict)


def solve_model(model: OptimizationModel, config: SolverConfig | None = None, *,
                warm: tuple[dict[str, float], ...] = ()) -> SolveResult:
    """Minimize `model`, honoring integrality and quadratic terms."""
    config = config or SolverConfig()
    start = time.perf_counter()
    if config.backend.startswith("external:"):
        result = _solve_external(model, config)
    elif config.backend == "builtin":
        result = _solve_builtin(model, config, warm)
    else:
        raise ModelError(f"unknown backend {config.backend!r}")
    result.stats["solve_seconds"] = time.perf_counter() - start
    return result


def _solve_builtin(model: OptimizationModel, config: SolverConfig,
                   warm: tuple[dict[str, float], ...]) -> SolveResult:
    if model.quadratic:
        if model.is_integer_program():
            raise ModelError("integral variables with a quadratic objective")
        r = solve_qp(model, warm=warm[0] if warm else None,
                     time_limit=config.time_limit)
        return _continuous(r, r.kkt, newton_steps=r.newton_steps,
                           ray_steps=r.ray_steps, zero_steps=r.zero_steps,
                           null_dim=r.null_dim)
    if model.is_integer_program():
        r = solve_ilp(model, warm=warm, node_limit=config.node_limit,
                      time_limit=config.time_limit)
        gap = r.gap if r.objective is not None else None
        return SolveResult(_STATUS[r.status], r.x, r.objective, r.best_bound,
                           gap, None, None, {"nodes": r.nodes})
    cm = compile_model(model)
    form = difference_form(cm)
    if form is not None:
        r = solve_network(cm, form, time_limit=config.time_limit)
        return _continuous(r, None, degenerate_pivots=r.degenerate_pivots)
    return _continuous(solve_lp(cm, time_limit=config.time_limit), None)


def _continuous(r, kkt: dict[str, float] | None, **counters: int) -> SolveResult:
    """An LP or QP result; only a proven optimum bounds the objective."""
    optimal = r.status == "optimal"
    return SolveResult(_STATUS[r.status], r.x, r.objective,
                       r.objective if optimal else None, 0.0 if optimal else None,
                       r.duals, kkt, {"iterations": r.iterations, **counters})


def _solve_external(model: OptimizationModel, config: SolverConfig) -> SolveResult:
    command = shlex.split(config.backend.split(":", 1)[1])
    with tempfile.TemporaryDirectory(prefix="storywiggle_") as tmp:
        lp_path = os.path.join(tmp, "in.lp")
        sol_path = os.path.join(tmp, "out.sol")
        with open(lp_path, "w", encoding="utf-8") as fh:
            fh.write(write_lp(model))
        try:
            proc = subprocess.run(command + [lp_path, sol_path],
                                  capture_output=True, text=True,
                                  timeout=config.time_limit)
        except subprocess.TimeoutExpired:
            return SolveResult(SolveStatus.TIME_LIMIT, None, None, None, None,
                               None, None)
        if proc.returncode != 0:
            raise ModelError(
                f"external solver failed ({proc.returncode}): {proc.stderr.strip()}")
        with open(sol_path, "r", encoding="utf-8") as fh:
            result = _parse_solution(fh.read())
    if result.assignment is not None:
        missing = set(model.variable_names()) - result.assignment.keys()
        if missing:
            raise ModelError(f"solution file has no value for {min(missing)}")
    return result


def _parse_solution(text: str) -> SolveResult:
    status: SolveStatus | None = None
    objective: float | None = None
    assignment: dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        try:
            key, value = parts
            if key == "status":
                status = _STATUS[value]
            elif key == "objective":
                objective = float(value)
            else:
                assignment[key] = float(value)
        except (KeyError, ValueError):
            raise ModelError(f"bad solution line {line!r}") from None
    if status is None:
        raise ModelError("solution file has no status line")
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, None, objective, objective, None, None, None)
    return SolveResult(status, assignment, objective, objective, 0.0, None, None)


def write_solution(path: str, result: SolveResult) -> None:
    """Persist a result in the format `_parse_solution` reads."""
    lines = [f"status {result.status.value}"]
    if result.objective is not None:
        lines.append(f"objective {result.objective!r}")
    for name, value in (result.assignment or {}).items():
        lines.append(f"{name} {value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
