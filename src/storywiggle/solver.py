"""One entry point for all model solves, built-in or external.

`solve_model` inspects the model (quadratic? integral? a network LP in
`network.difference_form`?) and dispatches to the matching built-in
solver.  The `external:<command>` backend instead round-trips through
the LP file format: the command is invoked as `<command> in.lp out.sol`
and must write a solution file of the shape

    status optimal
    objective 12.5
    y_t1_c0 3
    ...

`python3 -m storywiggle.lpsolve` is such a command (it applies the
built-in solvers), so the round trip can be exercised without any third
party installs.

Every built-in solver returns the `SolveResult` of `programs` (see
there), so `_solve_builtin` only dispatches.  `solve_model` returns a copy
that adds `solve_seconds` to `stats` and, for an integer program without
an incumbent, has no gap; the solver's own result is never changed.  An
external solution file gives its status and objective, which is also the
bound, and, only when optimal, its assignment.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, replace

from .branch_bound import solve_ilp
from .lp_format import write_lp
from .network import difference_form, solve_network
from .programs import (ModelError, OptimizationModel, SolveResult, SolveStatus,
                       compile_model)
from .qp import solve_qp
from .simplex import solve_lp


# subprocess waits poll in whole milliseconds held in a C int; a longer
# limit, inf included, waits with no timeout
_MAX_TIMEOUT = (2 ** 31 - 1) / 1000.0


def default_backend() -> str:
    return os.environ.get("STORYWIGGLE_BACKEND", "builtin")


@dataclass
class SolverConfig:
    backend: str = field(default_factory=default_backend)
    time_limit: float | None = None


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
    return replace(result, stats={**result.stats,
                                  "solve_seconds": time.perf_counter() - start})


def _solve_builtin(model: OptimizationModel, config: SolverConfig,
                   warm: tuple[dict[str, float], ...]) -> SolveResult:
    if model.quadratic:
        if model.is_integer_program():
            raise ModelError("integral variables with a quadratic objective")
        return solve_qp(model, warm=warm[0] if warm else None,
                        time_limit=config.time_limit)
    if model.is_integer_program():
        r = solve_ilp(model, warm=warm, time_limit=config.time_limit)
        return r if r.objective is not None else replace(r, gap=None)
    cm = compile_model(model)
    form = difference_form(cm)
    if form is not None and form.is_network_lp(cm):
        return solve_network(cm, form, time_limit=config.time_limit)
    return solve_lp(cm, time_limit=config.time_limit)


def _solve_external(model: OptimizationModel, config: SolverConfig) -> SolveResult:
    model.validate()        # the LP writer has no text for a non-finite number
    command = shlex.split(config.backend.split(":", 1)[1])
    with tempfile.TemporaryDirectory(prefix="storywiggle_") as tmp:
        lp_path = os.path.join(tmp, "in.lp")
        sol_path = os.path.join(tmp, "out.sol")
        with open(lp_path, "w", encoding="utf-8") as fh:
            fh.write(write_lp(model))
        limit = config.time_limit
        timeout = limit if limit is not None and limit <= _MAX_TIMEOUT else None
        try:
            proc = subprocess.run(command + [lp_path, sol_path],
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return SolveResult(SolveStatus.TIME_LIMIT)
        if proc.returncode != 0:
            raise ModelError(
                f"external solver failed ({proc.returncode}): {proc.stderr.strip()}")
        with open(sol_path, "r", encoding="utf-8") as fh:
            result = _parse_solution(fh.read())
    if result.x is not None:
        missing = set(model.variable_names()) - result.x.keys()
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
                status = SolveStatus(value)
            elif key == "objective":
                objective = float(value)
            else:
                assignment[key] = float(value)
        except ValueError:
            raise ModelError(f"bad solution line {line!r}") from None
    if status is None:
        raise ModelError("solution file has no status line")
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(status, None, objective, objective)
    return SolveResult(status, assignment, objective)


def write_solution(path: str, result: SolveResult) -> None:
    """Persist a result in the format `_parse_solution` reads."""
    lines = [f"status {result.status.value}"]
    if result.objective is not None:
        lines.append(f"objective {result.objective!r}")
    for name, value in (result.x or {}).items():
        lines.append(f"{name} {value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
