"""End-to-end runs: load, optimize, route, render, report.

The pipeline owns the exit-code contract of the command line tool:

    0  success
    1  oracle cross-check requested and failed
    2  unreadable or invalid input (also bad flag combinations)
    3  the instance admits no layout under the requested objective
    4  a time limit stopped the solve (artifacts from the incumbent,
       when one exists, are still written)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

from .instance import (Coordination, LayoutMetrics,
                       NicenessParams, OrderedStorylineInstance,
                       centered_stack_coordination, compute_metrics,
                       load_instance, minimal_stack_coordination)
from .oracle import OracleLimitError, oracle_optimum
from .programs import (ModelError, assignment_from_coordination, big_y,
                       build_lwh_program, build_qwh_program, build_wc_program,
                       extract_coordination, objective_value)
from .render import RenderStyle, render_svg
from .routing import RoutingPlan, route_all_gaps
from .solver import SolveStatus, SolverConfig, solve_model
from .wigglefree import max_wiggle_free_set, unrestricted_wc_min

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_TIME = 4           # a time, node or iteration limit stopped the solver

_LIMITS = (SolveStatus.TIME_LIMIT, SolveStatus.NODE_LIMIT,
           SolveStatus.ITERATION_LIMIT)

OBJECTIVES = ("wc", "lwh", "qwh", "wigglefree", "wc-unrestricted")


@dataclass
class RunConfig:
    input_path: str
    objective: str = "lwh"
    delta: float | None = None
    delta_bar: float | None = None
    r_min: float | None = None            # default: half of delta
    svg_path: str | None = None
    metrics_path: str | None = None
    routing_report_path: str | None = None
    time_limit: float | None = None
    check_oracle: bool = False
    compare: bool = False
    backend: str | None = None
    style: RenderStyle = field(default_factory=RenderStyle)


@dataclass
class PipelineResult:
    exit_code: int
    metrics: dict | None = None
    svg: str | None = None
    routing_report: dict | None = None
    message: str | None = None


def _solver_config(config: RunConfig) -> SolverConfig:
    kwargs = {"time_limit": config.time_limit}
    if config.backend is not None:
        kwargs["backend"] = config.backend
    return SolverConfig(**kwargs)


def _solve_objective(inst: OrderedStorylineInstance, params: NicenessParams,
                     objective: str, solver_config: SolverConfig, *,
                     lwh_coord: Coordination | None = None,
                     ) -> tuple[SolveStatus, Coordination | None, float | None, dict]:
    """Coordination and reporting extras for one objective.

    `wc` is warm-started from an optimal `lwh` layout: `lwh_coord` when
    the caller already has one, otherwise it is solved here.
    """
    extras: dict = {}
    if objective == "wigglefree":
        r = max_wiggle_free_set(inst, params, solver_config)
        extras["wiggleFreeSize"] = r.size
        extras["wiggleFreeSubset"] = list(r.subset)
        return r.status, r.coordination, float(r.size), extras
    if objective == "wc-unrestricted":
        w = unrestricted_wc_min(inst)
        extras["perGapWiggles"] = list(w.per_gap)
        return SolveStatus.OPTIMAL, w.coordination, float(w.wiggles), extras

    if objective == "lwh":
        # a difference-form LP: the network simplex takes no warm start
        model, index = build_lwh_program(inst, params)
        result = solve_model(model, solver_config)
    elif objective == "qwh":
        model, index = build_qwh_program(inst, params)
        result = solve_model(model, solver_config,
                             warm=(assignment_from_coordination(
                                 model, index,
                                 minimal_stack_coordination(inst, params)),))
        if result.kkt is not None:
            extras["kktResidual"] = max(result.kkt.values())
    elif objective == "wc":
        model, index = build_wc_program(inst, params)
        warm = [assignment_from_coordination(
            model, index, minimal_stack_coordination(inst, params))]
        if lwh_coord is None:
            lwh_model, lwh_index = build_lwh_program(inst, params)
            lwh_result = solve_model(lwh_model, solver_config)
            if lwh_result.status is SolveStatus.OPTIMAL:
                lwh_coord = extract_coordination(lwh_index,
                                                 lwh_result.assignment)
        if lwh_coord is not None:
            warm.append(assignment_from_coordination(model, index, lwh_coord))
        result = solve_model(model, solver_config, warm=tuple(warm))
        if result.assignment is not None:
            # integral spacing keeps y and h integral at every vertex (see
            # build_wc_program): drop the simplex's rounding
            exact = {**result.assignment,
                     **{v: float(round(result.assignment[v]))
                        for v in (*index.y.values(), index.h) if v}}
            value = objective_value(model, exact)
            proven = result.status is SolveStatus.OPTIMAL
            result = replace(result, assignment=exact, objective=value,
                             best_bound=value if proven else result.best_bound)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    # non-finite bounds (nothing explored yet) become null in the JSON
    if result.best_bound is not None:
        extras["bestBound"] = result.best_bound \
            if math.isfinite(result.best_bound) else None
    if result.gap is not None:
        extras["gap"] = result.gap if math.isfinite(result.gap) else None
    extras["solveSeconds"] = result.stats.get("solve_seconds", 0.0)
    if result.status is SolveStatus.OPTIMAL or result.assignment is not None:
        coord = extract_coordination(index, result.assignment)
        return result.status, coord, result.objective, extras
    return result.status, None, result.objective, extras


def _oracle_check(inst: OrderedStorylineInstance, params: NicenessParams,
                  objective: str, value: float, extras: dict) -> bool:
    try:
        oracle = oracle_optimum(inst, params, objective)
    except (OracleLimitError, ValueError) as e:
        extras["oracleError"] = str(e)
        return False
    extras["oracleValue"] = oracle.value
    if objective == "wc":
        match = math.floor(value + 1e-9) == int(oracle.value)
    elif objective == "lwh":
        match = abs(value - oracle.value) <= 1e-6
    else:
        match = value <= oracle.value + 1e-6
    extras["oracleMatch"] = match
    return match


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute one configured run and write the requested artifacts."""
    if config.objective not in OBJECTIVES:
        return PipelineResult(EXIT_INPUT,
                              message=f"unknown objective {config.objective!r}")
    if config.compare:
        return _run_compare(config)
    if config.check_oracle and config.objective not in ("wc", "lwh", "qwh"):
        return PipelineResult(
            EXIT_INPUT,
            message="oracle cross-check needs objective wc, lwh, or qwh")
    try:
        inst, params = _load(config)
    except (OSError, ValueError) as e:
        return PipelineResult(EXIT_INPUT, message=str(e))

    solver_config = _solver_config(config)
    try:
        status, coord, objective_value, extras = _solve_objective(
            inst, params, config.objective, solver_config)
    except ModelError as e:
        return PipelineResult(EXIT_INPUT, message=str(e))

    if status is SolveStatus.INFEASIBLE:
        metrics = {"solverStatus": status.value, "objective": None, **extras}
        _write_json(config.metrics_path, metrics)
        return PipelineResult(EXIT_INFEASIBLE, metrics=metrics,
                              message="no feasible layout")
    if coord is None:
        metrics = {"solverStatus": status.value, "objective": objective_value,
                   **extras}
        _write_json(config.metrics_path, metrics)
        code = EXIT_TIME if status in _LIMITS else EXIT_INFEASIBLE
        return PipelineResult(code, metrics=metrics,
                              message=f"solver stopped: {status.value}")

    r_min = config.r_min if config.r_min is not None else params.delta / 2.0
    try:
        # the limit bounds the layout solve; a layout in hand gets routed
        plan = route_all_gaps(inst, coord, r_min=r_min,
                              config=replace(solver_config, time_limit=None))
    except ModelError as e:
        return PipelineResult(EXIT_INPUT, message=str(e))
    layout = compute_metrics(inst, coord)
    metrics = {**layout.as_report(),
               "objective": objective_value,
               "solverStatus": status.value,
               "solveSeconds": extras.pop("solveSeconds", 0.0),
               **extras}

    mismatch = False
    if config.check_oracle:
        mismatch = not _oracle_check(inst, params, config.objective,
                                     objective_value, metrics)

    svg = None
    if config.svg_path is not None:
        svg = render_svg(inst, coord, plan, config.style,
                         title=os.path.basename(config.input_path))
        with open(config.svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    report = plan.report()
    if config.routing_report_path is not None:
        _write_json(config.routing_report_path, report)
    _write_json(config.metrics_path, metrics)

    if mismatch:
        return PipelineResult(EXIT_MISMATCH, metrics, svg, report,
                              "oracle cross-check failed")
    code = EXIT_TIME if status in _LIMITS else EXIT_OK
    return PipelineResult(code, metrics, svg, report)


def _load(config: RunConfig) -> tuple[OrderedStorylineInstance, NicenessParams]:
    """The instance and its spacing after the overrides.

    Raises OSError or ValueError (InstanceError among them) on bad input.
    """
    inst, params = load_instance(config.input_path)
    if config.r_min is not None and not 0 < config.r_min < math.inf:
        raise ValueError(f"rmin must be finite and positive, got {config.r_min}")
    delta = config.delta if config.delta is not None else params.delta
    delta_bar = config.delta_bar if config.delta_bar is not None else params.delta_bar
    params = NicenessParams(delta, delta_bar)
    # beyond 2**53 the layout's y-coordinates lose whole units
    if not big_y(inst, params) <= 2.0 ** 53:
        raise ValueError(f"spacing delta={delta}, deltaBar={delta_bar} puts "
                         f"layouts beyond 2**53")
    return inst, params


def compare_objectives(inst: OrderedStorylineInstance, params: NicenessParams,
                       solver_config: SolverConfig | None = None) -> dict:
    """Metrics of each objective's layout plus the stacked baseline.

    Every layout is scored on all four metrics; ratios are relative to
    the best value seen for that metric across the table (so the
    optimizing column shows 1.0 unless two layouts tie).
    """
    solver_config = solver_config or SolverConfig()
    solved = {"lwh": _solve_objective(inst, params, "lwh", solver_config)}
    lwh_status, lwh_coord = solved["lwh"][:2]
    solved["wc"] = _solve_objective(
        inst, params, "wc", solver_config,
        lwh_coord=lwh_coord if lwh_status is SolveStatus.OPTIMAL else None)
    solved["qwh"] = _solve_objective(inst, params, "qwh", solver_config)
    layouts: dict[str, LayoutMetrics] = {}
    statuses: dict[str, str] = {}
    for objective in ("wc", "lwh", "qwh"):
        status, coord, _, _ = solved[objective]
        statuses[objective] = status.value
        if coord is not None:
            layouts[objective] = compute_metrics(inst, coord)
    layouts["base"] = compute_metrics(
        inst, centered_stack_coordination(inst, params))
    statuses["base"] = "stacked"

    keys = ("wiggleCount", "linearWiggleHeight", "quadraticWiggleHeight",
            "totalHeight")
    reports = {name: m.as_report() for name, m in layouts.items()}
    best = {k: min(r[k] for r in reports.values()) for k in keys}
    table: dict = {"layouts": {}}
    for name, report in reports.items():
        row = {"solverStatus": statuses[name]}
        for k in keys:
            value = report[k]
            if best[k] > 0:
                ratio = value / best[k]
            else:
                ratio = 1.0 if value == 0 else None
            row[k] = value
            row[f"{k}Ratio"] = ratio
        table["layouts"][name] = row
    return table


def format_compare_table(table: dict) -> str:
    keys = ("wiggleCount", "linearWiggleHeight", "quadraticWiggleHeight",
            "totalHeight")
    header = ["layout".ljust(8)] + [k.rjust(24) for k in keys]
    lines = ["".join(header)]
    for name in ("wc", "lwh", "qwh", "base"):
        if name not in table["layouts"]:
            continue
        row = table["layouts"][name]
        cells = [name.ljust(8)]
        for k in keys:
            ratio = row[f"{k}Ratio"]
            shown = f"{row[k]:.3f} ({ratio:.2f}x)" if ratio is not None else \
                f"{row[k]:.3f} (n/a)"
            cells.append(shown.rjust(24))
        lines.append("".join(cells))
    return "\n".join(lines)


def _run_compare(config: RunConfig) -> PipelineResult:
    if config.svg_path is not None:
        return PipelineResult(EXIT_INPUT,
                              message="--svg cannot be combined with --compare")
    try:
        inst, params = _load(config)
    except (OSError, ValueError) as e:
        return PipelineResult(EXIT_INPUT, message=str(e))
    try:
        table = compare_objectives(inst, params, _solver_config(config))
    except ModelError as e:
        return PipelineResult(EXIT_INPUT, message=str(e))
    _write_json(config.metrics_path, table)
    return PipelineResult(EXIT_OK, metrics=table,
                          message=format_compare_table(table))


def _write_json(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
