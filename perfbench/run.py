"""Benchmark of `storywiggle.pipeline.run_pipeline` over seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-lwh --seed 7 --seconds 25 --trace 0

The workload's instances are generated from `--seed` and written to
files, which is all the program sees.  Complete passes over the
workload's calls are repeated for `--seconds` (at least one pass; a
traced run makes one untraced pass and at least two traced ones).  Every
call's output is checked by `gate.check_call`.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics from spans with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-out"
BLAS_THREADS = 1          # pinned for every benchmark process and its children
SETUP_SAMPLES = 3         # set-ups timed in fresh processes for setup_s
TAIL_BEYOND = 10          # layout_s_tail: calls that must lie beyond it
MAX_PASSES = 10           # keeps a ladder's tail percentile on one rung
WARMUP_SHAPE = (5, 5)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


class Bench:
    """One workload set up in a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        from storywiggle.generate import generate_instance
        from storywiggle.instance import save_instance
        from storywiggle.pipeline import RunConfig, run_pipeline

        import gate
        import workloads

        self.run_pipeline = run_pipeline
        self.wl = workloads.WORKLOADS[workload](seed)
        written: dict[str, str] = {}
        for call in self.wl.calls:
            i = call.instance
            if i.name not in written:
                written[i.name] = str(workdir / f"{i.name}.json")
                save_instance(written[i.name], i.inst, i.params)
        self.configs, self.outputs = [], []
        for k, call in enumerate(self.wl.calls):
            out = {"svg": str(workdir / f"out{k}.svg"),
                   "metrics": str(workdir / f"out{k}.metrics.json"),
                   "routing": str(workdir / f"out{k}.routing.json")}
            self.outputs.append(out)
            self.configs.append(RunConfig(
                written[call.instance.name], objective=call.objective,
                svg_path=out["svg"], metrics_path=out["metrics"],
                routing_report_path=out["routing"], time_limit=call.time_limit))

        self.highs = gate.highs_available()
        self.refs = gate.compute_references(self.wl, self.highs)
        self.problems = gate.reconcile(self.wl, self.refs, gate.load_stored())

        # one untimed call per objective absorbs first-call costs
        inst, params = generate_instance(*WARMUP_SHAPE, seed=seed, meeting_prob=0.5)
        warm_path = str(workdir / "warmup.json")
        save_instance(warm_path, inst, params)
        for objective in sorted({c.objective for c in self.wl.calls}):
            run_pipeline(RunConfig(warm_path, objective=objective,
                                   svg_path=str(workdir / "warmup.svg"),
                                   metrics_path=str(workdir / "warmup.metrics.json"),
                                   routing_report_path=str(workdir / "warmup.routing.json"),
                                   time_limit=self.wl.calls[0].time_limit))

    def run_pass(self, tracer=None) -> tuple[float, list[float], list]:
        """Run every call once; returns pass wall time, call times, results."""
        clock = time.perf_counter
        times, results = [], []
        start = clock()
        for config in self.configs:
            t = clock()
            try:
                if tracer is None:
                    r = self.run_pipeline(config)
                else:
                    r = tracer.run("pipeline", self.run_pipeline, config)
            except Exception as e:  # a crash is a failed call, not a stop
                r = e
            times.append(clock() - t)
            results.append(r)
        return clock() - start, times, results


class Checker:
    """Applies the correctness gate and counts attempts and failures."""

    def __init__(self, bench: Bench) -> None:
        import gate
        self.gate = gate
        self.bench = bench
        self.attempted = self.failed = self.optimal = 0
        self.first_objectives: list | None = None
        self.errors: list[str] = []

    def check(self, results: list) -> None:
        wl, refs = self.bench.wl, self.bench.refs
        objectives = []
        for k, (call, r) in enumerate(zip(wl.calls, results)):
            self.attempted += 1
            if isinstance(r, Exception):
                errs = ["".join(traceback.format_exception_only(type(r), r)).strip()]
                objectives.append(None)
            else:
                errs = self.gate.check_call(call, r, refs[call.instance.name],
                                            self.bench.outputs[k])
                self.optimal += self.gate.is_optimal(r.metrics)
                m = r.metrics or {}
                limited = m.get("solverStatus") == "time_limit"
                objectives.append(None if limited else m.get("objective"))
            if self.first_objectives is not None:
                before = self.first_objectives[k]
                if None not in (before, objectives[k]) and before != objectives[k]:
                    errs.append(f"objective {objectives[k]!r} differs from the "
                                f"first pass {before!r}")
            if errs:
                self.failed += 1
                self.errors.append(f"{call.instance.name} {call.objective}: "
                                   + "; ".join(errs))
        if self.first_objectives is None:
            self.first_objectives = objectives


def measure(seconds: float, min_passes: int, one_pass) -> list[float]:
    """Repeat passes while the next one is expected to fit in `seconds`.

    At most MAX_PASSES: with more, the calls beyond `layout_s_tail` on
    `ladder-qwh` would all be 20x20 calls, and the tail would jump from
    the 15x15 rung to the 20x20 rung whenever the machine runs fast.
    """
    walls: list[float] = []
    begin = time.perf_counter()
    while len(walls) < MAX_PASSES:
        walls.append(one_pass())
        elapsed = time.perf_counter() - begin
        if len(walls) >= min_passes and elapsed + walls[-1] > seconds:
            break
    return walls


def tail(samples: list[float]) -> tuple[str, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value.

    With too few samples for such a percentile above the median, the
    median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND                      # 1-based
    if rank <= n // 2:
        return "median (too few calls for a tail)", statistics.median(xs)
    return f"p{100.0 * rank / n:.1f}", xs[rank - 1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of complete set-ups in fresh processes, start to ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=str(ROOT))
        samples.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, check: Checker, walls, pass_times, setups) -> dict:
    wl = bench.wl
    times = [t for ts in pass_times for t in ts]
    n = len(times)
    on_largest = defaultdict(list)        # instance name -> call indices
    for k, call in enumerate(wl.calls):
        if call.instance.shape in wl.largest:
            on_largest[call.instance.name].append(k)
    largest = [statistics.median(sum(ts[k] for k in ks) for ks in on_largest.values())
               for ts in pass_times]
    which, tail_value = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shapes = ", ".join("x".join(map(str, shape)) for shape in wl.largest)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"median of {len(walls)} passes of {len(wl.calls)} calls",
        "layout_s_p50": f"median over n={n} calls",
        "layout_s_tail": f"{which} over n={n} calls",
        "largest_s": f"median of {len(largest)} passes of the median time "
                     f"per instance over {len(on_largest)} instances of {shapes}",
        "optimal_frac": f"{check.optimal}/{check.attempted} calls optimal with gap 0",
        "error_frac": f"{check.failed}/{check.attempted} calls failed",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    values = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "layout_s_p50": metric(statistics.median(times), "s"),
        "layout_s_tail": metric(tail_value, "s"),
        "largest_s": metric(statistics.median(largest), "s"),
        "optimal_frac": metric(check.optimal / check.attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    shown = dict(values, error_frac=metric(check.failed / check.attempted, "ratio"))
    for name, v in shown.items():
        print(f"{name:<14} {v['value']:>12.6g} {v['unit']:<6} {notes[name]}")
    return values


def pass_layers(tracer, bench: Bench, first_call: int, results: list) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus exact counters per call.

    Counters sum over calls that finished within their limits, so they
    repeat exactly; times cover every call.
    """
    import tracer as tr

    spans = tracer.spans
    counters = tr.span_counters(tracer)
    wl = bench.wl
    limited = set()
    for k, r in enumerate(results):
        if not isinstance(r, Exception) and r.metrics \
                and r.metrics.get("solverStatus") == "time_limit":
            limited.add(first_call + k)

    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def parent(i):
        p = spans[i].parent
        return spans[p].name if p >= 0 else None

    def total(idx):
        return sum(spans[i].duration for i in idx)

    def self_total(name):
        return sum(tracer.self_time(spans[i]) for i in by[name])

    def exact(idx, key):
        return sum(counters[i].get(key) or 0 for i in idx
                   if spans[i].call not in limited)

    m: dict[str, dict] = {}
    simplex = by["simplex"]
    all_pivots = sum(counters[i].get("pivots", 0) for i in simplex)
    m["simplex.calls"] = metric(sum(spans[i].call not in limited for i in simplex), "count")
    m["simplex.pivots"] = metric(exact(simplex, "pivots"), "count")
    m["simplex.s"] = metric(total(simplex), "s")
    m["simplex.ms_per_pivot"] = metric(
        1000 * total(simplex) / all_pivots if all_pivots else 0.0, "ms")
    m["simplex.tableau_mb_max"] = metric(
        max((counters[i]["tableau_mb"] for i in simplex), default=0.0), "MB")

    bnb = by["branch_bound"]
    node_lps = [i for i in simplex if parent(i) == "branch_bound"]
    all_nodes = sum(counters[i].get("nodes", 0) for i in bnb)
    exact_lps = [i for i in node_lps if spans[i].call not in limited]
    m["branch_bound.nodes"] = metric(exact(bnb, "nodes"), "count")
    m["branch_bound.limited_nodes"] = metric(all_nodes - exact(bnb, "nodes"), "count")
    m["branch_bound.s"] = metric(total(bnb), "s")
    m["branch_bound.ms_per_node"] = metric(
        1000 * total(bnb) / all_nodes if all_nodes else 0.0, "ms")
    m["branch_bound.infeasible_node_frac"] = metric(
        sum(counters[i]["status"] == "infeasible" for i in exact_lps) / len(exact_lps)
        if exact_lps else 0.0, "ratio")
    largest_bnb = [i for i in bnb
                   if wl.calls[spans[i].call - first_call].instance.shape in wl.largest]
    root_bound = final_gap = 0.0
    if largest_bnb:
        b = largest_bnb[0]
        first_lp = next((c for c in spans[b].children if spans[c].name == "simplex"), None)
        if first_lp is not None and counters[first_lp].get("objective") is not None:
            root_bound = counters[first_lp]["objective"]
        final_gap = counters[b].get("gap") or 0.0
    m["branch_bound.root_bound"] = metric(root_bound, "objective")
    m["branch_bound.final_gap"] = metric(final_gap, "ratio")
    overruns = []
    for root in by["pipeline"]:
        call = spans[root].call
        if call not in limited:
            continue
        solves = [c for c in spans[root].children if spans[c].name == "solver"]
        limit = wl.calls[call - first_call].time_limit
        overruns.append(spans[solves[-1]].end - spans[solves[0]].start - limit)
    m["branch_bound.limit_overrun_s"] = metric(max(overruns, default=0.0), "s")

    qp = by["qp"]
    all_iters = sum(counters[i].get("iterations", 0) for i in qp)
    m["qp.iterations"] = metric(exact(qp, "iterations"), "count")
    m["qp.s"] = metric(total(qp), "s")
    m["qp.ms_per_iteration"] = metric(
        1000 * total(qp) / all_iters if all_iters else 0.0, "ms")
    m["qp.probe_lps"] = metric(sum(parent(i) == "qp" for i in simplex), "count")

    m["solver.calls"] = metric(len(by["solver"]), "count")
    m["solver.self_s"] = metric(self_total("solver"), "s")
    m["programs.build_s"] = metric(total(by["programs.build"]), "s")
    m["programs.extract_s"] = metric(total(by["programs.extract"]), "s")
    m["programs.warm_s"] = metric(total(by["programs.warm"]), "s")
    m["programs.vars"] = metric(exact(by["programs.build"], "vars"), "count")
    m["programs.rows"] = metric(exact(by["programs.build"], "rows"), "count")
    m["instance.load_s"] = metric(total(by["instance.load"]), "s")
    m["instance.metrics_s"] = metric(total(by["instance.metrics"]), "s")
    m["instance.stack_s"] = metric(total(by["instance.stack"]), "s")
    m["wigglefree.self_s"] = metric(self_total("wigglefree"), "s")

    routing = by["routing"]
    routing_lps = [i for i in by["solver"] if parent(i) == "routing"]
    m["routing.s"] = metric(total(routing), "s")
    m["routing.lps"] = metric(len(routing_lps), "count")
    m["routing.lp_s"] = metric(total(routing_lps), "s")
    m["routing.self_s"] = metric(self_total("routing"), "s")
    m["routing.dropped_pairs"] = metric(exact(routing, "dropped"), "count")
    m["render.s"] = metric(total(by["render"]), "s")
    m["render.svg_kb"] = metric(exact(by["render"], "svg_bytes") / 1024, "kB")
    m["pipeline.self_s"] = metric(self_total("pipeline"), "s")
    m["trace.spans"] = metric(len(spans), "count")

    # exact counters of each call, compared across passes
    per_call: dict[int, list] = defaultdict(lambda: [0] * 8)
    keys = ("pivots", "nodes", "iterations", "vars", "rows", "dropped", "svg_bytes")
    for i, s in enumerate(spans):
        if s.call in limited:
            continue
        row = per_call[s.call - first_call]
        for j, key in enumerate(keys):
            row[j] += counters[i].get(key) or 0
        row[7] += s.name == "solver" and parent(i) == "routing"
    missing = [name for name in wl.layers if not by[name]]
    dims = {}                             # model size and pivots of each call
    for root in by["pipeline"]:
        children = spans[root].children
        builds = [c for c in children if spans[c].name == "programs.build"]
        lps = [g for c in children if spans[c].name == "solver"
               for g in spans[c].children if spans[g].name == "simplex"]
        if builds:
            name = wl.calls[spans[root].call - first_call].instance.name
            dims[name] = (counters[builds[0]]["vars"], counters[builds[0]]["rows"],
                          sum(counters[g].get("pivots", 0) for g in lps))
    return m, {"per_call": dict(per_call), "missing": missing, "dims": dims,
               "records": [(s, c) for s, c in zip(spans, counters)]}


ROADMAP_LWH = {"ladder_10x10_g7": (74, 96, None), "ladder_25x30_g7": (601, 859, 1196)}


def traced_run(bench: Bench, check: Checker, seconds: float, args) -> tuple[dict, list[str]]:
    import tracer as tr

    problems = []
    untraced_wall, _, results = bench.run_pass()
    check.check(results)
    tracer = tr.Tracer()
    passes, lines = [], []
    tracer.install()

    def one_pass():
        first = tracer.call + 1
        wall, _, results = bench.run_pass(tracer)
        check.check(results)
        layers, info = pass_layers(tracer, bench, first, results)
        for s, c in info.pop("records"):
            lines.append(json.dumps({"name": s.name, "call": s.call, "parent": s.parent,
                                     "start": s.start, "end": s.end, **c}))
        tr.release(tracer)
        passes.append((wall, layers, info))
        tracer.spans.clear()
        return wall

    try:
        walls = measure(max(seconds - untraced_wall, 0.0), 2, one_pass)
    finally:
        tracer.uninstall()
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    layers = {}
    for name, first in passes[0][1].items():
        values = [p[1][name]["value"] for p in passes]
        layers[name] = metric(statistics.median(values), first["unit"])
    overhead = statistics.median(walls) - untraced_wall
    layers["trace.overhead_s"] = metric(overhead, "s")

    for _, _, info in passes:
        if info["missing"]:
            problems.append(f"layers with no span in a pass: {info['missing']}")
        if info["per_call"] != passes[0][2]["per_call"]:
            problems.append("exact counters differ between two traced passes")
    if args.seed == 7 and args.workload == "ladder-lwh":
        dims = passes[0][2]["dims"]
        for name, want in ROADMAP_LWH.items():
            got = dims.get(name)
            shown = tuple(g if w is not None else None for g, w in zip(got, want))
            print(f"ROADMAP check {name}: vars/rows/pivots {shown} "
                  f"(ROADMAP {want}) {'match' if shown == want else 'DIFFERS'}")

    for name, v in layers.items():
        print(f"{name:<34} {v['value']:>12.6g} {v['unit']}")
    print(f"traced passes {len(walls)}, untraced pass {untraced_wall:.3f} s, "
          f"spans written to {trace_path.relative_to(ROOT)}")
    return layers, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "storywiggle" / "__init__.py").is_file():
        print(f"perfbench: no storywiggle sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} blas_threads={BLAS_THREADS} "
              f"highs={'yes' if bench.highs else 'no (scipy missing)'}")
        check = Checker(bench)
        problems = list(bench.problems)
        if args.trace:
            metrics, more = traced_run(bench, check, args.seconds, args)
            problems += more
        else:
            setups = setup_seconds(args.workload, args.seed)
            pass_times = []

            def one_pass():
                wall, times, results = bench.run_pass()
                check.check(results)
                pass_times.append(times)
                return wall

            walls = measure(args.seconds, 1, one_pass)
            metrics = end_to_end(bench, check, walls, pass_times, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in check.errors[:20] + problems:
        print(f"FAILED {line}")
    correct = check.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
