"""Command line entry point."""

from __future__ import annotations

import argparse
import json
import sys

from .pipeline import OBJECTIVES, PipelineResult, RunConfig, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storywiggle",
        description="Lay out storyline curves with minimal wiggling.")
    parser.add_argument("--input", required=True,
                        help="instance file (JSON)")
    parser.add_argument("--objective", default="lwh", choices=OBJECTIVES,
                        help="what to minimize (default: lwh)")
    parser.add_argument("--delta", type=float, default=None,
                        help="override the meeting distance")
    parser.add_argument("--delta-bar", type=float, default=None,
                        help="override the minimum free distance")
    parser.add_argument("--rmin", type=float, default=None,
                        help="minimum arc radius, in (0, 2**53] "
                             "(default: delta / 2)")
    parser.add_argument("--svg", default=None, metavar="PATH",
                        help="write the rendered layout here")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the metrics JSON here")
    parser.add_argument("--routing-report", default=None, metavar="PATH",
                        help="write the per-gap routing report here")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="non-negative solver time limit in seconds; "
                             "inf means none")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check the optimum against the "
                             "exhaustive reference (small instances only)")
    parser.add_argument("--compare", action="store_true",
                        help="score all objectives on one instance and "
                             "print a comparison table")
    parser.add_argument("--backend", default=None,
                        help="solver backend (default: builtin, or "
                             "STORYWIGGLE_BACKEND)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        input_path=args.input,
        objective=args.objective,
        delta=args.delta,
        delta_bar=args.delta_bar,
        r_min=args.rmin,
        svg_path=args.svg,
        metrics_path=args.metrics,
        routing_report_path=args.routing_report,
        time_limit=args.time_limit,
        check_oracle=args.oracle,
        compare=args.compare,
        backend=args.backend,
    )
    result = run_pipeline(config)
    _report(result)
    return result.exit_code


def _report(result: PipelineResult) -> None:
    if result.message is not None:
        stream = sys.stdout if result.exit_code == 0 else sys.stderr
        print(result.message, file=stream)
    if result.exit_code == 0 and result.metrics is not None \
            and "layouts" not in result.metrics:
        print(json.dumps(result.metrics, indent=2, sort_keys=True))


if __name__ == "__main__":
    raise SystemExit(main())
