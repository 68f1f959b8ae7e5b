"""Solve an LP-format file from the command line.

Usage: python3 -m storywiggle.lpsolve input.lp output.sol

Reads the model, applies the built-in solvers, and writes the solution
in the format the `external:` backend expects.  Exists so the external
backend plumbing can be exercised end to end without a third-party
solver, so it solves the models this package writes.  A file it cannot
read, an ill-formed model (one with a non-finite number, say) or a QP
outside difference form (see `qp`) makes it exit 2 with one `lpsolve:`
line.
"""

from __future__ import annotations

import sys

from .lp_format import parse_lp
from .solver import SolverConfig, solve_model, write_solution


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 -m storywiggle.lpsolve input.lp output.sol",
              file=sys.stderr)
        return 2
    try:
        with open(args[0], "r", encoding="utf-8") as fh:
            model = parse_lp(fh.read())
        write_solution(args[1], solve_model(model, SolverConfig(backend="builtin")))
    except (OSError, ValueError) as e:      # LpFormatError, ModelError
        print(f"lpsolve: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
