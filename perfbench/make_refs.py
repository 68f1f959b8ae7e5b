"""Regenerate references.json, the stored reference optima of the gate.

For every instance of every workload, the `lwh` and `wc` optima come
from scipy's HiGHS on the model the program builds, and `qwh` gets the
integral oracle optimum where the oracle is affordable.  Every value the
oracle can reach is checked against it before anything is written, and
the script stops without writing if any check fails.  The values hold
for every benchmark seed, which only renames characters.  Needs scipy.

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    if not gate.highs_available():
        print("make_refs: scipy is needed for the HiGHS references", file=sys.stderr)
        return 2
    stored: dict[str, dict] = {}
    for name, build in workloads.WORKLOADS.items():
        wl = build(workloads.LADDER_SEED)
        refs = gate.compute_references(wl, use_highs=True)
        problems = gate.reconcile(wl, refs, {})
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        for inst, ref in refs.items():
            stored.setdefault(inst, {}).update(
                (k, v) for k, v in ref.items()
                if k in ("lwh", "wc", "qwh_oracle") and v is not None)
        print(f"{name}: {len(refs)} instances")
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(stored.items()) if v]
    (HERE / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
