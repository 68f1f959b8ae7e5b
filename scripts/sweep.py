"""Run every benchmark call and stored instance once; fingerprint the artifacts.

    python3 scripts/sweep.py --out NEW.json [--against OLD.json]

Every call of the four `perfbench` workloads at seed 7, and every
`instances/*.json` under every objective, runs through `run_pipeline`
with no time limit, so each call is deterministic.  The manifest maps
each call to its exit code and the SHA-256 of its SVG, its routing
report and its metrics without `solveSeconds`.  With `--against`, the
calls whose entries differ from an earlier manifest are listed, and the
exit code is 1 if any do.  Two checkouts give the same results when the
manifest of one, checked against the other's, lists no call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"           # as the benchmark pins them
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from storywiggle.instance import save_instance  # noqa: E402
from storywiggle.pipeline import OBJECTIVES, RunConfig, run_pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def calls(workdir: Path):
    """(name, instance path, objective) of every call, in a fixed order."""
    for wl_name, make in WORKLOADS.items():
        for k, call in enumerate(make(SEED).calls):
            path = workdir / f"{call.instance.name}.json"
            if not path.exists():
                save_instance(str(path), call.instance.inst, call.instance.params)
            yield f"{wl_name}/{k}/{call.instance.name}/{call.objective}", path, \
                call.objective
    for path in sorted((ROOT / "instances").glob("*.json")):
        for objective in OBJECTIVES:
            yield f"instances/{path.stem}/{objective}", path, objective


def fingerprint(path: Path, drop: str | None = None) -> str | None:
    if not path.exists():
        return None
    data = path.read_bytes()
    if drop is not None:
        doc = json.loads(data)
        doc.pop(drop, None)
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(path: Path, objective: str, workdir: Path) -> dict:
    out = {kind: workdir / f"out.{kind}" for kind in ("svg", "routing", "metrics")}
    for p in out.values():
        p.unlink(missing_ok=True)
    result = run_pipeline(RunConfig(
        str(path), objective=objective, svg_path=str(out["svg"]),
        metrics_path=str(out["metrics"]),
        routing_report_path=str(out["routing"])))
    return {"exit": result.exit_code, "svg": fingerprint(out["svg"]),
            "routing": fingerprint(out["routing"]),
            "metrics": fingerprint(out["metrics"], drop="solveSeconds")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="manifest to write")
    parser.add_argument("--against", default=None,
                        help="earlier manifest to compare with")
    args = parser.parse_args(argv)
    manifest = {}
    with tempfile.TemporaryDirectory(prefix="sweep_") as tmp:
        workdir = Path(tmp)
        for name, path, objective in calls(workdir):
            manifest[name] = run(path, objective, workdir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(manifest)} calls written to {args.out}")
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        old = json.load(fh)
    differ = sorted(k for k in manifest.keys() | old.keys()
                    if manifest.get(k) != old.get(k))
    for name in differ:
        print(f"differs: {name}: {old.get(name)} -> {manifest.get(name)}")
    print(f"{len(differ)} of {len(manifest)} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
