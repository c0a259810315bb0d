"""Record the golden result of every lattice point of every workload.

    python3 bench/record_goldens.py

Runs each point once through `discord_probe.cli.execute` and writes
`bench/goldens.json`. A point that raises is recorded with its error. Rerun
only when a change is meant to alter results, and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run


def main() -> int:
    run.prepare_imports()
    from discord_probe import cli
    from spans import Tracer
    from workloads import WORKLOADS, point_key

    out_dir = run.WORK / "record"
    runner = run.PointRunner(cli, out_dir, None)
    points = {}
    t0 = time.perf_counter()
    for workload in WORKLOADS.values():
        for cfg in workload.lattice():
            key = point_key(cfg)
            if key in points:
                continue
            rec = runner.run(cfg, Tracer(), len(points))
            if rec["problems"]:
                print(f"{workload.name} {cfg['params']}: {rec['problems']}", file=sys.stderr)
                return 1
            points[key] = {"model": cfg["model"], "params": cfg["params"]}
            if rec["error"]:  # recorded as the point's expected outcome
                points[key]["error"] = rec["error"]
            else:
                points[key].update(seed=cfg["seed"], results=rec["results"])
        print(f"{workload.name}: {len(points)} points so far, "
              f"{time.perf_counter() - t0:.0f} s", flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    errors = sum("error" in p for p in points.values())
    print(f"{len(points)} points, {errors} recorded errors")
    doc = {"environment": run.environment(), "points": points}
    with open(os.path.join(os.path.dirname(__file__), "goldens.json"), "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
