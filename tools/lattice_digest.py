"""One sha256 per benchmark lattice point, to compare the output of two trees.

Runs every lattice point of the workloads in `bench/workloads.py` (known
failures included) through `discord_probe.cli.execute` of this tree's `src/`,
with one BLAS thread, and prints one line per point:

    <workload> <index> <point key> <sha256 of the files the point wrote>

or, for a point that raises, the error's type and text in place of the
digest. The digest covers each written file's name and bytes, in name order,
so two trees print the same lines when every point writes the same files to
the byte and raises the same errors:

    python tools/lattice_digest.py > before.txt   # in one checkout
    python tools/lattice_digest.py > after.txt    # in the other
    diff before.txt after.txt

To look at one point's files, write its config (`WORKLOADS[name].lattice()[index]`)
to a YAML file and run it with `discord-probe run`.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the bits can depend on it

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from discord_probe import cli  # noqa: E402
from workloads import WORKLOADS, point_key  # noqa: E402


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        for name, workload in WORKLOADS.items():
            for i, cfg in enumerate(workload.lattice()):
                out_dir, key = Path(scratch, name, f"{i:04d}"), point_key(cfg)
                try:
                    cli.execute(cfg, str(out_dir))
                    line = digest(out_dir)
                except Exception as exc:  # reported, and the next point runs
                    line = f"error {type(exc).__name__}: {exc}"
                print(name, i, key, line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
