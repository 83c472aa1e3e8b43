"""Benchmark of sensconn's update -> query -> rollback cycle.

    python3 perfbench/run.py --workload fd-churn --seed 1 --seconds 10 --trace 0

Runs one workload against the sources under ``src/`` of the checkout this
file sits in, checks every answer, and prints, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones, and the spans are written to ``.perfbench_out/``.
Workloads, metrics and their meaning are described in README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sensconn" / "__init__.py").is_file():
        print(f"perfbench: no sensconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_out")
    for line in out["info"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
