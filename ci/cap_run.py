"""Peak memory of ``sensconn run --algo fd`` at the vertex cap.

Writes the 1,000,000-vertex path with 30 inactive vertices, a batch of 4
deactivations and 4 activations, and 1,000 queries between vertices active
after the batch, into a temporary directory. Runs ``sensconn run --algo fd``
on them as a child process, and exits 1 when the child exits non-zero or
its peak RSS (``ru_maxrss``) exceeds ``MAX_RSS_MB``:

    python ci/cap_run.py

It takes a few seconds and several hundred MB, so it is kept out of the
pytest suite. ``ru_maxrss`` is read in KiB, as Linux reports it.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

N = 1_000_000
N_OFF = 30
FLIPS = 4  # deactivations, and as many activations
QUERIES = 1_000
# the run peaks at 258-285 MB on Python 3.10-3.13, and near 415 with a set per
# vertex in Graph.from_edges; the margin absorbs allocator layout, which alone
# moves the peak by 14 MB
MAX_RSS_MB = 330
SRC = Path(__file__).resolve().parent.parent / "src"


def write_inputs(directory: Path) -> list[Path]:
    rng = random.Random(0)
    off = rng.sample(range(N), N_OFF)
    off_set = set(off)
    down = []
    while len(down) < FLIPS:
        v = rng.randrange(N)
        if v not in off_set and v not in down:
            down.append(v)
    up = off[:FLIPS]
    gone = set(down) | off_set.difference(up)
    ends = []
    while len(ends) < 2 * QUERIES:
        v = rng.randrange(N)
        if v not in gone:
            ends.append(v)
    graph, update, query = (directory / name for name in ("graph.txt", "update.txt", "query.txt"))
    with graph.open("w") as f:
        f.write(f"{N} {N - 1}\n")
        f.writelines(f"{i} {i + 1}\n" for i in range(N - 1))
        f.write(f"OFF {N_OFF}\n" + " ".join(map(str, off)) + "\n")
    update.write_text(" ".join([f"-{v}" for v in down] + [f"+{v}" for v in up]) + "\n")
    query.write_text("".join(f"{ends[i]} {ends[i + 1]}\n" for i in range(0, len(ends), 2)))
    return [graph, update, query]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        graph, update, query = write_inputs(Path(tmp))
        cmd = [sys.executable, "-m", "sensconn.workbench_cli", "run", "--algo", "fd",
               "--graph", str(graph), "--update", str(update), "--query", str(query)]
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"sensconn run --algo fd, n={N}: exit {done.returncode}, {wall:.2f} s, "
          f"peak RSS {peak_mb:.1f} MB (bound {MAX_RSS_MB})")
    if done.returncode != 0:
        print("FAIL: the run exited non-zero", file=sys.stderr)
        return 1
    if peak_mb > MAX_RSS_MB:
        print("FAIL: peak RSS above the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
