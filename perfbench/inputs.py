"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program is drawn here, from one ``random.Random``
seeded by the command line, before any timed region starts: the graph file
text, the initially inactive vertices and the per-cycle batches and query
pairs. The same seed gives byte-identical inputs (see ``fingerprint``).

Random graphs use geometric edge skipping (Batagelj & Brandes, "Efficient
generation of large random networks", Phys. Rev. E 71, 2005), which draws
G(n, p) in O(n + m) instead of flipping one coin per vertex pair.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Shape of one workload. One pass, the unit a run repeats after each
    set-up, holds ``per_d`` cycles of every batch size d in 1..d_max."""

    name: str
    engine: str  # "fd": build_doubling + dispatch_update; "inc": activation-only engine
    graph: str  # "gnp" or "ladder"
    n: int
    degree: float  # average degree for "gnp", ladder width for "ladder"
    n_off: int
    d_max: int
    queries: int  # queries per cycle
    per_d: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fd-churn", "fd", "gnp", 2000, 8.0, 30, 8, 50, 13),
        Workload("inc-probe", "inc", "gnp", 20000, 1.5, 400, 32, 200, 4),
        Workload("fd-wide-deep", "fd", "ladder", 2000, 4, 60, 4, 50, 32),
    )
}

# Share of query endpoints drawn from the vertices the batch activated, so the
# mixed and batch-only query cases actually occur.
BATCH_ENDPOINT_SHARE = 0.25


@dataclass(frozen=True)
class Cycle:
    deactivate: tuple[int, ...]
    activate: tuple[int, ...]
    queries: tuple[tuple[int, int], ...]

    @property
    def d(self) -> int:
        return len(self.deactivate) + len(self.activate)


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    edges: tuple[tuple[int, int], ...]
    off: tuple[int, ...]
    cycles: tuple[Cycle, ...]

    def graph_text(self) -> str:
        """The graph in sensconn's graph file format."""
        lines = [f"{self.workload.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        lines.append(f"OFF {len(self.off)}")
        lines.extend(str(v) for v in self.off)
        return "\n".join(lines) + "\n"


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) by geometric skipping over the pairs (v, w), w < v, in order."""
    edges: list[tuple[int, int]] = []
    if p <= 0 or n < 2:
        return edges
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def ladder_edges(n: int, width: int) -> list[tuple[int, int]]:
    """Grid of ``width`` columns and n/width rungs; vertex r*width+c is column
    c of rung r. Its diameter is about n/width."""
    if n % width:
        raise ValueError(f"ladder size {n} is not a multiple of width {width}")
    edges = []
    for v in range(n):
        if v % width + 1 < width:
            edges.append((v, v + 1))
        if v + width < n:
            edges.append((v, v + width))
    return edges


def activations(d: int, u: float) -> int:
    """The u-quantile of Binomial(d, 1/2): the number of activations in a
    batch of d flips, each an activation with probability 1/2."""
    below = 0.0
    for k in range(d + 1):
        below += math.comb(d, k) / 2**d
        if u < below:
            return k
    return d


def batch_sizes(w: Workload) -> list[tuple[int, int]]:
    """(d, activations) of every cycle of one pass, before shuffling.

    Each d in 1..d_max gets ``per_d`` cycles. On the activation-only engine
    every flip is an activation; on the fd engine the activation counts of
    one d are the ``per_d`` midpoint quantiles of the binomial split. So the
    mix of batch shapes is the same for every seed, and a percentile does not
    move with how many large pushes a seed happened to draw.
    """
    return [
        (d, d if w.engine == "inc" else activations(d, (j + 0.5) / w.per_d))
        for d in range(1, w.d_max + 1)
        for j in range(w.per_d)
    ]


def draw_cycle(rng, n, on, off, d, k, n_queries) -> Cycle:
    """Flip d vertices, k of them activations, and draw the query pairs."""
    activate = tuple(sorted(rng.sample(off, k)))
    deactivate = tuple(sorted(rng.sample(on, d - k)))
    gone = set(deactivate)
    now_on = set(activate)
    off_set = set(off)

    def active(x):
        return x in now_on or (x not in gone and x not in off_set)

    def endpoint():
        if activate and rng.random() < BATCH_ENDPOINT_SHARE:
            return rng.choice(activate)
        while True:
            x = rng.randrange(n)
            if active(x):
                return x

    queries = []
    for _ in range(n_queries):
        u = endpoint()
        v = endpoint()
        while v == u:
            v = endpoint()
        queries.append((u, v))
    return Cycle(deactivate, activate, tuple(queries))


def inactive_vertices(w: Workload, rng: random.Random) -> list[int]:
    """Initially inactive vertices: a uniform sample on a random graph; on the
    ladder, whole rungs spread evenly along it. The inactive rungs cut the
    active ladder into segments, so old endpoints of a query often sit in
    different base components and the query takes the bridged path, joined
    only through vertices the batch activates."""
    if w.graph == "gnp":
        return sorted(rng.sample(range(w.n), w.n_off))
    width = int(w.degree)
    rungs, cut = w.n // width, w.n_off // width
    if cut * width != w.n_off:
        raise ValueError(f"{w.n_off} inactive vertices are not whole rungs of width {width}")
    off = []
    for i in range(cut):
        r = (2 * i + 1) * rungs // (2 * cut)
        off.extend(range(r * width, (r + 1) * width))
    return off


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{w.name}:{seed}")
    if w.graph == "gnp":
        edges = gnp_edges(w.n, w.degree / (w.n - 1), rng)
    else:
        edges = ladder_edges(w.n, int(w.degree))
    off = inactive_vertices(w, rng)
    off_set = set(off)
    on = [v for v in range(w.n) if v not in off_set]
    sizes = batch_sizes(w)
    rng.shuffle(sizes)
    cycles = [draw_cycle(rng, w.n, on, off, d, k, w.queries) for d, k in sizes]
    return Inputs(w, tuple(edges), tuple(off), tuple(cycles))


def fingerprint(inp: Inputs) -> str:
    """SHA-256 over every byte the program receives in a run."""
    h = hashlib.sha256(inp.graph_text().encode())
    for c in inp.cycles:
        h.update(repr((c.deactivate, c.activate, c.queries)).encode())
    return h.hexdigest()
