"""Equivalence and counter verification suites.

Every suite compares an engine against ``reachable`` over exhaustive or
seeded random corpora and reports mismatch counts plus the first reproducible
counterexample. The CLI's verify command and the acceptance tests both run
through these entry points, so ``sensconn verify --oracle X`` checks any
registered oracle factory.

Both corpora report the four engine suites (fully_dynamic, incremental,
lemma_on_paths, counters). The random corpus adds two oracle suites on each
trial's own structure: ``conformance`` queries the root oracle directly,
fresh, with the batch pushed and after rollback, and ``rollback`` re-applies
the batch to the rolled-back structure and to a fresh build. The exhaustive
corpus reuses each structure across every batch of a partition, so its
engine suites already check every answer given after a rollback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .bits import iter_bits, mask_of
from .errors import ContractViolation
from .fully_dynamic_sensitivity import build_fully_dynamic, fd_query, fd_rollback, fd_update
from .generators import gnp_graph
from .graph_core import Graph, StatePartition, component_labels, dump_graph, reachable
from .incremental_sensitivity import build_incremental, incremental_query, incremental_update

SUITE_NAMES = ("fully_dynamic", "incremental", "lemma_on_paths", "counters")
RANDOM_SUITE_NAMES = SUITE_NAMES + ("conformance", "rollback")
ROLLBACK_PAIRS = 50  # answers a rollback rerun reproduces; every pair when there are fewer


@dataclass
class VerifyConfig:
    n_max: int = 40
    trials: int = 1000
    edge_probs: tuple[float, ...] = (0.1, 0.3, 0.6)
    batch_max: int = 6
    seed: int = 42
    oracle: str = "rebuild"


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    mismatches: int = 0
    first_counterexample: str | None = None

    def fail(self, description: str) -> None:
        self.mismatches += 1
        if self.first_counterexample is None:
            self.first_counterexample = description

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def iter_all_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    for edge_mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in iter_bits(edge_mask)])


def iter_all_partitions(n: int):
    for off_mask in range(1 << n):
        yield StatePartition.from_off(n, iter_bits(off_mask))


def iter_batches(p: StatePartition, d_max: int):
    """All legal (deactivate, activate) batches flipping at most d_max vertices."""
    for size in range(d_max + 1):
        for flips in combinations(range(p.n), size):
            down = [v for v in flips if p.is_on(v)]
            up = [v for v in flips if not p.is_on(v)]
            yield down, up


def _instance_text(g, p, down, up) -> str:
    """Counterexample text for one instance. The check helpers get it as
    ``ctx``, a callable they call only on a mismatch, because dumping the
    graph costs more than checking most instances."""
    return f"graph file:\n{dump_graph(g, p)}deactivate={sorted(down)} activate={sorted(up)}"


def _check_queries(query, active, name, g, suites, ctx, sg=None, limit=0) -> list[bool]:
    """Every pair u < v of ``active`` through ``query`` against the
    reference: answers go to suite ``name``, and with a bridge graph ``sg``
    the probes each query adds to ``sg.query_probes`` must stay within
    ``limit``. Returns the answers in pair order, that of
    ``combinations(iter_bits(active), 2)``."""
    answers = []
    vertices = list(iter_bits(active))
    reach: dict[int, set[int]] = {}  # vertex -> its component, one search each
    for i, u in enumerate(vertices):
        if u not in reach:
            reach.update(dict.fromkeys(component := reachable(g, active, u), component))
        for v in vertices[i + 1:]:
            before = sg.query_probes if sg is not None else 0
            got = query(u, v)
            answers.append(got)
            suites[name].checked += 1
            expected = v in reach[u]
            if got != expected:
                suites[name].fail(f"{ctx()}: query ({u},{v}) expected {expected}, got {got}")
            if sg is not None:
                probes = sg.query_probes - before
                suites["counters"].checked += 1
                if probes > limit:
                    suites["counters"].fail(f"{ctx()}: query ({u},{v}) made {probes} probes, limit {limit}")
    return answers


def _check_fully_dynamic(g, p, s, down, up, suites, ctx):
    """Push the batch and check its counters and every answer. Returns the
    bridge graph, still held, and the answers in pair order."""
    sg = fd_update(s, down, up)
    k = len(set(up))
    expected_deletes = 1 + k + k * (k - 1) // 2
    expected_pairs = k * (k - 1) // 2
    suites["counters"].checked += 2
    if len(sg.touched) != expected_deletes:
        suites["counters"].fail(f"{ctx()}: {len(sg.touched)} oracles pushed, expected {expected_deletes}")
    if sg.build_probes != expected_pairs:
        suites["counters"].fail(f"{ctx()}: {sg.build_probes} pair queries, expected {expected_pairs}")
    active_after = (p.on_mask & ~mask_of(down)) | mask_of(up)
    query = partial(fd_query, s, sg)
    return sg, _check_queries(query, active_after, "fully_dynamic", g, suites, ctx, sg, 1 + 2 * k)


def _check_incremental(g, p, idx, up, suites, ctx) -> None:
    sg = incremental_update(idx, up)
    k = len(set(up))
    suites["counters"].checked += 1
    if sg.build_probes != k * (k - 1) // 2:
        suites["counters"].fail(
            f"{ctx()}: update probes={sg.build_probes}, expected {k * (k - 1) // 2}"
        )
    active_after = p.on_mask | mask_of(up)
    query = partial(incremental_query, idx, sg)
    _check_queries(query, active_after, "incremental", g, suites, ctx, sg, 2 * k)


def connected_via_component(g, labels, u: int, v: int) -> bool:
    """True when the two inactive vertices share an adjacent component of the
    labeled graph, or are joined by a direct edge. ``labels`` is the first
    half of a ``component_labels`` result: -1 off the labeled vertices."""
    if u == v:
        raise ContractViolation("endpoints must differ")
    for x in (u, v):
        if labels[x] != -1:
            raise ContractViolation(f"vertex {x} is active in the labeling")
    if v in g.adj[u]:
        return True
    comps_u = {labels[w] for w in g.adj[u]} - {-1}
    return any(labels[w] in comps_u for w in g.adj[v])


def connected_by_set(g, labels, count, activated, cu: int, cv: int) -> bool:
    """True when components cu and cv of the ``component_labels`` result
    (labels, count) are linked by a chain of vertices from ``activated``,
    consecutive ones connected via a component or direct edge.

    Reachability runs over the implicit graph on ``activated`` whose edges
    are probed lazily with connected_via_component.
    """
    for c in (cu, cv):
        if not 0 <= c < count:
            raise ContractViolation(f"unknown component id {c}")
    if cu == cv:
        raise ContractViolation("component ids must differ")
    nodes = sorted(set(activated))
    for x in nodes:
        if labels[x] != -1:
            raise ContractViolation(f"vertex {x} is active in the labeling")
    pending = [x for x in nodes if any(labels[w] == cu for w in g.adj[x])]
    seen = set(pending)
    while pending:
        x = pending.pop()
        if any(labels[w] == cv for w in g.adj[x]):
            return True
        for y in nodes:
            if y not in seen and connected_via_component(g, labels, x, y):
                seen.add(y)
                pending.append(y)
    return False


def _check_lemma(g, p, down, up, suites, ctx) -> None:
    """The path characterization: two surviving components are joined after
    activating the batch iff they are linked by a chain through it."""
    survivors = p.on_mask & ~mask_of(down)
    labels, count = component_labels(g, survivors)
    if count < 2:
        return
    active_after = survivors | mask_of(up)
    batch = sorted(set(up))
    first = [labels.index(c) for c in range(count)]  # each component's smallest vertex
    for cu in range(count):
        reach = reachable(g, active_after, first[cu])
        for cv in range(cu + 1, count):
            got = connected_by_set(g, labels, count, batch, cu, cv)
            expected = first[cv] in reach
            suites["lemma_on_paths"].checked += 1
            if got != expected:
                suites["lemma_on_paths"].fail(
                    f"{ctx()}: components {cu},{cv} expected {expected}, got {got}"
                )


def exhaustive_suites(n: int = 5, batch_max: int = 3, oracle: str = "rebuild") -> dict[str, SuiteResult]:
    """Every graph on n labeled vertices, every partition, every batch of at
    most batch_max flips, every active query pair.

    The activation-only engine is additionally run on every larger
    activation subset.
    """
    suites = {name: SuiteResult(name) for name in SUITE_NAMES}
    for g in iter_all_graphs(n):
        for p in iter_all_partitions(n):
            s = build_fully_dynamic(g, p, oracle)
            idx = build_incremental(g, p)
            for down, up in iter_batches(p, batch_max):
                ctx = lambda: _instance_text(g, p, down, up)
                fd_rollback(s, _check_fully_dynamic(g, p, s, down, up, suites, ctx)[0])
                _check_lemma(g, p, down, up, suites, ctx)
                if not down:
                    _check_incremental(g, p, idx, up, suites, ctx)
            for size in range(batch_max + 1, p.n_off + 1):
                for up in combinations(p.off_vertices, size):
                    ctx = lambda: _instance_text(g, p, [], up)
                    _check_incremental(g, p, idx, up, suites, ctx)
                    _check_lemma(g, p, [], up, suites, ctx)
    return suites


def _random_instance(rng: random.Random, cfg: VerifyConfig):
    n = rng.randint(2, cfg.n_max)
    g = gnp_graph(n, rng.choice(cfg.edge_probs), rng)
    off_prob = rng.choice((0.2, 0.4, 0.6))
    p = StatePartition.from_off(n, [v for v in range(n) if rng.random() < off_prob])
    size = rng.randint(0, min(cfg.batch_max, n))
    flips = rng.sample(range(n), size)
    down = [v for v in flips if p.is_on(v)]
    up = [v for v in flips if not p.is_on(v)]
    return g, p, down, up


def _check_conformance(g, s, active, phase, suites, ctx) -> None:
    """The root oracle on its own: every pair of ``active`` straight through
    ``s.base.query``, outside the engine."""
    _check_queries(s.base.query, active, "conformance", g, suites, lambda: f"{ctx()} ({phase})")


def _check_rollback(g, p, s, down, up, first, suites, ctx) -> None:
    """Re-apply the batch to ``s``, already rolled back, and to a freshly
    built structure. Each must reproduce ``first``, the first run's bridge
    graph edges and answers in pair order, on an even spread of at least
    ROLLBACK_PAIRS pairs, or on every pair when there are fewer."""
    edges, answers = first
    pairs = list(combinations(iter_bits((p.on_mask & ~mask_of(down)) | mask_of(up)), 2))
    picks = range(0, len(pairs), max(1, len(pairs) // ROLLBACK_PAIRS))

    def rerun(structure):
        sg = fd_update(structure, down, up)
        got = [fd_query(structure, sg, *pairs[i]) for i in picks]
        fd_rollback(structure, sg)
        return sg.edges, got

    expected = edges, [answers[i] for i in picks]
    suites["rollback"].checked += 1
    if rerun(s) != expected:
        suites["rollback"].fail(f"{ctx()}: rerun after rollback diverged")
    elif rerun(build_fully_dynamic(g, p, s.factory)) != expected:
        suites["rollback"].fail(f"{ctx()}: rolled-back structure diverged from a fresh build")


def random_suites(cfg: VerifyConfig) -> dict[str, SuiteResult]:
    """Seeded random instances; the seed fully determines the stream. Each
    trial also checks its structure's root oracle (conformance) and its
    rollback against a rerun and a fresh build; neither draws from the
    stream."""
    suites = {name: SuiteResult(name) for name in RANDOM_SUITE_NAMES}
    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        g, p, down, up = _random_instance(rng, cfg)
        s = build_fully_dynamic(g, p, cfg.oracle)
        idx = build_incremental(g, p)
        ctx = lambda: f"trial {trial}: " + _instance_text(g, p, down, up)
        _check_conformance(g, s, p.on_mask, "fresh", suites, ctx)
        sg, answers = _check_fully_dynamic(g, p, s, down, up, suites, ctx)
        _check_conformance(g, s, p.on_mask & ~mask_of(down), "batch pushed", suites, ctx)
        fd_rollback(s, sg)
        _check_conformance(g, s, p.on_mask, "rolled back", suites, ctx)
        _check_rollback(g, p, s, down, up, (sg.edges, answers), suites, ctx)
        _check_lemma(g, p, down, up, suites, ctx)
        _check_incremental(g, p, idx, up, suites, ctx)
    return suites
