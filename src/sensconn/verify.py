"""Equivalence and counter verification suites.

Every suite compares an engine against BruteForceReference over exhaustive or
seeded random corpora and reports mismatch counts plus the first reproducible
counterexample. The CLI's verify command and the acceptance tests both run
through these entry points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .bits import iter_bits, mask_of
from .connectivity_oracle import BruteForceReference, make_oracle
from .errors import ContractViolation
from .fully_dynamic_sensitivity import build_fully_dynamic, fd_query, fd_rollback, fd_update
from .generators import gnp_graph
from .graph_core import Graph, StatePartition, component_labels, dump_graph
from .incremental_sensitivity import build_incremental, incremental_query, incremental_update

SUITE_NAMES = ("fully_dynamic", "incremental", "lemma_on_paths", "counters")


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


def _new_suites() -> dict[str, SuiteResult]:
    return {name: SuiteResult(name) for name in SUITE_NAMES}


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


def _check_queries(query, active_after, sg, name, limit, g, suites, ctx) -> None:
    """Every active pair through ``query`` against the reference: answers go
    to suite ``name``, and the probes each query adds to ``sg.query_probes``
    must stay within ``limit``."""
    ref = BruteForceReference(g, active_after)
    for u in iter_bits(active_after):
        reach = ref.reachable(u)
        for v in iter_bits(active_after):
            if v <= u:
                continue
            before = sg.query_probes
            got = query(u, v)
            probes = sg.query_probes - before
            suites[name].checked += 1
            expected = v in reach
            if got != expected:
                suites[name].fail(f"{ctx()}: query ({u},{v}) expected {expected}, got {got}")
            suites["counters"].checked += 1
            if probes > limit:
                suites["counters"].fail(f"{ctx()}: query ({u},{v}) made {probes} probes, limit {limit}")


def _check_fully_dynamic(g, p, s, down, up, suites, ctx) -> None:
    a = fd_update(s, down, up)
    sg = a.supergraph
    k = len(set(up))
    expected_deletes = 1 + k + k * (k - 1) // 2
    expected_pairs = k * (k - 1) // 2
    suites["counters"].checked += 2
    if len(a.touched) != expected_deletes:
        suites["counters"].fail(f"{ctx()}: {len(a.touched)} oracles pushed, expected {expected_deletes}")
    if sg.build_probes != expected_pairs:
        suites["counters"].fail(f"{ctx()}: {sg.build_probes} pair queries, expected {expected_pairs}")
    active_after = (p.on_mask & ~mask_of(down)) | mask_of(up)
    query = partial(fd_query, s, a)
    _check_queries(query, active_after, sg, "fully_dynamic", 1 + 2 * k, g, suites, ctx)
    fd_rollback(s, a)


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
    _check_queries(query, active_after, sg, "incremental", 2 * k, g, suites, ctx)


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
    ref = BruteForceReference(g, survivors | mask_of(up))
    batch = sorted(set(up))
    first = [labels.index(c) for c in range(count)]  # each component's smallest vertex
    for cu in range(count):
        reach = ref.reachable(first[cu])
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

    The activation-only engine, which needs no batch capacity, is
    additionally run on every larger activation subset.
    """
    suites = _new_suites()
    for g in iter_all_graphs(n):
        for p in iter_all_partitions(n):
            s = build_fully_dynamic(g, p, oracle)
            idx = build_incremental(g, p)
            for down, up in iter_batches(p, batch_max):
                ctx = lambda: _instance_text(g, p, down, up)
                _check_fully_dynamic(g, p, s, down, up, suites, ctx)
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


def random_suites(cfg: VerifyConfig) -> dict[str, SuiteResult]:
    """Seeded random instances; the seed fully determines the stream."""
    suites = _new_suites()
    rng = random.Random(cfg.seed)
    for trial in range(cfg.trials):
        g, p, down, up = _random_instance(rng, cfg)
        s = build_fully_dynamic(g, p, cfg.oracle)
        idx = build_incremental(g, p)
        ctx = lambda: f"trial {trial}: " + _instance_text(g, p, down, up)
        _check_fully_dynamic(g, p, s, down, up, suites, ctx)
        _check_lemma(g, p, down, up, suites, ctx)
        _check_incremental(g, p, idx, up, suites, ctx)
    return suites


def oracle_conformance_suite(
    factory: str, trials: int = 500, seed: int = 2024, n_max: int = 24, batch_max: int = 6
) -> SuiteResult:
    """Any registered oracle, built over a random active vertex mask, must
    match the reference before a deletion batch, after it, and again after
    reset."""
    suite = SuiteResult(f"conformance[{factory}]")
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(2, n_max)
        g = gnp_graph(n, rng.choice((0.1, 0.3, 0.6)), rng)
        part = StatePartition.from_off(n, [v for v in range(n) if rng.random() < 0.25])
        o = make_oracle(factory, g, part.on_mask)
        alive = list(iter_bits(part.on_mask))
        down = rng.sample(alive, rng.randint(0, min(batch_max, len(alive))))

        def compare(active_mask, phase):
            ref = BruteForceReference(g, active_mask)
            for u in iter_bits(active_mask):
                reach = ref.reachable(u)
                for v in iter_bits(active_mask):
                    if v <= u:
                        continue
                    got = o.query(u, v)
                    suite.checked += 1
                    if got != (v in reach):
                        suite.fail(
                            f"trial {trial} ({phase}): query ({u},{v}) disagrees with "
                            f"reference\n{dump_graph(g, part)}deleted={sorted(o.deleted)}"
                        )

        compare(part.on_mask, "fresh")
        o.delete_batch(down)
        compare(part.on_mask & ~mask_of(down), "after delete")
        o.reset()
        compare(part.on_mask, "after reset")
    return suite


def rollback_suite(
    trials: int = 200, seed: int = 7, oracle: str = "rebuild", queries: int = 50, n_max: int = 24
) -> SuiteResult:
    """Update, query, roll back, re-apply the identical update: the bridge
    graph and every answer must reproduce, and match a freshly built twin."""
    suite = SuiteResult("rollback")
    rng = random.Random(seed)
    for trial in range(trials):
        cfg = VerifyConfig(n_max=n_max, batch_max=6)
        g, p, down, up = _random_instance(rng, cfg)
        active_after = (p.on_mask & ~mask_of(down)) | mask_of(up)
        alive = list(iter_bits(active_after))
        pair_picks = [
            (rng.choice(alive), rng.choice(alive)) for _ in range(queries)
        ] if alive else []

        def run(structure):
            a = fd_update(structure, down, up)
            answers = [fd_query(structure, a, x, y) for x, y in pair_picks]
            edges = a.supergraph.edges
            fd_rollback(structure, a)
            return edges, answers

        s = build_fully_dynamic(g, p, oracle)
        first = run(s)
        second = run(s)
        fresh = run(build_fully_dynamic(g, p, oracle))
        suite.checked += 1
        if first != second:
            suite.fail(f"trial {trial}: rerun after rollback diverged\n" + _instance_text(g, p, down, up))
        elif first != fresh:
            suite.fail(f"trial {trial}: rolled-back structure diverged from a fresh build\n"
                       + _instance_text(g, p, down, up))
    return suite
