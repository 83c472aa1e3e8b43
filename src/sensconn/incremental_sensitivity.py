"""Activation-only engine.

Preprocessing labels the base active components and packs two bit-array
families: per component, which inactive vertices touch it; per inactive
vertex, which other inactive vertices it can reach through a single shared
component or a direct edge. An update of batch size d then builds a bridge
graph over the batch with one bit probe per pair, and a query needs at most
2d probes. The bridge graph (SuperGraph) is the batch's only record, and
counts both.

The index is never mutated by updates, so rollback is simply dropping the
SuperGraph an update returned. Queries write only their SuperGraph's
``query_probes``: concurrent queries on one SuperGraph answer correctly but
may under-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .bits import has_bit, word_count
from .connectivity_oracle import DecrementalOracle
from .errors import QueryEndpointError
from .graph_core import Graph, StatePartition, UpdateBatch, component_labels


@dataclass(frozen=True)
class IncrementalIndex:
    """Preprocessed bit arrays for one graph and partition."""

    partition: StatePartition
    labels: tuple[int, ...]  # base active component per vertex, -1 if inactive
    comp_adj: tuple[int, ...]  # per component: mask over dense off indices
    # per dense off index: mask over dense off indices reachable through one
    # shared component or a direct edge, own bit cleared
    off_reach: tuple[int, ...]
    build_edge_probes: int
    build_or_words: int


def build_incremental(g: Graph, p: StatePartition) -> IncrementalIndex:
    """Build the component/off-vertex adjacency arrays for one partition.

    One pass over each inactive vertex's adjacency fills ``comp_adj``, the
    vertex's direct inactive neighbours and the set of components it
    touches; a neighbour is inactive exactly when its label is negative.
    Each reach mask is then the OR of its touched components' masks and its
    direct neighbours, with the vertex's own bit cleared.
    ``build_edge_probes`` counts the adjacency entries read, and
    ``build_or_words`` the word-level OR work, exactly.
    """
    labels, count = component_labels(g, p.on_mask)
    off_index = p.off_index
    comp_adj = [0] * count
    rows = []  # per dense off index: (direct inactive neighbours, touched components)
    probes = 0
    for j, u in enumerate(p.off_vertices):
        direct = 0
        cs = set()
        for w in g.adj[u]:
            c = labels[w]
            if c >= 0:
                comp_adj[c] |= 1 << j
                cs.add(c)
            else:
                direct |= 1 << off_index[w]
        probes += len(g.adj[u])
        rows.append((direct, cs))
    words = word_count(p.n_off)
    or_words = 0
    off_reach = []
    for j, (reach, cs) in enumerate(rows):
        for c in cs:
            reach |= comp_adj[c]
        or_words += words * len(cs)
        off_reach.append(reach & ~(1 << j))
    return IncrementalIndex(
        partition=p,
        labels=tuple(labels),
        comp_adj=tuple(comp_adj),
        off_reach=tuple(off_reach),
        build_edge_probes=probes,
        build_or_words=or_words,
    )


@dataclass
class SuperGraph:
    """Bridge graph over one batch: the only record of a processed batch,
    in both engines.

    Nodes are the activated vertices; an edge means the two endpoints are
    joined through a single surviving component or by a direct edge.
    ``comp`` takes each node to its index in ``components``, in ascending
    order of nodes; components are numbered by smallest member and list
    their members in ascending order.

    ``build_probes`` counts the pair probes that built it. ``query_probes``
    counts the primitive probes of the queries answered against it so far:
    bit probes for the activation-only engine, oracle queries for the fully
    dynamic one. Each query adds the probes it made, and one that raises adds
    nothing, so the count of one query is the difference before and after it.
    The fully dynamic engine also records the ``touched`` oracles it pushed
    the batch's deactivations into, which rollback resets; it is empty for
    the activation-only engine.
    """

    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    comp: dict[int, int]
    build_probes: int
    touched: tuple[DecrementalOracle, ...] = field(default=(), compare=False, repr=False)
    query_probes: int = field(default=0, compare=False)


def build_supergraph(nodes, adjacent: Callable[[int, int], bool], *,
                     touched: tuple[DecrementalOracle, ...] = ()) -> SuperGraph:
    """Probe every unordered pair exactly once (no short-circuit, so the
    probe counter is n*(n-1)/2 by construction), then label the bridge
    graph by a search from each unlabeled node in ascending order, which
    numbers the components by smallest node."""
    nodes = sorted(nodes)
    nbrs: list[list[int]] = [[] for _ in nodes]
    edges = []
    probes = 0
    for i, x in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            probes += 1
            if adjacent(x, nodes[j]):
                edges.append((x, nodes[j]))
                nbrs[i].append(j)
                nbrs[j].append(i)
    labels = [-1] * len(nodes)
    count = 0
    for s in range(len(nodes)):
        if labels[s] < 0:
            labels[s] = count
            comp = [s]
            for i in comp:  # comp grows while it is read: a breadth-first search
                for j in nbrs[i]:
                    if labels[j] < 0:
                        labels[j] = count
                        comp.append(j)
            count += 1
    members: list[list[int]] = [[] for _ in range(count)]
    for x, c in zip(nodes, labels):
        members[c].append(x)
    return SuperGraph(
        edges=tuple(edges),
        components=tuple(map(tuple, members)),
        comp=dict(zip(nodes, labels)),
        build_probes=probes,
        touched=touched,
    )


def incremental_update(idx: IncrementalIndex, activate) -> SuperGraph:
    """Process one activation batch into its bridge graph.

    The index is untouched; any number of sessions can coexist and dropping
    the result rolls the session back.
    """
    batch = UpdateBatch.for_partition(idx.partition, (), activate)
    off_reach = idx.off_reach
    off_index = idx.partition.off_index

    def adjacent(u, v):
        return has_bit(off_reach[off_index[u]], off_index[v])

    return build_supergraph(batch.activate, adjacent)


def incremental_query(idx: IncrementalIndex, sg: SuperGraph, u: int, v: int) -> bool:
    """True iff u and v are connected once the batch behind sg is active.

    Adds the bit probes it makes to ``sg.query_probes``.
    """
    p = idx.partition
    comp = sg.comp
    for x in (u, v):
        if not 0 <= x < p.n:
            raise QueryEndpointError(f"vertex {x} outside [0, {p.n})")
        if not p.is_on(x) and x not in comp:
            raise QueryEndpointError(f"vertex {x} is inactive after the update")
    if u == v:
        return True
    labels = idx.labels
    u_new = u in comp
    v_new = v in comp
    if u_new and v_new:
        return comp[u] == comp[v]
    probes = 0
    if not u_new and not v_new:
        cu, cv = labels[u], labels[v]
        if cu == cv:
            return True
        mask_u, mask_v = idx.comp_adj[cu], idx.comp_adj[cv]
        for comp in sg.components:
            hit_u = hit_v = False
            for w in comp:
                j = p.off_index[w]
                if not hit_u:
                    probes += 1
                    hit_u = has_bit(mask_u, j)
                if not hit_v:
                    probes += 1
                    hit_v = has_bit(mask_v, j)
                if hit_u and hit_v:
                    sg.query_probes += probes
                    return True
        sg.query_probes += probes
        return False
    # one endpoint was just activated: its batch component must touch the
    # other endpoint's original component
    if v_new:
        u, v = v, u
    mask_v = idx.comp_adj[labels[v]]
    for w in sg.components[comp[u]]:
        probes += 1
        if has_bit(mask_v, p.off_index[w]):
            sg.query_probes += probes
            return True
    sg.query_probes += probes
    return False
