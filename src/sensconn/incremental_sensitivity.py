"""Activation-only engine.

Preprocessing labels the base active components and packs two bit-array
families: per component, which inactive vertices touch it; per inactive
vertex, which other inactive vertices it can reach through a single shared
component or a direct edge. An update of batch size d then builds a bridge
graph over the batch with one bit probe per pair, and a query needs at most
2d probes. The bridge graph (SuperGraph) counts both.

The index is never mutated by updates, so rollback is simply dropping the
SuperGraph a session produced. Queries write only their SuperGraph's
``query_probes``: concurrent queries on one SuperGraph answer correctly but
may under-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .bits import has_bit, iter_bits, word_count
from .errors import QueryEndpointError
from .graph_core import Graph, StatePartition, UpdateBatch, component_labels
from .union_find import UnionFind


@dataclass(frozen=True)
class IncrementalIndex:
    """Preprocessed bit arrays for one graph and partition."""

    graph: Graph
    partition: StatePartition
    labels: tuple[int, ...]  # base active component per vertex, -1 if inactive
    comp_adj: tuple[int, ...]  # per component: mask over dense off indices
    # per dense off index: mask over dense off indices reachable through one
    # shared component or a direct edge, own bit cleared
    off_reach: tuple[int, ...]
    build_edge_probes: int
    build_or_words: int


def _direct_off_masks(g: Graph, p: StatePartition) -> tuple[list[int], int]:
    """Per inactive vertex, the mask of its inactive neighbors (dense indices)."""
    masks = []
    probes = 0
    for u in p.off_vertices:
        mk = 0
        for w in g.adj[u]:
            probes += 1
            if not p.is_on(w):
                mk |= 1 << p.off_index[w]
        masks.append(mk)
    return masks, probes


def build_incremental(g: Graph, p: StatePartition) -> IncrementalIndex:
    """Build the component/off-vertex adjacency arrays for one partition.

    One edge pass fills the component-side arrays; the off-vertex reach masks
    are then OR-combinations of those, plus direct edges between inactive
    vertices, with each vertex's own bit cleared. ``build_or_words`` counts
    the word-level OR work exactly.
    """
    labels, count = component_labels(g, p.on_mask)
    n_off = p.n_off
    comp_adj = [0] * count
    touch = [0] * n_off
    probes = 0
    for j, u in enumerate(p.off_vertices):
        for w in g.adj[u]:
            probes += 1
            c = labels[w]
            if c >= 0:
                comp_adj[c] |= 1 << j
                touch[j] |= 1 << c
    direct, direct_probes = _direct_off_masks(g, p)
    probes += direct_probes
    words = word_count(n_off)
    or_words = 0
    off_reach = []
    for j in range(n_off):
        reach = direct[j]
        for c in iter_bits(touch[j]):
            reach |= comp_adj[c]
            or_words += words
        off_reach.append(reach & ~(1 << j))
    return IncrementalIndex(
        graph=g,
        partition=p,
        labels=tuple(labels),
        comp_adj=tuple(comp_adj),
        off_reach=tuple(off_reach),
        build_edge_probes=probes,
        build_or_words=or_words,
    )


@dataclass
class SuperGraph:
    """Bridge graph over one activation batch, and the batch's probe counts.

    Nodes are the activated vertices; an edge means the two endpoints are
    joined through a single surviving component or by a direct edge.
    Components are numbered by smallest member.

    ``build_probes`` counts the pair probes that built it. ``query_probes``
    counts the primitive probes of the queries answered against it so far:
    bit probes for the activation-only engine, oracle queries for the fully
    dynamic one. Each query adds the probes it made, and one that raises adds
    nothing, so the count of one query is the difference before and after it.
    """

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    comp_of: tuple[int, ...]  # per node position
    components: tuple[tuple[int, ...], ...]
    build_probes: int
    node_index: Mapping[int, int] = field(compare=False, repr=False)
    query_probes: int = field(default=0, compare=False)

    @property
    def k(self) -> int:
        return len(self.components)

    def component_of(self, v: int) -> int:
        return self.comp_of[self.node_index[v]]


def build_supergraph(nodes, adjacent: Callable[[int, int], bool]) -> SuperGraph:
    """Probe every unordered pair exactly once (no short-circuit, so the
    probe counter is n*(n-1)/2 by construction) and label the components."""
    nodes = tuple(sorted(nodes))
    uf = UnionFind(len(nodes))
    edges = []
    probes = 0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            probes += 1
            if adjacent(nodes[i], nodes[j]):
                edges.append((nodes[i], nodes[j]))
                uf.union(i, j)
    comp_of = []
    root_to_id: dict[int, int] = {}
    members: list[list[int]] = []
    for i, v in enumerate(nodes):
        root = uf.find(i)
        cid = root_to_id.setdefault(root, len(root_to_id))
        if cid == len(members):
            members.append([])
        members[cid].append(v)
        comp_of.append(cid)
    return SuperGraph(
        nodes=nodes,
        edges=tuple(edges),
        comp_of=tuple(comp_of),
        components=tuple(tuple(ms) for ms in members),
        build_probes=probes,
        node_index={v: i for i, v in enumerate(nodes)},
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
    for x in (u, v):
        if not 0 <= x < p.n:
            raise QueryEndpointError(f"vertex {x} outside [0, {p.n})")
        if not p.is_on(x) and x not in sg.node_index:
            raise QueryEndpointError(f"vertex {x} is inactive after the update")
    if u == v:
        return True
    labels = idx.labels
    u_new = not p.is_on(u)
    v_new = not p.is_on(v)
    if u_new and v_new:
        return sg.component_of(u) == sg.component_of(v)
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
    for w in sg.components[sg.component_of(u)]:
        probes += 1
        if has_bit(mask_v, p.off_index[w]):
            sg.query_probes += probes
            return True
    sg.query_probes += probes
    return False
