"""Activation-only engine.

Preprocessing labels the base active components and packs two bit-array
families: per component, which inactive vertices touch it; per inactive
vertex, which other inactive vertices it can reach through a single shared
component or a direct edge. An update of batch size d then builds a bridge
graph over the batch with one bit probe per pair, and packs each bridge
component's members into one mask over the same dense off indices. A query
then tests a whole bridge component against an endpoint's component with one
AND of two n_off-bit masks. The bridge graph (SuperGraph), which the fully
dynamic engine's batches share, is the batch's only record, and counts both:
a query counts the bit probes that a scan of each component's members in
ascending order would make, at most 2d.

The index is never mutated by updates, so rollback is simply dropping the
SuperGraph an update returned. Queries write only their SuperGraph's
``query_probes``: concurrent queries on one SuperGraph answer correctly but
may under-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .bits import has_bit, word_count
from .errors import CapacityError, QueryEndpointError
from .graph_core import Graph, StatePartition, UpdateBatch, component_labels


# The largest activation index build_incremental makes, as index_bytes
# estimates it: at 10^6 vertices, 1 GiB admits n_off up to about 62,000 with
# no edge at an inactive vertex, and about 27,000 at inactive degree 8.
INDEX_BYTES_MAX = 1 << 30


def index_bytes(n: int, m: int, n_off: int) -> int:
    """An upper estimate of the bytes the activation index holds while it is
    built, for ``n`` vertices, ``n_off`` of them inactive, and ``m`` edges at
    inactive vertices (the graph's edge count bounds it too): three n-entry
    lists, and one n_off-bit mask per inactive vertex (its reach, and while
    building its direct inactive neighbours) and per base component an edge
    joins to an inactive vertex, of which there are at most min(n - n_off, m).
    """
    mask = 32 + 4 * ((n_off + 29) // 30)  # a CPython int: header and 30-bit digits
    return 24 * n + (2 * n_off + min(n - n_off, m)) * mask


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

    Raises CapacityError, before anything is allocated, when
    ``index_bytes`` of the inactive vertices' degree sum exceeds
    ``INDEX_BYTES_MAX``.
    """
    degrees = sum(len(g.adj[u]) for u in p.off_vertices)
    estimate = index_bytes(g.n, degrees, p.n_off)
    if estimate > INDEX_BYTES_MAX:
        raise CapacityError(
            f"the activation index of n={g.n}, n_off={p.n_off} with {degrees} adjacency entries "
            f"at inactive vertices takes up to {estimate >> 20} MiB, above the cap of "
            f"{INDEX_BYTES_MAX >> 20} MiB (INDEX_BYTES_MAX)"
        )
    labels, count = component_labels(g, p.on_mask)
    off_index = p.off_index
    comp_adj = [0] * count
    rows = []  # per dense off index: (direct inactive neighbours, touched components)
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
        build_edge_probes=degrees,
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
    for the activation-only engine, the bit probes that scanning each
    component's members in ascending order, up to the first member that
    touches an endpoint's base component, would make; oracle queries for the
    fully dynamic one. Each query adds its probes, and one that raises adds
    nothing, so the count of one query is the difference before and after it.
    The activation-only engine also fills ``masks``, per component the mask
    of its members' dense off indices, which its queries AND with the index's
    ``comp_adj``. The fully dynamic engine fills ``reach``, per activated
    vertex the ids of the surviving base components it touches, and
    ``pushes``, the number of oracles it pushed the batch's deactivations
    into. Each engine leaves the other's fields empty; no field is an oracle.
    """

    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    comp: dict[int, int]
    build_probes: int
    masks: tuple[int, ...] = field(default=(), compare=False, repr=False)
    reach: dict[int, set[int]] = field(default_factory=dict, compare=False, repr=False)
    pushes: int = field(default=0, compare=False)
    query_probes: int = field(default=0, compare=False)


def build_supergraph(nodes, adjacent: Callable[[int, int], bool]) -> SuperGraph:
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
    )


def incremental_update(idx: IncrementalIndex, activate) -> SuperGraph:
    """Process one activation batch into its bridge graph and its
    components' masks.

    The index is untouched; any number of sessions can coexist and dropping
    the result rolls the session back.
    """
    batch = UpdateBatch.for_partition(idx.partition, (), activate)
    off_index = idx.partition.off_index
    # each node's dense index and reach row once, not once per pair
    dense = {x: off_index[x] for x in batch.activate}
    reach = {x: idx.off_reach[j] for x, j in dense.items()}

    def adjacent(u, v):
        return has_bit(reach[u], dense[v])

    sg = build_supergraph(batch.activate, adjacent)
    masks = [0] * len(sg.components)
    for x, c in sg.comp.items():
        masks[c] |= 1 << dense[x]
    sg.masks = tuple(masks)
    return sg


def incremental_query(idx: IncrementalIndex, sg: SuperGraph, u: int, v: int) -> bool:
    """True iff u and v are connected once the batch behind sg is active.

    A base endpoint reaches a bridge component iff its component's
    ``comp_adj`` mask meets the component's mask. Adds to
    ``sg.query_probes`` the bit probes of the member-by-member scan: per
    endpoint and component, the members up to and including the first hit,
    or all of them on a miss. Members and dense off indices are both in
    ascending vertex order, so that is the rank of the hit's lowest bit in
    the component's mask.
    """
    n = idx.partition.n
    labels = idx.labels
    comp = sg.comp
    # both endpoints checked in one expression, as in DecrementalOracle.query;
    # the loop only names the first bad one
    if not (0 <= u < n and 0 <= v < n and (labels[u] >= 0 or u in comp)
            and (labels[v] >= 0 or v in comp)):
        for x in (u, v):  # name the first bad endpoint
            if not 0 <= x < n:
                raise QueryEndpointError(f"vertex {x} outside [0, {n})")
            if labels[x] < 0 and x not in comp:
                raise QueryEndpointError(f"vertex {x} is inactive after the update")
    if u == v:
        return True
    cu, cv = labels[u], labels[v]
    if cu < 0 and cv < 0:
        return comp[u] == comp[v]
    comp_adj = idx.comp_adj
    if cu >= 0 and cv >= 0:
        if cu == cv:
            return True
        mask_u, mask_v = comp_adj[cu], comp_adj[cv]
        probes = 0
        missed = 0  # the components neither endpoint touches: two probes per member
        for m in sg.masks:
            hit_u = mask_u & m
            hit_v = mask_v & m
            if not (hit_u or hit_v):
                missed |= m
                continue
            # (m & (low << 1) - 1) counts m's bits up to low; a miss (low = 0) counts all
            probes += ((m & ((hit_u & -hit_u) << 1) - 1).bit_count()
                       + (m & ((hit_v & -hit_v) << 1) - 1).bit_count())
            if hit_u and hit_v:
                sg.query_probes += probes + 2 * missed.bit_count()
                return True
        sg.query_probes += probes + 2 * missed.bit_count()
        return False
    # one endpoint was just activated: its batch component must touch the
    # other endpoint's base component
    if cu < 0:
        m, cu = sg.masks[comp[u]], cv
    else:
        m = sg.masks[comp[v]]
    hit = comp_adj[cu] & m
    sg.query_probes += (m & ((hit & -hit) << 1) - 1).bit_count()
    return hit != 0
