"""Fully dynamic engine: batches may deactivate and activate vertices.

Preprocessing builds a decremental oracle over the base active graph and over
every one- and two-vertex augmentation of it; each is the input graph
restricted to its own active vertex mask, so every oracle speaks the original
vertex ids. An update pushes the deactivations into the oracles it will
actually consult, then builds the bridge graph over the activated vertices
from pair-oracle queries. That bridge graph (SuperGraph) is the batch's only
record: it also holds the deactivated vertices and the pushed oracles, which
rollback resets. A query needs at most 1 + 2d oracle queries and counts them
on that bridge graph.

Every augmented oracle gets the base oracle as its ``base``; with the
``rebuild`` factory the whole family then shares one survivor labeling, made
once at build and split locally by each update that deactivates anything.

Also provides the capacity-doubling wrapper that routes an update of size d
to the smallest structure built for at least d flips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .connectivity_oracle import DecrementalOracle, make_oracle, oracle_class
from .errors import CapacityError, ContractViolation, PhaseError, QueryEndpointError
from .graph_core import Graph, StatePartition, UpdateBatch
from .incremental_sensitivity import SuperGraph, build_supergraph


@dataclass
class FullyDynamicStructure:
    """Oracle family for one graph and partition.

    fd_update and fd_rollback push deletions into and reset the oracles, so
    they need exclusive access. fd_query only reads the oracles, and like
    incremental_query it writes only its batch's ``query_probes``:
    concurrent queries on one batch answer correctly but may under-count.
    """

    graph: Graph
    partition: StatePartition
    factory: str
    base: DecrementalOracle  # over the base active vertices
    single: dict[int, DecrementalOracle]  # inactive vertex -> oracle over base + that vertex
    pairs: dict[tuple[int, int], DecrementalOracle]  # ascending pair of inactive vertices -> oracle
    preprocess_probes: int
    session: SuperGraph | None = None

    @property
    def oracle_count(self) -> int:
        return 1 + len(self.single) + len(self.pairs)


def build_fully_dynamic(
    g: Graph, p: StatePartition, oracle: str = "rebuild", d: int | None = None
) -> FullyDynamicStructure:
    """Build oracles over the base active graph and all its augmentations.

    Creates exactly 1 + n_off + n_off*(n_off-1)/2 oracles, all over ``g``
    with different active masks; the augmented ones get the base oracle as
    their ``base``.
    """
    base = make_oracle(oracle, g, p.on_mask, d=d)
    single = {u: make_oracle(oracle, g, p.on_mask | 1 << u, d=d, base=base) for u in p.off_vertices}
    pairs = {
        (a, b): make_oracle(oracle, g, p.on_mask | 1 << a | 1 << b, d=d, base=base)
        for a, b in combinations(p.off_vertices, 2)
    }
    probes = base.costs.t_p
    probes += sum(o.costs.t_p for o in single.values())
    probes += sum(o.costs.t_p for o in pairs.values())
    return FullyDynamicStructure(
        graph=g,
        partition=p,
        factory=oracle,
        base=base,
        single=single,
        pairs=pairs,
        preprocess_probes=probes,
    )


def fd_update(s: FullyDynamicStructure, deactivate, activate) -> SuperGraph:
    """Process one batch: push deletions into the touched oracles, then build
    the bridge graph over the activated vertices from pair-oracle queries.
    The bridge graph is the batch's record and its handle.

    Oracle-call accounting: len(touched) = 1 + |I| + C(|I|, 2) delete calls
    and build_probes = C(|I|, 2) pair queries, where I is the activation set.
    The base oracle is pushed first, so with ``rebuild`` the family shares
    the base's labeling, split locally around the deactivated vertices. A
    batch larger than the capacity the oracles were built for raises
    CapacityError before any oracle is touched. If any later step raises,
    the batch's oracles are reset before the exception propagates, so the
    structure stays ready for the next update.
    """
    if s.session is not None:
        raise PhaseError("an update is active; roll it back before starting another")
    batch = UpdateBatch.for_partition(s.partition, deactivate, activate)
    capacity = s.base.capacity
    if capacity is not None and batch.d > capacity:
        raise CapacityError(f"batch of size {batch.d} exceeds the oracles' capacity {capacity}")
    up = sorted(batch.activate)
    pairs = s.pairs
    oracles = [s.base]
    oracles += (s.single[u] for u in up)
    oracles += (pairs[ab] for ab in combinations(up, 2))
    try:
        for o in oracles:
            o.delete_batch(batch.deactivate)
        sg = build_supergraph(up, lambda x, y: pairs[x, y].query(x, y),
                              deactivated=batch.deactivate, touched=tuple(oracles))
    except BaseException:
        for o in oracles:  # reset() on an oracle not yet pushed is a no-op
            o.reset()
        raise
    s.session = sg
    return sg


def fd_query(s: FullyDynamicStructure, a: SuperGraph, u: int, v: int) -> bool:
    """True iff u and v are connected after the batch behind ``a``, the
    bridge graph fd_update returned.

    Adds the oracle queries it makes to ``a.query_probes``.
    """
    if s.session is not a:
        raise ContractViolation("stale update handle")
    p = s.partition
    comp = a.comp
    for x in (u, v):
        if not 0 <= x < p.n:
            raise QueryEndpointError(f"vertex {x} outside [0, {p.n})")
        if x in a.deactivated:
            raise QueryEndpointError(f"vertex {x} was deactivated by this update")
        if not p.is_on(x) and x not in comp:
            raise QueryEndpointError(f"vertex {x} is inactive")
    if u == v:
        return True
    u_new = u in comp
    v_new = v in comp
    if u_new and v_new:
        return comp[u] == comp[v]
    calls = 0
    if not u_new and not v_new:
        calls += 1
        if s.base.query(u, v):
            a.query_probes += calls
            return True
        for members in a.components:
            hit_u = hit_v = False
            for w in members:
                o = s.single[w]
                if not hit_u:
                    calls += 1
                    hit_u = o.query(w, u)
                if not hit_v:
                    calls += 1
                    hit_v = o.query(w, v)
                if hit_u and hit_v:
                    a.query_probes += calls
                    return True
        a.query_probes += calls
        return False
    # one endpoint was just activated: its batch component must reach the
    # other endpoint through some member's augmented graph
    if v_new:
        u, v = v, u
    for w in a.components[comp[u]]:
        calls += 1
        if s.single[w].query(w, v):
            a.query_probes += calls
            return True
    a.query_probes += calls
    return False


def fd_rollback(s: FullyDynamicStructure, a: SuperGraph) -> None:
    """Reset every oracle the update touched and clear the session."""
    if s.session is not a:
        raise ContractViolation("stale update handle")
    for o in a.touched:
        o.reset()
    s.session = None


@dataclass
class DoublingFamily:
    """Structures for capacities 2, 4, ..., 2^l; an update of size d runs on
    the smallest sufficient capacity."""

    capacities: tuple[int, ...]
    structures: dict[int, FullyDynamicStructure] = field(repr=False)

    def level_for(self, d: int) -> int:
        for c in self.capacities:
            if d <= c:
                return c
        raise CapacityError(f"batch of size {d} exceeds the largest capacity {self.capacities[-1]}")

    def structure_for(self, d: int) -> FullyDynamicStructure:
        return self.structures[self.level_for(d)]

    def dispatch_update(self, deactivate, activate) -> tuple[int, SuperGraph]:
        size = len(set(deactivate)) + len(set(activate))
        cap = self.level_for(size)
        return cap, fd_update(self.structures[cap], deactivate, activate)


def build_doubling(g: Graph, p: StatePartition, d_max: int, oracle: str = "rebuild") -> DoublingFamily:
    """Build the doubling family covering batches up to size d_max.

    Capacity-independent oracle factories (both built-ins) share one
    underlying structure across all levels; d-parameterized factories get a
    structure per level.
    """
    if d_max < 1:
        raise ContractViolation(f"d_max must be at least 1, got {d_max}")
    levels = max(1, (d_max - 1).bit_length())  # smallest l >= 1 with d_max <= 2**l
    capacities = tuple(2**i for i in range(1, levels + 1))
    if oracle_class(oracle).d_dependent:
        structures = {c: build_fully_dynamic(g, p, oracle, d=c) for c in capacities}
    else:
        shared = build_fully_dynamic(g, p, oracle)
        structures = {c: shared for c in capacities}
    return DoublingFamily(capacities=capacities, structures=structures)
