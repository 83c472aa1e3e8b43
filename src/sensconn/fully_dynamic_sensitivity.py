"""Fully dynamic engine: batches may deactivate and activate vertices.

The engine consults a decremental oracle over the base active graph and one
over every one- and two-vertex augmentation of it; each is the input
graph restricted to its active vertices, so every oracle speaks the original
vertex ids. Preprocessing builds only the base oracle, the family's root;
no other oracle is ever built or kept. An update pushes the deactivations
into the base, reads once per activated vertex the ids of the surviving
components it touches (``reach``), and derives from those each augmented
oracle it consults as a ``Member`` that lives for this batch alone. It
pushes each member the base's very batch, in O(1), then builds the bridge
graph over the activated vertices from pair-member queries. That bridge
graph (SuperGraph) is the batch's record: it also holds the pushed oracles,
and the deactivated vertices are the base oracle's ``deleted`` set. Rollback
resets the base and drops the members and the reach sets. A query needs at
most 1 + 2d oracle queries and counts them on that bridge graph; the first
is a checked read of the base, ``query`` or ``component``, the engine's only
check of the endpoints, and the rest are reach-set lookups of the ids
``_component`` gives.

With the ``rebuild`` factory the root labels the survivors once at build,
by a depth-first forest it keeps and never writes, and in each update that
deactivates anything finds the split of that labeling locally along the
forest: one search per tree piece the deactivations cut, started from the
piece's top, and pieces merge when a search reads an edge between them. So
on random graphs a push reads less than the deactivated vertices' degree
and records a few relabeled vertices, whatever n is; rollback drops that
record.

Also provides the doubling wrapper: power-of-two levels 2, 4, ..., 2^l that
share one structure, so only a batch above the largest level is refused
(CapacityError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .connectivity_oracle import DecrementalOracle, Member, make_oracle
from .errors import CapacityError, ContractViolation, PhaseError
from .graph_core import Graph, StatePartition, UpdateBatch
from .incremental_sensitivity import SuperGraph, build_supergraph


@dataclass
class FullyDynamicStructure:
    """Oracle family for one graph and partition: its root ``base``, and
    while a batch is held, ``reach``, which maps each activated vertex to
    the ids of the surviving base components it touches. ``fd_update``
    fills ``reach`` and ``fd_rollback`` drops it, with the batch's members;
    no query writes it.

    fd_update and fd_rollback push deletions into and reset the base, so
    they need exclusive access. fd_query only reads, and like
    incremental_query it writes only its batch's ``query_probes``:
    concurrent queries on one batch answer correctly but may under-count.
    """

    partition: StatePartition
    factory: str
    base: DecrementalOracle  # over the base active vertices; the only oracle built
    reach: dict[int, set[int]] = field(default_factory=dict)  # activated x -> base.reach(x)
    session: SuperGraph | None = None

    @property
    def oracle_count(self) -> int:
        """Size of the family the structure answers for."""
        k = self.partition.n_off
        return 1 + k + k * (k - 1) // 2


def build_fully_dynamic(g: Graph, p: StatePartition, oracle: str = "rebuild") -> FullyDynamicStructure:
    """Build the base oracle over ``g``'s active vertices, the root of a
    family of 1 + n_off + n_off*(n_off-1)/2 oracles. fd_update derives the
    members a batch consults."""
    return FullyDynamicStructure(partition=p, factory=oracle, base=make_oracle(oracle, g, p.on_mask))


def fd_update(s: FullyDynamicStructure, deactivate, activate) -> SuperGraph:
    """Process one batch: push the deactivations into the base, derive and
    push the members, then build the bridge graph over the activated
    vertices from pair-member queries. The bridge graph is the batch's
    record and its handle.

    Oracle-call accounting: len(touched) = 1 + |I| + C(|I|, 2) delete calls
    and build_probes = C(|I|, 2) pair queries, where I is the activation set.
    ``reach`` reads each activated vertex's adjacency once, O(sum deg(I)),
    counted in the ``t_u`` of that vertex's single member. If any step
    raises, the base is reset and ``reach`` dropped before the exception
    propagates, so the structure stays ready for the next update.
    """
    if s.session is not None:
        raise PhaseError("an update is active; roll it back before starting another")
    batch = UpdateBatch.for_partition(s.partition, deactivate, activate)
    up = sorted(batch.activate)
    base = s.base
    try:
        base.delete_batch(batch.deactivate)
        s.reach = reach = {x: base.reach(x) for x in up}
        pairs = {ab: Member(base, ab, reach) for ab in combinations(up, 2)}
        touched = (base, *(Member(base, (x,), reach) for x in up), *pairs.values())
        for o in touched[1:]:
            o.delete_batch(base.deleted)
        sg = build_supergraph(up, lambda x, y: pairs[x, y].query(x, y), touched=touched)
    except BaseException:
        base.reset()
        s.reach = {}
        raise
    s.session = sg
    return sg


def fd_query(s: FullyDynamicStructure, a: SuperGraph, u: int, v: int) -> bool:
    """True iff u and v are connected after the batch behind ``a``, the
    bridge graph fd_update returned. Adds the oracle queries it makes to
    ``a.query_probes``.

    The first oracle query is a checked read of the base, which checks the
    endpoints before any is counted; every later one is a lookup in the
    reach set of an activated vertex ``w``, which answers the query of the
    member over the base plus ``w``. With neither endpoint activated the
    first is ``base.query(u, v)``; the survivors ``u`` and ``v`` meet ``w``
    when their base ids lie in ``reach[w]``. With ``u`` activated (after
    the swap) the first is ``base.component(v)``, and ``v`` meets each
    ``w`` of u's bridge component, never empty, whose reach set holds that
    id. Two activated endpoints are legal by construction.
    """
    if s.session is not a:
        raise ContractViolation("stale update handle")
    comp = a.comp
    u_new = u in comp
    v_new = v in comp
    if u_new and v_new:
        return comp[u] == comp[v]
    base, reach = s.base, s.reach
    if not u_new and not v_new:
        if base.query(u, v):
            a.query_probes += 1
            return True
        cu, cv, calls = base._component(u), base._component(v), 1
        for members in a.components:
            hit_u = hit_v = False
            for w in members:
                r = reach[w]
                if not hit_u:
                    calls += 1
                    hit_u = cu in r
                if not hit_v:
                    calls += 1
                    hit_v = cv in r
                if hit_u and hit_v:
                    a.query_probes += calls
                    return True
        a.query_probes += calls
        return False
    # one endpoint was just activated: its batch component must reach the
    # other endpoint through some member's augmented graph
    if v_new:
        u, v = v, u
    cv, calls = base.component(v), 0
    for w in a.components[comp[u]]:
        calls += 1
        if cv in reach[w]:
            a.query_probes += calls
            return True
    a.query_probes += calls
    return False


def fd_rollback(s: FullyDynamicStructure, a: SuperGraph) -> None:
    """Reset the base, drop the batch's members and reach sets, and clear
    the session."""
    if s.session is not a:
        raise ContractViolation("stale update handle")
    s.base.reset()
    s.reach = {}
    s.session = None


@dataclass
class DoublingFamily:
    """Levels 2, 4, ..., 2^l over one shared structure. An update of size d
    is routed to the smallest level of at least d; a batch above 2^l raises
    CapacityError before any oracle is touched."""

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
        # a vertex on both sides counts once, so fd_update reports the overlap
        cap = self.level_for(len(set(deactivate) | set(activate)))
        return cap, fd_update(self.structures[cap], deactivate, activate)


def build_doubling(g: Graph, p: StatePartition, d_max: int, oracle: str = "rebuild") -> DoublingFamily:
    """Build the doubling family covering batches up to size d_max: one
    structure, shared by every level; no oracle is sized to a batch."""
    if d_max < 1:
        raise ContractViolation(f"d_max must be at least 1, got {d_max}")
    levels = max(1, (d_max - 1).bit_length())  # smallest l >= 1 with d_max <= 2**l
    capacities = tuple(2**i for i in range(1, levels + 1))
    return DoublingFamily(capacities, dict.fromkeys(capacities, build_fully_dynamic(g, p, oracle)))
