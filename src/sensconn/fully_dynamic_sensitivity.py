"""Fully dynamic engine: batches may deactivate and activate vertices.

The engine consults a decremental oracle over the base active graph and one
over every one- and two-vertex augmentation of it; each is the input
graph restricted to its active vertices, so every oracle speaks the original
vertex ids. Preprocessing builds only the base oracle. An update pushes the
deactivations into the oracles it will actually consult, building each
augmented one with ``augment`` the first time it is pushed and keeping it,
then builds the bridge graph over the activated vertices from pair-oracle
queries. That bridge graph (SuperGraph) is the batch's only record: it also
holds the pushed oracles, which rollback resets; the deactivated vertices are
the base oracle's ``deleted`` set. A query needs at most 1 + 2d oracle
queries and counts them on that bridge graph; the first is the checked
``query``, the engine's only check of the endpoints, and the rest go to the
unchecked ``_connected``.

The base oracle is the family's root: it alone holds the active set, and an
augmented oracle holds only its one or two extra vertices, the most
``augment`` allows. With the ``rebuild`` factory the root labels the survivors
once at build, by a depth-first forest it keeps and never writes, and in
each update that deactivates anything finds the split of that labeling
locally along the forest: one search per tree piece the deactivations cut,
started from the piece's top, and pieces merge when a search reads an edge
between them. So on random graphs a push reads less than the deactivated
vertices' degree and records a few relabeled vertices, whatever n is;
rollback drops that record. The base is pushed first, so each augmented
oracle shares that record and reads only its extras' adjacency.

Also provides the doubling wrapper: power-of-two levels 2, 4, ..., 2^l that
share one structure, so only a batch above the largest level is refused
(CapacityError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .connectivity_oracle import DecrementalOracle, make_oracle
from .errors import CapacityError, ContractViolation, PhaseError
from .graph_core import Graph, StatePartition, UpdateBatch
from .incremental_sensitivity import SuperGraph, build_supergraph


@dataclass
class FullyDynamicStructure:
    """Oracle family for one graph and partition. ``single`` and ``pairs``
    hold the augmented oracles built so far: fd_update builds each on its
    first push, and it is kept, rollback included.

    fd_update and fd_rollback build, push deletions into and reset the
    oracles, so they need exclusive access. fd_query builds nothing and only
    reads the oracles, and like incremental_query it writes only its batch's
    ``query_probes``: concurrent queries on one batch answer correctly but
    may under-count.
    """

    partition: StatePartition
    factory: str
    base: DecrementalOracle  # over the base active vertices; the only oracle built up front
    single: dict[int, DecrementalOracle] = field(default_factory=dict)  # inactive u -> over base + u
    pairs: dict[tuple[int, int], DecrementalOracle] = field(default_factory=dict)  # inactive a < b -> base + a, b
    session: SuperGraph | None = None

    @property
    def oracle_count(self) -> int:
        """Size of the family the structure answers for, built or not."""
        k = self.partition.n_off
        return 1 + k + k * (k - 1) // 2


def build_fully_dynamic(g: Graph, p: StatePartition, oracle: str = "rebuild") -> FullyDynamicStructure:
    """Build the base oracle over ``g``'s active vertices, the root of a
    family of 1 + n_off + n_off*(n_off-1)/2 oracles. The augmented members
    are left to fd_update, which builds each on its first push."""
    return FullyDynamicStructure(partition=p, factory=oracle, base=make_oracle(oracle, g, p.on_mask))


def _member(members: dict, key, base: DecrementalOracle, extras) -> DecrementalOracle:
    """``members[key]``, built as ``base.augment(extras)`` on first use and
    kept; a build that raises stores nothing."""
    o = members.get(key)
    if o is None:
        o = members[key] = base.augment(extras)
    return o


def fd_update(s: FullyDynamicStructure, deactivate, activate) -> SuperGraph:
    """Process one batch: push deletions into the touched oracles, then build
    the bridge graph over the activated vertices from pair-oracle queries.
    The bridge graph is the batch's record and its handle.

    Oracle-call accounting: len(touched) = 1 + |I| + C(|I|, 2) delete calls
    and build_probes = C(|I|, 2) pair queries, where I is the activation set.
    An augmented oracle is built by the first batch that pushes it, before
    that batch's first push. The base oracle is pushed first, so with
    ``rebuild`` the family shares the base's split around the deactivated
    vertices, and each member, pushed that very set, skips the batch check
    the base made. If any step raises, the batch's oracles are reset and no
    half-built oracle is kept before the exception propagates, so the
    structure stays ready for the next update.
    """
    if s.session is not None:
        raise PhaseError("an update is active; roll it back before starting another")
    batch = UpdateBatch.for_partition(s.partition, deactivate, activate)
    up = sorted(batch.activate)
    base, pairs = s.base, s.pairs
    oracles = [base]
    oracles += (_member(s.single, u, base, (u,)) for u in up)
    oracles += (_member(pairs, ab, base, ab) for ab in combinations(up, 2))
    try:
        for o in oracles:
            o.delete_batch(batch.deactivate)
        sg = build_supergraph(up, lambda x, y: pairs[x, y].query(x, y), touched=tuple(oracles))
    except BaseException:
        for o in oracles:  # reset() of an unpushed oracle is a no-op
            o.reset()
        raise
    s.session = sg
    return sg


def fd_query(s: FullyDynamicStructure, a: SuperGraph, u: int, v: int) -> bool:
    """True iff u and v are connected after the batch behind ``a``, the
    bridge graph fd_update returned. Adds the oracle queries it makes to
    ``a.query_probes``.

    The first oracle query is the checked ``query``, which checks both
    endpoints before any is counted; every later one is the unchecked
    ``_connected`` on endpoints that first call proved legal. With neither
    activated the first is ``base.query(u, v)``, over the active vertices
    less the deactivations; each member ``single[w]`` holds those vertices
    plus ``w``, an activated vertex that is never deactivated, so its
    ``_connected(w, u)`` and ``(w, v)`` follow. With ``u`` activated (after
    the swap) the first is ``single[w].query(w, v)`` for the first ``w`` in
    u's bridge component, never empty; ``v`` is not activated, so ``v != w``,
    and ``v`` is legal in every such member exactly when it is in the base.
    Two activated endpoints are legal by construction.
    """
    if s.session is not a:
        raise ContractViolation("stale update handle")
    comp = a.comp
    u_new = u in comp
    v_new = v in comp
    if u_new and v_new:
        return comp[u] == comp[v]
    if not u_new and not v_new:
        if s.base.query(u, v):
            a.query_probes += 1
            return True
        single, calls = s.single, 1
        for members in a.components:
            hit_u = hit_v = False
            for w in members:
                o = single[w]
                if not hit_u:
                    calls += 1
                    hit_u = o._connected(w, u)
                if not hit_v:
                    calls += 1
                    hit_v = o._connected(w, v)
                if hit_u and hit_v:
                    a.query_probes += calls
                    return True
        a.query_probes += calls
        return False
    # one endpoint was just activated: its batch component must reach the
    # other endpoint through some member's augmented graph
    if v_new:
        u, v = v, u
    single, members = s.single, a.components[comp[u]]
    first = members[0]
    if single[first].query(first, v):
        a.query_probes += 1
        return True
    calls = 1
    # a compare per member, not iter() and next(): those two calls made the
    # median query of the fd-wide-deep benchmark 3% slower (0.870 -> 0.897 us
    # over 8 runs each, 2-vCPU x86 host)
    for w in members:
        if w != first:
            calls += 1
            if single[w]._connected(w, v):
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
