"""Decremental connectivity oracles.

An oracle answers connectivity over a fixed graph restricted to a set of
active vertices, after at most one batch of vertex deletions per cycle.
Implementations register under a string name and are selected by the fully
dynamic engine and the CLI. One ships built in, ``rebuild``; ``register_oracle``
plugs in others. Oracles come in families: a root over an active vertex set,
and members over its vertices plus one or two extra ones.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .bits import all_bits, word_count
from .errors import ContractViolation, PhaseError, QueryEndpointError
from .graph_core import active_flags, dfs_forest, split_labels

FRESH = "fresh"
UPDATED = "updated"
MAX_EXTRAS = 2  # the most extras a member of a family holds


@dataclass
class OracleCosts:
    """Abstract work counters in elementary probes, not wall clock.

    ``t_p`` and ``space_s`` are set by preprocessing; ``t_u`` grows with a
    push, by every entry it reads and every entry it records, and ``rebase``
    drops it back to 0. Queries count nothing.
    """

    t_p: int = 0
    t_u: int = 0
    space_s: int = 0

    def rebase(self):
        self.t_u = 0


class DecrementalOracle(abc.ABC):
    """Connectivity oracle over a fixed graph restricted to a set of active
    vertices, with a sensitivity-style lifecycle.

    The oracle answers connectivity in ``graph[active - deleted]``. It starts
    fresh; ``delete_batch`` may be called exactly once per cycle, after which
    queries see the survivors; ``reset`` rolls back to the fresh state.
    Queries are legal in either phase. Query endpoints and deleted vertices
    must lie in ``active``.

    ``query`` is the checked entry point; a factory implements the unchecked
    ``_connected``. The fully dynamic engine sends each query's first oracle
    call through ``query``, its only check of the endpoints, and the rest to
    ``_connected`` on endpoints that first call proved legal. So
    ``_connected`` must answer for any endpoints legal in its own oracle,
    whether or not ``query`` ran on that oracle.

    Oracles come in families. ``make_oracle`` builds a family's ``root`` over
    an active vertex mask (``None`` means every vertex); ``augment`` builds a
    member over the same vertices plus one or two ``extras``. The root alone
    holds the active set, as its mask and as the flag string ``on``; a member
    keeps only its extras and reads the root's ``on``. A member may reuse the
    work its root has done for the batch the root currently holds, and must
    stay correct whatever that batch is, including after the root is reset.
    A member pushed the very set its root holds skips the batch check, which
    the root's push made.

    ``delete_batch`` and ``reset`` mutate the oracle and its ``costs``; a
    member's push may read its ``root``, and no push or reset writes another
    oracle. ``query`` only reads. Concurrent queries on one oracle are
    therefore safe, but no call on any oracle of a family may overlap a push
    or reset in that family. Members and their root may be reset in any
    order.
    """

    name = "abstract"
    root: "DecrementalOracle | None" = None  # augment sets it before __init__ runs
    extras: tuple[int, ...] = ()

    def __init__(self, graph, active: int | None = None):
        if self.root is None:  # built by make_oracle: the root of a new family
            self.root = self
            self.mask = all_bits(graph.n) if active is None else active
            self.on = active_flags(graph.n, self.mask)
        else:
            self.on = self.root.on
        self.graph = graph
        self.costs = OracleCosts()
        self.deleted: frozenset[int] = frozenset()
        self.phase = FRESH
        self._preprocess()

    def augment(self, extras) -> "DecrementalOracle":
        """An oracle of the same factory in this oracle's family, over its
        active vertices plus ``extras``, each an inactive vertex in [0, n);
        the new oracle holds at most ``MAX_EXTRAS`` (two) extras in all.

        The fully dynamic engine builds a member the first time an update
        pushes it, inside that update, so building one may cost no more
        than one push (``delete_batch``) into it."""
        grown = self.extras
        for x in extras:
            if not 0 <= x < self.graph.n or self._has(x) or x in grown:
                raise ContractViolation(f"cannot augment with {x}: not an inactive vertex")
            if len(grown) == MAX_EXTRAS:
                raise ContractViolation(f"cannot augment with {x}: a member has at most {MAX_EXTRAS} extras")
            grown += (x,)
        o = object.__new__(type(self))
        o.root, o.extras = self.root, grown
        o.__init__(self.graph)
        return o

    def _has(self, v: int) -> bool:
        """Whether v is active in this oracle; a range test first, since a
        negative index would wrap to the end of ``on``."""
        return 0 <= v < self.graph.n and (self.on[v] == "1" or v in self.extras)

    def delete_batch(self, vertices) -> None:
        if self.phase != FRESH:
            raise PhaseError(f"{self.name} oracle already holds a deletion batch; reset() first")
        vs = frozenset(vertices)
        # a batch the root holds, as this very set, was checked by the root's
        # push, and every vertex active in the root is active in its members
        if vs is not self.root.deleted:
            for v in vs:
                if not self._has(v):
                    raise ContractViolation(f"cannot delete {v}: not active in this oracle")
        self._apply_delete(vs)
        self.deleted = vs
        self.phase = UPDATED

    def query(self, u: int, v: int) -> bool:
        n, on, extras, deleted = self.graph.n, self.on, self.extras, self.deleted
        # _has() inlined for both endpoints at once: a bridged fully dynamic
        # query makes up to 1 + 2d oracle queries, and a _has() call per
        # endpoint made each oracle query about 25% slower (0.70 -> 0.89 us
        # on an augmented rebuild oracle at n = 20,000, 2-vCPU x86 host).
        if not (0 <= u < n and 0 <= v < n and (on[u] == "1" or u in extras)
                and (on[v] == "1" or v in extras)) or u in deleted or v in deleted:
            for x in (u, v):  # name the first bad endpoint
                if not self._has(x):
                    raise QueryEndpointError(f"vertex {x} is not active")
                if x in deleted:
                    raise QueryEndpointError(f"vertex {x} is deleted: deactivated by the current batch")
        return self._connected(u, v)

    def reset(self) -> None:
        self.deleted = frozenset()
        self.phase = FRESH
        self._apply_reset()
        self.costs.rebase()

    @abc.abstractmethod
    def _preprocess(self): ...

    @abc.abstractmethod
    def _apply_delete(self, vertices: frozenset[int]): ...

    @abc.abstractmethod
    def _apply_reset(self): ...

    @abc.abstractmethod
    def _connected(self, u: int, v: int) -> bool: ...


_REGISTRY: dict[str, type[DecrementalOracle]] = {}


def register_oracle(cls):
    _REGISTRY[cls.name] = cls
    return cls


def make_oracle(name: str, graph, active: int | None = None) -> DecrementalOracle:
    """Build the registered oracle ``name`` over ``graph[active]``, the root
    of a new family; ``augment`` builds its members."""
    return oracle_class(name)(graph, active)


def oracle_class(name: str) -> type[DecrementalOracle]:
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle factory {name!r}; known: {oracle_names()}")
    return _REGISTRY[name]


def oracle_names() -> list[str]:
    return sorted(_REGISTRY)


@register_oracle
class RebuildOracle(DecrementalOracle):
    """Baseline oracle: a component labeling of the survivors; a query is
    two label reads and at most two map lookups per endpoint. The root
    labels its active set at build with a depth-first forest
    (``dfs_forest``), the family's only labeling from scratch, and alone
    keeps that forest and its low points' range-minimum table. Nothing
    writes the forest's labels, the fresh labeling every oracle of the
    family reads. A push finds along the forest the vertices its batch
    relabels (``split_labels``) and keeps them as a small map, ``moved``;
    ``reset`` drops it, so no push or reset costs O(n). On random graphs
    range minima over the low points show for nearly every batch that
    nothing splits, and the push reads no adjacency and records nothing;
    otherwise the forest's pieces race, reading less than the deleted
    vertices' degree.

    A member shares its root's ``moved`` when the root holds exactly the
    member's deletions less its extras; that is the engine's path, an
    activation-only batch included. Any other member splits its own
    deletions along the root's forest, the same local work as a root's push.
    Either way it then records in O(deg) of its extras which components
    they join, in its ``merge`` map.

    A vertex's label is ``moved``'s entry for it, else its fresh label. Its
    key is that label, or ``~v`` where the label is -1; ``merge`` maps keys
    to component ids (an absent key is its own id) and holds every survivor
    left at -1. A deleted vertex keeps its labels, so a reader tests it
    against the batch.
    """

    name = "rebuild"

    def _preprocess(self):
        g, root = self.graph, self.root
        if root is self:
            self._forest = dfs_forest(g, self.mask)
            # the range-minimum table reads each low point once and writes each entry once
            lows = len(self._forest.low) + sum(map(len, self._forest.mins))
            self.costs.t_p += g.n + 2 * g.m + lows
            self.costs.space_s = 4 * g.n + lows + self._forest.count + word_count(g.n)
        self._labels, self._moved = root._forest.labels, {}
        self._fresh_merge, work = self._extend(frozenset())
        self._merge = self._fresh_merge
        if root is not self:
            self.costs.t_p += work
            self.costs.space_s = 1 + len(self.extras) + len(self._fresh_merge)

    def _apply_delete(self, vertices):
        if not vertices:  # the fresh labeling answers already
            self.costs.t_u += 1
            return
        root, extras = self.root, self.extras
        held = vertices if vertices.isdisjoint(extras) else vertices.difference(extras)
        if root is not self and root.deleted == held:  # a member pushed after its root, as the engine does
            self._moved, work = root._moved, 0
        else:  # the root, or a member whose root holds another batch or nothing
            self._moved, reads, probes = split_labels(self.graph, root._forest, held)
            work = len(held) + reads + probes + len(self._moved)
        self._merge, more = self._extend(vertices)
        self.costs.t_u += work + more

    def _extend(self, gone):
        """The merge map of this oracle's extras outside ``gone`` and the
        adjacency entries read. Every label an extra's surviving neighbours
        carry maps to that extra's key; the second extra joins the first
        one's key when the two are adjacent or touch a common label."""
        adj, labels, moved = self.graph.adj, self._labels, self._moved
        merge: dict[int, int] = {}
        work = 0
        first = None  # the first surviving extra and the labels it touches
        for x in self.extras:
            if x in gone:
                continue
            nbrs = adj[x]
            work += len(nbrs)
            if moved or not gone.isdisjoint(nbrs):
                touched = {c for w in nbrs if w not in gone and (c := moved.get(w, labels[w])) >= 0}
            else:
                touched = {c for w in nbrs if (c := labels[w]) >= 0}
            key = ~x
            if first is None:
                first = x, touched
            elif first[0] in nbrs or not touched.isdisjoint(first[1]):
                key = ~first[0]
            merge[~x] = key
            merge.update(dict.fromkeys(touched, key))
        return merge, work

    def _apply_reset(self):
        self._moved, self._merge = {}, self._fresh_merge

    def _connected(self, u, v):
        labels, moved, merge = self._labels, self._moved, self._merge
        lu, lv = labels[u], labels[v]
        if moved:
            lu, lv = moved.get(u, lu), moved.get(v, lv)
        if merge:
            lu = merge.get(lu if lu >= 0 else ~u, lu)
            lv = merge.get(lv if lv >= 0 else ~v, lv)
        return lu == lv
