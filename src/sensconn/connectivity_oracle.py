"""Decremental connectivity oracles.

An oracle answers connectivity over a fixed graph restricted to a set of
active vertices, after at most one batch of vertex deletions per cycle.
Implementations register under a string name and are selected by the fully
dynamic engine and the CLI. One ships built in, ``rebuild``; ``register_oracle``
plugs in others. A factory implements one oracle over an active vertex set,
a family's root. ``Member`` derives the family's other oracles, over the
root's vertices plus one or two extra ones, from the root's component ids
after the batch the root holds; no member outlives its update.
"""

from __future__ import annotations

import abc
from bisect import bisect_left

from .bits import all_bits, word_count
from .errors import ContractViolation, PhaseError, QueryEndpointError
from .graph_core import active_flags, dfs_forest, split_labels

FRESH = "fresh"
UPDATED = "updated"


class DecrementalOracle(abc.ABC):
    """Connectivity oracle over a fixed graph restricted to a set of active
    vertices, with a sensitivity-style lifecycle.

    The oracle answers connectivity in ``graph[active - deleted]``. It starts
    fresh; ``delete_batch`` may be called exactly once per cycle, after which
    queries see the survivors; ``reset`` rolls back to the fresh state.
    Queries are legal in either phase. Query endpoints and deleted vertices
    must lie in ``active``, an int mask that the oracle holds only as the flag
    string ``on`` (``active_flags``).

    A factory implements ``_preprocess``, ``_apply_delete``, ``_apply_reset``
    and one unchecked read, ``_component(v)``: a non-negative int id of
    survivor ``v``'s component after the batch, equal for two survivors
    exactly when they are connected; ``_connected(u, v)`` compares two ids
    unless overridden. ``query`` and ``component`` are their checked entry
    points. The fully dynamic engine sends each query's first oracle call
    through one of them, its only check of the endpoints, and reads
    ``_component`` of the endpoints it proved legal after that. ``reach``
    builds from ``_component`` what a ``Member`` over this oracle's vertices
    plus one or two extras needs, so a factory implements only the root of a
    family; no member outlives the update that derives it.

    Three int fields count work in elementary probes, not wall clock:
    ``t_p``, preprocessing's work, and ``space_s``, the oracle's size, are
    set by ``_preprocess``; ``t_u`` grows with a push, by every entry it
    reads and every entry it records, and ``reset`` drops it back to 0.
    Queries count nothing.

    ``delete_batch`` and ``reset`` mutate the oracle and its ``t_u``;
    ``query``, ``component`` and ``reach`` only read. Concurrent reads of one
    oracle are therefore safe, but none may overlap a push or reset of it.
    """

    name = "abstract"
    extras: tuple[int, ...] = ()  # a member's vertices beyond its root's
    deleted: frozenset[int] = frozenset()
    phase = FRESH
    t_p = t_u = space_s = 0

    def __init__(self, graph, active: int | None = None):
        self.graph = graph
        self.on = active_flags(graph.n, all_bits(graph.n) if active is None else active)
        self._preprocess()

    def _has(self, v: int) -> bool:
        """Whether v is active in this oracle; a range test first, since a
        negative index would wrap to the end of ``on``."""
        return 0 <= v < self.graph.n and (self.on[v] == "1" or v in self.extras)

    def delete_batch(self, vertices) -> None:
        if self.phase != FRESH:
            raise PhaseError(f"{self.name} oracle already holds a deletion batch; reset() first")
        vs = frozenset(vertices)
        self._check_batch(vs)
        self._apply_delete(vs)
        self.deleted = vs
        self.phase = UPDATED

    def _check_batch(self, vertices: frozenset[int]) -> None:
        for v in vertices:
            if not self._has(v):
                raise ContractViolation(f"cannot delete {v}: not active in this oracle")

    def _check_endpoint(self, v: int) -> None:
        if not self._has(v):
            raise QueryEndpointError(f"vertex {v} is not active")
        if v in self.deleted:
            raise QueryEndpointError(f"vertex {v} is deleted: deactivated by the current batch")

    def query(self, u: int, v: int) -> bool:
        n, on, extras, deleted = self.graph.n, self.on, self.extras, self.deleted
        # _has() inlined for both endpoints at once: a _has() call per
        # endpoint made each oracle query about 25% slower (0.70 -> 0.89 us
        # at n = 20,000, 2-vCPU x86 host).
        if not (0 <= u < n and 0 <= v < n and (on[u] == "1" or u in extras)
                and (on[v] == "1" or v in extras)) or u in deleted or v in deleted:
            self._check_endpoint(u)  # name the first bad endpoint
            self._check_endpoint(v)
        return self._connected(u, v)

    def component(self, v: int) -> int:
        """``_component(v)``, after the endpoint checks ``query`` makes."""
        if not (0 <= v < self.graph.n and self.on[v] == "1") or v in self.deleted:
            self._check_endpoint(v)
        return self._component(v)

    def reach(self, x: int) -> set[int]:
        """The component ids of ``x``'s neighbours that survive the batch:
        those an inactive vertex ``x`` joins once activated. Reads ``x``'s
        adjacency once."""
        on, deleted, component = self.on, self.deleted, self._component
        return {component(w) for w in self.graph.adj[x] if on[w] == "1" and w not in deleted}

    def reset(self) -> None:
        self.deleted = frozenset()
        self.phase = FRESH
        self._apply_reset()
        self.t_u = 0

    @abc.abstractmethod
    def _preprocess(self): ...

    @abc.abstractmethod
    def _apply_delete(self, vertices: frozenset[int]): ...

    @abc.abstractmethod
    def _apply_reset(self): ...

    def _connected(self, u: int, v: int) -> bool:
        return self._component(u) == self._component(v)

    @abc.abstractmethod
    def _component(self, v: int) -> int: ...


class Member(DecrementalOracle):
    """The oracle over ``root``'s active vertices plus one or two
    ``extras``, inactive in the root, for the batch the root holds now.
    ``reach`` maps each extra to ``root.reach`` of it after that batch; the
    member keeps it as ``_reach``, so its own inherited ``reach(x)`` stays
    callable.

    Nothing is built: an extra joins the root components its reach set
    holds, and two extras join each other when they are adjacent or reach a
    common component, which ``_preprocess`` records. A member's push takes
    only the very set its root holds, in O(1). It answers right only while
    its root holds that batch, so it lives inside one ``fd_update``. An id
    the member gives to a component one of its extras joins is negative,
    ``~`` that extra; every other survivor keeps its root id.
    """

    name = "member"
    joined = True  # one extra, or two that are adjacent or reach a common component

    def __init__(self, root: DecrementalOracle, extras: tuple[int, ...], reach: dict[int, set[int]]):
        self.root, self.extras, self._reach = root, extras, reach
        self.graph, self.on = root.graph, root.on
        self._preprocess()

    def _preprocess(self):
        if len(self.extras) == 2:
            a, b = self.extras
            adj = self.graph.adj[a]  # sorted: one bisect, O(log deg), tests the edge
            i = bisect_left(adj, b)
            self.joined = (i < len(adj) and adj[i] == b) or not self._reach[a].isdisjoint(self._reach[b])

    def _check_batch(self, vertices):
        if vertices is not self.root.deleted:
            raise ContractViolation("a member takes only the batch its root holds")

    def _apply_delete(self, vertices):
        if len(self.extras) == 1:  # its extra's reach set was read for it; pairs reuse that set
            self.t_u += len(self.graph.adj[self.extras[0]])

    def _apply_reset(self):
        pass

    def _component(self, v):
        c = ~v if v in self.extras else self.root._component(v)
        for x in self.extras:
            if c == ~x or c in self._reach[x]:
                return ~self.extras[0] if self.joined else ~x
        return c


_REGISTRY: dict[str, type[DecrementalOracle]] = {}


def register_oracle(cls):
    _REGISTRY[cls.name] = cls
    return cls


def make_oracle(name: str, graph, active: int | None = None) -> DecrementalOracle:
    """Build the registered oracle ``name`` over ``graph[active]``, the root
    of a new family; ``Member`` derives its members."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle factory {name!r}; known: {oracle_names()}")
    return _REGISTRY[name](graph, active)


def oracle_names() -> list[str]:
    return sorted(_REGISTRY)


@register_oracle
class RebuildOracle(DecrementalOracle):
    """Baseline oracle: a component labeling of the survivors; a query is
    two label reads and, when the batch relabeled anything, one map lookup
    per endpoint. It labels its active set at build with a depth-first
    forest (``dfs_forest``), its only labeling from scratch, and keeps that
    forest and its low points' range-minimum table. Nothing writes the
    forest's labels, the fresh labeling. A push finds along the forest the
    vertices its batch relabels (``split_labels``) and keeps them as a small
    map, ``moved``; ``reset`` drops it, so no push or reset costs O(n). On
    random graphs range minima over the low points show for nearly every
    batch that nothing splits, and the push reads no adjacency and records
    nothing; otherwise the forest's pieces race, reading less than the
    deleted vertices' degree.

    A survivor's component id is its ``moved`` entry, else its fresh label.
    A deleted vertex keeps its labels, so a reader tests it against the
    batch.
    """

    name = "rebuild"

    def _preprocess(self):
        g = self.graph
        self._forest = dfs_forest(g, self.on)
        # the range-minimum table reads each low point once and writes each entry once
        lows = len(self._forest.low) + sum(map(len, self._forest.mins))
        self.t_p = g.n + 2 * g.m + lows
        self.space_s = 4 * g.n + lows + self._forest.count + word_count(g.n)
        self._labels, self._moved = self._forest.labels, {}

    def _apply_delete(self, vertices):
        if not vertices:  # the fresh labeling answers already
            self.t_u += 1
            return
        self._moved, reads, probes = split_labels(self.graph, self._forest, vertices)
        self.t_u += len(vertices) + reads + probes + len(self._moved)

    def _apply_reset(self):
        self._moved = {}

    def _component(self, v):
        return self._moved.get(v, self._labels[v])

    def _connected(self, u, v):
        labels, moved = self._labels, self._moved
        if moved:
            return moved.get(u, labels[u]) == moved.get(v, labels[v])
        return labels[u] == labels[v]
