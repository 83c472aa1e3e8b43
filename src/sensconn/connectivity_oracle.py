"""Decremental connectivity oracles.

An oracle answers connectivity over a fixed graph restricted to a set of
active vertices, after at most one batch of vertex deletions per cycle.
Implementations register under a string name and are selected by the fully
dynamic engine and the CLI.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .bits import all_bits, iter_bits, mask_of, word_count
from .errors import ContractViolation, PhaseError, QueryEndpointError
from .graph_core import component_labels, reachable, split_labels

FRESH = "fresh"
UPDATED = "updated"


@dataclass
class OracleCosts:
    """Abstract work counters in elementary probes, not wall clock.

    ``t_p`` and ``space_s`` are set by preprocessing; ``t_u`` grows with a
    push and ``rebase`` drops it back to 0. Queries count nothing.
    """

    t_p: int = 0
    t_u: int = 0
    space_s: int = 0

    def rebase(self):
        self.t_u = 0


class DecrementalOracle(abc.ABC):
    """Connectivity oracle over a fixed graph restricted to a set of active
    vertices, with a sensitivity-style lifecycle.

    The oracle answers connectivity in ``graph[active - deleted]``; ``active``
    is a vertex bitmask and ``None`` means every vertex. It starts fresh;
    ``delete_batch`` may be called exactly once per cycle, after which queries
    see the survivors; ``reset`` rolls back to the fresh state. Queries are
    legal in either phase. Query endpoints and deleted vertices must lie in
    ``active``.

    ``base`` is an optional oracle over the same graph whose active set is a
    subset of ``active``. An implementation may reuse the work ``base`` has
    done for the batch it currently holds, and must stay correct whatever
    that batch is, including after ``base`` is reset; ``base`` is only read.

    ``delete_batch`` and ``reset`` mutate the oracle and its ``costs``, and
    a push may read ``base``; ``query`` only reads. Concurrent queries on one
    oracle are therefore safe, but no call may overlap its ``delete_batch``
    or ``reset``, nor a push overlap those of its ``base``.
    """

    name = "abstract"
    d_dependent = False  # True for implementations sized to a fixed batch capacity

    def __init__(self, graph, active: int | None = None, d: int | None = None,
                 base: "DecrementalOracle | None" = None):
        full = all_bits(graph.n)
        if active is None:
            active = full
        elif active & ~full:
            raise ContractViolation(f"active mask names vertices outside [0, {graph.n})")
        if base is not None and (base.graph is not graph or base.active & ~active):
            raise ContractViolation("base oracle must be over the same graph and a subset of active")
        self.graph = graph
        self.active = active
        self.capacity = d
        self.base = base
        self.costs = OracleCosts()
        self.deleted: frozenset[int] = frozenset()
        self.phase = FRESH
        self._preprocess()

    def delete_batch(self, vertices) -> None:
        if self.phase != FRESH:
            raise PhaseError(f"{self.name} oracle already holds a deletion batch; reset() first")
        vs = frozenset(vertices)
        n, active = self.graph.n, self.active
        for v in vs:
            if not (0 <= v < n and active >> v & 1):
                raise ContractViolation(f"cannot delete {v}: not active in this oracle")
        self._apply_delete(vs)
        self.deleted = vs
        self.phase = UPDATED

    def query(self, u: int, v: int) -> bool:
        active, deleted = self.active, self.deleted
        # One combined test for valid endpoints: a bridged fully dynamic
        # query makes up to 1 + 2d oracle queries, and the per-endpoint loop
        # alone measured 7-15% more query_p99_us on the fd-wide-deep
        # benchmark. active lies within [0, n), so the shift also rejects
        # ids >= n.
        if u < 0 or v < 0 or not (active >> u & 1 and active >> v & 1) or u in deleted or v in deleted:
            for x in (u, v):  # name the first bad endpoint
                if x < 0 or not active >> x & 1:
                    raise QueryEndpointError(f"vertex {x} is not active in this oracle")
                if x in deleted:
                    raise QueryEndpointError(f"vertex {x} is deleted")
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


def make_oracle(name: str, graph, active: int | None = None, d: int | None = None,
                base: DecrementalOracle | None = None) -> DecrementalOracle:
    """Build the registered oracle ``name`` over ``graph[active]``, reusing
    ``base`` (an oracle over a subset of ``active``) where it can."""
    return oracle_class(name)(graph, active, d=d, base=base)


def oracle_class(name: str) -> type[DecrementalOracle]:
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle factory {name!r}; known: {oracle_names()}")
    return _REGISTRY[name]


def oracle_names() -> list[str]:
    return sorted(_REGISTRY)


@register_oracle
class RebuildOracle(DecrementalOracle):
    """Baseline oracle: a component labeling of the survivors; queries are
    two label reads. An oracle that made its own labeling at build splits
    it locally on a deletion (``split_labels``). One whose ``base`` is a
    plain ``rebuild`` oracle (one without a base of its own) shares the
    base's labels and records only, in O(deg) of its extra vertices, which
    base components they join; a deletion the base does not hold as well
    labels the survivors from scratch.

    A labeling is ``(labels, merge)``. ``labels`` labels some survivors and
    is -1 elsewhere; it is shared and never mutated. A vertex's key is its
    label, or ``~v`` where the label is -1; ``merge`` maps keys to component
    ids (an absent key is its own id) and holds every survivor left at -1.
    """

    name = "rebuild"

    def _preprocess(self):
        g, base = self.graph, self.base
        self._reuse = isinstance(base, RebuildOracle) and base.base is None
        if self._reuse:
            self._extras = tuple(iter_bits(self.active & ~base.active))
            self._fresh, work = self._extend(base._fresh[0])
            self.costs.t_p += work
            self.costs.space_s = 1 + len(self._extras) + len(self._fresh[1])
        else:
            labels, self._count = component_labels(g, self.active)
            self._fresh = labels, {}
            self.costs.t_p += g.n + 2 * g.m
            self.costs.space_s = g.n + word_count(g.n)
        self._labels, self._merge = self._fresh

    def _apply_delete(self, vertices):
        g, base = self.graph, self.base
        if not vertices:
            (self._labels, self._merge), work = self._fresh, 1
        elif not self._reuse:
            labels, _, work = split_labels(g, self._fresh[0], self._count, vertices)
            self._labels, self._merge = labels, {}
        elif base.deleted == vertices:
            # vertices lie in base.active, so every extra survives
            (self._labels, self._merge), work = self._extend(base._labels)
        else:
            self._labels, self._merge = component_labels(g, self.active & ~mask_of(vertices))[0], {}
            work = g.n + 2 * g.m
        self.costs.t_u += work

    def _extend(self, labels):
        """``labels`` plus this oracle's extra vertices, and the work done
        (edges read plus union-find steps). Each component an extra touches
        is hung under that extra's root, so a find walks at most one link
        per extra."""
        adj, extras = self.graph.adj, self._extras
        parent: dict[int, int] = {}
        steps = 0

        def find(k):
            nonlocal steps
            while (up := parent.get(k, k)) != k:
                k = up
                steps += 1
            return k

        for x in extras:
            parent.setdefault(~x, ~x)
            root = find(~x)
            for w in adj[x]:
                k = labels[w]
                if k < 0:
                    if w not in extras:
                        continue  # not a survivor
                    k = ~w
                k = find(k)
                if k != root:
                    parent[k] = root
        merge = {k: find(k) for k in parent}
        return (labels, merge), steps + sum(len(adj[x]) for x in extras)

    def _apply_reset(self):
        self._labels, self._merge = self._fresh

    def _connected(self, u, v):
        labels, merge = self._labels, self._merge
        lu, lv = labels[u], labels[v]
        if merge:
            lu = merge.get(lu if lu >= 0 else ~u, lu)
            lv = merge.get(lv if lv >= 0 else ~v, lv)
        return lu == lv


@register_oracle
class BruteForceOracle(DecrementalOracle):
    """No precomputation at all; every query floods the survivor graph."""

    name = "bruteforce"

    def _preprocess(self):
        self._alive = self.active
        self.costs.t_p += 1
        self.costs.space_s = word_count(self.graph.n)

    def _apply_delete(self, vertices):
        self._alive = self.active & ~mask_of(vertices)
        self.costs.t_u += len(vertices) + 1

    def _apply_reset(self):
        self._alive = self.active

    def _connected(self, u, v):
        return v in reachable(self.graph, self._alive, u)

