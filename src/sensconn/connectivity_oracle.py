"""Decremental connectivity oracles.

An oracle answers connectivity over a fixed graph restricted to a set of
active vertices, after at most one batch of vertex deletions per cycle.
Implementations register under a string name and are selected by the fully
dynamic engine and the CLI.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .bits import all_bits, mask_of, word_count
from .errors import ContractViolation, PhaseError, QueryEndpointError
from .graph_core import active_flags, component_labels, reachable, split_labels

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

    The oracle answers connectivity in ``graph[active - deleted]``. It starts
    fresh; ``delete_batch`` may be called exactly once per cycle, after which
    queries see the survivors; ``reset`` rolls back to the fresh state.
    Queries are legal in either phase. Query endpoints and deleted vertices
    must lie in ``active``.

    ``query`` is the checked entry point, which the fully dynamic engine
    relies on as the only check of its query endpoints; a factory implements
    the unchecked ``_connected``.

    Oracles come in families. ``make_oracle`` builds a family's ``root`` over
    an active vertex mask (``None`` means every vertex); ``augment`` builds a
    member over the same vertices plus a few ``extras``. The root alone holds
    the active set, as its mask and as the flag string ``on``; a member keeps
    only its extras and reads the root's ``on``. A member may reuse the work
    its root has done for the batch the root currently holds, and must stay
    correct whatever that batch is, including after the root is reset; the
    root is only read.

    ``delete_batch`` and ``reset`` mutate the oracle and its ``costs``, and
    a push may read ``root``; ``query`` only reads. Concurrent queries on one
    oracle are therefore safe, but no call may overlap its ``delete_batch``
    or ``reset``, nor a push overlap those of its ``root``.
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

    @property
    def active(self) -> int:
        """The active vertex mask, built from the root's when read."""
        return self.root.mask | mask_of(self.extras)

    def augment(self, extras) -> "DecrementalOracle":
        """An oracle of the same factory in this oracle's family, over its
        active vertices plus ``extras``, each an inactive vertex in [0, n).

        The fully dynamic engine builds a member the first time an update
        pushes it, inside that update, so building one may cost no more
        than one push (``delete_batch``) into it."""
        grown = self.extras
        for x in extras:
            if not 0 <= x < self.graph.n or self._has(x) or x in grown:
                raise ContractViolation(f"cannot augment with {x}: not an inactive vertex")
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
    """Baseline oracle: a component labeling of the survivors; queries are
    two label reads. The root labels its active set at build and splits that
    labeling locally on a deletion (``split_labels``). Every other member of
    the family shares the root's labels and records only, in O(deg) of its
    extras, which root components they join; a deletion the root does not
    hold as well labels the member's survivors from scratch.

    A labeling is ``(labels, merge)``. ``labels`` labels some survivors and
    is -1 elsewhere; it is shared and never mutated. A vertex's key is its
    label, or ``~v`` where the label is -1; ``merge`` maps keys to component
    ids (an absent key is its own id) and holds every survivor left at -1.
    """

    name = "rebuild"

    def _preprocess(self):
        g, root = self.graph, self.root
        if root is self:
            labels, self._count = component_labels(g, self.mask)
            self._fresh = labels, {}
            self.costs.t_p += g.n + 2 * g.m
            self.costs.space_s = g.n + word_count(g.n)
        else:
            self._fresh, work = self._extend(root._fresh[0])
            self.costs.t_p += work
            self.costs.space_s = 1 + len(self.extras) + len(self._fresh[1])
        self._labels, self._merge = self._fresh

    def _apply_delete(self, vertices):
        g, root = self.graph, self.root
        if not vertices:
            (self._labels, self._merge), work = self._fresh, 1
        elif root is self:
            labels, _, work = split_labels(g, self._fresh[0], self._count, vertices)
            self._labels, self._merge = labels, {}
        elif root.deleted == vertices:
            # the root holds these vertices, so every extra survives
            (self._labels, self._merge), work = self._extend(root._labels)
        else:
            self._labels, self._merge = component_labels(g, self.active & ~mask_of(vertices))[0], {}
            work = g.n + 2 * g.m
        self.costs.t_u += work

    def _extend(self, labels):
        """``labels`` plus this oracle's extra vertices, and the work done
        (edges read plus union-find steps). Each component an extra touches
        is hung under that extra's root, so a find walks at most one link
        per extra."""
        adj, extras = self.graph.adj, self.extras
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
        self.costs.t_p += 1
        self.costs.space_s = word_count(self.graph.n) if self.root is self else 1 + len(self.extras)

    def _apply_delete(self, vertices):
        self.costs.t_u += len(vertices) + 1

    def _apply_reset(self):
        pass

    def _connected(self, u, v):
        return v in reachable(self.graph, self.active & ~mask_of(self.deleted), u)

