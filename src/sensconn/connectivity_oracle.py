"""Decremental connectivity oracles and the brute-force reference every engine
in this package is checked against.

An oracle answers connectivity over a fixed graph restricted to a set of
active vertices, after at most one batch of vertex deletions per cycle.
Implementations register under a string name and are selected by the fully
dynamic engine and the CLI.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from .bits import all_bits, has_bit, mask_of, word_count
from .errors import ContractViolation, PhaseError, QueryEndpointError
from .graph_core import component_labels, reachable_mask

FRESH = "fresh"
UPDATED = "updated"


@dataclass
class OracleCosts:
    """Abstract work counters in elementary probes, not wall clock.

    Counters only grow between resets; ``rebase`` drops the per-cycle ones
    back to their post-preprocessing values.
    """

    t_p: int = 0
    t_u: int = 0
    t_q: int = 0
    space_s: int = 0

    def rebase(self):
        self.t_u = 0
        self.t_q = 0


class DecrementalOracle(abc.ABC):
    """Connectivity oracle over a fixed graph restricted to a set of active
    vertices, with a sensitivity-style lifecycle.

    The oracle answers connectivity in ``graph[active - deleted]``; ``active``
    is a vertex bitmask and ``None`` means every vertex. It starts fresh;
    ``delete_batch`` may be called exactly once per cycle, after which queries
    see the survivors; ``reset`` rolls back to the fresh state. Queries are
    legal in either phase. Query endpoints and deleted vertices must lie in
    ``active``.

    Instances are single-threaded: every call, queries included, updates
    ``costs`` (a query adds to ``t_q``), so calls on one oracle must not
    overlap.
    """

    name = "abstract"
    d_dependent = False  # True for implementations sized to a fixed batch capacity

    def __init__(self, graph, active: int | None = None, d: int | None = None):
        full = all_bits(graph.n)
        if active is None:
            active = full
        elif active & ~full:
            raise ContractViolation(f"active mask names vertices outside [0, {graph.n})")
        self.graph = graph
        self.active = active
        self.capacity = d
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
        n, active = self.graph.n, self.active
        for x in (u, v):
            if not (0 <= x < n and active >> x & 1):
                raise QueryEndpointError(f"vertex {x} is not active in this oracle")
            if x in self.deleted:
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


def make_oracle(name: str, graph, active: int | None = None, d: int | None = None) -> DecrementalOracle:
    """Build the registered oracle ``name`` over ``graph[active]``."""
    return oracle_class(name)(graph, active, d=d)


def oracle_class(name: str) -> type[DecrementalOracle]:
    if name not in _REGISTRY:
        raise ValueError(f"unknown oracle factory {name!r}; known: {oracle_names()}")
    return _REGISTRY[name]


def oracle_names() -> list[str]:
    return sorted(_REGISTRY)


@register_oracle
class RebuildOracle(DecrementalOracle):
    """Baseline oracle: recompute a full component labeling at each deletion.

    Deleting costs one pass over the graph, queries are two label reads.
    """

    name = "rebuild"

    def _preprocess(self):
        g = self.graph
        self._fresh_labels, _ = component_labels(g, self.active)
        self._labels = self._fresh_labels
        self.costs.t_p += g.n + 2 * g.m
        self.costs.space_s = g.n + word_count(g.n)

    def _apply_delete(self, vertices):
        g = self.graph
        self._labels, _ = component_labels(g, self.active & ~mask_of(vertices))
        self.costs.t_u += g.n + 2 * g.m

    def _apply_reset(self):
        self._labels = self._fresh_labels

    def _connected(self, u, v):
        self.costs.t_q += 2
        return self._labels[u] == self._labels[v]


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
        reach = reachable_mask(self.graph, self._alive, u)
        self.costs.t_q += reach.bit_count()
        return has_bit(reach, v)


class BruteForceReference:
    """From-scratch reachability over a fixed active set; the ground truth
    every engine is tested against. Stateless beyond its two inputs."""

    def __init__(self, graph, active_mask: int):
        self.graph = graph
        self.active_mask = active_mask

    def is_active(self, v: int) -> bool:
        return 0 <= v < self.graph.n and has_bit(self.active_mask, v)

    def reachable(self, u: int) -> int:
        if not self.is_active(u):
            raise QueryEndpointError(f"vertex {u} is not active")
        return reachable_mask(self.graph, self.active_mask, u)

    def connected(self, u: int, v: int) -> bool:
        if not self.is_active(v):
            raise QueryEndpointError(f"vertex {v} is not active")
        return has_bit(self.reachable(u), v)
