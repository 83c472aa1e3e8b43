"""Static graphs, on/off vertex partitions, component labeling over an
active vertex mask, and the text file formats every other module consumes.

Graph file format (UTF-8 text, lines starting with '#' are ignored anywhere):

    n m
    u v          <- m edge lines, 0-based endpoints
    OFF k
    v1 v2 ... vk <- k initially inactive vertices, whitespace/newline separated

Update file: one token per line, ``+v`` activates v, ``-v`` deactivates v.
Query file: one ``u v`` pair per line.

Every number in these formats is written in ASCII digits only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .bits import all_bits, has_bit, iter_bits, mask_of
from .errors import ContractViolation, ParseError, QueryEndpointError

# Largest vertex count load_graph accepts; it allocates per vertex before
# reading any edge, and every mask and labeling is O(n) per operation.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is normalized at construction: symmetric, sorted, no self
    loops, no parallel edges. ``adj_masks[v]`` is the neighbor set of v
    packed into an int bitmask.
    """

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]
    adj_masks: tuple[int, ...] = field(compare=False, repr=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ContractViolation(f"vertex count must be non-negative, got {n}")
        nbr: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                continue
            nbr[u].add(v)
            nbr[v].add(u)
        adj = tuple(tuple(sorted(s)) for s in nbr)
        masks = tuple(mask_of(s) for s in nbr)
        m = sum(len(s) for s in nbr) // 2
        return cls(n=n, m=m, adj=adj, adj_masks=masks)

    def neighbor_mask(self, v: int) -> int:
        return self.adj_masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        return has_bit(self.adj_masks[u], v)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)


@dataclass(frozen=True)
class StatePartition:
    """Which vertices start active.

    Inactive vertices get dense indices 0..n_off-1 in ascending vertex order;
    the bit arrays of the activation engine are indexed by those.
    """

    n: int
    on_mask: int
    n_on: int
    n_off: int
    off_vertices: tuple[int, ...]
    off_index: Mapping[int, int] = field(compare=False, repr=False)

    @classmethod
    def from_off(cls, n: int, off: Iterable[int]) -> "StatePartition":
        off_sorted = tuple(sorted(set(off)))
        for v in off_sorted:
            if not 0 <= v < n:
                raise ContractViolation(f"inactive vertex {v} outside [0, {n})")
        on_mask = all_bits(n) & ~mask_of(off_sorted)
        index = {v: i for i, v in enumerate(off_sorted)}
        return cls(
            n=n,
            on_mask=on_mask,
            n_on=n - len(off_sorted),
            n_off=len(off_sorted),
            off_vertices=off_sorted,
            off_index=index,
        )

    def is_on(self, v: int) -> bool:
        return has_bit(self.on_mask, v)


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of state flips relative to the preprocessed partition."""

    deactivate: frozenset[int]
    activate: frozenset[int]

    @property
    def d(self) -> int:
        return len(self.deactivate) + len(self.activate)

    @classmethod
    def for_partition(cls, p: StatePartition, deactivate, activate) -> "UpdateBatch":
        down = frozenset(deactivate)
        up = frozenset(activate)
        overlap = down & up
        if overlap:
            raise ContractViolation(f"vertices {sorted(overlap)} appear on both sides of the batch")
        for v in down:
            if not (0 <= v < p.n and p.is_on(v)):
                raise ContractViolation(f"cannot deactivate {v}: not an active vertex")
        for v in up:
            if not (0 <= v < p.n) or p.is_on(v):
                raise ContractViolation(f"cannot activate {v}: not an inactive vertex")
        return cls(down, up)


def _flood(g, active_mask: int, seed: int) -> int:
    """Vertices of ``active_mask`` reachable from the vertex mask ``seed``."""
    reach = frontier = seed
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.neighbor_mask(v)
        frontier = grow & active_mask & ~reach
        reach |= frontier
    return reach


def component_labels(g, active_mask: int) -> tuple[list[int], list[int]]:
    """Component labeling of the subgraph induced by ``active_mask``, over
    any object exposing ``n`` and ``neighbor_mask``.

    Returns (labels, per-component vertex masks). Components are numbered by
    their smallest vertex, so the output is deterministic; labels are -1
    outside the active set.
    """
    labels = [-1] * g.n
    masks: list[int] = []
    remaining = active_mask
    while remaining:
        # the lowest unlabeled vertex seeds the next component
        comp = _flood(g, active_mask, remaining & -remaining)
        cid = len(masks)
        for v in iter_bits(comp):
            labels[v] = cid
        masks.append(comp)
        remaining &= ~comp
    return labels, masks


def reachable_mask(g, active_mask: int, source: int) -> int:
    """Vertices reachable from ``source`` using only active vertices."""
    if not has_bit(active_mask, source):
        raise QueryEndpointError(f"vertex {source} is not active")
    return _flood(g, active_mask, 1 << source)


def parse_int(tok: str, what: str, lineno: int | None = None) -> int:
    """The value of a token made of ASCII digits only, the one integer rule
    of every input format. Signs, underscores and other scripts' digits,
    which ``int()`` would accept, raise ParseError naming the line."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"expected {what}, got {tok!r}", lineno)
    return int(tok)


def _token_stream(text: str) -> list[tuple[str, int]]:
    toks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        for tok in line.split():
            toks.append((tok, lineno))
    return toks


def load_graph(text: str) -> tuple[Graph, StatePartition]:
    """Parse the graph file format into a normalized Graph and its partition.

    Duplicate edges collapse, self loops drop. Malformed headers, a vertex
    count above MAX_VERTICES, ids >= n and unknown OFF vertices raise
    ParseError naming the offending line.
    """
    toks = _token_stream(text)
    pos = 0
    last_line = toks[-1][1] if toks else 1

    def take(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError(f"unexpected end of input, expected {what}", last_line)
        tok = toks[pos]
        pos += 1
        return tok

    def take_int(what: str) -> tuple[int, int]:
        tok, lineno = take(what)
        return parse_int(tok, what, lineno), lineno

    n, lineno = take_int("vertex count")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}", lineno)
    m, _ = take_int("edge count")

    edges = []
    for _ in range(m):
        u, lu = take_int("edge endpoint")
        v, lv = take_int("edge endpoint")
        for x, lx in ((u, lu), (v, lv)):
            if not 0 <= x < n:
                raise ParseError(f"vertex id {x} outside [0, {n})", lx)
        edges.append((u, v))

    kw, lineno = take("'OFF' header")
    if kw != "OFF":
        raise ParseError(f"expected 'OFF', got {kw!r}", lineno)
    k, _ = take_int("inactive vertex count")
    off = []
    seen = set()
    for _ in range(k):
        v, lineno = take_int("inactive vertex id")
        if not 0 <= v < n:
            raise ParseError(f"unknown vertex {v} in OFF list", lineno)
        if v in seen:
            raise ParseError(f"duplicate vertex {v} in OFF list", lineno)
        seen.add(v)
        off.append(v)
    if pos < len(toks):
        tok, lineno = toks[pos]
        raise ParseError(f"unexpected trailing input {tok!r}", lineno)

    return Graph.from_edges(n, edges), StatePartition.from_off(n, off)


def dump_graph(g: Graph, p: StatePartition) -> str:
    """Serialize to the graph file format; load_graph(dump_graph(...)) round-trips."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.append(f"OFF {p.n_off}")
    lines.extend(str(v) for v in p.off_vertices)
    return "\n".join(lines) + "\n"


def parse_update_text(text: str, n: int) -> tuple[list[int], list[int]]:
    """Parse an update file into (deactivate, activate) vertex lists."""
    deactivate: list[int] = []
    activate: list[int] = []
    seen: set[int] = set()
    for tok, lineno in _token_stream(text):
        sign = tok[0]
        if sign not in "+-":
            raise ParseError(f"expected '+v' or '-v', got {tok!r}", lineno)
        v = parse_int(tok[1:], "vertex id after the sign", lineno)
        if not 0 <= v < n:
            raise ParseError(f"vertex id {v} outside [0, {n})", lineno)
        if v in seen:
            raise ParseError(f"vertex {v} flipped more than once in the batch", lineno)
        seen.add(v)
        (activate if sign == "+" else deactivate).append(v)
    return deactivate, activate


def parse_query_text(text: str) -> list[tuple[int, int]]:
    """Parse a query file into (u, v) pairs. Whether an id names a vertex is
    checked per query at run time so every engine reports illegal endpoints
    the same way."""
    toks = _token_stream(text)
    if len(toks) % 2 != 0:
        raise ParseError("dangling query endpoint", toks[-1][1])
    ids = [parse_int(tok, "vertex id", lineno) for tok, lineno in toks]
    return list(zip(ids[::2], ids[1::2]))
