"""Static graphs, on/off vertex partitions, component labeling over an
active vertex mask and its local split after deletions, and the text file
formats every other module consumes.

Graph file format (UTF-8 text, lines starting with '#' are ignored anywhere):

    n m
    u v          <- m edge lines, 0-based endpoints
    OFF k
    v1 v2 ... vk <- k initially inactive vertices, whitespace/newline separated

Update file: tokens ``+v`` (activates v) and ``-v`` (deactivates v).
Query file: vertex ids read in pairs ``u v``; an odd count is an error.

All three formats are whitespace-separated tokens in any line layout, so
``+1 -2\n+3`` is one update and ``0\n4 1\n3`` the queries (0, 4), (1, 3);
a line break only ends a ``#`` comment and numbers errors. Every number is
written in ASCII digits only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .bits import all_bits, mask_of
from .errors import ContractViolation, ParseError, QueryEndpointError

# Largest vertex count load_graph accepts; it allocates per vertex before
# reading any edge. A graph, a labeling and a search each take O(n + m) words.
MAX_VERTICES = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Adjacency is normalized at construction: symmetric, sorted, no self
    loops, no parallel edges. ``adj[v]`` is the only copy of v's neighbour
    set, so a graph takes O(n + m) memory.
    """

    n: int
    m: int
    adj: tuple[tuple[int, ...], ...]

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
        m = sum(len(s) for s in nbr) // 2
        return cls(n=n, m=m, adj=adj)

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
        if n < 0:
            raise ContractViolation(f"vertex count must be non-negative, got {n}")
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
        return 0 <= v < self.n and v not in self.off_index


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
            if not p.is_on(v):
                raise ContractViolation(f"cannot deactivate {v}: not an active vertex")
        for v in up:
            if not (0 <= v < p.n) or p.is_on(v):
                raise ContractViolation(f"cannot activate {v}: not an inactive vertex")
        return cls(down, up)


def active_flags(n: int, active_mask: int) -> str:
    """Character v is "1" iff v is active; bin() writes the highest bit first."""
    if active_mask < 0:
        raise ContractViolation(f"active mask must be non-negative, got {active_mask}")
    if active_mask >> n:
        raise ContractViolation(f"active mask names vertices outside [0, {n})")
    return bin(active_mask)[:1:-1].ljust(n, "0")


def component_labels(g, active_mask: int) -> tuple[list[int], int]:
    """Component labeling of the subgraph induced by ``active_mask``, over
    any object exposing ``n`` and ``adj``, in time linear in n + m.

    Returns (labels, component count). Components are numbered by their
    smallest vertex, so the output is deterministic; labels are -1 outside
    the active set.
    """
    n, adj = g.n, g.adj
    labels = [-1] * n
    count = 0
    on = active_flags(n, active_mask)
    for s in range(n):
        if on[s] != "1" or labels[s] >= 0:
            continue
        labels[s] = count
        comp = [s]
        for v in comp:  # comp grows while it is read: a breadth-first search
            for w in adj[v]:
                if labels[w] < 0 and on[w] == "1":
                    labels[w] = count
                    comp.append(w)
        count += 1
    return labels, count


def split_labels(g, labels: list[int], count: int, deleted) -> tuple[list[int], int, int]:
    """The component labeling left when ``deleted`` leaves the active set of
    ``labels``, found locally.

    ``labels`` labels the components of some active set with ids below
    ``count`` and is -1 elsewhere; ``deleted`` lies in that set. Returns a
    copy with ``deleted`` at -1 and each piece split off an old component
    under a new id from ``count`` on, the new id bound, and the work done:
    the adjacency entries read, at most 2m.

    Every piece of a component minus ``deleted`` holds a neighbour of a
    deleted vertex, so searches start from those neighbours and take turns
    reading one vertex each (Even & Shiloach, J. ACM 28(1), 1981); searches
    that meet merge into one group. Once a component has at most one
    unfinished group left, each finished group is a whole split-off piece
    and the unfinished one keeps the old id. Each vertex is claimed by one
    search at most, so the worst case, one deletion splitting a component
    into two large pieces, stays O(n + m).
    """
    adj = g.adj
    labels = labels.copy()
    deleted = sorted(deleted)  # numbers the pieces deterministically
    for x in deleted:
        labels[x] = -1
    owner = [-1] * g.n  # vertex -> the search that claimed it
    parent: list[int] = []  # union-find over searches
    live: list[int] = []  # per group root: member searches with unread vertices
    comp: list[int] = []  # per search: the old id of its component
    claimed: list[list[int]] = []  # per search: its vertices, read in order
    unfinished: dict[int, int] = {}  # old id -> its unfinished groups
    work = 0
    for x in deleted:
        work += len(adj[x])
        for w in adj[x]:
            c = labels[w]
            if c >= 0 and owner[w] < 0:
                owner[w] = len(parent)
                parent.append(len(parent))
                live.append(1)
                comp.append(c)
                claimed.append([w])
                unfinished[c] = unfinished.get(c, 0) + 1

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    read = [0] * len(parent)
    turn = [i for i, c in enumerate(comp) if unfinished[c] > 1]
    while turn:
        later = []
        for i in turn:
            c = comp[i]
            if unfinished[c] <= 1:
                continue
            queue = claimed[i]
            v = queue[read[i]]
            read[i] += 1
            work += len(adj[v])
            for w in adj[v]:
                o = owner[w]
                if o == i:
                    continue
                if o < 0:
                    if labels[w] >= 0:
                        owner[w] = i
                        queue.append(w)
                    continue
                a, b = find(i), find(o)
                if a != b:  # two unfinished groups meet
                    parent[b] = a
                    live[a] += live[b]
                    unfinished[c] -= 1
            if read[i] < len(queue):
                later.append(i)
            else:
                r = find(i)
                live[r] -= 1
                if not live[r]:
                    unfinished[c] -= 1
        turn = later
    ids: dict[int, int] = {}
    for i in range(len(parent)):
        r = find(i)
        if not live[r]:
            if r not in ids:
                ids[r] = count
                count += 1
            for v in claimed[i]:
                labels[v] = ids[r]
    return labels, count, work


def reachable(g, active_mask: int, source: int) -> set[int]:
    """The vertices reachable from ``source`` using only active vertices, by
    a depth-first search of its own over ``adj``: the reference calls neither
    ``component_labels`` nor ``split_labels``, which it is used to check."""
    n, adj = g.n, g.adj
    on = active_flags(n, active_mask)
    if not (0 <= source < n and on[source] == "1"):
        raise QueryEndpointError(f"vertex {source} is not active")
    reach = {source}
    stack = [source]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reach and on[w] == "1":
                reach.add(w)
                stack.append(w)
    return reach


def parse_int(tok: str, what: str, lineno: int | None = None) -> int:
    """The value of a token made of ASCII digits only, the one integer rule
    of every input format. Signs, underscores and other scripts' digits,
    which ``int()`` would accept, and more digits than it reads raise
    ParseError naming the line."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"expected {what}, got {tok!r}", lineno)
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got a number of {len(tok)} digits", lineno) from None


def _tokens(text: str) -> tuple[list[str], list[int]]:
    """The tokens in reading order and, index for index, their line numbers."""
    toks: list[str] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            toks += parts
            lines += [lineno] * len(parts)
    return toks, lines


def _past_end(lines: list[int], what: str) -> ParseError:
    """The error for input that ends early; it names the last content line."""
    return ParseError(f"unexpected end of input, expected {what}", lines[-1] if lines else 1)


def _int_at(toks: list[str], lines: list[int], i: int, what: str) -> int:
    if i >= len(toks):
        raise _past_end(lines, what)
    return parse_int(toks[i], what, lines[i])


def load_graph(text: str) -> tuple[Graph, StatePartition]:
    """Parse the graph file format into a normalized Graph and its partition.

    Duplicate edges collapse, self loops drop. Malformed headers, a vertex
    count above MAX_VERTICES, ids >= n and unknown OFF vertices raise
    ParseError naming the offending line. Tokens are checked as they are
    read, so of several faults the first in reading order is reported.
    """
    toks, lines = _tokens(text)
    n = _int_at(toks, lines, 0, "vertex count")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}", lines[0])
    off_at = 2 + 2 * _int_at(toks, lines, 1, "edge count")
    ids = []
    for i in range(2, min(off_at, len(toks))):
        x = parse_int(toks[i], "edge endpoint", lines[i])
        if x >= n:
            raise ParseError(f"vertex id {x} outside [0, {n})", lines[i])
        ids.append(x)
    if off_at >= len(toks):
        raise _past_end(lines, "edge endpoint" if off_at > len(toks) else "'OFF' header")
    if toks[off_at] != "OFF":
        raise ParseError(f"expected 'OFF', got {toks[off_at]!r}", lines[off_at])
    stop = off_at + 2 + _int_at(toks, lines, off_at + 1, "inactive vertex count")
    off: set[int] = set()
    for i in range(off_at + 2, min(stop, len(toks))):
        v = parse_int(toks[i], "inactive vertex id", lines[i])
        if v >= n:
            raise ParseError(f"unknown vertex {v} in OFF list", lines[i])
        if v in off:
            raise ParseError(f"duplicate vertex {v} in OFF list", lines[i])
        off.add(v)
    if stop > len(toks):
        raise _past_end(lines, "inactive vertex id")
    if stop < len(toks):
        raise ParseError(f"unexpected trailing input {toks[stop]!r}", lines[stop])
    return Graph.from_edges(n, zip(ids[::2], ids[1::2])), StatePartition.from_off(n, off)


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
    for tok, lineno in zip(*_tokens(text)):
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
    the same way. Each token is read before the count's parity is checked,
    so of several faults the first in reading order is reported."""
    toks, lines = _tokens(text)
    ids = [parse_int(tok, "vertex id", lineno) for tok, lineno in zip(toks, lines)]
    if len(ids) % 2 != 0:
        raise ParseError("dangling query endpoint", lines[-1])
    return list(zip(ids[::2], ids[1::2]))
