"""Static graphs, on/off vertex partitions, component labeling over an
active vertex mask, its depth-first forest and the forest-guided local split
after deletions, and the text file formats every other module consumes.

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
written in ASCII digits only. All three formats are read by one reader: a
text is split into tokens once and each section converted in bulk; only a
faulty section is read token by token, and its lines are walked only to
name the fault.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple

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
        """The graph of ``edges``: self loops drop, duplicates in either
        orientation collapse, and an endpoint outside [0, n) is a
        ContractViolation.

        Each endpoint goes onto a list per vertex, and the lists become rows
        one at a time, each freed as soon as its row exists; a set is made
        only while a row of two or more entries is built. A set per vertex
        costs 216 B even when empty: held alongside the rows, such sets
        peaked at 287 B/vertex on a graph of mean degree 1.5, where this
        build peaks at 90 (tracemalloc, Python 3.11).
        """
        if n < 0:
            raise ContractViolation(f"vertex count must be non-negative, got {n}")
        nbr: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ContractViolation(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u != v:
                nbr[u].append(v)
                nbr[v].append(u)
        rows: list[tuple[int, ...]] = []
        while nbr:  # popping from the end lets nbr shrink as rows are made
            row = nbr.pop()
            rows.append(tuple(sorted(set(row))) if len(row) > 1 else tuple(row))
        rows.reverse()
        return cls(n=n, m=sum(map(len, rows)) // 2, adj=tuple(rows))

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
        # is_on() inlined, about 130 ns a vertex (n = 20,000, 2-vCPU x86
        # host); off_index holds only inactive vertices, all in [0, n)
        n, off = p.n, p.off_index
        for v in down:
            if not 0 <= v < n or v in off:
                raise ContractViolation(f"cannot deactivate {v}: not an active vertex")
        for v in up:
            if v not in off:
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


# Positions per block of a forest's range-minimum table over its low points:
# a query scans at most two partial blocks and reads two table entries.
LOW_BLOCK = 8


class Forest(NamedTuple):
    """A rooted depth-first spanning forest of the graph induced by an active
    set, one tree per component, with that set's component labeling and the
    low point of every vertex.

    ``labels`` and ``count`` are what ``component_labels`` returns for the
    same set; the tree labeled c is rooted at ``roots[c]``, its smallest
    vertex. An active vertex v is at position ``pre[v]`` of the forest's
    pre-order, ``order`` lists the vertices in that order, and v's subtree
    holds the positions ``pre[v]`` up to ``end[v]`` (exclusive); ``pre`` is
    -1 off the active set. Every edge between active vertices joins an
    ancestor to a descendant. ``low[pre[v]]`` is the smallest position among
    v and its active neighbours, so it names v's highest neighbouring
    ancestor; ``mins`` is a sparse table over the minima of ``low``'s blocks
    of ``LOW_BLOCK`` positions (row k, entry i: the minimum over the blocks i
    up to i + 2^k), which ``low_min`` reads. Nothing writes a forest after
    ``dfs_forest`` returns it: ``split_labels`` returns a split as the few
    labels that change.
    """

    labels: list[int]
    count: int
    pre: list[int]
    end: list[int]
    order: list[int]
    roots: list[int]
    low: list[int]
    mins: list[list[int]]

    def low_min(self, a: int, b: int) -> tuple[int, int]:
        """The smallest ``low`` over the positions a up to b (a < b,
        exclusive), and the entries of ``low`` and ``mins`` read: at most
        2 * LOW_BLOCK."""
        low = self.low
        i, j = -(-a // LOW_BLOCK), b // LOW_BLOCK  # the whole blocks inside
        if i >= j:
            return min(low[a:b]), b - a
        k = (j - i).bit_length() - 1  # two rows of 2^k blocks cover i up to j
        row = self.mins[k]
        edge = low[a : i * LOW_BLOCK] + low[j * LOW_BLOCK : b]
        return min(row[i], row[j - (1 << k)], *edge), len(edge) + 2


def dfs_forest(g, on: str) -> Forest:
    """The depth-first forest of the subgraph induced by the vertices v with
    ``on[v] == "1"`` (``active_flags``), grown by an iterative search from
    each component's smallest vertex, with its low points and their
    range-minimum table, in time linear in n + m.

    A visited vertex v pushes the marker ``~v`` and then its unvisited
    neighbours, so everything visited before the marker pops again is v's
    subtree, and every neighbour visited before v is an ancestor of v: v's
    low point is the smallest of their positions, kept while the same loop
    reads v's adjacency. The stack holds only ints: with an iterator per
    tree-path vertex, the garbage collector rescanned the million live
    iterators of the 10^6-vertex path, half of the 1.4 s that search took
    (Python 3.11, 2-vCPU x86 host).
    """
    n, adj = g.n, g.adj
    labels = [-1] * n
    pre = [-1] * n
    end = [0] * n
    order: list[int] = []
    low: list[int] = []
    roots: list[int] = []
    t = count = 0  # t: the next position; end and low share its int objects with pre
    for s in range(n):
        if on[s] != "1" or labels[s] >= 0:
            continue
        roots.append(s)
        stack = [s]
        while stack:
            v = stack.pop()
            if v < 0:
                end[~v] = t
            elif labels[v] < 0:  # v may have been pushed by several neighbours
                labels[v] = count
                pre[v] = lo = t
                t += 1
                order.append(v)
                stack.append(~v)
                for w in adj[v]:
                    if labels[w] < 0:
                        if on[w] == "1":
                            stack.append(w)
                    elif pre[w] < lo:
                        lo = pre[w]
                low.append(lo)
        count += 1
    # block minima as one min per block over LOW_BLOCK strided slices; the
    # last block is padded with its own last entry
    padded = low + low[-1:] * (-t % LOW_BLOCK)
    mins = [list(map(min, *(padded[i::LOW_BLOCK] for i in range(LOW_BLOCK))))]
    h = 1
    while 2 * h <= len(mins[0]):  # row k covers 2^k blocks from each entry
        row = mins[-1]
        mins.append([a if a < b else b for a, b in zip(row, row[h:])])
        h *= 2
    return Forest(labels, count, pre, end, order, roots, low, mins)


def _piece_bounds(forest: Forest, deleted) -> tuple[list[int], list[int]]:
    """The pre-order positions split into runs that lie in one piece of the
    forest minus ``deleted``: the run from ``bounds[i]`` on lies under the
    tree child at position ``tops[i]`` of its deepest deleted ancestor, or
    has no deleted ancestor where ``tops[i]`` is -1. Costs O(children) per
    deleted vertex, whose children's subtrees tile its own."""
    pre, end, order = forest.pre, forest.end, forest.order
    spans = []  # (start, stop) of each deleted vertex's child subtrees
    for x in deleted:
        start = pre[x] + 1
        while start < end[x]:
            stop = end[order[start]]
            spans.append((start, stop))
            start = stop
    spans.sort()
    n = len(order)
    bounds, tops = [0], [-1]
    inside = [(n + 1, -1)]  # (stop, start) of the spans open here, innermost last
    for start, stop in spans + [(n, n)]:  # the last one only closes the others
        while inside[-1][0] <= start:  # the spans are laminar: the innermost closes first
            bounds.append(inside.pop()[0])
            tops.append(inside[-1][1])
        inside.append((stop, start))
        bounds.append(start)
        tops.append(start)
    return bounds, tops


def _splits_nothing(forest: Forest, deleted: list[int], gone: frozenset[int]) -> tuple[bool, int]:
    """Whether deleting ``deleted``, in ascending order, with ``gone`` the
    same vertices as a set, provably splits no component of ``forest``, read
    from its low points alone; and the entries of ``low`` and ``mins`` read.

    Each piece hanging under a surviving child c of a deleted vertex is
    c's subtree less the subtrees of the outermost deleted vertices in it,
    so a run of pre-order gaps. Its smallest low point m names the highest
    vertex it neighbours; it is linked when m lies above c (m < pre[c]) and
    ``order[m]`` survives, for then that vertex is a proper ancestor of c in
    a piece whose top is shallower. If every hanging piece is linked and no
    deleted vertex is a root, every piece reaches its tree's top piece, so
    no component splits. False means a piece may be cut off; the check
    stops at the first such piece. It costs one range minimum per gap:
    O(children of the deleted vertices + d) queries, each O(LOW_BLOCK).
    """
    pre, end, order, roots = forest.pre, forest.end, forest.order, forest.roots
    labels = forest.labels
    at = sorted(pre[x] for x in deleted)
    reads = 0
    for x in deleted:
        if roots[labels[x]] == x:  # its tree has no top piece for the others to reach
            return False, reads
        top = pre[x] + 1
        while top < end[x]:  # the subtrees of x's children tile its own
            stop = end[order[top]]
            if order[top] not in gone:
                m = a = top
                k = bisect_left(at, top)
                while a < stop:  # each gap ends at an outermost deleted vertex or at stop
                    b = at[k] if k < len(at) and at[k] < stop else stop
                    if a < b:
                        lo, r = forest.low_min(a, b)
                        reads += r
                        if lo < m:
                            m = lo
                    a = end[order[b]] if b < stop else stop
                    k = bisect_left(at, a, k)
                if m >= top or order[m] in gone:
                    return False, reads
            top = stop
    return True, reads


def split_labels(g, forest: Forest, deleted) -> tuple[dict[int, int], int, int]:
    """The labeling left when ``deleted`` leaves ``forest``'s active set,
    found locally and returned as a change to the forest's labels, which it
    never writes: ``moved`` maps each vertex of a piece split off an old
    component to its new id, from ``forest.count`` on. Every other survivor
    keeps its forest label. The deleted vertices, which lie in that set,
    keep theirs too, so readers test them against the batch.
    Returns ``moved`` and the work done: the adjacency entries read, at
    most 2m, and the entries of the forest's low points and range-minimum
    table read.

    Deleting ``deleted`` cuts each tree into tree pieces: the subtree under
    each surviving child of a deleted vertex less the subtrees under deeper
    deleted vertices, and the tree's top piece, which holds its root unless
    that is deleted. First, range minima over the low points decide whether
    every piece provably reaches its tree's top piece
    (``_splits_nothing``); if so, nothing is split and ``moved`` is empty,
    with no adjacency read. Otherwise the pieces race. Each piece is
    connected, so one search per piece starts from its top: the child or
    the root, with no adjacency read. The searches take turns reading one
    vertex each (Even & Shiloach, J. ACM 28(1), 1981); a newly reached
    vertex's piece is one bisect away
    (``_piece_bounds``). A search claims only its own piece's vertices;
    reading a neighbour in another piece merges the two searches' groups.
    Once a component has at most one unfinished group left, each finished
    group is a whole split-off piece and the unfinished one keeps the old
    id. Every edge of a depth-first forest joins an ancestor to a
    descendant, so on random graphs a piece hanging below a deleted vertex
    meets the piece above it within a read or two. Each vertex is claimed
    by one search at most, so the worst case, one deletion splitting a
    component into two large pieces, stays O(n + m).
    """
    adj, labels, pre, order, roots = g.adj, forest.labels, forest.pre, forest.order, forest.roots
    gone = frozenset(deleted)
    deleted = sorted(gone)  # numbers the pieces deterministically
    certified, probes = _splits_nothing(forest, deleted, gone)
    if certified:
        return {}, 0, probes
    bounds, tops = _piece_bounds(forest, deleted)
    # one seed per piece: each hanging piece, keyed by its top's position,
    # then the top piece of each touched tree, keyed by ~its old id. Hanging
    # searches read first in each turn: on random graphs most meet the top
    # piece in their first read, so the top search, which starts at the
    # root, far from the deletions, mostly reads nothing.
    seeds = [(order[top], top) for top in dict.fromkeys(tops[:-1]) if top >= 0]  # the last run starts at n
    seeds += ((roots[c], ~c) for c in sorted({labels[x] for x in deleted}))
    search: dict[int, int] = {}  # piece -> its search
    owner: dict[int, int] = {}  # claimed vertex -> the search that claimed it
    parent: list[int] = []  # union-find over searches
    live: list[int] = []  # per group root: member searches with unread vertices
    comp: list[int] = []  # per search: the old id of its component
    claimed: list[list[int]] = []  # per search: its vertices, read in order
    unfinished: dict[int, int] = {}  # old id -> its unfinished groups
    for v, piece in seeds:
        if v in gone:  # a deleted root or child: that piece holds nothing more
            continue
        c = labels[v]
        i = owner[v] = search[piece] = len(parent)
        parent.append(i)
        live.append(1)
        comp.append(c)
        claimed.append([v])
        unfinished[c] = unfinished.get(c, 0) + 1

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work = 0
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
                o = owner.get(w)
                if o is None:
                    if labels[w] < 0 or w in gone:
                        continue
                    top = tops[bisect_right(bounds, pre[w]) - 1]
                    o = search[top if top >= 0 else ~c]
                    if o == i:
                        owner[w] = i
                        queue.append(w)
                        continue
                elif o == i:
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
    ids: dict[int, int] = {}  # finished group root -> its new id
    moved: dict[int, int] = {}
    for i in range(len(parent)):
        r = find(i)
        if not live[r]:
            moved.update(dict.fromkeys(claimed[i], ids.setdefault(r, forest.count + len(ids))))
    return moved, work, probes


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


def _rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and tokens of each line that holds a token and is not
    a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


def _tokens(text: str) -> list[str]:
    """The tokens in reading order. Every line boundary is whitespace to
    ``str.split()``, so a text without ``#`` splits whole."""
    if "#" not in text:
        return text.split()
    return [tok for _, parts in _rows(text) for tok in parts]


def _line(text: str, i: int) -> int:
    """The line of ``_tokens(text)[i]``, or 1 when the text holds no token;
    walked only to name a fault."""
    for lineno, parts in _rows(text):
        i -= len(parts)
        if i < 0:
            return lineno
    return 1


def _ids(
    text: str, toks: list[str], start: int, stop: int, what: str, n: int | None = None, outside="", repeated=""
) -> list[int]:
    """The values of ``toks[start:stop]``, each ASCII digits only, below
    ``n`` if it is given and, if a ``repeated`` message is, pairwise
    distinct. The section is converted in bulk; only if a check fails is it
    read token by token, raising ParseError at its first fault or at the end
    of input. ``outside`` and ``repeated`` are formatted with ``v`` and ``n``."""
    sec = toks[start:stop]
    joined = "".join(sec)
    if stop <= len(toks) and (not sec or joined.isascii() and joined.isdigit()):
        try:
            ids = list(map(int, sec))
        except ValueError:  # an empty token (a bare sign), or more digits than int() reads
            pass
        else:
            if (n is None or max(ids, default=-1) < n) and not (repeated and len(set(ids)) < len(ids)):
                return ids
    seen: set[int] = set()
    for i in range(start, min(stop, len(toks))):
        try:
            v = parse_int(toks[i], what)
            if n is not None and v >= n:
                raise ParseError(outside.format(v=v, n=n))
            if v in seen:
                raise ParseError(repeated.format(v=v, n=n))
        except ParseError as e:
            raise ParseError(str(e), _line(text, i)) from None
        if repeated:
            seen.add(v)
    raise ParseError(f"unexpected end of input, expected {what}", _line(text, len(toks) - 1))


def load_graph(text: str) -> tuple[Graph, StatePartition]:
    """Parse the graph file format into a normalized Graph and its partition.

    Duplicate edges collapse, self loops drop. Malformed headers, a vertex
    count above MAX_VERTICES, ids >= n and unknown OFF vertices raise
    ParseError naming the offending line. Each section is checked before
    the next is read, so of several faults the first in reading order is
    reported.
    """
    n, ids, off = _sections(text)  # the token list is gone before the graph is built
    return Graph.from_edges(n, zip(ids[::2], ids[1::2])), StatePartition.from_off(n, off)


def _sections(text: str) -> tuple[int, list[int], list[int]]:
    """The vertex count, edge endpoints and OFF ids of a graph file."""
    toks = _tokens(text)
    (n,) = _ids(text, toks, 0, 1, "vertex count")
    if n > MAX_VERTICES:
        raise ParseError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}", _line(text, 0))
    (m,) = _ids(text, toks, 1, 2, "edge count")
    off_at = 2 + 2 * m
    ids = _ids(text, toks, 2, off_at, "edge endpoint", n, "vertex id {v} outside [0, {n})")
    if off_at == len(toks):
        raise ParseError("unexpected end of input, expected 'OFF' header", _line(text, off_at - 1))
    if toks[off_at] != "OFF":
        raise ParseError(f"expected 'OFF', got {toks[off_at]!r}", _line(text, off_at))
    (k,) = _ids(text, toks, off_at + 1, off_at + 2, "inactive vertex count")
    stop = off_at + 2 + k
    off_msgs = "unknown vertex {v} in OFF list", "duplicate vertex {v} in OFF list"
    off = _ids(text, toks, off_at + 2, stop, "inactive vertex id", n, *off_msgs)
    if stop < len(toks):
        raise ParseError(f"unexpected trailing input {toks[stop]!r}", _line(text, stop))
    return n, ids, off


def dump_graph(g: Graph, p: StatePartition) -> str:
    """Serialize to the graph file format; load_graph(dump_graph(...)) round-trips."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.append(f"OFF {p.n_off}")
    lines.extend(str(v) for v in p.off_vertices)
    return "\n".join(lines) + "\n"


def parse_update_text(text: str, n: int) -> tuple[list[int], list[int]]:
    """Parse an update file into (deactivate, activate) vertex lists, each in
    reading order. The ids before the first unsigned token are converted as
    one section, so of several faults the first in reading order is reported."""
    toks = _tokens(text)
    bad = next((i for i, tok in enumerate(toks) if tok[0] not in "+-"), len(toks))
    msgs = "vertex id {v} outside [0, {n})", "vertex {v} flipped more than once in the batch"
    ids = _ids(text, [tok[1:] for tok in toks], 0, bad, "vertex id after the sign", n, *msgs)
    if bad < len(toks):
        raise ParseError(f"expected '+v' or '-v', got {toks[bad]!r}", _line(text, bad))
    signed = list(zip(toks, ids))
    return [v for tok, v in signed if tok[0] == "-"], [v for tok, v in signed if tok[0] == "+"]


def parse_query_text(text: str) -> list[tuple[int, int]]:
    """Parse a query file into (u, v) pairs. Whether an id names a vertex is
    checked per query at run time so every engine reports illegal endpoints
    the same way. Each token is read before the count's parity is checked,
    so of several faults the first in reading order is reported."""
    toks = _tokens(text)
    ids = _ids(text, toks, 0, len(toks), "vertex id")
    del toks  # freed before the pairs are built, about 27 B per token less at the peak
    if len(ids) % 2 != 0:
        raise ParseError("dangling query endpoint", _line(text, len(ids) - 1))
    return list(zip(ids[::2], ids[1::2]))
