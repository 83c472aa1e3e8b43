"""Test-side reachability oracle, kept independent of the package internals.

Deliberately written over plain adjacency lists with dict/set bookkeeping so
it shares no code path with the package searches it is used to check.
"""

from collections import deque


def brute_reach(g, active, source):
    """Set of vertices reachable from source through active vertices only."""
    if source not in active:
        return set()
    seen = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for w in g.adj[x]:
            if w in active and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def brute_connected(g, active, u, v):
    active = set(active)
    return u in active and v in brute_reach(g, active, u)


def brute_components(g, active):
    """Frozensets of the components of the induced active subgraph."""
    active = set(active)
    out = []
    left = set(active)
    while left:
        start = min(left)
        comp = brute_reach(g, active, start)
        out.append(frozenset(comp))
        left -= comp
    return out
