"""Independent answers for every benchmark query.

Nothing here imports sensconn. The reference labels the old vertices that
survive the batch with its own search over adjacency lists, then unions those
components through the activated vertices, the way the paper's bridge graph
does; it never floods the graph after the batch. On a batch without
deactivations the base labeling is reused, so an activation-only cycle costs
O(batch degree), not O(n + m).
"""

from __future__ import annotations

SAME, BRIDGED, MIXED, BATCH = "same", "bridged", "mixed", "batch"
CASES = (SAME, BRIDGED, MIXED, BATCH)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def label(adj, active) -> list[int]:
    """Component ids over the vertices with ``active[v]`` true; -1 elsewhere."""
    labels = [-1] * len(adj)
    k = 0
    for s, on in enumerate(active):
        if not on or labels[s] >= 0:
            continue
        labels[s] = k
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if active[y] and labels[y] < 0:
                    labels[y] = k
                    stack.append(y)
        k += 1
    return labels


class Reference:
    """Answers for one graph and initial partition, one batch at a time."""

    def __init__(self, n: int, edges, off):
        self.adj = adjacency(n, edges)
        self.base_active = bytearray([1]) * n
        for v in off:
            self.base_active[v] = 0
        self.base_labels = label(self.adj, self.base_active)

    def cycle(self, deactivate, activate) -> "CycleAnswers":
        if deactivate:
            survivors = bytearray(self.base_active)
            for v in deactivate:
                survivors[v] = 0
            labels = label(self.adj, survivors)
        else:
            labels = self.base_labels
        return CycleAnswers(self.adj, labels, activate)


class CycleAnswers:
    """Connectivity after one batch: old survivor components, joined through
    the activated vertices by a union-find over component and batch ids."""

    def __init__(self, adj, labels, activate):
        self.labels = labels
        k = max(labels, default=-1) + 1
        self.node = {a: k + i for i, a in enumerate(activate)}
        self.parent = list(range(k + len(activate)))
        for a in activate:
            for y in adj[a]:
                if labels[y] >= 0:
                    self._union(self.node[a], labels[y])
                elif y in self.node:
                    self._union(self.node[a], self.node[y])

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def _id(self, x: int) -> int:
        node = self.node.get(x)
        return self.labels[x] if node is None else node

    def connected(self, u: int, v: int) -> bool:
        return self._find(self._id(u)) == self._find(self._id(v))

    def case(self, u: int, v: int) -> str:
        """Which of the four query paths of the paper applies to (u, v)."""
        u_new, v_new = u in self.node, v in self.node
        if u_new and v_new:
            return BATCH
        if u_new or v_new:
            return MIXED
        return SAME if self.labels[u] == self.labels[v] else BRIDGED
