from pathlib import Path

import pytest
from hypothesis import settings

import sensconn.connectivity_oracle as oracle_mod
from sensconn.bits import mask_of
from sensconn.connectivity_oracle import DecrementalOracle, RebuildOracle, register_oracle
from sensconn.graph_core import Graph, StatePartition, load_graph, reachable
from sensconn.incremental_sensitivity import build_incremental

settings.register_profile("pkg", deadline=None)
settings.load_profile("pkg")

FIXTURES = Path(__file__).parent / "fixtures"
KEEPS_DELETION = "keeps-deletion-test"


def index_without_off_edges(g, p):
    """A broken activation index: the one of ``g`` without its edges between
    two inactive vertices, so the direct-edge rule is lost."""
    kept = [(u, v) for u, v in g.edges() if p.is_on(u) or p.is_on(v)]
    return build_incremental(Graph.from_edges(g.n, kept), p)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def oracle_registry(monkeypatch):
    """Lets a test register throwaway oracle factories: the factory registry
    is restored when the test ends, so later tests see only the built-ins."""
    monkeypatch.setattr(oracle_mod, "_REGISTRY", dict(oracle_mod._REGISTRY))


@pytest.fixture
def keeps_deletion(oracle_registry):
    """Registers KEEPS_DELETION, a throwaway factory whose reset keeps its
    deletion: it deletes in place by flipping the deleted vertices out of a
    survivor mask, and its reset does not flip them back, so a rerun of the
    same batch flips them in again. Its first batch answers correctly."""

    @register_oracle
    class KeepsDeletion(DecrementalOracle):
        name = KEEPS_DELETION

        def _preprocess(self):
            self._alive = self.mask

        def _apply_delete(self, vertices):
            self._alive ^= mask_of(vertices)

        def _apply_reset(self):
            pass  # the fault: _alive still lacks the deleted vertices

        def _connected(self, u, v):
            return bool(self._alive >> u & 1) and v in reachable(self.graph, self._alive, u)

        def _component(self, v):
            # the smallest vertex v reaches; one of its own past n where the fault left v dead
            return min(reachable(self.graph, self._alive, v)) if self._alive >> v & 1 else self.graph.n + v

    return KEEPS_DELETION


@pytest.fixture
def pushed(monkeypatch):
    """Every oracle ``DecrementalOracle.delete_batch`` receives while the
    test runs, in push order: for a fully dynamic update the base, then each
    activated vertex's member, then each pair's. The list keeps them alive,
    which no update does."""
    pushed = []
    push = DecrementalOracle.delete_batch

    def recorded(o, vertices):
        pushed.append(o)
        push(o, vertices)

    monkeypatch.setattr(DecrementalOracle, "delete_batch", recorded)
    return pushed


@pytest.fixture
def rebuild_twin(oracle_registry):
    """Registers a second factory that is ``rebuild`` under another name,
    for tests that need two registered factories; returns its name."""

    @register_oracle
    class RebuildTwin(RebuildOracle):
        name = "rebuild-twin-test"

    return RebuildTwin.name


@pytest.fixture
def p5():
    """Path 0-1-2-3-4 with the middle vertex initially inactive."""
    return load_graph((FIXTURES / "p5.graph").read_text())


@pytest.fixture
def mixed():
    """Active path 0-1-2-3-4 plus inactive vertex 5 wired to both ends."""
    return load_graph((FIXTURES / "mixed.graph").read_text())


@pytest.fixture
def three_hubs():
    """Inactive 0..6 around active hubs 7, 8, 9: the batch of all seven
    splits into {0, 6} (hub 7), {1, 5} (hub 8) and {2, 3, 4} (hub 9)."""
    g = Graph.from_edges(10, [(0, 7), (6, 7), (1, 8), (5, 8), (2, 9), (3, 9), (4, 9)])
    return g, StatePartition.from_off(10, range(7))
