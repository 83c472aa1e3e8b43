from pathlib import Path

import pytest
from hypothesis import settings

import sensconn.connectivity_oracle as oracle_mod
from sensconn.graph_core import Graph, StatePartition, load_graph

settings.register_profile("pkg", deadline=None)
settings.load_profile("pkg")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def oracle_registry(monkeypatch):
    """Lets a test register throwaway oracle factories: the factory registry
    is restored when the test ends, so later tests see only the built-ins."""
    monkeypatch.setattr(oracle_mod, "_REGISTRY", dict(oracle_mod._REGISTRY))


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
