from pathlib import Path

import pytest
from hypothesis import settings

import sensconn.connectivity_oracle as oracle_mod
from sensconn.graph_core import load_graph

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
