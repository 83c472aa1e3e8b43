import pytest

import sensconn.verify as verify_mod
from sensconn.connectivity_oracle import oracle_names
from sensconn.graph_core import StatePartition
from sensconn.verify import (
    RANDOM_SUITE_NAMES,
    VerifyConfig,
    exhaustive_suites,
    iter_all_graphs,
    iter_all_partitions,
    iter_batches,
    random_suites,
)

from conftest import KEEPS_DELETION, index_without_off_edges


class TestEnumeration:
    def test_graph_count(self):
        assert sum(1 for _ in iter_all_graphs(3)) == 8
        assert sum(1 for _ in iter_all_graphs(4)) == 64

    def test_partition_count(self):
        assert sum(1 for _ in iter_all_partitions(4)) == 16

    def test_batch_count_is_flip_subsets(self):
        p = StatePartition.from_off(5, [0, 1])
        batches = list(iter_batches(p, 3))
        # one batch per subset of at most 3 vertices; the partition fixes
        # each flip's direction
        assert len(batches) == 1 + 5 + 10 + 10
        assert all(set(d) <= {2, 3, 4} and set(i) <= {0, 1} for d, i in batches)


class TestSuitesPass:
    def test_tiny_exhaustive_clean(self):
        suites = exhaustive_suites(n=3, batch_max=3)
        assert all(s.ok for s in suites.values())
        assert suites["fully_dynamic"].checked > 0
        assert suites["counters"].checked > 0

    def test_seeded_random_clean_and_reproducible(self):
        cfg = VerifyConfig(trials=30, n_max=18, seed=5)
        first = random_suites(cfg)
        second = random_suites(cfg)
        assert all(s.ok for s in first.values())
        assert {k: v.checked for k, v in first.items()} == {
            k: v.checked for k, v in second.items()
        }

    def test_conformance_smoke(self):
        for factory in oracle_names():
            suite = random_suites(VerifyConfig(trials=25, seed=1, oracle=factory))["conformance"]
            assert suite.ok and suite.checked > 0

    def test_rollback_smoke(self):
        suite = random_suites(VerifyConfig(trials=20, seed=2))["rollback"]
        assert suite.ok and suite.checked == 20

    def test_random_mode_reports_six_suites_and_exhaustive_four(self):
        assert tuple(random_suites(VerifyConfig(trials=1))) == RANDOM_SUITE_NAMES
        assert len(RANDOM_SUITE_NAMES) == 6
        assert tuple(exhaustive_suites(n=2, batch_max=1)) == RANDOM_SUITE_NAMES[:4]


class TestSuiteSensitivity:
    def test_dropping_direct_edges_is_caught(self, monkeypatch):
        """An index built without the direct-edge rule must trip the
        activation-engine suite."""

        monkeypatch.setattr(verify_mod, "build_incremental", index_without_off_edges)
        suites = exhaustive_suites(n=3, batch_max=3)
        assert suites["incremental"].mismatches >= 1
        assert suites["incremental"].first_counterexample is not None
        # the engines that do not use the mutated arrays stay clean
        assert suites["fully_dynamic"].ok
        assert suites["lemma_on_paths"].ok

    @pytest.mark.parametrize("factory", ["rebuild", KEEPS_DELETION])
    def test_a_reset_that_keeps_its_deletion_is_caught(self, keeps_deletion, factory):
        """Only the oracle suites see a reset that keeps its deletion: each
        trial's first batch runs on a fresh structure, so the engine suites
        stay clean."""
        suites = random_suites(VerifyConfig(trials=25, n_max=16, seed=3, oracle=factory))
        broken = factory == keeps_deletion
        for name in ("conformance", "rollback"):
            assert (suites[name].mismatches > 0) == broken, name
            assert (suites[name].first_counterexample is not None) == broken, name
        if broken:
            assert "(rolled back): query" in suites["conformance"].first_counterexample
            assert "rerun after rollback diverged" in suites["rollback"].first_counterexample
        assert all(suites[name].ok for name in ("fully_dynamic", "incremental", "lemma_on_paths", "counters"))
