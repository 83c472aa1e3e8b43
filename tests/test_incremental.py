import itertools
import random

import pytest
from hypothesis import given

from sensconn.bits import has_bit, iter_bits, word_count
from sensconn.errors import ContractViolation, QueryEndpointError
from sensconn.generators import gnp_graph, star_graph
from sensconn.graph_core import Graph, StatePartition
from sensconn.incremental_sensitivity import (
    build_incremental,
    incremental_query,
    incremental_update,
)
from sensconn.verify import connected_via_component

from reference import brute_connected
from strategies import graphs_with_partition


def pairs_of(k):
    return k * (k - 1) // 2


class TestBuild:
    def test_path_fixture_arrays(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        assert idx.labels == (0, 0, -1, 1, 1)
        # the single off vertex is adjacent to both components
        assert idx.comp_adj == (0b1, 0b1)
        # own bit cleared, nothing else inactive
        assert idx.off_reach == (0,)

    def test_shared_component_sets_reach_bit(self):
        # inactive 2 and 3 both touch the active component {0, 1}
        g = Graph.from_edges(4, [(2, 0), (0, 1), (1, 3)])
        p = StatePartition.from_off(4, [2, 3])
        idx = build_incremental(g, p)
        assert has_bit(idx.off_reach[p.off_index[2]], p.off_index[3])
        assert has_bit(idx.off_reach[p.off_index[3]], p.off_index[2])

    def test_direct_edge_between_inactive_vertices(self):
        g = Graph.from_edges(2, [(0, 1)])
        p = StatePartition.from_off(2, [0, 1])
        idx = build_incremental(g, p)
        assert idx.comp_adj == ()
        assert has_bit(idx.off_reach[0], 1)
        assert has_bit(idx.off_reach[1], 0)

    @given(graphs_with_partition(max_n=10))
    def test_adjacency_families_are_symmetric(self, gp):
        g, p = gp
        idx = build_incremental(g, p)
        # component c has bit j iff off vertex j has an edge into c
        for j, u in enumerate(p.off_vertices):
            touched = {idx.labels[w] for w in g.adj[u]} - {-1}
            for c in range(len(idx.comp_adj)):
                assert has_bit(idx.comp_adj[c], j) == (c in touched)

    @given(graphs_with_partition(max_n=10))
    def test_reach_mask_matches_predicate(self, gp):
        g, p = gp
        idx = build_incremental(g, p)
        for u in p.off_vertices:
            for v in p.off_vertices:
                if u == v:
                    continue
                expected = connected_via_component(g, idx.labels, u, v)
                assert has_bit(idx.off_reach[p.off_index[u]], p.off_index[v]) == expected

    @given(graphs_with_partition(max_n=12))
    def test_or_word_counter_is_exact(self, gp):
        g, p = gp
        idx = build_incremental(g, p)
        # one OR of a word-packed off mask per (off vertex, touched component)
        expected = sum(c.bit_count() for c in idx.comp_adj) * word_count(p.n_off)
        assert idx.build_or_words == expected


class TestUpdate:
    def test_singleton_batch(self, p5):
        g, p = p5
        sg = incremental_update(build_incremental(g, p), [2])
        assert tuple(sg.comp) == (2,)
        assert sg.edges == ()
        assert sg.components == ((2,),)
        assert sg.build_probes == 0

    def test_two_leaves_of_a_star_bridge(self):
        # star center 0 active, two leaves inactive: both touch component {0}
        g = star_graph(4)
        p = StatePartition.from_off(4, [1, 2])
        sg = incremental_update(build_incremental(g, p), [1, 2])
        assert sg.edges == ((1, 2),)
        assert len(sg.components) == 1
        assert sg.build_probes == 1

    def test_three_unbridged_vertices(self):
        g = Graph.from_edges(6, [(3, 0), (4, 1), (5, 2)])
        p = StatePartition.from_off(6, [3, 4, 5])
        idx = build_incremental(g, p)
        for u, v in itertools.combinations([3, 4, 5], 2):
            assert connected_via_component(g, idx.labels, u, v) is False
        sg = incremental_update(idx, [3, 4, 5])
        assert sg.edges == ()
        assert len(sg.components) == 3
        assert sg.build_probes == pairs_of(3)

    def test_probe_count_is_the_pair_formula(self):
        rng = random.Random(1)
        g = gnp_graph(14, 0.3, rng)
        p = StatePartition.from_off(14, range(7))
        idx = build_incremental(g, p)
        for size in range(8):
            sg = incremental_update(idx, list(range(size)))
            assert sg.build_probes == pairs_of(size)
            assert sg.query_probes == 0  # pair probes count in build_probes

    def test_active_vertex_rejected(self, p5):
        g, p = p5
        with pytest.raises(ContractViolation):
            incremental_update(build_incremental(g, p), [0])

    def test_edge_set_matches_predicate(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = gnp_graph(n, 0.35, rng)
            off = rng.sample(range(n), rng.randint(0, n // 2))
            p = StatePartition.from_off(n, off)
            idx = build_incremental(g, p)
            sg = incremental_update(idx, off)
            expected = {
                (u, v)
                for u, v in itertools.combinations(sorted(off), 2)
                if connected_via_component(g, idx.labels, u, v)
            }
            assert set(sg.edges) == expected


class TestRecord:
    def test_components_numbered_by_smallest_member(self, three_hubs):
        g, p = three_hubs
        sg = incremental_update(build_incremental(g, p), [6, 5, 4, 3, 2, 1, 0])
        assert sg.components == ((0, 6), (1, 5), (2, 3, 4))
        assert sg.comp == {0: 0, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 0}
        assert list(sg.comp) == sorted(sg.comp)

    def test_no_oracles(self, p5):
        g, p = p5
        sg = incremental_update(build_incremental(g, p), [2])
        assert sg.touched == ()


class TestQuery:
    def test_bridged_path(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [2])
        assert incremental_query(idx, sg, 0, 4) is True

    def test_same_component_short_circuits(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [2])
        before = sg.query_probes
        assert incremental_query(idx, sg, 0, 1) is True
        assert sg.query_probes - before == 0

    def test_no_batch_no_bridge(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [])
        assert incremental_query(idx, sg, 0, 4) is False

    def test_chain_through_third_component(self):
        g = Graph.from_edges(5, [(3, 0), (3, 2), (4, 2), (4, 1)])
        p = StatePartition.from_off(5, [3, 4])
        assert brute_connected(g, {0, 1, 2, 3, 4}, 0, 1)
        assert not brute_connected(g, {0, 1, 2, 3}, 0, 1)
        idx = build_incremental(g, p)
        both = incremental_update(idx, [3, 4])
        assert incremental_query(idx, both, 0, 1) is True
        one = incremental_update(idx, [3])
        assert incremental_query(idx, one, 0, 1) is False

    def test_batch_endpoints(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [2])
        assert incremental_query(idx, sg, 2, 0) is True
        assert incremental_query(idx, sg, 4, 2) is True
        assert incremental_query(idx, sg, 2, 2) is True

    def test_inactive_endpoint_rejected(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [])
        with pytest.raises(QueryEndpointError):
            incremental_query(idx, sg, 0, 2)
        with pytest.raises(QueryEndpointError):
            incremental_query(idx, sg, 0, 9)

    def test_illegal_endpoint_adds_no_probes(self, p5):
        g, p = p5
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [2])
        assert incremental_query(idx, sg, 0, 4) is True
        probes = sg.query_probes
        assert probes > 0
        for u, v in ((0, 9), (-1, 4), (5, 0)):
            with pytest.raises(QueryEndpointError):
                incremental_query(idx, sg, u, v)
        assert sg.query_probes == probes

    def test_probe_budget_is_twice_the_batch(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 14)
            g = gnp_graph(n, 0.3, rng)
            off = rng.sample(range(n), rng.randint(0, n - 1))
            p = StatePartition.from_off(n, off)
            idx = build_incremental(g, p)
            batch = rng.sample(off, rng.randint(0, len(off))) if off else []
            sg = incremental_update(idx, batch)
            alive = sorted(iter_bits(p.on_mask)) + sorted(batch)
            for u in alive:
                for v in alive:
                    before = sg.query_probes
                    incremental_query(idx, sg, u, v)
                    assert sg.query_probes - before <= 2 * len(batch)

    def test_any_batch_size_without_rebuild(self):
        rng = random.Random(8)
        g = gnp_graph(16, 0.25, rng)
        p = StatePartition.from_off(16, range(8))
        idx = build_incremental(g, p)  # built once, reused for every size
        for size in range(p.n_off + 1):
            batch = list(range(size))
            sg = incremental_update(idx, batch)
            active = set(iter_bits(p.on_mask)) | set(batch)
            for u in sorted(active):
                for v in sorted(active):
                    assert incremental_query(idx, sg, u, v) == brute_connected(g, active, u, v)


class TestExhaustiveEquivalence:
    def test_all_four_vertex_instances(self):
        pairs = list(itertools.combinations(range(4), 2))
        for edge_bits in range(1 << len(pairs)):
            g = Graph.from_edges(4, [pairs[i] for i in iter_bits(edge_bits)])
            for off_bits in range(1 << 4):
                p = StatePartition.from_off(4, iter_bits(off_bits))
                idx = build_incremental(g, p)
                for size in range(p.n_off + 1):
                    for batch in itertools.combinations(p.off_vertices, size):
                        sg = incremental_update(idx, batch)
                        active = set(iter_bits(p.on_mask)) | set(batch)
                        for u in active:
                            for v in active:
                                assert incremental_query(idx, sg, u, v) == brute_connected(
                                    g, active, u, v
                                )
