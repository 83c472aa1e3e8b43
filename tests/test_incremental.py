import itertools
import random
import sys

import pytest
from hypothesis import given

from sensconn.bits import has_bit, iter_bits, word_count
import sensconn.incremental_sensitivity as incs
from sensconn.errors import CapacityError, ContractViolation, QueryEndpointError
from sensconn.generators import gnp_graph, star_graph
from sensconn.graph_core import Graph, StatePartition
from sensconn.incremental_sensitivity import (
    INDEX_BYTES_MAX,
    build_incremental,
    incremental_query,
    incremental_update,
    index_bytes,
)
from sensconn.verify import connected_via_component

from reference import brute_connected
from strategies import graphs_with_partition


def pairs_of(k):
    return k * (k - 1) // 2


def scan_query(idx, sg, u, v):
    """Reference for incremental_query on two live endpoints: the answer and
    the probe count of a scan of each bridge component's members in
    ascending order, one has_bit call per probe, each endpoint's scan
    stopping at its first hit."""
    p = idx.partition
    if u == v:
        return True, 0
    u_new, v_new = u in sg.comp, v in sg.comp
    if u_new and v_new:
        return sg.comp[u] == sg.comp[v], 0
    probes = 0
    if not u_new and not v_new:
        cu, cv = idx.labels[u], idx.labels[v]
        if cu == cv:
            return True, 0
        mask_u, mask_v = idx.comp_adj[cu], idx.comp_adj[cv]
        for members in sg.components:
            hit_u = hit_v = False
            for w in members:
                j = p.off_index[w]
                if not hit_u:
                    probes += 1
                    hit_u = has_bit(mask_u, j)
                if not hit_v:
                    probes += 1
                    hit_v = has_bit(mask_v, j)
                if hit_u and hit_v:
                    return True, probes
        return False, probes
    if v_new:
        u, v = v, u
    mask_v = idx.comp_adj[idx.labels[v]]
    for w in sg.components[sg.comp[u]]:
        probes += 1
        if has_bit(mask_v, p.off_index[w]):
            return True, probes
    return False, probes


def contiguous(mask):
    """True iff the set bits of a non-zero mask form one run."""
    return mask & (mask + (mask & -mask)) == 0


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


class TestWordParallelQuery:
    """Each query ANDs whole bridge components; its answer and the probes it
    counts must be those of the member-by-member scan (``scan_query``)."""

    def check_every_live_pair(self, idx, sg):
        p = idx.partition
        live = sorted(iter_bits(p.on_mask)) + sorted(sg.comp)
        for u in live:
            for v in live:
                before = sg.query_probes
                answer = incremental_query(idx, sg, u, v)
                assert (answer, sg.query_probes - before) == scan_query(idx, sg, u, v), (u, v)

    def test_masks_hold_the_components_members(self, three_hubs):
        g, p = three_hubs
        sg = incremental_update(build_incremental(g, p), [6, 5, 4, 3, 2, 1, 0])
        assert sg.masks == (0b1000001, 0b0100010, 0b0011100)
        assert not contiguous(sg.masks[0]) and not contiguous(sg.masks[1])

    def test_interleaved_components_count_like_the_scan(self):
        # inactive 0..9 hang off active hubs 10..12 in an interleaved pattern,
        # and active 13..15 hang off some of them, so base endpoints touch
        # bridge components in the middle of their masks; 14 also joins the
        # members of hubs 11 and 12 into one component
        hub_of = {0: 10, 3: 10, 6: 10, 9: 10, 1: 11, 4: 11, 7: 11, 2: 12, 5: 12, 8: 12}
        edges = list(hub_of.items()) + [(13, 6), (14, 4), (14, 8), (15, 9)]
        g = Graph.from_edges(16, edges)
        p = StatePartition.from_off(16, range(10))
        idx = build_incremental(g, p)
        assert incremental_update(idx, range(10)).masks == (0b1001001001, 0b0110110110)
        for batch in (range(10), [3, 4, 6, 7, 8, 9], [9, 6, 3], [4, 8]):
            self.check_every_live_pair(idx, incremental_update(idx, batch))

    def test_seeded_random_instances_count_like_the_scan(self):
        rng = random.Random(24)
        gapped = 0
        for _ in range(150):
            n = rng.randint(2, 24)
            g = gnp_graph(n, rng.choice((0.08, 0.15, 0.3)), rng)
            off = rng.sample(range(n), rng.randint(0, n - 1))
            p = StatePartition.from_off(n, off)
            idx = build_incremental(g, p)
            sg = incremental_update(idx, rng.sample(off, rng.randint(0, len(off))))
            gapped += sum(not contiguous(m) for m in sg.masks)
            self.check_every_live_pair(idx, sg)
        assert gapped > 20  # the rank arithmetic saw many interleaved components

    def test_the_update_makes_one_has_bit_call_per_pair(self, monkeypatch):
        calls = [0]

        def counted(mask, i):
            calls[0] += 1
            return has_bit(mask, i)

        monkeypatch.setattr(incs, "has_bit", counted)
        g = gnp_graph(20, 0.2, random.Random(5))
        p = StatePartition.from_off(20, range(10))
        idx = build_incremental(g, p)
        for d in (0, 1, 2, 8):
            calls[0] = 0
            sg = incremental_update(idx, range(d))
            assert calls[0] == sg.build_probes == pairs_of(d)


class TestEndpointErrors:
    """The path 0..5 with 2 and 4 inactive, after activating 2. Vertex 5 is
    active, so a negative endpoint that skipped its range check would read
    a real label."""

    @pytest.fixture
    def two_active(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        p = StatePartition.from_off(6, [2, 4])
        idx = build_incremental(g, p)
        sg = incremental_update(idx, [2])
        assert incremental_query(idx, sg, 0, 3) is True
        assert sg.query_probes > 0
        return idx, sg

    @pytest.mark.parametrize("bad, message", [
        (-1, "vertex -1 outside [0, 6)"),
        (6, "vertex 6 outside [0, 6)"),
        (4, "vertex 4 is inactive after the update"),
    ])
    @pytest.mark.parametrize("good", [0, 2])  # base active, activated
    def test_one_bad_endpoint_on_either_side(self, two_active, bad, message, good):
        idx, sg = two_active
        probes = sg.query_probes
        for u, v in ((bad, good), (good, bad)):
            with pytest.raises(QueryEndpointError) as err:
                incremental_query(idx, sg, u, v)
            assert str(err.value) == message
        assert sg.query_probes == probes

    @pytest.mark.parametrize("u, v, message", [
        (-1, 4, "vertex -1 outside [0, 6)"),
        (4, -1, "vertex 4 is inactive after the update"),
        (7, 4, "vertex 7 outside [0, 6)"),
        (4, 7, "vertex 4 is inactive after the update"),
        (6, -2, "vertex 6 outside [0, 6)"),
    ])
    def test_the_first_bad_endpoint_is_named(self, two_active, u, v, message):
        idx, sg = two_active
        probes = sg.query_probes
        with pytest.raises(QueryEndpointError) as err:
            incremental_query(idx, sg, u, v)
        assert str(err.value) == message
        assert sg.query_probes == probes


class TestIndexCap:
    def test_an_index_above_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        def labeled(g, mask):
            raise AssertionError("the base was labeled")

        monkeypatch.setattr(incs, "component_labels", labeled)
        n, n_off = 80_000, 70_000  # edgeless: the off_reach masks alone exceed the cap
        assert index_bytes(n, 0, n_off) > INDEX_BYTES_MAX
        g = Graph.from_edges(n, [])
        with pytest.raises(CapacityError, match="INDEX_BYTES_MAX"):
            build_incremental(g, StatePartition.from_off(n, range(n_off)))

    def test_the_estimate_bounds_what_the_index_holds(self):
        rng = random.Random(11)
        g = gnp_graph(400, 0.02, rng)
        p = StatePartition.from_off(400, rng.sample(range(400), 120))
        idx = build_incremental(g, p)
        held = sum(sys.getsizeof(x) for x in idx.comp_adj + idx.off_reach)
        held += sys.getsizeof(idx.labels) + sys.getsizeof(idx.comp_adj) + sys.getsizeof(idx.off_reach)
        assert held <= index_bytes(g.n, idx.build_edge_probes, p.n_off) <= index_bytes(g.n, g.m, p.n_off)

    @pytest.mark.parametrize("degree, admitted", [(0, 62_000), (8, 27_000)])
    def test_the_cap_admits_the_n_off_its_comment_names(self, degree, admitted):
        n = 1_000_000
        assert index_bytes(n, degree * admitted, admitted) <= INDEX_BYTES_MAX
        more = admitted + 1_000
        assert index_bytes(n, degree * more, more) > INDEX_BYTES_MAX


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
