import itertools
import random
import tracemalloc

import pytest

import sensconn.connectivity_oracle as oracle_mod
from sensconn.bits import all_bits, iter_bits, mask_of
from sensconn.connectivity_oracle import (
    DecrementalOracle,
    RebuildOracle,
    make_oracle,
    oracle_class,
    oracle_names,
    register_oracle,
)
from sensconn.errors import CapacityError, ContractViolation, PhaseError, QueryEndpointError
from sensconn.generators import gnp_graph, path_graph
from sensconn.graph_core import Graph, StatePartition, component_labels
from sensconn.fully_dynamic_sensitivity import (
    build_doubling,
    build_fully_dynamic,
    fd_query,
    fd_rollback,
    fd_update,
)
from sensconn.incremental_sensitivity import build_incremental, incremental_update
from sensconn.verify import connected_via_component

from reference import brute_connected


def pairs_of(k):
    return k * (k - 1) // 2


class TestBuild:
    def test_one_inactive_vertex(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        assert s.oracle_count == 2
        assert (len(s.single), len(s.pairs)) == (0, 0)  # built by the first update that pushes them

    def test_three_inactive_vertices(self):
        g = path_graph(6)
        p = StatePartition.from_off(6, [0, 2, 4])
        s = build_fully_dynamic(g, p)
        assert s.oracle_count == 7
        assert (len(s.single), len(s.pairs)) == (0, 0)

    def test_all_active(self):
        g = path_graph(4)
        p = StatePartition.from_off(4, [])
        s = build_fully_dynamic(g, p)
        assert s.oracle_count == 1
        a = fd_update(s, [1], [])
        assert fd_query(s, a, 0, 2) is False
        fd_rollback(s, a)
        with pytest.raises(ContractViolation):
            fd_update(s, [], [0])  # nothing can be activated

    def test_unknown_factory(self, p5):
        g, p = p5
        with pytest.raises(ValueError):
            build_fully_dynamic(g, p, "missing")

    def test_preprocess_probes_accumulate(self, p5):
        """Preprocessing builds the base oracle alone, so its t_p is all the
        work (``sensconn run`` reports it as preprocess_probes)."""
        g, p = p5
        s = build_fully_dynamic(g, p)
        assert s.base.costs.t_p == g.n + 2 * g.m > 0
        assert (s.single, s.pairs) == ({}, {})


class TestUpdate:
    def test_singleton_activation_counts(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [], [2])
        assert tuple(a.comp) == (2,)
        assert a.edges == ()
        assert len(a.touched) == 2
        assert a.build_probes == 0

    def test_mixed_batch(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert tuple(a.comp) == (5,)
        assert len(a.touched) == 2

    def test_bridge_dies_with_its_component(self):
        # inactive 3 and 4 share only the component {2}; deactivating 2
        # removes their bridge
        g = Graph.from_edges(5, [(3, 0), (3, 2), (4, 2), (4, 1)])
        p = StatePartition.from_off(5, [3, 4])
        survivors, _ = component_labels(g, p.on_mask & ~mask_of([2]))
        assert connected_via_component(g, survivors, 3, 4) is False
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [3, 4])
        assert a.edges == ()
        fd_rollback(s, a)
        b = fd_update(s, [], [3, 4])
        assert b.edges == ((3, 4),)

    def test_counter_formulas(self):
        rng = random.Random(12)
        g = gnp_graph(16, 0.25, rng)
        p = StatePartition.from_off(16, range(6))
        s = build_fully_dynamic(g, p)
        for size in range(7):
            batch = list(range(size))
            a = fd_update(s, [8, 9], batch)
            assert len(a.touched) == 1 + size + pairs_of(size)
            assert a.build_probes == pairs_of(size)
            assert a.query_probes == 0  # pair queries count in build_probes
            fd_rollback(s, a)

    def test_second_update_requires_rollback(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        fd_update(s, [], [2])
        with pytest.raises(PhaseError):
            fd_update(s, [0], [])

    def test_failed_update_leaves_the_structure_usable(self, p5, oracle_registry):
        class InjectedFault(RuntimeError):
            pass

        @register_oracle
        class _FailsOnSecondPush(RebuildOracle):
            name = "rebuild-fails-on-second-push-test"
            pushes = 0

            def _apply_delete(self, vertices):
                type(self).pushes += 1
                if type(self).pushes == 2:
                    raise InjectedFault("second push fails")
                super()._apply_delete(vertices)

        g, p = p5
        s = build_fully_dynamic(g, p, "rebuild-fails-on-second-push-test")
        with pytest.raises(InjectedFault):
            fd_update(s, [], [2])  # base oracle pushed, then single[2] fails
        assert s.session is None
        assert all(o.phase == "fresh" for o in [s.base, *s.single.values()])
        a = fd_update(s, [], [2])
        assert fd_query(s, a, 0, 4) is True
        fd_rollback(s, a)
        assert s.session is None

    def test_illegal_batches_rejected(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        with pytest.raises(ContractViolation):
            fd_update(s, [5], [])  # already inactive
        with pytest.raises(ContractViolation):
            fd_update(s, [], [1])  # already active

    def test_supergraph_edges_match_survivor_predicate(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = gnp_graph(n, 0.35, rng)
            off = rng.sample(range(n), rng.randint(0, n // 2))
            p = StatePartition.from_off(n, off)
            down = rng.sample(
                sorted(iter_bits(p.on_mask)), rng.randint(0, min(3, p.n_on))
            )
            s = build_fully_dynamic(g, p)
            a = fd_update(s, down, off)
            survivors, _ = component_labels(g, p.on_mask & ~mask_of(down))
            expected = {
                (u, v)
                for u, v in itertools.combinations(sorted(off), 2)
                if connected_via_component(g, survivors, u, v)
            }
            assert set(a.edges) == expected
            fd_rollback(s, a)


class TestLabelingsPerBatch:
    """The rebuild family labels the survivors once per structure; an update
    splits that labeling locally, and every augmented oracle shares it."""

    @pytest.fixture
    def labelings(self, monkeypatch):
        calls = []

        def counted(g, mask):
            calls.append(mask)
            return component_labels(g, mask)

        monkeypatch.setattr(oracle_mod, "component_labels", counted)
        return calls

    @staticmethod
    def instance():
        rng = random.Random(8)
        g = gnp_graph(24, 0.12, rng)
        return g, StatePartition.from_off(24, range(0, 24, 4))

    def test_one_labeling_per_structure(self, labelings):
        g, p = self.instance()
        s = build_fully_dynamic(g, p)
        assert s.oracle_count == 1 + 6 + 15
        assert labelings == [p.on_mask]
        build_doubling(g, p, 4)
        assert len(labelings) == 2

    @pytest.mark.parametrize("down, up", [([1], []), ([1, 2], [0, 4, 8]), ([5, 6, 7], [12, 16])])
    def test_one_labeling_per_update_that_deactivates(self, labelings, down, up):
        g, p = self.instance()
        s = build_fully_dynamic(g, p)
        labelings.clear()
        a = fd_update(s, down, up)
        assert labelings == []
        active = (set(iter_bits(p.on_mask)) - set(down)) | set(up)
        for u in active:
            for v in active:
                assert fd_query(s, a, u, v) == brute_connected(g, active, u, v)
        fd_rollback(s, a)

    def test_a_deletion_near_a_path_end_reads_only_nearby_edges(self, labelings):
        n = 20_000
        s = build_fully_dynamic(path_graph(n), StatePartition.from_off(n, []))
        a = fd_update(s, [5], [])
        assert labelings == [all_bits(n)]  # the build's, none for the update
        assert s.base.costs.t_u <= 40
        assert fd_query(s, a, 0, 4) is True
        assert fd_query(s, a, 4, 6) is False
        assert fd_query(s, a, 6, n - 1) is True
        fd_rollback(s, a)

    @pytest.mark.parametrize("up", [[], [0], [0, 4, 8, 12]])
    def test_no_labeling_for_an_activation_only_update(self, labelings, up):
        g, p = self.instance()
        s = build_fully_dynamic(g, p)
        labelings.clear()
        a = fd_update(s, [], up)
        assert labelings == []
        assert len(a.touched) == 1 + len(up) + pairs_of(len(up))
        fd_rollback(s, a)


class TestBuildOnFirstPush:
    """Preprocessing builds only the root. fd_update builds each augmented
    oracle the first time it pushes it, and the structure keeps it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every oracle built while the test runs, in build order."""
        built = []
        init = DecrementalOracle.__init__

        def counted(self, *args):
            init(self, *args)
            built.append(self)

        monkeypatch.setattr(DecrementalOracle, "__init__", counted)
        return built

    def test_build_makes_only_the_root(self, built):
        n = 2_000
        p = StatePartition.from_off(n, range(0, n, 2))
        s = build_fully_dynamic(path_graph(n), p)
        assert built == [s.base]
        assert s.oracle_count == 1 + 1_000 + pairs_of(1_000)

    def test_a_batch_builds_only_its_new_members_and_only_once(self, built):
        g, p = TestLabelingsPerBatch.instance()
        s = build_fully_dynamic(g, p)
        built.clear()
        up = [0, 4, 8, 12]
        k = len(up)
        a = fd_update(s, [1, 2], up)
        assert built == list(a.touched[1:])
        assert (len(s.single), len(s.pairs)) == (k, pairs_of(k))
        active = (set(iter_bits(p.on_mask)) - {1, 2}) | set(up)
        for u in active:
            for v in active:
                assert fd_query(s, a, u, v) == brute_connected(g, active, u, v)
        fd_rollback(s, a)
        b = fd_update(s, [1, 2], up)
        assert b.touched == a.touched
        fd_rollback(s, b)
        assert len(built) == k + pairs_of(k)  # the queries and the repeat built none
        c = fd_update(s, [], [8, 12, 16])
        assert built[k + pairs_of(k):] == [s.single[16], s.pairs[8, 16], s.pairs[12, 16]]
        fd_rollback(s, c)

    @pytest.mark.parametrize("factory", oracle_names())
    def test_a_member_build_that_fails_leaves_the_structure_usable(self, factory, three_hubs, oracle_registry):
        class InjectedFault(RuntimeError):
            pass

        @register_oracle
        class _FailsOnSecondAugment(oracle_class(factory)):
            name = f"{factory}-fails-on-second-augment-test"
            augments = 0

            def _preprocess(self):
                if self.root is not self:
                    type(self).augments += 1
                    if type(self).augments == 2:
                        raise InjectedFault("second augmented build fails")
                super()._preprocess()

        g, p = three_hubs
        s = build_fully_dynamic(g, p, _FailsOnSecondAugment.name)
        with pytest.raises(InjectedFault):
            fd_update(s, [8], [0, 5, 6])  # single[0] is built, then single[5] fails
        assert s.session is None
        assert (list(s.single), s.pairs) == ([0], {})
        oracles = [s.base, *s.single.values()]
        assert all(o.phase == "fresh" and not o.deleted for o in oracles)
        a = fd_update(s, [8], [0, 5, 6])
        assert len(a.touched) == 1 + 3 + 3
        active = (set(iter_bits(p.on_mask)) - {8}) | {0, 5, 6}
        for u in active:
            for v in active:
                assert fd_query(s, a, u, v) == brute_connected(g, active, u, v)
        fd_rollback(s, a)
        assert s.session is None


class TestInactiveHub:
    """An inactive vertex whose neighbours lie in thousands of base
    components: its oracles' merge maps still cost O(deg), at build and per
    push, not O(deg^2)."""

    def test_star_with_an_inactive_centre(self):
        leaves = 3000
        g = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        p = StatePartition.from_off(leaves + 1, [0, 1])
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [0, 1])
        for o in (s.single[0], s.pairs[0, 1]):  # built by this update
            assert o.costs.t_p <= 3 * leaves
            assert 0 < o.costs.t_u <= 3 * leaves
        assert fd_query(s, a, 1, leaves) is True
        assert fd_query(s, a, 3, leaves) is True
        fd_rollback(s, a)


class TestQuery:
    def test_bridged_path(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [], [2])
        assert fd_query(s, a, 0, 4) is True

    def test_mixed_fixture_answers(self, mixed):
        g, p = mixed
        active_after = {0, 1, 3, 4, 5}
        assert brute_connected(g, active_after, 0, 4)
        assert brute_connected(g, active_after, 1, 3)
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert fd_query(s, a, 0, 4) is True
        assert fd_query(s, a, 1, 3) is True

    def test_pure_deactivation_uses_one_call(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [1], [])
        before = a.query_probes
        assert fd_query(s, a, 0, 3) is False
        assert a.query_probes - before == 1

    def test_batch_endpoints(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert fd_query(s, a, 5, 0) is True
        assert fd_query(s, a, 4, 5) is True
        assert fd_query(s, a, 5, 5) is True

    def test_illegal_endpoints(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [])
        with pytest.raises(QueryEndpointError, match="deactivated"):
            fd_query(s, a, 2, 0)
        with pytest.raises(QueryEndpointError, match="not active"):
            fd_query(s, a, 5, 0)
        with pytest.raises(QueryEndpointError):
            fd_query(s, a, 0, 77)

    @pytest.mark.parametrize("factory", oracle_names())
    def test_illegal_endpoint_adds_no_probes(self, factory, three_hubs):
        # 8 deactivated, 0 and 6 activated, 1 inactive and not activated:
        # an old vertex (7) meets each illegal endpoint in the base oracle,
        # an activated one (0) in its member single[0]
        g, p = three_hubs
        s = build_fully_dynamic(g, p, factory)
        a = fd_update(s, [8], [0, 6])
        assert fd_query(s, a, 0, 7) is True
        assert fd_query(s, a, 7, 9) is False
        probes = a.query_probes
        assert probes > 0
        for legal in (7, 0):
            for bad in (8, 1, -1, g.n):
                for u, v in ((legal, bad), (bad, legal)):
                    with pytest.raises(QueryEndpointError):
                        fd_query(s, a, u, v)
        assert a.query_probes == probes

    def test_stale_handle_rejected(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [], [2])
        fd_rollback(s, a)
        with pytest.raises(ContractViolation):
            fd_query(s, a, 0, 4)

    def test_call_budget(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(2, 14)
            g = gnp_graph(n, 0.3, rng)
            off = rng.sample(range(n), rng.randint(0, n // 2))
            p = StatePartition.from_off(n, off)
            batch = rng.sample(off, rng.randint(0, len(off))) if off else []
            down = rng.sample(sorted(iter_bits(p.on_mask)), rng.randint(0, min(3, p.n_on)))
            s = build_fully_dynamic(g, p)
            a = fd_update(s, down, batch)
            alive = set(iter_bits((p.on_mask & ~mask_of(down)) | mask_of(batch)))
            for u in range(-2, n + 2):
                for v in range(-2, n + 2):
                    before = a.query_probes
                    if u in alive and v in alive:
                        assert fd_query(s, a, u, v) == brute_connected(g, alive, u, v)
                        assert a.query_probes - before <= 1 + 2 * len(batch)
                    else:
                        with pytest.raises(QueryEndpointError):
                            fd_query(s, a, u, v)
                        assert a.query_probes == before
            fd_rollback(s, a)


class TestRecord:
    def test_fd_record_holds_the_batch(self, three_hubs):
        g, p = three_hubs
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [8], [6, 0, 5])
        assert s.base.deleted == frozenset({8})
        assert a.touched == (s.base, s.single[0], s.single[5], s.single[6],
                             s.pairs[0, 5], s.pairs[0, 6], s.pairs[5, 6])
        assert all(o.deleted == frozenset({8}) for o in a.touched)
        assert a.components == ((0, 6), (5,))
        assert a.comp == {0: 0, 5: 1, 6: 0}
        fd_rollback(s, a)
        assert all(o.phase == "fresh" and o.deleted == frozenset() for o in a.touched)

    def test_activation_only_batch_matches_the_incremental_record(self, three_hubs):
        g, p = three_hubs
        a = fd_update(build_fully_dynamic(g, p), [], [6, 5, 4, 3, 2, 1, 0])
        assert a == incremental_update(build_incremental(g, p), range(7))
        assert len(a.touched) == 1 + 7 + pairs_of(7)


class TestRollback:
    def test_identical_reupdate_reproduces_supergraph(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        edges = a.edges
        fd_rollback(s, a)
        b = fd_update(s, [2], [5])
        assert b.edges == edges

    def test_reset_calls_equal_delete_calls(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert len(a.touched) == 1 + 1 + 0  # 1 + |I| + C(|I|, 2) pushes for I = {5}
        fd_rollback(s, a)
        assert all(o.phase == "fresh" for o in a.touched)

    def test_empty_update_after_rollback_matches_initial_state(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [1], [2])
        fd_rollback(s, a)
        b = fd_update(s, [], [])
        assert tuple(b.comp) == ()
        active = set(iter_bits(p.on_mask))
        for u in active:
            for v in active:
                assert fd_query(s, b, u, v) == brute_connected(g, active, u, v)

    def test_stale_rollback_rejected(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [], [2])
        fd_rollback(s, a)
        with pytest.raises(ContractViolation):
            fd_rollback(s, a)


class TestOracleIndependence:
    def test_small_exhaustive_with_both_factories(self):
        pairs = list(itertools.combinations(range(3), 2))
        for factory in ("rebuild", "bruteforce"):
            for edge_bits in range(1 << len(pairs)):
                g = Graph.from_edges(3, [pairs[i] for i in iter_bits(edge_bits)])
                for off_bits in range(1 << 3):
                    p = StatePartition.from_off(3, iter_bits(off_bits))
                    s = build_fully_dynamic(g, p, factory)
                    for size in range(4):
                        for flips in itertools.combinations(range(3), size):
                            down = [v for v in flips if p.is_on(v)]
                            up = [v for v in flips if not p.is_on(v)]
                            a = fd_update(s, down, up)
                            active = (set(iter_bits(p.on_mask)) - set(down)) | set(up)
                            for u in active:
                                for v in active:
                                    assert fd_query(s, a, u, v) == brute_connected(
                                        g, active, u, v
                                    )
                            fd_rollback(s, a)


class TestDoubling:
    def test_levels_cover_the_requested_capacity(self, p5):
        g, p = p5
        fam = build_doubling(g, p, 5)
        assert fam.capacities == (2, 4, 8)

    def test_level_edges(self, p5):
        g, p = p5
        assert build_doubling(g, p, 1).capacities == (2,)
        assert build_doubling(g, p, 2).capacities == (2,)
        assert build_doubling(g, p, 3).capacities == (2, 4)
        assert build_doubling(g, p, 8).capacities == (2, 4, 8)

    def test_dispatch_routes_to_smallest_sufficient_level(self):
        g = path_graph(8)
        p = StatePartition.from_off(8, [1, 3, 5])
        fam = build_doubling(g, p, 5)
        assert fam.level_for(3) == 4
        assert fam.level_for(1) == 2
        assert fam.level_for(0) == 2
        cap, session = fam.dispatch_update([0, 2], [1])
        assert cap == 4
        assert fd_query(fam.structure_for(3), session, 1, 4) is False
        fd_rollback(fam.structure_for(3), session)

    def test_oversized_batch_rejected(self, p5):
        g, p = p5
        fam = build_doubling(g, p, 2)
        with pytest.raises(CapacityError):
            fam.level_for(3)
        with pytest.raises(CapacityError):
            fam.dispatch_update([0, 1, 3], [])
        s = fam.structure_for(2)
        assert s.session is None
        oracles = [s.base, *s.single.values(), *s.pairs.values()]
        assert all(o.phase == "fresh" and not o.deleted for o in oracles)

    def test_dispatch_reports_a_vertex_on_both_sides(self):
        fam = build_doubling(path_graph(6), StatePartition.from_off(6, [2, 4]), 2)
        with pytest.raises(ContractViolation, match=r"vertices \[1\] appear on both sides of the batch"):
            fam.dispatch_update([1], [1, 4])
        assert fam.structure_for(2).session is None

    def test_invalid_capacity(self, p5):
        g, p = p5
        with pytest.raises(ContractViolation):
            build_doubling(g, p, 0)

    def test_capacity_free_factories_share_one_structure(self, p5):
        g, p = p5
        fam = build_doubling(g, p, 8)
        assert len({id(s) for s in fam.structures.values()}) == 1


class TestMemory:
    def test_path_cycle_peak_is_linear_in_n(self):
        """A long path taken through build, update, query and rollback peaks
        within a fixed number of bytes per vertex: no part of the graph or of
        the oracles may hold a vertex set as wide as the graph per vertex."""
        n = 50_000
        tracemalloc.start()
        try:
            g = path_graph(n)
            p = StatePartition.from_off(n, [10, n // 2, n - 10])
            s = build_fully_dynamic(g, p)
            a = fd_update(s, [n // 4], [n // 2, n - 10])
            answers = [fd_query(s, a, u, v) for u, v in ((0, 9), (0, 11), (11, n - 1), (n // 4 + 1, n - 1))]
            fd_rollback(s, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answers == [True, False, False, True]
        assert peak <= 1_000 * n, f"peak {peak / n:.0f} B/vertex"

    @staticmethod
    def bytes_per_augmented_oracle(n, n_off=20, seed=7):
        """Bytes the augmented oracles of a rebuild family retain, per
        oracle: the family's retained bytes less those of its root alone.
        The graph has 2n random edges, average degree about 4."""
        rng = random.Random(seed)
        g = Graph.from_edges(n, ((rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)))
        p = StatePartition.from_off(n, rng.sample(range(n), n_off))

        def every_member():
            s = build_fully_dynamic(g, p)
            fd_rollback(s, fd_update(s, [], p.off_vertices))  # builds all n_off + C(n_off, 2)
            assert (len(s.single), len(s.pairs)) == (n_off, pairs_of(n_off))
            return s

        retained = []
        for build in (lambda: make_oracle("rebuild", g, p.on_mask), every_member):
            tracemalloc.start()
            try:
                kept = build()
                retained.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            del kept
        return (retained[1] - retained[0]) / (n_off + pairs_of(n_off))

    def test_an_augmented_oracle_does_not_grow_with_n(self):
        """An augmented oracle keeps its extras and reads the root's active
        set, so it holds nothing as wide as the graph."""
        small, large = self.bytes_per_augmented_oracle(2_000), self.bytes_per_augmented_oracle(50_000)
        assert large <= 1.5 * small, f"{small:.0f} B at n = 2,000, {large:.0f} B at n = 50,000"
