import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensconn.connectivity_oracle as oracle_mod
from sensconn.bits import all_bits, iter_bits, mask_of
from sensconn.connectivity_oracle import (
    DecrementalOracle,
    Member,
    make_oracle,
    oracle_names,
    register_oracle,
)
from sensconn.errors import ContractViolation, PhaseError, QueryEndpointError
from sensconn.fully_dynamic_sensitivity import build_fully_dynamic, fd_update
from sensconn.generators import cycle_graph, gnp_graph, path_graph
from sensconn.graph_core import Graph, StatePartition, component_labels, reachable
from sensconn.verify import connected_by_set, connected_via_component

from reference import brute_connected, brute_reach
from strategies import graphs

FACTORIES = oracle_names()  # the built-in factories: the registry as the package ships it


# Bridged-through-a-third-component fixture: active singletons 0, 1, 2 and
# inactive 3, 4 with edges 3-0, 3-2, 4-2, 4-1. Vertices 3 and 4 share the
# component {2}; only the chain 3,4 links the components {0} and {1}.
def chain_fixture():
    g = Graph.from_edges(5, [(3, 0), (3, 2), (4, 2), (4, 1)])
    p = StatePartition.from_off(5, [3, 4])
    return g, p


class TestOraclePreprocess:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_fresh_path_answers(self, factory):
        o = make_oracle(factory, path_graph(5))
        assert o.query(0, 4) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_disjoint_edges(self, factory):
        o = make_oracle(factory, Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert o.query(0, 3) is False
        assert o.query(2, 3) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_empty_graph(self, factory):
        o = make_oracle(factory, Graph.from_edges(0, []))
        assert o.phase == "fresh"

    def test_unknown_factory(self):
        with pytest.raises(ValueError, match="unknown oracle factory"):
            make_oracle("nope", path_graph(3))

    def test_builtin_factories_registered(self):
        assert FACTORIES == ["rebuild"]


class TestDeleteBatch:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_cut_vertex_splits_path(self, factory):
        o = make_oracle(factory, path_graph(5))
        o.delete_batch({2})
        assert o.query(0, 4) is False
        assert o.query(0, 1) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_empty_batch_changes_nothing(self, factory):
        o = make_oracle(factory, path_graph(5))
        o.delete_batch(set())
        assert o.query(0, 4) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_cycle_survives_one_deletion(self, factory):
        g = cycle_graph(5)
        assert brute_connected(g, set(range(5)) - {1}, 0, 2)
        o = make_oracle(factory, g)
        o.delete_batch({1})
        assert o.query(0, 2) is True

    def test_second_batch_needs_reset(self):
        o = make_oracle("rebuild", path_graph(5))
        o.delete_batch({2})
        with pytest.raises(PhaseError):
            o.delete_batch({1})

    def test_unknown_vertex_rejected(self):
        o = make_oracle("rebuild", path_graph(3))
        with pytest.raises(ContractViolation):
            o.delete_batch({9})


class TestQuery:
    def test_survivors_stay_connected(self):
        o = make_oracle("rebuild", path_graph(5))
        o.delete_batch({2})
        assert o.query(3, 4) is True
        assert o.query(1, 3) is False

    def test_deleted_endpoint_rejected(self):
        o = make_oracle("rebuild", path_graph(5))
        o.delete_batch({2})
        with pytest.raises(QueryEndpointError):
            o.query(2, 4)

    def test_out_of_range_endpoint_rejected(self):
        o = make_oracle("rebuild", path_graph(3))
        with pytest.raises(QueryEndpointError):
            o.query(0, 5)

    def test_self_query_is_connected(self):
        o = make_oracle("rebuild", path_graph(3))
        assert o.query(1, 1) is True


class TestReset:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_rollback_restores_base(self, factory):
        o = make_oracle(factory, path_graph(5))
        o.delete_batch({2})
        o.reset()
        assert o.query(0, 4) is True

    def test_reset_on_fresh_is_noop(self):
        o = make_oracle("rebuild", path_graph(5))
        o.reset()
        assert o.phase == "fresh"
        assert o.query(0, 4) is True

    def test_new_batch_after_reset(self):
        g = path_graph(5)
        assert not brute_connected(g, {0, 2, 3, 4}, 0, 2)
        o = make_oracle("rebuild", g)
        o.delete_batch({2})
        o.reset()
        o.delete_batch({1})
        assert o.query(0, 2) is False


class TestCosts:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_counters_grow_then_reset(self, factory):
        o = make_oracle(factory, path_graph(6))
        assert o.t_p > 0
        t_p0 = o.t_p
        o.delete_batch({3})
        assert o.t_u > 0
        before = (o.t_p, o.t_u, o.space_s)
        o.query(0, 2)
        assert (o.t_p, o.t_u, o.space_s) == before  # a query writes nothing
        o.reset()
        assert o.t_u == 0
        assert o.t_p == t_p0

    def test_space_recorded(self):
        o = make_oracle("rebuild", path_graph(6))
        assert o.space_s > 0


class TestConformance:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_matches_reference_on_seeded_instances(self, factory):
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(2, 14)
            g = gnp_graph(n, rng.choice((0.15, 0.35, 0.6)), rng)
            o = make_oracle(factory, g)
            batch = set(rng.sample(range(n), rng.randint(0, min(4, n))))
            o.delete_batch(batch)
            alive = [v for v in range(n) if v not in batch]
            for u in alive:
                for v in alive:
                    assert o.query(u, v) == brute_connected(g, set(alive), u, v)
            o.reset()
            everyone = set(range(n))
            for u in range(n):
                for v in range(n):
                    assert o.query(u, v) == brute_connected(g, everyone, u, v)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_agrees_with_networkx(self, factory):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 12)
            g = gnp_graph(n, 0.3, rng)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            batch = set(rng.sample(range(n), rng.randint(0, min(3, n))))
            o = make_oracle(factory, g)
            o.delete_batch(batch)
            h = nxg.subgraph(set(range(n)) - batch)
            for u in h.nodes:
                for v in h.nodes:
                    assert o.query(u, v) == nx.has_path(h, u, v)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_runs_on_active_masks(self, factory):
        # cycle 0-1-2-3-4-5-0 with 4 inactive: the path 5-0-1-2-3
        g = cycle_graph(6)
        o = make_oracle(factory, g, mask_of([0, 1, 2, 3, 5]))
        assert o.query(5, 3) is True
        o.delete_batch({1})
        assert o.query(5, 3) is False
        assert o.query(5, 0) is True
        o.reset()
        assert o.query(5, 3) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_vertices_outside_the_mask_rejected(self, factory):
        o = make_oracle(factory, cycle_graph(6), mask_of([0, 1, 2, 3, 5]))
        with pytest.raises(QueryEndpointError):
            o.query(0, 4)
        with pytest.raises(ContractViolation):
            o.delete_batch({4})
        assert o.phase == "fresh"

    def test_mask_beyond_the_graph_rejected(self):
        with pytest.raises(ContractViolation):
            make_oracle("rebuild", path_graph(3), mask_of([0, 3]))


def member_of(root, extras):
    """The member over ``root`` plus ``extras`` for the batch ``root``
    holds, pushed that batch, as the fully dynamic engine derives it."""
    o = Member(root, tuple(extras), {x: root.reach(x) for x in extras})
    o.delete_batch(root.deleted)
    return o


class TestSharedLabeling:
    """A member reads its root's component ids after the batch the root
    holds, and the reach sets of its one or two extras; it labels nothing
    itself, takes no batch but its root's, and must answer as ``reachable``
    does over the root's active vertices plus its extras, less the batch."""

    @staticmethod
    def instances(seed, trials=40):
        """Graph, base active mask, 1-2 extra vertices, and a batch D inside
        the base mask."""
        rng = random.Random(seed)
        for _ in range(trials):
            n = rng.randint(3, 12)
            g = gnp_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
            extras = rng.sample(range(n), rng.randint(1, 2))
            inside = [v for v in range(n) if v not in extras and rng.random() < 0.8]
            batch = set(rng.sample(inside, rng.randint(0, min(3, len(inside)))))
            yield rng, g, mask_of(inside), extras, batch

    @staticmethod
    def assert_matches_reference(o, active_mask):
        """``_connected`` and the checked ``query`` on every legal endpoint
        pair."""
        alive = list(iter_bits(active_mask))
        for u in alive:
            reach = reachable(o.graph, active_mask, u)
            for v in alive:
                assert o._connected(u, v) == o.query(u, v) == (v in reach), (u, v)

    def test_fresh_answers(self):
        for _, g, base_mask, extras, _ in self.instances(1):
            o = member_of(make_oracle("rebuild", g, base_mask), extras)
            self.assert_matches_reference(o, base_mask | mask_of(extras))

    @pytest.mark.parametrize("k", [1, 2])
    def test_connected_matches_reachable(self, k):
        # every legal endpoint pair of on + extras - D, the root holding D
        rng = random.Random(10 + k)
        for _ in range(60):
            n = rng.randint(k + 1, 12)
            g = gnp_graph(n, rng.choice((0.15, 0.3, 0.5)), rng)
            extras = rng.sample(range(n), k)
            inside = [v for v in range(n) if v not in extras and rng.random() < 0.8]
            batch = set(rng.sample(inside, rng.randint(0, min(3, len(inside)))))
            root = make_oracle("rebuild", g, mask_of(inside))
            root.delete_batch(batch)
            self.assert_matches_reference(member_of(root, extras), mask_of(set(inside) - batch) | mask_of(extras))

    @pytest.mark.parametrize("base_holds", ["same batch", "nothing", "another batch"])
    def test_delete_whatever_the_base_holds(self, base_holds):
        # a member takes the very set its root holds, and nothing else
        for rng, g, base_mask, extras, batch in self.instances(2):
            base = make_oracle("rebuild", g, base_mask)
            if base_holds == "same batch":
                base.delete_batch(batch)
                self.assert_matches_reference(member_of(base, extras), (base_mask | mask_of(extras)) & ~mask_of(batch))
                continue
            if base_holds == "another batch" and base_mask:
                base.delete_batch(batch ^ {rng.choice(sorted(iter_bits(base_mask)))})
            o = Member(base, tuple(extras), {x: base.reach(x) for x in extras})
            with pytest.raises(ContractViolation, match="^a member takes only the batch its root holds"):
                o.delete_batch(batch)
            assert o.phase == "fresh" and o.deleted == frozenset()

    def test_deleting_an_own_extra(self):
        # the engine never deactivates a vertex it activates, so a member
        # refuses a batch that holds its own extra
        for rng, g, base_mask, extras, batch in self.instances(4):
            base = make_oracle("rebuild", g, base_mask)
            base.delete_batch(batch)
            o = Member(base, tuple(extras), {x: base.reach(x) for x in extras})
            with pytest.raises(ContractViolation, match="^a member takes only the batch its root holds"):
                o.delete_batch(batch | {rng.choice(extras)})
            assert o.phase == "fresh"

    @pytest.mark.parametrize("root_holds", ["nothing", "another batch", "own extra"])
    def test_a_member_never_labels_from_scratch(self, monkeypatch, root_holds):
        # path 0-...-19,999 with 100 inactive, the root holding nothing or
        # another batch than any member's, {5}; for "own extra" the member
        # is first offered {5, 100}. Neither deriving nor pushing nor
        # querying the member over 100 labels or splits anything
        labelings, splits = [], []
        forest, split = oracle_mod.dfs_forest, oracle_mod.split_labels
        monkeypatch.setattr(oracle_mod, "dfs_forest", lambda *a: labelings.append(a) or forest(*a))
        monkeypatch.setattr(oracle_mod, "split_labels", lambda *a: splits.append(a) or split(*a))
        g = path_graph(20_000)
        base = make_oracle("rebuild", g, mask_of(range(g.n)) & ~mask_of([100]))
        if root_holds != "nothing":
            base.delete_batch({5})
        work = len(splits)
        o = Member(base, (100,), {100: base.reach(100)})
        if root_holds == "own extra":
            with pytest.raises(ContractViolation):
                o.delete_batch({5, 100})
        o.delete_batch(base.deleted)
        assert len(labelings) == 1 and len(splits) == work  # the root's build and push alone
        assert o.t_u == len(g.adj[100])  # its one read of the extra's adjacency
        assert o.query(0, 4) and o.query(99, 101) and o.query(6, g.n - 1)
        assert o.query(4, 6) is (root_holds == "nothing")

    def test_a_member_pushed_alone_still_checks_its_batch(self):
        # path 0-1-2-3-4 with 2 and 4 inactive in the root, which holds {0}
        root = make_oracle("rebuild", path_graph(5), mask_of([0, 1, 3]))
        root.delete_batch({0})
        o = Member(root, (2,), {2: root.reach(2)})
        for bad in ({0, 4}, {4}, {1, -1}, {0}):  # {0} equals the root's batch, but is another set
            with pytest.raises(ContractViolation, match="^a member takes only the batch its root holds"):
                o.delete_batch(bad)
            assert o.phase == "fresh"
        o.delete_batch(root.deleted)  # the very set the root checked
        assert o.phase == "updated" and o.query(1, 3)
        with pytest.raises(PhaseError):
            o.delete_batch(root.deleted)

    def test_a_pair_joins_through_an_edge_or_a_common_component(self):
        # path 0-...-7 with 1, 2 and 6 inactive in the root, whose components
        # are {0}, {3, 4, 5} and {7}: 1 and 2 are adjacent, and 1 and 6
        # reach no common component
        root = make_oracle("rebuild", path_graph(8), mask_of([0, 3, 4, 5, 7]))
        reach = {x: root.reach(x) for x in (1, 2, 6)}
        adjacent, apart, one = Member(root, (1, 2), reach), Member(root, (1, 6), reach), Member(root, (6,), reach)
        assert adjacent.joined and not apart.joined
        assert adjacent.query(0, 3) and adjacent.query(1, 2)
        assert not apart.query(1, 6) and apart.query(1, 0) and apart.query(3, 7) and not apart.query(0, 7)
        assert one.component(6) == one.component(7) < 0 <= one.component(0)
        # an inactive hub 0 with 3,000 leaves, the even vertices 2..6000, all
        # active but leaf 2; inactive 3 is not the hub's neighbour, and its one
        # neighbour 6001 is no leaf. The edge test bisects the hub's adjacency.
        g = Graph.from_edges(6002, [*((0, v) for v in range(2, 6001, 2)), (3, 6001)])
        root = make_oracle("rebuild", g, all_bits(6002) & ~mask_of([0, 2, 3]))
        reach = {x: root.reach(x) for x in (0, 2, 3)}
        adjacent, apart = Member(root, (0, 2), reach), Member(root, (0, 3), reach)
        assert len(reach[0]) == 2999 and reach[2] == set() and adjacent.joined and not apart.joined
        assert adjacent.query(2, 6000) and adjacent.query(0, 2)
        assert apart.query(3, 6001) and apart.query(4, 6000) and not apart.query(3, 4)


class TestComponent:
    """``_component`` gives each survivor a non-negative id, equal for two
    survivors exactly when they are connected; ``component`` checks its
    endpoint as ``query`` does, and ``reach`` gathers the ids of a vertex's
    surviving active neighbours."""

    @staticmethod
    def instances(seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(2, 14)
            g = gnp_graph(n, rng.choice((0.15, 0.35, 0.6)), rng)
            active = rng.getrandbits(n)
            inside = list(iter_bits(active))
            batch = set(rng.sample(inside, rng.randint(0, min(3, len(inside)))))
            yield g, active, batch

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_ids_partition_the_survivors(self, factory):
        for g, active, batch in self.instances(21):
            o = make_oracle(factory, g, active)
            o.delete_batch(batch)
            alive = active & ~mask_of(batch)
            for u in iter_bits(alive):
                reach = reachable(g, alive, u)
                assert o.component(u) == o._component(u) >= 0
                for v in iter_bits(alive):
                    assert (o.component(u) == o.component(v)) == (v in reach), (u, v)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_reach_holds_the_ids_of_surviving_neighbours(self, factory):
        for g, active, batch in self.instances(22):
            o = make_oracle(factory, g, active)
            o.delete_batch(batch)
            alive = active & ~mask_of(batch)
            for x in range(g.n):
                if not active >> x & 1:
                    assert o.reach(x) == {o.component(w) for w in g.adj[x] if alive >> w & 1}

    def test_component_checks_its_endpoint(self):
        # path 0-1-2-3-4 with 4 inactive, 2 deleted
        o = make_oracle("rebuild", path_graph(5), mask_of([0, 1, 2, 3]))
        o.delete_batch({2})
        for bad, why in ((4, "is not active"), (-1, "is not active"), (5, "is not active"), (2, "is deleted")):
            with pytest.raises(QueryEndpointError, match=f"^vertex {bad} {why}"):
                o.component(bad)
        assert o.component(0) == o.component(1) != o.component(3)


class TestIdsOutsideTheGraph:
    """Ids below 0 and from n on are rejected by a root and by a member
    alike. Path 0-1-2-3 with 2 inactive in the root: the last vertex is
    active, so an unchecked -1 would wrap to it."""

    @pytest.fixture(params=FACTORIES)
    def family(self, request):
        root = make_oracle(request.param, path_graph(4), mask_of([0, 1, 3]))
        return root, member_of(root, [2])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_query(self, family, bad):
        for o in family:
            for u, v in ((bad, 0), (0, bad)):
                with pytest.raises(QueryEndpointError, match=f"^vertex {bad} is not active"):
                    o.query(u, v)
            with pytest.raises(QueryEndpointError, match=f"^vertex {bad} is not active"):
                o.component(bad)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_delete_batch(self, family, bad):
        root, member = family
        with pytest.raises(ContractViolation, match=f"^cannot delete {bad}:"):
            root.delete_batch({bad})
        assert root.phase == "fresh"
        member.reset()
        with pytest.raises(ContractViolation, match="^a member takes only the batch its root holds"):
            member.delete_batch({bad})
        assert member.phase == "fresh"

    @pytest.mark.parametrize("bad", [-1, 4, 0, 3])
    def test_augment(self, family, bad):
        # the engine derives a member for each activated vertex, and
        # refuses to activate anything but an inactive vertex of the graph
        root, _ = family
        s = build_fully_dynamic(root.graph, StatePartition.from_off(4, [2]), root.name)
        with pytest.raises(ContractViolation, match=f"^cannot activate {bad}: not an inactive vertex"):
            fd_update(s, [], [2, bad])
        assert s.base.phase == "fresh" and s.session is None


class TestReachable:
    def test_matches_independent_bfs(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(1, 16)
            g = gnp_graph(n, 0.3, rng)
            active_bits = rng.getrandbits(n)
            active = set(iter_bits(active_bits))
            for u in active:
                assert reachable(g, active_bits, u) == brute_reach(g, active, u)

    def test_inactive_endpoint_rejected(self):
        with pytest.raises(QueryEndpointError):
            reachable(path_graph(3), mask_of([0, 1]), 2)


class TestConnectedViaComponent:
    def test_shared_component(self):
        # u=2, v=3 inactive around the active edge 0-1
        g = Graph.from_edges(4, [(2, 0), (0, 1), (1, 3)])
        p = StatePartition.from_off(4, [2, 3])
        labels, _ = component_labels(g, p.on_mask)
        assert connected_via_component(g, labels, 2, 3) is True

    def test_direct_edge_only(self):
        g = Graph.from_edges(2, [(0, 1)])
        p = StatePartition.from_off(2, [0, 1])
        labels, _ = component_labels(g, p.on_mask)
        assert connected_via_component(g, labels, 0, 1) is True

    def test_distinct_components_no_edge(self):
        g, p = chain_fixture()
        labels, _ = component_labels(g, p.on_mask)
        # 3 touches {0} and {2}; 4 touches {1} and {2}: shared component {2}
        assert connected_via_component(g, labels, 3, 4) is True
        # drop the shared component and they fall apart
        labels2, _ = component_labels(g, p.on_mask & ~mask_of([2]))
        assert connected_via_component(g, labels2, 3, 4) is False

    def test_active_endpoint_rejected(self):
        g, p = chain_fixture()
        labels, _ = component_labels(g, p.on_mask)
        with pytest.raises(ContractViolation):
            connected_via_component(g, labels, 0, 3)

    def test_equal_endpoints_rejected(self):
        g, p = chain_fixture()
        labels, _ = component_labels(g, p.on_mask)
        with pytest.raises(ContractViolation):
            connected_via_component(g, labels, 3, 3)


class TestConnectedBySet:
    def test_single_bridging_vertex(self, p5):
        g, p = p5
        labels, count = component_labels(g, p.on_mask)
        assert connected_by_set(g, labels, count, [2], 0, 1) is True

    def test_empty_set_bridges_nothing(self, p5):
        g, p = p5
        labels, count = component_labels(g, p.on_mask)
        assert connected_by_set(g, labels, count, [], 0, 1) is False

    def test_chain_through_third_component(self):
        g, p = chain_fixture()
        assert brute_connected(g, {0, 1, 2, 3, 4}, 0, 1)
        assert not brute_connected(g, {0, 1, 2, 3}, 0, 1)
        labels, count = component_labels(g, p.on_mask)
        cu, cv = labels[0], labels[1]
        assert connected_by_set(g, labels, count, [3, 4], cu, cv) is True
        assert connected_by_set(g, labels, count, [3], cu, cv) is False

    def test_unknown_component_rejected(self, p5):
        g, p = p5
        labels, count = component_labels(g, p.on_mask)
        for bad in (-1, count, 99):
            with pytest.raises(ContractViolation):
                connected_by_set(g, labels, count, [2], 0, bad)

    def test_active_vertex_in_set_rejected(self, p5):
        g, p = p5
        labels, count = component_labels(g, p.on_mask)
        with pytest.raises(ContractViolation):
            connected_by_set(g, labels, count, [0], 0, 1)

    @given(graphs(min_n=2, max_n=10), st.data())
    @settings(max_examples=120)
    def test_equals_post_activation_reachability(self, g, data):
        off = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        p = StatePartition.from_off(g.n, off)
        labels, count = component_labels(g, p.on_mask)
        if count < 2:
            return
        batch = data.draw(st.lists(st.sampled_from(sorted(off)), unique=True)) if off else []
        active_after = set(iter_bits(p.on_mask)) | set(batch)
        for cu in range(count):
            for cv in range(cu + 1, count):
                u, v = labels.index(cu), labels.index(cv)
                assert connected_by_set(g, labels, count, batch, cu, cv) == brute_connected(
                    g, active_after, u, v
                )


class TestRegistry:
    def test_register_and_build_custom_oracle(self, oracle_registry):
        @register_oracle
        class _EchoOracle(DecrementalOracle):
            name = "echo-test"

            def _preprocess(self):
                self._labels, _ = ([], [])
                self._full = None

            def _apply_delete(self, vertices):
                pass

            def _apply_reset(self):
                pass

            def _connected(self, u, v):
                return True

            def _component(self, v):
                return 0

        assert "echo-test" in oracle_names()
        o = make_oracle("echo-test", path_graph(3))
        assert o.query(0, 2) is True
