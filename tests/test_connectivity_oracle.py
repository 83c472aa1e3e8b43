import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensconn.connectivity_oracle as oracle_mod
from sensconn.bits import iter_bits, mask_of
from sensconn.connectivity_oracle import (
    DecrementalOracle,
    make_oracle,
    oracle_names,
    register_oracle,
)
from sensconn.errors import ContractViolation, PhaseError, QueryEndpointError
from sensconn.generators import cycle_graph, gnp_graph, path_graph
from sensconn.graph_core import Graph, StatePartition, component_labels, dfs_forest, reachable
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
    def test_counters_grow_then_rebase(self, factory):
        o = make_oracle(factory, path_graph(6))
        assert o.costs.t_p > 0
        t_p0 = o.costs.t_p
        o.delete_batch({3})
        assert o.costs.t_u > 0
        before = dataclasses.replace(o.costs)
        o.query(0, 2)
        assert o.costs == before  # a query writes nothing
        o.reset()
        assert o.costs.t_u == 0
        assert o.costs.t_p == t_p0

    def test_space_recorded(self):
        o = make_oracle("rebuild", path_graph(6))
        assert o.costs.space_s > 0


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


class TestSharedLabeling:
    """A rebuild oracle augmented from a root reuses the root's labeling when
    the root holds the same batch, and must answer right whatever the root
    holds."""

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
        alive = list(iter_bits(active_mask))
        for u in alive:
            reach = reachable(o.graph, active_mask, u)
            for v in alive:
                assert o.query(u, v) == (v in reach), (u, v)

    def augmented(self, g, base_mask, extras):
        base = make_oracle("rebuild", g, base_mask)
        return base, base.augment(extras)

    def test_fresh_answers(self):
        for _, g, base_mask, extras, _ in self.instances(1):
            _, o = self.augmented(g, base_mask, extras)
            self.assert_matches_reference(o, base_mask | mask_of(extras))

    @pytest.mark.parametrize("base_holds", ["same batch", "nothing", "another batch"])
    def test_delete_whatever_the_base_holds(self, base_holds):
        for rng, g, base_mask, extras, batch in self.instances(2):
            base, o = self.augmented(g, base_mask, extras)
            if base_holds == "same batch":
                base.delete_batch(batch)
            elif base_holds == "another batch" and base_mask:
                base.delete_batch(batch ^ {rng.choice(sorted(iter_bits(base_mask)))})
            o.delete_batch(batch)
            active = base_mask | mask_of(extras)
            self.assert_matches_reference(o, active & ~mask_of(batch))
            o.reset()
            self.assert_matches_reference(o, active)

    def test_base_reset_while_the_oracle_holds_its_batch(self):
        for rng, g, base_mask, extras, batch in self.instances(3):
            base, o = self.augmented(g, base_mask, extras)
            base.delete_batch(batch)
            o.delete_batch(batch)
            base.reset()
            if base_mask:
                base.delete_batch({rng.choice(sorted(iter_bits(base_mask)))})
            self.assert_matches_reference(o, (base_mask | mask_of(extras)) & ~mask_of(batch))

    def test_deleting_an_own_extra(self):
        for rng, g, base_mask, extras, batch in self.instances(4):
            base, o = self.augmented(g, base_mask, extras)
            base.delete_batch(batch)
            mine = batch | {rng.choice(extras)}
            o.delete_batch(mine)
            self.assert_matches_reference(o, (base_mask | mask_of(extras)) & ~mask_of(mine))

    def test_an_augment_of_an_augment_reuses_the_root(self):
        # base -> one extra -> two extras: top joins base's family, so it
        # extends base's labels at build instead of labeling its own
        for _, g, base_mask, extras, batch in self.instances(5):
            base = make_oracle("rebuild", g, base_mask)
            mid = base.augment(extras[:1])
            top = mid.augment(extras[1:])
            assert top.root is base and top.extras == tuple(extras)
            assert top.on is base.on
            assert top._labels is base._forest.labels and top._moved == {}  # the root's fresh labels
            active = base_mask | mask_of(extras)
            self.assert_matches_reference(top, active)
            for o in (base, mid, top):
                o.delete_batch(batch)
            assert top._moved is base._moved or not batch  # an empty push keeps the fresh map
            self.assert_matches_reference(top, active & ~mask_of(batch))

    @pytest.mark.parametrize("root_holds", ["nothing", "another batch", "own extra"])
    def test_a_member_never_labels_from_scratch(self, monkeypatch, root_holds):
        # path 0-...-19,999 with 100 inactive; the member over 100 is pushed
        # {5} (plus 100 for "own extra"), which splits off only 0..4
        labelings = []
        original = oracle_mod.dfs_forest
        monkeypatch.setattr(oracle_mod, "dfs_forest", lambda *a: labelings.append(a) or original(*a))
        g = path_graph(20_000)
        base = make_oracle("rebuild", g, mask_of(range(g.n)) & ~mask_of([100]))
        o = base.augment([100])
        batch = {5} | ({100} if root_holds == "own extra" else set())
        if root_holds != "nothing":
            base.delete_batch({5} if root_holds == "own extra" else {10_000})
        o.delete_batch(batch)
        assert len(labelings) == 1  # the root's build
        assert (o._moved is base._moved) is (root_holds == "own extra")
        assert o.query(0, 4) and not o.query(4, 6)
        assert o.query(6, g.n - 1) is (root_holds != "own extra")

    @pytest.mark.parametrize("root_holds", ["nothing", "another batch"])
    def test_a_member_splits_its_own_batch_locally(self, root_holds):
        # path 0-...-19,999 with 100 inactive; the member over 100 is pushed
        # {5}, which splits off only 0..4: it reads a few adjacency entries
        # and records five relabeled vertices, and copies no n-entry list
        g = path_graph(20_000)
        base = make_oracle("rebuild", g, mask_of(range(g.n)) & ~mask_of([100]))
        o = base.augment([100])
        if root_holds == "another batch":
            base.delete_batch({10_000})
        o.delete_batch({5})
        assert o.costs.t_u <= 40, o.costs.t_u
        assert sorted(o._moved) == [0, 1, 2, 3, 4]
        assert o.query(0, 4) and not o.query(4, 6) and o.query(6, g.n - 1)

    def test_a_member_deleting_only_its_extras_takes_the_roots_fresh_labels(self):
        # path 0-...-199,999 with 100 and 200 inactive in the root, which
        # holds {10,000}; the member over both is pushed {100} alone, so
        # nothing of the root's is deleted: the member reads the root's fresh
        # labels, which the root's push left as they were, with nothing moved
        g = path_graph(200_000)
        base = make_oracle("rebuild", g, mask_of(range(g.n)) & ~mask_of([100, 200]))
        o = base.augment([100, 200])
        base.delete_batch({10_000})
        o.delete_batch({100})
        assert o._labels is base._forest.labels and o._moved == {}
        assert o.costs.t_u == len(g.adj[200])
        assert o.query(0, 99) and o.query(101, 10_001) and not o.query(99, 101)

    def test_a_roots_push_and_reset_leave_members_alone(self):
        # path 0-...-9 with 5 inactive in the root
        g = path_graph(10)
        base = make_oracle("rebuild", g, mask_of(range(10)) & ~mask_of([5]))
        o = base.augment([5])
        o.delete_batch({5})  # only its extra, while the root holds nothing
        assert o._moved is base._moved
        base.delete_batch({2})  # splits {0, 1} off in the root alone
        assert base._moved and o._moved == {}
        assert o.query(0, 4) and o.query(6, 9) and not o.query(4, 6)
        o.reset()
        o.delete_batch({2})
        assert o._moved is base._moved
        base.reset()  # drops the root's map, not o's
        assert base._moved == {} and o._moved
        assert o.query(3, 9) and not o.query(1, 3) and base.query(1, 3)
        assert base._forest.labels == dfs_forest(g, base.mask).labels

    def test_a_member_pushed_alone_still_checks_its_batch(self):
        # path 0-1-2-3-4 with 2 and 4 inactive in the root, which holds {0}
        root = make_oracle("rebuild", path_graph(5), mask_of([0, 1, 3]))
        o = root.augment([2])
        root.delete_batch({0})
        for bad in ({0, 4}, {4}, {1, -1}):
            with pytest.raises(ContractViolation, match=r"^cannot delete (4|-1): not active"):
                o.delete_batch(bad)
            assert o.phase == "fresh"
        o.delete_batch(root.deleted)  # the very set the root checked
        assert o.phase == "updated" and o.query(1, 3)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_augment_takes_inactive_ids(self, factory):
        g = path_graph(4)
        base = make_oracle(factory, g, mask_of([0, 1]))
        for extras in ([1, 2], [2, 2]):  # an active id, a repeated id
            with pytest.raises(ContractViolation, match="not an inactive vertex"):
                base.augment(extras)
        o = base.augment([2])
        with pytest.raises(ContractViolation, match="cannot augment with 2"):
            o.augment([2])
        assert o.query(0, 2) is True
        assert o.augment([3]).query(0, 3) is True

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_a_third_extra_is_refused(self, factory, monkeypatch):
        # path 0-1-2-3-4-5 with 1, 3 and 5 inactive in the root
        root = make_oracle(factory, path_graph(6), mask_of([0, 2, 4]))
        one, two = root.augment([1]), root.augment([1, 3])
        built = []
        init = DecrementalOracle.__init__
        monkeypatch.setattr(DecrementalOracle, "__init__", lambda o, *a: built.append(o) or init(o, *a))
        for o, extras in ((root, [1, 3, 5]), (one, [3, 5]), (two, [5])):
            with pytest.raises(ContractViolation, match="^cannot augment with 5: .* at most 2 extras"):
                o.augment(extras)
        assert built == []
        assert two.query(0, 4) is True
        assert root.query(0, 2) is False
        assert one.query(0, 2) is True


class TestIdsOutsideTheGraph:
    """Ids below 0 and from n on are rejected by a root and by an augmented
    oracle alike. Path 0-1-2-3 with 2 inactive in the root: the last
    vertex is active, so an unchecked -1 would wrap to it."""

    @pytest.fixture(params=FACTORIES)
    def family(self, request):
        root = make_oracle(request.param, path_graph(4), mask_of([0, 1, 3]))
        return root, root.augment([2])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_query(self, family, bad):
        for o in family:
            for u, v in ((bad, 0), (0, bad)):
                with pytest.raises(QueryEndpointError, match=f"^vertex {bad} is not active"):
                    o.query(u, v)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_delete_batch(self, family, bad):
        for o in family:
            with pytest.raises(ContractViolation, match=f"^cannot delete {bad}:"):
                o.delete_batch({bad})
            assert o.phase == "fresh"

    @pytest.mark.parametrize("bad", [-1, 4, 0, 3])
    def test_augment(self, family, bad):
        for o in family:
            with pytest.raises(ContractViolation, match=f"^cannot augment with {bad}:"):
                o.augment([bad])


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

        assert "echo-test" in oracle_names()
        o = make_oracle("echo-test", path_graph(3))
        assert o.query(0, 2) is True
