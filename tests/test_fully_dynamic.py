import itertools
import random
import statistics
import tracemalloc
import weakref
from dataclasses import fields

import pytest

import sensconn.connectivity_oracle as oracle_mod
import sensconn.graph_core as graph_core
from sensconn.bits import iter_bits, mask_of
from sensconn.connectivity_oracle import DecrementalOracle, Member, make_oracle, oracle_names
from sensconn.errors import CapacityError, ContractViolation, PhaseError, QueryEndpointError
from sensconn.generators import gnp_graph, path_graph
from sensconn.graph_core import Graph, StatePartition, active_flags, component_labels, dfs_forest, reachable
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
        assert s.session is None  # members are derived by the update that pushes them
        assert [f.name for f in fields(s)] == ["partition", "factory", "base", "session"]

    def test_three_inactive_vertices(self):
        g = path_graph(6)
        p = StatePartition.from_off(6, [0, 2, 4])
        s = build_fully_dynamic(g, p)
        assert s.oracle_count == 7
        assert s.session is None

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
        work (``sensconn run`` reports it as preprocess_probes): the forest's
        n + 2m reads, then the range-minimum table's build, which reads each
        low point and writes each table entry once."""
        g, p = p5
        s = build_fully_dynamic(g, p)
        f = s.base._forest
        assert s.base.t_p == g.n + 2 * g.m + len(f.low) + sum(map(len, f.mins)) > 0


class TestUpdate:
    def test_singleton_activation_counts(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [], [2])
        assert tuple(a.comp) == (2,)
        assert a.edges == ()
        assert a.pushes == 2
        assert a.build_probes == 0

    def test_mixed_batch(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert tuple(a.comp) == (5,)
        assert a.pushes == 2

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
            assert a.pushes == 1 + size + pairs_of(size)
            assert a.build_probes == pairs_of(size)
            assert a.query_probes == 0  # pair queries count in build_probes
            fd_rollback(s, a)

    def test_second_update_requires_rollback(self, p5):
        g, p = p5
        s = build_fully_dynamic(g, p)
        fd_update(s, [], [2])
        with pytest.raises(PhaseError):
            fd_update(s, [0], [])

    def test_failed_update_leaves_the_structure_usable(self, three_hubs, monkeypatch):
        # 8 deactivated, 0, 5 and 6 activated: 1 + 3 + 3 pushes, the base's
        # first, then the members'; a fault at each in turn
        class InjectedFault(RuntimeError):
            pass

        push = DecrementalOracle.delete_batch
        countdown = [0]

        def faulty(o, vertices):
            countdown[0] -= 1
            if countdown[0] == 0:
                raise InjectedFault(f"push fails: {o.name}")
            push(o, vertices)

        monkeypatch.setattr(DecrementalOracle, "delete_batch", faulty)
        g, p = three_hubs
        s = build_fully_dynamic(g, p)
        active = (set(iter_bits(p.on_mask)) - {8}) | {0, 5, 6}
        for position in range(1, 1 + 3 + 3 + 1):
            countdown[0] = position
            with pytest.raises(InjectedFault, match="rebuild" if position == 1 else "member"):
                fd_update(s, [8], [0, 5, 6])
            assert s.session is None
            assert s.base.phase == "fresh" and s.base.deleted == frozenset() and s.base._moved == {}
            a = fd_update(s, [8], [0, 5, 6])
            assert all(fd_query(s, a, u, v) == brute_connected(g, active, u, v) for u in active for v in active)
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
        """The active flag strings of the labelings any oracle makes, the
        root's depth-first forest included."""
        calls = []

        def counted(g, on):
            calls.append(on)
            return dfs_forest(g, on)

        monkeypatch.setattr(oracle_mod, "dfs_forest", counted)
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
        assert labelings == [active_flags(g.n, p.on_mask)]
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
        assert labelings == ["1" * n]  # the build's, none for the update
        assert s.base.t_u <= 40
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
        assert a.pushes == 1 + len(up) + pairs_of(len(up))
        fd_rollback(s, a)


class TestPushCost:
    """The root records the vertices its split relabels in a small map and
    its reset drops it, so a cycle copies and writes no O(n) list; a push's
    t_u counts every entry it records as well as the batch and the adjacency
    entries, low points and table entries it reads."""

    def test_a_cycle_on_a_long_path_copies_no_labels(self, pushed):
        n = 200_000
        g = path_graph(n)
        p = StatePartition.from_off(n, [100, n // 2, n - 100])
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [1_000, n - 1_000], p.off_vertices)
        assert a.pushes == len(pushed) == 1 + 3 + 3
        assert all(o.t_u < 100 for o in pushed[1:])
        assert fd_query(s, a, 0, 999) and fd_query(s, a, 1_001, n - 1_001)  # through the activated vertices
        assert not fd_query(s, a, 999, 1_001)
        fd_rollback(s, a)
        assert s.base._moved == {}
        assert s.base._labels is s.base._forest.labels
        assert s.base._labels == dfs_forest(g, active_flags(g.n, p.on_mask)).labels

    @pytest.fixture(scope="class")
    def random_structures(self):
        """Random graphs of average degree 8 at n = 2k, 20k and 200k, each
        with eight inactive vertices and its structure, built once for the
        class; with each, the state of the random stream that drew it."""
        built = []
        for n in (2_000, 20_000, 200_000):
            rng = random.Random(n)
            g = Graph.from_edges(n, ((rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)))
            p = StatePartition.from_off(n, rng.sample(range(n), 8))
            built.append((g, p, build_fully_dynamic(g, p), rng.getstate()))
        return built

    @staticmethod
    def pushes(g, p, s, rng, k, batches):
        """Push ``batches`` engine updates of k flips, half of them
        deactivations; yields each batch's deactivated set while it is
        pushed, and rolls it back after."""
        for _ in range(batches):
            down = set()
            while len(down) < k // 2:
                v = rng.randrange(g.n)
                if p.is_on(v):
                    down.add(v)
            a = fd_update(s, down, rng.sample(p.off_vertices, k // 2))
            try:
                yield down
            finally:  # the structure is shared by the class's tests
                fd_rollback(s, a)

    def test_root_push_cost_per_deactivated_degree_is_flat_in_n(self, random_structures):
        # k flips, half of them deactivations: per deleted degree, the root's
        # push reads and writes a bounded number of entries, whatever n is
        medians, maxima = [], []
        for g, p, s, state in random_structures:
            rng = random.Random()
            rng.setstate(state)
            ratios = []
            for k in (4, 8):
                for down in self.pushes(g, p, s, rng, k, 50):
                    ratios.append(s.base.t_u / (k + sum(len(g.adj[x]) for x in down)))
            medians.append(statistics.median(ratios))
            maxima.append(max(ratios))
        assert max(medians) <= 2, medians
        assert maxima[-1] <= 1.5 * maxima[0], maxima

    def test_the_low_point_certificate_decides_most_root_pushes(self, monkeypatch, random_structures):
        # on random graphs a deleted vertex's hanging pieces nearly always
        # reach above it, so range minima over the low points decide the
        # push with no adjacency read, at a cost per deleted degree flat in n
        decided, reads = [], []  # per split: the certificate's verdict, the adjacency entries read
        certify, split = graph_core._splits_nothing, oracle_mod.split_labels

        def certified(*args):
            verdict, probes = certify(*args)
            decided.append(verdict)
            return verdict, probes

        def counted(*args):
            moved, work, probes = split(*args)
            reads.append(work)
            return moved, work, probes

        monkeypatch.setattr(graph_core, "_splits_nothing", certified)
        monkeypatch.setattr(oracle_mod, "split_labels", counted)
        medians, maxima = [], []
        for g, p, s, _ in random_structures:
            rng = random.Random(-g.n)
            decided.clear()
            reads.clear()
            ratios = []
            for down in self.pushes(g, p, s, rng, 4, 50):
                if decided[-1]:  # it read no adjacency and relabeled nothing
                    assert reads[-1] == 0 and s.base._moved == {}
                    ratios.append(s.base.t_u / (4 + sum(len(g.adj[x]) for x in down)))
            assert len(decided) == len(reads) == 50  # one root push per batch; members split nothing
            assert len(ratios) >= 45, (g.n, len(ratios))
            medians.append(statistics.median(ratios))
            maxima.append(max(ratios))
        assert max(medians) <= 2, medians
        assert maxima[-1] <= 1.5 * maxima[0], maxima

    def test_member_pushes_count_each_reach_read_once(self, pushed):
        # the members' t_u sums to the activated vertices' degrees: each
        # reach set is read once, for its single member, and pairs read none
        rng = random.Random(9)
        g = gnp_graph(40, 0.2, rng)
        p = StatePartition.from_off(40, range(0, 40, 3))
        s = build_fully_dynamic(g, p)
        for _ in range(20):
            up = rng.sample(p.off_vertices, rng.randint(0, 6))
            down = rng.sample(sorted(iter_bits(p.on_mask)), rng.randint(0, 3))
            pushed.clear()
            a = fd_update(s, down, up)
            assert sum(o.t_u for o in pushed[1:]) == sum(len(g.adj[x]) for x in up)
            assert all(o.t_u == 0 for o in pushed[1 + len(up):])
            fd_rollback(s, a)

    def test_an_engine_update_checks_its_batch_once(self, monkeypatch):
        rng = random.Random(8)
        g = gnp_graph(24, 0.12, rng)
        p = StatePartition.from_off(24, range(0, 24, 4))
        s = build_fully_dynamic(g, p)
        down, up = [1, 2, 3], [0, 4, 8]
        checked = []
        has = DecrementalOracle._has
        monkeypatch.setattr(DecrementalOracle, "_has", lambda o, v: checked.append(v) or has(o, v))
        a = fd_update(s, down, up)
        assert a.pushes == 1 + 3 + 3
        assert sorted(checked) == down  # the root's check alone; a member checks its batch is the root's
        fd_rollback(s, a)


class TestBuildOnFirstPush:
    """Preprocessing builds only the root, the one oracle a structure ever
    builds. Each batch derives its members inside fd_update, before it
    pushes them, and none of them outlives that update."""

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

    def test_a_batch_derives_its_members_and_keeps_none(self, built, pushed):
        g, p = TestLabelingsPerBatch.instance()
        s = build_fully_dynamic(g, p)
        built.clear()
        up = [0, 4, 8, 12]
        k = len(up)
        a = fd_update(s, [1, 2], up)
        assert built == []
        assert pushed[0] is s.base
        assert [o.extras for o in pushed[1:]] == [(x,) for x in up] + list(itertools.combinations(up, 2))
        assert all(type(o) is Member and o.root is s.base for o in pushed[1:])
        assert sorted(a.reach) == up and a.pushes == len(pushed) == 1 + k + pairs_of(k)
        active = (set(iter_bits(p.on_mask)) - {1, 2}) | set(up)
        for u in active:
            for v in active:
                assert fd_query(s, a, u, v) == brute_connected(g, active, u, v)
        fd_rollback(s, a)
        assert s.session is None
        first = pushed[1:]
        pushed.clear()
        b = fd_update(s, [1, 2], up)
        assert set(map(id, pushed[1:])).isdisjoint(map(id, first))  # new views of the new batch
        fd_rollback(s, b)
        assert built == []

    def test_no_member_outlives_its_update(self, three_hubs, monkeypatch):
        refs = []
        push = DecrementalOracle.delete_batch

        def recorded(o, vertices):
            refs.append(weakref.ref(o))
            push(o, vertices)

        monkeypatch.setattr(DecrementalOracle, "delete_batch", recorded)
        g, p = three_hubs
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [8], [0, 5, 6])
        assert a.pushes == len(refs) == 1 + 3 + 3 and refs[0]() is s.base
        assert [r() for r in refs[1:]] == [None] * 6  # every member died with fd_update's frame
        alive = (p.on_mask & ~mask_of([8])) | mask_of([0, 5, 6])
        for u in iter_bits(alive):
            for v in iter_bits(alive):
                assert fd_query(s, a, u, v) == (v in reachable(g, alive, u))
        fd_rollback(s, a)

    @pytest.mark.parametrize("factory", oracle_names())
    def test_a_member_build_that_fails_leaves_the_structure_usable(self, factory, three_hubs, monkeypatch):
        class InjectedFault(RuntimeError):
            pass

        derive = Member._preprocess
        built = []

        def faulty(o):
            built.append(o.extras)
            if len(built) == 2:
                raise InjectedFault("second member build fails")
            derive(o)

        monkeypatch.setattr(Member, "_preprocess", faulty)
        g, p = three_hubs
        s = build_fully_dynamic(g, p, factory)
        with pytest.raises(InjectedFault):
            fd_update(s, [8], [0, 5, 6])  # after the base's push, the second member fails
        assert s.session is None
        assert s.base.phase == "fresh" and not s.base.deleted
        a = fd_update(s, [8], [0, 5, 6])
        assert a.pushes == 1 + 3 + 3
        active = (set(iter_bits(p.on_mask)) - {8}) | {0, 5, 6}
        for u in active:
            for v in active:
                assert fd_query(s, a, u, v) == brute_connected(g, active, u, v)
        fd_rollback(s, a)
        assert s.session is None


class TestInactiveHub:
    """An inactive vertex whose neighbours lie in thousands of base
    components: its reach set still costs O(deg) per update, read once for
    its single member and shared by its pairs, not O(deg^2)."""

    def test_star_with_an_inactive_centre(self, pushed):
        leaves = 3000
        g = Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        p = StatePartition.from_off(leaves + 1, [0, 1])
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [0, 1])
        hub, leaf, pair = pushed[1:]
        assert hub.extras == (0,) and len(a.reach[0]) == leaves - 2
        assert 0 < hub.t_u <= 3 * leaves
        assert leaf.t_u == 1 and pair.t_u == 0  # the pair reuses both reach sets
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
        # an old vertex (7) meets each illegal endpoint in the base's query,
        # an activated one (0) in the base's component read
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

    def test_queries_write_no_reach_set(self, three_hubs):
        # fd_update fills the reach sets; a query only reads them
        g, p = three_hubs
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [8], [0, 5, 6])
        filled = {x: set(r) for x, r in a.reach.items()}
        active = (set(iter_bits(p.on_mask)) - {8}) | {0, 5, 6}
        for u in active:
            for v in active:
                fd_query(s, a, u, v)
        assert a.reach == filled and sorted(a.reach) == [0, 5, 6]
        fd_rollback(s, a)

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


def ladder_graph(rungs, width):
    """Grid of ``width`` columns; vertex r*width+c is column c of rung r."""
    n = rungs * width
    edges = [(v, v + 1) for v in range(n) if v % width + 1 < width]
    edges += [(v, v + width) for v in range(n - width)]
    return Graph.from_edges(n, edges)


class TestOneCheckedCallPerQuery:
    """A fully dynamic query makes one checked call, its first oracle query:
    ``query`` or ``component`` on the base. It answers the rest from the
    batch's reach sets. An update makes its C(k,2) pair queries through the
    checked ``query`` of its pair members."""

    @pytest.fixture
    def counting(self, monkeypatch):
        """Counts the checked calls, ``query`` and ``component``, of every
        oracle, the members included; returns the factory and the counts."""
        calls = {"query": 0, "component": 0}
        for name in calls:
            checked = getattr(DecrementalOracle, name)

            def counted(o, *args, name=name, checked=checked):
                calls[name] += 1
                return checked(o, *args)

            monkeypatch.setattr(DecrementalOracle, name, counted)
        return "rebuild", calls

    @staticmethod
    def run_batch(g, p, factory, calls, down, up):
        """One update and every live pair's query; returns the most oracle
        queries one query made."""
        k = len(up)
        s = build_fully_dynamic(g, p, factory)
        calls.update(query=0, component=0)
        a = fd_update(s, down, up)
        assert calls == {"query": pairs_of(k), "component": 0}
        assert a.build_probes == pairs_of(k)
        alive = sorted(iter_bits((p.on_mask & ~mask_of(down)) | mask_of(up)))
        most = 0
        for u in alive:
            for v in alive:
                calls.update(query=0, component=0)
                before = a.query_probes
                assert fd_query(s, a, u, v) == brute_connected(g, set(alive), u, v)
                made = a.query_probes - before
                checked = calls["query"] + calls["component"]
                assert checked == (0 if u in up and v in up else 1)
                assert checked <= made <= 1 + 2 * k
                most = max(most, made)
        fd_rollback(s, a)
        return most

    def test_random_instances(self, counting):
        factory, calls = counting
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(2, 14)
            g = gnp_graph(n, 0.3, rng)
            off = rng.sample(range(n), rng.randint(0, n // 2))
            p = StatePartition.from_off(n, off)
            up = rng.sample(off, rng.randint(0, len(off))) if off else []
            down = rng.sample(sorted(iter_bits(p.on_mask)), rng.randint(0, min(3, p.n_on)))
            self.run_batch(g, p, factory, calls, down, up)

    def test_ladder_with_inactive_rungs(self, counting):
        # width 4, rungs 2 and 5 inactive: activated vertices of one rung
        # join through the segment beside it, so a query between segments
        # tries several members of a bridge component
        factory, calls = counting
        g = ladder_graph(8, 4)
        off = [*range(8, 12), *range(20, 24)]
        p = StatePartition.from_off(g.n, off)
        rng = random.Random(7)
        most = 0
        for _ in range(12):
            up = rng.sample(off, rng.randint(1, 5))
            down = rng.sample(sorted(iter_bits(p.on_mask)), rng.randint(0, 2))
            most = max(most, self.run_batch(g, p, factory, calls, down, up))
        assert most > 3


class TestRecord:
    def test_fd_record_holds_the_batch(self, three_hubs, pushed):
        g, p = three_hubs
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [8], [6, 0, 5])
        assert s.base.deleted == frozenset({8})
        assert pushed[0] is s.base and a.pushes == len(pushed)
        assert [o.extras for o in pushed[1:]] == [(0,), (5,), (6,), (0, 5), (0, 6), (5, 6)]
        assert all(o.deleted is s.base.deleted for o in pushed)
        assert a.reach == {0: {s.base._component(7)}, 5: set(), 6: {s.base._component(7)}}
        assert a.components == ((0, 6), (5,))
        assert a.comp == {0: 0, 5: 1, 6: 0}
        fd_rollback(s, a)
        assert s.base.phase == "fresh" and s.base.deleted == frozenset() and s.session is None

    def test_activation_only_batch_matches_the_incremental_record(self, three_hubs):
        g, p = three_hubs
        a = fd_update(build_fully_dynamic(g, p), [], [6, 5, 4, 3, 2, 1, 0])
        assert a == incremental_update(build_incremental(g, p), range(7))
        assert a.pushes == 1 + 7 + pairs_of(7)


class TestRollback:
    def test_identical_reupdate_reproduces_supergraph(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        edges = a.edges
        fd_rollback(s, a)
        b = fd_update(s, [2], [5])
        assert b.edges == edges

    def test_rollback_resets_the_base_and_drops_the_members(self, mixed):
        g, p = mixed
        s = build_fully_dynamic(g, p)
        a = fd_update(s, [2], [5])
        assert a.pushes == 1 + 1 + 0  # 1 + |I| + C(|I|, 2) pushes for I = {5}
        assert list(a.reach) == [5]
        fd_rollback(s, a)
        assert s.base.phase == "fresh" and s.base.deleted == frozenset()
        assert s.session is None

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
        assert fd_query(fam.structures[fam.level_for(3)], session, 1, 4) is False
        fd_rollback(fam.structures[fam.level_for(3)], session)

    def test_oversized_batch_rejected(self, p5):
        g, p = p5
        fam = build_doubling(g, p, 2)
        with pytest.raises(CapacityError):
            fam.level_for(3)
        with pytest.raises(CapacityError):
            fam.dispatch_update([0, 1, 3], [])
        s = fam.structures[fam.level_for(2)]
        assert s.session is None
        assert s.base.phase == "fresh" and not s.base.deleted

    def test_dispatch_reports_a_vertex_on_both_sides(self):
        fam = build_doubling(path_graph(6), StatePartition.from_off(6, [2, 4]), 2)
        with pytest.raises(ContractViolation, match=r"vertices \[1\] appear on both sides of the batch"):
            fam.dispatch_update([1], [1, 4])
        assert fam.structures[fam.level_for(2)].session is None

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

    def test_the_structure_retains_the_root_alone(self):
        """Members live for one batch: after batches that activate every
        inactive vertex in turn, 16 at a time, so that each derives 1 + 16
        + 120 members, the structure retains what its root alone does, give
        or take a few kilobytes."""
        n, n_off, k = 20_000, 300, 16
        rng = random.Random(11)
        g = Graph.from_edges(n, ((rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)))
        p = StatePartition.from_off(n, rng.sample(range(n), n_off))
        off, v0 = p.off_vertices, next(iter_bits(p.on_mask))
        retained = []
        tracemalloc.start()
        try:
            kept = make_oracle("rebuild", g, p.on_mask)
            retained.append(tracemalloc.get_traced_memory()[0])
            del kept
            base = tracemalloc.get_traced_memory()[0]
            s = build_fully_dynamic(g, p)
            for i in range(0, 2 * n_off, k):  # every inactive vertex, twice
                a = fd_update(s, [], [off[(i + j) % n_off] for j in range(k)])
                fd_query(s, a, off[i % n_off], v0)
                fd_rollback(s, a)
            del a
            retained.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert retained[1] <= retained[0] + 64_000, f"root {retained[0]:,} B, structure {retained[1]:,} B"
