import dataclasses
import functools
import itertools
import operator
import random
import statistics
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensconn.bits import all_bits, iter_bits, mask_of
from sensconn.connectivity_oracle import make_oracle
from sensconn.errors import ContractViolation, ParseError, QueryEndpointError
from sensconn.generators import path_graph, star_graph
import sensconn.graph_core as graph_core
from sensconn.graph_core import (
    Graph,
    StatePartition,
    UpdateBatch,
    component_labels,
    dfs_forest,
    dump_graph,
    load_graph,
    parse_query_text,
    parse_update_text,
    reachable,
    split_labels,
)

from reference import brute_components, brute_connected
from strategies import graphs, graphs_with_partition


class TestLoadGraph:
    def test_path_with_inactive_middle(self):
        g, p = load_graph("5 4\n0 1\n1 2\n2 3\n3 4\nOFF 1\n2")
        assert (g.n, g.m) == (5, 4)
        assert g.adj == ((1,), (0, 2), (1, 3), (2, 4), (3,))
        assert p.off_vertices == (2,)
        assert p.n_on == 4 and p.n_off == 1

    def test_edgeless(self):
        g, p = load_graph("3 0\nOFF 0\n")
        assert (g.n, g.m) == (3, 0)
        assert p.on_mask == 0b111

    def test_duplicate_edges_collapse(self):
        g, p = load_graph("2 2\n0 1\n1 0\nOFF 0\n")
        assert g.m == 1
        assert g.adj == ((1,), (0,))

    def test_comments_and_blank_lines_ignored(self):
        g, p = load_graph("# fixture\n\n2 1\n# edge below\n0 1\nOFF 1\n# off id\n1\n")
        assert g.m == 1 and p.off_vertices == (1,)

    def test_off_ids_spread_over_lines(self):
        _, p = load_graph("4 0\nOFF 3\n0 2\n3\n")
        assert p.off_vertices == (0, 2, 3)

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_graph("five 4\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1_0 0\nOFF 0\n", 1),  # int() reads 1_0 as 10
            ("\u0663 0\nOFF 0\n", 1),  # int() reads Arabic-Indic three as 3
            ("12 1\n0 1_0\nOFF 0\n", 2),
            ("3 0\nOFF 1\n+1\n", 3),
            # more digits than int() reads
            pytest.param("1" * 5000 + " 0\nOFF 0\n", 1, id="5000-digit vertex count"),
            pytest.param("3 1\n0\n" + "1" * 5000 + "\nOFF 0\n", 3, id="5000-digit endpoint"),
            pytest.param("3 0\nOFF 1\n" + "1" * 5000 + "\n", 3, id="5000-digit OFF id"),
        ],
    )
    def test_integers_are_ascii_digits_only(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            load_graph(text)

    def test_edge_endpoint_out_of_range_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_graph("3 2\n0 1\n1 7\nOFF 0\n")

    def test_unknown_off_vertex_names_line(self):
        with pytest.raises(ParseError, match="line 4.*unknown vertex 9"):
            load_graph("3 1\n0 1\nOFF 1\n9\n")

    def test_duplicate_off_vertex_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_graph("3 0\nOFF 2\n1 1\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="unexpected end of input"):
            load_graph("3 2\n0 1\n")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            load_graph("2 0\nOFF 0\n7\n")

    def test_vertex_count_over_the_cap_rejected_before_reading_edges(self, monkeypatch):
        monkeypatch.setattr(graph_core, "MAX_VERTICES", 8)
        assert load_graph("8 0\nOFF 0\n")[0].n == 8
        # the edge on line 2 is out of range too; the header is checked first
        with pytest.raises(ParseError, match="line 1: vertex count 9 exceeds the cap of 8"):
            load_graph("9 1\n0 99\nOFF 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 9\nx 1\nOFF 0\n", "line 2: vertex id 9 outside [0, 3)"),
            ("3 2\n0 x\n9 1\nOFF 0\n", "line 2: expected edge endpoint, got 'x'"),
            ("3 2\n0 1\n2\n", "line 3: unexpected end of input, expected edge endpoint"),
            # end of input names the last content line, not the comment after it
            ("3 1\n0 1\n# c\n", "line 2: unexpected end of input, expected 'OFF' header"),
            ("# only\n\n", "line 1: unexpected end of input, expected vertex count"),
            ("3 0\nOFF 2\n5 5\n", "line 3: unknown vertex 5 in OFF list"),
            # the out-of-range 7 is read before the bad token or the end after it
            ("3 1\n7 x\nOFF 0\n", "line 2: vertex id 7 outside [0, 3)"),
            ("3 1\n7\n", "line 2: vertex id 7 outside [0, 3)"),
        ],
    )
    def test_first_fault_in_reading_order_is_reported(self, text, message):
        with pytest.raises(ParseError) as exc:
            load_graph(text)
        assert str(exc.value) == message

    @given(graphs_with_partition(max_n=12), st.data())
    def test_corrupted_token_names_its_line(self, gp, data):
        """One token of a dumped file is corrupted: a non-digit, an id out of
        range, a repeated OFF id or a deleted token, and comment and blank
        lines are inserted before, between and after the rows. The error
        names the line of the first token that cannot be read in its place."""
        g, p = gp
        rows = [line.split() for line in dump_graph(g, p).splitlines()]
        where = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
        off_at = 2 + 2 * g.m  # 'OFF' in reading order; the OFF count follows it
        ids = [i for i in range(2, len(where)) if i not in (off_at, off_at + 1)]
        kinds = ["non-digit", "deleted"] + ["out of range"] * bool(ids)
        kinds += ["duplicate OFF id"] * (p.n_off > 1)
        kind = data.draw(st.sampled_from(kinds))
        if kind == "deleted":
            # a missing endpoint or 'OFF' shifts the OFF count under 'OFF'
            # or 'OFF' into the last endpoint; a missing OFF id ends the input
            i = data.draw(st.sampled_from([j for j in range(2, len(where)) if j != off_at + 1]))
            r, c = where[i]
            del rows[r][c]
            faulty = where[off_at] if i <= off_at else [w for w in where if w != (r, c)][-1]
        else:
            if kind == "non-digit":
                i = data.draw(st.sampled_from([j for j in range(len(where)) if j != off_at]))
                tok = data.draw(st.sampled_from(["x", "OFF", "1_0", "-1", "+1", "\u0663", "1.0"]))
            elif kind == "out of range":
                i = data.draw(st.sampled_from(ids))
                tok = str(data.draw(st.integers(g.n, 10**30)))
            else:
                i = data.draw(st.integers(off_at + 3, len(where) - 1))
                r, c = where[data.draw(st.integers(off_at + 2, i - 1))]
                tok = rows[r][c]
            faulty = where[i]
            r, c = faulty
            rows[r][c] = tok
        filler = st.lists(st.sampled_from(["", "# c", "  # 0 1", "#OFF 9", "\t"]), max_size=2)
        fills = data.draw(st.lists(filler, min_size=len(rows) + 1, max_size=len(rows) + 1))
        lines, lineno = fills[0], []  # lineno[r]: the line that row r lands on
        for row, fill in zip(rows, fills[1:]):
            lineno.append(len(lines) + 1)
            lines = lines + [" ".join(row)] + fill
        with pytest.raises(ParseError) as exc:
            load_graph("\n".join(lines) + "\n")
        assert exc.value.lineno == lineno[faulty[0]], (kind, str(exc.value))

    def test_memory_per_token_is_bounded(self):
        # one (token, line) tuple per token peaks near 337 B per token, two
        # flat lists, one of tokens and one of lines, near 269
        n = 50_000
        text = dump_graph(path_graph(n), StatePartition.from_off(n, []))
        tracemalloc.start()
        try:
            load_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(text.split()) < 300

    def test_query_memory_per_token_is_bounded(self):
        # a line number per token peaked near 151 B per token (Python 3.12,
        # 3.13) and 159 (3.10, 3.11); without it near 102 and 110
        rng = random.Random(0)
        text = "".join(f"{rng.randrange(20_000)} {rng.randrange(20_000)}\n" for _ in range(50_000))
        tracemalloc.start()
        try:
            parse_query_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 100_000 < 145

    def test_roundtrip_fixture(self, p5):
        g, p = p5
        assert load_graph(dump_graph(g, p)) == (g, p)

    @given(graphs_with_partition(max_n=16))
    def test_roundtrip_idempotent(self, gp):
        g, p = gp
        text = dump_graph(g, p)
        g2, p2 = load_graph(text)
        assert (g2, p2) == (g, p)
        assert dump_graph(g2, p2) == text


def small_instances(n_max):
    """Every graph on 1..n_max vertices with every active vertex set."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for edge_bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in iter_bits(edge_bits)])
            for active_bits in range(1 << n):
                yield g, active_bits


def canonical(labels):
    """Labels renumbered by first appearance: equal iff same partition."""
    ids = {-1: -1}
    return [ids.setdefault(c, len(ids) - 1) for c in labels]


class TestConnectedComponents:
    def test_path_with_middle_removed(self, p5):
        g, _ = p5
        assert component_labels(g, mask_of([0, 1, 3, 4])) == ([0, 0, -1, 1, 1], 2)

    def test_full_path_is_one_component(self, p5):
        g, _ = p5
        assert component_labels(g, all_bits(5)) == ([0] * 5, 1)

    def test_star_with_center_off(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert component_labels(g, mask_of([1, 2, 3])) == ([-1, 0, 1, 2], 3)

    def test_empty_active_set(self, p5):
        g, _ = p5
        assert component_labels(g, 0) == ([-1] * 5, 0)

    def test_numbering_follows_smallest_member(self):
        g = Graph.from_edges(6, [(4, 5), (0, 3)])
        assert component_labels(g, all_bits(6)) == ([0, 1, 2, 0, 3, 3], 4)

    def test_exhaustive_small_graphs_match_reference(self):
        for g, active_bits in small_instances(5):
            active = set(iter_bits(active_bits))
            labels, count = component_labels(g, active_bits)
            comps = [frozenset(v for v in range(g.n) if labels[v] == c) for c in range(count)]
            assert comps == brute_components(g, active)
            assert all((labels[v] == -1) == (v not in active) for v in range(g.n))

    @given(graphs(max_n=64), st.data())
    @settings(max_examples=80)
    def test_random_graphs_match_reference(self, g, data):
        active_bits = data.draw(st.integers(0, (1 << g.n) - 1))
        active = set(iter_bits(active_bits))
        labels, _ = component_labels(g, active_bits)
        assert all((labels[v] == -1) == (v not in active) for v in range(g.n))
        for u in active:
            for v in active:
                assert (labels[u] == labels[v]) == brute_connected(g, active, u, v)


class TestDfsForest:
    """dfs_forest labels the components as component_labels does, list for
    list, ``order`` inverts ``pre``, and the pre-order intervals make a
    depth-first forest: intervals nest or are disjoint, each lies in one
    component, and every edge joins an ancestor to a descendant. ``low``
    holds each vertex's low point, and ``low_min`` reads the minimum of any
    run of them."""

    @staticmethod
    def check(g, active_bits, intervals=None):
        f = dfs_forest(g, active_bits)
        assert (f.labels, f.count) == component_labels(g, active_bits)
        active = list(iter_bits(active_bits))
        pre, end = f.pre, f.end
        assert sorted(f.order) == active and all(pre[v] == i for i, v in enumerate(f.order))
        assert all(pre[v] == -1 for v in range(g.n) if not active_bits >> v & 1)
        for c, r in enumerate(f.roots):  # each tree is rooted at its smallest vertex
            assert r == f.labels.index(c) and end[r] - pre[r] == f.labels.count(c)
        assert len(f.roots) == f.count
        for v in active:
            assert pre[v] < end[v] <= len(active)
            assert {f.labels[w] for w in f.order[pre[v]:end[v]]} == {f.labels[v]}
            for w in active:
                disjoint = end[v] <= pre[w] or end[w] <= pre[v]
                assert disjoint or pre[v] <= pre[w] < end[w] <= end[v] or pre[w] <= pre[v] < end[v] <= end[w]
            for w in g.adj[v]:
                if active_bits >> w & 1:
                    assert pre[v] < pre[w] < end[v] or pre[w] < pre[v] < end[w]
        assert len(f.low) == len(active)
        for v in active:
            assert f.low[pre[v]] == min([pre[v]] + [pre[w] for w in g.adj[v] if active_bits >> w & 1])
        if intervals is None:
            intervals = itertools.combinations(range(len(active) + 1), 2)
        for a, b in intervals:
            assert f.low_min(a, b)[0] == min(f.low[a:b]), (a, b)

    def test_exhaustive_small_graphs(self):
        for g, active_bits in small_instances(4):
            self.check(g, active_bits)

    @given(graphs(max_n=40), st.data())
    @settings(max_examples=80)
    def test_random_graphs(self, g, data):
        active_bits = data.draw(st.integers(0, (1 << g.n) - 1))
        t = bin(active_bits).count("1")
        rng = data.draw(st.randoms(use_true_random=False))
        intervals = [sorted(rng.sample(range(t + 1), 2)) for _ in range(200)] if t else []
        self.check(g, active_bits, intervals)

    def test_range_minima_over_many_blocks(self):
        # 300 positions fill 37 whole blocks, so every row of the table is read
        rng = random.Random(300)
        g = Graph.from_edges(300, ((rng.randrange(300), rng.randrange(300)) for _ in range(600)))
        f = dfs_forest(g, all_bits(300))
        for a in range(len(f.low)):
            for b in range(a + 1, len(f.low) + 1):
                assert f.low_min(a, b)[0] == min(f.low[a:b]), (a, b)


def race(g, forest, deleted):
    """split_labels with its certificate forced to report that a piece may
    be cut off, so the searches decide every batch."""
    cert = graph_core._splits_nothing
    graph_core._splits_nothing = lambda *args: (False, 0)
    try:
        return split_labels(g, forest, deleted)
    finally:
        graph_core._splits_nothing = cert


class TestSplitLabels:
    """split_labels must return, as the survivors it relabels, the partition
    a fresh component_labels of the survivors gives, with new ids from the
    forest's count on, reading at most 2m adjacency entries and writing
    nothing: the forest's labels stay as dfs_forest left them."""

    @staticmethod
    def split(g, active_bits, deleted):
        forest = dfs_forest(g, active_bits)
        before = forest.labels.copy()
        moved, work, probes = split_labels(g, forest, deleted)
        assert forest.labels == before
        gone = set(deleted)
        got = [-1 if v in gone else moved.get(v, c) for v, c in enumerate(before)]
        count = forest.count + len(set(moved.values()))
        assert set(moved.values()) == set(range(forest.count, count))
        assert gone.isdisjoint(moved)
        fresh, _ = component_labels(g, active_bits & ~mask_of(deleted))
        assert canonical(got) == canonical(fresh)
        assert work <= 2 * g.m
        # the searches alone relabel the same vertices to the same ids; a
        # batch the certificate decides reads no adjacency
        raced, raced_work, _ = race(g, forest, deleted)
        assert forest.labels == before
        assert raced == moved
        assert work in (0, raced_work)
        return got, count, work, probes

    def test_exhaustive_small_graphs_and_deletion_sets(self):
        for g, active_bits in small_instances(4):
            for deleted_bits in range(1 << g.n):
                if deleted_bits & ~active_bits == 0:
                    self.split(g, active_bits, list(iter_bits(deleted_bits)))

    @given(graphs(max_n=64), st.data())
    @settings(max_examples=80)
    def test_random_graphs_match_a_fresh_labeling(self, g, data):
        active_bits = data.draw(st.integers(0, (1 << g.n) - 1))
        active = sorted(iter_bits(active_bits))
        deleted = data.draw(st.lists(st.sampled_from(active), unique=True) if active else st.just([]))
        self.split(g, active_bits, deleted)

    def test_star_centre_leaves_one_piece_per_leaf(self):
        g = star_graph(9)
        labels, count, _, _ = self.split(g, all_bits(9), [0])
        assert labels[0] == -1
        assert sorted(labels[1:]) == list(range(8))
        assert count == 8

    def test_deletions_in_two_components(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        labels, count, _, _ = self.split(g, all_bits(8), [1, 5])
        assert len(set(labels) - {-1}) == 4
        assert count == 4

    def test_deleting_a_whole_component_keeps_the_others(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        labels, count, work, _ = self.split(g, all_bits(5), [0, 1])
        assert labels == [-1, -1, 1, 1, 1]
        assert (count, work) == (2, 0)  # both pieces of {0, 1} are empty: nothing to search

    def test_adjacent_deleted_vertices(self):
        g = path_graph(7)
        labels, count, _, _ = self.split(g, all_bits(7), [3, 2])
        assert labels[:2] == [labels[0]] * 2 and labels[4:] == [labels[4]] * 3
        assert labels[0] != labels[4] and count == 2

    def test_one_cut_vertex_between_two_halves(self):
        half = 1000
        edges = [(i, i + 1) for i in range(half - 1)]
        edges += [(half + i, half + i + 1) for i in range(half - 1)]
        edges += [(2 * half, 0), (2 * half, half)]
        g = Graph.from_edges(2 * half + 1, edges)
        labels, count, _, _ = self.split(g, all_bits(g.n), [2 * half])
        assert len(set(labels[:half])) == len(set(labels[half:-1])) == 1
        assert labels[0] != labels[half] and count == 2

    def test_a_deleted_tree_root_is_refused_before_any_read(self):
        # tree 0-2-1: the only piece hangs under the deleted root 0, so no
        # piece can reach a top piece; the searches find it whole
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert dfs_forest(g, all_bits(3)).order == [0, 2, 1]
        labels, count, work, probes = self.split(g, all_bits(3), [0])
        assert labels == [-1, 0, 0] and count == 1
        assert (work, probes) == (0, 0)

    def test_nested_deletions_on_one_root_to_leaf_path(self):
        # the square of a path: its forest is the single path
        # 0, 2, ..., 10, 11, 9, ..., 1, so 7 lies under 3 and 3 under 6
        n = 12
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)])
        assert dfs_forest(g, all_bits(n)).order == [0, 2, 4, 6, 8, 10, 11, 9, 7, 5, 3, 1]
        labels, count, work, probes = self.split(g, all_bits(n), [7, 3])
        assert (count, work) == (1, 0) and probes > 0  # both pieces reach above their parents
        # the piece 8, 10, 11 under 6 reaches only 6 and the piece below it:
        # nothing splits, but only the searches can tell
        labels, count, work, _ = self.split(g, all_bits(n), [3, 6, 9])
        assert count == 1 and work > 0

    def test_a_piece_reaching_up_only_to_deleted_ancestors_is_cut_off(self):
        # tree 0-1-3-2; the piece {2} under 3 neighbours 3 and 1 alone
        g = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert dfs_forest(g, all_bits(4)).order == [0, 1, 3, 2]
        labels, count, _, _ = self.split(g, all_bits(4), [1, 3])
        assert labels[0] != labels[2] and count == 2

    def test_a_deleted_leafs_back_edge_links_no_piece(self):
        # the 4-cycle's tree is 0-3-2-1; the deleted leaf 1 has the lowest
        # low point in the run of the piece {2}, through its edge to 0
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        f = dfs_forest(g, all_bits(4))
        assert (f.order, f.low) == ([0, 3, 2, 1], [0, 0, 1, 0])
        labels, count, _, _ = self.split(g, all_bits(4), [3, 1])
        assert labels[0] != labels[2] and count == 2

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_work_on_random_graphs_follows_the_deleted_degree(self, n):
        # average degree 8; a hanging piece of a depth-first tree reaches
        # above its deleted parent within a read or two, so the searches read
        # a few times the deleted vertices' adjacency, whatever n is; the
        # certificate reads none, and its batches split as the searches do
        rng = random.Random(n)
        g = Graph.from_edges(n, ((rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)))
        forest = dfs_forest(g, all_bits(n))
        fresh = forest.labels.copy()
        for k in (1, 4, 8):
            ratios = []
            for _ in range(200):
                deleted = rng.sample(range(n), k)
                moved, work, _ = split_labels(g, forest, deleted)
                raced, raced_work, _ = race(g, forest, deleted)
                assert raced == moved
                assert work in (0, raced_work)
                ratios.append(raced_work / max(1, sum(len(g.adj[x]) for x in deleted)))
            assert forest.labels == fresh
            assert statistics.median(ratios) <= 4 and max(ratios) <= 12, (k, statistics.median(ratios), max(ratios))


class TestReachableMask:
    def test_inactive_source_rejected(self, p5):
        g, _ = p5
        with pytest.raises(QueryEndpointError):
            reachable(g, mask_of([0, 1]), 3)

    @pytest.mark.parametrize("source", [-1, 5])
    def test_source_outside_the_graph_rejected(self, p5, source):
        g, _ = p5
        with pytest.raises(QueryEndpointError):
            reachable(g, all_bits(5), source)

    def test_matches_reference(self, p5):
        g, _ = p5
        active = {0, 1, 3, 4}
        assert reachable(g, mask_of(active), 0) == {0, 1}


each_mask_reader = pytest.mark.parametrize("call", [
    lambda g, mask: reachable(g, mask, 0),
    lambda g, mask: component_labels(g, mask),
    lambda g, mask: make_oracle("rebuild", g, mask),
], ids=["reachable", "component_labels", "rebuild"])


@pytest.mark.parametrize("mask", [-1, -2])
@each_mask_reader
def test_negative_active_mask_rejected(call, mask):
    # bin() of a negative int reads "-0b...": the flags must not be built from it
    with pytest.raises(ContractViolation, match="non-negative"):
        call(path_graph(4), mask)


@pytest.mark.parametrize("mask", [0b11111, 0b1000])
@each_mask_reader
def test_active_mask_wider_than_the_graph_rejected(call, mask):
    with pytest.raises(ContractViolation, match=r"^active mask names vertices outside \[0, 3\)$"):
        call(path_graph(3), mask)


class TestUpdateAndQueryFiles:
    def test_update_tokens(self):
        down, up = parse_update_text("+2\n-0\n# note\n+4\n", n=5)
        assert down == [0] and up == [2, 4]

    def test_update_tokens_in_any_line_layout(self):
        assert parse_update_text("+1 -2\n+3", 5) == ([2], [1, 3])

    def test_update_bad_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_update_text("2\n", n=5)

    @pytest.mark.parametrize("token", [
        "+\u00b2", "-\u0663", pytest.param("+" + "1" * 5000, id="5000 digits")])
    def test_update_non_ascii_digit_rejected(self, token):
        with pytest.raises(ParseError, match="line 1"):
            parse_update_text(token + "\n", n=5)

    def test_update_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_update_text("+9\n", n=5)

    def test_update_double_flip_rejected(self):
        with pytest.raises(ParseError, match="more than once"):
            parse_update_text("+2\n-2\n", n=5)

    @pytest.mark.parametrize(
        "text, message",
        [
            # each token's sign, id, range and repeat are checked before the next token
            ("+9 \u00b2 -2", "line 1: vertex id 9 outside [0, 5)"),
            ("+1 ++1 x", "line 1: expected vertex id after the sign, got '+1'"),
            ("+1\n# c\n-1 x", "line 3: vertex 1 flipped more than once in the batch"),
            ("-3 +\n+9", "line 1: expected vertex id after the sign, got ''"),
        ],
    )
    def test_update_first_fault_in_reading_order_is_reported(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_update_text(text, 5)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n# c\n2 x\n3", "line 3: expected vertex id, got 'x'"),
            ("# a\n\n0 1\n2\n", "line 4: dangling query endpoint"),
        ],
    )
    def test_query_fault_names_its_line_past_comments(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_query_text(text)
        assert str(exc.value) == message

    def test_query_pairs(self):
        assert parse_query_text("0 4\n1 3\n") == [(0, 4), (1, 3)]

    def test_query_pairs_in_any_line_layout(self):
        assert parse_query_text("0\n4 1\n3\n") == [(0, 4), (1, 3)]

    @pytest.mark.parametrize("text", [
        "0 \u0663\n", "0 1_0\n", "-1 0\n", pytest.param("0 " + "1" * 5000 + "\n", id="5000 digits")])
    def test_query_ids_are_ascii_digits_only(self, text):
        with pytest.raises(ParseError, match="line 1:"):
            parse_query_text(text)

    def test_query_dangling_endpoint(self):
        with pytest.raises(ParseError, match="^line 2: dangling query endpoint$"):
            parse_query_text("0 4\n1\n")

    def test_query_bad_id_before_an_odd_count(self):
        with pytest.raises(ParseError, match="^line 1: expected vertex id, got 'x'$"):
            parse_query_text("0 x\n1\n")


class TestStatePartition:
    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ContractViolation, match="vertex count must be non-negative, got -1"):
            StatePartition.from_off(-1, [])

    def test_is_on_is_false_outside_the_graph(self, mixed):
        _, p = mixed
        assert [p.is_on(v) for v in (-1, 0, 5, 6, 10**9)] == [False, True, False, False, False]

    def test_is_on_agrees_with_on_mask(self):
        p = StatePartition.from_off(70, [0, 3, 64, 69])
        assert [v for v in range(70) if p.is_on(v)] == list(iter_bits(p.on_mask))


class TestMaskOf:
    @given(st.lists(st.integers(0, 300)))
    @example([])
    @example([9, 2, 9, 0, 64])
    @example([300, 7, 7, 150, 8, 0, 299, 64, 63, 1, 150])
    def test_equals_the_or_of_its_bits(self, indices):
        expected = functools.reduce(operator.or_, (1 << i for i in indices), 0)
        assert mask_of(indices) == expected
        assert mask_of(iter(indices)) == expected


class TestUpdateBatch:
    def test_valid_batch(self, mixed):
        _, p = mixed
        batch = UpdateBatch.for_partition(p, [2], [5])
        assert batch.d == 2

    def test_deactivating_inactive_vertex_rejected(self, mixed):
        _, p = mixed
        with pytest.raises(ContractViolation):
            UpdateBatch.for_partition(p, [5], [])

    def test_activating_active_vertex_rejected(self, mixed):
        _, p = mixed
        with pytest.raises(ContractViolation):
            UpdateBatch.for_partition(p, [], [1])

    @pytest.mark.parametrize("v", [-1, 6])
    def test_vertex_outside_the_graph_rejected(self, mixed, v):
        _, p = mixed
        with pytest.raises(ContractViolation, match="not an active"):
            UpdateBatch.for_partition(p, [v], [])
        with pytest.raises(ContractViolation, match="not an inactive"):
            UpdateBatch.for_partition(p, [], [v])

    @pytest.mark.parametrize(
        "down, up, message",
        [
            ([-1], [], "cannot deactivate -1: not an active vertex"),
            ([6], [], "cannot deactivate 6: not an active vertex"),
            ([5], [], "cannot deactivate 5: not an active vertex"),
            ([], [-1], "cannot activate -1: not an inactive vertex"),
            ([], [6], "cannot activate 6: not an inactive vertex"),
            ([], [1], "cannot activate 1: not an inactive vertex"),
            ([5, 1], [1, 5], "vertices [1, 5] appear on both sides of the batch"),
            ([1], [1], "vertices [1] appear on both sides of the batch"),
            # the overlap is reported first, then the deactivations, then the activations
            ([5, 2], [2, 1], "vertices [2] appear on both sides of the batch"),
            ([5], [1], "cannot deactivate 5: not an active vertex"),
            ([2], [1], "cannot activate 1: not an inactive vertex"),
        ],
    )
    def test_messages_and_their_order(self, mixed, down, up, message):
        _, p = mixed
        with pytest.raises(ContractViolation) as err:
            UpdateBatch.for_partition(p, down, up)
        assert str(err.value) == message


class TestImmutability:
    def test_graph_is_frozen(self, p5):
        g, p = p5
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.on_mask = 0
