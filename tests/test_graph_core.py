import dataclasses
import functools
import itertools
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensconn.bits import all_bits, iter_bits, mask_of
from sensconn.errors import ContractViolation, ParseError, QueryEndpointError
from sensconn.generators import path_graph, star_graph
import sensconn.graph_core as graph_core
from sensconn.graph_core import (
    Graph,
    StatePartition,
    UpdateBatch,
    component_labels,
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


class TestSplitLabels:
    """split_labels must give the partition a fresh component_labels of the
    survivors gives, reading at most 2m adjacency entries."""

    @staticmethod
    def split(g, active_bits, deleted):
        labels, count = component_labels(g, active_bits)
        got, count, work = split_labels(g, labels, count, deleted)
        fresh, _ = component_labels(g, active_bits & ~mask_of(deleted))
        assert canonical(got) == canonical(fresh)
        assert max(got, default=-1) < count
        assert work <= 2 * g.m
        return got, count, work

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
        labels, count, _ = self.split(g, all_bits(9), [0])
        assert labels[0] == -1
        assert sorted(labels[1:]) == list(range(8))
        assert count == 8

    def test_deletions_in_two_components(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
        labels, count, _ = self.split(g, all_bits(8), [1, 5])
        assert len(set(labels) - {-1}) == 4
        assert count == 4

    def test_deleting_a_whole_component_keeps_the_others(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        labels, count, work = self.split(g, all_bits(5), [0, 1])
        assert labels == [-1, -1, 1, 1, 1]
        assert (count, work) == (2, 2)

    def test_adjacent_deleted_vertices(self):
        g = path_graph(7)
        labels, count, _ = self.split(g, all_bits(7), [3, 2])
        assert labels[:2] == [labels[0]] * 2 and labels[4:] == [labels[4]] * 3
        assert labels[0] != labels[4] and count == 2

    def test_one_cut_vertex_between_two_halves(self):
        half = 1000
        edges = [(i, i + 1) for i in range(half - 1)]
        edges += [(half + i, half + i + 1) for i in range(half - 1)]
        edges += [(2 * half, 0), (2 * half, half)]
        g = Graph.from_edges(2 * half + 1, edges)
        labels, count, _ = self.split(g, all_bits(g.n), [2 * half])
        assert len(set(labels[:half])) == len(set(labels[half:-1])) == 1
        assert labels[0] != labels[half] and count == 2


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


@pytest.mark.parametrize("mask", [-1, -2])
@pytest.mark.parametrize("call", [
    lambda g, mask: reachable(g, mask, 0),
    lambda g, mask: component_labels(g, mask),
], ids=["reachable", "component_labels"])
def test_negative_active_mask_rejected(call, mask):
    # bin() of a negative int reads "-0b...": the flags must not be built from it
    with pytest.raises(ContractViolation, match="non-negative"):
        call(path_graph(4), mask)


class TestUpdateAndQueryFiles:
    def test_update_tokens(self):
        down, up = parse_update_text("+2\n-0\n# note\n+4\n", n=5)
        assert down == [0] and up == [2, 4]

    def test_update_bad_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_update_text("2\n", n=5)

    @pytest.mark.parametrize("token", ["+\u00b2", "-\u0663"])
    def test_update_non_ascii_digit_rejected(self, token):
        with pytest.raises(ParseError, match="line 1"):
            parse_update_text(token + "\n", n=5)

    def test_update_out_of_range(self):
        with pytest.raises(ParseError, match="outside"):
            parse_update_text("+9\n", n=5)

    def test_update_double_flip_rejected(self):
        with pytest.raises(ParseError, match="more than once"):
            parse_update_text("+2\n-2\n", n=5)

    def test_query_pairs(self):
        assert parse_query_text("0 4\n1 3\n") == [(0, 4), (1, 3)]

    @pytest.mark.parametrize("text", ["0 \u0663\n", "0 1_0\n", "-1 0\n"])
    def test_query_ids_are_ascii_digits_only(self, text):
        with pytest.raises(ParseError, match="line 1:"):
            parse_query_text(text)

    def test_query_dangling_endpoint(self):
        with pytest.raises(ParseError, match="dangling"):
            parse_query_text("0 4\n1\n")


class TestStatePartition:
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


class TestImmutability:
    def test_graph_is_frozen(self, p5):
        g, p = p5
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.on_mask = 0
