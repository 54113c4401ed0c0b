import itertools
import random
import time

import networkx as nx
import pytest

from rainbowdom import (
    CapacityError,
    Graph,
    ParseError,
    PreconditionError,
    canonical_form,
    components,
    enumerate_connected_graphs,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_double_c4,
    gen_glued_paths,
    gen_path,
    gen_star,
    induced_subgraph,
    is_connected,
    is_dominating_set,
    is_total_dominating_set,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from rainbowdom.graphs import _bandwidth_order

from conftest import (
    brute_is_dominating,
    brute_is_total_dominating,
    count_connected_by_edge_subsets,
    perm_isomorphic,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestConstruction:
    def test_from_edge_list_basic(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.degree(1) == 2 and g.degree(0) == 1
        assert g.neighbors(1) == {0, 2}
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            from_edge_list(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_list(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_graph_validates_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # asymmetric
        with pytest.raises(ValueError):
            Graph(1, (1,))  # loop


class TestGenerators:
    def test_path(self):
        g = gen_path(5)
        assert (g.n, g.m) == (5, 4)
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]

    def test_cycle(self):
        g = gen_cycle(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_complete(self):
        g = gen_complete(4)
        assert g.m == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_star(self):
        g = gen_star(5)
        assert (g.n, g.m) == (5, 4)
        assert g.degree(0) == 4
        with pytest.raises(ValueError):
            gen_star(1)

    def test_small_path_cycle_edges(self):
        assert gen_path(1).m == 0
        assert gen_cycle(3).m == 3
        with pytest.raises(ValueError):
            gen_cycle(2)

    def test_double_c4(self):
        g = gen_double_c4()
        assert (g.n, g.m) == (7, 8)
        # two 4-cycles sharing one vertex: the shared vertex has degree 4
        assert sorted(g.degree(v) for v in range(7)) == [2] * 6 + [4]
        assert is_connected(g)

    def test_glued_paths_shape(self):
        # m arms of five vertices from a shared center, p2 pendants on center
        for m, p2 in [(1, 0), (1, 1), (2, 0), (2, 3)]:
            g = gen_glued_paths(m, p2)
            assert g.n == 1 + 5 * m + p2
            assert g.m == 5 * m + p2
            assert is_connected(g)
            assert g.degree(0) == m + p2

    def test_glued_paths_one_arm_is_path(self):
        assert perm_isomorphic(gen_glued_paths(1, 0), gen_path(6))
        assert perm_isomorphic(gen_glued_paths(1, 1), gen_path(7))

    def test_glued_paths_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_glued_paths(0, 0)
        with pytest.raises(ValueError):
            gen_glued_paths(1, -1)


class TestGraph6:
    @pytest.mark.parametrize("g", [gen_path(1), gen_path(4), gen_cycle(5),
                                   gen_complete(6), gen_star(3), gen_double_c4()])
    def test_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_matches_networkx_encoding(self, corpus6):
        for g in corpus6:
            ours = to_graph6(g)
            theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert ours == theirs

    def test_decodes_networkx_encoding(self, corpus6):
        for g in corpus6:
            s = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
            assert parse_graph6(s) == g

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<C~") == gen_complete(4)

    def test_parse_errors(self):
        for bad in ["", "C", "C~~", "\x1fA"]:
            with pytest.raises(ParseError):
                parse_graph6(bad)

    def test_large_n_round_trip(self):
        g = gen_path(70)  # exercises the multi-byte size encoding
        assert parse_graph6(to_graph6(g)) == g


class TestEdgeListFormat:
    def test_round_trip(self):
        g = gen_double_c4()
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_list(f"{g.n} {g.m}\n{text}") == g

    def test_parse_errors(self):
        for bad in ["", "3", "3 1", "3 1\n0 0", "3 2\n0 1"]:
            with pytest.raises(ParseError):
                parse_edge_list(bad)


class TestPredicates:
    def test_connectivity(self, corpus6):
        for g in corpus6:
            assert is_connected(g)
            assert is_connected(g) == nx.is_connected(to_nx(g))

    def test_disconnected(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert [sorted(c) for c in components(g)] == [[0, 1], [2, 3]]

    def test_domination_predicates_match_oracle(self):
        g = gen_cycle(6)
        for size in range(4):
            for s in itertools.combinations(range(6), size):
                assert is_dominating_set(g, s) == brute_is_dominating(g, s)
                assert is_total_dominating_set(g, s) == \
                    brute_is_total_dominating(g, s)

    def test_induced_subgraph(self):
        g = gen_cycle(5)
        sub, back = induced_subgraph(g, [1, 2, 4])
        assert sub.n == 3 and sub.m == 1
        assert back == [1, 2, 4]
        u, v = sub.edges()[0]
        assert {back[u], back[v]} == {1, 2}

    def test_induced_subgraph_of_every_vertex_is_g_itself(self):
        g = gen_cycle(5)
        sub, back = induced_subgraph(g, [4, 3, 2, 1, 0, 2])
        assert sub is g
        assert back == [0, 1, 2, 3, 4]

    def test_induced_subgraph_of_all_but_one_vertex_is_a_copy(self):
        g = gen_cycle(5)
        sub, back = induced_subgraph(g, [0, 1, 2, 4])
        assert sub is not g
        assert back == [0, 1, 2, 4]
        assert sub.n == 4 and sorted(sub.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_induced_subgraph_refuses_vertices_out_of_range(self):
        # -1 would index vertex 2's row: an asymmetric subgraph
        for vertices in ([-1, 1], [0, 3]):
            with pytest.raises(PreconditionError, match="out of range"):
                induced_subgraph(gen_path(3), vertices)


class TestIsomorphism:
    def test_agrees_with_permutation_oracle(self, corpus5):
        # all pairs across the <=5-vertex corpus
        for a, b in itertools.combinations(corpus5, 2):
            assert (canonical_form(a) == canonical_form(b)) == perm_isomorphic(a, b)

    def test_canonical_form_permutation_invariant(self):
        g = gen_double_c4()
        for perm in itertools.islice(itertools.permutations(range(g.n)), 0, 2000, 171):
            relabeled = from_edge_list(
                g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            assert canonical_form(relabeled) == canonical_form(g)

    def test_canonical_form_refuses_beyond_seven_vertices(self):
        # C12 took over a minute and K10 29 s before the guard
        for g in (gen_cycle(12), gen_complete(10), gen_path(8)):
            start = time.perf_counter()
            with pytest.raises(CapacityError):
                canonical_form(g)
            assert time.perf_counter() - start < 1.0

    def test_non_isomorphic_same_degrees(self):
        # C_6 vs two triangles: same degree sequence, different graphs
        two_tri = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not perm_isomorphic(gen_cycle(6), two_tri)
        assert canonical_form(gen_cycle(6)) != canonical_form(two_tri)


class TestEnumeration:
    def test_counts_small_against_edge_subset_oracle(self):
        for n in range(1, 6):
            assert len(list(enumerate_connected_graphs(n))) == \
                count_connected_by_edge_subsets(n)

    def test_known_counts(self):
        got = [len(list(enumerate_connected_graphs(n))) for n in range(1, 7)]
        assert got == [1, 1, 2, 6, 21, 112]

    def test_seven_vertices(self):
        assert sum(1 for _ in enumerate_connected_graphs(7)) == 853

    def test_members_connected_and_distinct(self, corpus6):
        assert all(is_connected(g) for g in corpus6)
        forms = {canonical_form(g) for g in corpus6}
        assert len(forms) == len(corpus6) == 143

    def test_deterministic_order(self):
        a = [to_graph6(g) for g in enumerate_connected_graphs(5)]
        b = [to_graph6(g) for g in enumerate_connected_graphs(5)]
        assert a == b

    def test_rejects_large_n(self):
        with pytest.raises(CapacityError):
            next(enumerate_connected_graphs(8))


class TestBandwidthOrder:
    """_bandwidth_order, the order the layer cover visits the first factor in."""

    def test_a_permutation(self, corpus6):
        rng = random.Random(19)
        gs = list(corpus6) + [Graph(0, ()), from_edge_list(5, [(0, 4), (1, 2)])]
        for _ in range(100):
            n = rng.randint(1, 12)
            gs.append(from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                                         if rng.random() < 0.25]))
        for g in gs:
            assert sorted(_bandwidth_order(g)) == list(range(g.n)), g.adj

    def test_identity_on_paths(self):
        for n in range(1, 65):
            assert _bandwidth_order(gen_path(n)) == list(range(n))

    def test_cycles_have_bandwidth_two(self):
        for n in range(3, 65):
            g = gen_cycle(n)
            place = {v: i for i, v in enumerate(_bandwidth_order(g))}
            assert max(abs(place[u] - place[v]) for u, v in g.edges()) <= 2, n

    def test_breadth_first_from_a_least_degree_vertex(self):
        # the star's leaves come first from the least degree; the center
        # follows, then the other leaves
        assert _bandwidth_order(gen_star(5)) == [1, 0, 2, 3, 4]
        # each component starts again from its own least-degree vertex
        g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert _bandwidth_order(g) == [1, 0, 2, 3, 4, 5]
