import pytest

from rainbowdom import (
    PreconditionError,
    from_edge_list,
    gen_cycle,
    gen_glued_paths,
    gen_path,
    gen_star,
    glued_family_labeling,
    is_k_rainbow_dominating,
    lexicographic,
    min_dominating_set,
    path_pattern_labeling,
    path_upper_bound,
    total_dom_labeling,
    universal_vertex_labeling,
)
from rainbowdom.constructions import _TILES

from conftest import brute_min_total_dominating

# the one message of an h without a pair witness
NO_PAIR = (r"^h has no pair witness: it needs a vertex of degree \|V\(h\)\| - 2 "
           "and 2-rainbow number 3$")


class TestTiles:
    def test_frozen_patterns(self):
        assert _TILES == {
            2: ("30", "10"),
            3: ("030", "010"),
            4: ("0330", "0000"),
            5: ("02120", "01010"),
            6: ("030030", "010010"),
            7: ("0210210", "0100020"),
            8: ("02102130", "01000200"),
        }

    def test_weights_match_bound(self):
        for length, rows in _TILES.items():
            assert all(len(row) == length for row in rows)
            assert sum(int(c).bit_count() for row in rows for c in row) == \
                path_upper_bound(length)


class TestPathUpperBound:
    def test_frozen_values(self):
        expect = {2: 3, 3: 3, 4: 4, 5: 5, 6: 6, 7: 6, 8: 8, 9: 9, 10: 9,
                  11: 10, 12: 11, 13: 12, 14: 12, 15: 14, 16: 15, 21: 18}
        for n, w in expect.items():
            assert path_upper_bound(n) == w

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            path_upper_bound(1)

    def test_asymptotic_slope(self):
        # six per seven columns
        for n in range(14, 100, 7):
            assert path_upper_bound(n) == 6 * n // 7


class TestPathPatternLabeling:
    @pytest.mark.parametrize("n", list(range(2, 26)))
    def test_valid_and_tight_on_p4(self, n):
        h = gen_path(4)
        f = path_pattern_labeling(n, h)
        assert f.weight == path_upper_bound(n)
        prod = lexicographic(gen_path(n), h)
        assert is_k_rainbow_dominating(prod, f)

    @pytest.mark.parametrize("n", [2, 5, 7, 9, 13, 17, 23])
    def test_valid_on_nonadjacent_witness(self, n, spider):
        f = path_pattern_labeling(n, spider)
        assert {p % spider.n for p, m in enumerate(f.masks) if m} == {0, 4}
        assert f.weight == path_upper_bound(n)
        prod = lexicographic(gen_path(n), spider)
        assert is_k_rainbow_dominating(prod, f)

    def test_only_witness_rows_labeled(self):
        h = gen_path(4)
        f = path_pattern_labeling(9, h)
        for p, m in enumerate(f.masks):
            if m:
                assert p % h.n in (1, 3)

    def test_rejects_wrong_rainbow_number(self):
        # every vertex of C_4 has degree 2 = |V| - 2, but its 2-rainbow number is 2
        with pytest.raises(PreconditionError, match=NO_PAIR):
            path_pattern_labeling(5, gen_cycle(4))

    def test_rejects_no_pair_graph(self):
        with pytest.raises(PreconditionError, match=NO_PAIR):
            path_pattern_labeling(5, gen_path(5))

    def test_rejects_short_path(self):
        with pytest.raises(ValueError):
            path_pattern_labeling(1, gen_path(4))

    def test_rejects_disconnected_h(self):
        h = from_edge_list(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError, match=NO_PAIR):
            path_pattern_labeling(5, h)

    def test_valid_on_disconnected_h_with_a_pair_witness(self):
        # P3 + K1: vertex 1 sees all but 3, the pair witness (1, 3)
        h = from_edge_list(4, [(0, 1), (1, 2)])
        for n in range(2, 30):
            f = path_pattern_labeling(n, h)
            assert {p % h.n for p, m in enumerate(f.masks) if m} <= {1, 3}
            assert f.weight == path_upper_bound(n)
            assert is_k_rainbow_dominating(lexicographic(gen_path(n), h), f), n


class TestTotalDomLabeling:
    def test_weight_and_validity(self):
        g, h = gen_path(7), gen_cycle(5)
        f = total_dom_labeling(g, h, 2)
        assert f.weight == 2 * brute_min_total_dominating(g)
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)

    def test_k3(self):
        g, h = gen_cycle(6), gen_path(3)
        f = total_dom_labeling(g, h, 3)
        assert f.weight == 3 * brute_min_total_dominating(g)
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)

    def test_labels_sit_on_layer_zero(self):
        g, h = gen_path(4), gen_cycle(4)
        f = total_dom_labeling(g, h, 2)
        for p, m in enumerate(f.masks):
            if m:
                assert p % h.n == 0
                assert m == 3

    def test_isolated_vertex_rejected(self):
        g = from_edge_list(3, [(0, 1)])
        with pytest.raises(PreconditionError,
                           match="^isolated vertex 2 admits no total domination$"):
            total_dom_labeling(g, gen_path(3), 2)


class TestUniversalVertexLabeling:
    def test_weight_and_validity(self):
        g, h = gen_path(7), gen_star(4)
        f = universal_vertex_labeling(g, h, 2)
        assert f.weight == 2 * min_dominating_set(g).value == 6
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)

    def test_single_vertex_h(self):
        g, h = gen_path(3), gen_path(1)
        f = universal_vertex_labeling(g, h, 2)
        assert f.weight == 2
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_masks_full_set_on_universal_vertex(self, k):
        # the full set on (d, hstar) for d in the minimum dominating set and
        # the first universal vertex hstar of h, nothing else; K1 included,
        # where the full set weighs k although rd_k(K1) = 1
        star_at_2 = from_edge_list(4, [(2, 0), (2, 1), (2, 3)])
        for h, hstar in ((gen_path(1), 0), (gen_star(4), 0), (star_at_2, 2), (gen_path(3), 1)):
            for g in (gen_path(1), gen_path(7), gen_cycle(6), gen_star(5)):
                f = universal_vertex_labeling(g, h, k)
                dom = min_dominating_set(g).witness
                assert f.masks == tuple((1 << k) - 1 if a in dom and x == hstar else 0
                                        for a in range(g.n) for x in range(h.n))

    def test_no_universal_vertex(self):
        with pytest.raises(PreconditionError,
                           match="^h has no vertex adjacent to all others$"):
            universal_vertex_labeling(gen_path(3), gen_cycle(5), 2)


class TestGluedFamilyLabeling:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p2", [0, 1, 2])
    def test_valid_with_frozen_weight(self, m, p2):
        h = gen_path(4)
        f = glued_family_labeling(m, p2, h)
        assert f.weight == 4 * m + 2
        prod = lexicographic(gen_glued_paths(m, p2), h)
        assert is_k_rainbow_dominating(prod, f)

    def test_valid_on_nonadjacent_witness(self, spider):
        f = glued_family_labeling(2, 1, spider)
        assert f.weight == 10
        prod = lexicographic(gen_glued_paths(2, 1), spider)
        assert is_k_rainbow_dominating(prod, f)

    def test_pendant_layers_empty(self):
        h = gen_path(4)
        m, p2 = 2, 3
        f = glued_family_labeling(m, p2, h)
        idx_nh = h.n
        for pend in range(1 + 5 * m, 1 + 5 * m + p2):
            assert all(f.masks[pend * idx_nh + x] == 0 for x in range(h.n))

    def test_center_column(self):
        h = gen_path(4)
        f = glued_family_labeling(1, 0, h)
        assert f.masks[1] == 1  # u-row at the center carries {1}
        assert f.masks[3] == 2  # v-row at the center carries {2}

    def test_bad_witness_rejected(self):
        with pytest.raises(PreconditionError, match=NO_PAIR):
            glued_family_labeling(1, 0, gen_path(5))

    def test_bad_family_args(self):
        with pytest.raises(ValueError):
            glued_family_labeling(0, 0, gen_path(4))


class TestLayerAccounting:
    def test_glued_center_weight(self):
        # layer bookkeeping: the center column weighs 2, each arm 4
        h = gen_path(4)
        m = 3
        f = glued_family_labeling(m, 0, h)

        def layer_weight(a):
            return sum(x.bit_count() for x in f.masks[a * h.n:(a + 1) * h.n])

        assert layer_weight(0) == 2
        for arm in range(m):
            assert sum(layer_weight(1 + 5 * arm + j) for j in range(5)) == 4
