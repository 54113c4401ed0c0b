import itertools
import random

import pytest

from rainbowdom import (
    BudgetError,
    DominatingCouple,
    PreconditionError,
    couple_labeling,
    from_edge_list,
    gen_cycle,
    gen_path,
    gen_star,
    is_dominating_set,
    is_k_rainbow_dominating,
    is_total_dominating_set,
    lexicographic,
    min_couple_cost,
    min_rainbow,
)

from rainbowdom.couples import _is_dominating_couple, _two_packing
from rainbowdom.solvers import _undominated

from conftest import brute_is_couple, brute_min_couple_cost


def is_dominating_couple(g, a, b) -> bool:
    return _is_dominating_couple(g, DominatingCouple(frozenset(a), frozenset(b)))


class TestDominatingCouple:
    def test_cost(self):
        c = DominatingCouple(frozenset({1, 2}), frozenset({5}))
        assert c.cost(2, 3) == 7
        assert c.cost(1, 1) == 3

    def test_rejects_overlap(self):
        with pytest.raises(PreconditionError, match=r"^sets share vertices \[1\]$"):
            DominatingCouple(frozenset({1}), frozenset({1, 2}))


class TestIsDominatingCouple:
    def test_agrees_with_oracle(self, corpus5):
        import itertools
        for g in corpus5:
            if g.n > 4:
                continue
            verts = range(g.n)
            for na in range(g.n + 1):
                for a in itertools.combinations(verts, na):
                    rest = [v for v in verts if v not in a]
                    for nb in range(len(rest) + 1):
                        for b in itertools.combinations(rest, nb):
                            assert is_dominating_couple(g, frozenset(a), frozenset(b)) \
                                == brute_is_couple(g, a, b)

    def test_degenerate_cases(self):
        g = gen_path(4)
        # (A, empty) iff A total dominating; (empty, B) iff B dominating
        assert is_dominating_couple(g, frozenset({1, 2}), frozenset())
        assert is_total_dominating_set(g, {1, 2})
        assert not is_dominating_couple(g, frozenset({1, 3}), frozenset())
        assert not is_total_dominating_set(g, {1, 3})
        assert is_dominating_couple(g, frozenset(), frozenset({1, 3}))
        assert is_dominating_set(g, {1, 3})

    def test_whole_vertex_set_as_b(self):
        g = gen_path(3)
        assert is_dominating_couple(g, frozenset(), frozenset(range(3)))

    def test_range_and_overlap_errors(self):
        g = gen_path(3)
        with pytest.raises(ValueError, match="^vertex 5 out of range$"):
            is_dominating_couple(g, {5}, set())
        with pytest.raises(ValueError, match="^vertex 5 out of range$"):
            is_dominating_couple(g, set(), {5})
        with pytest.raises(PreconditionError, match=r"^sets share vertices \[0\]$"):
            is_dominating_couple(g, {0}, {0})


class TestMinCoupleCost:
    def test_agrees_with_oracle(self, corpus5):
        for g in corpus5:
            for ca, cb in [(2, 3), (1, 1), (1, 2)]:
                value, couple = min_couple_cost(g, ca, cb)
                assert value == brute_min_couple_cost(g, ca, cb)
                assert is_dominating_couple(g, couple.a, couple.b)
                assert couple.cost(ca, cb) == value

    def test_frozen_optima(self):
        value, couple = min_couple_cost(gen_path(7), 2, 3)
        assert value == 7
        assert (couple.a, couple.b) == (frozenset({4, 5}), frozenset({1}))
        value, couple = min_couple_cost(gen_path(4), 2, 3)
        assert value == 4
        assert (couple.a, couple.b) == (frozenset({1, 2}), frozenset())
        value, couple = min_couple_cost(gen_path(2), 2, 3)
        assert value == 3
        assert (couple.a, couple.b) == (frozenset(), frozenset({0}))

    def test_isolated_vertices_allowed(self):
        # K_1 has no total dominating set but (empty, {0}) still works
        g = gen_path(1)
        value, couple = min_couple_cost(g, 2, 3)
        assert value == 3
        assert couple == DominatingCouple(frozenset(), frozenset({0}))

    def test_bad_costs(self):
        with pytest.raises(ValueError):
            min_couple_cost(gen_path(3), 0, 3)


class TestCoupleLabeling:
    def test_weight_and_validity(self):
        # costs (2, 3) model a second factor with 2-rainbow number 3
        from rainbowdom import gen_double_c4
        g, h = gen_path(7), gen_double_c4()
        value, couple = min_couple_cost(g, 2, 3)
        f = couple_labeling(g, h, 2, couple)
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)
        assert f.weight == 2 * len(couple.a) + 3 * len(couple.b) == 7

    def test_pure_b_couple(self):
        g, h = gen_path(2), gen_path(4)
        f = couple_labeling(g, h, 2, DominatingCouple(frozenset(), frozenset({0})))
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)
        assert f.weight == 3  # 2-rainbow number of P_4

    def test_pure_a_couple(self):
        g, h = gen_path(4), gen_path(5)
        f = couple_labeling(g, h, 2, DominatingCouple(frozenset({1, 2}), frozenset()))
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)
        assert f.weight == 4

    def test_k3(self):
        g, h = gen_path(4), gen_star(4)
        value, couple = min_couple_cost(g, 3, 4)
        f = couple_labeling(g, h, 3, couple)
        prod = lexicographic(g, h)
        assert is_k_rainbow_dominating(prod, f)

    def test_h_too_small(self):
        with pytest.raises(PreconditionError,
                           match="^second factor needs at least 3 vertices, has 2$"):
            couple_labeling(gen_path(3), gen_path(2), 3,
                            DominatingCouple(frozenset({1}), frozenset()))

    def test_invalid_couple_rejected(self):
        g, h = gen_path(4), gen_cycle(4)
        with pytest.raises(PreconditionError,
                           match=r"^\(A, B\) is not a dominating couple of g$"):
            couple_labeling(g, h, 2, DominatingCouple(frozenset({1}), frozenset()))

    def test_b_layer_copy_uses_every_color(self):
        # the copied labeling inside a B-layer must carry all k colors, or
        # the empty layers above non-B vertices would go unserved
        g = gen_path(2)
        # P4 numbered 0-3-2-1: its minimum 4-rainbow labeling found first is
        # {1} everywhere, so the copy has to be recolored (the one such case
        # among all connected graphs up to 7 vertices and k in {2, 3, 4})
        p4 = from_edge_list(4, [(0, 3), (1, 2), (2, 3)])
        assert min_rainbow(p4, 4).witness.masks == (1, 1, 1, 1)
        for h, k in [(gen_cycle(4), 2), (p4, 4)]:
            f = couple_labeling(g, h, k, DominatingCouple(frozenset(), frozenset({0})))
            used = 0
            for m in f.masks:
                used |= m
            assert used == (1 << k) - 1
            assert f.weight == min_rainbow(h, k).value
            prod = lexicographic(g, h)
            assert is_k_rainbow_dominating(prod, f)


class TestCoupleCoverSearch:
    """The couple optimum as one weighted cover search."""

    def test_agrees_with_oracle_corpus6(self, corpus6):
        for g in corpus6:
            for ca, cb in [(2, 3), (2, 2), (2, 4), (1, 3), (3, 2)]:
                value, couple = min_couple_cost(g, ca, cb)
                assert value == brute_min_couple_cost(g, ca, cb), (g, ca, cb)
                assert is_dominating_couple(g, couple.a, couple.b)
                assert couple.cost(ca, cb) == value

    def test_packing_bound_agrees_with_oracle(self):
        # the search starts at min(cost_a, cost_b) times a greedy 2-packing,
        # which must be a 2-packing and never pass the optimum; disconnected
        # g and isolated vertices included, costs from 1 to 4
        rng = random.Random(1961)
        for _ in range(40):
            n = rng.randint(1, 9)
            g = from_edge_list(n, [e for e in itertools.combinations(range(n), 2)
                                   if rng.random() < 0.3])
            packing = _two_packing(g)
            for u, v in itertools.combinations(packing, 2):
                assert not g.closed(u) & g.closed(v), (g.adj, packing)
            for ca, cb in [(2, 3), (3, 2), (1, 1), (2, 4), (1, 4), (4, 1)]:
                value, couple = min_couple_cost(g, ca, cb)
                assert value == brute_min_couple_cost(g, ca, cb), (g.adj, ca, cb)
                assert min(ca, cb) * len(packing) <= value
                assert is_dominating_couple(g, couple.a, couple.b)
                assert couple.cost(ca, cb) == value

    def test_no_search_when_the_greedy_cover_meets_the_packing(self):
        # P3 + K1: {N[1], N[3]} is the greedy cover and 2 * |{0, 3}| its cost
        g = from_edge_list(4, [(0, 1), (1, 2)])
        assert _two_packing(g) == [3, 0]
        assert min_couple_cost(g, 2, 2, node_budget=0)[0] == 4

    def test_undominated_keeps_the_first_of_equal_sets(self):
        # set 2 equals set 0 at the same cost; set 3 lies in set 0 at no higher cost
        assert _undominated([0b11, 0b01, 0b11, 0b10], [2, 1, 2, 3]) == [0, 1]
        # a cheaper subset stays, and of equal sets the cheaper one
        assert _undominated([0b01, 0b11, 0b01], [1, 2, 3]) == [0, 1]

    @pytest.mark.parametrize("gen", [gen_path, gen_cycle])
    def test_64_vertices_within_small_budget(self, gen):
        g = gen(64)
        value, couple = min_couple_cost(g, 2, 3, node_budget=10_000)
        assert is_dominating_couple(g, couple.a, couple.b)
        assert couple.cost(2, 3) == value

    def test_one_budget_for_the_whole_search(self):
        # the couple search on P64 needs a few dozen nodes, all counted
        # against the caller's node_budget
        with pytest.raises(BudgetError):
            min_couple_cost(gen_path(64), 2, 3, node_budget=5)
