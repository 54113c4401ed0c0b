import pytest

from rainbowdom import (
    Graph,
    cartesian,
    gen_complete,
    gen_cycle,
    gen_path,
    lexicographic,
    to_graph6,
)

from conftest import nbrs, perm_isomorphic


def product_edge_oracle(g, h, rule):
    """Edge set straight from the adjacency rule, for cross-checking, with
    (a, x) numbered a * |H| + x (row-major, second factor fastest)."""
    gn, hn = nbrs(g), nbrs(h)
    out = set()
    pairs = [(a, x) for a in range(g.n) for x in range(h.n)]
    for a, x in pairs:
        for b, y in pairs:
            if (a, x) < (b, y) and rule(a, x, b, y, gn, hn):
                out.add((a * h.n + x, b * h.n + y))
    return out


def lex_rule(a, x, b, y, gn, hn):
    return b in gn[a] or (a == b and y in hn[x])


def cart_rule(a, x, b, y, gn, hn):
    return (a == b and y in hn[x]) or (x == y and b in gn[a])


SMALL = [gen_path(1), gen_path(2), gen_path(4), gen_cycle(3), gen_cycle(5),
         gen_complete(4)]


class TestLexicographic:
    @pytest.mark.parametrize("gi", range(len(SMALL)))
    @pytest.mark.parametrize("hi", range(len(SMALL)))
    def test_matches_definition(self, gi, hi):
        g, h = SMALL[gi], SMALL[hi]
        prod = lexicographic(g, h)
        assert prod.n == g.n * h.n
        got = {tuple(sorted(e)) for e in prod.edges()}
        assert got == product_edge_oracle(g, h, lex_rule)

    def test_not_commutative(self):
        # |E(G o H)| = |E(G)| |V(H)|^2 + |V(G)| |E(H)|
        p = lexicographic(gen_path(2), gen_path(3))
        q = lexicographic(gen_path(3), gen_path(2))
        assert p.m == 13 and q.m == 11
        assert not perm_isomorphic(p, q)

    def test_plain_graph(self):
        # a product is a Graph alone; its vertex (a, x) is a * |H| + x
        prod = lexicographic(gen_path(3), gen_cycle(4))
        assert isinstance(prod, Graph) and prod.n == 12
        assert prod.has_edge(1 * 4 + 0, 2 * 4 + 2) and not prod.has_edge(0 * 4 + 0, 2 * 4 + 0)

    def test_k2_lex_k2_is_k4(self):
        prod = lexicographic(gen_path(2), gen_path(2))
        assert to_graph6(prod) == "C~"


class TestCartesian:
    @pytest.mark.parametrize("gi", range(len(SMALL)))
    @pytest.mark.parametrize("hi", range(len(SMALL)))
    def test_matches_definition(self, gi, hi):
        g, h = SMALL[gi], SMALL[hi]
        prod = cartesian(g, h)
        got = {tuple(sorted(e)) for e in prod.edges()}
        assert got == product_edge_oracle(g, h, cart_rule)

    def test_k2_box_k2_is_c4(self):
        prod = cartesian(gen_path(2), gen_path(2))
        assert perm_isomorphic(prod, gen_cycle(4))

    def test_commutative_up_to_iso(self):
        # (a, x) -> (x, a) maps every edge of P3 x C3 onto one of C3 x P3
        g, h = gen_path(3), gen_cycle(3)
        p = cartesian(g, h)
        q = cartesian(h, g)
        swap = [(v % h.n) * g.n + v // h.n for v in range(p.n)]
        assert sorted(swap) == list(range(q.n))
        assert {frozenset((swap[u], swap[v])) for u, v in p.edges()} == \
            {frozenset(e) for e in q.edges()}


class TestLayers:
    def test_lex_layer_is_copy_of_h(self):
        g, h = gen_path(3), gen_cycle(5)
        prod = lexicographic(g, h)
        layer = list(range(h.n, 2 * h.n))  # the layer {1} x V(h), row-major
        hn = nbrs(h)
        for x in range(h.n):
            for y in range(x + 1, h.n):
                assert (y in hn[x]) == prod.has_edge(layer[x], layer[y])
