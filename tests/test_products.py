import pytest

from rainbowdom import (
    ProductIndex,
    cartesian,
    gen_complete,
    gen_cycle,
    gen_path,
    is_isomorphic,
    lexicographic,
    project_g,
    to_graph6,
)

from conftest import nbrs


class TestProductIndex:
    def test_round_trip(self):
        idx = ProductIndex(3, 4)
        seen = set()
        for a in range(3):
            for x in range(4):
                e = idx.encode(a, x)
                assert idx.decode(e) == (a, x)
                seen.add(e)
        assert seen == set(range(12))

    def test_row_major_order(self):
        # second factor varies fastest
        idx = ProductIndex(2, 3)
        assert [idx.encode(a, x) for a in range(2) for x in range(3)] == list(range(6))

    def test_out_of_range(self):
        idx = ProductIndex(2, 2)
        with pytest.raises(ValueError):
            idx.encode(2, 0)
        with pytest.raises(ValueError):
            idx.decode(4)


def product_edge_oracle(g, h, rule):
    """Edge set straight from the adjacency rule, for cross-checking."""
    idx = ProductIndex(g.n, h.n)
    gn, hn = nbrs(g), nbrs(h)
    out = set()
    pairs = [(a, x) for a in range(g.n) for x in range(h.n)]
    for a, x in pairs:
        for b, y in pairs:
            if (a, x) < (b, y) and rule(a, x, b, y, gn, hn):
                out.add((idx.encode(a, x), idx.encode(b, y)))
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
        prod, idx = lexicographic(g, h)
        assert prod.n == g.n * h.n
        got = {tuple(sorted(e)) for e in prod.edges()}
        assert got == product_edge_oracle(g, h, lex_rule)

    def test_not_commutative(self):
        # |E(G o H)| = |E(G)| |V(H)|^2 + |V(G)| |E(H)|
        p, _ = lexicographic(gen_path(2), gen_path(3))
        q, _ = lexicographic(gen_path(3), gen_path(2))
        assert p.m == 13 and q.m == 11
        assert not is_isomorphic(p, q)

    def test_k2_lex_k2_is_k4(self):
        prod, _ = lexicographic(gen_path(2), gen_path(2))
        assert to_graph6(prod) == "C~"


class TestCartesian:
    @pytest.mark.parametrize("gi", range(len(SMALL)))
    @pytest.mark.parametrize("hi", range(len(SMALL)))
    def test_matches_definition(self, gi, hi):
        g, h = SMALL[gi], SMALL[hi]
        prod, idx = cartesian(g, h)
        got = {tuple(sorted(e)) for e in prod.edges()}
        assert got == product_edge_oracle(g, h, cart_rule)

    def test_k2_box_k2_is_c4(self):
        prod, _ = cartesian(gen_path(2), gen_path(2))
        assert is_isomorphic(prod, gen_cycle(4))

    def test_commutative_up_to_iso(self):
        # (a, x) -> (x, a) maps every edge of P3 x C3 onto one of C3 x P3
        g, h = gen_path(3), gen_cycle(3)
        p, pidx = cartesian(g, h)
        q, qidx = cartesian(h, g)
        swap = [qidx.encode(*reversed(pidx.decode(v))) for v in range(p.n)]
        assert sorted(swap) == list(range(q.n))
        assert {frozenset((swap[u], swap[v])) for u, v in p.edges()} == \
            {frozenset(e) for e in q.edges()}


class TestLayers:
    def test_projections(self):
        idx = ProductIndex(3, 4)
        verts = [idx.encode(0, 1), idx.encode(2, 1), idx.encode(2, 3)]
        assert project_g(idx, verts) == {0, 2}

    def test_lex_layer_is_copy_of_h(self):
        g, h = gen_path(3), gen_cycle(5)
        prod, idx = lexicographic(g, h)
        layer = [idx.encode(1, x) for x in range(h.n)]
        hn = nbrs(h)
        for x in range(h.n):
            for y in range(x + 1, h.n):
                assert (y in hn[x]) == prod.has_edge(layer[x], layer[y])
