"""The open case on paths and cycles, checked as the README proves it.

Proposition 2: every connected h with rd_2(h) = 3 and a pair witness (case
RdH3Pair) has the layer-cost table of P4 once dominated entries are dropped,
so rd_2(g o h) = rd_2(g o P4) for every g. Theorem: with that table, the
min-plus transfer matrix M of a path satisfies M^14 = M^7 + 6, so
rd_2(P_n o h) = path_upper_bound(n) for n >= 2 and rd_2(C_n o h) =
path_upper_bound(n) for n >= 3. The layer costs come from
conftest.brute_layer_costs, which lists every labeling of h, not from the
cover engine; certify uses the theorem without building M.
"""

from __future__ import annotations

import itertools

from rainbowdom import (
    classify_h,
    enumerate_connected_graphs,
    gen_cycle,
    gen_path,
    lexicographic,
    min_rainbow,
    path_upper_bound,
)
from rainbowdom.solvers import _min_rainbow_lex

from conftest import brute_layer_costs

# color sets as masks: color c is bit c - 1, so 3 is {1,2}
COLORS = range(4)


def rdh3pair(sizes) -> list:
    return [h for n in sizes for h in enumerate_connected_graphs(n)
            if classify_h(h).tag == "RdH3Pair"]


def reduced(table: dict) -> dict:
    """The table without its dominated entries: one color C = {c} with R
    missing the other color. No vertex may then be empty, and the entry's set
    lies inside that of C = {1,2} with the same R."""
    return {(c, r): w for (c, r), w in table.items() if c == 3 or r & (3 - c)}


def transfer_matrix(table: dict) -> list[list[int | None]]:
    """M[(x, y), (y, z)] = cost(y, x | z) on the states (C(a-1), C(a)), row
    4x + y; an empty layer costs 0 when x | z holds both colors, and None
    marks a forbidden step."""
    def cost(c: int, r: int) -> int | None:
        if c == 0:
            return 0 if r == 3 else None
        return table.get((c, r))

    return [[cost(y, x | z) if y == y2 else None for y2 in COLORS for z in COLORS]
            for x in COLORS for y in COLORS]


def minplus(a, b):
    out = []
    for row in a:
        out.append([min((p + q for p, q in zip(row, col) if p is not None and q is not None),
                        default=None) for col in zip(*b)])
    return out


def powers(m, top: int) -> list:
    """[M^1, ..., M^top]."""
    out = [m]
    while len(out) < top:
        out.append(minplus(out[-1], m))
    return out


def path_value(mn) -> int:
    # n steps from (empty, C(1)) to (C(n), empty)
    return min(w for c1 in COLORS for cn in COLORS if (w := mn[c1][4 * cn]) is not None)


def cycle_value(mn) -> int:
    return min(w for i, row in enumerate(mn) if (w := row[i]) is not None)


P4_TABLE = reduced(brute_layer_costs(gen_path(4)))


def test_every_rdh3pair_h_has_the_table_of_p4():
    hs = rdh3pair(range(4, 7))
    assert len(hs) == 49
    for h in hs:
        table = brute_layer_costs(h)
        assert reduced(table) == P4_TABLE, h.adj
        for (c, r), w in table.items():
            if (c, r) not in P4_TABLE:
                # dominated: inside the {1,2} entry of the same R, at no less cost
                assert table[(3, r)] <= 3 <= w, (h.adj, c, r)


def test_the_table_of_p4():
    # the entries the proof in the README derives from the pair witness
    assert P4_TABLE == {
        (1, 3): 1, (2, 3): 1, (3, 3): 2,  # R = {1,2}: one vertex per color
        (1, 2): 2, (2, 1): 2,  # one color, R the other: gamma(h) = 2
        (3, 1): 2, (3, 2): 2,  # both colors, R one: the pair's two vertices
        (3, 0): 3,  # both colors, R empty: rd_2(h) = 3
    }


def test_transfer_matrix_is_periodic():
    m = powers(transfer_matrix(P4_TABLE), 14)
    m7, m14 = m[6], m[13]
    assert all(p is not None for row in m7 for p in row)
    assert m14 == [[p + 6 for p in row] for row in m7]
    # hence M^(n+7) = M^n + 6 for n >= 7, and path_upper_bound grows alike
    assert all(path_upper_bound(n + 7) == path_upper_bound(n) + 6 for n in range(7, 100))
    # so these n settle every longer path and cycle
    for n in range(2, 15):
        assert path_value(m[n - 1]) == path_upper_bound(n), n
    for n in range(3, 15):
        assert cycle_value(m[n - 1]) == path_upper_bound(n), n


def test_matrix_agrees_with_the_layer_cover():
    m = powers(transfer_matrix(P4_TABLE), 12)
    h = gen_path(4)
    for n in range(3, 13):
        assert cycle_value(m[n - 1]) == _min_rainbow_lex(gen_cycle(n), h).value, n
    for n in range(2, 13):
        assert path_value(m[n - 1]) == _min_rainbow_lex(gen_path(n), h).value, n


def test_value_does_not_depend_on_h():
    # the direct search, which does not use the cover engine
    hs = rdh3pair(range(4, 6))
    assert len(hs) == 7
    for g in itertools.chain.from_iterable(enumerate_connected_graphs(n) for n in range(1, 5)):
        values = {min_rainbow(lexicographic(g, h), 2).value for h in hs}
        assert len(values) == 1, g.adj
