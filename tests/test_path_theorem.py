"""The paper's cases for every second factor, and the open case on paths
and cycles, checked as the README proves them.

Proposition 3: every h on n >= 2 vertices, connected or not, has the
layer-cost table |C| at R = {1,2}, gamma(h) at one color with R the other,
sigma(h) in {gamma, gamma + 1} at both colors with R one, rd_2(h) at R empty,
and n on the four dominated entries, which lie at or above the entry of
{1,2} with the same R. Once those are dropped, the table is at least that of
K2; at least that of C5 (RdH3NoPair) or C6 (RdH4Plus); and equal to that of
P4 for every RdH3Pair h (Proposition 2), so rd_2(g o h) = rd_2(g o P4) for
every g. Theorem: with that table, the
min-plus transfer matrix M of a path satisfies M^14 = M^7 + 6, so
rd_2(P_n o h) = path_upper_bound(n) for n >= 2 and rd_2(C_n o h) =
path_upper_bound(n) for n >= 3. The layer costs come from
conftest.brute_layer_costs, which lists every labeling of h, not from the
cover engine; certify uses the theorem without building M.
"""

from __future__ import annotations

import itertools

import functools

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

from conftest import brute_layer_costs, brute_min_dominating, enumerate_graphs

# color sets as masks: color c is bit c - 1, so 3 is {1,2}
COLORS = range(4)


def rdh3pair(sizes) -> list:
    return [h for n in sizes for h in enumerate_graphs(n) if classify_h(h).tag == "RdH3Pair"]


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


@functools.cache
def every_h() -> list:
    """(h, its tag, its full table) for every graph on 2 to 6 vertices,
    connected or not."""
    return [(h, classify_h(h).tag, brute_layer_costs(h))
            for n in range(2, 7) for h in enumerate_graphs(n)]


def test_every_rdh3pair_h_has_the_table_of_p4():
    hs = [(h, table) for h, tag, table in every_h() if tag == "RdH3Pair"]
    # 49 connected on 4 to 6 vertices, and a graph with a universal vertex
    # plus K1 on 3 to 6: K2 + K1, P3 + K1, ...
    assert len(hs) == 67 and sum(h.n == 3 for h, _ in hs) == 1
    for h, table in hs:
        assert reduced(table) == P4_TABLE, h.adj


def test_every_h_table_is_at_least_that_of_its_case_graph():
    # Proposition 3, by the tables that every labeling of h gives
    bounds = {tag: reduced(brute_layer_costs(g)) for tag, g in (
        ("RdH2", gen_path(2)), ("RdH3NoPair", gen_cycle(5)), ("RdH4Plus", gen_cycle(6)))}
    assert bounds["RdH3NoPair"] == {**P4_TABLE, (3, 1): 3, (3, 2): 3}
    assert bounds["RdH4Plus"] == {**bounds["RdH3NoPair"], (3, 0): 4}
    tags = {}
    for h, tag, table in every_h():
        tags[tag] = tags.get(tag, 0) + 1
        n, gamma = h.n, brute_min_dominating(h)
        sigma = table[(3, 1)]
        assert table == {**{(c, r): n for c in (1, 2) for r in range(4) if not r & (3 - c)},
                         (1, 3): 1, (2, 3): 1, (3, 3): 2, (1, 2): gamma, (2, 1): gamma,
                         (3, 1): sigma, (3, 2): sigma, (3, 0): classify_h(h).rd2}, h.adj
        assert sigma in (gamma, gamma + 1)
        assert (sigma == 2) == (gamma == 1 or any(h.degree(v) == n - 2 for v in range(n)))
        # the dominated entries lie at or above the {1,2} entry of their R
        assert all(n >= table[(3, r)] for r in range(4))
        for case_tag in {"RdH2", tag} & bounds.keys():
            assert all(w >= bounds[case_tag][key] for key, w in reduced(table).items()), h.adj
    # of them disconnected: 2K1; 3K1, C4 + K1 and two more; 18; 42
    assert tags == {"RdH2": 63, "RdH3NoPair": 18, "RdH3Pair": 67, "RdH4Plus": 59}


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
    # 7 connected, and K2 + K1, P3 + K1, K3 + K1 and four on 5 vertices
    hs = rdh3pair(range(3, 6))
    assert len(hs) == 14
    for g in itertools.chain.from_iterable(enumerate_connected_graphs(n) for n in range(1, 5)):
        values = {min_rainbow(lexicographic(g, h), 2).value for h in hs}
        assert len(values) == 1, g.adj
