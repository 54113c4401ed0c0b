"""Lexicographic and Cartesian graph products.

A product of g and h is a plain Graph on g.n * h.n vertices in row-major
order: the vertex (a, x), a in V(g) and x in V(h), is a * h.n + x, so the
layer {a} x V(h) is the slice [a * h.n, (a + 1) * h.n). Every labeling of a
product in this package uses the same order. Both factors are Graphs, so
checked already, and the product's rows are symmetric and loop-free by
construction: they skip Graph's re-check (graphs._from_rows).
"""

from __future__ import annotations

from .graphs import Graph, _from_rows, iter_bits


def lexicographic(g: Graph, h: Graph) -> Graph:
    """G o H: (g1,h1) ~ (g2,h2) iff g1 g2 is an edge of G, or g1 = g2 and
    h1 h2 is an edge of H."""
    nh = h.n
    block = (1 << nh) - 1
    # all-of-layer masks per G-vertex, then one union per G-row
    g_row_union = []
    for a in range(g.n):
        m = 0
        for b in iter_bits(g.adj[a]):
            m |= block << (b * nh)
        g_row_union.append(m)
    rows = []
    for a in range(g.n):
        shift = a * nh
        cross = g_row_union[a]
        for x in range(nh):
            rows.append(cross | (h.adj[x] << shift))
    return _from_rows(g.n * nh, tuple(rows))


def cartesian(g: Graph, h: Graph) -> Graph:
    """G x H (box product): equal in one coordinate, adjacent in the other."""
    nh = h.n
    rows = []
    for a in range(g.n):
        shift = a * nh
        spread = 0  # vertex (b, 0) of each neighbor b of a
        for b in iter_bits(g.adj[a]):
            spread |= 1 << (b * nh)
        for x in range(nh):
            rows.append(h.adj[x] << shift | spread << x)
    return _from_rows(g.n * nh, tuple(rows))
