"""Lexicographic and Cartesian graph products with a shared row-major index."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import Graph, iter_bits


@dataclass(frozen=True)
class ProductIndex:
    """Row-major vertex numbering of a product: (g, h) maps to g*nh + h."""

    ng: int
    nh: int

    @property
    def size(self) -> int:
        return self.ng * self.nh

    def encode(self, g: int, h: int) -> int:
        if not (0 <= g < self.ng and 0 <= h < self.nh):
            raise PreconditionError(f"pair ({g}, {h}) out of range")
        return g * self.nh + h

    def decode(self, v: int) -> tuple[int, int]:
        if not (0 <= v < self.size):
            raise PreconditionError(f"product vertex {v} out of range")
        return divmod(v, self.nh)


def lexicographic(g: Graph, h: Graph) -> tuple[Graph, ProductIndex]:
    """G o H: (g1,h1) ~ (g2,h2) iff g1 g2 is an edge of G, or g1 = g2 and
    h1 h2 is an edge of H."""
    idx = ProductIndex(g.n, h.n)
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
    return Graph(idx.size, tuple(rows)), idx


def cartesian(g: Graph, h: Graph) -> tuple[Graph, ProductIndex]:
    """G x H (box product): equal in one coordinate, adjacent in the other."""
    idx = ProductIndex(g.n, h.n)
    nh = h.n
    rows = []
    for a in range(g.n):
        shift = a * nh
        for x in range(nh):
            m = h.adj[x] << shift
            for b in iter_bits(g.adj[a]):
                m |= 1 << (b * nh + x)
            rows.append(m)
    return Graph(idx.size, tuple(rows)), idx


def project_g(idx: ProductIndex, vertices) -> frozenset[int]:
    return frozenset(idx.decode(v)[0] for v in vertices)
