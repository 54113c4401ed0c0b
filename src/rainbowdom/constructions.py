"""Explicit product labelings with provable weights.

Four constructions for labelings of the lexicographic product of g and h:

* total_dom_labeling: full color set over a minimum total dominating set,
  weight k * (total domination number of g), valid for every h.
* universal_vertex_labeling: full color set on a universal vertex of h over a
  minimum dominating set of g, weight k * (domination number of g).
* path_pattern_labeling: when g is a path and h has a pair witness, tile the
  path with the fixed digit patterns below; weight path_upper_bound(n).
* glued_family_labeling: the star-of-paths family, weight 4m + 2.

The digit patterns encode labels per path column on two rows of the product,
the u-row and the v-row, where (u, v) is the pair witness of h that
solvers.pair_witness reads off its degrees: digit 0 is the empty label, 1 is
{1}, 2 is {2}, 3 is {1,2}. Correctness needs only that u is adjacent in h to
every vertex except v, which is what the witness is: u has degree n - 2 and
v is its one non-neighbor (Proposition 1 of the README).
"""

from __future__ import annotations

from .couples import DominatingCouple, _lift_couple
from .errors import PreconditionError
from .graphs import Graph, gen_glued_paths
from .labelings import RainbowLabeling, _validate_k
from .solvers import (
    DEFAULT_NODE_BUDGET,
    min_dominating_set,
    min_total_dominating_set,
    pair_witness,
)


_TILES = {  # length: (u-row digits, v-row digits)
    2: ("30", "10"),
    3: ("030", "010"),
    4: ("0330", "0000"),
    5: ("02120", "01010"),
    6: ("030030", "010010"),
    7: ("0210210", "0100020"),
    8: ("02102130", "01000200"),
}

# star-of-paths pattern: center column plus one five-column arm, repeated
_GLUED_CENTER = ("1", "2")
_GLUED_ARM = ("20120", "00010")


def path_upper_bound(n: int) -> int:
    """Weight of the tiled 2-rainbow labeling of the product of P_n with any
    pair-witness graph: 6*(n // 7) + r, plus 1 when r = n % 7 is 1 or 2."""
    if n < 2:
        raise PreconditionError("path bound needs n >= 2")
    t, r = divmod(n, 7)
    return 6 * t + r + (1 if r in (1, 2) else 0)


def _tiling(n: int) -> list[int]:
    if n <= 8:
        return [n]
    t, r = divmod(n, 7)
    if r == 0:
        return [7] * t
    if r == 1:
        return [7] * (t - 1) + [8]
    return [7] * t + [r]


def _pair(h: Graph) -> tuple[int, int]:
    """The pair witness (u, v) of h, the rows that both tilings label."""
    pw = pair_witness(h)
    if pw is None:
        raise PreconditionError(
            "h has no pair witness: it needs a vertex of degree |V(h)| - 2 "
            "and 2-rainbow number 3"
        )
    return pw.u, pw.v


def path_pattern_labeling(n: int, h: Graph) -> RainbowLabeling:
    """Tiled 2-rainbow labeling of the product of the standard path P_n
    (vertices 0..n-1 in path order) with h, of weight path_upper_bound(n),
    on the rows of the pair witness of h (pair_witness); h need not be
    connected."""
    if n < 2:
        raise PreconditionError("tiling needs n >= 2")
    return _tile_path(range(n), h.n, *_pair(h))


def _tile_path(order, nh: int, u: int, v: int) -> RainbowLabeling:
    """The path tiling of the product of a path, whose vertices in path order
    are `order` (at least two), with an h on nh vertices that has the pair
    witness (u, v)."""
    tiling = [_TILES[length] for length in _tiling(len(order))]
    return _two_rows(len(order), nh, u, v, order,
                     "".join(u for u, _ in tiling), "".join(v for _, v in tiling))


def _two_rows(ng: int, nh: int, u: int, v: int, order, u_row: str, v_row: str) -> RainbowLabeling:
    """The labeling of the product of a g on ng vertices with an h on nh
    vertices whose u-row and v-row carry, at vertex order[i] of g, the
    digits u_row[i] and v_row[i]; every other label is empty."""
    masks = [0] * (ng * nh)
    for a, du, dv in zip(order, u_row, v_row):
        masks[a * nh + u] = int(du)
        masks[a * nh + v] = int(dv)
    return RainbowLabeling(2, tuple(masks))


def total_dom_labeling(
    g: Graph, h: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> RainbowLabeling:
    """Full color set at layer vertex 0 of each minimum-total-dominating-set
    layer; weight k * gamma_t(g), valid for every h. This is the couple
    labeling of (T, empty) for a minimum total dominating set T."""
    _validate_k(k)
    if h.n < 1:
        raise PreconditionError("h must be nonempty")
    tds = min_total_dominating_set(g, node_budget=node_budget)
    return _lift_couple(g.n, h.n, k, DominatingCouple(tds.witness, frozenset()), ())


def _universal_vertex(h: Graph) -> int | None:
    """The first vertex of h adjacent to all others, or None: gamma(h) = 1
    exactly when some closed neighborhood is all of V(h)."""
    return next((x for x in range(h.n) if h.closed(x) == h.full_mask), None)


def universal_vertex_labeling(
    g: Graph, h: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> RainbowLabeling:
    """Full color set at a universal vertex of h over each minimum-dominating-
    set layer; weight k * gamma(g). Requires gamma(h) = 1. This is the
    couple labeling of (empty, D) for a minimum dominating set D, with the
    full set on the universal vertex as the labeling of h."""
    _validate_k(k)
    hstar = _universal_vertex(h)
    if hstar is None:
        raise PreconditionError("h has no vertex adjacent to all others")
    ds = min_dominating_set(g, node_budget=node_budget)
    h_masks = tuple((1 << k) - 1 if x == hstar else 0 for x in range(h.n))
    return _lift_couple(g.n, h.n, k, DominatingCouple(frozenset(), ds.witness), h_masks)


def glued_family_labeling(m: int, p2: int, h: Graph) -> RainbowLabeling:
    """2-rainbow labeling of the product of gen_glued_paths(m, p2) with h,
    of weight 4m + 2, nonempty only on the u-row and v-row of the pair
    witness (u, v) of h (pair_witness).

    Fixed pattern, derived once and frozen: the center column carries {1} on
    the u-row and {2} on the v-row; each arm carries u-row digits 20120 and
    v-row digits 00010 outward from the center; pendant columns are empty.
    """
    g = gen_glued_paths(m, p2)  # validates m, p2
    u, v = _pair(h)
    return _two_rows(g.n, h.n, u, v, range(g.n),
                     _GLUED_CENTER[0] + _GLUED_ARM[0] * m, _GLUED_CENTER[1] + _GLUED_ARM[1] * m)
