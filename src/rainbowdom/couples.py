"""Dominating couples.

An ordered pair (A, B) of disjoint vertex sets of G is a dominating couple
when every vertex outside B has a neighbor in A or in B. B-vertices are exempt
because in the product construction their whole layer carries a self-contained
rainbow labeling, while every other layer relies on an adjacent layer for its
colors. The two degenerate cases recover classical notions: (A, empty) works
iff A is a total dominating set, (empty, B) works iff B is a dominating set.

Equivalently, (A, B) is a dominating couple iff the open neighborhoods N(u)
of u in A and the closed neighborhoods N[u] of u in B together cover V. So
the couple optimum min(a|A| + b|B|), the value of the RdH3NoPair case, is a
minimum-weight cover of V by {N(u) at cost a} and {N[u] at cost b}, and
min_couple_cost solves it with the same exact cover engine as the domination
and total domination numbers. No optimal cover takes both N(u) and N[u]:
N(u) lies inside N[u], so dropping N(u) would leave a cheaper cover. That is
why A and B come out disjoint without a constraint in the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CapacityError,
    HTooSmallError,
    NotDisjointError,
    NotDominatingCoupleError,
    PreconditionError,
    RainbowDomError,
)
from .graphs import Graph, to_mask
from .labelings import RainbowLabeling
from .products import ProductIndex
from .solvers import (
    DEFAULT_NODE_BUDGET,
    SOLVER_VERTEX_CAP,
    _min_weighted_cover,
    _rainbow_fixed,
    min_rainbow,
)


@dataclass(frozen=True)
class DominatingCouple:
    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.a & self.b:
            raise NotDisjointError(f"sets share vertices {sorted(self.a & self.b)}")

    def cost(self, cost_a: int, cost_b: int) -> int:
        return cost_a * len(self.a) + cost_b * len(self.b)


def is_dominating_couple(g: Graph, a: frozenset[int], b: frozenset[int]) -> bool:
    """Check the couple condition: each x outside b has a neighbor in a | b."""
    for v in a | b:
        if not (0 <= v < g.n):
            raise PreconditionError(f"vertex {v} out of range")
    if a & b:
        raise NotDisjointError(f"sets share vertices {sorted(a & b)}")
    maskb = to_mask(b)
    inside = to_mask(a) | maskb
    return all(g.adj[x] & inside for x in range(g.n) if not (maskb >> x) & 1)


def min_couple_cost(
    g: Graph, cost_a: int, cost_b: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, DominatingCouple]:
    """Minimum of cost_a*|A| + cost_b*|B| over all dominating couples of g.

    (A, B) is a dominating couple exactly when the open neighborhoods N(u),
    u in A, and the closed neighborhoods N[u], u in B, cover V, so the
    optimum is a minimum-weight cover of V by {N(u) at cost_a} and {N[u] at
    cost_b}: one search of solvers._min_weighted_cover over 2n sets, all
    under one node_budget. Every N[u] is indexed before every N(u); that
    order decides which of several optimal couples is returned. A and B come
    out disjoint because N(u) lies inside N[u]: a cover holding both could
    drop N(u) and would not be the cheapest.
    """
    if cost_a < 1 or cost_b < 1:
        raise PreconditionError("costs must be at least 1")
    if g.n > SOLVER_VERTEX_CAP:
        raise CapacityError(
            f"couple search handles at most {SOLVER_VERTEX_CAP} vertices, got {g.n}"
        )
    cover = [g.closed(u) for u in range(g.n)] + list(g.adj)
    cost = [cost_b] * g.n + [cost_a] * g.n
    chosen = _min_weighted_cover(g.full_mask, cover, cost, [0], node_budget)
    couple = DominatingCouple(
        frozenset(u - g.n for u in chosen if u >= g.n),
        frozenset(u for u in chosen if u < g.n),
    )
    return couple.cost(cost_a, cost_b), couple


def couple_labeling(
    g: Graph,
    h: Graph,
    k: int,
    couple: DominatingCouple,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RainbowLabeling:
    """Materialize the couple-based k-rainbow labeling of the lexicographic
    product of g and h, of weight k*|A| + (k-rainbow number of h)*|B|.

    A-layers put the full color set on layer vertex 0; B-layers copy one
    minimum k-rainbow labeling of h that uses all k colors.
    """
    if h.n < k:
        raise HTooSmallError(f"second factor needs at least {k} vertices, has {h.n}")
    if not is_dominating_couple(g, couple.a, couple.b):
        raise NotDominatingCoupleError("(A, B) is not a dominating couple of g")
    fullc = (1 << k) - 1
    base = min_rainbow(h, k, node_budget=node_budget)
    h_masks = base.witness.masks
    used = 0
    for m in h_masks:
        used |= m
    if used != fullc:
        stats = [0]
        r = _rainbow_fixed(
            h,
            k,
            base.value,
            require_all_colors=True,
            stats=stats,
            node_budget=node_budget,
        )
        if r is None:
            raise RainbowDomError(
                "no minimum k-rainbow labeling of h uses all colors; "
                "the couple construction does not apply"
            )
        h_masks = r
    idx = ProductIndex(g.n, h.n)
    masks = [0] * idx.size
    for v in couple.a:
        masks[idx.encode(v, 0)] = fullc
    for v in couple.b:
        for x in range(h.n):
            masks[idx.encode(v, x)] = h_masks[x]
    return RainbowLabeling(k, tuple(masks))
