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
minimum-weight cover of V by {N(u) at cost a} and {N[u] at cost b}: a
labeling of G in which u takes the label "in A" or "in B" or none, and
min_couple_cost solves it with the labeling cover of solvers, the one the
layer reduction of the product uses. A 2-packing P (vertices whose closed
neighborhoods are pairwise disjoint) bounds it from below: no vertex
neighbors two of P, so no set of the cover holds two of P, and the optimum
is at least min(a, b)|P|. As A u B dominates, it is also at least
min(a, b) gamma, and on trees gamma is the 2-packing number (Meir & Moon,
Pacific J. Math. 61, 1975). No optimal cover takes both N(u) and N[u]:
N(u) lies inside N[u], so dropping N(u) would leave a cheaper cover. So A
and B come out disjoint, and the search may let each vertex take one label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import Graph, _vset_mask
from .labelings import RainbowLabeling
from .solvers import DEFAULT_NODE_BUDGET, _check_cap, _labeling_cover, min_rainbow


@dataclass(frozen=True)
class DominatingCouple:
    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.a & self.b:
            raise PreconditionError(f"sets share vertices {sorted(self.a & self.b)}")

    def cost(self, cost_a: int, cost_b: int) -> int:
        return cost_a * len(self.a) + cost_b * len(self.b)


def _is_dominating_couple(g: Graph, couple: DominatingCouple) -> bool:
    """Check the couple condition: each x outside B has a neighbor in A or B."""
    maskb = _vset_mask(g, couple.b)
    inside = _vset_mask(g, couple.a) | maskb
    return all(g.adj[x] & inside for x in range(g.n) if not (maskb >> x) & 1)


def _two_packing(g: Graph) -> list[int]:
    """A greedy 2-packing of g: the vertices in order of degree (lowest index
    on ties), each kept when its closed neighborhood meets none of the kept
    ones'. No vertex neighbors two kept ones, so no set N(u) or N[u] holds
    two of them, and every couple cover takes a set per kept vertex."""
    kept, taken = [], 0
    for v in sorted(range(g.n), key=[row.bit_count() for row in g.adj].__getitem__):
        closed = g.adj[v] | 1 << v
        if not closed & taken:
            kept.append(v)
            taken |= closed
    return kept


def min_couple_cost(
    g: Graph, cost_a: int, cost_b: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, DominatingCouple]:
    """Minimum of cost_a*|A| + cost_b*|B| over all dominating couples of g.

    (A, B) is a dominating couple exactly when the open neighborhoods N(u),
    u in A, and the closed neighborhoods N[u], u in B, cover V, so the
    optimum is one search of solvers._labeling_cover, under one node_budget:
    u in B is the label (own 1, emit 1) at cost_b, u in A the label (own 0,
    emit 1) at cost_a, and the two merge into "u in B" at less than their
    summed cost. The subset rule there (solvers._undominated, the rule of
    exact dominating-set branch and bound) and the bandwidth order of g
    decide which of several optimal couples is returned. The deepening
    starts at lo = min(cost_a, cost_b) times a greedy 2-packing
    (_two_packing) when that is above the engine's own bound, and no level
    is searched when the greedy cover costs that much; the levels skipped
    hold no cover, so the couple returned is the one the search from the
    engine's bound returns.
    """
    if cost_a < 1 or cost_b < 1:
        raise PreconditionError("costs must be at least 1")
    _check_cap(g)
    chosen = _labeling_cover(g, 1, ((1, 1, cost_b), (0, 1, cost_a)), [0], node_budget,
                             lo=min(cost_a, cost_b) * len(_two_packing(g)))
    couple = DominatingCouple(frozenset(u for u, j in chosen if j),
                              frozenset(u for u, j in chosen if not j))
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
        raise PreconditionError(f"second factor needs at least {k} vertices, has {h.n}")
    if not _is_dominating_couple(g, couple):
        raise PreconditionError("(A, B) is not a dominating couple of g")
    base = min_rainbow(h, k, node_budget=node_budget)
    return _lift_couple(g.n, h.n, k, couple, base.witness.masks)


def _lift_couple(
    ng: int, nh: int, k: int, couple: DominatingCouple, h_masks: tuple[int, ...]
) -> RainbowLabeling:
    """The couple labeling of the product of a g on ng vertices with an h on
    nh vertices, given a k-rainbow labeling h_masks of h (read only when B is
    nonempty), of weight k|A| + weight(h_masks)|B|. h_masks need only be
    valid and use every color, not be minimum (the full set on a universal
    vertex weighs k, while rd_k(K_1) = 1); a minimum one may miss a color,
    and then nh >= k is required, or PreconditionError is raised.

    A-layers put the full color set on layer vertex 0; B-layers copy h_masks,
    recolored when it misses a color. A minimum k-RDF that misses a color has
    no empty vertex (it would not see that color), so its weight is at least
    nh; one color on every vertex is valid for the same reason, so the weight
    is exactly nh and every label is a single color. Giving vertex x the
    color x mod k is then as valid and as light, and it uses all k colors
    because nh >= k.
    """
    fullc = (1 << k) - 1
    used = 0
    for m in h_masks:
        used |= m
    if couple.b and used != fullc:
        if nh < k:
            raise PreconditionError(f"second factor needs at least {k} vertices, has {nh}")
        h_masks = tuple(1 << (x % k) for x in range(nh))
    masks = [0] * (ng * nh)
    for v in couple.a:
        masks[v * nh] = fullc
    for v in couple.b:
        masks[v * nh:(v + 1) * nh] = h_masks
    return RainbowLabeling(k, tuple(masks))
