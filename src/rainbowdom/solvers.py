"""Exact solvers for domination, total domination, and k-rainbow domination.

Two exact engines. The weighted cover engine (_min_weighted_cover) finds the
cheapest family of sets, each with an integer cost, whose union covers a
given set of elements: closed neighborhoods at unit cost give the domination
number, open neighborhoods at unit cost the total domination number, and
couples.min_couple_cost mixes both at two costs. It also gives the
2-rainbow number of a lexicographic product g o h (_min_rainbow_lex) as one
cover of V(g) x {1, 2} whose set costs are twelve small covers of h. The
rainbow engine (_rainbow_fixed) assigns color sets vertex by vertex.

Each engine starts from a greedy solution as the upper bound, then runs
iterative deepening on the objective: each level is a depth-first search that
branches on the lowest-index element (vertex) not yet satisfied, and prunes
with an admissible bound on the remaining cost and, in the rainbow engine, an
infeasibility test (a vertex that no future decision can fix). Searches count
branch nodes against an explicit budget and raise instead of approximating.

Disconnected inputs are decomposed into components and the per-component
results are merged, so every invariant is the sum over components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetError,
    CapExceededError,
    CapacityError,
    IsolatedVertexError,
    PreconditionError,
)
from .graphs import Graph, components, induced_subgraph, iter_bits, max_degree
from .labelings import RainbowLabeling

DEFAULT_NODE_BUDGET = 10**8
SOLVER_VERTEX_CAP = 64


@dataclass(frozen=True)
class SolveResult:
    """An exact optimum with a validating witness and search statistics."""

    value: int
    witness: object  # frozenset[int] for set problems, RainbowLabeling otherwise
    nodes_explored: int


@dataclass(frozen=True)
class PairWitness:
    """A minimum 2-RDF that uses the label {1,2} somewhere.

    u carries {1,2}. When the minimum weight is 3 the single remaining
    nonempty vertex v is reported too, color-swapped so its label is {1}.
    """

    u: int
    v: int | None
    labeling: RainbowLabeling


def _check_cap(g: Graph):
    if g.n > SOLVER_VERTEX_CAP:
        raise CapacityError(
            f"exact solvers handle at most {SOLVER_VERTEX_CAP} vertices, got {g.n}"
        )


# ---------------------------------------------------------------------------
# weighted cover engine (domination, total domination, dominating couples,
# lexicographic products)


def _greedy_cover(full: int, cover: list[int], cost: list[int]):
    """Repeatedly take the set with the best new-coverage/cost ratio, lowest
    index on ties. Returns the chosen set indices, or None when infeasible."""
    covered = 0
    chosen = []
    while covered & full != full:
        best_u, best_c, best_w = -1, 0, 1
        for u, s in enumerate(cover):
            c = (s & full & ~covered).bit_count()
            if c * best_w > best_c * cost[u]:
                best_u, best_c, best_w = u, c, cost[u]
        if best_u < 0:
            return None
        chosen.append(best_u)
        covered |= cover[best_u]
    return chosen


def _min_weighted_cover(
    full: int, cover: list[int], cost: list[int], stats: list[int], budget: int
):
    """Cheapest choice of sets cover[u], each at integer cost[u] >= 1, whose
    union covers `full`.

    Iterative deepening on the total cost, from an admissible bound up to the
    greedy cost. Each level is a depth-first search that branches on the
    lowest-index uncovered element over its coverers in set-index order, and
    bans each set once its branch is explored. Sets are grouped by cost; a
    class of cost c whose best set still covers maxcov_c uncovered elements
    needs at least |rem|*c/maxcov_c more cost on its own, so the minimum of
    that over the classes bounds what any completion pays. Returns the chosen
    set indices, or None when infeasible.
    """
    if full == 0:
        return []
    greedy = _greedy_cover(full, cover, cost)
    if greedy is None:
        return None
    by_cost: dict[int, int] = {}  # cost -> mask of the sets at that cost
    cover_by = [0] * full.bit_length()
    for u, s in enumerate(cover):
        bit = 1 << u
        by_cost[cost[u]] = by_cost.get(cost[u], 0) | bit
        for v in iter_bits(s & full):
            cover_by[v] |= bit
    classes = list(by_cost.items())

    def bound(rem: int, banned: int):
        """Lower bound on the cost of covering rem without the banned sets,
        or None when they cannot cover it."""
        need = rem.bit_count()
        best = None
        for c, members in classes:
            maxcov = 0
            for u in iter_bits(members & ~banned):
                k = (cover[u] & rem).bit_count()
                if k > maxcov:
                    maxcov = k
            if maxcov:
                b = -(-need * c // maxcov)
                if best is None or b < best:
                    best = b
        return best

    def dfs(covered: int, banned: int, spent: int, chosen: list[int], cap: int):
        stats[0] += 1
        if stats[0] > budget:
            raise BudgetError(f"node budget {budget} exhausted")
        if covered & full == full:
            return list(chosen)
        if spent >= cap:
            return None
        rem = full & ~covered
        lb = bound(rem, banned)
        if lb is None or spent + lb > cap:
            return None
        v = (rem & -rem).bit_length() - 1
        local_ban = banned
        for u in iter_bits(cover_by[v] & ~banned):
            w = spent + cost[u]
            if w <= cap:
                chosen.append(u)
                r = dfs(covered | cover[u], local_ban, w, chosen, cap)
                chosen.pop()
                if r is not None:
                    return r
            # covers containing u were fully explored in this branch
            local_ban |= 1 << u
        return None

    ub = sum(cost[u] for u in greedy)
    for cap in range(bound(full, 0), ub):
        r = dfs(0, 0, 0, [], cap)
        if r is not None:
            return r
    return greedy


def min_dominating_set(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum dominating set."""
    _check_cap(g)
    stats = [0]
    witness: set[int] = set()
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        cover = [sub.closed(v) for v in range(sub.n)]
        chosen = _min_weighted_cover(sub.full_mask, cover, [1] * sub.n, stats, node_budget)
        witness.update(back[u] for u in chosen)
    return SolveResult(len(witness), frozenset(witness), stats[0])


def min_total_dominating_set(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum total dominating set; requires no isolated vertices."""
    _check_cap(g)
    for v in range(g.n):
        if g.adj[v] == 0:
            raise IsolatedVertexError(f"isolated vertex {v} admits no total domination")
    stats = [0]
    witness: set[int] = set()
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        cover = list(sub.adj)
        chosen = _min_weighted_cover(sub.full_mask, cover, [1] * sub.n, stats, node_budget)
        witness.update(back[u] for u in chosen)
    return SolveResult(len(witness), frozenset(witness), stats[0])


# ---------------------------------------------------------------------------
# rainbow labeling engine


class _EnumStop(Exception):
    pass


def _rainbow_fixed(
    g: Graph,
    k: int,
    w_cap: int,
    *,
    require_full: bool = False,
    symmetry: bool = True,
    stats: list[int],
    node_budget: int,
    collector: list | None = None,
    collect_limit: int = 0,
):
    """Depth-limited search for a valid k-rainbow labeling of weight <= w_cap.

    Vertices are assigned in index order and label values are tried in
    ascending mask order, so the first solution is the lexicographically
    smallest one within the weight cap. With a collector, every solution is
    recorded (up to collect_limit) instead of stopping at the first.
    """
    n = g.n
    fullc = (1 << k) - 1
    nbr = list(g.adj)
    supplied = [0] * (n + 1)  # supplied[i] = vertices with a neighbor of index >= i
    for i in range(n - 1, -1, -1):
        supplied[i] = supplied[i + 1] | nbr[i]
    prefix_masks = {0} | {(1 << t) - 1 for t in range(1, k + 1)}

    masks = [0] * n
    seen = [0] * k  # seen[c] = vertices adjacent to an assigned vertex carrying c

    def dfs(i: int, wt: int, has_full: bool, any_nonempty: bool, zero: int):
        stats[0] += 1
        if stats[0] > node_budget:
            raise BudgetError(f"node budget {node_budget} exhausted")
        if i == n:
            if require_full and not has_full:
                return None
            if collector is not None:
                collector.append(tuple(masks))
                if len(collector) >= collect_limit:
                    raise _EnumStop
                return None
            return tuple(masks)
        future = supplied[i + 1]
        for m in range(fullc + 1):
            mw = m.bit_count()
            if wt + mw > w_cap:
                continue
            if symmetry and not any_nonempty and m and m not in prefix_masks:
                continue
            masks[i] = m
            snapshot = None
            zero2 = zero
            if m == 0:
                zero2 |= 1 << i
            else:
                snapshot = seen.copy()
                for c in iter_bits(m):
                    seen[c] |= nbr[i]
            full2 = has_full or m == fullc
            ok = True
            bound = 0
            for c in range(k):
                need = zero2 & ~seen[c]
                if need:
                    if need & ~future:
                        ok = False
                        break
                    maxcov = 0
                    for u in range(i + 1, n):
                        cc = (nbr[u] & need).bit_count()
                        if cc > maxcov:
                            maxcov = cc
                    bound += -(-need.bit_count() // maxcov)
            if ok:
                extra = k if (require_full and not full2) else 0
                if wt + mw + max(bound, extra) <= w_cap:
                    r = dfs(i + 1, wt + mw, full2, any_nonempty or m != 0, zero2)
                    if r is not None:
                        if snapshot is not None:
                            seen[:] = snapshot
                        return r
            if snapshot is not None:
                seen[:] = snapshot
        return None

    try:
        return dfs(0, 0, False, False, 0)
    except _EnumStop:
        return None


def _rainbow_greedy(g: Graph, k: int) -> tuple[int, ...]:
    # full label on a greedy dominating set is always valid
    cover = [g.closed(v) for v in range(g.n)]
    chosen = _greedy_cover(g.full_mask, cover, [1] * g.n) or []
    masks = [0] * g.n
    for v in chosen:
        masks[v] = (1 << k) - 1
    return tuple(masks)


def _rainbow_min_component(
    g: Graph, k: int, stats: list[int], node_budget: int
) -> tuple[int, ...]:
    if g.n == 0:
        return ()
    greedy = _rainbow_greedy(g, k)
    ub = sum(m.bit_count() for m in greedy)
    lb = max(1, -(-g.n // (max_degree(g) + 1)))
    for cap in range(lb, ub):
        r = _rainbow_fixed(g, k, cap, stats=stats, node_budget=node_budget)
        if r is not None:
            return r
    return greedy


def _merge_component_masks(g: Graph, per_comp: list[tuple[list[int], tuple[int, ...]]]) -> tuple[int, ...]:
    merged = [0] * g.n
    for back, masks in per_comp:
        for i, m in enumerate(masks):
            merged[back[i]] = m
    return tuple(merged)


def _validate_k(k: int):
    if not (1 <= k <= 8):
        raise PreconditionError("k must be between 1 and 8")


def min_rainbow(g: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum k-rainbow domination number with a witness labeling.

    This is the direct label-space search; see min_rainbow_via_cartesian for
    the independent route through the Cartesian product.
    """
    _validate_k(k)
    _check_cap(g)
    stats = [0]
    parts = []
    for comp in components(g):
        sub, back = induced_subgraph(g, comp)
        parts.append((back, _rainbow_min_component(sub, k, stats, node_budget)))
    masks = _merge_component_masks(g, parts)
    labeling = RainbowLabeling(k, masks)
    return SolveResult(labeling.weight, labeling, stats[0])


def min_rainbow_via_cartesian(
    g: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Minimum k-rainbow domination computed as a minimum dominating set of
    the Cartesian product with K_k, then mapped back to a labeling."""
    from .graphs import gen_complete
    from .labelings import dominating_set_to_rdf
    from .products import cartesian

    _validate_k(k)
    if g.n * k > SOLVER_VERTEX_CAP:
        raise CapacityError(
            f"product with K_{k} exceeds the {SOLVER_VERTEX_CAP}-vertex solver cap"
        )
    prod, _ = cartesian(g, gen_complete(k))
    res = min_dominating_set(prod, node_budget=node_budget)
    labeling = dominating_set_to_rdf(g, k, res.witness)
    return SolveResult(res.value, labeling, res.nodes_explored)


# ---------------------------------------------------------------------------
# 2-rainbow domination of lexicographic products, layer by layer


def _layer_costs(h: Graph, stats: list[int], budget: int) -> dict:
    """cost_h(C, R) for every nonempty color mask C and every color mask R,
    with one witness labeling of h each, as {(C, R): (cost, masks)}.

    cost_h(C, R) is the least weight of a 2-labeling of h whose labels use
    exactly the colors of C and in which every empty vertex sees, among its
    own neighbors in h, each color outside R. Each entry is one weighted
    cover: the elements are (x, c) for each vertex x and color c outside R,
    plus one "c is used" element per color of C; putting color c of C on x
    is a unit-cost set that covers every element of x, covers (y, c) for
    the neighbors y of x, and covers "c is used". Every entry is feasible
    for nonempty h, since the sets of x alone cover every element of x.
    """
    n = h.n
    table = {}
    for cmask in (1, 2, 3):
        for r in range(4):
            need = 3 & ~r
            full = cmask << (2 * n)
            for x in range(n):
                full |= need << (2 * x)
            cover, owner = [], []
            for x in range(n):
                for c in iter_bits(cmask):
                    s = (3 << (2 * x)) | (1 << (2 * n + c))
                    if need >> c & 1:
                        for y in iter_bits(h.adj[x]):
                            s |= 1 << (2 * y + c)
                    cover.append(s)
                    owner.append((x, c))
            chosen = _min_weighted_cover(full, cover, [1] * len(cover), stats, budget)
            masks = [0] * n
            for u in chosen:
                x, c = owner[u]
                masks[x] |= 1 << c
            table[cmask, r] = (len(chosen), tuple(masks))
    return table


def _min_rainbow_lex(
    g: Graph, h: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Exact 2-rainbow domination number of the lexicographic product g o h,
    with a witness labeling in the product's row-major index.

    Each vertex of the layer {a} x V(h) sees every vertex of each
    neighboring layer, so a layer meets the rest of the product only through
    its color union C(a). The layer is valid iff each of its empty vertices
    sees, inside its own copy of h, the colors missing from R(a), the union
    of C(b) over the neighbors b of a. Hence the value is the least
    sum over a of cost_h(C(a), R(a)) (see _layer_costs): a minimum-weight
    cover of the elements (a, c), a in V(g), c in {1, 2}, by the sets
    S(a, C, R) = {(a, c) : c not in R} | {(b, c) : b ~ a, c in C} at cost
    cost_h(C, R). An option whose set lies inside another's at no higher
    cost is dropped (on ties the first in (C, R) order stays). Two options
    chosen at one layer merge by OR-ing their layer labelings, which costs
    no more, so the witness is exact. h need not be connected. The table
    solves and the cover share one node budget.
    """
    _check_cap(g)
    _check_cap(h)
    if g.n == 0 or h.n == 0:
        return SolveResult(0, RainbowLabeling(2, ()), 0)
    stats = [0]
    table = _layer_costs(h, stats, node_budget)
    cover, cost, owner = [], [], []
    for a in range(g.n):
        # one bit per neighbor layer; times C it marks (b, c) for c in C
        nbr = 0
        for b in iter_bits(g.adj[a]):
            nbr |= 1 << (2 * b)
        options = [
            (((3 & ~r) << (2 * a)) | nbr * cmask, w, (cmask, r))
            for (cmask, r), (w, _) in table.items()
        ]
        for i, (s, w, key) in enumerate(options):
            if not any(
                s & ~t == 0 and v <= w and (j < i or (t, v) != (s, w))
                for j, (t, v, _) in enumerate(options)
                if j != i
            ):
                cover.append(s)
                cost.append(w)
                owner.append((a, key))
    chosen = _min_weighted_cover((1 << (2 * g.n)) - 1, cover, cost, stats, node_budget)
    masks = [0] * (g.n * h.n)
    for u in chosen:
        a, key = owner[u]
        for x, m in enumerate(table[key][1]):
            masks[a * h.n + x] |= m
    labeling = RainbowLabeling(2, tuple(masks))
    return SolveResult(labeling.weight, labeling, stats[0])


def enumerate_min_2rdfs(
    g: Graph, cap: int, *, node_budget: int = DEFAULT_NODE_BUDGET
):
    """Yield every minimum 2-rainbow dominating labeling of g, without
    duplicates, in lexicographic label order. Raises CapExceededError after
    yielding `cap` labelings if more exist; treat the results as partial."""
    if cap <= 0:
        raise PreconditionError("cap must be positive")
    base = min_rainbow(g, 2, node_budget=node_budget)
    stats = [0]
    found: list[tuple[int, ...]] = []
    _rainbow_fixed(
        g,
        2,
        base.value,
        symmetry=False,
        stats=stats,
        node_budget=node_budget,
        collector=found,
        collect_limit=cap + 1,
    )
    for masks in found[:cap]:
        yield RainbowLabeling(2, masks)
    if len(found) > cap:
        raise CapExceededError(f"more than {cap} minimum labelings exist")


def _swap12(mask: int) -> int:
    return ((mask & 1) << 1) | ((mask >> 1) & 1)


def pair_witness(h: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> PairWitness | None:
    """Search for a minimum 2-RDF of h that assigns {1,2} somewhere.

    Runs one search constrained to contain a full label and compares its
    weight against the unconstrained optimum. Returns None iff no minimum
    2-RDF uses the label {1,2}.
    """
    base = min_rainbow(h, 2, node_budget=node_budget)
    return _pair_search(h, base.value, node_budget)


def _pair_search(h: Graph, rd2: int, node_budget: int) -> PairWitness | None:
    """pair_witness for an h whose 2-rainbow number rd2 is already known."""
    r = _rainbow_fixed(h, 2, rd2, require_full=True, stats=[0], node_budget=node_budget)
    if r is None:
        return None
    masks = list(r)
    u = next(i for i, m in enumerate(masks) if m == 3)
    v = None
    if rd2 == 3:
        v = next(i for i, m in enumerate(masks) if m and i != u)
        if masks[v] == 2:
            masks = [_swap12(m) for m in masks]
    return PairWitness(u, v, RainbowLabeling(2, tuple(masks)))
