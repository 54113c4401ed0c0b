"""Exact solvers for domination, total domination, and k-rainbow domination.

Two exact engines. The weighted cover engine (_min_weighted_cover) finds the
cheapest family of sets, each with an integer cost, whose union covers a
given set of elements. Closed and open neighborhoods at unit cost give the
domination and total domination numbers. A labeling of g in which each
label covers colors of its vertex and of that vertex's neighbors is one
cover too (_labeling_cover): the couple optimum (couples.min_couple_cost)
and the 2-rainbow number of g o h (_min_rainbow_lex, its label costs twelve
small covers of h, _layer_costs) are such labelings. Vertex k v + c of
products.cartesian(g, K_k) is color c + 1 on v (_cover_labeling), and a set
dominates g x K_k iff its labeling is k-rainbow dominating. That gives
min_rainbow_via_cartesian and the minimum 2-rainbow labelings in label order
(enumerate_min_2rdfs lists these covers at the minimum weight with a search
of its own). The pair witness needs no search: it is a degree condition
(pair_witness). The rainbow engine (_rainbow_fixed) assigns color sets
vertex by vertex for min_rainbow; it stays independent of the cover engine,
as the oracle the corpus replay checks the case values against.

Each engine runs iterative deepening on the objective, from an admissible
bound up to, not including, a greedy solution's cost. The cover engine
searches one range of levels [lo, hi) instead: lo a proven lower bound the
caller passes (a 2-packing for the couple cover, 2 gamma(g) for a
certificate's refine) or the one level a yes/no question asks about, hi
the greedy cost or a weight already attained (a certificate's upper
bound). Each level is a
depth-first search that branches on the lowest-index element (vertex) not
yet satisfied, and prunes with an admissible bound on the remaining cost
and, in the rainbow engine, an infeasibility test (a vertex that no future
decision can fix). The cover engine also remembers each sub-cover it
refuted, keyed by the uncovered elements and the bans that can still
matter, with the largest remaining cost it was refuted for, and cuts a
node whose key was refuted for at least its own remaining cost; that holds
across deepening levels, and only subtrees holding no cover are cut, so
the covers found are the ones the search without the memo finds.
Searches count branch nodes against an explicit budget and raise instead
of approximating.

The rainbow engine's first bound counts pairs: each (v, c) with v empty or
unassigned and no assigned neighbor carrying c is open. It is served by v
itself being nonempty (k pairs at most) or by color c on an unassigned
neighbor u, which serves at most min(deg(u), |open_c|) pairs, open_c the
open pairs of color c. So the weight W still to place satisfies
T <= W (min(Delta_U, max_c |open_c|) + k), where T counts the open pairs and
Delta_U is the largest degree left. At the root T = k n, so the deepening
starts at ceil(k n / (Delta + k)). Its second bound is per color, and each
color that some empty vertex still lacks costs between 1 and the number of
those vertices, so the vertices left are scanned only when that bracket
does not decide. The engine also breaks twin symmetry: a vertex whose open
or closed neighborhood equals that of an earlier vertex carries at least as
many colors as the nearest one.

Disconnected inputs are decomposed into components and the per-component
results are merged, so every invariant is the sum over components. A
one-component input is solved as it is, without a copy
(graphs._component_subgraphs), and what depends on k alone (the rainbow
engine's label table, K_k of the Cartesian route) is built once per k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (BudgetError, CapExceededError, CapacityError, PreconditionError,
                     RainbowDomError)
from .graphs import (Graph, _bandwidth_order, _component_subgraphs, gen_complete,
                     is_dominating_set, iter_bits)
from .labelings import RainbowLabeling, _validate_k
from .products import cartesian

DEFAULT_NODE_BUDGET = 10**8
SOLVER_VERTEX_CAP = 64
REFUTED_CAP = 1 << 18  # the most refuted sub-covers one cover search keeps


@dataclass(frozen=True)
class SolveResult:
    """An exact optimum with a validating witness and search statistics."""

    value: int
    witness: object  # frozenset[int] for set problems, RainbowLabeling otherwise
    nodes_explored: int


@dataclass(frozen=True)
class PairWitness:
    """A minimum 2-RDF of weight 3 that uses the label {1,2}: {1,2} on u,
    {1} on v, every other vertex empty. u sees every vertex but v."""

    u: int
    v: int
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
    left = full
    chosen = []
    while left:
        best_u, best_c, best_w = -1, 0, 1
        for u, s in enumerate(cover):
            c = (s & left).bit_count()
            if c * best_w > best_c * cost[u]:
                best_u, best_c, best_w = u, c, cost[u]
        if best_u < 0:
            return None
        chosen.append(best_u)
        left &= ~cover[best_u]
    return chosen


def _undominated(cover: list[int], cost: list[int]) -> list[int]:
    """The indices, in order, of the sets that no other set of no higher
    cost contains; of equal sets at equal cost the first stays. Some
    cheapest cover uses only these: a dropped set can be traded for the
    one that contains it. A set that holds s holds the lowest element of s,
    so only the sets holding that element are tried."""
    holding: dict[int, list[int]] = {}  # element bit -> the sets holding it
    for j, t in enumerate(cover):
        while t:
            low = t & -t
            holding.setdefault(low, []).append(j)
            t ^= low
    keep = []
    for i, s in enumerate(cover):
        w = cost[i]
        for j in holding[s & -s] if s else range(len(cover)):
            t = cover[j]
            if j != i and s & ~t == 0 and cost[j] <= w and (j < i or t != s or cost[j] != w):
                break
        else:
            keep.append(i)
    return keep


def _min_weighted_cover(
    full: int, cover: list[int], cost: list[int], stats: list[int], budget: int,
    *, lo: int = 0, hi: int | None = None, excl: list[int] | None = None,
):
    """Cheapest choice of sets cover[u], each at integer cost[u] >= 1, whose
    union covers `full`: the chosen set indices.

    Iterative deepening on the total cost over the levels [lo, hi): from the
    larger of an admissible bound and lo up to hi - 1, each level a
    depth-first search for a cover of cost at most that level; the first
    cover found is returned, or None when no level holds one. With hi None
    the levels stop below the greedy cover's cost, and the greedy cover is
    returned when none below it holds a cover (None when infeasible). So
    when lo is at most the optimum (a lower bound the caller has proven, say
    by a packing, or 0), the cover returned is a cheapest one, and one level
    [m, m + 1) asks whether some cover costs at most m. A BudgetError that a
    level raises carries that level as its `level`: every level from lo
    below it was refuted, so it is a lower bound on the optimum when lo is.
    Each level branches on the lowest-index uncovered element over its
    coverers in set-index order, and bans each set once its branch is
    explored. Sets are grouped by cost; a class of cost c whose best set
    still covers maxcov_c uncovered elements needs at least |rem|*c/maxcov_c
    more cost on its own, so the minimum of that over the classes bounds
    what any completion pays.

    excl[u], a mask of sets, is banned in the subtree below a choice of set
    u. A caller passes it when every cover can be traded for one of no
    higher cost that holds no u together with a set of excl[u]; each level
    then stays complete.

    The search keeps the sub-covers it refuted. A node's subtree
    depends only on the uncovered elements rem, on the remaining cost
    cap - spent, and on the banned sets that touch rem: a set that covers
    nothing in rem is never chosen below it and counts in no bound. Each
    set that touches rem covers some element >= v, the lowest one in rem,
    so the key (rem, banned & later[v]), later[v] being the sets that cover
    an element >= v, fixes the subtree, excl bans included. When every
    branch of a node has been explored without a cover, its key records the
    remaining cost; a node whose key holds at least its own remaining cost
    returns None at once, at its level and every later one, since the
    search within less remaining cost visits only nodes it visits within
    more. Nothing is recorded on success or while a BudgetError unwinds, so
    the memo holds refutations (lower bounds), never values, and cuts only
    subtrees without a cover: every call returns what it returns without
    the memo, and only nodes_explored (and a BudgetError's level) can
    change. At most REFUTED_CAP = 2^18 keys are kept; once that many are
    held, no more are added. A full memo took 45 MB (about 180 bytes a key,
    CPython 3.11, the layer cover of a random sparse 24-vertex graph times
    P4).
    """
    by_cost: dict[int, int] = {}  # cost -> mask of the sets at that cost
    for u, c in enumerate(cost):
        by_cost[c] = by_cost.get(c, 0) | 1 << u
    classes = list(by_cost.items())

    def bound(rem: int, banned: int):
        """Lower bound on the cost of covering rem without the banned sets,
        or None when they cannot cover it."""
        need = rem.bit_count()
        best = None if need else 0
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
        v = (rem & -rem).bit_length() - 1
        key = (rem, banned & later[v])
        if refuted.get(key, 0) >= cap - spent:
            return None
        lb = bound(rem, banned)
        if lb is None or spent + lb > cap:
            return None
        local_ban = banned
        for u in iter_bits(cover_by[v] & ~banned):
            w = spent + cost[u]
            if w <= cap:
                chosen.append(u)
                ban = local_ban if excl is None else local_ban | excl[u]
                r = dfs(covered | cover[u], ban, w, chosen, cap)
                chosen.pop()
                if r is not None:
                    return r
            # covers containing u were fully explored in this branch
            local_ban |= 1 << u
        if len(refuted) < REFUTED_CAP:
            refuted[key] = cap - spent
        return None

    greedy = None
    if hi is None:
        greedy = _greedy_cover(full, cover, cost)
        if greedy is None:
            return None
        hi = sum(map(cost.__getitem__, greedy))
    start = max(bound(full, 0) or 0, lo)
    if start >= hi:
        return greedy  # no level to search: the tables below are not built
    cover_by = [0] * full.bit_length()
    for u, s in enumerate(cover):
        bit, s = 1 << u, s & full
        while s:
            low = s & -s
            cover_by[low.bit_length() - 1] |= bit
            s ^= low
    later = cover_by[:]  # later[v]: the sets that cover some element >= v
    for v in range(len(later) - 2, -1, -1):
        later[v] |= later[v + 1]
    refuted: dict[tuple[int, int], int] = {}  # (rem, bans that matter) -> slack
    for cap in range(start, hi):
        try:
            r = dfs(0, 0, 0, [], cap)
        except BudgetError as exc:
            exc.level = cap
            raise
        if r is not None:
            return r
    return greedy


def _labeling_cover(
    g: Graph, k: int, labels, stats: list[int], budget: int, *, lo: int = 0,
    hi: int | None = None,
) -> list[tuple[int, int]] | None:
    """Cheapest labeling of g by `labels` in the weights [lo, hi) of
    _min_weighted_cover: the chosen (vertex, label index) pairs, or None when
    no labeling there covers. A label is (own, emit, cost), own and emit
    masks of k colors; on vertex a it covers (a, c) for c in own and (b, c)
    for each neighbor b and c in emit, and a labeling covers every (a, c).
    With a at place i of _bandwidth_order(g), (a, c) is element k i + c, so
    neighbors' elements sit close, and the label is the set own << k i |
    spread(a) * emit, spread(a) one bit per neighbor. An option that another
    of no higher cost contains is dropped (_undominated, over all options at
    once); each option bans the other kept options of its vertex (excl).

    Precondition: the labels are closed under merging: for any two labels,
    some label covers both owns and both emits at no more than their summed
    cost. Then every deepening level stays complete: start from a cheapest
    labeling, replace each dropped option by the kept option that contains
    it, and merge any two options that land on one vertex. Each merge
    removes an option and neither step costs more, so this ends at a
    cheapest labeling that uses kept options only, at most one per vertex.
    Only the greedy cover (hi None, no level under its cost holding a cover)
    may give a vertex two labels, whose merge then costs their sum.
    """
    order, m = _bandwidth_order(g), len(labels)
    place = [0] * g.n
    for i, a in enumerate(order):
        place[a] = i
    cover = []
    for i, a in enumerate(order):
        spread = 0
        for b in iter_bits(g.adj[a]):
            spread |= 1 << (k * place[b])
        for own, emit, _ in labels:
            cover.append(own << (k * i) | spread * emit)
    cost = [c for _, _, c in labels] * g.n
    keep = _undominated(cover, cost)
    mine = [0] * g.n  # place -> the kept options of its vertex
    for s, u in enumerate(keep):
        mine[u // m] |= 1 << s
    excl = [mine[u // m] & ~(1 << s) for s, u in enumerate(keep)]
    chosen = _min_weighted_cover((1 << (k * g.n)) - 1, [cover[u] for u in keep],
                                 [cost[u] for u in keep], stats, budget, lo=lo, hi=hi, excl=excl)
    return None if chosen is None else [(order[keep[s] // m], keep[s] % m) for s in chosen]


def _min_neighborhood_cover(g: Graph, closed: bool, node_budget: int) -> SolveResult:
    """Fewest vertices whose closed (or open) neighborhoods cover V(g): one
    search of the cover engine per component, under one node budget."""
    _check_cap(g)
    if not closed and 0 in g.adj:
        raise PreconditionError(f"isolated vertex {g.adj.index(0)} admits no total domination")
    stats = [0]
    witness: set[int] = set()
    for sub, back in _component_subgraphs(g):
        cover = [row | 1 << v for v, row in enumerate(sub.adj)] if closed else list(sub.adj)
        chosen = _min_weighted_cover(sub.full_mask, cover, [1] * sub.n, stats, node_budget)
        witness.update(back[u] for u in chosen)
    return SolveResult(len(witness), frozenset(witness), stats[0])


def min_dominating_set(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum dominating set."""
    return _min_neighborhood_cover(g, True, node_budget)


def min_total_dominating_set(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum total dominating set; requires no isolated vertices."""
    return _min_neighborhood_cover(g, False, node_budget)


# ---------------------------------------------------------------------------
# rainbow labeling engine


@lru_cache(maxsize=8)  # one entry per k in 1..8
def _label_table(k: int) -> tuple[tuple[tuple[int, int, tuple[int, ...]], ...], frozenset[int]]:
    """_rainbow_fixed's labels at k, the same for every graph: each color
    mask with its weight and colors, in ascending mask order, and the masks
    a first nonempty label may take ({1}, {1,2}, ...), with 0."""
    labels = tuple((m, m.bit_count(), tuple(iter_bits(m))) for m in range(1 << k))
    return labels, frozenset({0} | {(1 << t) - 1 for t in range(1, k + 1)})


# K_k for the products g x K_k, built and checked once per k in 1..8
_complete = lru_cache(maxsize=8)(gen_complete)


def _rainbow_fixed(g: Graph, k: int, stats: list[int], node_budget: int) -> tuple[int, ...]:
    """min_rainbow's search on a connected g: the masks of a minimum k-rainbow
    labeling. The full label on a greedy dominating set is the start; below
    its weight, each weight cap w_cap from the root's counting bound
    ceil(k n / (Delta + k)) up is one depth-first search for a valid
    labeling of weight <= w_cap, and the first one found is returned.

    Vertices are assigned in index order and label values are tried in
    ascending mask order. Two symmetry rules cut the labelings tried, and a
    permutation of twins followed by a permutation of colors maps any
    labeling onto one that passes both: the first nonempty label is {1},
    {1,2}, ..., and a vertex whose open or closed neighborhood equals that
    of an earlier vertex carries at least as many colors as the nearest such
    twin. So the first solution is the lexicographically smallest, within
    the weight cap, of the labelings that pass both rules. For k = 2 it is
    also the smallest that passes the first rule alone, as it was before the
    twin rule: there a lighter label is a smaller mask, so swapping the
    labels of a heavier earlier twin and a lighter later one (then the
    colors, if the first label became {2}) gives a smaller labeling.

    After the tentative label on vertex i, with U the vertices after i, Z
    the assigned empty ones and seen_c the vertices next to an assigned
    vertex carrying color c, a counting bound comes first. Each of the
    T = sum_c |open_c| pairs (v, c), open_c = (Z | U) minus seen_c, is
    served by v itself being nonempty (at most k pairs per nonempty v) or
    by a color c on a neighbor u in U (at most min(deg(u), |open_c|) pairs),
    so the weight W still to place satisfies
    T <= W * (min(Delta_U, max_c |open_c|) + k), tested as a product, with
    no division. Then, per color, a vertex of Z that no vertex of U
    neighbors is a dead end, and ceil(|need_c| / maxcov_c) more vertices
    carry c, need_c = Z minus seen_c and maxcov_c the most of need_c that
    one vertex of U neighbors. Each such term lies between 1 and |need_c|
    when need_c is not empty, so the node is cut when more colors have a
    need than W allows, kept when sum_c |need_c| fits in W, and only
    otherwise are the rows of U scanned, each color's scan stopping once
    one row covers all of need_c. The bracket decides as the full sum
    would.
    """
    n, full = g.n, g.full_mask
    fullc = (1 << k) - 1
    nbr = list(g.adj)
    supplied = [0] * (n + 1)  # supplied[i] = vertices with a neighbor of index >= i
    top = [0] * (n + 1)  # top[i] = the largest degree among vertices i..n-1
    for i in range(n - 1, -1, -1):
        d, below = nbr[i].bit_count(), top[i + 1]
        supplied[i] = supplied[i + 1] | nbr[i]
        top[i] = d if d > below else below
    after = [g.adj[i + 1:] for i in range(n)]  # after[i] = the rows of U below vertex i
    # twin[v] = the nearest earlier vertex with v's open or closed neighborhood,
    # or -1. One dict serves both kinds: N(u) = N[v] would need u in N(u)
    twin, last = [-1] * n, {}
    for v, row in enumerate(nbr):
        closed = row | 1 << v
        u, w = last.get(row, -1), last.get(closed, -1)
        twin[v] = u if u > w else w
        last[row] = last[closed] = v
    labels, prefix_masks = _label_table(k)

    masks = [0] * n
    seen = [0] * k  # seen[c] = vertices adjacent to an assigned vertex carrying c

    def dfs(i: int, wt: int, any_nonempty: bool, zero: int, w_cap: int):
        stats[0] += 1
        if stats[0] > node_budget:
            raise BudgetError(f"node budget {node_budget} exhausted")
        if i == n:
            return tuple(masks)
        future = supplied[i + 1]
        rest = full >> (i + 1) << (i + 1)
        delta = top[i + 1]
        rows = after[i]
        least = masks[twin[i]].bit_count() if twin[i] >= 0 else 0
        for m, mw, mcolors in labels:
            slack = w_cap - wt - mw
            if slack < 0 or mw < least:
                continue
            if not any_nonempty and m and m not in prefix_masks:
                continue
            masks[i] = m
            snapshot = None
            zero2 = zero
            if m == 0:
                zero2 |= 1 << i
            else:
                snapshot = seen.copy()
                for c in mcolors:
                    seen[c] |= nbr[i]
            r = None
            open_ = zero2 | rest
            pairs = widest = total = lack = 0
            needs = []
            for s in seen:
                t = (open_ & ~s).bit_count()
                pairs += t
                if t > widest:
                    widest = t
                need = zero2 & ~s
                if need:
                    needs.append(need)
                    total += need.bit_count()
                    lack |= need
            # each color with a need costs 1 to |need| more; U is scanned
            # only when those brackets do not decide
            if (pairs <= slack * ((delta if delta < widest else widest) + k)
                    and not lack & ~future and len(needs) <= slack):
                bound = 0
                if total > slack:
                    for need in needs:
                        size, maxcov = need.bit_count(), 0
                        for row in rows:
                            cc = (row & need).bit_count()
                            if cc > maxcov:
                                maxcov = cc
                                if cc == size:
                                    break
                        bound += -(-size // maxcov)
                if bound <= slack:
                    r = dfs(i + 1, wt + mw, any_nonempty or m != 0, zero2, w_cap)
            if snapshot is not None:
                seen[:] = snapshot
            if r is not None:
                return r
        return None

    # the full label on a greedy dominating set is always valid
    chosen = _greedy_cover(full, [row | 1 << v for v, row in enumerate(nbr)], [1] * n)
    # the counting bound at the root: T = k * n
    for w_cap in range(-(-k * n // (top[0] + k)), len(chosen) * k):
        r = dfs(0, 0, False, 0, w_cap)
        if r is not None:
            return r
    return tuple(fullc if v in chosen else 0 for v in range(n))


def min_rainbow(g: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exact minimum k-rainbow domination number with a witness labeling.

    This is the direct label-space search; see min_rainbow_via_cartesian for
    the independent route through the Cartesian product.
    """
    _validate_k(k)
    _check_cap(g)
    stats, masks = [0], [0] * g.n
    for sub, back in _component_subgraphs(g):
        for i, m in enumerate(_rainbow_fixed(sub, k, stats, node_budget)):
            masks[back[i]] = m
    labeling = RainbowLabeling(k, tuple(masks))
    return SolveResult(labeling.weight, labeling, stats[0])


def min_rainbow_via_cartesian(
    g: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Minimum k-rainbow domination computed as a minimum dominating set of
    the Cartesian product with K_k, re-checked (one that does not dominate
    is an internal fault) and read as a labeling by _cover_labeling."""
    _validate_k(k)
    if g.n * k > SOLVER_VERTEX_CAP:
        raise CapacityError(
            f"product with K_{k} exceeds the {SOLVER_VERTEX_CAP}-vertex solver cap"
        )
    prod = cartesian(g, _complete(k))
    res = min_dominating_set(prod, node_budget=node_budget)
    if not is_dominating_set(prod, res.witness):
        raise RainbowDomError("internal check failed: the witness does not dominate g x K_k")
    return SolveResult(res.value, _cover_labeling(g.n, res.witness, k), res.nodes_explored)


# ---------------------------------------------------------------------------
# 2-rainbow domination of lexicographic products, layer by layer


def _layer_costs(h: Graph, stats: list[int], budget: int) -> dict:
    """cost_h(C, R) for every nonempty color mask C and every color mask R,
    with one witness labeling of h each, as {(C, R): (cost, masks)}.

    cost_h(C, R) is the least weight of a 2-labeling of h whose labels use
    exactly the colors of C and in which every empty vertex sees, among its
    own neighbors in h, each color outside R. Each entry is one weighted
    cover over the sets of _rainbow_cover(h), read by _cover_labeling: the
    elements are 2x + c for each x and color c + 1 outside R, plus "c is
    used" at bit 2|h| + c per color of C; set 2x + c, color c + 1 on x, is
    the closed neighborhood of 2x + c in h x K_2 plus "c is used" when c + 1
    is in C, and empty (never taken) when it is not. Every entry is feasible
    for nonempty h, since the sets of x alone cover every element of x.
    """
    n = h.n
    units = _rainbow_cover(h)
    table = {}
    for cmask in (1, 2, 3):
        cover = [s | 1 << (2 * n + i % 2) if cmask >> i % 2 & 1 else 0
                 for i, s in enumerate(units)]
        for r in range(4):
            need = 3 & ~r
            full = cmask << (2 * n)
            for x in range(n):
                full |= need << (2 * x)
            chosen = _min_weighted_cover(full, cover, [1] * (2 * n), stats, budget)
            table[cmask, r] = (len(chosen), _cover_labeling(n, chosen, 2).masks)
    return table


def _min_rainbow_lex(
    g: Graph, h: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET, lo: int = 0,
    hi: int | None = None,
) -> SolveResult | None:
    """Exact 2-rainbow domination number of the lexicographic product g o h,
    with a witness labeling in the product's row-major index. The cover
    searches the weights [lo, hi) (see _min_weighted_cover): lo a proven
    lower bound, hi a weight already attained (say by a certified upper
    labeling), and None means no weight under hi is attained, so the value
    is hi.

    Each vertex of the layer {a} x V(h) sees every vertex of each
    neighboring layer, so a layer meets the rest of the product only through
    its color union C(a). The layer is valid iff each of its empty vertices
    sees, inside its own copy of h, the colors missing from R(a), the union
    of C(b) over the neighbors b of a. Hence the value is the least
    sum over a of cost_h(C(a), R(a)) (see _layer_costs): a labeling of g
    (_labeling_cover) whose label (C, R) on a owns the colors outside R,
    emits C to the neighbors of a, and costs cost_h(C, R). Two labels
    (C1, R1) and (C2, R2) merge into (C1 | C2, R1 & R2), at no more than
    their summed cost (OR the two witness labelings), so the labels are
    closed under merging. h need not be connected. The search branches on
    the lowest uncovered element in bandwidth order and remembers the
    sub-covers it refuted, so it works along the order much like a dynamic
    program over its frontier.

    The table solves and the cover share one node budget; a BudgetError of
    the cover carries the level it was refuting (see _min_weighted_cover),
    one of the table solves none.
    """
    _check_cap(g)
    _check_cap(h)
    if g.n == 0 or h.n == 0:
        return SolveResult(0, RainbowLabeling(2, ()), 0)
    stats = [0]
    try:
        table = _layer_costs(h, stats, node_budget)
    except BudgetError as exc:
        exc.level = None  # a level of a cover of h bounds nothing here
        raise
    keys = list(table)
    labels = [(3 & ~r, cmask, table[cmask, r][0]) for cmask, r in keys]
    chosen = _labeling_cover(g, 2, labels, stats, node_budget, lo=lo, hi=hi)
    if chosen is None:
        return None
    masks = [0] * (g.n * h.n)
    for a, j in chosen:
        for x, m in enumerate(table[keys[j]][1]):
            masks[a * h.n + x] |= m
    labeling = RainbowLabeling(2, tuple(masks))
    return SolveResult(labeling.weight, labeling, stats[0])


def _rainbow_cover(g: Graph) -> list[int]:
    """The closed neighborhoods of the Cartesian product g x K_2: a choice of
    them is a 2-labeling of its size (_cover_labeling; set 2v + c is color
    c + 1 on v), valid iff the sets cover every element."""
    prod = cartesian(g, _complete(2))
    return [row | 1 << x for x, row in enumerate(prod.adj)]


def _cover_labeling(n: int, chosen, k: int) -> RainbowLabeling:
    """The k-labeling of an n-vertex graph g that a choice of vertices (or
    closed neighborhoods) of g x K_k stands for: k v + c is color c + 1 on v."""
    masks = [0] * n
    for i in chosen:
        masks[i // k] |= 1 << (i % k)
    return RainbowLabeling(k, tuple(masks))


def enumerate_min_2rdfs(
    g: Graph, cap: int, *, node_budget: int = DEFAULT_NODE_BUDGET
):
    """Yield every minimum 2-rainbow dominating labeling of g, without
    duplicates, in lexicographic label order. Raises CapExceededError after
    yielding `cap` labelings if more exist; treat the results as partial.

    After min_rainbow gives the weight w, a depth-first search lists the
    covers of _rainbow_cover(g) of size w in label order: index i holds set
    i ^ 1, so color 2 on v, the higher mask bit, is decided first, and each
    set is decided in index order, exclusion before inclusion. A set that
    covers nothing new is never included, so each labeling comes once. A
    node is cut when some element is covered by no set from i on, or when
    ceil(|rem| / maxcov) more sets, maxcov the most of the uncovered
    elements rem that one set from i on covers, would pass w. The
    search stops at cap + 1 labelings, so the work grows with cap, not with
    how many labelings exist. Both searches draw on the one node budget, and
    nothing is yielded before the listing ends."""
    if cap <= 0:
        raise PreconditionError("cap must be positive")
    base = min_rainbow(g, 2, node_budget=node_budget)
    units = _rainbow_cover(g)
    cover = [units[i ^ 1] for i in range(len(units))]
    full, w = (1 << len(cover)) - 1, base.value
    gone = [full] * (len(cover) + 1)  # gone[i]: what no set >= i covers
    for i in range(len(cover) - 1, -1, -1):
        gone[i] = gone[i + 1] & ~cover[i]
    nodes, found = [base.nodes_explored], []

    def lex(i: int, covered: int, chosen: list[int]) -> bool:
        """Collect the covers extending chosen by sets >= i; True at cap + 1."""
        nodes[0] += 1
        if nodes[0] > node_budget:
            raise BudgetError(f"node budget {node_budget} exhausted")
        rem = full & ~covered
        if not rem:
            found.append(list(chosen))
            return len(found) > cap
        if rem & gone[i]:
            return False
        maxcov = max((s & rem).bit_count() for s in cover[i:])
        if len(chosen) + -(-rem.bit_count() // maxcov) > w:
            return False
        if lex(i + 1, covered, chosen):
            return True
        if not cover[i] & rem or len(chosen) >= w:
            return False
        chosen.append(i)
        stop = lex(i + 1, covered | cover[i], chosen)
        chosen.pop()
        return stop

    lex(0, 0, [])
    for chosen in found[:cap]:
        yield _cover_labeling(g.n, [i ^ 1 for i in chosen], 2)
    if len(found) > cap:
        raise CapExceededError(f"more than {cap} minimum labelings exist")


def pair_witness(h: Graph) -> PairWitness | None:
    """The pair witness of h: {1,2} on u and {1} on v, a minimum 2-RDF of
    weight 3, or None when h has none. No search runs.

    By Proposition 1 of the README, such a labeling is a minimum 2-RDF
    exactly when u has degree n - 2, v is its one non-neighbor, and h has
    no 2-RDF of weight 2 or less: n <= 2, a universal vertex, or two
    vertices that see every other vertex. Those two each have degree n - 2
    and are each other's non-neighbor. u is the lowest-index vertex of
    degree n - 2. So the answer is None exactly when rd_2(h) != 3 or no
    minimum 2-RDF of h uses {1,2}.
    """
    n = h.n
    deg = [m.bit_count() for m in h.adj]
    if n <= 2 or n - 1 in deg:
        return None
    spare = {x: (h.full_mask & ~h.closed(x)).bit_length() - 1
             for x in range(n) if deg[x] == n - 2}  # vertex -> its one non-neighbor
    if not spare or any(deg[y] == n - 2 for y in spare.values()):
        return None
    u = min(spare)
    masks = [0] * n
    masks[u], masks[spare[u]] = 3, 1
    return PairWitness(u, spare[u], RainbowLabeling(2, tuple(masks)))
