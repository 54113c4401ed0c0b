import hashlib
import itertools
import random

import pytest

from rainbowdom import (
    BudgetError,
    CapExceededError,
    CapacityError,
    Graph,
    PreconditionError,
    RainbowLabeling,
    components,
    enumerate_connected_graphs,
    enumerate_min_2rdfs,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_double_c4,
    gen_path,
    gen_star,
    induced_subgraph,
    is_dominating_set,
    is_k_rainbow_dominating,
    is_total_dominating_set,
    lexicographic,
    min_couple_cost,
    min_dominating_set,
    min_rainbow,
    min_rainbow_via_cartesian,
    min_total_dominating_set,
    pair_witness,
    path_pattern_labeling,
)
from rainbowdom import solvers
from rainbowdom.graphs import iter_bits
from rainbowdom.solvers import _layer_costs, _min_rainbow_lex, _min_weighted_cover

from conftest import (
    brute_layer_costs,
    brute_min_2rdfs,
    brute_min_cover,
    brute_min_dominating,
    brute_min_rainbow,
    brute_min_total_dominating,
    enumerate_graphs,
)

# a fixed graph dense enough to make the cover engine branch
BRANCHY = from_edge_list(18, [
    (0, 4), (0, 7), (0, 9), (0, 11), (0, 12), (0, 15), (1, 6), (1, 9),
    (1, 10), (2, 3), (2, 4), (3, 7), (3, 12), (4, 13), (5, 9), (5, 12),
    (5, 13), (5, 15), (6, 8), (8, 16), (9, 15), (9, 17), (10, 11),
    (10, 15), (10, 16), (11, 12), (11, 14), (11, 17), (12, 16), (13, 17),
    (14, 15), (16, 17), (7, 16),
])


class TestDominationSolvers:
    def test_gamma_matches_oracle(self, corpus5):
        for g in corpus5:
            res = min_dominating_set(g)
            assert res.value == brute_min_dominating(g)
            assert is_dominating_set(g, res.witness)
            assert len(res.witness) == res.value

    def test_gamma_t_matches_oracle(self, corpus5):
        for g in corpus5:
            if g.n == 1:
                continue
            res = min_total_dominating_set(g)
            assert res.value == brute_min_total_dominating(g)
            assert is_total_dominating_set(g, res.witness)

    def test_known_path_values(self):
        # gamma(P_n) = ceil(n/3)
        for n in range(1, 13):
            assert min_dominating_set(gen_path(n)).value == -(-n // 3)
        assert min_total_dominating_set(gen_path(7)).value == 4

    def test_disconnected_sum(self):
        g = from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        assert min_dominating_set(g).value == \
            min_dominating_set(gen_path(3)).value + min_dominating_set(gen_cycle(4)).value

    def test_isolated_vertex_rejected(self):
        with pytest.raises(PreconditionError,
                           match="^isolated vertex 2 admits no total domination$"):
            min_total_dominating_set(from_edge_list(3, [(0, 1)]))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            min_dominating_set(gen_path(65))

    def test_capacity_before_isolated_vertex(self):
        # the size cap is checked first: 65 vertices, one of them isolated
        g = from_edge_list(65, [(v, v + 1) for v in range(63)])
        with pytest.raises(CapacityError):
            min_total_dominating_set(g)

    def test_budget(self):
        with pytest.raises(BudgetError):
            min_dominating_set(BRANCHY, node_budget=3)
        # a generous budget succeeds on the same input
        assert min_dominating_set(BRANCHY).value >= 1


# (value, nodes_explored, sorted witness) of gamma and gamma_t. The search is
# deterministic, so a changed count means the unit-cost cover search now
# explores a different tree: a search regression even when the value holds
NODE_PINS = {
    "P10": (gen_path(10), (4, 0, (1, 4, 7, 8)), (6, 8, (1, 2, 5, 6, 7, 8))),
    "C12": (gen_cycle(12), (4, 0, (0, 3, 6, 9)), (6, 0, (0, 1, 4, 5, 8, 9))),
    "DC4": (gen_double_c4(), (3, 6, (0, 1, 4)), (3, 5, (0, 1, 4))),
    "K1,5": (gen_star(6), (1, 0, (0,)), (2, 0, (0, 1))),
    "dense16": (from_edge_list(16, [
        (0, 3), (0, 5), (0, 8), (0, 11), (1, 2), (1, 3), (1, 4), (1, 11),
        (1, 12), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (2, 11), (2, 14),
        (3, 5), (3, 7), (3, 10), (3, 11), (3, 12), (3, 14), (3, 15), (4, 10),
        (4, 12), (4, 15), (5, 8), (5, 9), (5, 12), (5, 15), (6, 8), (6, 13),
        (6, 14), (7, 13), (7, 15), (8, 10), (8, 12), (8, 13), (8, 15), (9, 11),
        (10, 11), (10, 14), (12, 14), (13, 14), (13, 15),
    ]), (3, 41, (11, 12, 13)), (4, 33, (2, 3, 5, 6))),
    "sparse16": (from_edge_list(16, [
        (0, 1), (0, 10), (0, 11), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4),
        (2, 9), (3, 11), (4, 8), (4, 15), (5, 6), (5, 7), (5, 14), (6, 12),
        (6, 14), (7, 12), (11, 13),
    ]), (6, 162, (0, 1, 4, 5, 6, 11)), (6, 88, (0, 2, 4, 5, 6, 11))),
    "branchy18": (BRANCHY, (5, 74, (0, 2, 6, 15, 17)), (6, 111, (0, 1, 4, 6, 11, 12))),
    "P5+C7": (from_edge_list(12, [
        (0, 1), (1, 2), (2, 3), (3, 4),
        (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (5, 11),
    ]), (5, 0, (1, 3, 5, 8, 9)), (7, 0, (1, 2, 3, 5, 6, 8, 9))),
}


@pytest.mark.parametrize("name", sorted(NODE_PINS))
def test_pinned_node_counts(name):
    g, gamma_pin, gamma_t_pin = NODE_PINS[name]
    for solve, pin in ((min_dominating_set, gamma_pin), (min_total_dominating_set, gamma_t_pin)):
        res = solve(g)
        assert (res.value, res.nodes_explored, tuple(sorted(res.witness))) == pin, solve.__name__


# (value, nodes_explored, witness masks) of rd_2 and rd_3 by min_rainbow's
# direct search, on graphs of NODE_PINS. The search is deterministic, so a
# changed count means its bounds or symmetry rules now cut a different tree,
# and a changed witness that it no longer finds the same first labeling
RAINBOW_PINS = {
    "P10": ((6, 17, (0, 3, 0, 1, 0, 2, 0, 1, 0, 2)),
            (8, 92, (1, 0, 6, 0, 1, 0, 6, 0, 1, 1))),
    "C12": ((6, 14, (0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 2)),
            (9, 103, (0, 1, 0, 6, 0, 1, 0, 6, 0, 1, 0, 6))),
    "DC4": ((3, 8, (1, 0, 2, 0, 0, 2, 0)), (4, 11, (3, 0, 4, 0, 0, 4, 0))),
    "K1,5": ((2, 0, (3, 0, 0, 0, 0, 0)), (3, 0, (7, 0, 0, 0, 0, 0))),
    "dense16": ((6, 1152, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 3)),
                (7, 3236, (0, 0, 0, 3, 4, 0, 1, 0, 4, 4, 0, 0, 0, 4, 0, 0))),
    "P5+C7": ((7, 20, (1, 0, 2, 0, 1, 0, 1, 0, 2, 0, 1, 2)),
              (10, 73, (1, 0, 6, 0, 1, 0, 1, 0, 6, 0, 1, 6))),
}


@pytest.mark.parametrize("name", sorted(RAINBOW_PINS))
def test_pinned_rainbow_node_counts(name):
    g = NODE_PINS[name][0]
    for k, pin in zip((2, 3), RAINBOW_PINS[name]):
        res = min_rainbow(g, k)
        assert (res.value, res.nodes_explored, res.witness.masks) == pin, k


def _record(res):
    """(value, witness, nodes_explored) of a SolveResult, the witness as a
    sorted tuple of vertices or the labeling's masks."""
    w = res.witness
    return (res.value, tuple(sorted(w)) if isinstance(w, frozenset) else w.masks,
            res.nodes_explored)


# sha256 of repr(rows) in test_small_solves_are_pinned, recorded at commit
# f679953, before the per-call set-up of the solvers was cut. Each of these
# solves visits few nodes, so most of its time was set-up: a cheaper set-up
# must leave every value, witness and node count of them as it was
SMALL_SOLVES_DIGEST = "04dc85123f38e9bd255128c4cc2ac994ff96cf48e0bb2123c040ad51093cc616"


def test_small_solves_are_pinned(corpus6):
    rows = []
    for g in corpus6:
        row = [_record(min_dominating_set(g))]
        if g.n >= 2:  # K1's vertex is isolated: no total dominating set
            row.append(_record(min_total_dominating_set(g)))
        row += [_record(min_rainbow(g, k)) for k in (1, 2, 3)]
        row.append(_record(min_rainbow_via_cartesian(g, 2)))
        cost, couple = min_couple_cost(g, 2, 3)
        row.append((cost, tuple(sorted(couple.a)), tuple(sorted(couple.b))))
        rows.append(row)
    assert len(rows) == 143
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SMALL_SOLVES_DIGEST


def test_component_loop_sums_the_components():
    # a one-component input is solved as it is, a disconnected one component
    # by component: its value and node count are the sums over its
    # components, and its witness on each component is that component's own
    solves = [
        ("gamma", min_dominating_set),
        ("gamma_t", min_total_dominating_set),
        *((f"rd_{k}", lambda g, k=k: min_rainbow(g, k)) for k in (1, 2, 3)),
        ("cartesian rd_2", lambda g: min_rainbow_via_cartesian(g, 2)),
    ]
    checks = 0
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            parts = [induced_subgraph(g, comp) for comp in components(g)]
            if len(parts) == 1:
                continue
            for name, solve in solves:
                if name == "gamma_t" and 0 in g.adj:
                    continue
                whole, own = solve(g), [solve(sub) for sub, _ in parts]
                assert whole.value == sum(r.value for r in own), (name, g.adj)
                assert whole.nodes_explored == sum(r.nodes_explored for r in own), (name, g.adj)
                for (sub, back), r in zip(parts, own):
                    if isinstance(whole.witness, frozenset):
                        mine = frozenset(i for i, v in enumerate(back) if v in whole.witness)
                        assert mine == r.witness, (name, g.adj)
                    else:
                        mine = tuple(whole.witness.masks[v] for v in back)
                        assert mine == r.witness.masks, (name, g.adj)
                checks += 1
    assert checks == 338


def _first_symmetric_minimum(g: Graph, k: int) -> tuple[int, ...]:
    """The masks of min_rainbow's witness on a connected g, by brute force.
    It is the greedy full labeling when that is a minimum (the deepening
    stops below its weight), else the lexicographically first minimum
    labeling that passes both symmetry rules: the first nonempty label is
    {1..t}, and a vertex carries at least as many colors as its nearest
    earlier twin (equal open or equal closed neighborhoods)."""
    n, top = g.n, (1 << k) - 1
    closed = [g.adj[v] | 1 << v for v in range(n)]
    twin = [next((u for u in range(v - 1, -1, -1)
                  if g.adj[u] == g.adj[v] or closed[u] == closed[v]), -1) for v in range(n)]
    prefixes = {(1 << t) - 1 for t in range(1, k + 1)}
    best, first = k * n + 1, None
    for masks in itertools.product(range(top + 1), repeat=n):
        weight = sum(m.bit_count() for m in masks)
        if weight >= best:
            continue
        lead = next((m for m in masks if m), 0)
        if lead and lead not in prefixes:
            continue
        if any(t >= 0 and masks[v].bit_count() < masks[t].bit_count()
               for v, t in enumerate(twin)):
            continue
        seen = [0] * n
        for v, m in enumerate(masks):
            for u in iter_bits(g.adj[v]):
                seen[u] |= m
        if all(m or seen[v] == top for v, m in enumerate(masks)):
            best, first = weight, masks
    # the greedy dominating set: most new vertices, lowest index on ties
    chosen, covered = set(), 0
    while covered != g.full_mask:
        v = max(range(n), key=lambda u: ((closed[u] & ~covered).bit_count(), -u))
        chosen.add(v)
        covered |= closed[v]
    if k * len(chosen) == best:
        return tuple(top if v in chosen else 0 for v in range(n))
    return first


@pytest.mark.parametrize("k, n_max", [(1, 6), (2, 6), (3, 5)])
def test_rainbow_witness_is_the_first_symmetric_minimum(k, n_max):
    # the direct search's pruning is admissible: it finds the first labeling
    # the plain enumeration in its order finds
    for n in range(1, n_max + 1):
        for g in enumerate_connected_graphs(n):
            res = min_rainbow(g, k)
            expected = _first_symmetric_minimum(g, k)
            assert (res.value, res.witness.masks) == (sum(m.bit_count() for m in expected),
                                                      expected), (g.adj, k)


def random_set_system(rng: random.Random):
    """(full, cover, cost, excl) shaped like the couple and layer covers. The
    elements are the vertices of a random graph on up to 10 vertices plus
    one more, n. Each vertex u has a group of sets: the unions of one or two
    bases, N[u] and N(u) plus random elements (only these may hold n). A
    base costs 1 to 3 and a union one plus the sum of (cost - 1) over its
    bases, so two sets of a group merge into a third of no higher cost, and
    banning the rest of a set's group below it (excl) keeps a cheapest
    cover in reach."""
    n = rng.randint(1, 10)
    adj = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    cover, cost, excl = [], [], []
    for u in range(n):
        extra = rng.getrandbits(n) & rng.getrandbits(n) | rng.getrandbits(1) << n
        bases = [adj[u] | 1 << u, adj[u] | extra]
        weights = [rng.randint(1, 3) for _ in bases]
        first = len(cover)
        for pick in range(1, 1 << rng.choice((1, 2, 2))):
            union, weight = 0, 1
            for i in iter_bits(pick):
                union |= bases[i]
                weight += weights[i] - 1
            cover.append(union)
            cost.append(weight)
        group = (1 << len(cover)) - (1 << first)
        excl += [group & ~(1 << x) for x in range(first, len(cover))]
    return (2 << n) - 1, cover, cost, excl


class TestWeightedCover:
    """The cover engine against exhaustive search on seeded random set
    systems, in every depth-first mode."""

    def test_matches_brute_force(self):
        rng = random.Random(2011)
        infeasible = 0
        for _ in range(300):
            full, cover, cost, excl = random_set_system(rng)
            sets = [set(iter_bits(s)) for s in cover]
            best = brute_min_cover(set(iter_bits(full)), sets, cost)

            def weight(chosen):
                union = set()
                for u in chosen:
                    union |= sets[u]
                assert union >= set(iter_bits(full)), (cover, chosen)
                return sum(cost[u] for u in chosen)

            def solve(**mode):
                return _min_weighted_cover(full, cover, cost, [0], 10**6, **mode)

            for ex in (None, excl):
                plain = solve(excl=ex)
                assert (plain is None) == (best is None)
                assert plain is None or weight(plain) == best
            if best is None:
                infeasible += 1
            for limit in range(0, (best or 0) + 3):
                # the one level [limit, limit + 1): any cover of cost <= limit
                at_most = solve(lo=limit, hi=limit + 1)
                assert (at_most is None) == (best is None or best > limit)
                assert at_most is None or weight(at_most) <= limit
                # hi: the cheapest cover, None when none costs under limit
                for ex in (None, excl):
                    under = solve(excl=ex, hi=limit)
                    assert (under is None) == (best is None or best >= limit)
                    assert under is None or weight(under) == best
                # lo at most the optimum: the levels under lo hold no cover
                if best is not None and limit <= best:
                    for ex in (None, excl):
                        assert weight(solve(excl=ex, lo=limit)) == best
        assert 0 < infeasible < 100, infeasible

    def test_one_level_out_of_budget_names_its_level(self):
        # [m, m + 1) is a level like any other: a BudgetError carries m
        g = gen_path(9)  # gamma 3, and the engine's root bound is 3
        cover = [g.closed(v) for v in range(g.n)]
        with pytest.raises(BudgetError) as exc:
            _min_weighted_cover(g.full_mask, cover, [1] * g.n, [0], 1, lo=3, hi=4)
        assert exc.value.level == 3

    @pytest.mark.parametrize("memo_cap", [0, 1])
    def test_memo_cap_changes_no_result(self, monkeypatch, memo_cap):
        def solve_all():
            out = {}
            for name, (g, _, _) in NODE_PINS.items():
                out[name, "gamma"] = min_dominating_set(g)
                out[name, "gamma_t"] = min_total_dominating_set(g)
            for n in (8, 12, 16):
                out[f"P{n}", "o P4"] = _min_rainbow_lex(gen_path(n), gen_path(4))
            return out

        expect = solve_all()
        monkeypatch.setattr(solvers, "REFUTED_CAP", memo_cap)
        got = solve_all()
        for key, res in got.items():
            assert (res.value, res.witness) == (expect[key].value, expect[key].witness), key
            assert res.nodes_explored >= expect[key].nodes_explored, key
        assert got["P16", "o P4"].nodes_explored > expect["P16", "o P4"].nodes_explored
        if memo_cap == 0:
            # no refutation kept: the plain depth-first search's counts
            assert got["branchy18", "gamma"].nodes_explored == 79
            assert got["sparse16", "gamma_t"].nodes_explored == 96
            assert got["P16", "o P4"].nodes_explored == 1857


class TestMinRainbow:
    def test_matches_oracle_k2(self, corpus5):
        for g in corpus5:
            res = min_rainbow(g, 2)
            assert res.value == brute_min_rainbow(g, 2)
            assert is_k_rainbow_dominating(g, res.witness)
            assert res.witness.weight == res.value

    def test_matches_oracle_k3(self):
        for g in (gen_path(4), gen_cycle(5), gen_star(4), gen_complete(4)):
            assert min_rainbow(g, 3).value == brute_min_rainbow(g, 3)

    def test_k1_equals_gamma(self, corpus5):
        for g in corpus5:
            assert min_rainbow(g, 1).value == min_dominating_set(g).value

    def test_frozen_values(self):
        assert min_rainbow(gen_path(1), 2).value == 1
        assert min_rainbow(gen_path(2), 2).value == 2
        assert min_rainbow(gen_path(4), 2).value == 3
        assert min_rainbow(gen_path(5), 2).value == 3
        assert min_rainbow(gen_path(6), 2).value == 4
        assert min_rainbow(gen_cycle(4), 2).value == 2
        assert min_rainbow(gen_double_c4(), 2).value == 3
        assert min_rainbow(gen_path(7), 3).value == 6

    def test_both_routes_agree(self, corpus5):
        for g in corpus5:
            direct = min_rainbow(g, 2).value
            via = min_rainbow_via_cartesian(g, 2).value
            assert direct == via
            assert is_k_rainbow_dominating(g, min_rainbow_via_cartesian(g, 2).witness)

    def test_both_routes_agree_k3(self):
        for g in (gen_path(5), gen_cycle(6), gen_star(5)):
            assert min_rainbow(g, 3).value == min_rainbow_via_cartesian(g, 3).value

    def test_cartesian_witness_validates_and_weighs_its_value(self, corpus5):
        for g in corpus5:
            for k in (1, 2, 3, 4):
                res = min_rainbow_via_cartesian(g, k)
                assert res.witness.k == k and res.witness.n == g.n
                assert is_k_rainbow_dominating(g, res.witness), (g.adj, k)
                assert res.witness.weight == res.value, (g.adj, k)
                assert res.value == min_rainbow(g, k).value, (g.adj, k)

    def test_disconnected_sum(self):
        g = from_edge_list(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 4)])
        assert min_rainbow(g, 2).value == \
            min_rainbow(gen_path(4), 2).value + min_rainbow(gen_cycle(4), 2).value

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            min_rainbow(gen_path(3), 0)
        with pytest.raises(ValueError):
            min_rainbow(gen_path(3), 9)

    def test_matches_oracle_on_twins(self):
        # twins are cut by a symmetry rule; these graphs are mostly twins
        k23 = from_edge_list(5, [(a, b) for a in range(2) for b in range(2, 5)])
        k4_minus_edge = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        for g in (gen_star(5), gen_star(6), k23, gen_complete(4), gen_cycle(4),
                  gen_double_c4(), k4_minus_edge):
            for k in (2, 3):
                res = min_rainbow(g, k)
                assert res.value == brute_min_rainbow(g, k), (g.adj, k)
                assert is_k_rainbow_dominating(g, res.witness)

    def test_path_closed_form_within_a_small_budget(self):
        # rd_2(P_n) = floor(n/2) + 1 (Bresar & Kraner Sumenjak, Discrete Appl. Math. 155, 2007)
        for n in range(1, 65):
            assert min_rainbow(gen_path(n), 2, node_budget=10_000).value == n // 2 + 1, n

    def test_cycle_closed_form_within_a_small_budget(self):
        # rd_2(C_n) = floor(n/2) + ceil(n/4) - floor(n/4), from the same paper
        for n in range(3, 65):
            want = n // 2 + -(-n // 4) - n // 4
            assert min_rainbow(gen_cycle(n), 2, node_budget=10_000).value == want, n

    def test_budget(self):
        with pytest.raises(BudgetError):
            min_rainbow(gen_path(20), 2, node_budget=5)

    def test_capacity_via_cartesian(self):
        # the product with K_2 crosses the solver cap before g itself does
        with pytest.raises(CapacityError):
            min_rainbow_via_cartesian(gen_path(33), 2)


def disjoint_edges(k: int) -> Graph:
    return from_edge_list(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


# (graph, cap, N): the listing of enumerate_min_2rdfs, min_rainbow's nodes
# included, ends within node budget N (normally, or with CapExceededError
# when more than cap labelings exist) and not within N - 1. The search is
# deterministic, so a changed N means the listing now explores a different
# tree, even when what it yields holds
ENUM_PINS = {
    "P2": (gen_path(2), 10, 19),
    "P4": (gen_path(4), 100, 84),
    "C6": (gen_cycle(6), 1000, 424),
    "DC4": (gen_double_c4(), 1000, 48),
    "P10": (gen_path(10), 1000, 568),
    "12K2": (disjoint_edges(12), 10, 106),
    "20K2": (disjoint_edges(20), 40, 266),
}


class TestEnumerate:
    @pytest.mark.parametrize("name", sorted(ENUM_PINS))
    def test_pinned_node_counts(self, name):
        g, cap, nodes = ENUM_PINS[name]
        try:
            list(enumerate_min_2rdfs(g, cap, node_budget=nodes))
        except CapExceededError:
            pass
        with pytest.raises(BudgetError):
            list(enumerate_min_2rdfs(g, cap, node_budget=nodes - 1))

    def test_k2_complete_list(self):
        got = [f.masks for f in enumerate_min_2rdfs(gen_path(2), 10)]
        assert got == [(0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0)]

    def test_matches_brute_filter(self, corpus5):
        for g in [gen_path(2), gen_path(3), gen_path(4), gen_cycle(3),
                  gen_cycle(4), gen_cycle(5), gen_star(4)] + corpus5:
            got = sorted(f.masks for f in enumerate_min_2rdfs(g, 100000))
            assert got == brute_min_2rdfs(g), g.adj

    def test_label_order_is_strictly_increasing(self, corpus5):
        two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
        p3_k1 = from_edge_list(4, [(0, 1), (1, 2)])
        for g in corpus5 + [two_k2, p3_k1]:
            got = [f.masks for f in enumerate_min_2rdfs(g, 100000)]
            assert all(a < b for a, b in zip(got, got[1:])), g.adj

    def test_p4_count(self):
        assert sum(1 for _ in enumerate_min_2rdfs(gen_path(4), 100000)) == 12

    def test_all_yield_minimum_valid(self):
        g = gen_cycle(5)
        best = min_rainbow(g, 2).value
        for f in enumerate_min_2rdfs(g, 100000):
            assert f.weight == best
            assert is_k_rainbow_dominating(g, f)

    def test_cap_exceeded_after_partial_yield(self):
        seen = []
        with pytest.raises(CapExceededError):
            for f in enumerate_min_2rdfs(gen_path(2), 3):
                seen.append(f.masks)
        assert seen == [(0, 3), (1, 1), (1, 2)]

    @pytest.mark.parametrize("n_edges,cap", [(12, 10), (20, 40)])
    def test_cap_bounds_the_work(self, n_edges, cap):
        # n disjoint edges have 6**n minimum labelings; the search stops at the
        # first cap + 1 in label order, well inside a small node budget
        g = disjoint_edges(n_edges)
        k2 = [(0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0)]
        want = [sum(p, ()) for p in itertools.islice(itertools.product(k2, repeat=n_edges), cap)]
        seen = []
        with pytest.raises(CapExceededError):
            for f in enumerate_min_2rdfs(g, cap, node_budget=5000):
                seen.append(f.masks)
        assert seen == want

    def test_cap_exactly_count_is_silent(self):
        assert len(list(enumerate_min_2rdfs(gen_path(2), 6))) == 6

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_min_2rdfs(gen_path(2), 0))


class TestPairWitness:
    def test_path4(self):
        pw = pair_witness(gen_path(4))
        assert (pw.u, pw.v) == (1, 3)
        assert pw.labeling.masks == (0, 3, 0, 1)

    def test_k2_has_no_pair(self):
        # rd_2(K2) = 2: {1,2} on one end is minimum, but the pair case is rd_2 = 3
        assert pair_witness(gen_path(2)) is None

    def test_spider_nonadjacent_pair(self, spider):
        pw = pair_witness(spider)
        assert (pw.u, pw.v) == (0, 4)
        assert pw.labeling.masks == (3, 0, 0, 0, 1)
        assert not spider.has_edge(pw.u, pw.v)

    def test_v_normalized_to_color1(self):
        for h in (gen_path(4), gen_path(6), gen_star(4), from_edge_list(4, [(0, 1), (1, 2)])):
            pw = pair_witness(h)
            if pw is not None:
                assert pw.labeling.masks[pw.v] == 1

    def test_no_pair_cases(self, spider):
        for h in (gen_path(5), gen_cycle(5), gen_double_c4()):
            assert pair_witness(h) is None

    def test_agrees_with_enumeration(self, corpus5):
        # a pair witness exists iff rd_2 = 3 and some minimum labeling uses the
        # full label; the brute-force list shares no code with the degree rule
        for g in corpus5:
            minima = brute_min_2rdfs(g)
            has_pair = brute_min_rainbow(g, 2) == 3 and any(3 in masks for masks in minima)
            pw = pair_witness(g)
            assert (pw is not None) == has_pair
            if pw is not None:
                assert pw.labeling.masks in minima

    def test_degree_rule_on_random_graphs(self):
        # disconnected graphs included: a pair exists iff rd_2 = 3 and some
        # vertex has degree n - 2
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 9)
            p = rng.random()
            g = from_edge_list(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                   if rng.random() < p])
            pw = pair_witness(g)
            rd2 = min_rainbow(g, 2).value
            assert (pw is not None) == (rd2 == 3 and any(g.degree(x) == n - 2 for x in range(n)))
            if pw is not None:
                assert pw.labeling.weight == 3 and is_k_rainbow_dominating(g, pw.labeling)
                assert pw.labeling.masks[pw.u] == 3 and pw.labeling.masks[pw.v] == 1

    def test_one_budget_for_the_call(self, monkeypatch):
        # the call spends no node: it takes no budget and runs no search
        def no_search(*args, **kwargs):
            raise AssertionError("pair_witness searched")

        for name in ("min_rainbow", "_min_weighted_cover", "_rainbow_fixed"):
            monkeypatch.setattr(solvers, name, no_search)
        assert pair_witness(gen_double_c4()) is None
        assert pair_witness(gen_path(4)).u == 1
        with pytest.raises(TypeError):
            pair_witness(gen_path(4), node_budget=10)

    def test_past_the_solver_cap(self):
        # the star K_{1,68} plus an isolated vertex: 70 vertices, no search
        h = from_edge_list(70, [(0, i) for i in range(1, 69)])
        pw = pair_witness(h)
        assert (pw.u, pw.v) == (0, 69)
        f = path_pattern_labeling(9, h)
        assert f.weight == 9 and is_k_rainbow_dominating(lexicographic(gen_path(9), h), f)


# second factors of the layer reduction tests, disconnected ones included
LEX_H = [
    gen_path(1), gen_path(2), gen_path(3), gen_complete(3), gen_path(4),
    gen_cycle(4), gen_star(4), gen_path(5), gen_cycle(5),
    from_edge_list(2, []), from_edge_list(3, [(0, 1)]),
    from_edge_list(4, [(0, 1), (2, 3)]),
]


class TestMinRainbowLex:
    def test_matches_direct_search(self, corpus5):
        gs = corpus5 + [
            from_edge_list(4, [(0, 1), (2, 3)]),
            from_edge_list(5, [(0, 1), (1, 2), (3, 4)]),
        ]
        solved = 0
        for g in gs:
            for h in LEX_H:
                if g.n * h.n > 30:
                    continue
                prod = lexicographic(g, h)
                res = _min_rainbow_lex(g, h)
                assert res.value == min_rainbow(prod, 2).value, (g.adj, h.adj)
                assert res.witness.weight == res.value
                assert is_k_rainbow_dominating(prod, res.witness), (g.adj, h.adj)
                solved += 1
        assert solved == 396

    def test_layer_costs_match_brute_force(self, corpus5):
        hs = corpus5 + [
            from_edge_list(2, []), from_edge_list(3, [(0, 1)]),
            from_edge_list(4, [(0, 1), (2, 3)]), from_edge_list(4, [(0, 1), (1, 2)]),
        ]
        for h in hs:
            table = _layer_costs(h, [0], 10**8)
            assert {key: w for key, (w, _) in table.items()} == brute_layer_costs(h), h.adj
            for (cmask, r), (w, masks) in table.items():
                used = 0
                for m in masks:
                    used |= m
                assert used == cmask and sum(m.bit_count() for m in masks) == w
                for x, m in enumerate(masks):
                    if m == 0:
                        seen = 0
                        for y in range(h.n):
                            if h.has_edge(x, y):
                                seen |= masks[y]
                        assert (3 & ~r) & ~seen == 0, (h.adj, cmask, r, masks)

    def test_empty_and_capacity(self):
        assert _min_rainbow_lex(gen_path(3), Graph(0, ())).value == 0
        with pytest.raises(CapacityError):
            _min_rainbow_lex(gen_path(65), gen_path(2))

    def test_budget(self):
        with pytest.raises(BudgetError):
            _min_rainbow_lex(gen_path(16), gen_path(4), node_budget=50)

    def test_p64_path_tiling_is_optimal_within_a_small_budget(self):
        # no labeling of P64 o P4 weighs less than the path tiling's 56
        assert _min_rainbow_lex(gen_path(64), gen_path(4), node_budget=20000, hi=56) is None


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


class TestLabelingCover:
    """_labeling_cover, the one search behind the layer cover and the couple
    cover (whose optimum tests/test_couples.py checks by brute force): its
    subset rule compares options of different vertices, and each vertex
    takes at most one label, also on disconnected factors and isolated
    vertices."""

    def test_layer_cover_matches_direct_search(self, monkeypatch):
        # values, the answer to hi and witnesses, in bandwidth order, on a
        # fixed set of h and on random ones, disconnected ones too
        real, searched = solvers._labeling_cover, []

        def recording(g, k, labels, stats, budget, *, lo=0, hi=None):
            pairs = real(g, k, labels, stats, budget, lo=lo, hi=hi)
            if pairs is not None and hi is not None:  # no greedy cover
                searched.append(pairs)
            return pairs

        monkeypatch.setattr(solvers, "_labeling_cover", recording)
        rng = random.Random(1975)
        hs = [gen_complete(1), gen_path(2), gen_path(4), gen_cycle(5),
              from_edge_list(4, [(0, 1), (1, 2)])]
        for _ in range(60):
            g = _random_graph(rng, rng.randint(1, 7), 0.35)
            for h in hs + [_random_graph(rng, rng.randint(1, 4), 0.5) for _ in range(2)]:
                prod = lexicographic(g, h)
                value = min_rainbow(prod, 2).value
                res = _min_rainbow_lex(g, h)
                assert res.value == res.witness.weight == value, (g.adj, h.adj)
                assert is_k_rainbow_dominating(prod, res.witness), (g.adj, h.adj)
                assert _min_rainbow_lex(g, h, hi=value) is None
                res = _min_rainbow_lex(g, h, hi=value + 1)
                assert res.value == value and is_k_rainbow_dominating(prod, res.witness)
                pairs = searched.pop()
                assert len({a for a, _ in pairs}) == len(pairs), (g.adj, h.adj, pairs)
        assert not searched
