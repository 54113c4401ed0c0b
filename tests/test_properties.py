"""Invariant properties on randomized small graphs."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from rainbowdom import (
    Graph,
    RainbowLabeling,
    canonical_form,
    cartesian,
    components,
    from_edge_list,
    gen_complete,
    general_bounds,
    induced_subgraph,
    is_connected,
    is_k_rainbow_dominating,
    lexicographic,
    min_couple_cost,
    min_dominating_set,
    min_rainbow,
    min_rainbow_via_cartesian,
    min_total_dominating_set,
    parse_graph6,
    parse_labeling,
    format_labeling,
    to_graph6,
)

from conftest import perm_isomorphic


@st.composite
def graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(graphs(max_n=5), graphs(max_n=4), st.integers(0, 31))
def test_built_graphs_pass_the_full_check(g, h, pick):
    # products and induced subgraphs skip Graph's checks; they would pass them
    sub, _ = induced_subgraph(g, [v for v in range(g.n) if pick >> v & 1])
    for p in (lexicographic(g, h), cartesian(g, h), sub):
        assert Graph(p.n, p.adj) == p


@given(graphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_and_iso_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_form(relabeled) == canonical_form(g)
    assert perm_isomorphic(relabeled, g)


@given(graphs())
def test_gamma_chain(g):
    gamma = min_dominating_set(g).value
    assert 1 <= gamma <= g.n
    if all(g.adj[v] for v in range(g.n)):
        gamma_t = min_total_dominating_set(g).value
        assert gamma <= gamma_t <= 2 * gamma


@given(graphs(), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_general_bounds_bracket(g, k):
    lo, hi = general_bounds(g, k)
    val = min_rainbow(g, k).value
    assert lo <= val <= hi


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_rainbow_routes_agree(g):
    assert min_rainbow(g, 2).value == min_rainbow_via_cartesian(g, 2).value


@given(graphs())
def test_rainbow_k1_is_domination(g):
    assert min_rainbow(g, 1).value == min_dominating_set(g).value


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_rainbow_component_additivity(g):
    total = min_rainbow(g, 2).value
    parts = 0
    for comp in components(g):
        sub, _ = induced_subgraph(g, comp)
        parts += min_rainbow(sub, 2).value
    assert total == parts


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=60, deadline=None)
def test_adding_edges_never_hurts(g):
    # a valid labeling stays valid when neighborhoods grow
    assume(g.m < g.n * (g.n - 1) // 2)
    val = min_rainbow(g, 2).value
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if not g.has_edge(u, v)]
    u, v = non_edges[0]
    denser = from_edge_list(g.n, g.edges() + [(u, v)])
    assert min_rainbow(denser, 2).value <= val


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_couple_cost_dominated_by_closed_forms(g):
    value, couple = min_couple_cost(g, 2, 3)
    gamma = min_dominating_set(g).value
    assert value <= 3 * gamma
    if all(g.adj[v] for v in range(g.n)):
        assert value <= 2 * min_total_dominating_set(g).value
    assert couple.cost(2, 3) == value


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_rainbow_witness_validates(g):
    res = min_rainbow(g, 2)
    assert res.witness.weight == res.value
    assert is_k_rainbow_dominating(g, res.witness)


@given(st.integers(1, 3), st.lists(st.integers(0, 7), min_size=1, max_size=8))
def test_labeling_text_round_trip(k, masks):
    masks = [m & ((1 << k) - 1) for m in masks]
    f = RainbowLabeling(k, tuple(masks))
    assert parse_labeling(format_labeling(f), k) == f


@given(graphs(min_n=1, max_n=5), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_rainbow_vs_product_domination(g, k):
    # the defining equivalence, with the product built explicitly here
    from rainbowdom import cartesian
    prod = cartesian(g, gen_complete(k))
    assert min_rainbow(g, k).value == min_dominating_set(prod).value
