"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the package's solver machinery: they work on
explicit vertex/edge sets with exhaustive iteration, so agreement with the
fast solvers is meaningful evidence. Keep them dumb.
"""

from __future__ import annotations

import itertools

import pytest

from rainbowdom import Graph, enumerate_connected_graphs, from_edge_list
from rainbowdom.certify import _solve_factor


# ---------------------------------------------------------------------------
# oracle helpers (independent implementations)


def nbrs(g: Graph) -> list[set[int]]:
    out = [set() for _ in range(g.n)]
    for u, v in g.edges():
        out[u].add(v)
        out[v].add(u)
    return out


def brute_is_dominating(g: Graph, s) -> bool:
    nb = nbrs(g)
    s = set(s)
    return all(v in s or nb[v] & s for v in range(g.n))


def brute_is_total_dominating(g: Graph, s) -> bool:
    nb = nbrs(g)
    s = set(s)
    return all(nb[v] & s for v in range(g.n))


def brute_min_dominating(g: Graph) -> int:
    for size in range(g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if brute_is_dominating(g, s):
                return size
    raise AssertionError("unreachable")


def brute_min_total_dominating(g: Graph) -> int | None:
    """None when no total dominating set exists (isolated vertex)."""
    for size in range(g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            if brute_is_total_dominating(g, s):
                return size
    return None


def brute_valid_rdf(g: Graph, k: int, labels: tuple[frozenset[int], ...]) -> bool:
    nb = nbrs(g)
    full = set(range(1, k + 1))
    for v in range(g.n):
        if labels[v]:
            continue
        seen = set()
        for w in nb[v]:
            seen |= labels[w]
        if seen != full:
            return False
    return True


def reference_rainbow_violator(g: Graph, k: int, masks: tuple[int, ...]) -> int | None:
    """The first empty vertex, in index order, that misses a color among its
    neighbors' labels (color c is bit c-1 of a mask), or None when the
    labeling is k-rainbow dominating: the neighbor-by-neighbor scan that
    is_k_rainbow_dominating used before it kept one support mask per color."""
    full = (1 << k) - 1
    for v in range(g.n):
        if masks[v]:
            continue
        seen = 0
        for u in range(g.n):
            if (g.adj[v] >> u) & 1:
                seen |= masks[u]
                if seen == full:
                    break
        if seen != full:
            return v
    return None


def _all_labelings(n: int, k: int):
    colorsets = [frozenset(c) for size in range(k + 1)
                 for c in itertools.combinations(range(1, k + 1), size)]
    return itertools.product(colorsets, repeat=n)


def brute_min_rainbow(g: Graph, k: int) -> int:
    best = None
    for labels in _all_labelings(g.n, k):
        if best is not None and sum(len(c) for c in labels) >= best:
            continue
        if brute_valid_rdf(g, k, labels):
            w = sum(len(c) for c in labels)
            best = w if best is None else min(best, w)
    assert best is not None
    return best


def brute_layer_costs(g: Graph) -> dict[tuple[int, int], int]:
    """{(C, R): least weight} over all 4^n 2-labelings of g, C and R as color
    masks (color c is bit c-1): the labels use exactly the colors of C, and
    every empty vertex sees each color outside R among its neighbors. Labels
    are the masks 0..3 too, so a labeling is a tuple of small ints."""
    nb = [sorted(s) for s in nbrs(g)]
    best: dict[tuple[int, int], int] = {}
    for labels in itertools.product(range(4), repeat=g.n):
        used = 0
        for lab in labels:
            used |= lab
        if not used:
            continue
        need = 0  # colors some empty vertex does not see
        for v in range(g.n):
            if labels[v]:
                continue
            seen = 0
            for w in nb[v]:
                seen |= labels[w]
            need |= 3 & ~seen
        w = sum(lab.bit_count() for lab in labels)
        for r in range(4):
            if need & ~r == 0:
                key = (used, r)
                best[key] = min(best.get(key, w), w)
    return best


def brute_min_2rdfs(g: Graph) -> list[tuple[int, ...]]:
    """All minimum 2-rainbow labelings as mask tuples, sorted."""
    best = brute_min_rainbow(g, 2)
    out = []
    for labels in _all_labelings(g.n, 2):
        if sum(len(c) for c in labels) != best:
            continue
        if brute_valid_rdf(g, 2, labels):
            out.append(tuple(sum(1 << (c - 1) for c in lab) for lab in labels))
    return sorted(out)


def projection_property(g: Graph, nh: int, f) -> tuple[bool, bool]:
    """Whether the first-factor projections of the color-1 and color-2
    supports of a 2-rainbow labeling f of g o h (h on nh vertices, vertex
    (a, x) at a * nh + x; full labels count for both) each dominate g."""
    if f.k != 2:
        raise ValueError("the projection property is about 2-rainbow labelings")
    if len(f.masks) != g.n * nh:
        raise ValueError("labeling does not match the product")
    support1 = {p // nh for p, m in enumerate(f.masks) if m & 1}
    support2 = {p // nh for p, m in enumerate(f.masks) if m & 2}
    return brute_is_dominating(g, support1), brute_is_dominating(g, support2)


def brute_is_couple(g: Graph, a, b) -> bool:
    nb = nbrs(g)
    a, b = set(a), set(b)
    if a & b:
        return False
    return all(nb[x] & (a | b) for x in range(g.n) if x not in b)


def brute_min_couple_cost(g: Graph, ca: int, cb: int) -> int:
    nb = nbrs(g)
    best = None
    for assign in itertools.product((0, 1, 2), repeat=g.n):
        a = {v for v, t in enumerate(assign) if t == 1}
        b = {v for v, t in enumerate(assign) if t == 2}
        # the couple condition of brute_is_couple, with the neighbor sets built once
        if all(nb[x] & (a | b) for x in range(g.n) if x not in b):
            cost = ca * len(a) + cb * len(b)
            best = cost if best is None else min(best, cost)
    assert best is not None, "every graph has the couple (emptyset, V)"
    return best


def brute_min_cover(elements: set[int], sets: list[set[int]], costs: list[int]) -> int | None:
    """Least total cost of a choice of sets whose union holds elements; None
    when even all of them miss an element. Every choice is tried, set by set,
    keeping for each union reached the least cost of reaching it."""
    best = {frozenset(): 0}
    for s, c in zip(sets, costs):
        for union, w in list(best.items()):
            grown = union | (s & elements)
            if grown not in best or best[grown] > w + c:
                best[grown] = w + c
    return best.get(frozenset(elements))


def perm_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    ea = {frozenset(e) for e in a.edges()}
    for perm in itertools.permutations(range(b.n)):
        if {frozenset((perm[u], perm[v])) for u, v in b.edges()} == ea:
            return True
    return False


def count_connected_by_edge_subsets(n: int) -> int:
    """Isomorphism classes of connected graphs, by raw edge-subset scan."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        nb = [set() for _ in range(n)]
        for u, v in edges:
            nb[u].add(v)
            nb[v].add(u)
        stack, reach = [0], {0}
        while stack:
            for w in nb[stack.pop()]:
                if w not in reach:
                    reach.add(w)
                    stack.append(w)
        if len(reach) != n:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in itertools.permutations(range(n))
        )
        seen.add(canon)
    return len(seen)


def enumerate_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices, connected or not: a
    class is a multiset of connected components, so each multiset of
    enumerate_connected_graphs representatives over each partition of n is
    laid out once, components in order."""
    def partitions(rest: int, top: int):
        if rest == 0:
            yield []
        for part in range(min(rest, top), 0, -1):
            for tail in partitions(rest - part, part):
                yield [part] + tail

    out = []
    for parts in partitions(n, n):
        choices = [itertools.combinations_with_replacement(
            list(enumerate_connected_graphs(size)), parts.count(size))
            for size in sorted(set(parts), reverse=True)]
        for pick in itertools.product(*choices):
            comps = [c for group in pick for c in group]
            edges, base = [], 0
            for c in comps:
                edges.extend((u + base, v + base) for u, v in c.edges())
                base += c.n
            out.append(from_edge_list(n, edges))
    return out


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(autouse=True)
def cold_factor_memo():
    """Every test starts with certify's factor memo empty, as a fresh process
    does, so a solve that an earlier test made is not skipped here."""
    _solve_factor.cache_clear()


@pytest.fixture(scope="session")
def corpus6() -> list[Graph]:
    out = []
    for n in range(1, 7):
        out.extend(enumerate_connected_graphs(n))
    return out


@pytest.fixture(scope="session")
def corpus5() -> list[Graph]:
    out = []
    for n in range(1, 6):
        out.extend(enumerate_connected_graphs(n))
    return out


@pytest.fixture(scope="session")
def spider() -> Graph:
    """A pair-witness second factor whose witness vertices are non-adjacent:
    2-rainbow number 3 with {1,2} at the center and {1} at the far leaf."""
    return from_edge_list(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
