"""The three workloads: inputs generated from a seed, and the public calls
one pass makes, each with its output check.

Graphs are generated here as plain edge lists. The library receives Graph
objects built from them; the checker receives the edge lists themselves.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import checker

# connected graphs on exactly n vertices, n = 1..7 (OEIS A001349)
CONNECTED_GRAPHS = (1, 1, 2, 6, 21, 112, 853)


@dataclass
class Op:
    """One public call and the check of its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    node_budget: int
    ops: list[Op]
    inputs: list  # (name, n, edges) of every graph, in generation order
    finish: Callable[[], list[str]] = lambda: []

    @property
    def digest(self) -> str:
        text = json.dumps([self.inputs, [op.name for op in self.ops]])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# graph generators (edge lists)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_sparse(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree plus about n/4 chords: connected, a few cycles."""
    edges = set(random_tree(n, rng))
    while len(edges) < n - 1 + n // 4:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return sorted(edges)


def connected_gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p), with one random edge joining each component to the next."""
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, b in edges:
        comp[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    parts = list(groups.values())
    for left, right in zip(parts, parts[1:]):
        a, b = sorted((rng.choice(left), rng.choice(right)))
        edges.add((a, b))
    return sorted(edges)


DC4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)]

# second factors of the ladder, one per certificate case
SECOND_FACTORS = {
    "P2": (2, path_edges(2)),
    "P6": (6, path_edges(6)),
    "DC4": (7, DC4_EDGES),
    "C5": (5, cycle_edges(5)),
    "P4": (4, path_edges(4)),
}


# ---------------------------------------------------------------------------
# workloads

# First factors. Paths and cycles do not depend on the seed and meet every
# second factor. Each row is timed by its fastest run over the passes, and a
# shared host runs at full speed only in short stretches, so no row may take
# much more than a tenth of a second: the n = 18 rows are already 95% couple
# search, the n = 20 rows took three times as long, and C16 x P4 (a 64-vertex
# refine) alone took a quarter second. With P4, every product up to n = 16 is
# within the 64-vertex refine limit, and each refine that gives up spends the
# whole node budget. Seeded trees and sparse graphs skip P4: whether their row
# refines at all depends on gamma = gamma_t, which would make the pass time
# swing with the seed. They stop at 14 and 15 vertices: over 300 seeds, no
# couple search at these sizes needed half the node budget.
LADDER_FIXED = {"P": (8, 12, 16, 18), "C": (8, 10, 12, 18)}
LADDER_SEEDED = {"T": range(6, 15), "R": range(8, 16)}
LADDER_SMOKE = ({"P": (4,), "C": (5,)}, {"T": (5,), "R": (5,)})
SEEDED_SECOND = ("P2", "P6", "DC4", "C5")


def certify_ladder(rb, seed: int, budget: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    fixed, seeded = LADDER_SMOKE if smoke else (LADDER_FIXED, LADDER_SEEDED)
    make = {
        "P": path_edges,
        "C": cycle_edges,
        "T": lambda n: random_tree(n, rng),
        "R": lambda n: random_sparse(n, rng),
    }
    firsts = [(f"{fam}{n}", n, make[fam](n), fam in fixed)
              for fam, sizes in (fixed | seeded).items() for n in sizes]
    seconds = [(name, n, edges) for name, (n, edges) in SECOND_FACTORS.items()]
    ops = []
    for gname, gn, gedges, all_seconds in firsts:
        g = rb.from_edge_list(gn, gedges)
        gadj = checker.adjacency(gn, gedges)
        for hname, hn, hedges in seconds:
            if not all_seconds and hname not in SEEDED_SECOND:
                continue
            h = rb.from_edge_list(hn, hedges)
            hadj = checker.adjacency(hn, hedges)
            ops.append(Op(
                f"certify_rd_lex({gname},{hname})",
                lambda g=g, h=h: rb.certify_rd_lex(g, h, node_budget=budget),
                lambda cert, a=(gname, gadj, hname, hadj): checker.check_certificate(*a, cert),
            ))
    inputs = [f[:3] for f in firsts] + seconds
    return Workload("certify-ladder", budget, ops, inputs)


# Corpus replays: every connected first factor on up to ng vertices against
# one second factor per call, product cap 42. Each call is timed by its
# fastest run over the passes, and a shared host runs at full speed only in
# short stretches, so no call may take much more than a fifth of a second. The
# 5-vertex first factors therefore meet second factors of at most 4 vertices
# and the 4-vertex ones meet those of 5 to 7 (products of up to 28 vertices):
# C5 against DC4 alone is one 2.5 s solve, and every 6-vertex replay takes
# over half a second.
CORPUS_FACTORS = SECOND_FACTORS | {
    "P3": (3, path_edges(3)),
    "K3": (3, cycle_edges(3)),
    "C4": (4, cycle_edges(4)),
    "K13": (4, [(0, 1), (0, 2), (0, 3)]),
    "K4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
    "P5": (5, path_edges(5)),
    "C6": (6, cycle_edges(6)),
}
CORPUS_CALLS = tuple((5, h) for h in ("P2", "P3", "K3", "P4", "C4", "K13", "K4")) + tuple(
    (4, h) for h in ("P5", "C5", "P6", "C6", "DC4"))
CORPUS_SMOKE = ((3, "P2"), (3, "P4"))
CORPUS_CAP = 42


def verify_corpus(rb, seed: int, budget: int, smoke: bool) -> Workload:
    del seed  # the corpus is exhaustive
    ops = []
    inputs = []
    for ng, hname in CORPUS_SMOKE if smoke else CORPUS_CALLS:
        hn, hedges = CORPUS_FACTORS[hname]
        h = rb.from_edge_list(hn, hedges)
        inputs.append((hname, hn, hedges))
        expect = sum(CONNECTED_GRAPHS[:ng])

        def check(report, expect=expect):
            problems = list(report.violations)
            if report.tasks != expect:
                problems.append(f"{report.tasks} tasks, expected {expect} connected first factors")
            return problems

        ops.append(Op(
            f"verify_corpus({ng},{hname},{CORPUS_CAP})",
            lambda ng=ng, h=h: rb.verify_corpus(ng, [h], CORPUS_CAP, node_budget=budget),
            check,
        ))
    return Workload("verify-corpus", budget, ops, inputs)


# (label, n, p, graphs per pass, invariants solved on each); sparse means
# p = 3/n. One search's cost varies tenfold between graphs of one size, and
# a shared host's CPU speed swings twofold within a second, so a pass is many
# small solves: ~1900 of them in about half a second. Many graphs per class
# keep the quantiles steady across seeds, and a short pass lets each
# operation's fastest time come from dozens of passes. Two thirds of the
# solves are gamma and gamma_t, so op_p50_ms falls among them; op_p90_ms
# falls among the rd_2 and rd_3 solves. Sparse graphs stop at 20 vertices: at 24 a few
# heavy-tailed searches made the pass time swing with the seed. Over ten
# seeds the largest search used under a tenth of the node budget.
INVARIANT_CLASSES = (
    ("sparse", 6, None, 100, ("gamma", "gamma_t", "rd2", "rd3")),
    ("sparse", 8, None, 100, ("gamma", "gamma_t", "rd2")),
    ("sparse", 12, None, 100, ("gamma", "gamma_t")),
    ("sparse", 20, None, 60, ("gamma", "gamma_t")),
    ("dense", 6, 0.3, 100, ("gamma", "gamma_t", "rd2", "rd3")),
    ("dense", 8, 0.3, 100, ("gamma", "gamma_t", "rd2")),
    ("dense", 16, 0.3, 100, ("gamma", "gamma_t")),
    ("dense", 48, 0.3, 5, ("gamma", "gamma_t")),
)
INVARIANT_SMOKE = (("sparse", 6, None, 2, ("gamma", "gamma_t", "rd2", "rd3")),)
# paths pin the closed forms gamma(P_n) = ceil(n/3) and rd_2(P_n) = n//2 + 1
INVARIANT_PATHS = ((16, ("gamma", "gamma_t")), (32, ("gamma",)), (48, ("gamma",)), (10, ("rd2",)))
INVARIANT_PATHS_SMOKE = ((6, ("gamma", "rd2")),)


def invariants(rb, seed: int, budget: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    graphs = []
    for kind, n, p, count, which in INVARIANT_SMOKE if smoke else INVARIANT_CLASSES:
        for i in range(count):
            edges = connected_gnp(n, p if p is not None else 3 / n, rng)
            graphs.append((f"{kind}{n}.{i}", n, edges, which))
    for n, which in INVARIANT_PATHS_SMOKE if smoke else INVARIANT_PATHS:
        graphs.append((f"P{n}", n, path_edges(n), which))

    values: dict[str, dict[str, int]] = {}
    ops = []
    for gname, n, edges, which in graphs:
        g = rb.from_edge_list(n, edges)
        adj = checker.adjacency(n, edges)
        closed = {}
        if gname.startswith("P"):
            closed = {"gamma": checker.gamma_path(n), "gamma_t": checker.gamma_t_path(n),
                      "rd2": checker.rd2_path(n)}
        for inv in which:
            if inv == "gamma":
                call = lambda g=g: rb.min_dominating_set(g, node_budget=budget)
                check = lambda r, adj=adj: checker.check_set(adj, r, total=False)
                fname = "min_dominating_set"
            elif inv == "gamma_t":
                call = lambda g=g: rb.min_total_dominating_set(g, node_budget=budget)
                check = lambda r, adj=adj: checker.check_set(adj, r, total=True)
                fname = "min_total_dominating_set"
            else:
                k = int(inv[2])
                call = lambda g=g, k=k: rb.min_rainbow(g, k, node_budget=budget)
                check = lambda r, adj=adj, k=k: checker.check_rainbow(adj, k, r)
                fname = f"min_rainbow[k={k}]"

            def record(res, gname=gname, inv=inv, check=check, closed=closed):
                values.setdefault(gname, {})[inv] = res.value
                problems = check(res)
                if inv in closed and res.value != closed[inv]:
                    problems.append(f"{inv}({gname}) = {res.value}, closed form {closed[inv]}")
                return problems

            ops.append(Op(f"{fname}({gname})", call, record))

    def finish():
        problems = []
        for gname, vals in values.items():
            problems += [f"{gname}: {p}" for p in checker.check_relations(vals)]
        values.clear()
        return problems

    inputs = [(name, n, edges) for name, n, edges, _ in graphs]
    return Workload("invariants", budget, ops, inputs, finish)


WORKLOADS = {
    "certify-ladder": certify_ladder,
    "verify-corpus": verify_corpus,
    "invariants": invariants,
}


def build(rb, name: str, seed: int, spec: dict, smoke: bool = False) -> Workload:
    return WORKLOADS[name](rb, seed, spec[name]["node_budget"], smoke)
