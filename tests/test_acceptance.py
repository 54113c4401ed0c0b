"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with its measured runtime against the pinned budget.

Run with plain pytest; the criterion lines print straight to the terminal
even under capture.
"""

import time

import pytest

from rainbowdom import (
    certify_rd_lex,
    gen_cycle,
    gen_double_c4,
    gen_glued_paths,
    gen_path,
    general_bounds,
    is_k_rainbow_dominating,
    lexicographic,
    min_couple_cost,
    min_dominating_set,
    min_rainbow,
    min_rainbow_via_cartesian,
    glued_family_labeling,
    pair_witness,
    path_pattern_labeling,
    path_upper_bound,
    verify_corpus,
)


@pytest.fixture
def announce(capfd):
    def _print(line: str):
        with capfd.disabled():
            print(line)
    return _print


def _finish(announce, num: int, budget: float, start: float, detail: str,
            fixture_seconds: float = 0.0):
    # fixture_seconds: time spent in session fixtures before the test's clock started
    elapsed = time.monotonic() - start + fixture_seconds
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    announce(f"CRITERION {num}: PASS ({detail}; {elapsed:.1f}s < {budget:.0f}s)")


def _guard(announce, num: int):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is not None:
                announce(f"CRITERION {num}: FAIL ({exc_type.__name__}: {exc})")
            return False

    return _Ctx()


@pytest.fixture(scope="session")
def report_main():
    # shared by criteria 6 and 7
    return verify_corpus(5, [gen_cycle(4), gen_path(6), gen_path(5)], 24)


@pytest.fixture(scope="session")
def report_k2():
    return verify_corpus(5, [gen_path(2)], 14)


def test_criterion_1_route_equivalence(corpus6, announce):
    start = time.monotonic()
    with _guard(announce, 1):
        assert len(corpus6) == 143
        for g in corpus6:
            gamma = min_dominating_set(g).value
            for k in (1, 2):
                direct = min_rainbow(g, k).value
                via = min_rainbow_via_cartesian(g, k).value
                assert direct == via, (g.adj, k)
            assert min_rainbow(g, 1).value == gamma, g.adj
        _finish(announce, 1, 120.0, start,
                "143 connected graphs, both solver routes equal for k in {1,2}, "
                "1-rainbow equals domination")


def test_criterion_2_general_bounds(corpus6, announce):
    start = time.monotonic()
    with _guard(announce, 2):
        for g in corpus6:
            for k in (2, 3):
                lo, hi = general_bounds(g, k)
                val = min_rainbow(g, k).value
                assert lo <= val <= hi, (g.adj, k, lo, val, hi)
        _finish(announce, 2, 120.0, start,
                "bracket min(n, gamma+k-2) <= rd_k <= k*gamma on 143 graphs, "
                "k in {2,3}, zero violations")


def test_criterion_3_p5_p4_value(announce):
    start = time.monotonic()
    with _guard(announce, 3):
        prod = lexicographic(gen_path(5), gen_path(4))
        assert prod.n == 20
        assert min_rainbow(prod, 2).value == 5
        cert = certify_rd_lex(gen_path(5), gen_path(4))
        assert cert.describe() == "interval [4,5], case RdH3Pair; refined exact 5"
        _finish(announce, 3, 60.0, start,
                "exact solver gives 5 on the 20-vertex product; certificate "
                "refines to the same value")


def test_criterion_4_p7_double_c4(announce):
    start = time.monotonic()
    with _guard(announce, 4):
        h = gen_double_c4()
        cert = certify_rd_lex(gen_path(7), h)
        assert cert.describe() == "exact 7, case RdH3NoPair"
        prod = lexicographic(gen_path(7), h)
        assert cert.upper_labeling.weight == 7
        assert is_k_rainbow_dominating(prod, cert.upper_labeling)
        small = lexicographic(gen_path(3), h)
        assert small.n == 21
        exact = min_rainbow(small, 2).value
        couple_value = min_couple_cost(gen_path(3), 2, 3)[0]
        assert exact == couple_value == 3
        _finish(announce, 4, 60.0, start,
                "certified exact 7 with validating weight-7 labeling; "
                "21-vertex product solves to 3 = couple optimum")


def test_criterion_5_tile_suite(spider, announce):
    start = time.monotonic()
    with _guard(announce, 5):
        pairs = [(gen_path(4), 1, 3), (spider, 0, 4)]
        assert not spider.has_edge(0, 4)
        for h, u, v in pairs:
            pw = pair_witness(h)
            assert (pw.u, pw.v) == (u, v)
            for n in range(2, 61):
                f = path_pattern_labeling(n, h)
                assert f.weight == path_upper_bound(n), (n, h.adj)
                prod = lexicographic(gen_path(n), h)
                assert is_k_rainbow_dominating(prod, f), (n, h.adj)
        assert path_upper_bound(7) == 6 == 2 * min_dominating_set(gen_path(7)).value
        _finish(announce, 5, 30.0, start,
                "tilings validate at the closed-form weight for n in 2..60 "
                "and both witness graphs, including weight 6 at n=7")


def test_criterion_6_case_theorems_vs_oracle(report_main, announce):
    start = time.monotonic()
    with _guard(announce, 6):
        rep = report_main
        assert rep.tasks == 93
        assert rep.violations == [], rep.violations
        for key in ("case_value", "lower_2gamma", "upper_total_dom", "upper_couple"):
            assert rep.checks.get(key, 0) > 0, key
        _finish(announce, 6, 600.0, start,
                f"corpus replay clean: {rep.tasks} tasks, "
                f"{sum(rep.checks.values())} checks, zero violations, "
                f"corpus wall time {rep.wall_seconds:.1f}s",
                rep.wall_seconds)


def test_criterion_7_projection_lemma(report_main, report_k2, announce):
    start = time.monotonic()
    with _guard(announce, 7):
        assert report_main.checks.get("projection_all_minima", 0) > 0
        assert not [v for v in report_main.violations if "projection" in v]
        assert report_main.violations == []
        assert report_k2.checks.get("projection_exists", 0) > 0
        assert report_k2.violations == [], report_k2.violations
        _finish(announce, 7, 300.0, start,
                f"{report_main.checks['projection_all_minima']} all-minima "
                f"projection checks and "
                f"{report_k2.checks['projection_exists']} existence checks, "
                "zero violations",
                report_main.wall_seconds + report_k2.wall_seconds)


def test_criterion_8_glued_family(announce):
    start = time.monotonic()
    with _guard(announce, 8):
        h = gen_path(4)
        for m in (1, 2):
            for p2 in (0, 1):
                g = gen_glued_paths(m, p2)
                f = glued_family_labeling(m, p2, h)
                assert f.weight == 4 * m + 2
                prod = lexicographic(g, h)
                assert is_k_rainbow_dominating(prod, f), (m, p2)
            # with a pendant the domination number hits 2m+1 and the chain
            # 2*gamma <= value <= construction weight closes exactly: at m = 1
            # the bounds meet, at m = 2 the refine proves the lower one
            g1 = gen_glued_paths(m, 1)
            gamma = min_dominating_set(g1).value
            assert gamma == 2 * m + 1
            assert 2 * gamma == 4 * m + 2
            cert = certify_rd_lex(g1, h)
            assert cert.lo == cert.value == 4 * m + 2, (m, cert.describe())
            assert cert.describe() == {
                1: "exact 6, case RdH3Pair",
                2: "interval [10,11], case RdH3Pair; refined exact 10",
            }[m]
            # without the pendant the first-factor domination number is 2m,
            # not 2m+1 as originally claimed (checked by brute force; see the
            # p2 >= 1 hypothesis): the chain does not close there
            g0 = gen_glued_paths(m, 0)
            assert min_dominating_set(g0).value == 2 * m
        # the construction is still tight at m=1, p2=0 by exact solve
        prod = lexicographic(gen_glued_paths(1, 0), h)
        assert min_rainbow(prod, 2).value == 6
        _finish(announce, 8, 60.0, start,
                "construction validates at weight 4m+2 in all four cases; "
                "with a pendant (p2 = 1) gamma = 2m+1 and the chain "
                "2*gamma = value = 4m+2 closes at m = 1 and m = 2 (refined "
                "exact 10 at m = 2); without pendants gamma is 2m, so the "
                "claimed chain applies only to the pendant variants")
