import dataclasses
import random

import pytest

from rainbowdom import (
    BudgetError,
    CapacityError,
    Graph,
    PreconditionError,
    RainbowDomError,
    RainbowLabeling,
    certify_rd_lex,
    classify_h,
    enumerate_connected_graphs,
    enumerate_min_2rdfs,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_double_c4,
    gen_path,
    gen_star,
    general_bounds,
    is_connected,
    is_k_rainbow_dominating,
    lexicographic,
    min_couple_cost,
    min_rainbow,
    min_total_dominating_set,
    pair_witness,
    path_upper_bound,
    to_graph6,
    verify_corpus,
)
from rainbowdom.certify import _certify_connected, _dominating_projections, _projection_gap
from rainbowdom.couples import _is_dominating_couple
from rainbowdom.graphs import iter_bits
from rainbowdom.solvers import _min_rainbow_lex

from conftest import (
    brute_min_dominating,
    brute_min_rainbow,
    enumerate_graphs,
    projection_property,
)


# P4 with two leaves at one end: a tree that is neither a path nor a cycle, so
# certify refines its RdH3Pair interval [4,6] with P4 by search (value 5)
FORK6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)])

# two more trees that certify refines with P4: a seeded 16-vertex tree, and a
# 16-vertex spider with three legs of 5
_r = random.Random(6)
TREE16 = from_edge_list(16, [(_r.randrange(i), i) for i in range(1, 16)])
SPIDER16 = from_edge_list(16, [(0 if i % 5 == 1 else i - 1, i) for i in range(1, 16)])


def _two_copies(g: Graph) -> Graph:
    return from_edge_list(2 * g.n, list(g.edges()) + [(u + g.n, v + g.n) for u, v in g.edges()])


class TestGeneralBounds:
    def test_frozen_values(self):
        assert general_bounds(gen_path(7), 2) == (3, 6)
        assert general_bounds(gen_path(7), 3) == (4, 9)
        assert general_bounds(gen_path(1), 2) == (1, 2)

    def test_bracket_holds(self, corpus5):
        for g in corpus5:
            for k in (2, 3):
                lo, hi = general_bounds(g, k)
                val = min_rainbow(g, k).value
                assert lo <= val <= hi
                gamma = brute_min_dominating(g)
                assert lo == min(g.n, gamma + k - 2)
                assert hi == k * gamma

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            general_bounds(gen_path(3), 1)


class TestClassifyH:
    def test_frozen_tags(self, spider):
        assert classify_h(gen_path(1)).tag == "TrivialH"
        assert classify_h(gen_path(2)).tag == "RdH2"
        assert classify_h(gen_cycle(4)).tag == "RdH2"
        assert classify_h(gen_star(4)).tag == "RdH2"
        assert classify_h(gen_path(4)).tag == "RdH3Pair"
        assert classify_h(spider).tag == "RdH3Pair"
        assert classify_h(gen_path(5)).tag == "RdH3NoPair"
        assert classify_h(gen_cycle(5)).tag == "RdH3NoPair"
        assert classify_h(gen_double_c4()).tag == "RdH3NoPair"
        assert classify_h(gen_path(6)).tag == "RdH4Plus"
        assert classify_h(gen_path(7)).tag == "RdH4Plus"

    def test_fields_consistent(self, corpus5):
        for h in corpus5:
            cls = classify_h(h)
            assert cls.rd2 == min_rainbow(h, 2).value
            assert cls.labeling.weight == cls.rd2
            assert is_k_rainbow_dominating(h, cls.labeling)
            # the pair is kept only where the case code reads it
            assert (cls.pair is not None) == (cls.tag == "RdH3Pair")
            if cls.tag == "RdH3Pair":
                assert cls.rd2 == 3 and cls.pair == pair_witness(h)
            elif cls.rd2 == 3:
                assert pair_witness(h) is None

    def test_disconnected_h_takes_the_paper_cases(self):
        # README, Proposition 3: the cases need no connected h
        for n, edges, tag in [(2, [], "RdH2"), (4, [(0, 1), (2, 3)], "RdH4Plus"),
                              (3, [], "RdH3NoPair"), (4, [(0, 1), (1, 2)], "RdH3Pair")]:
            cls = classify_h(from_edge_list(n, edges))
            assert cls.tag == tag, (n, edges)
        assert (cls.pair.u, cls.pair.v) == (1, 3)  # P3 + K1

    def test_one_budget_for_the_call(self):
        # the pair witness takes no search, so the rd_2 solve's own nodes suffice
        for h, nodes, tag in [(gen_double_c4(), 8, "RdH3NoPair"), (gen_path(4), 7, "RdH3Pair"),
                              (gen_cycle(5), 6, "RdH3NoPair")]:
            assert min_rainbow(h, 2).nodes_explored == nodes
            assert classify_h(h, node_budget=nodes).tag == tag
            with pytest.raises(BudgetError):
                classify_h(h, node_budget=nodes - 1)


class TestCertifyCases:
    def test_every_outcome_is_self_checked(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        checked, real = [], certify_mod._self_check

        def recording(g, h, cert):
            checked.append(cert)
            return real(g, h, cert)

        monkeypatch.setattr(certify_mod, "_self_check", recording)
        empty, twok2 = from_edge_list(0, []), from_edge_list(4, [(0, 1), (2, 3)])
        p3_c4 = from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
        cases = {}
        for g, h in [(empty, gen_path(4)), (gen_path(4), empty), (gen_path(4), gen_path(1)),
                     (gen_path(1), gen_path(4)), (gen_path(4), gen_cycle(4)),
                     (gen_path(3), gen_path(6)), (gen_path(7), gen_double_c4()),
                     (gen_path(5), gen_path(4)), (gen_cycle(4), gen_path(4)),
                     (gen_path(3), twok2), (p3_c4, gen_path(4))]:
            cert = certify_rd_lex(g, h)
            assert any(c is cert for c in checked), (g.n, h.n, cert.case)
            for _, part in cert.parts or ():
                assert any(c is part for c in checked)
            cases.setdefault(cert.case, []).append(cert.exact)
        assert cases == {
            "TrivialG": [True, True], "TrivialH": [True, True], "RdH2": [True],
            "RdH4Plus": [True, True], "RdH3NoPair": [True], "RdH3Pair": [False, True],
            "ComponentSum": [True],
        }

    def test_self_check_validates_each_labeling_once(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        validated, real = [], certify_mod._is_k_rainbow_dominating_lex

        def counted(g, h, f):
            validated.append(f)
            return real(g, h, f)

        monkeypatch.setattr(certify_mod, "_is_k_rainbow_dominating_lex", counted)
        g, h = gen_path(8), gen_path(4)
        # nothing lighter than the couple labeling (8): the refine keeps it
        cert = certify_rd_lex(g, h)
        assert cert.refined_exact == 8 and cert.refined_labeling is cert.upper_labeling
        assert validated == [cert.upper_labeling]
        # a search refine validates only the labeling it adds: none when it
        # keeps the upper labeling (TREE16), the lighter one otherwise
        for tree, refined in ((TREE16, False), (FORK6, True), (SPIDER16, True)):
            validated.clear()
            tcert = certify_rd_lex(tree, h)
            assert tcert.refined_exact is not None and not tcert.exact
            assert (tcert.refined_labeling is not tcert.upper_labeling) == refined
            assert validated == [tcert.upper_labeling] + [tcert.refined_labeling] * refined
        # a broken labeling is refused wherever it sits, also when shared
        broken = RainbowLabeling(2, (3,) * 4 + (0,) * (g.n * h.n - 4))
        assert not real(g, h, broken)
        for upper, refined in ((broken, None), (cert.upper_labeling, broken), (broken, broken)):
            bad = dataclasses.replace(cert, upper_labeling=upper, refined_labeling=refined,
                                      refined_exact=None if refined is None else 8)
            with pytest.raises(RainbowDomError, match="does not validate"):
                certify_mod._self_check(g, h, bad)

    def test_no_product_is_built_to_check_a_witness(self, monkeypatch, capsys):
        # certificates and constructions validate on g o h layer by layer:
        # with lexicographic broken, every case still certifies, refines
        # included, and each construction still validates
        import rainbowdom.certify as certify_mod
        import rainbowdom.products as products_mod
        from rainbowdom.cli import main

        def broken(g, h):
            raise AssertionError("the product was built")

        monkeypatch.setattr(certify_mod, "lexicographic", broken)
        monkeypatch.setattr(products_mod, "lexicographic", broken)
        firsts = [gen_path(n) for n in (1, 8, 13, 18)] + [gen_cycle(n) for n in (9, 16)]
        firsts += [FORK6, TREE16, SPIDER16, _two_copies(gen_cycle(9))]
        seconds = [gen_complete(1), gen_path(2), gen_path(4), gen_path(6), gen_cycle(5),
                   gen_double_c4(), gen_cycle(4), from_edge_list(4, [(0, 1), (1, 2)])]
        cases = set()
        for g in firsts:
            for h in seconds:
                cert = certify_rd_lex(g, h)
                cases.add(cert.case)
                assert cert.value is not None or cert.notes, (g.n, h.n)
        assert cases == {"TrivialG", "TrivialH", "RdH2", "RdH4Plus", "RdH3NoPair",
                         "RdH3Pair", "ComponentSum"}
        for argv in (["tiles", "--h", "P4", "--n", "9"], ["glued", "--h", "P4", "--m", "3"],
                     ["totaldom", "--g", "C9", "--h", "P4"],
                     ["couple", "--g", "C9", "--h", "C5"]):
            assert main(["construct", *argv]) == 0, argv
        assert capsys.readouterr().err == ""

    def test_rdh2(self):
        cert = certify_rd_lex(gen_path(4), gen_cycle(4))
        assert cert.describe() == "exact 4, case RdH2"
        assert cert.value == 4
        assert cert.lower.kind == "gamma" and cert.lower.value == 2

    def test_rdh4plus(self):
        cert = certify_rd_lex(gen_path(3), gen_path(6))
        assert cert.describe() == "exact 4, case RdH4Plus"
        assert cert.lower.kind == "gamma_t" and cert.lower.value == 2

    def test_rdh3nopair(self):
        cert = certify_rd_lex(gen_path(7), gen_double_c4())
        assert cert.describe() == "exact 7, case RdH3NoPair"
        assert cert.lower.kind == "couple"
        assert cert.value == min_couple_cost(gen_path(7), 2, 3)[0] == 7

    @pytest.mark.parametrize("n, seed, value", [(44, 1, 36), (48, 1, 41), (48, 2, 40)])
    def test_rdh3nopair_couple_of_a_seeded_tree_within_a_small_budget(self, n, seed, value):
        # the seeded trees of the certify-ladder benchmark, past its 14
        # vertices: each couple search takes 774 to 1,521 nodes (in index
        # order, with no ban of a second label per vertex, it ran out of 300,000)
        rng = random.Random(1000 * seed + n)
        g = from_edge_list(n, [(rng.randrange(i), i) for i in range(1, n)])
        cost, couple = min_couple_cost(g, 2, 3, node_budget=5000)
        assert cost == couple.cost(2, 3) == value
        assert _is_dominating_couple(g, couple)
        if (n, seed) == (44, 1):
            cert = certify_rd_lex(g, gen_double_c4(), node_budget=5000)
            assert cert.describe() == "exact 36, case RdH3NoPair"

    def test_rdh3pair_interval_refined(self):
        cert = certify_rd_lex(gen_path(5), gen_path(4))
        assert cert.describe() == "interval [4,5], case RdH3Pair; refined exact 5"
        assert not cert.exact
        assert cert.value == 5
        assert cert.refined_labeling.weight == 5

    def test_rdh3pair_no_refine(self, solve_log):
        # the case analysis alone gives the bracket; the refine is a later step
        h = gen_path(4)
        cert = _certify_connected(FORK6, h, classify_h(h), node_budget=20000)
        assert cert.describe() == "interval [4,6], case RdH3Pair"
        assert cert.value is None
        assert cert.refined_exact is None and cert.notes == ()
        assert all(name != "_min_rainbow_lex" for name, _ in solve_log)

    def test_cycles_get_the_path_tiling(self):
        # a spanning path of C_n carries the tiling of P_n, valid on C_n o h
        h = gen_path(4)
        tiled = []
        for n in range(3, 25):
            g = gen_cycle(n)
            cert = certify_rd_lex(g, h)
            if cert.case != "RdH3Pair":
                continue
            couple, _ = min_couple_cost(g, 2, 3)
            assert cert.hi == min(couple, path_upper_bound(n)), n
            if path_upper_bound(n) < couple:
                tiled.append(n)
                assert cert.upper_labeling.weight == path_upper_bound(n)
                assert is_k_rainbow_dominating(lexicographic(g, h), cert.upper_labeling)
        assert tiled == [5, 7, *range(10, 25)]
        # the tiling is optimal (the path theorem), also past the refine's
        # 64-vertex gate; a product past the gate that is not settled by the
        # theorem keeps its interval, and a note says why
        cert = certify_rd_lex(gen_cycle(18), h)
        assert cert.describe() == "interval [12,16], case RdH3Pair; refined exact 16"
        assert cert.notes == ()
        fork18 = from_edge_list(18, [(i, i + 1) for i in range(16)] + [(15, 17)])
        cert = certify_rd_lex(fork18, h)
        assert cert.describe() == "interval [12,17], case RdH3Pair"
        note = "refine not run: the product has 72 vertices, over the 64-vertex limit; interval kept"
        assert cert.refined_exact is None and cert.notes == (note,)
        # the gate is on each component's product: two forks, each 72 vertices
        cert = certify_rd_lex(_two_copies(fork18), h)
        assert cert.describe() == "interval [24,34], case ComponentSum"
        assert cert.notes == (f"component {list(range(18))}: {note}",
                              f"component {list(range(18, 36))}: {note}")

    def test_gamma_eq_gamma_t_beats_interval(self):
        # gamma(C_4) = gamma_t(C_4) = 2: the couple optimum 2 * gamma_t meets
        # 2 * gamma, so the pair case's bracket closes by itself
        cert = certify_rd_lex(gen_cycle(4), gen_path(4))
        assert cert.describe() == "exact 4, case RdH3Pair"
        assert cert.lower.kind == "gamma" and cert.lower.value == 2
        assert cert.upper_labeling.weight == 4

    def test_closed_bracket_runs_no_refine(self, solve_log):
        # the bull (a triangle 0-1-2, pendants 3 on 1 and 4 on 2) is no path
        # or cycle, and gamma = gamma_t = 2: the bracket [4, 4] is exact
        # without the layer cover, and gamma_t is never solved
        bull = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
        cert = certify_rd_lex(bull, gen_path(4))
        assert cert.describe() == "exact 4, case RdH3Pair"
        assert cert.refined_exact is None and cert.notes == ()
        assert cert.lower.kind == "gamma" and cert.lower.value == 2
        assert sorted(name for name, _ in solve_log) == [
            "min_couple_cost", "min_dominating_set", "min_rainbow"]

    def test_trivial_factors(self):
        cert = certify_rd_lex(gen_path(4), gen_path(1))
        assert cert.case == "TrivialH" and cert.value == 3
        cert = certify_rd_lex(gen_path(1), gen_path(4))
        assert cert.case == "TrivialG" and cert.value == 3

    def test_trivial_g_with_a_long_path_within_a_small_budget(self):
        # K_1 o P_40 is P_40: classify_h's direct search on h proves rd_2 = 21
        cert = certify_rd_lex(gen_path(1), gen_path(40), node_budget=10_000)
        assert cert.describe() == "exact 21, case TrivialG"
        assert cert.upper_labeling.weight == 21

    def test_empty_factors(self):
        empty = Graph(0, ())
        assert certify_rd_lex(empty, gen_path(3)).value == 0
        assert certify_rd_lex(gen_path(3), empty).value == 0

    def test_upper_labeling_validates(self):
        for g, h in [(gen_path(4), gen_cycle(4)), (gen_path(3), gen_path(6)),
                     (gen_path(7), gen_double_c4()), (gen_path(5), gen_path(4))]:
            cert = certify_rd_lex(g, h)
            prod = lexicographic(g, h)
            assert is_k_rainbow_dominating(prod, cert.upper_labeling)
            assert cert.upper_labeling.weight == cert.hi

    def test_citations_present(self):
        cert = certify_rd_lex(gen_path(5), gen_path(4))
        assert cert.citations
        assert all(isinstance(c, str) and c for c in cert.citations)


# the layer cover's own pins, on the paths and cycles of the benchmark ladder
# times P4 (certify settles these by the path theorem): (g, value, nodes)
LADDER_REFINES = {
    "P8": (gen_path(8), 8, 71),
    "C8": (gen_cycle(8), 8, 306),
    "C10": (gen_cycle(10), 9, 116),
    "P12": (gen_path(12), 11, 246),
    "C12": (gen_cycle(12), 11, 619),
    "P16": (gen_path(16), 15, 484),
}


# first factors that certify_rd_lex refines with P4, searching only its own
# bracket [lo, hi) = [2 gamma(g), upper bound): (g, lo, hi, value, nodes)
CERTIFY_REFINES = {
    "tree16": (TREE16, 12, 13, 13, 195),
    "spider16": (SPIDER16, 12, 15, 14, 969),
    "FORK6": (FORK6, 4, 6, 5, 39),
}


class TestTrivialH:
    """h = K_1: the product is a copy of g, certified by the layer cover,
    never by the direct search on g."""

    def test_matches_direct_search(self, corpus6):
        k1 = gen_complete(1)
        for g in corpus6:
            cert = certify_rd_lex(g, k1)
            assert cert.case == "TrivialH" and cert.exact
            assert cert.value == min_rainbow(g, 2).value, g.adj
            assert is_k_rainbow_dominating(lexicographic(g, k1), cert.upper_labeling)

    def test_p64_within_a_small_budget(self):
        g, k1 = gen_path(64), gen_complete(1)
        cert = certify_rd_lex(g, k1, node_budget=1000)
        assert cert.describe() == "exact 33, case TrivialH"
        assert cert.upper_labeling.weight == 33
        assert is_k_rainbow_dominating(lexicographic(g, k1), cert.upper_labeling)


class TestRefine:
    @pytest.mark.parametrize("name", sorted(LADDER_REFINES))
    def test_ladder_refine_pinned(self, name):
        g, value, nodes = LADDER_REFINES[name]
        cert = certify_rd_lex(g, gen_path(4), node_budget=20000)
        assert cert.case == "RdH3Pair" and cert.refined_exact == value
        assert cert.notes == ()
        assert _min_rainbow_lex(g, gen_path(4), node_budget=20000).nodes_explored == nodes

    @pytest.mark.parametrize("name", sorted(CERTIFY_REFINES))
    def test_certify_refine_pinned(self, name):
        g, lo, hi, value, nodes = CERTIFY_REFINES[name]
        h = gen_path(4)
        cert = certify_rd_lex(g, h, node_budget=20000)
        assert (cert.lo, cert.hi, cert.refined_exact) == (lo, hi, value)
        res = _min_rainbow_lex(g, h, node_budget=nodes, lo=lo, hi=hi)
        # None: no labeling lighter than the certified upper one
        assert (res is None) == (value == hi)
        assert res is None or res.value == value
        with pytest.raises(BudgetError):
            _min_rainbow_lex(g, h, node_budget=nodes - 1, lo=lo, hi=hi)

    def test_refine_below_the_upper_bound_keeps_its_labeling(self):
        # P12 o P4: the path tiling weighs 11, the value
        cert = certify_rd_lex(gen_path(12), gen_path(4))
        assert cert.describe() == "interval [8,11], case RdH3Pair; refined exact 11"
        assert cert.refined_labeling == cert.upper_labeling

    def test_out_of_budget_note_names_the_level(self):
        # the table of layer costs fits in the budget, the cover does not: every
        # level below 5 was refuted, so rd_2(FORK6 o P4) >= 5 (the cover is at
        # level 5 from 26 nodes on and finishes in 39; the table takes 20)
        cert = certify_rd_lex(FORK6, gen_path(4), node_budget=30)
        assert cert.describe() == "interval [4,6], case RdH3Pair"
        assert cert.notes == ("refine exhausted the node budget 30 at level 5; interval kept",)
        with pytest.raises(BudgetError) as exc:
            _min_rainbow_lex(FORK6, gen_path(4), node_budget=30, lo=4, hi=6)
        assert exc.value.level == 5
        # out of budget in the table, the level of a cover of h bounds nothing
        with pytest.raises(BudgetError) as exc:
            _min_rainbow_lex(FORK6, gen_path(4), node_budget=5, lo=4, hi=6)
        assert exc.value.level is None

    def test_one_option_per_layer_fits_a_small_budget(self):
        # the refine of SPIDER16 o P4 in [12, 15) takes 969 nodes
        # (CERTIFY_REFINES), one option per layer
        cert = certify_rd_lex(SPIDER16, gen_path(4), node_budget=1000)
        assert cert.describe() == "interval [12,15], case RdH3Pair; refined exact 14"
        assert cert.notes == ()

    def test_seeded_tree_refines_within_a_small_budget(self):
        # a 16-vertex tree: in bandwidth order, the refine in [12, 13) takes
        # 195 nodes (CERTIFY_REFINES; 20 of them the table of P4)
        cert = certify_rd_lex(TREE16, gen_path(4), node_budget=300)
        assert cert.describe() == "interval [12,13], case RdH3Pair; refined exact 13"
        assert cert.notes == ()

    def test_out_of_budget_refine_starts_at_twice_gamma(self):
        # the refine searches only its own bracket [2 gamma, hi) = [12, 13), so
        # the level it runs out at is 12, not the layer cover's root bound 10
        cert = certify_rd_lex(TREE16, gen_path(4), node_budget=150)
        assert cert.describe() == "interval [12,13], case RdH3Pair"
        assert cert.notes == ("refine exhausted the node budget 150 at level 12; interval kept",)

    def test_refine_out_of_budget_says_so(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        def exhausted(g, h, *, node_budget, lo=0, hi=None):
            raise BudgetError(f"node budget {node_budget} exhausted")

        monkeypatch.setattr(certify_mod, "_min_rainbow_lex", exhausted)
        note = "refine exhausted the node budget 777; interval kept"
        cert = certify_rd_lex(FORK6, gen_path(4), node_budget=777)
        assert cert.describe() == "interval [4,6], case RdH3Pair"
        assert cert.refined_exact is None and cert.notes == (note,)
        cert = certify_rd_lex(_two_copies(FORK6), gen_path(4), node_budget=777)
        assert cert.case == "ComponentSum"
        assert cert.notes == (f"component [0, 1, 2, 3, 4, 5]: {note}",
                              f"component [6, 7, 8, 9, 10, 11]: {note}")


class TestLayerTable:
    """The layer cover solves the table of layer costs of h on every call and
    charges its nodes to the call's budget."""

    def test_cold_and_warm_count_the_same(self):
        g, h = gen_cycle(10), gen_path(4)
        cold = _min_rainbow_lex(g, h, node_budget=20000)
        warm = _min_rainbow_lex(g, h, node_budget=20000)
        assert (warm.value, warm.witness, warm.nodes_explored) == \
            (cold.value, cold.witness, cold.nodes_explored)
        # a call on another first factor in between changes no count
        fresh = _min_rainbow_lex(gen_path(8), h, node_budget=20000).nodes_explored
        _min_rainbow_lex(g, h, node_budget=20000)
        assert _min_rainbow_lex(gen_path(8), h, node_budget=20000).nodes_explored == fresh

    def test_a_budget_too_small_for_the_table_still_raises(self):
        g, h = gen_path(16), gen_path(4)
        _min_rainbow_lex(g, h, node_budget=20000, hi=15)
        with pytest.raises(BudgetError) as exc:
            _min_rainbow_lex(g, h, node_budget=5, hi=15)
        assert exc.value.level is None
        # the table takes 20 nodes: a budget of 19 fails in it, of 20 in the cover
        with pytest.raises(BudgetError) as exc:
            _min_rainbow_lex(g, h, node_budget=19, hi=15)
        assert exc.value.level is None
        with pytest.raises(BudgetError) as exc:
            _min_rainbow_lex(g, h, node_budget=20, hi=15)
        assert exc.value.level == 13


# every solve a certificate can make, by the module that defines it
SOLVES = {
    "solvers": ("min_rainbow", "min_dominating_set", "min_total_dominating_set",
                "_min_rainbow_lex"),
    "couples": ("min_couple_cost",),
}


def _wrap_everywhere(monkeypatch, home: str, fname: str, make):
    """Replace rainbowdom.<home>.<fname> by make(original) wherever the
    package binds it."""
    import sys

    orig = getattr(sys.modules[f"rainbowdom.{home}"], fname)
    wrapped = make(orig)
    for name, mod in list(sys.modules.items()):
        if name.startswith("rainbowdom"):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapped)


@pytest.fixture
def solve_log(monkeypatch):
    """Record (solve, graph) for every solve, wherever the package binds it."""
    log = []
    for home, names in SOLVES.items():
        for fname in names:
            def make(orig, _name=fname):
                def counted(g, *args, **kwargs):
                    log.append((_name, g))
                    return orig(g, *args, **kwargs)
                return counted

            _wrap_everywhere(monkeypatch, home, fname, make)
    return log


class TestSolveOnce:
    """One certificate solves each sub-problem once: rd_2(h) exactly once
    (the pair witness takes no search), and gamma, gamma_t and the couple
    optimum at most once per component of g; a second certificate of equal
    factors in the same process solves none of them again."""

    @pytest.mark.parametrize("g, h, case, solves", [
        (gen_path(8), gen_path(2), "RdH2", {"min_dominating_set"}),
        (gen_path(8), gen_path(6), "RdH4Plus", {"min_total_dominating_set"}),
        (gen_path(8), gen_double_c4(), "RdH3NoPair", {"min_couple_cost"}),
        # the couple optimum 8 is the upper bound; on a path the theorem gives
        # the value and no refine runs
        (gen_path(8), gen_path(4), "RdH3Pair",
         {"min_dominating_set", "min_couple_cost"}),
        # the path tiling (11) beats the couple optimum (12), and no refine runs
        (gen_path(12), gen_path(4), "RdH3Pair",
         {"min_dominating_set", "min_couple_cost"}),
        # not a path or a cycle: the refine runs
        (FORK6, gen_path(4), "RdH3Pair",
         {"min_dominating_set", "min_couple_cost", "_min_rainbow_lex"}),
        # gamma = gamma_t = 2: the couple optimum 4 closes the bracket
        (gen_path(4), gen_path(4), "RdH3Pair",
         {"min_dominating_set", "min_couple_cost"}),
    ], ids=["P8xP2", "P8xP6", "P8xDC4", "P8xP4", "P12xP4", "FORK6xP4", "P4xP4"])
    def test_connected_g(self, solve_log, g, h, case, solves):
        cert = certify_rd_lex(g, h, node_budget=20000)
        assert cert.case == case
        assert solve_log[0] == ("min_rainbow", h)
        rest = solve_log[1:]
        assert sorted(name for name, _ in rest) == sorted(solves)
        assert all(graph == g for _, graph in rest)
        # a second certificate of equal factors, in the same process, runs
        # only the refine again
        solve_log.clear()
        again = certify_rd_lex(from_edge_list(g.n, list(g.edges())),
                               from_edge_list(h.n, list(h.edges())), node_budget=20000)
        assert again == cert
        assert solve_log == [(name, g) for name, _ in rest if name == "_min_rainbow_lex"]

    def test_disconnected_g(self, solve_log):
        # FORK6 is RdH3Pair with an open bracket (gamma 2 < gamma_t 3), C4
        # RdH3Pair with a closed one (gamma = gamma_t = 2)
        g = from_edge_list(10, list(FORK6.edges()) + [(6, 7), (7, 8), (8, 9), (9, 6)])
        h = gen_path(4)
        cert = certify_rd_lex(g, h, node_budget=20000)
        assert [part.case for _, part in cert.parts] == ["RdH3Pair", "RdH3Pair"]
        assert solve_log[:1] == [("min_rainbow", h)]
        c4 = gen_cycle(4)
        assert sorted((name, graph.n) for name, graph in solve_log[1:]) == sorted([
            ("min_dominating_set", 6), ("min_couple_cost", 6), ("_min_rainbow_lex", 6),
            ("min_dominating_set", 4), ("min_couple_cost", 4),
        ])
        assert all(graph in (FORK6, c4) for _, graph in solve_log[1:])


class TestPathTheorem:
    """A path or cycle g with an RdH3Pair h gets the exact value
    path_upper_bound(n) from the theorem (tests/test_path_theorem.py), with
    the upper labeling and no search, whatever the product's size."""

    @pytest.mark.parametrize("g, budget, text", [
        (gen_path(20), 500, "interval [14,18], case RdH3Pair; refined exact 18"),
        (gen_cycle(18), 20000, "interval [12,16], case RdH3Pair; refined exact 16"),
        (gen_cycle(64), 200, "interval [44,56], case RdH3Pair; refined exact 56"),
        (gen_path(64), 200, "interval [44,56], case RdH3Pair; refined exact 56"),
    ], ids=["P20", "C18", "C64", "P64"])
    def test_no_refine_search(self, solve_log, g, budget, text):
        cert = certify_rd_lex(g, gen_path(4), node_budget=budget)
        assert cert.describe() == text
        assert cert.refined_labeling is cert.upper_labeling and cert.notes == ()
        assert "by the theorem" in cert.citations[-1]
        assert all(name != "_min_rainbow_lex" for name, _ in solve_log)

    def test_couple_below_the_tiling_is_an_internal_fault(self, monkeypatch, solve_log):
        import rainbowdom.certify as certify_mod

        real = certify_mod.min_couple_cost

        def lighter(g, *args, **kwargs):
            value, couple = real(g, *args, **kwargs)
            return path_upper_bound(g.n) - 1, couple

        monkeypatch.setattr(certify_mod, "min_couple_cost", lighter)
        with pytest.raises(RainbowDomError, match="couple optimum below the path theorem"):
            certify_rd_lex(gen_path(8), gen_path(4))
        assert all(name != "_min_rainbow_lex" for name, _ in solve_log)


class TestFactorMemo:
    """Certificates in one process share the solves that depend on one
    factor: the classification of h, and gamma, gamma_t and the couple
    optimum of a first factor, each keyed by the graph's value and the node
    budget. The refine is never shared."""

    def test_first_factor_shared_across_second_factors(self, solve_log):
        p8 = gen_path(8)
        assert certify_rd_lex(p8, gen_path(2), node_budget=20000).case == "RdH2"
        assert certify_rd_lex(p8, gen_path(4), node_budget=20000).case == "RdH3Pair"
        assert certify_rd_lex(p8, gen_path(6), node_budget=20000).case == "RdH4Plus"
        assert solve_log.count(("min_dominating_set", p8)) == 1
        assert solve_log.count(("min_total_dominating_set", p8)) == 1

    def test_equal_components_share_solves(self, solve_log):
        cert = certify_rd_lex(_two_copies(FORK6), gen_path(4), node_budget=20000)
        assert [part.case for _, part in cert.parts] == ["RdH3Pair", "RdH3Pair"]
        for name in ("min_dominating_set", "min_couple_cost"):
            assert solve_log.count((name, FORK6)) == 1
        assert ("min_total_dominating_set", FORK6) not in solve_log
        # each component refines on its own
        assert solve_log.count(("_min_rainbow_lex", FORK6)) == 2

    def test_budget_is_part_of_the_key(self, solve_log):
        h = gen_double_c4()
        cls = classify_h(h)
        assert classify_h(h) is cls
        assert [name for name, _ in solve_log] == ["min_rainbow"]
        rd = min_rainbow(h, 2)
        solve_log.clear()
        # a smaller budget still raises, and a call that raised is solved again
        for _ in range(2):
            with pytest.raises(BudgetError):
                classify_h(h, node_budget=rd.nodes_explored - 1)
        assert [name for name, _ in solve_log] == ["min_rainbow"] * 2


class TestCorpusSolveOnce:
    """The corpus replay classifies each second factor once per run, and a
    task builds its upper labelings from the witnesses it solved, without
    solving again."""

    H = (gen_path(2), gen_path(4), gen_cycle(5))
    # recorded where each task classified h itself, before the path theorem's
    # check (P2, P3, C3, P4 and C4 with P4) joined them; the cartesian route
    # is compared at k = 2 only, once per first factor (10 of them)
    CHECKS = {"rainbow_vs_cartesian": 10, "general_bounds": 20, "upper_universal": 10,
              "upper_couple": 30, "case_value": 30, "upper_total_dom": 27, "lower_2gamma": 27,
              "projection_exists": 9, "projection_all_minima": 4, "path_theorem": 5}
    TRACKED = {
        "certify": ("classify_h",),
        # min_rainbow_via_cartesian so that its solve of g x K_k counts as nested
        "solvers": ("min_rainbow", "min_dominating_set", "min_total_dominating_set",
                    "min_rainbow_via_cartesian"),
        "couples": ("couple_labeling",),
        "constructions": ("total_dom_labeling", "universal_vertex_labeling"),
    }

    def test_checks_pinned(self):
        rep = verify_corpus(4, list(self.H), 42)
        assert rep.ok and rep.skips == []
        assert rep.checks == self.CHECKS

    def test_each_sub_problem_once(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        # (name, first argument, task as (g6g, g6h) or None, inside the certificate,
        # nesting depth among the tracked calls)
        log = []
        state = {"task": None, "cert": False, "depth": 0}

        for home, names in self.TRACKED.items():
            for fname in names:
                def make(orig, _name=fname):
                    def tracked(*args, **kwargs):
                        log.append((_name, args[0], state["task"], state["cert"], state["depth"]))
                        state["depth"] += 1
                        try:
                            return orig(*args, **kwargs)
                        finally:
                            state["depth"] -= 1
                    return tracked

                _wrap_everywhere(monkeypatch, home, fname, make)

        def within(key, orig, value=lambda args: True):
            def run(*args, **kwargs):
                before, state[key] = state[key], value(args)
                try:
                    return orig(*args, **kwargs)
                finally:
                    state[key] = before
            return run

        # a task's tuple holds its name, then the graphs g and h
        monkeypatch.setattr(certify_mod, "_corpus_task",
                            within("task", certify_mod._corpus_task, lambda args: args[0][1:3]))
        monkeypatch.setattr(certify_mod, "_certify_connected",
                            within("cert", certify_mod._certify_connected))

        rep = verify_corpus(4, list(self.H), 42)
        tasks = {entry[2] for entry in log} - {None}
        assert len(tasks) == rep.tasks == 30
        # one classification per second factor, before the tasks
        assert [(graph, t) for name, graph, t, _, _ in log if name == "classify_h"] == [
            (h, None) for h in self.H]
        # no labeling construction that solves again
        assert not {name for name, *_ in log} & {
            "couple_labeling", "total_dom_labeling", "universal_vertex_labeling"}
        # no solve on h by a task itself (unless g is h); K1 o h is h, so its
        # oracle solve is one
        on_h = [(name, t) for name, graph, t, _, depth in log
                if t is not None and depth == 0 and t[0] != t[1] and graph == t[1]]
        assert on_h == [("min_rainbow", (gen_path(1), h)) for h in self.H]
        # at most one gamma_t(g) solve per task outside the certificate
        for t in tasks:
            assert sum(1 for name, _, t2, in_cert, _ in log
                       if t2 == t and not in_cert and name == "min_total_dominating_set") <= 1

    @pytest.mark.parametrize("fault", [BudgetError, RuntimeError])
    def test_failed_classification_is_each_tasks_fault(self, monkeypatch, fault):
        import rainbowdom.certify as certify_mod

        real, p4 = certify_mod.classify_h, gen_path(4)

        def classify(h, **kwargs):
            if h == p4:
                raise fault("injected")
            return real(h, **kwargs)

        monkeypatch.setattr(certify_mod, "classify_h", classify)
        rep = verify_corpus(3, [gen_path(2), p4], 42)
        names = [f"{to_graph6(g)} o {to_graph6(p4)}"
                 for n in (1, 2, 3) for g in enumerate_connected_graphs(n)]
        if fault is BudgetError:
            assert rep.violations == []
            assert rep.skips == [f"{name}: budget exhausted (injected)" for name in names]
        else:
            assert rep.skips == []
            assert len(rep.violations) == len(names)
            for name, violation in zip(names, rep.violations):
                # where it was raised, in either mode
                assert violation.startswith(
                    f"{name}: raised RuntimeError: injected (at test_certify.py:")
        # the P2 tasks ran every check, cleanly
        assert rep.checks == verify_corpus(3, [gen_path(2)], 42).checks
        assert verify_corpus(3, [gen_path(2), p4], 42, workers=2).to_text() == rep.to_text()


class TestComponentSum:
    def test_disconnected_g(self):
        g = from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
        h = gen_path(4)
        cert = certify_rd_lex(g, h)
        assert cert.case == "ComponentSum"
        assert cert.parts is not None and len(cert.parts) == 2
        prod = lexicographic(g, h)
        exact = min_rainbow(prod, 2).value
        lo, hi = cert.lo, cert.hi
        assert lo <= exact <= hi
        assert is_k_rainbow_dominating(prod, cert.upper_labeling)
        # per-part certificates carry their own cases
        cases = {c.case for _, c in cert.parts}
        assert cases <= {"RdH3Pair", "TrivialG"}

    # the upper labeling is merged from the components' labelings layer by
    # layer; these masks were recorded with the earlier per-vertex merge. The
    # parts of P3+C5 o P4 refine to their upper labelings: the couple
    # labeling on P3, and on C5 the path tiling along a spanning path
    MERGED = {
        "P3+C5 o P4": (gen_path(3), gen_cycle(5), gen_path(4), (
            0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 2, 0, 1, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0)),
        "K2+P4 o C5": (gen_complete(2), gen_path(4), gen_cycle(5), (
            0, 1, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    }

    @pytest.mark.parametrize("name", sorted(MERGED))
    def test_merged_upper_labeling_pinned(self, name):
        first, second, h, masks = self.MERGED[name]
        g = from_edge_list(first.n + second.n, list(first.edges()) + [
            (u + first.n, v + first.n) for u, v in second.edges()])
        cert = certify_rd_lex(g, h)
        assert cert.case == "ComponentSum"
        assert cert.upper_labeling.masks == masks
        assert cert.lo == cert.hi == sum(m.bit_count() for m in masks)
        assert is_k_rainbow_dominating(lexicographic(g, h), cert.upper_labeling)

    def test_disconnected_h_is_exact_by_its_case(self):
        # 2K2 has rd_2 = 4: 2 gamma_t(P3)
        g = gen_path(3)
        h = from_edge_list(4, [(0, 1), (2, 3)])
        cert = certify_rd_lex(g, h)
        assert cert.describe() == "exact 4, case RdH4Plus"
        prod = lexicographic(g, h)
        assert cert.value == min_rainbow(prod, 2).value

    def test_disconnected_h_beyond_product_cap(self):
        # 80 product vertices, 2 gamma_t(P20) by the case, no search on g o h
        g = gen_path(20)
        h = from_edge_list(4, [(0, 1), (2, 3)])
        cert = certify_rd_lex(g, h)
        assert cert.case == "RdH4Plus" and cert.value == 20
        prod = lexicographic(g, h)
        assert prod.n == 80
        assert cert.upper_labeling.weight == 20
        assert is_k_rainbow_dominating(prod, cert.upper_labeling)
        # P64 o (P3 + K1), 256 vertices: the path theorem, which the layer
        # cover confirms on its own in the node count the README quotes
        h = from_edge_list(4, [(0, 1), (1, 2)])
        assert certify_rd_lex(gen_path(64), h, node_budget=200).describe() == (
            "interval [44,56], case RdH3Pair; refined exact 56")
        res = _min_rainbow_lex(gen_path(64), h)
        assert res.value == 56 and res.nodes_explored == 10_330


class TestAgainstExactSolves:
    def test_certificates_bracket_exact_values(self, spider):
        hs = [gen_path(4), gen_cycle(4), gen_path(6), gen_cycle(5), spider]
        corpus = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
        for g in corpus:
            for h in hs:
                if g.n * h.n > 24:
                    continue
                cert = certify_rd_lex(g, h)
                prod = lexicographic(g, h)
                exact = min_rainbow(prod, 2).value
                assert cert.lo <= exact <= cert.hi, (g.adj, h.adj)
                if cert.value is not None:
                    assert cert.value == exact

    def test_every_disconnected_h(self):
        # README, Proposition 3: every disconnected h on 2 to 6 vertices takes
        # the case classify_h picks, against the layer cover on g o h
        hs = [h for n in range(2, 7) for h in enumerate_graphs(n) if not is_connected(h)]
        gs = [g for n in range(1, 6) for g in enumerate_connected_graphs(n)]
        assert (len(hs), len(gs)) == (65, 31)
        for h in hs:
            tag = classify_h(h).tag
            for g in gs:
                cert = certify_rd_lex(g, h)
                value = _min_rainbow_lex(g, h).value
                assert cert.case == ("TrivialG" if g.n == 1 else tag), (g.adj, h.adj)
                assert cert.lo <= value <= cert.hi, (g.adj, h.adj)
                assert cert.value in (None, value), (g.adj, h.adj)

    def test_certificates_with_h_dc4(self):
        corpus = [g for n in range(1, 4) for g in enumerate_connected_graphs(n)]
        for g in corpus:
            cert = certify_rd_lex(g, gen_double_c4())
            prod = lexicographic(g, gen_double_c4())
            exact = min_rainbow(prod, 2).value
            assert cert.lo <= exact <= cert.hi
            if cert.value is not None:
                assert cert.value == exact


class TestProjectionProperty:
    def test_dominating_case(self):
        g, h = gen_path(4), gen_cycle(4)
        cert = certify_rd_lex(g, h)
        assert projection_property(g, h.n, cert.upper_labeling) == (True, True)

    def test_non_dominating_case(self):
        g = gen_path(3)
        f = RainbowLabeling(2, (1, 0, 0))
        assert projection_property(g, 1, f) == (False, False)

    def test_rejects_wrong_k(self):
        g = gen_path(2)
        with pytest.raises(ValueError):
            projection_property(g, 1, RainbowLabeling(3, (1, 0)))

    def test_rejects_size_mismatch(self):
        g = gen_path(2)
        with pytest.raises(ValueError):
            projection_property(g, 2, RainbowLabeling(2, (1, 0)))


class TestProjectionSearch:
    # second factors of 1 to 4 vertices, the disconnected ones included
    SMALL_H = (
        gen_complete(1), gen_complete(2), from_edge_list(2, []), gen_path(3), gen_complete(3),
        from_edge_list(3, []), from_edge_list(3, [(0, 1)]), gen_path(4),
    )

    def test_agrees_with_enumeration(self):
        outcomes = set()
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                for h in self.SMALL_H:
                    if g.n * h.n > 14:
                        continue
                    prod = lexicographic(g, h)
                    rd2 = min_rainbow(prod, 2).value
                    props = [projection_property(g, h.n, f)
                             for f in enumerate_min_2rdfs(prod, 10**6)]
                    gap = _projection_gap(g, prod, h.n, rd2, 10**6)
                    both = _dominating_projections(g, prod, h.n, rd2, 10**6)
                    where = (g.adj, h.adj)
                    assert (gap is None) == all(p1 and p2 for p1, p2 in props), where
                    assert (both is None) == (not any(p1 and p2 for p1, p2 in props)), where
                    outcomes.add((gap is None, both is None))
                    if gap is not None:
                        a, f = gap
                        assert f.weight == rd2 and is_k_rainbow_dominating(prod, f)
                        # no vertex of the layers of N_g[a] carries color 1
                        assert not any(f.masks[p] & 1 for b in iter_bits(g.closed(a))
                                       for p in range(b * h.n, (b + 1) * h.n))
                    if both is not None:
                        assert both.weight == rd2 and is_k_rainbow_dominating(prod, both)
                        assert projection_property(g, h.n, both) == (True, True)
        # each check meets both of its answers on this corpus
        assert {gap_none for gap_none, _ in outcomes} == {True, False}
        assert {both_none for _, both_none in outcomes} == {True, False}

    def test_gap_is_one_violation(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        h = gen_path(3)
        fake = RainbowLabeling(2, (3, 0, 0, 0, 0, 0))

        def gap_on_p2(g, prod, nh, rd2, budget):
            return (1, fake) if g.n == 2 else None

        monkeypatch.setattr(certify_mod, "_projection_gap", gap_on_p2)
        rep = verify_corpus(3, [h], 14)
        assert rep.checks["projection_all_minima"] == 3
        name = f"{to_graph6(gen_path(2))} o {to_graph6(h)}"
        assert rep.violations == [
            f"{name}: minimum labeling (0,0):{{1,2}} has a color-1 projection "
            "that does not dominate vertex 1 of the first factor"
        ]


class TestVerifyCorpus:
    def test_small_run_clean(self):
        rep = verify_corpus(3, [gen_cycle(4)], 20)
        assert rep.tasks == 4
        assert rep.ok and rep.violations == []
        for key in ("rainbow_vs_cartesian", "general_bounds", "upper_total_dom",
                    "upper_couple", "lower_2gamma", "case_value"):
            assert rep.checks.get(key, 0) > 0
        text = rep.to_text()
        assert "violations: 0" in text

    def test_text_deterministic_and_parallel_equal(self):
        a = verify_corpus(3, [gen_path(4)], 16)
        b = verify_corpus(3, [gen_path(4)], 16, workers=2)
        assert a.to_text() == b.to_text()

    def test_json_has_wall_time(self):
        rep = verify_corpus(2, [gen_path(2)], 8)
        d = rep.to_json_dict()
        assert d["wall_seconds"] > 0
        assert d["violations"] == []
        assert "wall_seconds" not in rep.to_text()

    def test_k2_exists_check_runs(self):
        rep = verify_corpus(3, [gen_path(2)], 14)
        assert rep.checks.get("projection_exists", 0) > 0
        assert rep.ok

    def test_pair_h_checks_the_path_theorem(self):
        # each RdH3Pair task on a path or a cycle (P2, P3, C3) checks the path
        # theorem against the oracle
        rep = verify_corpus(3, [gen_path(4)], 16)
        assert rep.checks["path_theorem"] == 3
        assert rep.ok

    def test_skips_recorded_beyond_cap(self):
        rep = verify_corpus(3, [gen_cycle(4)], 8)
        assert rep.skips  # the 3-vertex factors exceed an 8-vertex product cap
        assert rep.ok

    def test_refuses_product_cap_beyond_the_oracle(self):
        # the oracle solves products of at most 64 vertices; a larger cap is
        # refused before any task runs, not reported as task violations
        with pytest.raises(CapacityError):
            verify_corpus(2, [gen_path(2)], 65)
        assert verify_corpus(2, [gen_path(2)], 64).ok

    def test_refuses_empty_corpus(self):
        # no first factor has fewer than one vertex: refused, instead of a
        # clean report of no checks
        for ng_max in (0, -2):
            with pytest.raises(PreconditionError,
                               match=f"^the corpus needs ng_max of at least 1, got {ng_max}$"):
                verify_corpus(ng_max, [gen_path(4)], 12)

    def test_replays_disconnected_h(self):
        # 2K2 is RdH4Plus (README, Proposition 3); its tasks run every check
        twok2 = from_edge_list(4, [(0, 1), (2, 3)])
        rep = verify_corpus(3, [gen_path(4), twok2], 42)
        assert rep.ok and rep.tasks == 8 and rep.skips == []
        assert rep.checks["case_value"] == 8 and rep.checks["projection_all_minima"] == 6

    # RdH3Pair second factors: P4, P3 + K1 and K2 + K1 (README, Proposition 2)
    PAIR_H = (gen_path(4), from_edge_list(4, [(0, 1), (1, 2)]), from_edge_list(3, [(0, 1)]))

    def test_rdh3pair_h_independent(self):
        # each of the 4 first factors compares the second and third factor
        # with the first
        rep = verify_corpus(3, list(self.PAIR_H), 42)
        assert rep.ok and rep.checks["rdh3pair_h_independent"] == 8
        assert verify_corpus(3, list(self.PAIR_H), 42, workers=2).to_text() == rep.to_text()
        # one RdH3Pair second factor compares nothing
        assert "rdh3pair_h_independent" not in verify_corpus(3, [gen_path(4)], 42).checks

    def test_rdh3pair_h_mismatch_is_a_violation(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        real, k2k1 = certify_mod._corpus_task, self.PAIR_H[2]

        def shifted(args):
            # the oracle value of P2 o (K2 + K1) one too high
            checks, violations, skips, (tag, value) = real(args)
            if args[1] == gen_path(2) and args[2] == k2k1:
                value += 1
            return checks, violations, skips, (tag, value)

        monkeypatch.setattr(certify_mod, "_corpus_task", shifted)
        rep = verify_corpus(3, list(self.PAIR_H), 42)
        assert rep.checks["rdh3pair_h_independent"] == 8
        p2, p4 = to_graph6(gen_path(2)), to_graph6(self.PAIR_H[0])
        assert rep.violations == [
            f"{p2} o {to_graph6(k2k1)}: RdH3Pair oracle value 4 differs from 3 of {p2} o {p4}"]

    def test_task_fault_is_a_violation(self, monkeypatch):
        import rainbowdom.certify as certify_mod

        real = certify_mod.min_couple_cost

        def faulty(g, *args, **kwargs):
            if g.n == 2:
                raise RuntimeError("injected fault")
            return real(g, *args, **kwargs)

        monkeypatch.setattr(certify_mod, "min_couple_cost", faulty)
        rep = verify_corpus(3, [gen_cycle(4)], 20)
        assert rep.tasks == 4
        assert len(rep.violations) == 1
        name = f"{to_graph6(gen_path(2))} o {to_graph6(gen_cycle(4))}"
        assert rep.violations[0].startswith(f"{name}: raised RuntimeError: injected fault")
        # the other tasks still ran their checks
        assert rep.checks["upper_couple"] == 3
