import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rainbowdom import (
    ParseError,
    PreconditionError,
    RainbowCheck,
    RainbowDomError,
    RainbowLabeling,
    SolveResult,
    cartesian,
    format_labeling,
    from_edge_list,
    gen_complete,
    gen_cycle,
    gen_path,
    gen_star,
    is_dominating_set,
    is_k_rainbow_dominating,
    lexicographic,
    min_rainbow_via_cartesian,
    parse_labeling,
)
from rainbowdom import solvers
from rainbowdom.labelings import _is_k_rainbow_dominating_lex
from rainbowdom.solvers import _cover_labeling

from conftest import brute_valid_rdf, reference_rainbow_violator


def masks_to_sets(masks, k):
    return tuple(frozenset(c for c in range(1, k + 1) if m >> (c - 1) & 1)
                 for m in masks)


class TestRainbowLabeling:
    def test_weight(self):
        f = RainbowLabeling(2, (3, 0, 1, 2))
        assert f.weight == 4

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError):
            RainbowLabeling(2, (4,))
        with pytest.raises(ValueError):
            RainbowLabeling(1, (2, 0))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            RainbowLabeling(0, ())
        with pytest.raises(ValueError):
            RainbowLabeling(9, (0,))

    def test_label_access(self):
        # a vertex's label is its color mask, bit c - 1 for color c, and
        # reads back as a color set in the text format
        f = RainbowLabeling(3, (5, 0))
        assert f.masks == (5, 0)
        assert masks_to_sets(f.masks, 3) == ({1, 3}, frozenset())
        assert format_labeling(f) == "0: {1,3}\n1: -\n"
        assert f.n == 2


class TestValidity:
    def test_agrees_with_oracle_exhaustively(self):
        # every 2-labeling of P_4 and C_3, both verdicts compared
        for g in (gen_path(4), gen_cycle(3)):
            for masks in itertools.product(range(4), repeat=g.n):
                f = RainbowLabeling(2, masks)
                ours = bool(is_k_rainbow_dominating(g, f))
                theirs = brute_valid_rdf(g, 2, masks_to_sets(masks, 2))
                assert ours == theirs

    def test_k3_spot_checks(self):
        g = gen_star(4)
        assert is_k_rainbow_dominating(g, RainbowLabeling(3, (7, 0, 0, 0)))
        assert not is_k_rainbow_dominating(g, RainbowLabeling(3, (3, 0, 0, 0)))

    def test_no_empty_labels_is_vacuously_valid(self):
        g = gen_path(3)
        f = RainbowLabeling(2, (1, 1, 1))
        assert is_k_rainbow_dominating(g, f)

    def test_violator_reported(self):
        g = gen_path(3)
        chk = is_k_rainbow_dominating(g, RainbowLabeling(2, (0, 1, 0)))
        assert not chk
        assert chk.violator == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_k_rainbow_dominating(gen_path(3), RainbowLabeling(2, (0, 3)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_verdict_and_violator_as_the_neighbor_scan(self, data):
        n = data.draw(st.integers(1, 12))
        pairs = list(itertools.combinations(range(n), 2))
        bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        k = data.draw(st.integers(1, 4))
        masks = list(data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)))
        repair = data.draw(st.booleans())
        if repair:
            # a labeled vertex never breaks another's condition, so labeling
            # each violator in turn leaves a valid labeling
            while (v := reference_rainbow_violator(g, k, tuple(masks))) is not None:
                masks[v] = data.draw(st.integers(1, (1 << k) - 1))
        expected = reference_rainbow_violator(g, k, tuple(masks))
        chk = is_k_rainbow_dominating(g, RainbowLabeling(k, tuple(masks)))
        assert (bool(chk), chk.violator) == (expected is None, expected)
        if repair:
            assert chk


class TestLayerCheck:
    """_is_k_rainbow_dominating_lex checks a labeling of g o h layer by
    layer, without building the product: its verdict and first violator are
    those of is_k_rainbow_dominating on lexicographic(g, h)."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_same_check_as_on_the_product(self, data):
        def graph(lo, hi):
            n = data.draw(st.integers(lo, hi))
            pairs = list(itertools.combinations(range(n), 2))
            bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
            return from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])

        g, h = graph(0, 6), graph(1, 5)  # h may be K_1 or disconnected
        k = data.draw(st.integers(1, 3))
        prod = lexicographic(g, h)
        masks = list(data.draw(st.lists(st.integers(0, (1 << k) - 1),
                                        min_size=prod.n, max_size=prod.n)))
        if data.draw(st.booleans()):
            # label each violator in turn: the labeling ends valid
            while (v := reference_rainbow_violator(prod, k, tuple(masks))) is not None:
                masks[v] = data.draw(st.integers(1, (1 << k) - 1))
        f = RainbowLabeling(k, tuple(masks))
        assert _is_k_rainbow_dominating_lex(g, h, f) == is_k_rainbow_dominating(prod, f)

    def test_violator_in_product_order(self):
        # P3 o P2, layers {0, 1}, {2, 3}, {4, 5}
        g, h = gen_path(3), gen_path(2)
        for masks, violator in (((1, 0, 1, 0, 0, 0), 1),  # vertex 1 lacks color 2
                                # layer 1 is skipped: its neighbors carry both
                                # colors; vertex 5 lacks color 2
                                ((3, 0, 0, 0, 1, 0), 5),
                                ((3, 0, 0, 0, 3, 0), None)):
            f = RainbowLabeling(2, masks)
            expected = RainbowCheck(violator is None, violator)
            assert is_k_rainbow_dominating(lexicographic(g, h), f) == expected
            assert _is_k_rainbow_dominating_lex(g, h, f) == expected

    def test_size_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            _is_k_rainbow_dominating_lex(gen_path(3), gen_path(2), RainbowLabeling(2, (3,) * 5))


class TestConversions:
    """A set of vertices of G x K_k, vertex (v, color c + 1) at k v + c in
    the product's row-major order, read back as a k-labeling of G by
    _cover_labeling, as min_rainbow_via_cartesian and every cover search
    over G x K_2 read theirs."""

    def test_product_set_to_rdf_round_trip(self):
        g = gen_path(4)
        f = RainbowLabeling(2, (0, 3, 0, 1))
        s = {v * 2 + c for v, m in enumerate(f.masks) for c in range(2) if m >> c & 1}
        assert s == {2, 3, 6}
        prod = cartesian(g, gen_complete(2))
        assert is_dominating_set(prod, s)
        assert _cover_labeling(4, s, 2) == f

    def test_non_dominating_set_rejected(self, monkeypatch):
        # a search that returns a set that does not dominate the product is
        # an internal fault, not a bad argument
        def broken_search(prod, *, node_budget):
            return SolveResult(1, frozenset({0}), 1)

        monkeypatch.setattr(solvers, "min_dominating_set", broken_search)
        with pytest.raises(RainbowDomError) as exc:
            min_rainbow_via_cartesian(gen_path(4), 2)
        assert str(exc.value).startswith("internal check failed")
        assert not isinstance(exc.value, PreconditionError)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_set_dominates_the_product_iff_its_labeling_is_rainbow(self, data):
        n = data.draw(st.integers(1, 8))
        pairs = list(itertools.combinations(range(n), 2))
        bits = data.draw(st.integers(0, (1 << len(pairs)) - 1))
        g = from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        k = data.draw(st.integers(1, 4))
        prod = cartesian(g, gen_complete(k))
        chosen = set(data.draw(st.lists(st.integers(0, prod.n - 1))))
        if data.draw(st.booleans()):
            # add each vertex that is still undominated: the set then dominates
            covered = 0
            for x in chosen:
                covered |= prod.closed(x)
            for x in range(prod.n):
                if not covered >> x & 1:
                    chosen.add(x)
                    covered |= prod.closed(x)
        f = _cover_labeling(g.n, chosen, k)
        assert f.weight == len(chosen)
        assert bool(is_k_rainbow_dominating(g, f)) == is_dominating_set(prod, chosen)


class TestFormatParse:
    def test_format(self):
        f = RainbowLabeling(2, (3, 0, 1))
        assert format_labeling(f).splitlines() == ["0: {1,2}", "1: -", "2: {1}"]

    def test_round_trip(self):
        for masks in [(0, 3, 0, 1), (1, 2, 3, 0), (0, 0, 0, 0)]:
            f = RainbowLabeling(2, masks)
            assert parse_labeling(format_labeling(f), 2) == f

    def test_parse_tolerates_blank_lines_and_order(self):
        f = parse_labeling("\n1: -\n0: {2}\n", 2)
        assert f == RainbowLabeling(2, (2, 0))

    def test_parse_rejects_garbage(self):
        for bad in ["0: {9}", "0: {1,2", "x: {1}", "0: {1}\n0: {2}", ""]:
            with pytest.raises(ParseError):
                parse_labeling(bad, 2)

    def test_parse_rejects_missing_vertex(self):
        with pytest.raises(ParseError):
            parse_labeling("0: {1}\n2: {2}", 2)


@pytest.mark.parametrize("text, message", [
    ("0 {1}", "bad labeling line: '0 {1}'"),
    ("0: {1}\n1: {x}", "bad color in line: '1: {x}'"),
], ids=["no colon", "non-integer color"])
def test_parse_labeling_input_checks(text, message):
    with pytest.raises(ParseError) as exc:
        parse_labeling(text, 2)
    assert type(exc.value) is ParseError and str(exc.value) == message
