import argparse
import io
import json
import os
import subprocess
import sys

import pytest

from rainbowdom import (
    BudgetError,
    CapExceededError,
    CapacityError,
    ParseError,
    PreconditionError,
    RainbowDomError,
    RainbowLabeling,
    SolveResult,
    couple_labeling,
    format_labeling,
    gen_cycle,
    gen_double_c4,
    gen_path,
    min_couple_cost,
    parse_graph6,
    parse_labeling,
    path_upper_bound,
    to_graph6,
)
from rainbowdom.cli import _build_parser, main

from conftest import perm_isomorphic


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _src_env(**extra):
    """os.environ plus extra, with this package's source first on PYTHONPATH."""
    import rainbowdom
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(rainbowdom.__file__)),
         os.environ.get("PYTHONPATH", "")]))


class TestInvariant:
    def test_gamma(self, capsys):
        rc, out, _ = run(capsys, "invariant", "P7", "--type", "gamma")
        assert rc == 0
        assert "gamma = 3" in out
        assert "witness: {" in out

    def test_gammat(self, capsys):
        rc, out, _ = run(capsys, "invariant", "P7", "--type", "gammat")
        assert rc == 0
        assert "gamma_t = 4" in out

    def test_rdk(self, capsys):
        rc, out, _ = run(capsys, "invariant", "P4", "--type", "rdk", "--k", "2")
        assert rc == 0
        assert "rd_2 = 3" in out
        assert "1: {1,2}" in out or "{1,2}" in out

    def test_k_refused_without_rdk(self, capsys):
        for kind in ("gamma", "gammat"):
            rc, out, err = run(capsys, "invariant", "P7", "--type", kind, "--k", "5")
            assert rc == 2 and out == ""
            assert err == "error: --k is read only with --type rdk\n"
        rc, out, _ = run(capsys, "invariant", "P4", "--type", "rdk")
        assert rc == 0 and out.startswith("rd_2 = 3\n")

    def test_rdk_k3(self, capsys):
        rc, out, _ = run(capsys, "invariant", "P7", "--type", "rdk", "--k", "3")
        assert rc == 0
        assert "rd_3 = 6" in out

    def test_graph6_file(self, capsys, tmp_path):
        p = tmp_path / "c5.g6"
        p.write_text(to_graph6(gen_cycle(5)) + "\n")
        rc, out, _ = run(capsys, "invariant", str(p), "--type", "gamma")
        assert rc == 0 and "gamma = 2" in out

    def test_edge_file_read_by_content(self, capsys, tmp_path):
        p = tmp_path / "graph.txt"
        p.write_text("3 2\n0 1\n1 2\n")
        rc, out, _ = run(capsys, "invariant", str(p), "--type", "gamma")
        assert rc == 0 and "gamma = 1" in out

    @pytest.mark.parametrize("name, text, gamma", [
        ("c5.txt", to_graph6(gen_cycle(5)) + "\n", 2),
        ("p3.g6", "\n3 2\n0 1\n1 2\n", 1),
        ("c5.txt", ">>graph6<<" + to_graph6(gen_cycle(5)) + "\n", 2),
    ], ids=["graph6 named .txt", "edge list named .g6", "graph6 header"])
    def test_file_format_from_content_not_name(self, capsys, tmp_path, name, text, gamma):
        # an edge list's first line is its `n m` header; a graph6 line has no whitespace
        p = tmp_path / name
        p.write_text(text)
        rc, out, _ = run(capsys, "invariant", str(p), "--type", "gamma")
        assert rc == 0 and out.startswith(f"gamma = {gamma}\n")

    def test_file_named_like_a_generator(self, capsys, tmp_path, monkeypatch):
        # P4 names the generator; the file of that name, the star K_{1,3}, is ./P4
        monkeypatch.chdir(tmp_path)
        (tmp_path / "P4").write_text("4 3\n0 1\n0 2\n0 3\n")
        assert run(capsys, "invariant", "P4", "--type", "gamma")[1].startswith("gamma = 2\n")
        assert run(capsys, "invariant", "./P4", "--type", "gamma")[1].startswith("gamma = 1\n")

    def test_named_glued(self, capsys):
        rc, out, _ = run(capsys, "invariant", "GLUED1_0", "--type", "gamma")
        assert rc == 0 and "gamma = 2" in out

    def test_exit_codes(self, capsys):
        assert run(capsys, "invariant", "Q4", "--type", "gamma")[0] == 2
        assert run(capsys, "invariant", "P65", "--type", "gamma")[0] == 3
        assert run(capsys, "invariant", "P20", "--type", "rdk",
                   "--budget", "5")[0] == 4
        assert run(capsys, "invariant", "P4", "--type", "rdk", "--k", "0")[0] == 5
        # gamma_t undefined with an isolated vertex
        assert run(capsys, "invariant", "P1", "--type", "gammat")[0] == 5

    def test_negative_budget_refused(self, capsys):
        # a parse error (exit 2), not a budget exhausted before the search (4);
        # 0 stays a budget
        rc, out, err = run(capsys, "certify", "P4", "P4", "--budget", "-5")
        assert rc == 2 and out == ""
        assert "argument --budget: expected a node count of 0 or more, got '-5'" in err
        assert run(capsys, "invariant", "P4", "--type", "gamma", "--budget", "x")[0] == 2
        assert run(capsys, "invariant", "P1", "--type", "gamma", "--budget", "0")[0] == 0

    def test_each_error_class_carries_its_exit_code(self):
        assert [cls.exit_code for cls in (
            RainbowDomError, ParseError, CapacityError, CapExceededError,
            BudgetError, PreconditionError,
        )] == [1, 2, 3, 3, 4, 5]

    def test_internal_check_failure_exits_1(self, capsys, monkeypatch):
        import rainbowdom.cli as cli

        def broken(g, *, node_budget):
            return SolveResult(1, frozenset(), 0)  # a witness that dominates nothing

        monkeypatch.setattr(cli.solvers, "min_dominating_set", broken)
        rc, _, err = run(capsys, "invariant", "P4", "--type", "gamma")
        assert rc == 1
        assert err == "error: internal check failed: witness invalid\n"


def _zeros(n):
    return RainbowLabeling(2, (0,) * n)  # labels nothing, so dominates nothing


# (module, name, forged result, argv, message): each forged result fails the
# check that the command runs before it prints
INTERNAL_CHECKS = {
    "invariant gammat": ("solvers", "min_total_dominating_set",
                         lambda g, **kw: SolveResult(1, frozenset(), 0),
                         ["invariant", "P4", "--type", "gammat"], "witness invalid"),
    "invariant rdk": ("solvers", "min_rainbow", lambda g, k, **kw: SolveResult(1, _zeros(g.n), 0),
                      ["invariant", "P4", "--type", "rdk"], "witness invalid"),
    "product": ("cli", "parse_graph6", lambda text: gen_path(1),
                ["product", "P3", "P4"], "product round-trip"),
    "construct": ("constructions", "path_pattern_labeling", lambda n, h: _zeros(n * h.n),
                  ["construct", "tiles", "--h", "P4", "--n", "9"], "construction invalid"),
}


@pytest.mark.parametrize("name", INTERNAL_CHECKS)
def test_internal_check_failure_exits_1_on_every_path(capsys, monkeypatch, name):
    module, attr, forged, argv, message = INTERNAL_CHECKS[name]
    monkeypatch.setattr(f"rainbowdom.{module}.{attr}", forged)
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err == f"error: internal check failed: {message}\n"


class TestProduct:
    def test_lex_k2_k2(self, capsys):
        rc, out, _ = run(capsys, "product", "P2", "P2")
        assert rc == 0 and out.strip() == "C~"

    def test_cart_k2_k2(self, capsys):
        rc, out, _ = run(capsys, "product", "P2", "P2", "--kind", "cart")
        assert rc == 0
        assert perm_isomorphic(parse_graph6(out.strip()), gen_cycle(4))

    def test_deterministic(self, capsys):
        a = run(capsys, "product", "P3", "C5")
        b = run(capsys, "product", "P3", "C5")
        assert a == b


class TestCertify:
    def test_exact_case(self, capsys):
        rc, out, _ = run(capsys, "certify", "P7", "DC4")
        assert rc == 0
        assert "certificate: exact 7, case RdH3NoPair" in out
        assert "lower witness: couple = 7" in out
        assert "A={4, 5} B={1}" in out
        assert "upper labeling weight: 7" in out
        assert "citations:" in out

    def test_interval_refined(self, capsys):
        rc, out, _ = run(capsys, "certify", "P5", "P4")
        assert rc == 0
        assert "certificate: interval [4,5], case RdH3Pair; refined exact 5" in out

    # P4 with two leaves at one end: not a path or a cycle, so the refine searches
    FORK6 = "6 5\n0 1\n1 2\n2 3\n3 4\n3 5\n"

    def test_refine_note_printed(self, capsys, monkeypatch, tmp_path):
        import rainbowdom.certify as certify_mod
        from rainbowdom import BudgetError

        def exhausted(g, h, *, node_budget, lo=0, hi=None):
            raise BudgetError(f"node budget {node_budget} exhausted")

        monkeypatch.setattr(certify_mod, "_min_rainbow_lex", exhausted)
        g = tmp_path / "fork6.txt"
        g.write_text(self.FORK6)
        rc, out, _ = run(capsys, "certify", str(g), "P4", "--budget", "777")
        assert rc == 0
        assert "certificate: interval [4,6], case RdH3Pair\n" in out
        assert "note: refine exhausted the node budget 777; interval kept" in out

    def test_labeling_out(self, capsys, tmp_path):
        dest = tmp_path / "lab.txt"
        rc, out, _ = run(capsys, "certify", "P5", "P4",
                         "--labeling-out", str(dest))
        assert rc == 0
        f = parse_labeling(dest.read_text(), 2)
        assert f.weight == 5

    def test_disconnected_h(self, capsys, tmp_path):
        p = tmp_path / "twok2.txt"
        p.write_text("4 2\n0 1\n2 3\n")
        rc, out, _ = run(capsys, "certify", "P3", str(p))
        assert rc == 0 and out.startswith("certificate: exact 4, case RdH4Plus\n")

    def test_component_sum(self, capsys, tmp_path):
        p = tmp_path / "p3_c4.txt"
        p.write_text("7 6\n0 1\n1 2\n3 4\n4 5\n5 6\n6 3\n")
        rc, out, _ = run(capsys, "certify", str(p), "P6")
        assert rc == 0
        assert "case ComponentSum" in out
        assert "components:" in out

    def test_trivial_h_within_budget(self, capsys):
        rc, out, _ = run(capsys, "certify", "P40", "K1", "--budget", "10000")
        assert rc == 0
        assert "certificate: exact 21, case TrivialH" in out

    def test_deterministic(self, capsys):
        a = run(capsys, "certify", "P6", "DC4")
        b = run(capsys, "certify", "P6", "DC4")
        assert a == b


class TestConstruct:
    def test_tiles_auto_pair(self, capsys):
        rc, out, _ = run(capsys, "construct", "tiles", "--h", "P4", "--n", "9")
        assert rc == 0
        f = parse_labeling(out, 2)
        assert f.weight == path_upper_bound(9)

    def test_glued(self, capsys):
        rc, out, _ = run(capsys, "construct", "glued", "--h", "P4",
                         "--m", "2", "--p2", "1")
        assert rc == 0
        assert parse_labeling(out, 2).weight == 10

    def test_totaldom(self, capsys):
        rc, out, _ = run(capsys, "construct", "totaldom", "--g", "P3",
                         "--h", "P6")
        assert rc == 0
        assert parse_labeling(out, 2).weight == 4

    def test_couple(self, capsys):
        rc, out, _ = run(capsys, "construct", "couple", "--g", "P7",
                         "--h", "DC4")
        assert rc == 0
        assert parse_labeling(out, 2).weight == 7

    def test_couple_solves_h_once(self, capsys, monkeypatch):
        # the labeling lifts the one solve of rd_k(h) that gives the couple costs
        import rainbowdom.couples as couples
        import rainbowdom.solvers as solvers

        g, h = gen_path(7), gen_double_c4()
        _, couple = min_couple_cost(g, 2, 3)
        expected = format_labeling(couple_labeling(g, h, 2, couple))
        calls, real = [], solvers.min_rainbow

        def counted(graph, k, **kwargs):
            calls.append((graph.n, k))
            return real(graph, k, **kwargs)

        monkeypatch.setattr(solvers, "min_rainbow", counted)
        monkeypatch.setattr(couples, "min_rainbow", counted)
        rc, out, _ = run(capsys, "construct", "couple", "--g", "P7", "--h", "DC4")
        assert rc == 0 and out == expected
        assert calls == [(7, 2)]

    def test_couple_h_too_small(self, capsys):
        rc, out, err = run(capsys, "construct", "couple", "--g", "P3", "--h", "P2",
                           "--k", "3")
        assert rc == 5 and out == ""
        assert err == "error: second factor needs at least 3 vertices, has 2\n"

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "lab.txt"
        rc, out, _ = run(capsys, "construct", "tiles", "--h", "P4", "--n", "5",
                         "--out", str(dest))
        assert rc == 0
        assert f"wrote {dest}" in out
        assert parse_labeling(dest.read_text(), 2).weight == 5

    def test_missing_args(self, capsys):
        assert run(capsys, "construct", "tiles", "--h", "P4")[0] == 2
        assert run(capsys, "construct", "glued", "--h", "P4")[0] == 2
        assert run(capsys, "construct", "totaldom", "--h", "P4")[0] == 2
        assert run(capsys, "construct", "couple", "--h", "P4")[0] == 2

    def test_no_pair_witness(self, capsys):
        for kind, size in (("tiles", "--n"), ("glued", "--m")):
            rc, out, err = run(capsys, "construct", kind, "--h", "P5", size, "5")
            assert rc == 5 and out == ""
            assert err == ("error: h has no pair witness: it needs a vertex of "
                           "degree |V(h)| - 2 and 2-rainbow number 3\n")

    def test_tiles_past_the_solver_cap(self, capsys, tmp_path):
        # the star K_{1,68} plus an isolated vertex: the pair witness (0, 69)
        # takes no search, so the 64-vertex cap does not apply
        h = tmp_path / "h70.txt"
        h.write_text("70 68\n" + "".join(f"0 {i}\n" for i in range(1, 69)))
        rc, out, _ = run(capsys, "construct", "tiles", "--h", str(h), "--n", "9")
        assert rc == 0
        f = parse_labeling(out, 2)
        assert f.weight == 9 and f.n == 630
        assert {p % 70 for p, m in enumerate(f.masks) if m} == {0, 69}


class TestValidateRoundTrip:
    def test_valid_then_tampered(self, capsys, tmp_path):
        prod_rc, prod_out, _ = run(capsys, "product", "P9", "P4")
        gfile = tmp_path / "prod.g6"
        gfile.write_text(prod_out)
        lab = tmp_path / "lab.txt"
        rc, out, _ = run(capsys, "construct", "tiles", "--h", "P4", "--n", "9",
                         "--out", str(lab))
        assert rc == 0
        rc, out, _ = run(capsys, "validate", str(lab), "--graph", str(gfile))
        assert rc == 0
        assert "valid: weight 9" in out
        # blank the first full label and watch it fail
        text = lab.read_text()
        assert "{1,2}" in text
        lab.write_text(text.replace("{1,2}", "-", 1))
        rc, out, _ = run(capsys, "validate", str(lab), "--graph", str(gfile))
        assert rc == 1
        assert "invalid: violator vertex" in out

    def test_size_mismatch(self, capsys, tmp_path):
        lab = tmp_path / "lab.txt"
        lab.write_text("0: {1}\n1: {2}\n")
        assert run(capsys, "validate", str(lab), "--graph", "P3")[0] == 5

    def test_garbage_labeling(self, capsys, tmp_path):
        lab = tmp_path / "lab.txt"
        lab.write_text("0: {9}\n")
        assert run(capsys, "validate", str(lab), "--graph", "P1")[0] == 2


class TestUnreadableInput:
    """A file that cannot be read, or is not UTF-8, is a parse error (exit 2)."""

    NOT_UTF8 = b"\xff\xfe\x00C~\n"

    def test_missing_labeling_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.txt"
        rc, out, err = run(capsys, "validate", str(missing), "--graph", "P4")
        assert rc == 2 and out == ""
        assert err == f"error: cannot read {missing}: No such file or directory\n"

    def test_graph_file_not_utf8(self, capsys, tmp_path):
        g6 = tmp_path / "bin.g6"
        g6.write_bytes(self.NOT_UTF8)
        rc, out, err = run(capsys, "invariant", str(g6), "--type", "gamma")
        assert rc == 2 and out == ""
        assert err == f"error: cannot read {g6}: not UTF-8 text\n"

    def test_labeling_file_not_utf8(self, capsys, tmp_path):
        lab = tmp_path / "lab.txt"
        lab.write_bytes(self.NOT_UTF8)
        rc, _, err = run(capsys, "validate", str(lab), "--graph", "P4")
        assert rc == 2
        assert err == f"error: cannot read {lab}: not UTF-8 text\n"


class TestEnumerate:
    def test_rdfs_k2(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "rdfs", "K2")
        assert rc == 0
        assert out.count("--") == 6
        assert "count: 6" in out

    def test_rdfs_cap_exceeded(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "rdfs", "K2", "--cap", "3")
        assert rc == 3

    def test_graphs(self, capsys):
        rc, out, _ = run(capsys, "enumerate", "graphs", "--n", "4")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all(parse_graph6(ln).n == 4 for ln in lines)

    def test_missing_args(self, capsys):
        assert run(capsys, "enumerate", "graphs")[0] == 2
        assert run(capsys, "enumerate", "rdfs")[0] == 2


class TestVerify:
    def test_small_corpus(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", "--ng", "2", "--h", "P4,C4",
                         "--cap", "10", "--json", str(dest))
        assert rc == 0
        assert "violations: 0" in out
        data = json.loads(dest.read_text())
        assert data["tasks"] == 4
        assert data["violations"] == []
        assert data["wall_seconds"] > 0

    def test_disconnected_h(self, capsys, tmp_path):
        p = tmp_path / "twok2.txt"
        p.write_text("4 2\n0 1\n2 3\n")
        rc, out, err = run(capsys, "verify", "--ng", "3", "--h", str(p),
                           "--cap", "42")
        assert rc == 0 and err == ""
        assert "tasks: 4" in out and "violations: 0" in out

    def test_empty_corpus_refused(self, capsys):
        for ng in ("0", "-2"):
            rc, out, err = run(capsys, "verify", "--ng", ng, "--h", "P4", "--cap", "12")
            assert rc == 5 and out == ""
            assert err == f"error: the corpus needs ng_max of at least 1, got {ng}\n"

    @pytest.mark.parametrize("cap", ["3", "-5"])
    def test_cap_below_every_product_refused(self, capsys, cap):
        # a refusal (exit 5), not a clean report that skipped every task
        rc, out, err = run(capsys, "verify", "--ng", "2", "--h", "P4", "--cap", cap)
        assert rc == 5 and out == ""
        assert err == ("error: the corpus needs a product cap of at least 4, the vertex "
                       f"count of its smallest product K1 o h, got {cap}\n")

    def test_empty_second_factor_refused(self, capsys, tmp_path):
        # a refusal (exit 5), not a violation in every task of the empty factor
        empty = tmp_path / "empty.g6"
        empty.write_text("?\n")
        rc, out, err = run(capsys, "verify", "--ng", "2", "--h", f"P4,{empty}", "--cap", "42")
        assert rc == 5 and out == ""
        assert err == "error: the corpus needs second factors of at least 1 vertex, got 0\n"

    def test_product_cap_beyond_the_oracle_refused(self, capsys):
        rc, out, err = run(capsys, "verify", "--ng", "2", "--h", "P2", "--cap", "65")
        assert rc == 3
        assert "at most 64 vertices" in err and out == ""

    @pytest.mark.parametrize("argv, code", [
        (("--ng", "0", "--h", "P4", "--cap", "12"), 5),
        (("--ng", "2", "--h", "C4,P2", "--cap", "65"), 3),
        (("--ng", "2", "--h", "P4", "--cap", "3"), 5),
    ])
    def test_refused_run_leaves_the_json_path_as_it_was(self, capsys, tmp_path, argv, code):
        dest = tmp_path / "report.json"
        rc, out, _ = run(capsys, "verify", *argv, "--json", str(dest))
        assert rc == code and out == ""
        assert not dest.exists()
        dest.write_text("kept\n")
        rc, out, _ = run(capsys, "verify", *argv, "--json", str(dest))
        assert rc == code and out == ""
        assert dest.read_text() == "kept\n"

    def test_json_replaces_a_file_already_there(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        dest.write_text("an older, longer report than the new one\n" * 100)
        rc, _, _ = run(capsys, "verify", "--ng", "2", "--h", "P4", "--cap", "10",
                       "--json", str(dest))
        assert rc == 0
        assert json.loads(dest.read_text())["tasks"] == 2

    def test_projection_cap_is_not_an_option(self, capsys):
        # products up to 14 vertices always get the projection checks
        rc, _, err = run(capsys, "verify", "--ng", "2", "--h", "P2", "--cap", "10",
                         "--enum-product-cap", "14")
        assert rc == 2
        assert "unrecognized arguments: --enum-product-cap" in err


class TestUnwritableOutput:
    """An output file that cannot be written is a parse error (exit 2)."""

    def test_construct_out(self, capsys, tmp_path):
        dest = tmp_path / "no_dir" / "f.txt"
        rc, out, err = run(capsys, "construct", "tiles", "--h", "P4", "--n", "9",
                           "--out", str(dest))
        assert rc == 2 and out == ""
        assert err == f"error: cannot write {dest}: No such file or directory\n"

    def test_certify_labeling_out(self, capsys, tmp_path):
        dest = tmp_path / "no_dir" / "lab.txt"
        rc, out, err = run(capsys, "certify", "P5", "P4", "--labeling-out", str(dest))
        assert rc == 2
        assert out.startswith("certificate: interval [4,5], case RdH3Pair")
        assert err == f"error: cannot write {dest}: No such file or directory\n"

    def test_verify_json(self, capsys, tmp_path):
        dest = tmp_path / "no_dir" / "report.json"
        rc, out, err = run(capsys, "verify", "--ng", "2", "--h", "P4", "--cap", "10",
                           "--json", str(dest))
        assert rc == 2 and out == ""  # refused before the replay
        assert err == f"error: cannot write {dest}: No such file or directory\n"


# Changing this list changes the command line; do it on purpose. Each entry is
# a command path and one option (or positional) that the path reads.
CLI_SLOTS = [
    "certify --budget", "certify --labeling-out", "certify g", "certify h",
    "construct couple --budget", "construct couple --g",
    "construct couple --h", "construct couple --k", "construct couple --out",
    "construct glued --h", "construct glued --m", "construct glued --out",
    "construct glued --p2",
    "construct tiles --h", "construct tiles --n", "construct tiles --out",
    "construct totaldom --budget",
    "construct totaldom --g", "construct totaldom --h", "construct totaldom --k",
    "construct totaldom --out",
    "enumerate graphs --n",
    "enumerate rdfs --budget", "enumerate rdfs --cap",
    "enumerate rdfs graph",
    "invariant --budget", "invariant --k", "invariant --type",
    "invariant graph",
    "product --kind", "product g", "product h",
    "validate --graph", "validate --k", "validate labeling",
    "verify --budget", "verify --cap", "verify --h", "verify --json",
    "verify --ng",
]


def _slots(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _slots(sub, path + (name,))
        elif not isinstance(action, argparse._HelpAction):
            name = action.option_strings[0] if action.option_strings else action.dest
            yield " ".join(path + (name,))


def test_cli_slots_are_pinned():
    assert sorted(_slots(_build_parser())) == CLI_SLOTS
    assert len(CLI_SLOTS) == 40
    assert len(UNREAD_SLOTS) == 43 and not set(UNREAD_SLOTS) & set(CLI_SLOTS)


# One command per option that its path accepted without reading it, and one
# each for the removed certify --strict, certify --no-refine and the --budget
# of the tilings, which search nothing, for the removed --format of every
# path, since a file's content gives its format, for the tilings' removed
# --u and --v, since the degrees of h give the pair, and for the removed
# verify --workers, since the replay runs in one process.
UNREAD_SLOTS = {
    "product --budget": ["product", "P3", "P3", "--budget", "5"],
    "certify --strict": ["certify", "P3", "P4", "--strict"],
    "certify --no-refine": ["certify", "P5", "P4", "--no-refine"],
    "validate --budget": ["validate", "f.txt", "--graph", "P4", "--budget", "5"],
    "construct tiles --g": ["construct", "tiles", "--h", "P4", "--n", "9", "--g", "P9"],
    "construct tiles --k": ["construct", "tiles", "--h", "P4", "--n", "9", "--k", "3"],
    "construct tiles --m": ["construct", "tiles", "--h", "P4", "--n", "9", "--m", "2"],
    "construct tiles --p2": ["construct", "tiles", "--h", "P4", "--n", "9", "--p2", "1"],
    "construct glued --g": ["construct", "glued", "--h", "P4", "--m", "2", "--g", "P9"],
    "construct glued --k": ["construct", "glued", "--h", "P4", "--m", "2", "--k", "3"],
    "construct glued --n": ["construct", "glued", "--h", "P4", "--m", "2", "--n", "9"],
    "construct tiles --budget": ["construct", "tiles", "--h", "P4", "--n", "9", "--budget", "5"],
    "construct glued --budget": ["construct", "glued", "--h", "P4", "--m", "2", "--budget", "5"],
    **{
        f"construct {kind} {opt}": ["construct", kind, "--g", "P3", "--h", "P6", opt, "1"]
        for kind in ("totaldom", "couple")
        for opt in ("--n", "--m", "--p2", "--u", "--v")
    },
    "enumerate rdfs --n": ["enumerate", "rdfs", "K2", "--n", "3"],
    "enumerate graphs graph": ["enumerate", "graphs", "P4", "--n", "3"],
    "enumerate graphs --cap": ["enumerate", "graphs", "--n", "4", "--cap", "1"],
    "enumerate graphs --format": ["enumerate", "graphs", "--n", "4", "--format", "edges"],
    "enumerate graphs --budget": ["enumerate", "graphs", "--n", "4", "--budget", "1"],
    "invariant --format": ["invariant", "P4", "--type", "gamma", "--format", "edges"],
    "product --format": ["product", "P3", "P3", "--format", "edges"],
    "certify --format": ["certify", "P3", "P4", "--format", "edges"],
    "validate --format": ["validate", "f.txt", "--graph", "P4", "--format", "edges"],
    "enumerate rdfs --format": ["enumerate", "rdfs", "K2", "--format", "edges"],
    "verify --format": ["verify", "--ng", "2", "--h", "P2", "--cap", "8", "--format", "edges"],
    "verify --workers": ["verify", "--ng", "2", "--h", "P4", "--cap", "12", "--workers", "2"],
    "construct tiles --format": ["construct", "tiles", "--h", "P4", "--n", "9",
                                 "--format", "edges"],
    "construct glued --format": ["construct", "glued", "--h", "P4", "--m", "2",
                                 "--format", "edges"],
    **{
        f"construct {kind} --format": ["construct", kind, "--g", "P3", "--h", "P6",
                                       "--format", "edges"]
        for kind in ("totaldom", "couple")
    },
    **{
        f"construct {kind} {opt}": ["construct", kind, "--h", "P4", size, "9", opt, "1"]
        for kind, size in (("tiles", "--n"), ("glued", "--m"))
        for opt in ("--u", "--v")
    },
}


@pytest.mark.parametrize("argv", UNREAD_SLOTS.values(), ids=UNREAD_SLOTS.keys())
def test_unread_option_refused(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "unrecognized arguments" in err


def test_options_follow_the_kind(capsys):
    # before the kind, --h is neither the second factor nor an abbreviated --help
    rc, out, err = run(capsys, "construct", "--h", "P4", "tiles", "--n", "9")
    assert rc == 2 and out == ""
    assert "invalid choice: 'P4'" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        exe = shutil.which("rainbowdom")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "invariant", "P4", "--type", "rdk"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "rd_2 = 3" in proc.stdout

    @pytest.mark.parametrize("module", ["rainbowdom", "rainbowdom.cli"])
    def test_run_as_module(self, module):
        def run_module(*argv):
            return subprocess.run([sys.executable, "-m", module, *argv],
                                  capture_output=True, text=True, env=_src_env())

        proc = run_module("invariant", "P4", "--type", "rdk")
        assert proc.returncode == 0
        assert "rd_2 = 3" in proc.stdout
        # a package error keeps its exit status: 65 vertices is past the solvers' cap
        assert run_module("certify", "P65", "P4").returncode == 3

    def test_closed_stdout_is_quiet(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["certify", "K1", "P40", "--budget", "10000"]) == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_pipe_ends_the_process_quietly(self, unbuffered):
        # the read end is closed before the process starts, so its first
        # write to stdout, or the flush of its buffer, meets a closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = _src_env(PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from rainbowdom.cli import entry; entry()",
                 "certify", "K1", "P40", "--budget", "10000"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == ""

    def test_entry_function_exits(self, capsys, monkeypatch):
        from rainbowdom.cli import entry
        monkeypatch.setattr(sys, "argv",
                            ["rainbowdom", "invariant", "P4", "--type", "gamma"])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == 0
