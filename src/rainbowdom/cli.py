"""Command-line interface.

Subcommands: invariant, product, certify, construct {tiles, glued, totaldom,
couple}, validate, enumerate {rdfs, graphs}, verify. Each command path takes
exactly the options it reads: --budget where it searches, and argparse
enforces the required ones, so anything else exits 2 as an unrecognized
argument. A graph is a generator name or a file, whose format its content
gives (_load_graph). Every printed value is re-validated against
its witness first, so a zero exit status certifies the output. A package
error prints one "error: ..." line and exits with the exit_code of its
class, the one mapping in errors.py; an input file that cannot be read and
an output file that cannot be written are both ParseErrors. `validate` exits
1 on an invalid labeling, and `verify` on a violation. A reader that
closes standard output early (`| head -n 1`) ends the command quietly with
exit status 1, the status Python gives a closed pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from . import certify as certify_mod
from . import constructions, couples, labelings, products, solvers
from .errors import ParseError, PreconditionError, RainbowDomError
from .graphs import (
    Graph,
    enumerate_connected_graphs,
    gen_complete,
    gen_cycle,
    gen_double_c4,
    gen_glued_paths,
    gen_path,
    gen_star,
    is_dominating_set,
    is_total_dominating_set,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)

_NAMED = re.compile(r"^([PCKS])(\d+)$")
_GLUED = re.compile(r"^GLUED(\d+)_(\d+)$")
_GENERATORS = {
    "P": gen_path,
    "C": gen_cycle,
    "K": gen_complete,
    "S": gen_star,
}


def _read_input(path: str) -> str:
    """The text of an input file; a file that is missing, unreadable or not
    UTF-8 is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc


def _write_output(path: str, text: str, mode: str = "w"):
    """Write an output file; a path that cannot be written is a ParseError."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_graph(name_or_path: str) -> Graph:
    """A named generator (P4, C5, K3, S4, DC4, GLUED2_1) or a file, read by
    its content: an edge list when its first non-blank line has two or more
    fields (the `n m` header), else graph6, which holds no whitespace. A
    file named like a generator is reached by its path, as ./P4."""
    if name_or_path == "DC4":
        return gen_double_c4()
    m = _NAMED.match(name_or_path)
    if m:
        return _GENERATORS[m.group(1)](int(m.group(2)))
    m = _GLUED.match(name_or_path)
    if m:
        return gen_glued_paths(int(m.group(1)), int(m.group(2)))
    text = _read_input(name_or_path)
    first = next((line for line in text.splitlines() if line.strip()), "")
    if len(first.split()) >= 2:
        return parse_edge_list(text)
    return parse_graph6(text)


def _fmt_set(vertices) -> str:
    return "{" + ", ".join(str(v) for v in sorted(vertices)) + "}"


def _cmd_invariant(args) -> int:
    if args.k is not None and args.type != "rdk":
        raise ParseError("--k is read only with --type rdk")
    k = 2 if args.k is None else args.k
    g = _load_graph(args.graph)
    budget = args.budget
    if args.type == "gamma":
        res = solvers.min_dominating_set(g, node_budget=budget)
        if len(res.witness) != res.value or not is_dominating_set(g, res.witness):
            raise RainbowDomError("internal check failed: witness invalid")
        print(f"gamma = {res.value}")
        print(f"witness: {_fmt_set(res.witness)}")
    elif args.type == "gammat":
        res = solvers.min_total_dominating_set(g, node_budget=budget)
        if len(res.witness) != res.value or not is_total_dominating_set(g, res.witness):
            raise RainbowDomError("internal check failed: witness invalid")
        print(f"gamma_t = {res.value}")
        print(f"witness: {_fmt_set(res.witness)}")
    else:
        res = solvers.min_rainbow(g, k, node_budget=budget)
        if res.witness.weight != res.value or not labelings.is_k_rainbow_dominating(
            g, res.witness
        ):
            raise RainbowDomError("internal check failed: witness invalid")
        print(f"rd_{k} = {res.value}")
        sys.stdout.write(labelings.format_labeling(res.witness))
    return 0


def _cmd_product(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    build = products.lexicographic if args.kind == "lex" else products.cartesian
    prod = build(g, h)
    encoded = to_graph6(prod)
    if parse_graph6(encoded) != prod:
        raise RainbowDomError("internal check failed: product round-trip")
    print(encoded)
    return 0


def _cmd_certify(args) -> int:
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    cert = certify_mod.certify_rd_lex(g, h, node_budget=args.budget)
    print(f"certificate: {cert.describe()}")
    if cert.lower is not None:
        lw = cert.lower
        if lw.kind == "couple":
            detail = (
                f"A={_fmt_set(lw.couple.a)} B={_fmt_set(lw.couple.b)}"
            )
        elif lw.vertices is not None:
            detail = _fmt_set(lw.vertices)
        else:
            detail = "exact solve"
        print(f"lower witness: {lw.kind} = {lw.value} ({detail})")
    if cert.upper_labeling is not None:
        print(f"upper labeling weight: {cert.upper_labeling.weight}")
    print("citations:")
    for c in cert.citations:
        print(f"  - {c}")
    for note in cert.notes:
        print(f"note: {note}")
    if cert.parts:
        print("components:")
        for back, part in cert.parts:
            print(f"  vertices {_fmt_set(back)}: {part.describe()}")
    if args.labeling_out:
        best = cert.refined_labeling or cert.upper_labeling
        _write_output(args.labeling_out, labelings.format_labeling(best))
        print(f"wrote {args.labeling_out}")
    return 0


def _cmd_construct(args) -> int:
    h = _load_graph(args.h)
    if args.kind == "tiles":
        f = constructions.path_pattern_labeling(args.n, h)
        g = gen_path(args.n)
    elif args.kind == "glued":
        f = constructions.glued_family_labeling(args.m, args.p2, h)
        g = gen_glued_paths(args.m, args.p2)
    elif args.kind == "totaldom":
        g = _load_graph(args.g)
        f = constructions.total_dom_labeling(g, h, args.k, node_budget=args.budget)
    else:  # couple
        budget = args.budget
        g = _load_graph(args.g)
        base = solvers.min_rainbow(h, args.k, node_budget=budget)
        _, couple = couples.min_couple_cost(g, args.k, base.value, node_budget=budget)
        f = couples._lift_couple(g.n, h.n, args.k, couple, base.witness.masks)
    if not labelings._is_k_rainbow_dominating_lex(g, h, f):
        raise RainbowDomError("internal check failed: construction invalid")
    text = labelings.format_labeling(f)
    if args.out:
        _write_output(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    f = labelings.parse_labeling(_read_input(args.labeling), args.k)
    if f.n != g.n:
        raise PreconditionError(
            f"labeling covers {f.n} vertices but the graph has {g.n}"
        )
    check = labelings.is_k_rainbow_dominating(g, f)
    if check.ok:
        print(f"valid: weight {f.weight}")
        return 0
    print(f"invalid: violator vertex {check.violator}")
    return 1


def _cmd_enumerate_graphs(args) -> int:
    for g in enumerate_connected_graphs(args.n):
        print(to_graph6(g))
    return 0


def _cmd_enumerate_rdfs(args) -> int:
    g = _load_graph(args.graph)
    count = 0
    for f in solvers.enumerate_min_2rdfs(g, args.cap, node_budget=args.budget):
        sys.stdout.write(labelings.format_labeling(f))
        print("--")
        count += 1
    print(f"count: {count}")
    return 0


def _cmd_verify(args) -> int:
    h_list = [_load_graph(part) for part in args.h.split(",")]
    made = bool(args.json) and not os.path.lexists(args.json)
    if args.json:
        # an unwritable path fails before the replay; appending nothing
        # leaves a file that is already there as it is
        _write_output(args.json, "", mode="a")
    try:
        report = certify_mod.verify_corpus(args.ng, h_list, args.cap, node_budget=args.budget)
    except BaseException:
        if made:
            os.remove(args.json)  # a refused run leaves no file behind
        raise
    sys.stdout.write(report.to_text())
    if args.json:
        _write_output(args.json, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0 if report.ok else 1


def _node_count(text: str) -> int:
    """The argparse type of --budget, a node count of 0 or more; anything else
    is a parse error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a node count of 0 or more, got {text!r}")
    return int(text)


def _add_budget(p: argparse.ArgumentParser):
    p.add_argument("--budget", type=_node_count,
                   default=solvers.DEFAULT_NODE_BUDGET,
                   help="search node budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowdom",
        description="Exact rainbow domination invariants, certified product "
        "values, and explicit labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="gamma, gamma_t, or k-rainbow number")
    p.add_argument("graph")
    p.add_argument("--type", choices=["gamma", "gammat", "rdk"], required=True)
    p.add_argument("--k", type=int, default=None,
                   help="colors, with --type rdk only (default 2)")
    _add_budget(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("product", help="emit a product graph as graph6")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--kind", choices=["lex", "cart"], default="lex")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("certify", help="certificate for rd_2 of a lexicographic product")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--labeling-out", default=None,
                   help="also write the best labeling to this file")
    _add_budget(p)
    p.set_defaults(func=_cmd_certify)

    # no abbreviations: `construct --h P4 tiles` would otherwise read --h as
    # --help and exit 0 having built nothing
    p = sub.add_parser("construct", help="emit an explicit product labeling",
                       allow_abbrev=False)
    kinds = p.add_subparsers(dest="kind", required=True)
    tiles = kinds.add_parser("tiles", help="path tiling of P_n o h")
    tiles.add_argument("--h", required=True, help="second factor")
    tiles.add_argument("--n", type=int, required=True, help="path length")
    glued = kinds.add_parser("glued", help="star-of-paths family GLUEDm_p2 o h")
    glued.add_argument("--h", required=True, help="second factor")
    glued.add_argument("--m", type=int, required=True, help="arm count")
    glued.add_argument("--p2", type=int, default=0, help="pendant count")
    for name, what in (("totaldom", "full labels on total dominating layers of g o h"),
                       ("couple", "dominating-couple labeling of g o h")):
        q = kinds.add_parser(name, help=what)
        q.add_argument("--g", required=True, help="first factor")
        q.add_argument("--h", required=True, help="second factor")
        q.add_argument("--k", type=int, default=2)
        _add_budget(q)  # the tilings take no search
    for q in kinds.choices.values():
        q.add_argument("--out", default=None, help="write the labeling here")
        q.set_defaults(func=_cmd_construct)

    p = sub.add_parser("validate", help="check a labeling file against a graph")
    p.add_argument("labeling")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enumerate", help="minimum 2-rainbow labelings, or the graph corpus")
    whats = p.add_subparsers(dest="what", required=True)
    q = whats.add_parser("rdfs", help="all minimum 2-rainbow labelings of a graph")
    q.add_argument("graph")
    q.add_argument("--cap", type=int, default=1000)
    _add_budget(q)
    q.set_defaults(func=_cmd_enumerate_rdfs)
    q = whats.add_parser("graphs", help="the connected graphs on n vertices, graph6")
    q.add_argument("--n", type=int, required=True, help="vertex count")
    q.set_defaults(func=_cmd_enumerate_graphs)

    p = sub.add_parser("verify", help="replay all certified claims on a corpus")
    p.add_argument("--ng", type=int, required=True)
    p.add_argument("--h", required=True, help="comma-separated second factors")
    p.add_argument("--cap", type=int, required=True,
                   help="largest product solved exactly")
    p.add_argument("--json", default=None, help="write a JSON summary here")
    _add_budget(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return rc
    except RainbowDomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout (say `| head -n 1`): stop quietly, with
        # stdout on devnull so that the flush at exit cannot raise again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # stdout is no file, so nothing is flushed to it at exit
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
