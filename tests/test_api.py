"""The public API: the pinned export list, and every name the benchmark uses."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import rainbowdom

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Changing this list changes the public API; do it on purpose.
PUBLIC = [
    "BudgetError",
    "CapExceededError",
    "CapacityError",
    "Certificate",
    "CorpusReport",
    "DEFAULT_NODE_BUDGET",
    "DominatingCouple",
    "Graph",
    "HClassification",
    "LowerWitness",
    "PairWitness",
    "ParseError",
    "PreconditionError",
    "RainbowCheck",
    "RainbowDomError",
    "RainbowLabeling",
    "SOLVER_VERTEX_CAP",
    "SolveResult",
    "canonical_form",
    "cartesian",
    "certify_rd_lex",
    "classify_h",
    "components",
    "couple_labeling",
    "enumerate_connected_graphs",
    "enumerate_min_2rdfs",
    "format_labeling",
    "from_edge_list",
    "gen_complete",
    "gen_cycle",
    "gen_double_c4",
    "gen_glued_paths",
    "gen_path",
    "gen_star",
    "general_bounds",
    "glued_family_labeling",
    "induced_subgraph",
    "is_connected",
    "is_dominating_set",
    "is_k_rainbow_dominating",
    "is_total_dominating_set",
    "lexicographic",
    "min_couple_cost",
    "min_dominating_set",
    "min_rainbow",
    "min_rainbow_via_cartesian",
    "min_total_dominating_set",
    "pair_witness",
    "parse_edge_list",
    "parse_graph6",
    "parse_labeling",
    "path_pattern_labeling",
    "path_upper_bound",
    "to_graph6",
    "total_dom_labeling",
    "universal_vertex_labeling",
    "verify_corpus",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC) and len(PUBLIC) == 57
    assert rainbowdom.__all__ == PUBLIC
    assert all(hasattr(rainbowdom, name) for name in PUBLIC)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(layer, name) for layer, names in spans.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"rainbowdom.{layer}"), name, None))]
    assert spans.TRACED and not missing


def test_every_benchmark_name_resolves():
    used = {name for path in PERFBENCH.glob("*.py")
            for name in re.findall(r"\brb\.([A-Za-z_]\w*)", path.read_text())}
    assert used and not [name for name in sorted(used) if not hasattr(rainbowdom, name)]


def test_import_leaves_the_process_pool_out():
    # only verify_corpus(workers > 1) uses the pool, and only a corpus fault
    # reads a traceback: importing the package loads neither
    code = ("import sys; before = set(sys.modules); import rainbowdom; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(rainbowdom.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "rainbowdom.certify" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process", "traceback"}
