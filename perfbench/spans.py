"""Spans around the library's public functions, recorded from outside it.

The package's modules import each other with `from .x import f`, so a
function is reachable under several module attributes. install() replaces
every such binding in every loaded rainbowdom module, so calls between
layers are traced as well as the benchmark's own calls. Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# layer -> public functions traced in it
TRACED = {
    "solvers": ("min_dominating_set", "min_total_dominating_set", "min_rainbow",
                "min_rainbow_via_cartesian", "pair_witness", "enumerate_min_2rdfs"),
    "couples": ("min_couple_cost", "couple_labeling"),
    "constructions": ("path_pattern_labeling", "total_dom_labeling",
                      "universal_vertex_labeling"),
    "products": ("lexicographic", "cartesian"),
    "labelings": ("is_k_rainbow_dominating",),
    "graphs": ("enumerate_connected_graphs", "canonical_form", "parse_graph6"),
    "certify": ("certify_rd_lex", "classify_h", "verify_corpus"),
}
# functions returning a SolveResult, whose nodes_explored is summed; a call
# that runs out of budget adds its budget
NODES = ("min_dominating_set", "min_total_dominating_set", "min_rainbow",
         "min_rainbow_via_cartesian")
REFINE_CAP = 64  # products up to this many vertices get the refine solve


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: Counter = Counter()
        self._solved: set = set()
        self._budget_error = None
        self._default_budget = 0

    def begin_op(self, name: str):
        self.op = name
        self._solved.clear()

    def install(self, package):
        """Wrap every traced function wherever the package binds it."""
        self._budget_error = package.BudgetError
        self._default_budget = package.DEFAULT_NODE_BUDGET
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for layer, names in TRACED.items():
            home = sys.modules[f"{package.__name__}.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                self._on_call(name, args, kwargs)
                it = fn(*args, **kwargs)
                try:
                    while True:
                        # one span per resumption, so the consumer's work
                        # between items is not charged to the generator
                        try:
                            with _Span(self, name):
                                item = next(it)
                        except StopIteration:
                            return
                        except self._budget_error as exc:
                            self._on_budget_error(name, kwargs, exc)
                            raise
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self._on_call(name, args, kwargs)
            try:
                with _Span(self, name):
                    result = fn(*args, **kwargs)
            except self._budget_error as exc:
                self._on_budget_error(name, kwargs, exc)
                raise
            self._on_result(name, args, kwargs, result)
            return result
        return wrapper

    def _on_call(self, name: str, args, kwargs):
        self.counts[f"{name}.calls"] += 1
        layer, fname = name.split(".")
        if layer == "solvers":
            # (function, graph, k); the second argument of enumerate_min_2rdfs is a cap
            k = args[1] if len(args) > 1 and fname != "enumerate_min_2rdfs" else None
            key = (fname, args[0], k)
            self.counts["solvers.repeat_calls" if key in self._solved else "solvers.first_calls"] += 1
            self._solved.add(key)
        elif name == "products.lexicographic":
            self.counts[f"{name}.vertices"] += args[0].n * args[1].n
        elif name == "labelings.is_k_rainbow_dominating":
            self.counts[f"{name}.vertices"] += args[0].n

    def _on_result(self, name: str, args, kwargs, result):
        fname = name.split(".")[1]
        if fname in NODES:
            self.counts[f"{name}.nodes"] += result.nodes_explored
        elif name == "certify.certify_rd_lex" and kwargs.get("refine", True):
            self.counts["certify.refine_gave_up"] += _gave_up(result, args[0].n, args[1].n)

    def _on_budget_error(self, name: str, kwargs, exc):
        # the same exception passes several wrappers on its way out; the
        # innermost one counts it, and a solve that ran out spent its budget
        if getattr(exc, "_traced", False):
            return
        exc._traced = True
        self.counts["solvers.budget_errors"] += 1
        if name.split(".")[1] in NODES:
            self.counts[f"{name}.nodes"] += kwargs.get("node_budget", self._default_budget)

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls, self time as a share of the pass, nodes and
        vertices, plus budget errors, refine give-ups and the repeat ratio."""
        selfs = self.self_seconds()
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = self.counts[f"{name}.calls"]
                out[f"{name}.self_pct"] = 100.0 * selfs.get(name, 0.0) / wall_s
                if fname in NODES:
                    out[f"{name}.nodes"] = self.counts[f"{name}.nodes"]
        for name in ("products.lexicographic", "labelings.is_k_rainbow_dominating"):
            out[f"{name}.vertices"] = self.counts[f"{name}.vertices"]
        out["solvers.budget_errors"] = self.counts["solvers.budget_errors"]
        solves = self.counts["solvers.repeat_calls"] + self.counts["solvers.first_calls"]
        out["solvers.repeat_frac"] = self.counts["solvers.repeat_calls"] / solves if solves else 0.0
        out["certify.refine_gave_up"] = self.counts["certify.refine_gave_up"]
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None,
                        t.stack[-1] if t.stack else -1, t.op])
        t.stack.append(self.index)

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


def _gave_up(cert, gn: int, hn: int) -> int:
    """RdH3Pair certificates small enough to refine that came back without
    a refined value: the refine solve ran out of budget."""
    if cert.parts:
        return sum(_gave_up(part, len(back), hn) for back, part in cert.parts)
    small = gn * hn <= REFINE_CAP
    return int(cert.case == "RdH3Pair" and small and cert.refined_exact is None)
