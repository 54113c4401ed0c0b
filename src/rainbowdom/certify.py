"""Certification of the 2-rainbow domination number of lexicographic products.

certify_rd_lex assembles exact values or intervals from case analysis on the
second factor h, connected or not, by its 2-rainbow number and pair witness
alone (README, Proposition 3; no upper labeling uses connectivity), together
with machine-checkable witnesses: a validating labeling for every upper
bound and the defining parameter (domination number, total domination
number, or optimal dominating couple) for every lower bound. Every certificate
is self-checked before it is returned: the upper labeling is re-validated on
g o h, layer by layer, without building the product
(labelings._is_k_rainbow_dominating_lex), and must match the claimed weight.
Every exact outcome, the empty product's too, is built by _exact, which
returns it through that check; the RdH3Pair interval and the ComponentSum
total are built directly and pass the same check. A refine (_refine) checks
only what it adds: a lighter labeling is validated on g o h in the same way
and must lie in the interval. The corpus replay validates its labelings on the
product it builds for its oracle, so it checks both routes.

The case tags:

* TrivialH: h is a single vertex, so the product is a copy of g; the value
  is exact by the layer reduction (solvers._min_rainbow_lex, see RdH3Pair),
  which needs only a few search nodes on a one-vertex h.
* TrivialG: g is a single vertex, so the product is a copy of h; the value
  is the 2-rainbow number of h from the classification.
* RdH2: second factor has 2-rainbow number 2; exact value 2 * gamma(g).
* RdH4Plus: second factor has 2-rainbow number >= 4; exact 2 * gamma_t(g).
* RdH3NoPair: 2-rainbow number 3 and no minimum labeling uses {1,2}; exact
  couple optimum min(2|A| + 3|B|), whose search starts at twice a greedy
  2-packing of g (couples.min_couple_cost).
* RdH3Pair: 2-rainbow number 3 with a {1,2} minimum labeling; interval
  [2 * gamma(g), best known construction]. The best upper is the optimal
  couple's labeling or, when g is a path or a cycle and it is lighter, the
  path tiling along a spanning path of g. The interval is exact when its
  ends meet, as they do when gamma(g) = gamma_t(g): A and B together
  dominate g for every dominating couple (A, B), and (T, empty), T a
  minimum total dominating set, costs 2 * gamma_t(g), so
  2 * gamma(g) <= couple optimum <= 2 * gamma_t(g). On a path or a cycle
  the tiling is optimal by theorem (README, "The open case on paths and
  cycles"): the refined value is path_upper_bound(n), with the upper
  labeling, and no search runs. Any other open interval goes to _refine,
  the one step after the case analysis: on a product of at most 64
  vertices it is refined to the exact value by the layer cover
  (solvers._min_rainbow_lex), which searches only the weights in [lo, hi);
  when none is attained, the refined value is hi and the refined labeling
  the upper one. An interval the refine leaves open gets one note in the
  certificate's notes saying why: the product is over the 64-vertex limit,
  or the refine ran out of budget, naming the cost level it was refuting
  when the cover search ran out, a proven lower bound.
* ComponentSum: first factor disconnected; per-component sum, with the
  components' labelings copied layer by layer into the row-major product.

Each certificate solves each sub-problem once. classify_h solves the
2-rainbow number of h, with one minimum labeling, and reads the pair witness
off the degrees of h (solvers.pair_witness, no search); the HClassification
is passed to every component of g. Within a certificate, classify_h is the
only caller of the direct search (min_rainbow). Per component, the case code
solves gamma(g), gamma_t(g) and the couple optimum at most once each, and
builds its upper labeling from those witnesses without searching again: the
couple labeling of (empty, D) for RdH2 (D a minimum dominating set), of
(T, empty) for RdH4Plus (T a minimum total dominating set), and of the
optimal couple for RdH3NoPair and RdH3Pair, each copying the labeling of h
from the classification into its B-layers; and, when g is a path or a cycle,
the path tiling laid along a spanning path of g from the pair witness. Adding
edges to g keeps every 2-rainbow dominating labeling of g o h valid, and
_self_check re-validates the tiling on g o h itself.

Certificates in one process also share these solves, since each depends on
one factor only. The factor memo (_solve_factor, at most FACTOR_MEMO_SIZE
entries, least recently used out first) keeps the classification of h by
(h, node_budget) and gamma(g), gamma_t(g) and the couple optimum (2, 3) of
a connected first factor by (kind, g, node_budget), graphs compared by
value. So a sweep of many g against one h classifies h once, one g against
several h solves gamma(g) once, and equal components of a disconnected g
share their solves. With the budget in the key, a hit returns what a fresh
call with the same arguments returns, and a smaller budget still raises.
Never kept: a call that raised (it is solved again), the refine
(_min_rainbow_lex), _self_check (every certificate is validated on its own
product), the public solvers themselves, and the corpus replay's own oracle
solves in _corpus_task. The memo calls each solver by its name in this
module when it runs, so a wrapper on that name sees every solve that runs.

verify_corpus replays every claim above against brute-force-scale exact
solves over a corpus of small first factors, in one process, one task
(_corpus_task) per first and second factor. It classifies each second
factor once per run, and a task lifts its upper labelings from the gamma(g),
gamma_t(g) and couple witnesses it solved once each; only general_bounds and
_certify_connected, the code under test, solve them again, the latter through
the factor memo, so once per first factor. On products of at
most _PROJECTION_CAP (14) vertices it also checks the projection property:
every minimum labeling projects onto dominating sets of the first factor
(second factors on at least 3 vertices), and some minimum labeling does
(h = K_2). Each is a yes/no question about the minimum covers of the closed
neighborhoods of g o h x K_2, so it is decided by searches of the cover
engine at the one cost rd_2(g o h) (_projection_gap,
_dominating_projections), not by listing the minimum labelings. All RdH3Pair
second factors must give a first factor one value (rdh3pair_h_independent).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import asdict, dataclass, field, replace

from .couples import DominatingCouple, _lift_couple, min_couple_cost
from .constructions import _tile_path, _universal_vertex, path_upper_bound
from .errors import (
    BudgetError,
    CapacityError,
    PreconditionError,
    RainbowDomError,
)
from .graphs import (
    Graph,
    _component_subgraphs,
    enumerate_connected_graphs,
    iter_bits,
    to_graph6,
)
from .labelings import RainbowLabeling, _is_k_rainbow_dominating_lex, is_k_rainbow_dominating
from .products import lexicographic
from .solvers import (
    DEFAULT_NODE_BUDGET,
    SOLVER_VERTEX_CAP,
    PairWitness,
    _cover_labeling,
    _min_rainbow_lex,
    _min_weighted_cover,
    _rainbow_cover,
    min_dominating_set,
    min_rainbow,
    min_rainbow_via_cartesian,
    min_total_dominating_set,
    pair_witness,
)


# The most entries the factor memo (_solve_factor) keeps; the least recently
# used goes first. A full memo of 64-vertex first factors that nothing else
# holds took 4.8 MB (about 4.7 KB an entry, graph included; CPython 3.11,
# tracemalloc). A certify-ladder pass leaves 80 entries, 49 KB beyond the
# graphs its callers hold.
FACTOR_MEMO_SIZE = 1024


@dataclass(frozen=True)
class LowerWitness:
    """The parameter certifying a lower bound (or an exact solve)."""

    kind: str  # gamma | gamma_t | couple | exact_solve
    value: int
    vertices: frozenset[int] | None = None
    couple: DominatingCouple | None = None


@dataclass(frozen=True)
class Certificate:
    lo: int
    hi: int
    case: str
    citations: tuple[str, ...]
    upper_labeling: RainbowLabeling | None
    lower: LowerWitness | None
    refined_exact: int | None = None
    refined_labeling: RainbowLabeling | None = None
    parts: tuple[tuple[tuple[int, ...], "Certificate"], ...] | None = None
    notes: tuple[str, ...] = ()  # why a refine left the interval open

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int | None:
        if self.refined_exact is not None:
            return self.refined_exact
        return self.lo if self.exact else None

    def describe(self) -> str:
        if self.exact:
            head = f"exact {self.lo}, case {self.case}"
        else:
            head = f"interval [{self.lo},{self.hi}], case {self.case}"
            if self.refined_exact is not None:
                head += f"; refined exact {self.refined_exact}"
        return head


@dataclass(frozen=True)
class HClassification:
    """What the case analysis needs of a second factor h, connected or not.

    One solve of the 2-rainbow number of h sets rd2 and labeling, one
    minimum 2-rainbow labeling of h, which the couple labelings copy into
    their B-layers. pair is the pair witness (u, v) that the path tiling
    uses (solvers.pair_witness, a degree condition, no search); it is set
    exactly when the tag is RdH3Pair. tag is TrivialH when h is one vertex,
    else RdH2, RdH4Plus, RdH3NoPair or RdH3Pair, by rd2 and pair.
    """

    tag: str
    rd2: int
    pair: PairWitness | None
    labeling: RainbowLabeling


def general_bounds(g: Graph, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, int]:
    """[min(n, gamma + k - 2), k * gamma]: the universal k-rainbow bracket."""
    if k < 2:
        raise PreconditionError("the general bounds need k >= 2")
    gamma = min_dominating_set(g, node_budget=node_budget).value
    return min(g.n, gamma + k - 2), k * gamma


def classify_h(h: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET) -> HClassification:
    """Compute the case-analysis data for the second factor, connected or
    not: one solve of its 2-rainbow number, and the pair witness, which
    takes no search.

    The classification is kept in the process's factor memo (_solve_factor),
    keyed by the value of h and node_budget, so a second call with equal
    arguments returns the first call's HClassification without solving. A
    call that raised is not kept: the next call solves again, and a budget
    too small for the solve still raises BudgetError."""
    return _solve_factor("h", h, node_budget)


def _classify(h: Graph, node_budget: int) -> HClassification:
    if h.n == 0:
        raise PreconditionError("h must be nonempty")
    rd = min_rainbow(h, 2, node_budget=node_budget)
    pair = pair_witness(h)  # None unless rd_2(h) = 3
    if h.n == 1:
        tag = "TrivialH"
    elif rd.value == 2:
        tag = "RdH2"
    elif rd.value >= 4:
        tag = "RdH4Plus"
    else:
        tag = "RdH3NoPair" if pair is None else "RdH3Pair"
    return HClassification(tag, rd.value, pair, rd.witness)


@functools.lru_cache(maxsize=FACTOR_MEMO_SIZE)
def _solve_factor(kind: str, g: Graph, node_budget: int):
    """The solve of one factor that certificates share, by kind: "h", the
    classification of a second factor g; "gamma", "gamma_t" and "couple",
    gamma(g), gamma_t(g) and the couple optimum (2, 3) of a connected first
    factor g. Results are kept per (kind, value of g, node_budget); an
    exception is not kept. Each solver is looked up by its name in this
    module when the call runs, so whatever wraps that name sees every solve
    that actually runs."""
    if kind == "h":
        return _classify(g, node_budget)
    if kind == "gamma":
        return min_dominating_set(g, node_budget=node_budget)
    if kind == "gamma_t":
        return min_total_dominating_set(g, node_budget=node_budget)
    return min_couple_cost(g, 2, 3, node_budget=node_budget)


def _walk(g: Graph, start: int) -> list[int]:
    """The vertices of g in the order met walking from start, never turning
    back; g must be a connected path with start an end, or a cycle."""
    order = [start]
    prev = -1
    while len(order) < g.n:
        cur = order[-1]
        nxt = next(w for w in iter_bits(g.adj[cur]) if w != prev)
        prev = cur
        order.append(nxt)
    return order


def _tiling_order(g: Graph) -> list[int] | None:
    """The order of a spanning path of g when g is a path or a cycle, else
    None; g must be connected, on at least 2 vertices. The path tiling laid
    along a spanning path stays valid on g o h: more edges in g only add
    neighbors."""
    degs = [g.degree(v) for v in range(g.n)]
    if g.n >= 3 and all(d == 2 for d in degs):
        return _walk(g, 0)
    ends = [v for v, d in enumerate(degs) if d == 1]
    if len(ends) != 2 or any(d > 2 for d in degs):
        return None
    return _walk(g, ends[0])


def _self_check(g: Graph, h: Graph, cert: Certificate) -> Certificate:
    validated = None
    for labeling, weight in (
        (cert.upper_labeling, cert.hi),
        (cert.refined_labeling, cert.refined_exact),
    ):
        if labeling is None:
            continue
        if labeling.weight != weight or (
            labeling is not validated and not _is_k_rainbow_dominating_lex(g, h, labeling)
        ):
            raise RainbowDomError(
                "internal check failed: certificate witness does not validate"
            )
        validated = labeling  # a refine that found nothing lighter keeps the upper one
    if cert.lo > cert.hi:
        raise RainbowDomError("internal check failed: crossed bounds")
    return cert


def _exact(
    g: Graph, h: Graph, value: int, case: str, upper: RainbowLabeling, lower: LowerWitness,
    *citations: str,
) -> Certificate:
    """The certificate of an exact value, returned through _self_check."""
    return _self_check(g, h, Certificate(value, value, case, citations, upper, lower))


def _certify_connected(
    g: Graph,
    h: Graph,
    hcls: HClassification,
    *,
    node_budget: int,
) -> Certificate:
    """What the case analysis of a connected g proves; _refine may tighten it."""
    if hcls.tag == "TrivialH":
        res = _min_rainbow_lex(g, h, node_budget=node_budget)
        return _exact(
            g, h, res.value, "TrivialH", res.witness, LowerWitness("exact_solve", res.value),
            "second factor is a single vertex, so the product is a copy "
            "of the first factor; value by exact layer cover",
        )
    if g.n == 1:
        return _exact(
            g, h, hcls.rd2, "TrivialG", hcls.labeling, LowerWitness("exact_solve", hcls.rd2),
            "first factor is a single vertex, so the product is a copy "
            "of the second factor; value by exact solve",
        )

    def lift(a: frozenset[int], b: frozenset[int]) -> RainbowLabeling:
        return _lift_couple(g.n, h.n, 2, DominatingCouple(a, b), hcls.labeling.masks)

    if hcls.tag == "RdH2":
        ds = _solve_factor("gamma", g, node_budget)
        return _exact(
            g, h, 2 * ds.value, "RdH2", lift(frozenset(), ds.witness),
            LowerWitness("gamma", ds.value, vertices=ds.witness),
            "a second factor with 2-rainbow number 2 forces the product "
            "value 2 * gamma(first factor)",
            "upper witness: minimum dominating layers carry an "
            "all-colors weight-2 labeling of the second factor",
        )

    if hcls.tag == "RdH4Plus":
        tds = _solve_factor("gamma_t", g, node_budget)
        return _exact(
            g, h, 2 * tds.value, "RdH4Plus", lift(tds.witness, frozenset()),
            LowerWitness("gamma_t", tds.value, vertices=tds.witness),
            "a second factor with 2-rainbow number at least 4 forces the "
            "product value 2 * gamma_t(first factor)",
            "upper witness: full labels over a minimum total dominating set",
        )

    if hcls.tag == "RdH3NoPair":
        value, couple = _solve_factor("couple", g, node_budget)
        return _exact(
            g, h, value, "RdH3NoPair", lift(couple.a, couple.b),
            LowerWitness("couple", value, couple=couple),
            "a second factor with 2-rainbow number 3 whose minimum "
            "labelings never use {1,2} forces the product value "
            "min(2|A| + 3|B|) over dominating couples (A, B)",
        )

    # RdH3Pair: 2-rainbow number 3 with a pair witness
    ds = _solve_factor("gamma", g, node_budget)
    value, couple = _solve_factor("couple", g, node_budget)
    lo, hi = 2 * ds.value, value
    upper = lift(couple.a, couple.b)
    citations = [
        "lower bound: twice the domination number of the first factor "
        "(valid for every second factor on at least 2 vertices)",
        "upper bound: best dominating couple, 2|A| + 3|B|",
    ]
    order = _tiling_order(g)
    refined_exact = refined_labeling = None
    if order is not None:
        pub = path_upper_bound(g.n)
        if value < pub:
            raise RainbowDomError("internal check failed: couple optimum below the path theorem")
        if pub < hi:
            hi = pub
            upper = _tile_path(order, h.n, hcls.pair.u, hcls.pair.v)
            citations[1] = "upper bound: path tiling of weight path_upper_bound(n)"
        refined_exact, refined_labeling = hi, upper
        citations.append("exact value: path_upper_bound(n), by the theorem on the "
                         "open case on paths and cycles (README)")
    return _self_check(g, h, Certificate(
        lo=lo,
        hi=hi,
        case="RdH3Pair",
        citations=tuple(citations),
        upper_labeling=upper,
        lower=LowerWitness("gamma", ds.value, vertices=ds.witness),
        refined_exact=refined_exact,
        refined_labeling=refined_labeling,
    ))


def _refine(g: Graph, h: Graph, cert: Certificate, node_budget: int) -> Certificate:
    """The certificate of a connected g with its open RdH3Pair interval
    refined to the exact value by the layer cover, or with one note saying
    why it stays open; any other certificate as it is. cert has passed
    _self_check, so only what the refine adds is checked: a lighter labeling
    must lie in [lo, hi) and validate on g o h. A note, or a refined value
    hi with the upper labeling, needs no new check."""
    if cert.case != "RdH3Pair" or cert.exact or cert.refined_exact is not None:
        return cert
    if g.n * h.n > SOLVER_VERTEX_CAP:
        return replace(cert, notes=(f"refine not run: the product has {g.n * h.n} vertices, "
                                    f"over the {SOLVER_VERTEX_CAP}-vertex limit; interval kept",))
    try:
        res = _min_rainbow_lex(g, h, node_budget=node_budget, lo=cert.lo, hi=cert.hi)
    except BudgetError as exc:
        at = "" if exc.level is None else f" at level {exc.level}"
        return replace(cert, notes=(
            f"refine exhausted the node budget {node_budget}{at}; interval kept",))
    if res is None:  # no labeling lighter than the upper one, which is validated
        return replace(cert, refined_exact=cert.hi, refined_labeling=cert.upper_labeling)
    if not cert.lo <= res.value < cert.hi:
        raise RainbowDomError("internal check failed: exact solve escaped certified bounds")
    if not _is_k_rainbow_dominating_lex(g, h, res.witness):
        raise RainbowDomError("internal check failed: certificate witness does not validate")
    return replace(cert, refined_exact=res.value, refined_labeling=res.witness)


def _effective(cert: Certificate) -> tuple[int, int, RainbowLabeling | None]:
    if cert.refined_exact is not None:
        return cert.refined_exact, cert.refined_exact, cert.refined_labeling
    return cert.lo, cert.hi, cert.upper_labeling


def certify_rd_lex(
    g: Graph,
    h: Graph,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Certificate:
    """Certificate for the 2-rainbow domination number of the product of g
    and h, connected or not. Disconnected g is certified per component and
    summed; every h takes the case its classification picks. The
    certificate of each connected piece of g then passes through _refine."""
    if g.n == 0 or h.n == 0:
        return _exact(g, h, 0, "TrivialG" if g.n == 0 else "TrivialH",
                      RainbowLabeling(2, ()), LowerWitness("exact_solve", 0), "empty product")
    hcls = classify_h(h, node_budget=node_budget)
    pieces = _component_subgraphs(g)
    if len(pieces) == 1:
        return _refine(g, h, _certify_connected(g, h, hcls, node_budget=node_budget), node_budget)
    nh = h.n
    parts = []
    lo = hi = 0
    masks = [0] * (g.n * nh)
    for sub, back in pieces:
        cert = _refine(sub, h, _certify_connected(sub, h, hcls, node_budget=node_budget),
                       node_budget)
        eff_lo, eff_hi, eff_lab = _effective(cert)
        lo += eff_lo
        hi += eff_hi
        for i, a in enumerate(back):
            masks[a * nh:(a + 1) * nh] = eff_lab.masks[i * nh:(i + 1) * nh]
        parts.append((tuple(back), cert))
    return _self_check(g, h, Certificate(
        lo=lo,
        hi=hi,
        case="ComponentSum",
        citations=(
            "first factor disconnected: the product value is the sum of the "
            "per-component values",
        ),
        upper_labeling=RainbowLabeling(2, tuple(masks)),
        lower=None,
        parts=tuple(parts),
        notes=tuple(
            f"component {list(back)}: {note}" for back, part in parts for note in part.notes
        ),
    ))


def _projection_gap(
    g: Graph, prod: Graph, nh: int, rd2: int, budget: int
) -> tuple[int, RainbowLabeling] | None:
    """A vertex a of g and a minimum 2-rainbow labeling of prod = g o h (h
    on nh vertices, rd2 the 2-rainbow number of prod) whose color-1 support
    projects onto a set that does not dominate a in g; None when every
    minimum labeling has both projections dominating.

    For each a in turn, one search at cost rd2 of the cover engine over
    _rainbow_cover(prod) without the color-1 sets on the layers of N_g[a]:
    in the row-major order of prod x K_2, set 2p is color 1 on p.
    Swapping the colors maps minimum labelings onto minimum labelings, so a
    color-2 gap exists iff a color-1 gap does. The searches share one node
    counter.
    """
    cover, stats = _rainbow_cover(prod), [0]
    for a in range(g.n):
        cut = list(cover)
        for b in iter_bits(g.closed(a)):
            for p in range(b * nh, (b + 1) * nh):
                cut[2 * p] = 0
        chosen = _min_weighted_cover((1 << len(cut)) - 1, cut, [1] * len(cut), stats, budget,
                                     lo=rd2, hi=rd2 + 1)
        if chosen is not None:
            return a, _cover_labeling(prod.n, chosen, 2)
    return None


def _dominating_projections(
    g: Graph, prod: Graph, nh: int, rd2: int, budget: int
) -> RainbowLabeling | None:
    """A minimum 2-rainbow labeling of prod = g o h (h on nh vertices, rd2
    the 2-rainbow number of prod) whose color-1 and color-2 supports both
    project onto dominating sets of g, or None when there is none.

    One search at cost rd2 of the cover engine over _rainbow_cover(prod)
    plus an element (a, c + 1) for each vertex a of g and color c + 1, at
    bit 2|prod| + 2a + c, in the row-major order of _rainbow_cover, where
    set 2p + c is color c + 1 on p. Color c + 1 on a vertex of layer b
    covers (a, c + 1) for every a in N_g[b].
    """
    cover, base = _rainbow_cover(prod), 2 * prod.n
    for p in range(prod.n):
        spread = sum(1 << 2 * a for a in iter_bits(g.closed(p // nh))) << base
        cover[2 * p] |= spread
        cover[2 * p + 1] |= spread << 1
    chosen = _min_weighted_cover((1 << (base + 2 * g.n)) - 1, cover, [1] * len(cover), [0],
                                 budget, lo=rd2, hi=rd2 + 1)
    return None if chosen is None else _cover_labeling(prod.n, chosen, 2)


def _labels_text(nh: int, f: RainbowLabeling) -> str:
    """The nonempty labels of a labeling of g o h as (a,x):{colors}."""
    return " ".join(
        f"({p // nh},{p % nh}):{{{','.join(str(c + 1) for c in iter_bits(m))}}}"
        for p, m in enumerate(f.masks)
        if m
    )


# ---------------------------------------------------------------------------
# corpus verification

_PROJECTION_CAP = 14  # products up to this size also get the projection checks


@dataclass
class CorpusReport:
    ng_max: int
    h_names: tuple[str, ...]
    product_cap: int
    tasks: int
    checks: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    skips: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        lines = [
            "corpus verification report",
            f"first factor: all connected graphs on 1..{self.ng_max} vertices",
            f"second factors: {', '.join(self.h_names)}",
            f"product cap: {self.product_cap} vertices",
            f"tasks: {self.tasks}",
            "checks performed:",
        ]
        lines.extend(f"  {name}: {count}" for name, count in self.checks.items())
        if self.skips:
            lines.append("skips:")
            lines.extend(f"  - {s}" for s in self.skips)
        lines.append(f"violations: {len(self.violations)}")
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return asdict(self)


def _corpus_task(
    report: CorpusReport, name: str, g: Graph, h: Graph, hcls: HClassification | Exception,
    hstar: int | None, g_checks: bool, node_budget: int,
) -> tuple[str, int] | None:
    """The checks of first factor g with second factor h, written into report
    under name: their counts, violations and skips. g_checks adds the checks
    of g alone, and hstar is a universal vertex of h or None. hcls is the
    classification of h, or the exception classifying h raised, which is this
    task's fault once the oracle is solved. A budget exhausted is a skip, and
    any other fault a violation naming where it rose. Returns (tag of h,
    rd_2(g o h)) once both are known, a later fault notwithstanding, else
    None."""
    oracle = None

    def bump(key: str):
        report.checks[key] = report.checks.get(key, 0) + 1

    def violate(msg: str):
        report.violations.append(f"{name}: {msg}")

    try:
        ds = min_dominating_set(g, node_budget=node_budget)
        if g_checks:
            rd = {k: min_rainbow(g, k, node_budget=node_budget).value for k in (1, 2, 3)}
            # k = 2 only: g x K_1 is g, so at k = 1 the route would solve ds again
            via = min_rainbow_via_cartesian(g, 2, node_budget=node_budget).value
            bump("rainbow_vs_cartesian")
            if rd[2] != via:
                violate(f"k=2: direct {rd[2]} != cartesian route {via}")
            if rd[1] != ds.value:
                violate("1-rainbow number differs from domination number")
            for k in (2, 3):
                lo, hi = general_bounds(g, k, node_budget=node_budget)
                bump("general_bounds")
                if not (lo <= rd[k] <= hi):
                    violate(f"k={k}: value {rd[k]} outside general bounds [{lo},{hi}]")

        if g.n * h.n > report.product_cap:
            report.skips.append(f"{name}: product has {g.n * h.n} > {report.product_cap} vertices")
            return None

        prod = lexicographic(g, h)
        exact = min_rainbow(prod, 2, node_budget=node_budget)
        if isinstance(hcls, Exception):
            # each re-raise adds this frame at the head of its traceback; the
            # last entry, which the record names, stays where classifying h failed
            raise hcls
        oracle = (hcls.tag, exact.value)

        def upper(key: str, what: str, bound: str, weight: int, a, b, h_masks=()):
            # the lifted couple labeling of (a, b) is valid, weighs weight, and exact <= weight
            lab = _lift_couple(g.n, h.n, 2, DominatingCouple(a, b), h_masks)
            bump(f"upper_{key}")
            if lab.weight != weight or not is_k_rainbow_dominating(prod, lab):
                violate(f"{what} labeling broken")
            elif exact.value > weight:
                violate(f"exact {exact.value} above {bound} {weight}")

        if g.n >= 2:
            tds = min_total_dominating_set(g, node_budget=node_budget)
            upper("total_dom", "total-domination", "2*gamma_t", 2 * tds.value,
                  tds.witness, frozenset())
        if hstar is not None:
            upper("universal", "universal-vertex", "2*gamma", 2 * ds.value, frozenset(),
                  ds.witness, tuple(3 if x == hstar else 0 for x in range(h.n)))
        if h.n >= 2:
            cost, couple = min_couple_cost(g, 2, hcls.rd2, node_budget=node_budget)
            upper("couple", "couple", "couple optimum", cost, couple.a, couple.b,
                  hcls.labeling.masks)

        if g.n >= 2 and h.n >= 2:
            bump("lower_2gamma")
            if exact.value < 2 * ds.value:
                violate(f"exact {exact.value} below 2*gamma {2 * ds.value}")

        cert = _certify_connected(g, h, hcls, node_budget=node_budget)
        bump("case_value")
        if not (cert.lo <= exact.value <= cert.hi):
            violate(f"certificate {cert.describe()} excludes exact {exact.value}")
        if cert.refined_exact is not None:  # only the path theorem refines here
            bump("path_theorem")
            if cert.refined_exact != exact.value:
                violate(f"path theorem gives {cert.refined_exact}, exact {exact.value}")

        if g.n >= 2 and h.n >= 3 and g.n * h.n <= _PROJECTION_CAP:
            gap = _projection_gap(g, prod, h.n, exact.value, node_budget)
            bump("projection_all_minima")
            if gap is not None:
                a, f = gap
                violate(
                    f"minimum labeling {_labels_text(h.n, f)} has a color-1 projection "
                    f"that does not dominate vertex {a} of the first factor"
                )

        if g.n >= 2 and h.n == 2 and h.m == 1 and g.n * h.n <= _PROJECTION_CAP:
            both = _dominating_projections(g, prod, h.n, exact.value, node_budget)
            bump("projection_exists")
            if both is None:
                violate("no minimum labeling has both projections dominating")
    except BudgetError as exc:
        report.skips.append(f"{name}: budget exhausted ({exc})")
    except Exception as exc:
        # a fault in one task is that task's record, not the end of the run
        import traceback  # here, not at the top: importing the package stays light
        where = traceback.extract_tb(exc.__traceback__)[-1]
        violate(f"raised {type(exc).__name__}: {exc} "
                f"(at {os.path.basename(where.filename)}:{where.lineno})")
    return oracle


def verify_corpus(
    ng_max: int,
    h_list: list[Graph],
    product_cap: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CorpusReport:
    """Replay every certified claim against exact solves, in one process: all
    connected first factors up to ng_max vertices times the second factors
    h_list, connected or not.

    A replay that can check no product is refused with PreconditionError: an
    ng_max below 1, an empty h_list, a second factor on 0 vertices, or a
    product_cap below the vertex count of every second factor (K1 o h, the
    smallest product, has as many vertices as h). A product_cap above
    SOLVER_VERTEX_CAP, the oracle's limit, is refused with CapacityError. All
    are refused before any task runs. Each second factor is classified once,
    before the tasks; if that raises, each task of the factor within
    product_cap records it as its own fault. Products of at most product_cap
    vertices are solved directly, and that value is the oracle for every
    check of the task. Products of at most _PROJECTION_CAP vertices also get
    the projection checks, which are complete: one-level cover searches at
    the oracle value decide them whatever the number of minimum labelings.
    The tags and oracle values the tasks return check that RdH3Pair second
    factors give a first factor one value (README, Proposition 2).
    """
    if ng_max < 1:
        raise PreconditionError(f"the corpus needs ng_max of at least 1, got {ng_max}")
    if product_cap > SOLVER_VERTEX_CAP:
        raise CapacityError(
            f"the oracle solves products of at most {SOLVER_VERTEX_CAP} vertices, "
            f"got product cap {product_cap}"
        )
    if not h_list:
        raise PreconditionError("the corpus needs at least one second factor")
    least = min(h.n for h in h_list)
    if least < 1:
        raise PreconditionError("the corpus needs second factors of at least 1 vertex, got 0")
    if product_cap < least:
        raise PreconditionError(
            f"the corpus needs a product cap of at least {least}, the vertex count of "
            f"its smallest product K1 o h, got {product_cap}"
        )
    start = time.monotonic()
    corpus = []
    for n in range(1, ng_max + 1):
        corpus.extend(enumerate_connected_graphs(n))
    classified = []
    for h in h_list:
        try:
            hcls = classify_h(h, node_budget=node_budget)
        except Exception as exc:
            hcls = exc
        classified.append((to_graph6(h), h, hcls, _universal_vertex(h)))
    report = CorpusReport(ng_max=ng_max, h_names=tuple(g6h for g6h, *_ in classified),
                          product_cap=product_cap, tasks=len(corpus) * len(classified))
    for g in corpus:
        g6g, first_pair = to_graph6(g), None  # (name, value) of g's first RdH3Pair task
        for hi, (g6h, h, hcls, hstar) in enumerate(classified):
            name = f"{g6g} o {g6h}"
            oracle = _corpus_task(report, name, g, h, hcls, hstar, hi == 0, node_budget)
            if oracle is None or oracle[0] != "RdH3Pair":
                continue
            if first_pair is None:
                first_pair = (name, oracle[1])
                continue
            report.checks["rdh3pair_h_independent"] = (
                report.checks.get("rdh3pair_h_independent", 0) + 1)
            if first_pair[1] != oracle[1]:
                report.violations.append(f"{name}: RdH3Pair oracle value {oracle[1]} "
                                         f"differs from {first_pair[1]} of {first_pair[0]}")
    report.checks = dict(sorted(report.checks.items()))
    report.wall_seconds = time.monotonic() - start
    return report
