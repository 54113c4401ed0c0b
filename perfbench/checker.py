"""Output checks that do not trust the code under test.

Everything here works on the benchmark's own edge lists with plain sets and
the standard library. It rebuilds the lexicographic product itself, so a
witness returned by rainbowdom is validated without calling
is_k_rainbow_dominating, lexicographic or any other library function.
Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def lex_product(g: list[set[int]], h: list[set[int]]) -> list[set[int]]:
    """G o H with (a, x) numbered a * |H| + x, the order labelings use."""
    nh = len(h)
    out = []
    for a in range(len(g)):
        for x in range(nh):
            nbrs = {b * nh + y for b in g[a] for y in range(nh)}
            nbrs.update(a * nh + y for y in h[x])
            out.append(nbrs)
    return out


def dominates(adj: list[set[int]], vertices, *, total: bool = False) -> bool:
    s = set(vertices)
    if not s <= set(range(len(adj))):
        return False
    return all((not total and v in s) or adj[v] & s for v in range(len(adj)))


def is_couple(adj: list[set[int]], a, b) -> bool:
    """Disjoint (A, B) with every vertex outside B adjacent to A or B."""
    a, b = set(a), set(b)
    inside = a | b
    if a & b or not inside <= set(range(len(adj))):
        return False
    return all(v in b or adj[v] & inside for v in range(len(adj)))


def rainbow_problem(adj: list[set[int]], k: int, masks) -> str | None:
    """Why masks is not a k-rainbow dominating labeling of adj, or None."""
    if len(masks) != len(adj):
        return f"labeling has {len(masks)} labels for {len(adj)} vertices"
    full = (1 << k) - 1
    for v, m in enumerate(masks):
        if m & ~full:
            return f"vertex {v} uses a color beyond {k}"
        if m == 0:
            seen = 0
            for u in adj[v]:
                seen |= masks[u]
            if seen != full:
                return f"empty vertex {v} does not see all {k} colors"
    return None


def weight(masks) -> int:
    return sum(bin(m).count("1") for m in masks)


# closed forms for paths and cycles (n >= 3 for cycles)
def gamma_path(n: int) -> int:
    return -(-n // 3)


def gamma_t_path(n: int) -> int:
    return n // 2 + -(-n // 4) - n // 4


def rd2_path(n: int) -> int:
    return n // 2 + 1


# the case each fixed second factor must land in; P4 also allows the
# exact GammaEqGammaT shortcut
EXPECTED_CASES = {
    "P2": {"RdH2"},
    "P6": {"RdH4Plus"},
    "DC4": {"RdH3NoPair"},
    "C5": {"RdH3NoPair"},
    "P4": {"RdH3Pair", "GammaEqGammaT"},
}


def check_certificate(gname: str, gadj, hname: str, hadj, cert) -> list[str]:
    """Validate a Certificate for G o H: both labelings on the product built
    here, the lower-bound witness on G, the case for the known second
    factors, and the closed forms for paths and cycles."""
    problems = []
    prod = lex_product(gadj, hadj)
    if cert.lo > cert.hi:
        problems.append(f"crossed bounds [{cert.lo},{cert.hi}]")
    labelings = [("upper", cert.upper_labeling, cert.hi)]
    if cert.refined_exact is not None:
        labelings.append(("refined", cert.refined_labeling, cert.refined_exact))
        if not cert.lo <= cert.refined_exact <= cert.hi:
            problems.append("refined value outside the certified interval")
    for what, lab, claimed in labelings:
        if lab is None or lab.k != 2:
            problems.append(f"{what} labeling missing or not a 2-labeling")
            continue
        why = rainbow_problem(prod, 2, lab.masks)
        if why:
            problems.append(f"{what} labeling invalid: {why}")
        if weight(lab.masks) != claimed:
            problems.append(f"{what} labeling weighs {weight(lab.masks)}, claimed {claimed}")
    if hname in EXPECTED_CASES and cert.case not in EXPECTED_CASES[hname]:
        problems.append(f"case {cert.case} for second factor {hname}")

    low = cert.lower
    if low is None:
        problems.append("no lower witness")
        return problems
    if low.kind in ("gamma", "gamma_t"):
        total = low.kind == "gamma_t"
        if not dominates(gadj, low.vertices or (), total=total):
            problems.append(f"{low.kind} witness does not dominate G")
        if len(low.vertices or ()) != low.value or cert.lo != 2 * low.value:
            problems.append(f"{low.kind} witness size does not match lo = {cert.lo}")
        if gname[0] in "PC" and gname[1:].isdigit():
            n = int(gname[1:])
            expect = gamma_t_path(n) if total else gamma_path(n)
            if low.value != expect:
                problems.append(f"{low.kind}({gname}) = {low.value}, closed form {expect}")
    elif low.kind == "couple":
        a, b = low.couple.a, low.couple.b
        if not is_couple(gadj, a, b):
            problems.append("couple witness is not a dominating couple of G")
        if 2 * len(a) + 3 * len(b) != low.value or cert.lo != low.value:
            problems.append("couple witness cost does not match lo")
    else:
        problems.append(f"unexpected lower witness kind {low.kind}")
    if cert.case == "RdH2" and not cert.lo == cert.hi == 2 * low.value:
        problems.append("RdH2 value is not 2 * gamma(G)")
    return problems


def check_set(adj, res, *, total: bool) -> list[str]:
    what = "total dominating" if total else "dominating"
    problems = []
    if not dominates(adj, res.witness, total=total):
        problems.append(f"witness is not a {what} set")
    if len(res.witness) != res.value:
        problems.append(f"witness size {len(res.witness)} != value {res.value}")
    return problems


def check_rainbow(adj, k: int, res) -> list[str]:
    problems = []
    lab = res.witness
    why = rainbow_problem(adj, k, lab.masks) if lab.k == k else f"labeling has k={lab.k}"
    if why:
        problems.append(f"witness invalid: {why}")
    if weight(lab.masks) != res.value:
        problems.append(f"witness weighs {weight(lab.masks)} != value {res.value}")
    return problems


def check_relations(values: dict[str, int]) -> list[str]:
    """Inequalities between the invariants of one graph, keyed gamma,
    gamma_t, rd2, rd3: gamma <= gamma_t <= 2 gamma, gamma <= rd2 <= 2 gamma,
    rd2 <= rd3 <= 3 gamma."""
    g = values.get("gamma")
    pairs = []
    if g is not None:
        pairs += [(g, values.get("gamma_t"), 2 * g), (g, values.get("rd2"), 2 * g)]
        pairs.append((values.get("rd2", 0), values.get("rd3"), 3 * g))
    return [
        f"relation violated: {lo} <= {v} <= {hi} fails for {values}"
        for lo, v, hi in pairs
        if v is not None and not lo <= v <= hi
    ]
