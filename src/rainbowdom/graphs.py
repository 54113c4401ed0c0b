"""Graph type, parsers, generators, domination predicates, and small-graph enumeration.

Vertices are 0..n-1. Neighbor sets are stored as Python int bitmasks, which keeps
membership tests and unions O(1) word operations and makes the exact solvers fast
enough at desk scale. Construction has no size cap; the solvers enforce their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .errors import CapacityError, ParseError, PreconditionError


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise PreconditionError("adjacency length does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise PreconditionError(f"neighbor index out of range at vertex {v}")
            if (row >> v) & 1:
                raise PreconditionError(f"loop edge at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in iter_bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise PreconditionError(f"asymmetric adjacency between {u} and {v}")

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(iter_bits(self.adj[v]))

    def closed(self, v: int) -> int:
        """Closed neighborhood N[v] as a mask."""
        return self.adj[v] | (1 << v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            for u in iter_bits(row):
                out.append((v, v + 1 + u))
        return out


def _from_rows(n: int, rows: tuple[int, ...]) -> Graph:
    """A Graph on n vertices with these adjacency rows, without the checks of
    Graph.__post_init__, whose symmetry pass is O(m).

    Only for rows this package derives from graphs that were validated
    already (products, induced subgraphs): they are then n long, in range,
    loop-free and symmetric by construction. Outside input goes through
    Graph, from_edge_list or parse_graph6, which check it.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    return g


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from (u, v) pairs; rejects loops and out-of-range indices."""
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"edge ({u}, {v}) has an index out of range")
        if u == v:
            raise PreconditionError(f"loop edge at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6


def to_graph6(g: Graph) -> str:
    """Encode in graph6, bit-exact per the de-facto format description."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise CapacityError("graph6 encoding beyond 258047 vertices not supported")
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for t in range(0, len(bits), 6):
        val = 0
        for b in bits[t : t + 6]:
            val = (val << 1) | b
        body.append(chr(val + 63))
    return head + "".join(body)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; tolerates the optional >>graph6<< header."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 string")
    for ch in s:
        if not (63 <= ord(ch) <= 126):
            raise ParseError(f"graph6 byte out of range: {ch!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ParseError("graph6 long-size form not supported")
        if len(s) < 4:
            raise ParseError("truncated graph6 size field")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ParseError("graph6 body length does not match vertex count")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((val >> s6) & 1)
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    rows = [0] * n
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            t += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then one "u v" line per edge


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty edge-list text")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("edge-list header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError("edge-list header must contain two integers") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
    try:
        return from_edge_list(n, edges)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# generators


def gen_path(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("path needs at least one vertex")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs at least three vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise PreconditionError("complete graph needs at least one vertex")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def gen_star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to the n-1 leaves."""
    if n < 2:
        raise PreconditionError("star needs at least two vertices")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def gen_double_c4() -> Graph:
    """Two 4-cycles sharing vertex 0."""
    return from_edge_list(
        7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    )


def gen_glued_paths(m: int, p2: int) -> Graph:
    """Center vertex 0, m arms of 5 vertices (each arm plus the center induces
    a 6-vertex path), and p2 pendant vertices hanging from the center."""
    if m < 1:
        raise PreconditionError("need at least one arm")
    if p2 < 0:
        raise PreconditionError("pendant count must be nonnegative")
    edges = []
    for i in range(m):
        base = 1 + 5 * i
        edges.append((0, base))
        edges.extend((base + j, base + j + 1) for j in range(4))
    first_pend = 1 + 5 * m
    edges.extend((0, first_pend + j) for j in range(p2))
    return from_edge_list(1 + 5 * m + p2, edges)


# ---------------------------------------------------------------------------
# predicates


def _vset_mask(g: Graph, vertices) -> int:
    m = 0
    for v in vertices:
        if not (0 <= v < g.n):
            raise PreconditionError(f"vertex {v} out of range")
        m |= 1 << v
    return m


def is_dominating_set(g: Graph, vertices) -> bool:
    """True iff every vertex is in the set or adjacent to it."""
    m = _vset_mask(g, vertices)
    cov = m
    for v in iter_bits(m):
        cov |= g.adj[v]
    return cov == g.full_mask


def is_total_dominating_set(g: Graph, vertices) -> bool:
    """True iff every vertex (members included) has a neighbor in the set."""
    m = _vset_mask(g, vertices)
    cov = 0
    for v in iter_bits(m):
        cov |= g.adj[v]
    return cov == g.full_mask


def _reach_mask(g: Graph, start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return _reach_mask(g, 0) == g.full_mask


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by smallest member."""
    out = []
    left = g.full_mask
    while left:
        start = (left & -left).bit_length() - 1
        comp = _reach_mask(g, start)
        out.append(frozenset(iter_bits(comp)))
        left &= ~comp
    return out


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced by the given vertices.

    Returns the subgraph (relabeled 0..len-1 in sorted vertex order) together
    with the list mapping new indices back to the originals. The whole vertex
    set gives g itself and the identity order, without building a copy. A
    vertex out of range raises PreconditionError, since the subgraph skips
    Graph's checks (see _from_rows), which is sound only for vertices of g.
    """
    order = sorted(set(vertices))
    if order and (order[0] < 0 or order[-1] >= g.n):
        raise PreconditionError(f"vertices out of range 0..{g.n - 1}")
    if order == list(range(g.n)):
        return g, order
    pos = {v: i for i, v in enumerate(order)}
    rows = [0] * len(order)
    for i, v in enumerate(order):
        for u in iter_bits(g.adj[v]):
            j = pos.get(u)
            if j is not None:
                rows[i] |= 1 << j
    return _from_rows(len(order), tuple(rows)), order


def _bandwidth_order(g: Graph) -> list[int]:
    """The vertices of g in Cuthill-McKee order: breadth first from a vertex
    of least degree, each vertex's unvisited neighbors appended by degree,
    and each further component from its own least-degree vertex (lowest
    index on every tie). Neighbors then sit close together in the order: it
    is the identity on gen_path, and on gen_cycle no edge spans more than 2
    places."""
    order, seen = [], 0
    degree = [m.bit_count() for m in g.adj].__getitem__
    for start in sorted(range(g.n), key=degree):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        head = len(order)
        order.append(start)
        while head < len(order):
            v = order[head]
            head += 1
            order.extend(sorted(iter_bits(g.adj[v] & ~seen), key=degree))
            seen |= g.adj[v]
    return order


# ---------------------------------------------------------------------------
# canonical forms and enumeration of small connected graphs

_SMALL_N = 7  # largest n for canonical forms and enumeration


def _stable_coloring(g: Graph) -> list[int]:
    # iterated degree refinement; colors are ranks so the result is
    # isomorphism-invariant
    colors = [g.degree(v) for v in range(g.n)]
    ranks = sorted(set(colors))
    colors = [ranks.index(c) for c in colors]
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g.adj[v]))))
            for v in range(g.n)
        ]
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if new == colors:
            return colors
        colors = new


def _encode_order(g: Graph, order: tuple[int, ...]) -> int:
    enc = 0
    for a in range(g.n):
        va = order[a]
        row = g.adj[va]
        for b in range(a + 1, g.n):
            enc = (enc << 1) | ((row >> order[b]) & 1)
    return enc


def canonical_form(g: Graph) -> tuple[int, int]:
    """A label-independent key (n, code); equal keys mean isomorphic graphs.

    Vertex orderings are restricted to those compatible with the stable
    degree-refinement coloring, so the cost is the product of the color class
    factorials: a regular graph tries all n! orderings. Supported for
    n <= 7, the enumeration corpus; beyond that it raises CapacityError
    (C12 would take over a minute).
    """
    if g.n > _SMALL_N:
        raise CapacityError(f"canonical form supported up to {_SMALL_N} vertices")
    colors = _stable_coloring(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    groups = [tuple(classes[c]) for c in sorted(classes)]

    best = None
    def rec(prefix: tuple[int, ...], remaining: int):
        nonlocal best
        if remaining == len(groups):
            enc = _encode_order(g, prefix)
            if best is None or enc < best:
                best = enc
            return
        for perm in permutations(groups[remaining]):
            rec(prefix + perm, remaining + 1)

    rec((), 0)
    return (g.n, best if best is not None else 0)


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[tuple[int, int], None] = {}
    # every connected graph on n vertices extends a connected graph on n-1
    # vertices by one vertex joined to a nonempty subset
    for g in _connected_reps(n - 1):
        for sub in range(1, 1 << (n - 1)):
            rows = list(g.adj)
            for v in iter_bits(sub):
                rows[v] |= 1 << (n - 1)
            rows.append(sub)
            key = canonical_form(Graph(n, tuple(rows)))
            if key not in seen:
                seen[key] = None
    ordered = sorted(seen)
    out = []
    for key in ordered:
        n_, enc = key
        rows = [0] * n_
        pos = n_ * (n_ - 1) // 2
        for a in range(n_):
            for b in range(a + 1, n_):
                pos -= 1
                if (enc >> pos) & 1:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        out.append(Graph(n_, tuple(rows)))
    return tuple(out)


def enumerate_connected_graphs(n: int):
    """Yield one representative per isomorphism class of connected graphs on n
    vertices, in a deterministic order. Supported for 1 <= n <= 7."""
    if n < 1:
        raise PreconditionError("need at least one vertex")
    if n > _SMALL_N:
        raise CapacityError(f"enumeration supported up to {_SMALL_N} vertices")
    yield from _connected_reps(n)
