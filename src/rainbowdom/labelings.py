"""k-rainbow labelings: weights, validity and a text format.

A labeling assigns each vertex a subset of the colors 1..k, stored internally
as a bitmask (color i is bit i-1). A labeling is k-rainbow dominating when
every vertex labeled with the empty set sees all k colors across its open
neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, PreconditionError
from .graphs import Graph, iter_bits


def _validate_k(k: int):
    if not (1 <= k <= 8):
        raise PreconditionError("k must be between 1 and 8")


@dataclass(frozen=True)
class RainbowLabeling:
    """Per-vertex color subsets for a fixed k, as a tuple of bitmasks."""

    k: int
    masks: tuple[int, ...]

    def __post_init__(self):
        _validate_k(self.k)
        top = (1 << self.k) - 1
        for v, m in enumerate(self.masks):
            if m & ~top:
                raise PreconditionError(f"label at vertex {v} uses colors beyond k")

    @property
    def n(self) -> int:
        return len(self.masks)

    @property
    def weight(self) -> int:
        return sum(m.bit_count() for m in self.masks)


@dataclass(frozen=True)
class RainbowCheck:
    """Validity verdict; carries the first violating vertex on failure."""

    ok: bool
    violator: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_k_rainbow_dominating(g: Graph, f: RainbowLabeling) -> RainbowCheck:
    """Check the rainbow condition; vertices are scanned in index order.

    One support mask per color (the vertices whose label holds it): an empty
    vertex v sees color c exactly when adj[v] meets the support of c."""
    if f.n != g.n:
        raise PreconditionError("labeling size does not match graph")
    masks = f.masks
    supports = [0] * f.k
    for v, m in enumerate(masks):
        while m:
            low = m & -m
            supports[low.bit_length() - 1] |= 1 << v
            m ^= low
    adj = g.adj
    for v, m in enumerate(masks):
        if not m:
            row = adj[v]
            for support in supports:
                if not row & support:
                    return RainbowCheck(False, v)
    return RainbowCheck(True, None)


def _is_k_rainbow_dominating_lex(g: Graph, h: Graph, f: RainbowLabeling) -> RainbowCheck:
    """is_k_rainbow_dominating(lexicographic(g, h), f), first violator
    included, without building the product: f is in the product's row-major
    order, (a, x) at a * h.n + x.

    An empty (a, x) sees every vertex of each neighboring layer, so the
    union C(b) of every b in N_g(a), and inside its own layer the labels of
    N_h(x). A layer whose neighbors already carry every color is valid, and
    any other is checked against the colors they miss, vertex by vertex.
    Layers and their vertices are scanned in order, as the product's
    vertices are."""
    nh = h.n
    if f.n != g.n * nh:
        raise PreconditionError("labeling size does not match the product")
    full, masks = (1 << f.k) - 1, f.masks
    union = []  # union[a] = C(a), the colors on layer a
    for a in range(g.n):
        c = 0
        for m in masks[a * nh:(a + 1) * nh]:
            c |= m
        union.append(c)
    for a in range(g.n):
        missing = full
        for b in iter_bits(g.adj[a]):
            missing &= ~union[b]
        if not missing:
            continue
        layer = masks[a * nh:(a + 1) * nh]
        supports = []  # per missing color, the vertices of the layer carrying it
        for c in iter_bits(missing):
            bit, support = 1 << c, 0
            for x, m in enumerate(layer):
                if m & bit:
                    support |= 1 << x
            supports.append(support)
        for x, m in enumerate(layer):
            if not m:
                row = h.adj[x]
                for support in supports:
                    if not row & support:
                        return RainbowCheck(False, a * nh + x)
    return RainbowCheck(True, None)


# ---------------------------------------------------------------------------
# text format: one line per vertex, "v: {1,2}" or "v: -" for the empty label


def format_labeling(f: RainbowLabeling) -> str:
    lines = []
    for v, m in enumerate(f.masks):
        if m:
            inside = ",".join(str(b + 1) for b in iter_bits(m))
            lines.append(f"{v}: {{{inside}}}")
        else:
            lines.append(f"{v}: -")
    return "\n".join(lines) + "\n"


def parse_labeling(text: str, k: int) -> RainbowLabeling:
    entries: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"bad labeling line: {line!r}")
        try:
            v = int(head.strip())
        except ValueError as exc:
            raise ParseError(f"bad vertex index in line: {line!r}") from exc
        if v in entries:
            raise ParseError(f"duplicate vertex {v} in labeling")
        tail = tail.strip()
        if tail == "-":
            entries[v] = 0
            continue
        if not (tail.startswith("{") and tail.endswith("}")):
            raise ParseError(f"bad label in line: {line!r}")
        body = tail[1:-1].strip()
        mask = 0
        if body:
            for part in body.split(","):
                try:
                    c = int(part.strip())
                except ValueError as exc:
                    raise ParseError(f"bad color in line: {line!r}") from exc
                if not (1 <= c <= k):
                    raise ParseError(f"color {c} outside 1..{k} in line: {line!r}")
                mask |= 1 << (c - 1)
        entries[v] = mask
    if not entries:
        raise ParseError("empty labeling text")
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise ParseError("labeling must cover vertices 0..n-1 exactly once")
    return RainbowLabeling(k, tuple(entries[v] for v in range(n)))
