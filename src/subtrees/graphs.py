"""Labelled graphs on at most 64 vertices, with exact edge bookkeeping.

The representation keeps one adjacency bitmask per vertex, so connectivity
tests and connected-set enumeration reduce to machine-word bit operations.

All operations are pure: a :class:`Graph` is immutable after construction
and safe to share across workers.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VERTICES = 64

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected labelled graph.

    ``rows[v]`` is the bitmask of neighbours of ``v``.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[Edge]) -> "Graph":
        """Build a simple graph from an edge list (duplicates rejected)."""
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if (rows[u] >> v) & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> Iterator[Edge]:
        for u in range(self.n):
            m = self.rows[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    yield (u, v)
                m >>= 1
                v += 1

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    # -- edit operations ---------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a loop")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def delete_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("no loops exist")
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def add_edges(self, edges: Iterable[Edge]) -> "Graph":
        g = self
        for u, v in edges:
            g = g.add_edge(u, v)
        return g

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of an edge into one vertex.

        Parallel edges arising from the merge collapse to one edge and the
        loop vanishes (simple-graph contraction).  The merged vertex
        takes the smaller label; labels above the larger one shift down.
        """
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        lo, hi = _norm_edge(u, v)
        below = (1 << hi) - 1
        rows = []
        for w, m in enumerate(self.rows):
            if w == hi:
                continue
            if w == lo:
                m = (m | self.rows[hi]) & ~(1 << lo)
            elif (m >> hi) & 1:
                m |= 1 << lo
            # drop bit hi; the bits above it shift down one place
            rows.append((m & below) | ((m >> (hi + 1)) << hi))
        return Graph(self.n - 1, tuple(rows))

    def complement(self) -> "Graph":
        n = self.n
        full = (1 << n) - 1
        rows = tuple((full & ~self.rows[v]) & ~(1 << v) for v in range(n))
        return Graph(n, rows)

    def relabel(self, perm: list[int]) -> "Graph":
        """Apply a permutation: vertex v of the result is ``perm[v]`` of self."""
        n = self.n
        inv = [0] * n
        for new, old in enumerate(perm):
            inv[old] = new
        rows = [0] * n
        for u, v in self.edges():
            a, b = inv[u], inv[v]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return Graph(n, tuple(rows))

    # -- connectivity ------------------------------------------------------

    def component_mask(self, start: int, within: int | None = None) -> int:
        """Bitmask of the component of ``start`` inside ``within``."""
        rows = self.rows
        if within is None:
            within = (1 << self.n) - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                nxt |= rows[b.bit_length() - 1]
            frontier = nxt & within & ~comp
            comp |= frontier
        return comp

    def is_connected(self) -> bool:
        return self.component_mask(0) == (1 << self.n) - 1

    def is_tree(self) -> bool:
        return self.edge_count == self.n - 1 and self.is_connected()

    def is_cut_vertex(self, v: int) -> bool:
        if self.n == 1:
            return False
        rest = ((1 << self.n) - 1) & ~(1 << v)
        start = (rest & -rest).bit_length() - 1
        return self.component_mask(start, rest) != rest

    def is_bridge(self, u: int, v: int) -> bool:
        if not self.has_edge(u, v):
            raise ValueError(f"({u},{v}) is not an edge")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        g = Graph(self.n, tuple(rows))
        return not (g.component_mask(u) >> v) & 1


# -- graph6 encoding -------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6 (6-bit groups, bias 63)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        # long form: '~' then three 6-bit groups holding n
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        col = g.rows[v]
        for u in range(v):
            bits.append((col >> u) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = (word << 1) | b
        chars.append(chr(word + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string into a simple graph (n <= 64)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :]
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"invalid graph6 character {ch!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise ValueError("graph6 order beyond supported range")
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 1 or n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = []
    for ch in body:
        word = ord(ch) - 63
        bits.extend((word >> s_) & 1 for s_ in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 body")
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(n, tuple(rows))


# -- matchings ---------------------------------------------------------------


def maximal_matchings(g: Graph) -> Iterator[tuple[Edge, ...]]:
    """Yield every maximal matching of ``g`` exactly once.

    Matchings are grown over edges in lexicographic order with increasing
    indices, so the stream is duplicate-free and deterministic.  The empty
    matching is yielded iff the graph has no edges.  The edges still
    available are a bitmask of edge indices, and choosing edge i clears
    its precomputed conflict mask: the edges that share a vertex with it,
    i included.  A matching is yielded when none is left, the edges below
    the last one chosen included, so it is maximal.
    """
    edges = sorted(g.edges())
    at = [0] * g.n  # per vertex, the edges on it
    for i, (u, v) in enumerate(edges):
        at[u] |= 1 << i
        at[v] |= 1 << i
    conflict = [at[u] | at[v] for u, v in edges]

    def rec(avail: int, chosen: list[Edge], above: int) -> Iterator[tuple[Edge, ...]]:
        if not avail:
            yield tuple(chosen)
            return
        # above is -(1 << (last + 1)): every index past the last one chosen
        cand = avail & above
        while cand:
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            chosen.append(edges[i])
            yield from rec(avail & ~conflict[i], chosen, -(b << 1))
            chosen.pop()

    yield from rec((1 << len(edges)) - 1, [], -1)


def maximal_matchings_of_complement(g: Graph) -> Iterator[tuple[Edge, ...]]:
    """Stream all maximal matchings of the complement of ``g``."""
    return maximal_matchings(g.complement())
