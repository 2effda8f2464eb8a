"""Canonical certificates and exhaustive generation of small graphs.

The certificate is the lexicographically minimal row-major upper-triangle
adjacency bitstring over the labellings explored by an
individualisation-refinement search.  Equitable refinement keeps the
ordered partition isomorphism-invariant, so equal certificates are
equivalent to isomorphism.  Twin swaps and the automorphisms discovered
at equal-code leaves prune sibling branches, which keeps highly symmetric
inputs (cliques, barbells) tractable.  :func:`certify` returns them with
the certificate, and :func:`_orbit_reps`, the one orbit routine, groups
vertices in the search, attachment sets in the generator, and edges,
non-edges or matchings for the checks.  It never images an item under a
twin swap: the swaps generate the product of the symmetric groups on the
twin classes, under which an item's orbit is exactly the set of items
with its class key (its vertices' classes, kept per edge for a
matching), so equal keys are joined directly and only the other
generators are imaged.  The same search started from the
partition (V - x, {x}) gives the rooted code of a vertex x: equal for two
vertices exactly when an automorphism maps one to the other.

Connected graphs and trees are generated by canonical augmentation: each
class of order n is built once, from the one order n-1 class left by
deleting its canonical vertex, so no certificate store spans parents.
Generation streams depth-first and keeps no universe between calls.  The
module's one mutable state is a bounded certificate cache
(:func:`_certificate`, keyed by a labelled graph's rows):
:func:`canonical_form` certifies each labelled graph once per process
while it is held, since the neighbours a scan prices (g+e, g/e) often
recur as the very same labelled graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph

MAX_CANON = 32


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _refine(rows: tuple[int, ...], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
    """Equitable refinement of an ordered partition of all the vertices.

    ``queue`` holds splitter masks still to process (FIFO).  Fragments are
    ordered by ascending neighbour count, which depends only on the
    partition structure, never on labels.  Once every cell is a singleton
    no splitter can split one, so the rest of the queue is dropped.
    """
    n = len(rows)
    while queue and len(cells) < n:
        splitter = queue.pop(0)
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & splitter).bit_count(), []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            for count in sorted(groups):
                frag = groups[count]
                new_cells.append(frag)
                queue.append(_mask_of(frag))
        cells = new_cells
    return cells


def _leaf_code(rows: tuple[int, ...], order: list[int], n: int) -> int:
    # Row-major upper-triangle bits of the relabelled adjacency matrix.
    code = 0
    for i in range(n):
        row = rows[order[i]]
        for j in range(i + 1, n):
            code = (code << 1) | ((row >> order[j]) & 1)
    return code


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _image(sigma: list[int] | tuple[int, ...], item):
    """``item`` moved by the vertex permutation ``sigma``, in normal form.

    An item is a vertex set as a bitmask, an edge ``(u, v)`` with
    ``u < v``, or a matching: a sorted tuple of such edges.  Items are their
    own keys, so a list of them needs no second copy to be indexed.  An
    edge or a matching is sorted the same way under any vertex map
    ``sigma``, where a pair's two ends may coincide.
    """
    if isinstance(item, int):
        image = 0
        while item:
            b = item & -item
            item ^= b
            image |= 1 << sigma[b.bit_length() - 1]
        return image
    if item and isinstance(item[0], int):
        u, v = sigma[item[0]], sigma[item[1]]
        return (u, v) if u < v else (v, u)
    return tuple(
        sorted([(sigma[u], sigma[v]) if sigma[u] < sigma[v] else (sigma[v], sigma[u]) for u, v in item])
    )


def _orbit_reps(n: int, gens: list[tuple[int, ...]], items: list | None = None) -> list[int]:
    """Union-find orbits under the group generated by ``gens``.

    ``gens`` are permutations of the ``n`` vertices.  The orbits are of the
    vertices, or of ``items`` (vertex sets, edges or matchings, see
    :func:`_image`), a list that each generator maps onto itself.  Returns,
    per vertex or item, the index of its orbit's root.

    No transposition is ever imaged.  The transpositions (the twin swaps)
    join their vertices into twin classes, and together they generate the
    product of the symmetric groups on those classes.  An item's orbit
    under that product is read off its class key: its vertices' classes,
    sorted for a vertex set, as a sorted pair for an edge, and as the
    sorted class pairs of a matching's edges.  The key is exact: a
    permutation of each class moves any vertex set onto any other with the
    same number of members in each class, and, since a matching's edges
    are disjoint, any matching onto any other with the same class pairs.
    Items with equal keys are joined directly, and only the other
    generators are imaged, over every item.
    """
    twins = list(range(n))
    others = []
    for sigma in gens:
        moved = [v for v in range(n) if sigma[v] != v]
        if len(moved) == 2:
            a, b = _find(twins, moved[0]), _find(twins, moved[1])
            if a != b:
                twins[a] = b
        else:
            others.append(sigma)
    cls = [_find(twins, v) for v in range(n)]
    if items is None:
        parent = cls  # each class root is its own parent
        images = others
    else:
        first: dict = {}
        parent = [first.setdefault(_class_key(cls, item), i) for i, item in enumerate(items)]
        index = {item: i for i, item in enumerate(items)} if others else {}
        images = ([index[_image(sigma, item)] for item in items] for sigma in others)
    for image in images:
        for i, j in enumerate(image):
            a, b = _find(parent, i), _find(parent, j)
            if a != b:
                parent[a] = b
    return [_find(parent, i) for i in range(len(parent))]


def _class_key(cls: list[int], item):
    """``item``'s key under the twin classes ``cls`` (``cls[v]`` is v's
    class): the sorted classes of a vertex set's members, and for an edge
    or a matching its image under the class map, sorted by :func:`_image`."""
    if isinstance(item, int):
        key = []
        while item:
            b = item & -item
            item ^= b
            key.append(cls[b.bit_length() - 1])
        key.sort()
        return tuple(key)
    return _image(cls, item)


def _canonical_search(rows: tuple[int, ...], n: int, cells: list[list[int]] | None = None):
    """The minimal leaf code and the automorphisms found.

    The search starts from the ordered partition ``cells`` (all vertices in
    one cell by default), so the code is canonical for the graph together
    with that partition, and every automorphism found preserves it.
    """
    if cells is None:
        cells = [list(range(n))]
    cell_of = [0] * n
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    best: list = [None, None]  # [code, order]
    # seed with twin swaps: they collapse fat cells (leaf bundles, clique
    # cells) without waiting for the leaf-comparison harvest below
    gens: list[tuple[int, ...]] = []
    for u in range(n):
        for v in range(u + 1, n):
            # swapping u and v is an automorphism iff their rows agree off
            # the pair; it preserves the partition iff they share a cell
            keep = ~((1 << u) | (1 << v))
            if rows[u] & keep == rows[v] & keep and cell_of[u] == cell_of[v]:
                sigma = list(range(n))
                sigma[u], sigma[v] = v, u
                gens.append(tuple(sigma))

    def rec(cells: list[list[int]], prefix: tuple[int, ...]) -> None:
        target_idx = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target_idx = idx
                break
        if target_idx < 0:
            order = [cell[0] for cell in cells]
            code = _leaf_code(rows, order, n)
            if best[0] is None or code < best[0]:
                best[0], best[1] = code, order
            elif code == best[0] and len(gens) < 512:
                sigma = [0] * n
                for i in range(n):
                    sigma[best[1][i]] = order[i]
                perm = tuple(sigma)
                if perm != tuple(range(n)) and perm not in gens:
                    gens.append(perm)
            return
        target = cells[target_idx]
        tried: list[int] = []
        known = -1  # how many generators `reps` was computed from
        for v in target:
            if tried:
                if known < len(gens):
                    known = len(gens)
                    fixing = [s for s in gens if all(s[p] == p for p in prefix)]
                    reps = _orbit_reps(n, fixing)
                if any(reps[v] == reps[u] for u in tried):
                    continue
            rest = [w for w in target if w != v]
            child = cells[:target_idx] + [[v], rest] + cells[target_idx + 1 :]
            # the parent partition is equitable, so after {v} every cell
            # has a constant count in `rest` too: it splits nothing
            child = _refine(rows, child, [1 << v])
            rec(child, prefix + (v,))
            tried.append(v)

    rec(_refine(rows, cells, [_mask_of(cell) for cell in cells]), ())
    return best[0], gens


def certify(g: Graph) -> tuple[bytes, list[tuple[int, ...]]]:
    """The certificate of ``g`` and automorphisms of ``g`` from the same search.

    The automorphisms (vertex permutations, ``sigma[v]`` the image of v) are
    the twin swaps and those found at equal-code leaves.  They generate a
    subgroup of Aut(g), all of it on every connected graph of order <= 6;
    orbits under them are sound for any Aut(g)-invariant list.
    """
    if g.n > MAX_CANON:
        raise ValueError(f"canonical certificates support at most {MAX_CANON} vertices")
    n = g.n
    code, gens = _canonical_search(g.rows, n)
    width = (n * (n - 1) // 2 + 7) // 8
    return bytes([n]) + code.to_bytes(width, "big"), gens


_CERT_LIMIT = 1024


@lru_cache(maxsize=_CERT_LIMIT)
def _certificate(rows: tuple[int, ...]) -> bytes:
    """The certificate of the labelled graph with these rows: a function
    of its key, so no result depends on what the cache holds."""
    return certify(Graph(len(rows), rows))[0]


def canonical_form(g: Graph) -> bytes:
    """Labelling-invariant certificate; equal bytes iff isomorphic graphs.

    The certificate of :func:`certify`, through :func:`_certificate`: a
    labelled neighbour's certificate is computed once while the cache
    holds it (1,024 entries, the least recently used dropped when full).
    A graph past :data:`MAX_CANON` raises and stores nothing.
    """
    return _certificate(g.rows)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# -- exhaustive generation ---------------------------------------------------

MAX_GENERATE = 8


def _rooted_code(rows: tuple[int, ...], n: int, x: int) -> int:
    """The leaf code of the graph searched from the partition (V - x, {x}).

    Vertex x keeps the last position in every leaf, so equal codes of x in
    G and y in H mean an isomorphism G -> H taking x to y, and conversely.
    """
    rest = [w for w in range(n) if w != x]
    return _canonical_search(rows, n, [rest, [x]] if rest else [[x]])[0]


def _rank(rows: tuple[int, ...], degree: list[int], x: int) -> tuple[int, int]:
    """(degree, sum of neighbour degrees) of x: a cheap vertex invariant."""
    total = 0
    m = rows[x]
    while m:
        b = m & -m
        m ^= b
        total += degree[b.bit_length() - 1]
    return degree[x], total


def _is_canonical(g: Graph) -> bool:
    """Whether the last vertex v of ``g`` is a canonical vertex of it.

    The canonical vertices of a connected graph are one orbit of its
    non-cut vertices: those of the largest :func:`_rank`, and among them
    those of the smallest :func:`_rooted_code`.  The choice is
    isomorphism-invariant, so g - v for a canonical v is the same class
    however g is labelled.  Deleting a non-cut vertex keeps g connected;
    in a tree of order >= 2 the non-cut vertices are the leaves, so the
    canonical vertex of a tree is a leaf and g - v is again a tree.
    """
    n, rows = g.n, g.rows
    v = n - 1
    degree = [r.bit_count() for r in rows]
    top = _rank(rows, degree, v)
    tied = []
    for x in range(v):
        if degree[x] < top[0]:
            continue
        rank = _rank(rows, degree, x)
        if rank >= top and not g.is_cut_vertex(x):
            if rank > top:
                return False
            tied.append(x)
    if not tied:
        return True
    code = _rooted_code(rows, n, v)
    return all(_rooted_code(rows, n, x) >= code for x in tied)


def _children(parent: Graph, leaves: bool = False) -> list[Graph]:
    """The one-vertex extensions of ``parent`` whose new vertex is canonical.

    The new vertex joins any non-empty set of parent vertices, which keeps
    the child connected, or with ``leaves`` a single vertex, which keeps a
    tree a tree.  Every tree of order n >= 2 arises this way from exactly
    one tree of order n-1: its canonical vertex is a leaf (see
    :func:`_is_canonical`), and deleting a leaf leaves a tree.

    One attachment mask per orbit under the automorphisms :func:`certify`
    finds, ascending.  Those may generate only part of Aut(parent), so two
    masks can still give isomorphic children: children whose sorted ranks
    agree are told apart by the rooted codes of their new vertices.
    """
    n = parent.n + 1
    v = n - 1
    _, gens = certify(parent)
    masks = [1 << u for u in range(v)] if leaves else range(1, 1 << v)
    tried: set[int] = set()
    kept: list[Graph] = []
    by_ranks: dict[tuple, list[Graph]] = {}
    for mask, root in zip(masks, _orbit_reps(v, gens, masks)):
        if root in tried:
            continue
        tried.add(root)
        rows = [r | 1 << v if mask >> u & 1 else r for u, r in enumerate(parent.rows)]
        rows.append(mask)
        child = Graph(n, tuple(rows))
        if not _is_canonical(child):
            continue
        degree = [r.bit_count() for r in rows]
        same = by_ranks.setdefault(tuple(sorted(_rank(rows, degree, x) for x in range(n))), [])
        if same:
            code = _rooted_code(rows, n, v)
            if any(_rooted_code(c.rows, n, v) == code for c in same):
                continue
        same.append(child)
        kept.append(child)
    return kept


def _stream(n: int, leaves: bool) -> Iterator[Graph]:
    """The children (:func:`_children`) of every order n-1 class in turn.

    Depth-first: each parent is expanded as the order n-1 stream yields
    it, so no order is held whole.
    """
    if n == 1:
        yield Graph(1, (0,))
        return
    for parent in _stream(n - 1, leaves):
        yield from _children(parent, leaves)


def generate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs of order n.

    Built by McKay's canonical augmentation ("Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998): a child G + v of an order n-1
    representative is kept only when v is a canonical vertex of it (see
    :func:`_is_canonical`), so each class comes from exactly one parent,
    with no store of certificates across parents.  Deterministic order:
    parents in order, then attachment masks ascending.  The graphs stream
    depth-first, so the first one comes after n-1 expansions, and nothing
    is kept between calls.  The built-in generator stops at n = 8; larger
    orders must be supplied externally as graph6 streams.  An order out of
    range raises ``ValueError`` at the call, before any graph is made.
    """
    if not 1 <= n <= MAX_GENERATE:
        raise ValueError(f"built-in generation supports 1 <= n <= {MAX_GENERATE}")
    return _stream(n, False)


def generate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n (n <= 16).

    The same canonical augmentation as :func:`generate_connected`, with
    the new vertex attached as a leaf, streamed the same way, and checked
    at the call the same way.
    """
    if not 1 <= n <= 16:
        raise ValueError("tree generation supports 1 <= n <= 16")
    return _stream(n, True)
