"""Shared oracles for the test suite.

``census_by_subtree_enumeration`` lists every subtree one by one as a
growing edge set, sharing no counting machinery with the census.
``naive_census_counts`` is a third, maximally dumb counting route (iterate
every edge subset, keep the trees) used to cross-check both the production
census and that enumeration oracle on tiny graphs.
``walk_census`` and ``walk_census_containing`` count by walking every
connected set of the whole graph, one set at a time: the oracle of the
block DP behind ``census`` and ``census_containing``.
``_kappa_contracted`` is the contracted-quotient oracle of the grounded
determinant: it builds the Laplacian of G[S] with one connected piece
merged to one vertex as a matrix of its own, grounded at that vertex.
Both take their determinants from ``exact_det``, Gaussian elimination
over ``Fraction`` values with row pivoting on a whole square matrix,
which shares no code with the census's kernel; ``grounded_laplacian``
builds that whole matrix for a grounded vertex set.
``by_dedupe`` generates the connected universe, or with ``leaves`` the
tree universe, order by order the way the package once did, deduplicating
every one-vertex extension by certificate in one dict: the oracle of the
canonical augmentation behind ``generate_connected`` and
``generate_trees``.  ``generated`` gives the lists those generators
yield for a range of orders, each order built once.
``orbits_by_imaging`` is the orbit routine as it was before twin classes:
union-find over every item's image under every generator, the twin swaps
included, the oracle of ``canon._orbit_reps``.
``matchings_by_lists`` is the list-based recursion that once grew the
maximal matchings, the oracle of ``graphs.maximal_matchings``.
``refine_whole_queue`` is the equitable refinement as it was before it
stopped at a discrete partition, processing every splitter queued: the
oracle of ``canon._refine``.
``fresh_cache`` empties a process cache, or puts a smaller one around
the same function for a test, and ``filled_and_evicting`` tells whether
a cache filled and then dropped entries.
``renumbered_shape`` renumbers a core's induced subgraph and grounding
through a dict of labels, the oracle of ``census._shape_key``.
``contract_by_edges`` is edge contraction as it once was, a rebuild from
the relabelled edge set: the oracle of ``Graph.contract_edge``.
"""

import functools
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator

import subtrees.canon as canon
from subtrees import Graph, SubtreeCensus, canonical_form
from subtrees.census import _bits, _connected_sets, _core


def naive_census_counts(g: Graph) -> list[int]:
    """Subtree counts by order via brute force over all edge subsets."""
    edges = list(g.edges())
    counts = [0] * (g.n + 1)
    counts[1] = g.n
    for r in range(1, len(edges) + 1):
        for sub in combinations(edges, r):
            verts = set()
            for u, v in sub:
                verts.add(u)
                verts.add(v)
            if len(verts) != r + 1:
                continue
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for u, v in sub:
                a, b = find(u), find(v)
                if a == b:
                    acyclic = False
                    break
                parent[a] = b
            if acyclic:
                # r+1 vertices, r edges, no cycle: exactly one component
                counts[r + 1] += 1
    return counts


ORACLE_MAX_VERTICES = 8


def census_by_subtree_enumeration(g: Graph) -> SubtreeCensus:
    """Slow oracle: list every subtree explicitly as a growing edge set.

    Subtrees are grown from their minimum vertex, adding one frontier edge
    at a time with earlier frontier edges forbidden, so each subtree
    appears exactly once.  Exponential in the subtree count; capped at
    n <= 8.
    """
    n = g.n
    if n > ORACLE_MAX_VERTICES:
        raise ValueError(f"subtree enumeration capped at {ORACLE_MAX_VERTICES} vertices")
    rows = g.rows
    counts = [0] * (n + 1)
    vertex_counts = [0] * n
    vertex_order_sums = [0] * n

    def account(wmask: int) -> None:
        verts = _bits(wmask)
        k = len(verts)
        counts[k] += 1
        for v in verts:
            vertex_counts[v] += 1
            vertex_order_sums[v] += k

    all_bits = (1 << n) - 1
    for root in range(n):
        account(1 << root)
        allowed = all_bits & ~((1 << (root + 1)) - 1)
        start_cand = tuple((root, v) for v in _bits(rows[root] & allowed))
        stack = [(1 << root, start_cand)]
        while stack:
            wmask, cand = stack.pop()
            for i, (_, v) in enumerate(cand):
                grown = wmask | (1 << v)
                nxt = [e for e in cand[i + 1 :] if not (grown >> e[1]) & 1]
                nxt.extend((v, z) for z in _bits(rows[v] & allowed & ~grown))
                account(grown)
                stack.append((grown, tuple(nxt)))
    num = sum(counts)
    total = sum(k * c for k, c in enumerate(counts))
    return SubtreeCensus(
        tuple(counts), num, total, tuple(vertex_counts), tuple(vertex_order_sums)
    )


def generated(lo: int, hi: int, leaves: bool = False) -> Iterator[tuple[int, list[Graph]]]:
    """``(n, list(generate_connected(n)))`` for n = lo..hi, or of
    ``generate_trees(n)`` with ``leaves``.

    Each order is built once, from the list of the order below, by
    ``canon._children``, the step of the generators' own stream: a loop
    calling a generator once per order would rebuild every order below
    each time.
    """
    graphs = [Graph(1, (0,))]
    for n in range(1, hi + 1):
        if n > 1:
            graphs = [child for parent in graphs for child in canon._children(parent, leaves)]
        if n >= lo:
            yield n, graphs


def by_dedupe(hi: int, leaves: bool = False) -> Iterator[list[Graph]]:
    """One graph per class of connected graphs of each order 1..hi, or of
    trees with ``leaves``: every one-vertex extension (every leaf
    attachment) of every class of the order below, deduplicated by
    certificate."""
    graphs = [Graph(1, (0,))]
    yield graphs
    for k in range(2, hi + 1):
        v = k - 1
        seen: dict[bytes, Graph] = {}
        for parent in graphs:
            for mask in [1 << u for u in range(v)] if leaves else range(1, 1 << v):
                rows = [r | 1 << v if mask >> u & 1 else r for u, r in enumerate(parent.rows)]
                child = Graph(k, tuple(rows) + (mask,))
                seen.setdefault(canonical_form(child), child)
        graphs = list(seen.values())
        yield graphs


def orbits_by_imaging(n: int, gens: list[tuple[int, ...]], items: list | None = None) -> list[int]:
    """Per vertex or item, the index of its orbit's root under ``gens``:
    every item is imaged under every generator and joined to its image."""
    parent = list(range(n if items is None else len(items)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    index = {item: i for i, item in enumerate(items or ())}
    for sigma in gens:
        images = sigma if items is None else [index[canon._image(sigma, item)] for item in items]
        for i, j in enumerate(images):
            a, b = find(i), find(j)
            if a != b:
                parent[a] = b
    return [find(i) for i in range(len(parent))]


def same_partition(a: list[int], b: list[int]) -> bool:
    """Whether two lists of orbit roots split their indices alike."""
    return len(a) == len(b) and len(set(a)) == len(set(zip(a, b))) == len(set(b))


def matchings_by_lists(g: Graph) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every maximal matching of ``g``, grown over its sorted edges with
    increasing indices, the available edges rebuilt as a list at each node."""
    edges = sorted(g.edges())
    masks = [(1 << u) | (1 << v) for u, v in edges]

    def rec(avail, chosen, last):
        if not avail:
            yield tuple(edges[i] for i in chosen)
            return
        for i in avail:
            if i <= last:
                continue
            rest = [j for j in avail if not masks[j] & masks[i]]
            chosen.append(i)
            yield from rec(rest, chosen, i)
            chosen.pop()

    yield from rec(list(range(len(edges))), [], -1)


def refine_whole_queue(rows: tuple[int, ...], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
    """Equitable refinement of an ordered partition, every splitter in
    ``queue`` processed in turn (FIFO) until the queue is empty; fragments
    by ascending neighbour count in the splitter."""
    queue = list(queue)
    while queue:
        splitter = queue.pop(0)
        new_cells: list[list[int]] = []
        for cell in cells:
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault((rows[v] & splitter).bit_count(), []).append(v)
            for count in sorted(groups):
                new_cells.append(groups[count])
                if len(groups) > 1:
                    queue.append(sum(1 << v for v in groups[count]))
        cells = new_cells
    return cells


def fresh_cache(monkeypatch, owner, name: str, maxsize: int | None = None):
    """The ``lru_cache`` function ``owner.name`` emptied, or with
    ``maxsize`` a new cache of that size around the same function, put in
    its place for the test."""
    cache = getattr(owner, name)
    if maxsize is None:
        cache.cache_clear()
        return cache
    small = functools.lru_cache(maxsize=maxsize)(cache.__wrapped__)
    monkeypatch.setattr(owner, name, small)
    return small


def filled_and_evicting(cache) -> bool:
    """Whether ``cache`` holds as many entries as its size allows and has
    computed more: it filled, then dropped entries, never past its size."""
    info = cache.cache_info()
    return info.currsize == info.maxsize < info.misses


def renumbered_shape(rows: tuple[int, ...], core: int, ground: int) -> tuple:
    """The rows of G[``core``] and the mask ``ground`` & ``core``, with the
    core's vertices renumbered 0..k-1 in label order."""
    verts = [v for v in range(len(rows)) if (core >> v) & 1]
    index = {v: i for i, v in enumerate(verts)}

    def renumbered(mask: int) -> int:
        return sum(1 << index[v] for v in verts if (mask >> v) & 1)

    return tuple(renumbered(rows[v]) for v in verts), renumbered(ground)


def contract_by_edges(g: Graph, u: int, v: int) -> Graph:
    """``g`` with the edge u-v contracted, rebuilt from its edge set: the
    merged vertex takes the smaller label, labels above the larger one
    shift down, and parallel edges and the loop collapse."""
    lo, hi = min(u, v), max(u, v)
    relabel = [w - (w > hi) for w in range(g.n)]
    edges = set()
    for a, b in g.edges():
        a2 = lo if a == hi else a
        b2 = lo if b == hi else b
        if a2 != b2:
            edges.add(tuple(sorted((relabel[a2], relabel[b2]))))
    return Graph.from_edges(g.n - 1, sorted(edges))


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of ``g`` (``sigma[v]`` is the image of v), by brute force."""
    edges = list(g.edges())
    return [
        sigma
        for sigma in permutations(range(g.n))
        if all(g.has_edge(sigma[u], sigma[v]) for u, v in edges)
    ]


def _rooted(n: int):
    # One seed per root with smaller roots forbidden: every connected set
    # of the graph is grown from its smallest vertex.
    all_bits = (1 << n) - 1
    for root in range(n):
        yield 1 << root, all_bits & ~((2 << root) - 1)


def exact_det(mat: list[list[int]]) -> int:
    """Determinant of a square integer matrix: Gaussian elimination over
    ``Fraction`` values, swapping up the first row with a non-zero pivot."""
    a = [row[:] for row in mat]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        ak = a[k]
        det *= ak[k]
        for ai in a[k + 1 :]:
            if ai[k]:
                # only the columns right of k are read from here on
                r = Fraction(ai[k]) / ak[k]
                ai[k + 1 :] = [x - r * y for x, y in zip(ai[k + 1 :], ak[k + 1 :])]
    assert det.denominator == 1
    return int(det)


def grounded_laplacian(rows: tuple[int, ...], subset: int, ground: int) -> list[list[int]]:
    """The whole Laplacian of G[subset] without the rows and columns of ``ground``."""
    keep = [v for v in range(len(rows)) if (subset >> v) & 1 and not (ground >> v) & 1]
    return [
        [(rows[u] & subset).bit_count() if u == v else -((rows[u] >> v) & 1) for v in keep]
        for u in keep
    ]


def walk_census(g: Graph) -> SubtreeCensus:
    """Census by the per-set walk: every connected set of the whole graph,
    weighted by the spanning-tree count of its core, one set at a time."""
    n = g.n
    rows = g.rows
    counts = [0] * (n + 1)
    vertex_counts = [0] * n
    vertex_order_sums = [0] * n
    kappas: dict[int, int] = {}
    for subset in _connected_sets(rows, _rooted(n)):
        verts = _bits(subset)
        k = len(verts)
        core = _core(rows, subset, 0)
        kappa = kappas.get(core)
        if kappa is None:
            kappa = kappas[core] = exact_det(grounded_laplacian(rows, core, core & -core))
        counts[k] += kappa
        for v in verts:
            vertex_counts[v] += kappa
            vertex_order_sums[v] += k * kappa
    num = sum(counts)
    total = sum(k * c for k, c in enumerate(counts))
    return SubtreeCensus(
        tuple(counts), num, total, tuple(vertex_counts), tuple(vertex_order_sums)
    )


def _kappa_contracted(rows: tuple[int, ...], subset: int, piece: int) -> int:
    # Spanning trees of G[subset] containing a spanning tree of the
    # connected set `piece`: contract the piece to one block, keep parallel
    # edges, drop loops, and ground at the block.
    blocks = [piece]
    free = subset & ~piece
    while free:
        b = free & -free
        free ^= b
        blocks.append(b)
    nb = len(blocks)
    if nb == 1:
        return 1
    # per-block edge weight into every other block
    mat = []
    for i in range(1, nb):
        bi = blocks[i]
        outside = subset & ~bi
        wrow = [0] * (nb - 1)
        deg = 0
        m = bi
        while m:
            b = m & -m
            m ^= b
            r = rows[b.bit_length() - 1]
            deg += (r & outside).bit_count()
            for j in range(1, nb):
                if j != i:
                    w = (r & blocks[j]).bit_count()
                    if w:
                        wrow[j - 1] -= w
        wrow[i - 1] = deg
        mat.append(wrow)
    return exact_det(mat)


def walk_census_containing(g: Graph, vertices) -> tuple[int, int]:
    """``census_containing`` by the per-set walk: every connected set of the
    whole graph that holds the connected vertex set, weighted by the
    spanning trees of its core containing a spanning tree of it, counted
    with the set contracted."""
    rows = g.rows
    tree = sum(1 << v for v in set(vertices))
    assert tree and g.component_mask(min(vertices), tree) == tree, vertices
    count = 0
    order_sum = 0
    kappas: dict[int, int] = {}
    for subset in _connected_sets(rows, _rooted(g.n), tree):
        core = _core(rows, subset, tree)
        kappa = kappas.get(core)
        if kappa is None:
            kappa = kappas[core] = _kappa_contracted(rows, core, tree)
        count += kappa
        order_sum += subset.bit_count() * kappa
    return count, order_sum
