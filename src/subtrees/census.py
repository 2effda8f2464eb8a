"""Exact subtree statistics of a graph.

A subtree with vertex set A is a spanning tree of the induced subgraph
G[A], so the census enumerates every connected vertex subset exactly once
and adds the matrix-tree count of G[A] into the order-|A| bucket.  One
extend-or-forbid walk, :func:`_connected_sets`, grows the sets for every
census here (from each root with smaller roots forbidden, or from the
required vertices of an anchored census), and one builder,
:func:`_reduced_laplacian`, gives the matrix whose determinant or
adjugate counts the trees.  :func:`census` and :func:`census_containing`
read that count per core: a leaf's edge lies in every spanning tree, so
deleting leaves (those outside the required forest, for an anchored
census) keeps the count, and the sets of a graph whose cycles sit on
paths, brooms or pendant trees share a few cores.  Each call memoises
the count by the core's mask.  All arithmetic is exact: counts are Python
integers, determinants use fraction-free Bareiss elimination, and means
are ``Fraction`` values.

:func:`local_census` gives every edge and cherry (3-vertex path a-m-b)
anchored census from one pass over the connected sets, through two
identities on the integer adjugate M = kappa L0^-1 of each induced
reduced Laplacian: the trees containing edge e number x_e^T M x_e
(Kirchhoff), and those containing both edges e and f number
(Y(e,e) Y(f,f) - Y(e,f)^2) / kappa with Y(e,f) = x_e^T M x_f (the
transfer-current theorem of Burton & Pemantle).  :func:`census_containing`
counts the subtrees containing any one constraint; it serves constraints
of order 4 or more, single-edge and single-tree queries, and the tests as
the oracle of :func:`local_census`.

:func:`census_by_subtree_enumeration` is an independent slow oracle that
lists subtrees one by one as growing edge sets; it shares no counting
machinery with :func:`census` and exists to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .graphs import Edge, Graph, _norm_edge


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


# -- determinants ------------------------------------------------------------


def _det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free integer determinant; destroys ``mat``."""
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, size):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        mk = mat[k]
        pivot = mk[k]
        tail = mk[k + 1 :]
        for i in range(k + 1, size):
            mi = mat[i]
            f = mi[k]
            if f:
                mi[k + 1 :] = [
                    (pivot * a - f * b) // prev for a, b in zip(mi[k + 1 :], tail)
                ]
            elif pivot != prev:
                mi[k + 1 :] = [(pivot * a) // prev for a in mi[k + 1 :]]
        prev = pivot
    return sign * mat[size - 1][size - 1]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees (any Laplacian cofactor), exact.

    Disconnected graphs give 0 and a single vertex gives 1.
    """
    return _det_bareiss(_reduced_laplacian(g.rows, list(range(g.n)), (1 << g.n) - 1))


def _reduced_laplacian(rows: tuple[int, ...], verts: list[int], subset: int) -> list[list[int]]:
    """Laplacian of the graph induced on ``verts`` (bitmask ``subset``),
    without the row and column of ``verts[0]``."""
    k = len(verts)
    mat = []
    for i in range(1, k):
        row_mask = rows[verts[i]]
        deg = (row_mask & subset).bit_count()
        mat.append(
            [deg if i == j else -((row_mask >> verts[j]) & 1) for j in range(1, k)]
        )
    return mat


def _adjugate(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a positive definite integer matrix, exact.

    Fraction-free Gauss-Jordan elimination on ``[mat | I]`` ends at
    ``[det I | adj]``, and every division in it is exact.  The pivots are
    the leading principal minors, all positive here, so no row swap is
    needed.  Does not modify ``mat``.
    """
    size = len(mat)
    aug = [row + [0] * size for row in mat]
    for i in range(size):
        aug[i][size + i] = 1
    prev = 1
    for k in range(size):
        ak = aug[k]
        pivot = ak[k]
        for i in range(size):
            if i == k:
                continue
            ai = aug[i]
            f = ai[k]
            if f:
                aug[i] = [(pivot * a - f * b) // prev for a, b in zip(ai, ak)]
            elif pivot != prev:
                aug[i] = [(pivot * a) // prev for a in ai]
        prev = pivot
    return prev, [row[size:] for row in aug]


# -- connected sets ------------------------------------------------------------


def _connected_sets(rows: tuple[int, ...], starts: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Bitmask of every set grown from each ``(seed, allowed)`` pair, once.

    Extend-or-forbid growth: a set is extended by one candidate (a vertex
    of ``allowed`` next to it) at a time, and each candidate tried at a
    node is forbidden to the later branches.  So every set S containing
    the seed, with S minus the seed inside ``allowed`` and every component
    of G[S] meeting the seed, appears exactly once: a connected seed gives
    its connected supersets, a disconnected one also some disconnected
    sets.  Sets are yielded as they are grown, never stored.
    """
    for seed, allowed in starts:
        nbhd = 0
        m = seed
        while m:
            b = m & -m
            m ^= b
            nbhd |= rows[b.bit_length() - 1]
        stack = [(seed, nbhd & allowed & ~seed, 0)]
        while stack:
            subset, cand, forb = stack.pop()
            yield subset
            processed = 0
            while cand:
                b = cand & -cand
                cand ^= b
                grown = subset | b
                nf = forb | processed
                stack.append(
                    (grown, (cand | rows[b.bit_length() - 1]) & allowed & ~grown & ~nf, nf)
                )
                processed |= b


def _rooted(n: int) -> Iterator[tuple[int, int]]:
    # One seed per root with smaller roots forbidden: every connected set
    # of the graph is grown from its smallest vertex.
    all_bits = (1 << n) - 1
    for root in range(n):
        yield 1 << root, all_bits & ~((2 << root) - 1)


def _core(rows: tuple[int, ...], subset: int, keep: int) -> int:
    """``subset`` after repeatedly deleting its degree-1 vertices outside ``keep``.

    A leaf's edge lies in every spanning tree, so deleting the leaf keeps
    the spanning-tree count, also of the trees containing a forest inside
    ``keep``.  With ``keep`` 0 the 2-core is left, or one vertex of a tree.
    """
    core = subset
    todo = subset & ~keep
    while todo:
        b = todo & -todo
        todo ^= b
        nb = rows[b.bit_length() - 1] & core
        if nb and nb & (nb - 1) == 0:  # degree 1
            core ^= b
            todo |= nb & ~keep  # its neighbour may be a leaf now
    return core


# -- census ------------------------------------------------------------------


@dataclass(frozen=True)
class SubtreeCensus:
    """Subtree counts of a graph, bucketed by order.

    ``counts[k]`` is the number of subtrees with exactly k vertices
    (``counts[0]`` is always 0), ``num_subtrees`` their total number and
    ``order_sum`` the sum of their orders.  ``vertex_counts[v]`` /
    ``vertex_order_sums[v]`` restrict both to subtrees containing v.
    """

    counts: tuple[int, ...]
    num_subtrees: int
    order_sum: int
    vertex_counts: tuple[int, ...]
    vertex_order_sums: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def spanning_count(self) -> int:
        return self.counts[self.n]

    @property
    def mean(self) -> Fraction:
        return Fraction(self.order_sum, self.num_subtrees)

    @property
    def spanning_fraction(self) -> Fraction:
        return Fraction(self.spanning_count, self.num_subtrees)

    def mean_at_vertex(self, v: int) -> Fraction:
        return Fraction(self.vertex_order_sums[v], self.vertex_counts[v])


def census(g: Graph) -> SubtreeCensus:
    """Full subtree census; the graph may be disconnected."""
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
        if core & (core - 1) == 0:
            kappa = 1  # a tree strips down to one vertex
        else:
            kappa = kappas.get(core)
            if kappa is None:
                kappa = kappas[core] = _det_bareiss(
                    _reduced_laplacian(rows, _bits(core), core)
                )
        counts[k] += kappa
        k_kappa = k * kappa
        for v in verts:
            vertex_counts[v] += kappa
            vertex_order_sums[v] += k_kappa
    num = sum(counts)
    total = sum(k * c for k, c in enumerate(counts))
    return SubtreeCensus(
        tuple(counts), num, total, tuple(vertex_counts), tuple(vertex_order_sums)
    )


# -- rooted censuses ----------------------------------------------------------


@dataclass(frozen=True)
class SubtreeConstraint:
    """Vertices and forest edges every counted subtree must contain."""

    vertices: frozenset[int] = frozenset()
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset(_norm_edge(u, v) for u, v in self.edges)
        )
        for u, v in self.edges:
            if u == v:
                raise ValueError("constraint contains a loop")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("constraint edges must span required vertices")
        if self.vertices and min(self.vertices) < 0:
            raise ValueError(f"negative constraint vertex {min(self.vertices)}")
        _forest_blocks(self)

    @property
    def empty(self) -> bool:
        return not self.vertices

    def is_tree(self) -> bool:
        return len(self.vertices) >= 1 and len(self.edges) == len(self.vertices) - 1

    def validate_for(self, g: Graph) -> None:
        for v in self.vertices:
            if not 0 <= v < g.n:
                raise ValueError(f"constraint vertex {v} outside graph")
        for u, v in self.edges:
            if not g.has_edge(u, v):
                raise ValueError(f"constraint edge ({u},{v}) absent from graph")


def _forest_blocks(constraint: SubtreeConstraint) -> list[int]:
    """Sorted vertex masks of the components of the required forest.

    Raises ``ValueError`` when the constraint edges contain a cycle.
    """
    parent = {v: v for v in constraint.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in constraint.edges:
        a, b = find(u), find(v)
        if a == b:
            raise ValueError("constraint edges contain a cycle")
        parent[a] = b
    masks: dict[int, int] = {}
    for v in constraint.vertices:
        root = find(v)
        masks[root] = masks.get(root, 0) | (1 << v)
    return sorted(masks.values())


def _kappa_contracted(
    rows: tuple[int, ...], subset: int, req_block_masks: list[int], req_mask: int
) -> int:
    # Spanning trees of G[subset] containing the required forest: contract
    # each forest component to a block, keep parallel edges, drop loops.
    blocks = list(req_block_masks)
    free = subset & ~req_mask
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
    return _det_bareiss(mat)


def census_containing(g: Graph, constraint: SubtreeConstraint) -> tuple[int, int]:
    """Count and total order of subtrees containing the whole constraint.

    The empty constraint means "no restriction" and reproduces the full
    census totals.
    """
    constraint.validate_for(g)
    if constraint.empty:
        c = census(g)
        return c.num_subtrees, c.order_sum

    rows = g.rows
    req_blocks = _forest_blocks(constraint)
    req_mask = sum(req_blocks)
    forest = len(req_blocks) > 1
    kappas: dict[int, int] = {}
    count = 0
    order_sum = 0
    for subset in _connected_sets(rows, [(req_mask, (1 << g.n) - 1)]):
        # a forest seed is disconnected, so some grown sets are too; a
        # tree seed grows connected sets only
        if forest:
            low = subset & -subset
            if g.component_mask(low.bit_length() - 1, subset) != subset:
                continue
        k = subset.bit_count()
        core = _core(rows, subset, req_mask)
        kappa = kappas.get(core)
        if kappa is None:
            kappa = kappas[core] = _kappa_contracted(rows, core, req_blocks, req_mask)
        count += kappa
        order_sum += k * kappa
    return count, order_sum


@dataclass(frozen=True)
class LocalCensus:
    """Subtrees containing each edge and each cherry of a graph.

    ``edges[(u, v)]`` is the (count, order sum) of the subtrees containing
    the edge u-v, keyed u < v in ``Graph.edges()`` order.  ``cherries[(a,
    m, b)]`` is the same for the cherry a-m-b (both edges a-m and m-b),
    keyed a < b and ordered by middle vertex m, then a, then b.  Each entry
    equals :func:`census_containing` of that constraint.
    """

    edges: dict[Edge, tuple[int, int]]
    cherries: dict[tuple[int, int, int], tuple[int, int]]


def local_census(g: Graph) -> LocalCensus:
    """Every edge and cherry anchored census from one pass over connected sets.

    For a connected set A with kappa spanning trees of G[A] and adjugate
    M = kappa L0^-1 of its reduced Laplacian, the trees containing edge e
    number Y(e,e) = x_e^T M x_e (Kirchhoff), and those containing both
    edges e, f number (Y(e,e) Y(f,f) - Y(e,f)^2) / kappa, an exact division
    (the transfer-current theorem).  When G[A] is a tree each of its edges
    and cherries counts once.
    """
    n = g.n
    rows = g.rows
    nn = n * n
    # flat accumulators: edge u-v at u*n+v, cherry a-m-b at (m*n+a)*n+b
    edge_counts = [0] * nn
    edge_sums = [0] * nn
    cherry_counts = [0] * (nn * n)
    cherry_sums = [0] * (nn * n)
    for subset in _connected_sets(rows, _rooted(n)):
        verts = _bits(subset)
        k = len(verts)
        nbrs = [_bits(rows[v] & subset) for v in verts]
        if sum(map(len, nbrs)) == 2 * (k - 1):
            for m, nb in zip(verts, nbrs):
                for i, a in enumerate(nb):
                    if a > m:
                        edge_counts[m * n + a] += 1
                        edge_sums[m * n + a] += k
                    base = (m * n + a) * n
                    for b in nb[i + 1 :]:
                        cherry_counts[base + b] += 1
                        cherry_sums[base + b] += k
        else:
            _add_local(
                rows, verts, subset, nbrs, edge_counts, edge_sums, cherry_counts, cherry_sums
            )
    edges = {(u, v): (edge_counts[u * n + v], edge_sums[u * n + v]) for u, v in g.edges()}
    cherries = {}
    for m in range(n):
        nb = _bits(rows[m])
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                j = (m * n + a) * n + b
                cherries[(a, m, b)] = (cherry_counts[j], cherry_sums[j])
    return LocalCensus(edges, cherries)


def _add_local(rows, verts, subset, nbrs, edge_counts, edge_sums, cherry_counts, cherry_sums):
    # One connected set A = `verts` whose induced graph has a cycle: add its
    # spanning trees through each edge and each cherry to the accumulators
    # of local_census.
    n = len(rows)
    k = len(verts)
    local = {v: i for i, v in enumerate(verts)}
    kappa, adj = _adjugate(_reduced_laplacian(rows, verts, subset))
    # the adjugate padded with a zero row and column for the dropped verts[0]
    y = [[0] * k] + [[0] + row for row in adj]
    trees_through = [[0] * k for _ in range(k)]
    for im, (m, nb) in enumerate(zip(verts, nbrs)):
        ym = y[im]
        for a in nb:
            if a > m:
                ia = local[a]
                t = ym[im] + y[ia][ia] - 2 * ym[ia]
                trees_through[im][ia] = trees_through[ia][im] = t
                edge_counts[m * n + a] += t
                edge_sums[m * n + a] += k * t
    for im, (m, nb) in enumerate(zip(verts, nbrs)):
        ym = y[im]
        tm = trees_through[im]
        for i, a in enumerate(nb):
            ia = local[a]
            ya = y[ia]
            t_am = tm[ia]
            base = (m * n + a) * n
            for b in nb[i + 1 :]:
                ib = local[b]
                # x_e = e_a - e_m and x_f = e_m - e_b
                cross = ya[im] - ya[ib] - ym[im] + ym[ib]
                t = (t_am * tm[ib] - cross * cross) // kappa
                cherry_counts[base + b] += t
                cherry_sums[base + b] += k * t


# -- derived statistics --------------------------------------------------------


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise ValueError("graph must be connected")


def mean_subtree_order(g: Graph) -> Fraction:
    _require_connected(g)
    c = census(g)
    return c.mean


def mean_subtree_order_at_vertex(g: Graph, v: int) -> Fraction:
    _require_connected(g)
    n_c, r_c = census_containing(g, SubtreeConstraint(frozenset([v])))
    return Fraction(r_c, n_c)


def mean_subtree_order_at_edge(g: Graph, e: Edge) -> Fraction:
    _require_connected(g)
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    n_c, r_c = census_containing(
        g, SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)]))
    )
    return Fraction(r_c, n_c)


def mean_subtree_order_at_tree(g: Graph, constraint: SubtreeConstraint) -> Fraction:
    _require_connected(g)
    if not constraint.is_tree():
        raise ValueError("constraint must be a non-empty subtree")
    n_c, r_c = census_containing(g, constraint)
    return Fraction(r_c, n_c)


def spanning_fraction(g: Graph) -> Fraction:
    _require_connected(g)
    return census(g).spanning_fraction


def average_connected_set_size(g: Graph) -> Fraction:
    """Mean cardinality over all non-empty connected vertex sets."""
    _require_connected(g)
    sets = 0
    size_sum = 0
    for subset in _connected_sets(g.rows, _rooted(g.n)):
        sets += 1
        size_sum += subset.bit_count()
    return Fraction(size_sum, sets)


# -- independent oracle ---------------------------------------------------------

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
