"""Exact subtree statistics of a graph.

A subtree with vertex set A is a spanning tree of the induced subgraph
G[A], so a census weights every connected vertex set A by the
matrix-tree count kappa(G[A]).  The count is read block by block: a
connected set meets each biconnected block of the graph in nothing, one
vertex or a connected subset of that block, and kappa(G[A]) is the
product of the kappa of those pieces.  :func:`_block_dp` finds the blocks
with a Hopcroft-Tarjan search, enumerates only the connected subsets of
each block with :func:`_connected_sets` (the one extend-or-forbid
generator), weights each by a determinant of :func:`_reduced_laplacian`
read per core (deleting leaves keeps the count, so subsets share cores),
and folds the blocks into their top cut vertices, children first, as a
dynamic program over the block-cut tree.  A determinant depends only on
the core's shape, which recurs at other labels in one graph and across
graphs, so :func:`_kappa` reads it from a bounded process cache of
:func:`_shape_kappa`, a function of the core's induced subgraph and
grounding renumbered in label order (:func:`_shape_key`) alone, which
drops its least recently used entry when full.
Every spanning-tree count is a determinant or adjugate of that one
builder, a Laplacian grounded at a vertex set and built as its upper
triangle (it is symmetric): at one vertex it counts all spanning trees,
at a connected set V those containing a fixed spanning tree of G[V],
which weights the sets of :func:`census_containing`.  That count is the
same for every spanning tree of G[V] (the all-minors matrix-tree
theorem, Chaiken 1982), so an anchored census takes only the tree's
vertex set.  Per-vertex sums need
only (count, order sum) pairs, which multiply as (a, s)(b, t) = (ab, at +
bs), and a second, outside pass gives every vertex its totals; only the
whole-graph counts by order are polynomials.  :func:`census`,
:func:`census_containing` (whose required vertices fix the branches and
block vertices every set must take) and
:func:`average_connected_set_size` (every set weighted 1) share this one
pass.  A 2-connected graph is a single block: its connected sets are
enumerated once, as they are grown, and never stored.  All arithmetic is
exact: counts are Python integers, determinants use fraction-free
Bareiss elimination on the upper triangle, deferring the scaling of the
rows a step leaves unchanged (:func:`_det_bareiss`), and means are
``Fraction`` values.

:func:`local_census` gives every edge and cherry (3-vertex path a-m-b)
anchored census, and the census itself, from the same block DP.  An
edge or a cherry inside a block is split like a vertex, by whether the
block subset reaches the block's top.  Its trees in a subset S are read
off the core of S, from the integer adjugate M = kappa L0^-1 of the
core's reduced Laplacian: the trees containing edge e number
x_e^T M x_e (Kirchhoff), and those containing both edges e and f number
(Y(e,e) Y(f,f) - Y(e,f)^2) / kappa with Y(e,f) = x_e^T M x_f (the
transfer-current theorem of Burton & Pemantle).  An edge outside the
core lies in every tree.  So there is one adjugate per labelled core
while the cache holds it: :func:`_core_trees` reads kappa and the tree
counts of the core's edges and cherries from a second process cache,
:func:`_core_entry`, a function of n and the core's labelled rows (its
indices are labels), and the subsets sharing a core meet them once per
call, with their weights summed.  A cherry whose two edges lie in
different blocks at a cut vertex m is edge(a-m) edge(m-b) / vertex(m) in
the pair algebra.  The tables key edge u-v (u < v) at u*n+v and cherry
a-m-b (a < b) at n*n + (m*n+a)*n+b, and an index enters them when it is
first added to: no block lists its keys, since the subset of an edge's
or a cherry's own vertices reaches it.
:func:`census_containing` counts the subtrees containing a
spanning tree of G[V] for one connected vertex set V; it serves anchored
trees of order 4 or more, single-vertex, single-edge and single-tree
queries, and the tests as the oracle of :func:`local_census`.

:func:`census_from_parent` builds the census of g, for g's last vertex
v, from the table :func:`subset_kappas` of g - v, kappa of every vertex
subset, without a block DP.  Deleting v from a spanning tree of G[U + v]
leaves one spanning tree per branch, each joined to v by one of its
edges to v, so kappa(G[U + v]) for every U is one exact sum over the
splits of U into branches (:func:`_layer`).  That completes g's own
table, which holds every count the census sums, and the table itself is
built a vertex at a time by the same sum.

The tests keep the independent slow oracles: a walk that lists subtrees
one by one as growing edge sets, sharing no counting machinery with
:func:`census`, and per-set walks over the whole graph.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Sequence

from .graphs import Edge, Graph


def _bits(mask: int) -> Sequence[int]:
    """The set bits of ``mask``, ascending."""
    if mask < 256:
        return _SMALL_BITS[mask]
    if mask < 65536:
        return _SMALL_BITS[mask & 255] + _HIGH_BITS[mask >> 8]
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


# _bits of every mask below 2**8, and of every mask below 2**16 without
# its low byte, by its high byte; shared, so read-only
_SMALL_BITS = [tuple(i for i in range(8) if (m >> i) & 1) for m in range(256)]
_HIGH_BITS = [tuple(i + 8 for i in bits) for bits in _SMALL_BITS]


# -- determinants ------------------------------------------------------------


def _det_bareiss(mat: list[list[int]]) -> int:
    """Fraction-free determinant of a grounded Laplacian given as its upper
    triangle (row i holds columns i on); destroys ``mat``.

    The matrix is positive semidefinite and the pivot at step k is its
    leading principal minor of order k + 1; if that minor is singular, so
    is the matrix.  So no row swap is needed: a zero pivot means 0.  It is
    symmetric, and so is every Bareiss step's remaining block, so the
    upper triangle is all that is read and updated: row i takes its factor
    from column i of the pivot row.

    A row whose factor is 0 would only be multiplied by pivot / prev, so
    that scaling is deferred.  ``marks[i]`` is the ``prev`` at which row i
    was last brought up to date; its true entries are the stored ones
    times prev / marks[i], a product of consecutive pivot ratios that
    telescopes.  Every true entry is a minor of the matrix, an integer, so
    each division below is exact: an update divides by the row's own mark
    instead of ``prev``, with the row's own stale factor, the true one
    times marks[i] / prev, and a row is scaled only when it becomes the
    pivot row or is returned.
    """
    size = len(mat)
    if size == 0:
        return 1
    marks = [1] * size
    prev = 1
    for k in range(size - 1):
        mk = mat[k]
        m = marks[k]
        if m != prev:
            mk = [a * prev // m for a in mk]
        pivot = mk[0]
        if not pivot:
            return 0
        for i, f in enumerate(mk[1:], k + 1):
            if f:
                m = marks[i]
                if m != prev:
                    f = f * m // prev
                mat[i] = [(pivot * a - f * b) // m for a, b in zip(mat[i], mk[i - k :])]
                marks[i] = pivot
        prev = pivot
    return mat[-1][0] * prev // marks[-1]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees (any Laplacian cofactor), exact.

    Disconnected graphs give 0 and a single vertex gives 1.
    """
    full = (1 << g.n) - 1
    return _det_bareiss(_reduced_laplacian(g.rows, full, full & -full))


def _reduced_laplacian(
    rows: Sequence[int] | dict[int, int], subset: int, ground: int
) -> list[list[int]]:
    """Laplacian of G[``subset``] grounded at ``ground`` (its rows and
    columns deleted), as its upper triangle: row i holds columns i on.

    The matrix is symmetric, and :func:`_det_bareiss` and
    :func:`_adjugate` take this half.  The determinant counts the spanning
    trees of G[subset] containing a fixed spanning tree of the connected
    set ``ground`` (all-minors matrix-tree theorem, Chaiken 1982);
    grounded at one vertex, all of them.
    """
    keep = _bits(subset & ~ground)
    mat = []
    for i, v in enumerate(keep):
        row_mask = rows[v]
        row = [-((row_mask >> u) & 1) for u in keep[i:]]
        row[0] = (row_mask & subset).bit_count()
        mat.append(row)
    return mat


# Entries of each process cache, _shape_kappa and _core_entry; each value
# is a function of its key, so no result depends on what a cache (or a
# forked worker's copy) holds.
_KAPPA_LIMIT = 1024

# _RENUMBER[c] maps a byte b to its bits at the set bits of c, packed low
# (b & c renumbered in c); built when first needed, then shared, so read-only
_RENUMBER: list[bytes | None] = [None] * 256


def _renumbering(c: int) -> bytes:
    table = _RENUMBER[c]
    if table is None:
        table = _RENUMBER[c] = bytes(
            sum(((b >> v) & 1) << i for i, v in enumerate(_SMALL_BITS[c])) for b in range(256)
        )
    return table


def _shape_key(rows: tuple[int, ...], core: int, ground: int) -> bytes:
    """The induced subgraph G[``core``] and the grounding ``ground`` &
    ``core``, renumbered 0..k-1 in label order, as bytes: two cores get
    equal keys exactly when their renumbered shapes and groundings are
    equal, whatever their labels and the graph's order.

    Each core row, then the ground, becomes a lane of ceil(k / 8) bytes
    holding its renumbered mask.  A row's label byte p (one plane per 8
    labels) is renumbered by ``bytes.translate`` through the table of the
    core's byte p, then shifted past the core's vertices in the lower
    planes; a graph of order 8 or less takes a single translate.  The
    length (k + 1) ceil(k / 8) grows with k, so it fixes k.
    """
    verts = _bits(core)
    n = len(rows)
    if n <= 8:
        return bytes([*[rows[v] for v in verts], ground]).translate(_renumbering(core))
    width = (n + 7) // 8  # bytes of a labelled row
    lane = (len(verts) + 7) // 8  # bytes of a renumbered one
    data = b"".join([rows[v].to_bytes(width, "little") for v in verts])
    data += ground.to_bytes(width, "little")
    key = shift = 0
    for p in range(width):
        c = (core >> (8 * p)) & 255
        if c:
            plane = data[p::width].translate(_renumbering(c))
            if lane > 1:
                spread = bytearray(len(plane) * lane)
                spread[::lane] = plane
                plane = spread
            key |= int.from_bytes(plane, "little") << shift
            shift += len(_SMALL_BITS[c])
    return key.to_bytes((len(verts) + 1) * lane, "little")


def _kappa(rows: tuple[int, ...], core: int, ground: int) -> int:
    """Spanning trees of the connected set ``core`` (two or more vertices)
    containing a fixed spanning tree of ``ground``, or all of them when
    ``ground`` is 0.

    The count depends only on the core's induced subgraph and where the
    grounding lies in it, so it is :func:`_shape_kappa` of the core's
    :func:`_shape_key`: a shape recurring at other labels, in this graph
    or another, costs one determinant while the cache holds it.
    """
    return _shape_kappa(_shape_key(rows, core, ground))


@lru_cache(maxsize=_KAPPA_LIMIT)
def _shape_kappa(key: bytes) -> int:
    """The count of :func:`_kappa` for a :func:`_shape_key`, from the
    renumbered rows and ground it holds, each in a lane of ceil(k / 8)
    bytes (the ground last); k is read off the key's length
    (k + 1) ceil(k / 8)."""
    lane = 1
    while (8 * lane + 1) * lane < len(key):
        lane += 1
    k = len(key) // lane - 1
    whole = int.from_bytes(key, "little")
    full = (1 << 8 * lane) - 1
    masks = [(whole >> i) & full for i in range(0, 8 * len(key), 8 * lane)]
    return _det_bareiss(_reduced_laplacian(masks, (1 << k) - 1, masks[k] or 1))


def _adjugate(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a positive definite integer matrix given
    as its upper triangle (row i holds columns i on), exact; destroys ``mat``.

    Each row is first completed with its columns before i, read off the
    rows above it by symmetry.  Fraction-free Gauss-Jordan elimination on
    ``[mat | I]`` ends at ``[det I | adj]``, and every division in it is
    exact.  The pivots are the leading principal minors, all positive
    here, so no row swap is needed.  It runs in place: after step k the
    left columns up to k and the right columns after k are multiples of
    unit columns, so only the others are stored, the right column k where
    the left one was.
    """
    size = len(mat)
    aug = mat  # completed top down: the rows above are whole
    for i in range(1, size):
        aug[i] = [row[i] for row in aug[:i]] + aug[i]
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
                ai = [(pivot * a - f * b) // prev for a, b in zip(ai, ak)]
            elif pivot != prev:
                ai = [(pivot * a) // prev for a in ai]
            ai[k] = -f
            aug[i] = ai
        ak[k] = prev
        prev = pivot
    return prev, aug


# -- connected sets ------------------------------------------------------------


def _connected_sets(
    rows: tuple[int, ...], starts: Iterable[tuple[int, int]], need: int = 0
) -> Iterator[int]:
    """Bitmask of every connected set grown from each ``(seed, allowed)``
    pair, once; ``seed`` is one vertex bit.

    Extend-or-forbid growth: a set is extended by one candidate (a vertex
    of ``allowed`` next to it) at a time, and each candidate tried at a
    node is forbidden to the later branches.  So every connected set
    containing the seed, its other vertices inside ``allowed``, appears
    exactly once.  Only the sets containing ``need`` are yielded, and a
    branch stops once it has forbidden a vertex of ``need``.  Sets are
    yielded as they are grown, never stored.
    """
    for seed, allowed in starts:
        stack = [(seed, rows[seed.bit_length() - 1] & allowed & ~seed, 0)]
        while stack:
            subset, cand, forb = stack.pop()
            if subset & need == need:
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
                if b & need:
                    break  # the later branches would forbid it
                processed |= b


def _core(rows: tuple[int, ...], subset: int, keep: int) -> int:
    """``subset`` after repeatedly deleting its degree-1 vertices outside ``keep``.

    A leaf's edge lies in every spanning tree, so deleting the leaf keeps
    the spanning-tree count, also of the trees containing a tree on
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


# -- block-cut tree ------------------------------------------------------------


def _blocks(rows: tuple[int, ...], root: int) -> list[tuple[int, int]]:
    """Blocks of the component of ``root`` as ``(top, mask)`` pairs.

    An iterative Hopcroft-Tarjan search from ``root``: ``top`` is the
    block's vertex nearest ``root`` (its parent cut vertex, or ``root``
    itself), and every block comes after the blocks hanging below it.
    An isolated ``root`` has no block.
    """
    depth = [0] * len(rows)  # discovery time + 1; 0 while undiscovered
    low = depth[:]
    depth[root] = low[root] = 1
    tick = 1
    path = [root]  # discovered vertices not yet assigned to a block
    stack = [root]
    todo = [rows[root]]  # neighbours each vertex on `stack` has still to try
    blocks = []
    while stack:
        v = stack[-1]
        left = todo[-1]
        if left:
            b = left & -left
            todo[-1] = left ^ b
            w = b.bit_length() - 1
            if depth[w]:
                if depth[w] < low[v]:
                    low[v] = depth[w]
            else:
                tick += 1
                depth[w] = low[w] = tick
                path.append(w)
                stack.append(w)
                todo.append(rows[w])
            continue
        stack.pop()
        todo.pop()
        if stack:
            u = stack[-1]
            if low[v] >= depth[u]:  # u separates v's subtree: one block
                mask = 1 << u
                while True:
                    x = path.pop()
                    mask |= 1 << x
                    if x == v:
                        break
                blocks.append((u, mask))
            elif low[v] < low[u]:
                low[u] = low[v]
    return blocks


# -- the block DP ------------------------------------------------------------


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _padd(acc: list[int], poly: list[int]) -> None:
    if len(acc) < len(poly):
        acc.extend([0] * (len(poly) - len(acc)))
    for i, x in enumerate(poly):
        acc[i] += x


def _pair(poly: list[int]) -> tuple[int, int]:
    """(count, order sum) of an order polynomial: its value and slope at 1."""
    return sum(poly), sum(k * c for k, c in enumerate(poly))


def _packed(values: list[int]) -> Sequence[int]:
    """Non-negative ints in an array of 16-, 32- or 64-bit C unsigned ints,
    the narrowest that holds them, else a tuple (whose ints above 256 take
    28 bytes or more)."""
    top = max(values)
    if top >> 32:
        return tuple(values) if top >> 64 else array("Q", values)
    return array("I" if top >> 16 else "H", values)


def _core_trees(rows: tuple[int, ...], core: int) -> tuple[int, Sequence[int], Sequence[int]]:
    """kappa of G[core], and the indices (keyed as in the module docstring)
    and tree counts of its edges and cherries: :func:`_core_entry` of n and
    the core's rows masked to it.  The indices are labels and depend on n,
    so unlike a determinant the entry is not shared by the core's shape.
    """
    return _core_entry(len(rows), tuple([rows[v] & core for v in _bits(core)]))


@lru_cache(maxsize=_KAPPA_LIMIT)
def _core_entry(n: int, masked: tuple[int, ...]) -> tuple[int, Sequence[int], Sequence[int]]:
    """The entry of :func:`_core_trees`, packed, from the core's masked
    rows, whose union is the core; ``y`` is the adjugate M = kappa L0^-1
    with a zero row and column for the core's lowest vertex, which L0
    drops."""
    core = 0
    for row in masked:
        core |= row
    verts = _bits(core)
    kappa, adj = _adjugate(_reduced_laplacian(dict(zip(verts, masked)), core, core & -core))
    y = [[0] * len(verts)] + [[0] + row for row in adj]
    nn = n * n
    keys = []
    trees = []
    for i, m in enumerate(verts):
        ym = y[i]
        dm = ym[i]
        row = masked[i]
        nb = [(j, c, dm + y[j][j] - 2 * ym[j]) for j, c in enumerate(verts) if (row >> c) & 1]
        for x, (ia, a, t_am) in enumerate(nb):
            if a > m:
                keys.append(m * n + a)
                trees.append(t_am)
            ya = y[ia]
            yma = ym[ia] - dm
            base = nn + (m * n + a) * n
            for ib, b, t_mb in nb[x + 1 :]:
                # x_e = e_a - e_m and x_f = e_m - e_b; M is symmetric
                cross = yma + ym[ib] - ya[ib]
                keys.append(base + b)
                trees.append((t_am * t_mb - cross * cross) // kappa)
    return kappa, _packed(keys), _packed(trees)


def _add_core(n, keys, trees, a, w, at, counts, sums):
    # The trees of one core's edges and cherries times the summed weight
    # (a, w) of its sets; the trees of a core edge m-c also weight each
    # cherry p-m-c with a pendant edge p-m, by the sum listed in at[m].
    nn = n * n
    for i, t in zip(keys, trees):
        counts[i] += t * a
        sums[i] += t * w
        if at and i < nn:
            m, c = divmod(i, n)
            for u, v in ((m, c), (c, m)):
                for p, pa, pw in at.get(u, ()):
                    j = nn + (u * n + p) * n + v if p < v else nn + (u * n + v) * n + p
                    counts[j] += t * pa
                    sums[j] += t * pw


def _add_pendants(rows, s, core, ka, ks, counts, sums, pw, o, a, w):
    # One set S of a block whose core is smaller than S: its edges outside
    # the core lie in all kappa trees, so each of them, and each cherry of
    # two such edges, gets (ka, ks) = kappa (a, w) added in (counts, sums).
    # For a cherry p-m-c with a core edge m-c, (a, w) is summed at o in
    # pw[m*n+p] for _add_core.
    n = len(rows)
    nn = n * n
    pend = s & ~core
    reach = 0  # the neighbours of the pendant vertices
    for p in _bits(pend):
        nb = rows[p] & s
        reach |= nb
        # an edge of two pendant vertices is added from the smaller one
        low = pend & ((1 << p) - 1)
        nbl = _bits(nb)
        for x, u in enumerate(nbl):
            if not (low >> u) & 1:
                i = p * n + u if p < u else u * n + p
                counts[i] += ka
                sums[i] += ks
            base = nn + (p * n + u) * n
            for v in nbl[x + 1 :]:
                counts[base + v] += ka
                sums[base + v] += ks
    for m in _bits(reach & core):
        pl = _bits(rows[m] & pend)
        for x, u in enumerate(pl):
            base = nn + (m * n + u) * n
            for v in pl[x + 1 :]:
                counts[base + v] += ka
                sums[base + v] += ks
        if pw is not None:
            for p in pl:
                acc = pw.get(m * n + p)
                if acc is None:
                    acc = pw[m * n + p] = [0, 0, 0, 0]
                acc[o] += a
                acc[o + 1] += w


def _block_dp(
    rows: tuple[int, ...],
    root: int,
    *,
    tree: int = 0,
    unit: bool = False,
    local: tuple[defaultdict[int, int], defaultdict[int, int]] | None = None,
) -> tuple[int, list[int], list[int], list[tuple[int, int]]]:
    """One pass over the blocks of the component of ``root``.

    ``down[v]`` is the order polynomial (coefficient k: weighted sets of
    order k) of the sets containing v inside v's branch away from
    ``root``.  Blocks come children first, so a block with top vertex p
    multiplies ``down[p]`` by 1 + the sum, over its subsets S through p,
    of the weight of S times ``down[c]`` for every other c in S.  Until a
    vertex tops a block its ``down`` is x, so the subsets are bucketed by
    their vertices that top blocks, summed as powers of x, and each
    bucket is multiplied by those vertices' ``down`` once.

    Without a ``tree`` every subset of every block is visited, and
    ``total`` is the order polynomial of all connected sets of the
    component: those whose top vertex is v are ``down[v]``, the others have
    a block subset missing the block's top.  With a ``tree`` (the vertex
    mask of a required subtree, ``root`` among its vertices) only the
    subsets through each top are visited; a block whose branch holds a
    required vertex has no 1 in its factor, and its subsets must contain
    the vertices leading to the required ones, so ``down[root]`` counts
    the sets containing the whole tree.

    A subset is weighted by 1 with ``unit``, else by the spanning trees of
    its core containing the ``tree``: :func:`_reduced_laplacian` grounded
    at the tree's vertices in the block when there are two or more of
    them, else at the core's lowest vertex.  A tree meets a block in at
    most one connected piece (a path between two vertices of a block
    stays in it), so one grounding serves the whole block.  A core's
    count is looked up by its mask in a dict of this call, and on a miss
    by its shape in the process cache of :func:`_kappa`; with ``local`` it
    comes with the core's edge and cherry counts from :func:`_core_trees`,
    once per labelled core while its cache holds it.
    Only without ``unit`` and ``tree`` is ``full`` computed, else it is
    empty: ``full[v]`` is the (count, order sum) of the sets containing
    v, from a second, outside pass top down: the sets through v's parent
    block are split by whether they reach its top p, whose outside factor
    ``full[p] / (1 + T(p))`` is known only then.  Pairs multiply as (a,
    s)(b, t) = (ab, at + bs).

    With ``local``, a pair of ``defaultdict(int)`` tables (no ``tree`` or
    ``unit``), the pass also adds there the count and the
    order sum of the subtrees containing each edge and each cherry of the
    component, keyed as in the module docstring.  An edge or a cherry
    inside a block is split like a vertex: its trees in each subset S of
    the block, times the ``down`` of S's other vertices, go straight into
    the tables if S misses the top, else wait in a pair of dicts of the
    block for the top's outside factor.  Its trees in S are read off the
    core of S: an edge outside the core lies in all kappa trees, and so
    does a cherry of two such edges, while a cherry with one core edge e
    lies in the trees through e.  Inside the core they come from one
    adjugate per labelled core (:func:`_core_trees`), and meet the weights
    of the subsets sharing that core (and pendant edge) once, summed, in
    the outside pass.  A cherry a-m-b whose edges lie in two blocks at the
    cut vertex m is edge(a-m) edge(m-b) / vertex(m) in the pair algebra,
    an exact division: the sets containing m are independent across m's
    blocks.

    Returns the component mask, ``down``, ``total`` and ``full``.
    """
    n = len(rows)
    outside = not (tree or unit)
    x = [0, 1]
    down = [x] * n
    pairs = [(1, 1)] * n  # the (count, order sum) of each `down`
    heavy = 0  # tops of blocks seen so far: their `down` is not x
    reqd = tree  # required vertices, and tops with one below them
    total: list[int] = []
    kappas: dict[int, int] = {}
    # per vertex c, the (count, order sum) of the subsets S of c's parent
    # block that hold c, weighted by `down` of S's other vertices: S
    # missing the block's top, and S reaching it (to be multiplied by the
    # top's outside factor)
    below = [[0] * n, [0] * n]
    through = [[0] * n, [0] * n]
    tops = []
    if local is not None:
        counts, sums = local
    comp = 1 << root
    for top, block in _blocks(rows, root):
        comp |= block
        tbit = 1 << top
        rest = block & ~tbit
        hv = rest & heavy
        lt = rest & ~heavy
        must = rest & reqd
        ground = tree & block
        if not ground & (ground - 1):
            ground = 0
        starts = [(tbit, rest)]
        if not tree:
            starts += [(1 << v, rest & ~((2 << v) - 1)) for v in _bits(rest)]
        keyed = hv | tbit
        buckets: dict[int, tuple[list[int], int, int]] = {}
        if local is not None:
            # the edges and cherries outside the cores of the subsets
            # reaching the top, to be multiplied by its outside factor
            held = (defaultdict(int), defaultdict(int))
            # per core, the weights (a, w) of its sets through the top and
            # below it, the same per pendant edge p-m (at m*n+p), its entry
            weights: dict[int, list] = {}
        for s in _connected_sets(rows, starts, must):
            if s & (s - 1) == 0:
                continue
            kappa = 1
            if not unit:
                core = _core(rows, s, ground)
                if core & (core - 1):
                    if local is not None:
                        info = weights.get(core)
                        if info is None:
                            info = weights[core] = [0, 0, 0, 0, {}, _core_trees(rows, core)]
                        kappa = info[5][0]
                    else:
                        kappa = kappas.get(core)
                        if kappa is None:
                            kappa = kappas[core] = _kappa(rows, core, ground)
            key = s & keyed  # the tops of blocks in S, and the block's own
            entry = buckets.get(key)
            if entry is None:
                a, t = 1, 0
                for c in _bits(key & hv) if hv else ():
                    ca, ct = pairs[c]
                    a, t = a * ca, a * ct + t * ca
                entry = buckets[key] = ([0] * (block.bit_count() + 1), a, t)
            acc, a, t = entry
            j = (s & lt).bit_count()
            acc[j] += kappa
            if outside:
                sa, ss = through if s & tbit else below
                w = t + j * a  # (a, w): the `down` pair of S but its top
                ka = kappa * a
                ks = kappa * w
                for c in _bits(s & ~tbit):
                    sa[c] += ka
                    ss[c] += ks
                if local is not None:
                    o = 0 if s & tbit else 2
                    pw = None
                    if core & (core - 1):
                        info[o] += a
                        info[o + 1] += w
                        pw = info[4]
                    if core != s:
                        la, ls = held if s & tbit else local
                        _add_pendants(rows, s, core, ka, ks, la, ls, pw, o, a, w)
        factor = [0 if must else 1]
        for key, (acc, _, _) in buckets.items():
            for c in _bits(key & hv) if hv else ():
                acc = _pmul(acc, down[c])
            _padd(factor if key & tbit else total, acc)
        down[top] = _pmul(down[top], factor)
        pairs[top] = _pair(down[top])
        heavy |= tbit
        if must:
            reqd |= tbit
        if outside:
            tops.append((top, rest, _pair(factor), (held, weights) if local is not None else None))
    if not tree:
        _padd(total, [0, (comp & ~heavy).bit_count()])
        for v in _bits(heavy):
            _padd(total, down[v])
    if not outside:
        return comp, down, total, []
    full = pairs[:]
    for top, rest, (fa, ft), inside in reversed(tops):
        pa, ps = full[top]
        ua = pa // fa  # full[top] / factor: the sets at top outside the block
        us = (ps - ft * ua) // fa
        for c in _bits(rest):
            da, ds = full[c]
            ta, ts = through[0][c], through[1][c]
            full[c] = (
                da + below[0][c] + ta * ua,
                ds + below[1][c] + ta * us + ts * ua,
            )
        if inside:
            (la, ls), weights = inside
            for i, ta in la.items():
                counts[i] += ta * ua
                sums[i] += ta * us + ls[i] * ua
            for ta, tw, ba, bw, pw, (_, ckeys, trees) in weights.values():
                at: dict[int, list[tuple[int, int, int]]] = {}
                for i, (qa, qw, ra, rw) in pw.items():
                    at.setdefault(i // n, []).append((i % n, ra + qa * ua, rw + qa * us + qw * ua))
                _add_core(n, ckeys, trees, ba + ta * ua, bw + ta * us + tw * ua, at, counts, sums)
    if local is not None:
        # cherries across two blocks at a cut vertex m
        nn = n * n
        for m in _bits(comp):
            nb = _bits(rows[m])
            va, vs = full[m]
            for i, u in enumerate(nb):
                e = u * n + m if u < m else m * n + u
                ea, es = counts[e], sums[e]
                base = nn + (m * n + u) * n
                for v in nb[i + 1 :]:
                    # a cherry inside a block is a connected set of it, with a
                    # positive count: only one across blocks has no index yet
                    if base + v in counts:
                        continue
                    f = m * n + v if m < v else v * n + m
                    fa, fs = counts[f], sums[f]
                    ca = ea * fa // va
                    counts[base + v] = ca
                    sums[base + v] = (ea * fs + es * fa - ca * vs) // va
    return comp, down, total, full


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
    return _census(g)


def _census(
    g: Graph, local: tuple[defaultdict[int, int], defaultdict[int, int]] | None = None
) -> SubtreeCensus:
    # one block DP per component; `local` as for _block_dp
    n = g.n
    counts = [0] * (n + 1)
    vertex_counts = [0] * n
    vertex_order_sums = [0] * n
    seen = 0
    for root in range(n):
        if (seen >> root) & 1:
            continue
        comp, _, total, full = _block_dp(g.rows, root, local=local)
        seen |= comp
        for k, c in enumerate(total):
            if c:  # the polynomials carry zeros beyond order n
                counts[k] += c
        for v in _bits(comp):
            vertex_counts[v], vertex_order_sums[v] = full[v]
    num = sum(counts)
    order_sum = sum(k * c for k, c in enumerate(counts))
    return SubtreeCensus(
        tuple(counts), num, order_sum, tuple(vertex_counts), tuple(vertex_order_sums)
    )


def _layer(t: Sequence[int], row: int) -> list[int]:
    """``f[U]`` = kappa of G[U + v] for every subset U of v's earlier
    vertices 0..k-1, given ``t[B]`` = kappa of G[B] for every such subset
    (0 when G[B] is empty or disconnected, ``len(t)`` = 2**k) and the
    neighbours ``row`` of v.

    A spanning tree of G[U + v] less v is one spanning tree per branch B
    at v, each joined to v by one of its |B & row| edges.  So f[U] is the
    sum, over the branches B of U through U's lowest vertex, of t[B] |B &
    row| f[U - B], with f[0] = 1 (the tree of v alone): a walk over the
    submasks of each U that hold its lowest vertex, 3**k / 2 steps of
    integer arithmetic.
    """
    w = [x * (b & row).bit_count() for b, x in enumerate(t)]
    f = [1] * len(t)
    for u in range(1, len(t)):
        low = u & -u
        rest = u ^ low
        s = rest
        total = 0
        while True:
            total += w[low | s] * f[rest ^ s]
            if not s:
                break
            s = (s - 1) & rest
        f[u] = total
    return f


def subset_kappas(g: Graph) -> list[int]:
    """The spanning trees of G[S] for every vertex subset S, indexed by
    its mask: 0 when G[S] is empty or disconnected, 1 for one vertex.

    The table starts as the empty set's 0, and vertex j's half, the sets
    whose last vertex is j, is :func:`_layer` of the half before it; no
    determinant is taken.
    """
    t = [0]
    for j in range(g.n):
        t += _layer(t, g.rows[j])
    return t


def census_from_parent(kappas: Sequence[int], g: Graph) -> SubtreeCensus:
    """Census of g from ``kappas``, the :func:`subset_kappas` of g - v for
    g's last vertex v.

    One :func:`_layer` of ``kappas`` at v completes g's own table, kappa
    of every vertex subset U of g, and each subset adds its entry to the
    counts of order |U|: the subtrees spanning U.
    """
    v = g.n - 1
    if len(kappas) != 1 << v:
        raise ValueError(f"the parent's subset kappas have {len(kappas)} entries, not {1 << v}")
    t = [*kappas, *_layer(kappas, g.rows[v])]
    counts = [0] * (g.n + 1)
    w = []  # w[U] = |U| t[U]: the order sum of the subtrees spanning U
    for u, x in enumerate(t):
        k = u.bit_count()
        counts[k] += x
        w.append(k * x)
    # a vertex u's subtrees: fold out the vertices above u, then sum the
    # half of the table that holds u
    vertex_counts = []
    vertex_order_sums = []
    for u in reversed(range(g.n)):
        half = 1 << u
        vertex_counts.append(sum(t[half:]))
        vertex_order_sums.append(sum(w[half:]))
        t = list(map(add, t[:half], t[half:]))
        w = list(map(add, w[:half], w[half:]))
    return SubtreeCensus(
        tuple(counts),
        sum(counts),
        sum(k * c for k, c in enumerate(counts)),
        tuple(reversed(vertex_counts)),
        tuple(reversed(vertex_order_sums)),
    )


# -- rooted censuses ----------------------------------------------------------


def census_containing(g: Graph, vertices: Iterable[int]) -> tuple[int, int]:
    """Count and total order of the subtrees containing a spanning tree of
    G[``vertices``].

    Any one spanning tree T of G[V] will do: the subtrees containing T are
    the spanning trees of G[A] / T for the sets A holding V, and that
    contracted graph is the same for every choice of T (the all-minors
    matrix-tree theorem, Chaiken 1982), so every choice gives the same
    count.  Raises ``ValueError`` unless V is non-empty, inside 0..n-1 and
    induces a connected subgraph.
    """
    tree = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        tree |= 1 << v
    if not tree:
        raise ValueError("the anchored vertex set must be non-empty")
    root = (tree & -tree).bit_length() - 1
    if g.component_mask(root, tree) != tree:
        raise ValueError(f"vertices {list(_bits(tree))} induce no connected subgraph")
    _, down, _, _ = _block_dp(g.rows, root, tree=tree)
    return _pair(down[root])


@dataclass(frozen=True)
class LocalCensus:
    """Subtrees containing each edge and each cherry of a graph, and its census.

    ``edges[(u, v)]`` is the (count, order sum) of the subtrees containing
    the edge u-v, keyed u < v in ``Graph.edges()`` order.  ``cherries[(a,
    m, b)]`` is the same for the cherry a-m-b (both edges a-m and m-b),
    keyed a < b and ordered by middle vertex m, then a, then b.  Each entry
    equals :func:`census_containing` of its vertices.  ``census`` is
    :func:`census` of the graph, from the same pass.
    """

    edges: dict[Edge, tuple[int, int]]
    cherries: dict[tuple[int, int, int], tuple[int, int]]
    census: SubtreeCensus


def local_census(g: Graph) -> LocalCensus:
    """Every edge and cherry anchored census, and the census, from one block DP.

    :func:`_block_dp` splits the trees through an edge or a cherry like
    those through a vertex, reading them per core from one adjugate; the
    graph may be disconnected.
    """
    n = g.n
    nn = n * n
    counts: defaultdict[int, int] = defaultdict(int)
    sums: defaultdict[int, int] = defaultdict(int)
    c = _census(g, (counts, sums))
    edges = {(u, v): (counts[u * n + v], sums[u * n + v]) for u, v in g.edges()}
    cherries = {}
    for m in range(n):
        nb = _bits(g.rows[m])
        for i, a in enumerate(nb):
            j = nn + (m * n + a) * n
            for b in nb[i + 1 :]:
                cherries[(a, m, b)] = (counts[j + b], sums[j + b])
    return LocalCensus(edges, cherries, c)


# -- derived statistics --------------------------------------------------------


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise ValueError("graph must be connected")


def mean_subtree_order(g: Graph) -> Fraction:
    _require_connected(g)
    c = census(g)
    return c.mean


def mean_subtree_order_at_tree(g: Graph, vertices: Iterable[int]) -> Fraction:
    """Mean order of the subtrees containing a spanning tree of
    G[``vertices``], any one: see :func:`census_containing`."""
    _require_connected(g)
    n_c, r_c = census_containing(g, vertices)
    return Fraction(r_c, n_c)


def spanning_fraction(g: Graph) -> Fraction:
    _require_connected(g)
    return census(g).spanning_fraction


def average_connected_set_size(g: Graph) -> Fraction:
    """Mean cardinality over all non-empty connected vertex sets."""
    _require_connected(g)
    _, _, total, _ = _block_dp(g.rows, 0, unit=True)
    sets, size_sum = _pair(total)
    return Fraction(size_sum, sets)
