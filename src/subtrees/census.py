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
dynamic program over the block-cut tree.  Per-vertex sums need only
(count, order sum) pairs, which multiply as (a, s)(b, t) = (ab, at + bs),
and a second, outside pass gives every vertex its totals; only the
whole-graph counts by order are polynomials.  :func:`census`,
:func:`census_containing` (whose required vertices fix the branches and
block vertices every set must take) and
:func:`average_connected_set_size` (every set weighted 1) share this one
pass.  A 2-connected graph is a single block: its connected sets are
enumerated once, as they are grown, and never stored.  All arithmetic is
exact: counts are Python integers, determinants use fraction-free
Bareiss elimination, and means are ``Fraction`` values.

:func:`local_census` gives every edge and cherry (3-vertex path a-m-b)
anchored census, and the census itself, from the same block DP.  An
edge or a cherry inside a block is split like a vertex, by whether the
block subset reaches the block's top.  Its trees in a subset S are read
off the core of S, from the integer adjugate M = kappa L0^-1 of the
core's reduced Laplacian: the trees containing edge e number
x_e^T M x_e (Kirchhoff), and those containing both edges e and f number
(Y(e,e) Y(f,f) - Y(e,f)^2) / kappa with Y(e,f) = x_e^T M x_f (the
transfer-current theorem of Burton & Pemantle).  An edge outside the
core lies in every tree.  So there is one adjugate per distinct core,
and the subsets sharing a core meet its edges and cherries once, with
their weights summed.  A cherry whose two edges lie in different blocks
at a cut vertex m is edge(a-m) edge(m-b) / vertex(m) in the pair
algebra.  :func:`census_containing` counts the subtrees containing any
one constraint; it serves constraints of order 4 or more, single-edge
and single-tree queries, and the tests as the oracle of
:func:`local_census`.

:func:`census_by_subtree_enumeration` is an independent slow oracle that
lists subtrees one by one as growing edge sets; it shares no counting
machinery with :func:`census` and exists to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .graphs import Edge, Graph, _norm_edge


def _bits(mask: int) -> Sequence[int]:
    """The set bits of ``mask``, ascending."""
    if mask < 256:
        return _SMALL_BITS[mask]
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


# _bits of every mask below 2**8, shared, so read-only
_SMALL_BITS = [tuple(i for i in range(8) if (m >> i) & 1) for m in range(256)]


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
    others = verts[1:]
    mat = []
    for i, v in enumerate(others):
        row_mask = rows[v]
        row = [-((row_mask >> u) & 1) for u in others]
        row[i] = (row_mask & subset).bit_count()
        mat.append(row)
    return mat


def _adjugate(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a positive definite integer matrix, exact.

    Fraction-free Gauss-Jordan elimination on ``[mat | I]`` ends at
    ``[det I | adj]``, and every division in it is exact.  The pivots are
    the leading principal minors, all positive here, so no row swap is
    needed.  It runs in place: after step k the left columns up to k and
    the right columns after k are multiples of unit columns, so only the
    others are stored, the right column k where the left one was.  Does
    not modify ``mat``.
    """
    size = len(mat)
    aug = [row[:] for row in mat]
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
    """Bitmask of every set grown from each ``(seed, allowed)`` pair, once.

    Extend-or-forbid growth: a set is extended by one candidate (a vertex
    of ``allowed`` next to it) at a time, and each candidate tried at a
    node is forbidden to the later branches.  So every set S containing
    the seed, with S minus the seed inside ``allowed`` and every component
    of G[S] meeting the seed, appears exactly once: a connected seed gives
    its connected supersets, a disconnected one also some disconnected
    sets.  Only the sets containing ``need`` are yielded, and a branch
    stops once it has forbidden a vertex of ``need``.  Sets are yielded as
    they are grown, never stored.
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


def _core_trees(rows: tuple[int, ...], core: int) -> tuple[int, list[list[int]], dict]:
    """kappa of G[core], its padded adjugate, and the trees through each edge.

    With M = kappa L0^-1 the integer adjugate of the reduced Laplacian,
    the trees containing edge e number Y(e,e) = x_e^T M x_e (Kirchhoff).
    ``y`` is M with a zero row and column for the core's lowest vertex,
    whose row L0 drops.  ``tees[m]`` is m's position i in the core and
    the ``(j, c, trees through m-c)`` of its edges to core vertices c at
    position j.
    """
    verts = _bits(core)
    kappa, adj = _adjugate(_reduced_laplacian(rows, verts, core))
    y = [[0] * len(verts)] + [[0] + row for row in adj]
    tees = {}
    for i, m in enumerate(verts):
        ym = y[i]
        row = rows[m]
        tees[m] = (
            i,
            [(j, c, ym[i] + y[j][j] - 2 * ym[j]) for j, c in enumerate(verts) if (row >> c) & 1],
        )
    return kappa, y, tees


def _add_core(n, kappa, y, tees, wa, ws, counts, sums):
    # The trees of one core through each of its edges and cherries, times
    # the summed weight (wa, ws) of the sets with that core.  Those through
    # edges e and f number (Y(e,e) Y(f,f) - Y(e,f)^2) / kappa, an exact
    # division (the transfer-current theorem).
    nn = n * n
    for m, (im, nb) in tees.items():
        ym = y[im]
        dm = ym[im]
        for x, (ia, a, t_am) in enumerate(nb):
            if a > m:
                e = m * n + a
                counts[e] += t_am * wa
                sums[e] += t_am * ws
            ya = y[ia]
            yma = ym[ia] - dm
            base = nn + (m * n + a) * n
            for ib, b, t_mb in nb[x + 1 :]:
                # x_e = e_a - e_m and x_f = e_m - e_b; M is symmetric
                cross = yma + ym[ib] - ya[ib]
                t = (t_am * t_mb - cross * cross) // kappa
                counts[base + b] += t * wa
                sums[base + b] += t * ws


def _local_keys(rows: tuple[int, ...], block: int) -> list[int]:
    """Indices of the edges and cherries inside ``block``: edge u-v (u < v)
    at u*n+v, cherry a-m-b (a < b) at n*n + (m*n+a)*n+b."""
    n = len(rows)
    nn = n * n
    keys = []
    for m in _bits(block):
        nb = _bits(rows[m] & block)
        keys += [m * n + a for a in nb if a > m]
        for i, a in enumerate(nb):
            base = nn + (m * n + a) * n
            keys += [base + b for b in nb[i + 1 :]]
    return keys


def _add_pendants(rows, s, core, ka, ks, a, w, tees, counts, sums):
    # One set S of a block whose core is smaller than S: its edges outside
    # the core lie in all kappa trees, so each of them, and each cherry of
    # two such edges, gets (ka, ks) = kappa (a, w); a cherry p-m-c with one
    # core edge m-c gets t_mc (a, w).
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
        if tees:
            for _, c, t in tees[m][1]:
                ta, tw = t * a, t * w
                for p in pl:
                    i = nn + (m * n + p) * n + c if p < c else nn + (m * n + c) * n + p
                    counts[i] += ta
                    sums[i] += tw


def _block_dp(
    rows: tuple[int, ...],
    root: int,
    *,
    need: int = 0,
    forest: Sequence[int] = (),
    unit: bool = False,
    local: tuple[dict[int, int], dict[int, int]] | None = None,
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

    With ``need`` 0 every subset of every block is visited, and ``total``
    is the order polynomial of all connected sets of the component: those
    whose top vertex is v are ``down[v]``, the others have a block subset
    missing the block's top.  With ``need`` (holding ``root``) only the
    subsets through each top are visited; a block whose branch holds a
    required vertex has no 1 in its factor, and its subsets must contain
    the vertices leading to the required ones, so ``down[root]`` counts
    the sets containing all of ``need``.

    A subset is weighted by its spanning-tree count, read per core, or by
    the count of those containing the ``forest`` components inside its
    block, or by 1 with ``unit``.  For :func:`census` (``need`` 0, no
    ``unit``) ``full[v]`` is the (count, order sum) of the sets containing
    v, from a second pass top down: the sets through v's parent block are
    split by whether they reach its top p, whose outside factor
    ``full[p] / (1 + T(p))`` is known only then.  Pairs multiply as
    (a, s)(b, t) = (ab, at + bs).

    With ``local``, a pair of dicts (and ``need`` 0, no ``unit``), the
    pass also adds there the count and the order sum of the subtrees
    containing each edge and each cherry of the component, keyed as by
    :func:`_local_keys`.  An edge or a cherry inside a block is split like
    a vertex: its trees in each subset S of the block, times the ``down``
    of S's other vertices, summed over the S missing the top and, times
    the top's outside factor, over the S reaching it.  Its trees in S are
    read off the core of S: an edge outside the core lies in all kappa
    trees, and so does a cherry of two such edges, while a cherry with one
    core edge e lies in the trees through e.  Inside the core they come
    from one adjugate per core (:func:`_core_trees`), and they meet the
    weights of the subsets sharing that core once, summed, in the outside
    pass.  A cherry a-m-b whose edges lie in two blocks at the cut vertex
    m is edge(a-m) edge(m-b) / vertex(m) in the pair algebra, an exact
    division: the sets containing m are independent across m's blocks.

    Returns the component mask, ``down``, ``total`` and ``full``.
    """
    n = len(rows)
    x = [0, 1]
    down = [x] * n
    pairs = [(1, 1)] * n  # the (count, order sum) of each `down`
    heavy = 0  # tops of blocks seen so far: their `down` is not x
    reqd = need  # required vertices, and tops with one below them
    total: list[int] = []
    kappas: dict[int, int] = {}
    # per vertex c, the (count, order sum) of the subsets S of c's parent
    # block that hold c, weighted by `down` of S's other vertices: S
    # missing the block's top, and S reaching it (to be multiplied by the
    # top's outside factor)
    below = [[0] * n, [0] * n]
    through = [[0] * n, [0] * n]
    tops = []
    tables = not need and not unit
    if local is not None:
        # the same split, keyed as by _local_keys, for the edges and
        # cherries outside the cores; per core, (kappa, y, tees) and the
        # summed weights (a, w) of its sets through the top and below it
        lbelow: list[dict[int, int]] = [{}, {}]
        lthrough: list[dict[int, int]] = [{}, {}]
        cores: dict[int, tuple[int, list[list[int]], dict]] = {}
    comp = 1 << root
    for top, block in _blocks(rows, root):
        comp |= block
        tbit = 1 << top
        rest = block & ~tbit
        hv = rest & heavy
        lt = rest & ~heavy
        must = rest & reqd
        fblocks = [m for m in (c & block for c in forest) if m & (m - 1)] if forest else []
        keep = sum(fblocks)
        starts = [(tbit, rest)]
        if not need:
            starts += [(1 << v, rest & ~((2 << v) - 1)) for v in _bits(rest)]
        keyed = hv | tbit
        buckets: dict[int, tuple[list[int], int, int]] = {}
        if local is not None:
            keys = _local_keys(rows, block)
            for acc in (*lbelow, *lthrough):
                acc.update(dict.fromkeys(keys, 0))
            weights: dict[int, list[int]] = {}
        for s in _connected_sets(rows, starts, must):
            if s & (s - 1) == 0:
                continue
            kappa = 1
            if not unit:
                core = _core(rows, s, keep)
                if core & (core - 1):
                    kappa = kappas.get(core)
                    if kappa is None:
                        if local is not None:
                            cores[core] = info = _core_trees(rows, core)
                            kappa = info[0]
                        elif fblocks:
                            kappa = _kappa_contracted(rows, core, fblocks, keep)
                        else:
                            kappa = _det_bareiss(_reduced_laplacian(rows, _bits(core), core))
                        kappas[core] = kappa
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
            if tables:
                sa, ss = through if s & tbit else below
                w = t + j * a  # (a, w): the `down` pair of S but its top
                ka = kappa * a
                ks = kappa * w
                for c in _bits(s & ~tbit):
                    sa[c] += ka
                    ss[c] += ks
                if local is not None:
                    tees = None
                    if core & (core - 1):
                        tees = cores[core][2]
                        wsum = weights.get(core)
                        if wsum is None:
                            wsum = weights[core] = [0, 0, 0, 0]
                        if s & tbit:
                            wsum[0] += a
                            wsum[1] += w
                        else:
                            wsum[2] += a
                            wsum[3] += w
                    if core != s:
                        la, ls = lthrough if s & tbit else lbelow
                        _add_pendants(rows, s, core, ka, ks, a, w, tees, la, ls)
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
        if tables:
            tops.append((top, rest, _pair(factor), (keys, weights) if local is not None else None))
    if need:
        return comp, down, total, []
    _padd(total, [0, (comp & ~heavy).bit_count()])
    for v in _bits(heavy):
        _padd(total, down[v])
    if not tables:
        return comp, down, total, []
    full = pairs[:]
    for top, rest, (fa, ft), inside in reversed(tops):
        pa, ps = full[top]
        ua = pa // fa  # full[top] / factor: the sets at top outside the block
        us = (ps - ft * ua) // fa
        for c in _bits(rest):
            da, ds = pairs[c]
            ta, ts = through[0][c], through[1][c]
            full[c] = (
                da + below[0][c] + ta * ua,
                ds + below[1][c] + ta * us + ts * ua,
            )
        if inside:
            keys, weights = inside
            counts, sums = local
            for i in keys:
                ta, ts = lthrough[0][i], lthrough[1][i]
                counts[i] = lbelow[0][i] + ta * ua
                sums[i] = lbelow[1][i] + ta * us + ts * ua
            for core, (ta, tw, ba, bw) in weights.items():
                kappa, y, tees = cores[core]
                _add_core(n, kappa, y, tees, ba + ta * ua, bw + ta * us + tw * ua, counts, sums)
    if local is not None:
        # cherries across two blocks at a cut vertex m
        counts, sums = local
        nn = n * n
        for m in _bits(comp):
            nb = _bits(rows[m])
            va, vs = full[m]
            for i, u in enumerate(nb):
                e = u * n + m if u < m else m * n + u
                ea, es = counts[e], sums[e]
                base = nn + (m * n + u) * n
                for v in nb[i + 1 :]:
                    if base + v in counts:
                        continue  # u-m-v lies in one block
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
    g: Graph, local: tuple[dict[int, int], dict[int, int]] | None = None
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

    forest = _forest_blocks(constraint)
    need = sum(forest)
    root = min(constraint.vertices)
    comp, down, _, _ = _block_dp(g.rows, root, need=need, forest=forest)
    if need & ~comp:
        return 0, 0  # the required vertices lie in different components
    return _pair(down[root])


@dataclass(frozen=True)
class LocalCensus:
    """Subtrees containing each edge and each cherry of a graph, and its census.

    ``edges[(u, v)]`` is the (count, order sum) of the subtrees containing
    the edge u-v, keyed u < v in ``Graph.edges()`` order.  ``cherries[(a,
    m, b)]`` is the same for the cherry a-m-b (both edges a-m and m-b),
    keyed a < b and ordered by middle vertex m, then a, then b.  Each entry
    equals :func:`census_containing` of that constraint.  ``census`` is
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
    counts: dict[int, int] = {}
    sums: dict[int, int] = {}
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
    _, _, total, _ = _block_dp(g.rows, 0, unit=True)
    sets, size_sum = _pair(total)
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
