"""Canonical certificates and exhaustive generation of small graphs.

The certificate is the lexicographically minimal row-major upper-triangle
adjacency bitstring over the labellings explored by an
individualisation-refinement search.  Equitable refinement keeps the
ordered partition isomorphism-invariant, so equal certificates are
equivalent to isomorphism.  Twin swaps and the automorphisms discovered
at equal-code leaves prune sibling branches, which keeps highly symmetric
inputs (cliques, barbells) tractable.  :func:`certify` returns them with
the certificate, and :func:`_orbit_reps`, the one orbit routine, groups
vertices in the search and edges, non-edges or matchings for the checks.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph

MAX_CANON = 32


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _refine(rows: tuple[int, ...], cells: list[list[int]], queue: list[int]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    ``queue`` holds splitter masks still to process (FIFO).  Fragments are
    ordered by ascending neighbour count, which depends only on the
    partition structure, never on labels.
    """
    while queue:
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


def _image(sigma: tuple[int, ...], item):
    """``item`` moved by the vertex permutation ``sigma``, in normal form.

    An item is an edge ``(u, v)`` with ``u < v``, or a matching: a sorted
    tuple of such edges.  Items are their own keys, so a list of them needs
    no second copy to be indexed.
    """
    if item and isinstance(item[0], int):
        u, v = sigma[item[0]], sigma[item[1]]
        return (u, v) if u < v else (v, u)
    return tuple(
        sorted([(sigma[u], sigma[v]) if sigma[u] < sigma[v] else (sigma[v], sigma[u]) for u, v in item])
    )


def _orbit_reps(n: int, gens: list[tuple[int, ...]], items: list | None = None) -> list[int]:
    """Union-find orbits under the group generated by ``gens``.

    ``gens`` are permutations of the ``n`` vertices.  The orbits are of the
    vertices, or of ``items`` (edges or matchings, see :func:`_image`), a
    list that each generator maps onto itself.  Returns, per vertex or
    item, the index of its orbit's root.  A transposition whose two
    vertices the transpositions applied before it already join lies in the
    group those generate, so it is skipped: a spanning forest of the twin
    swaps gives the same orbits as all of them.
    """
    identity = tuple(range(n))
    if items is None:
        parent = list(identity)
    else:
        parent = list(range(len(items)))
        index = {item: i for i, item in enumerate(items)}
    twins = list(identity)
    for sigma in gens:
        moved = [v for v in identity if sigma[v] != v]
        if len(moved) == 2:
            a, b = _find(twins, moved[0]), _find(twins, moved[1])
            if a == b:
                continue
            twins[a] = b
        images = sigma if items is None else [index[_image(sigma, item)] for item in items]
        for i, j in enumerate(images):
            a, b = _find(parent, i), _find(parent, j)
            if a != b:
                parent[a] = b
    return [_find(parent, i) for i in range(len(parent))]


def _canonical_search(rows: tuple[int, ...], n: int):
    best: list = [None, None]  # [code, order]
    # seed with twin swaps: they collapse fat cells (leaf bundles, clique
    # cells) without waiting for the leaf-comparison harvest below
    gens: list[tuple[int, ...]] = []
    for u in range(n):
        for v in range(u + 1, n):
            # swapping u and v is an automorphism iff their rows agree off the pair
            keep = ~((1 << u) | (1 << v))
            if rows[u] & keep == rows[v] & keep:
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
            child = _refine(rows, child, [1 << v, _mask_of(rest)])
            rec(child, prefix + (v,))
            tried.append(v)

    initial = _refine(rows, [list(range(n))], [(1 << n) - 1])
    rec(initial, ())
    return best[0], best[1], gens


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
    code, _, gens = _canonical_search(g.rows, n)
    width = (n * (n - 1) // 2 + 7) // 8
    return bytes([n]) + code.to_bytes(width, "big"), gens


def canonical_form(g: Graph) -> bytes:
    """Labelling-invariant certificate; equal bytes iff isomorphic graphs."""
    return certify(g)[0]


def canonical_labelling(g: Graph) -> list[int]:
    """A labelling achieving the canonical certificate (position -> vertex)."""
    if g.n > MAX_CANON:
        raise ValueError(f"canonical_labelling supports at most {MAX_CANON} vertices")
    _, order, _ = _canonical_search(g.rows, g.n)
    return order


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_form(g) == canonical_form(h)


# -- exhaustive generation ---------------------------------------------------

MAX_GENERATE = 8

_connected_cache: dict[int, list[Graph]] = {}
_tree_cache: dict[int, list[Graph]] = {}


def _augment(parents: list[Graph], n: int, masks: Iterator[int]) -> list[Graph]:
    seen: dict[bytes, Graph] = {}
    mask_list = list(masks)
    for parent in parents:
        rows = parent.rows
        for mask in mask_list:
            new_rows = list(rows) + [mask]
            m = mask
            while m:
                b = m & -m
                m ^= b
                new_rows[b.bit_length() - 1] |= 1 << (n - 1)
            child = Graph(n, tuple(new_rows))
            cert = canonical_form(child)
            if cert not in seen:
                seen[cert] = child
    return list(seen.values())


def generate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs of order n.

    Built by vertex augmentation from order n-1 with certificate
    deduplication; deterministic order.  The built-in generator stops at
    n = 8; larger orders must be supplied externally as graph6 streams.
    """
    if not 1 <= n <= MAX_GENERATE:
        raise ValueError(f"built-in generation supports 1 <= n <= {MAX_GENERATE}")
    if n not in _connected_cache:
        if n == 1:
            _connected_cache[1] = [Graph(1, (0,))]
        else:
            parents = list(generate_connected(n - 1))
            # attaching the new vertex to a nonempty set keeps the graph connected
            _connected_cache[n] = _augment(parents, n, iter(range(1, 1 << (n - 1))))
    yield from _connected_cache[n]


def generate_trees(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of trees of order n (n <= 16)."""
    if not 1 <= n <= 16:
        raise ValueError("tree generation supports 1 <= n <= 16")
    if n not in _tree_cache:
        if n == 1:
            _tree_cache[1] = [Graph(1, (0,))]
        else:
            parents = list(generate_trees(n - 1))
            _tree_cache[n] = _augment(parents, n, (1 << v for v in range(n - 1)))
    yield from _tree_cache[n]
