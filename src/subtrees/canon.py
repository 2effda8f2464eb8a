"""Canonical certificates and exhaustive generation of small graphs.

The certificate is the lexicographically minimal row-major upper-triangle
adjacency bitstring over the labellings explored by an
individualisation-refinement search.  Equitable refinement keeps the
ordered partition isomorphism-invariant, so equal certificates are
equivalent to isomorphism.  Automorphisms discovered at equal-code leaves
prune sibling branches, which keeps highly symmetric inputs (cliques,
barbells) tractable.
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


def _orbit_reps(n: int, gens: list[tuple[int, ...]], prefix: tuple[int, ...]) -> list[int]:
    # Union-find over vertices under the generators that fix `prefix` pointwise.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        if any(g[p] != p for p in prefix):
            continue
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[a] = b
    return [find(v) for v in range(n)]


def _twin_pairs(rows: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    # swapping u and v is an automorphism iff their rows agree off the pair
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            keep = ~((1 << u) | (1 << v))
            if rows[u] & keep == rows[v] & keep:
                pairs.append((u, v))
    return pairs


def _canonical_search(rows: tuple[int, ...], n: int):
    best: list = [None, None]  # [code, order]
    # seed with twin swaps: they collapse fat cells (leaf bundles, clique
    # cells) without waiting for the leaf-comparison harvest below
    gens: list[tuple[int, ...]] = []
    for u, v in _twin_pairs(rows, n):
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
        for v in target:
            if tried:
                reps = _orbit_reps(n, gens, prefix)
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


def canonical_form(g: Graph) -> bytes:
    """Labelling-invariant certificate; equal bytes iff isomorphic graphs."""
    if g.n > MAX_CANON:
        raise ValueError(f"canonical_form supports at most {MAX_CANON} vertices")
    n = g.n
    code, _, _ = _canonical_search(g.rows, n)
    width = (n * (n - 1) // 2 + 7) // 8
    return bytes([n]) + code.to_bytes(width, "big")


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


def transposition_automorphisms(g: Graph) -> list[tuple[int, int]]:
    """All vertex transpositions that are automorphisms (twin swaps).

    Cheap but sound generators: useful for collapsing orbits before the
    full canonical machinery runs.
    """
    return _twin_pairs(g.rows, g.n)


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
