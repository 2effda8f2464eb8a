"""Shared oracles for the test suite.

``naive_census_counts`` is a third, maximally dumb counting route (iterate
every edge subset, keep the trees) used to cross-check both the production
census and the package's own enumeration oracle on tiny graphs.
``walk_census`` and ``walk_census_containing`` count by walking every
connected set of the whole graph, one set at a time: the oracle of the
block DP behind ``census`` and ``census_containing``.
"""

from itertools import combinations, permutations

from subtrees import Graph, SubtreeCensus, SubtreeConstraint
from subtrees.census import (
    _bits,
    _connected_sets,
    _core,
    _det_bareiss,
    _forest_blocks,
    _kappa_contracted,
    _reduced_laplacian,
)


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
            kappa = kappas[core] = _det_bareiss(_reduced_laplacian(rows, _bits(core), core))
        counts[k] += kappa
        for v in verts:
            vertex_counts[v] += kappa
            vertex_order_sums[v] += k * kappa
    num = sum(counts)
    total = sum(k * c for k, c in enumerate(counts))
    return SubtreeCensus(
        tuple(counts), num, total, tuple(vertex_counts), tuple(vertex_order_sums)
    )


def walk_census_containing(g: Graph, constraint: SubtreeConstraint) -> tuple[int, int]:
    """``census_containing`` by the per-set walk: grow every set from the
    required vertices, drop the disconnected ones, and count the spanning
    trees containing the required forest with the forest contracted."""
    constraint.validate_for(g)
    if constraint.empty:
        c = walk_census(g)
        return c.num_subtrees, c.order_sum
    rows = g.rows
    req_blocks = _forest_blocks(constraint)
    req_mask = sum(req_blocks)
    count = 0
    order_sum = 0
    for subset in _connected_sets(rows, [(req_mask, (1 << g.n) - 1)]):
        low = subset & -subset
        if g.component_mask(low.bit_length() - 1, subset) != subset:
            continue
        kappa = _kappa_contracted(rows, _core(rows, subset, req_mask), req_blocks, req_mask)
        count += kappa
        order_sum += subset.bit_count() * kappa
    return count, order_sum
