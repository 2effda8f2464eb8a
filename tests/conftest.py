"""Shared oracles for the test suite.

``naive_census_counts`` is a third, maximally dumb counting route (iterate
every edge subset, keep the trees) used to cross-check both the production
census and the package's own enumeration oracle on tiny graphs.
"""

from itertools import combinations, permutations

from subtrees import Graph


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
