"""Canonical certificates and exhaustive generation."""

import itertools
import random

import pytest

from subtrees import (
    Graph,
    are_isomorphic,
    canonical_form,
    canonical_labelling,
    clique,
    cycle,
    generate_connected,
    generate_trees,
    path_graph,
    star_graph,
)
from conftest import random_graph

ALL_PAIRS_4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def brute_force_certificate(g: Graph) -> tuple:
    """Minimal adjacency encoding over all n! labellings (tiny n only)."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        code = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for i in range(g.n)
            for j in range(i + 1, g.n)
        )
        if best is None or code < best:
            best = code
    return best


def test_invariance_under_relabelling():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_certificate_matches_brute_force_partition():
    # same equivalence classes as full factorial canonicalisation, n <= 4
    # exhaustively, plus random order-5 graphs
    for n in (3, 4):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        cert_to_brute = {}
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            key = canonical_form(g)
            brute = brute_force_certificate(g)
            assert cert_to_brute.setdefault(key, brute) == brute
    rng = random.Random(5)
    cert_to_brute = {}
    for _ in range(200):
        g = random_graph(rng, 5, rng.choice([0.3, 0.5, 0.7]))
        assert cert_to_brute.setdefault(canonical_form(g), brute_force_certificate(g)) == \
            brute_force_certificate(g)


def test_invariance_on_symmetric_structured_graphs():
    # graphs with fat automorphism groups exercise the orbit-pruning branch
    from subtrees import barbell, complete_bipartite, double_broom, petersen

    rng = random.Random(13)
    for g in (
        barbell(12, 5),
        barbell(14, 6),
        double_broom(14, 5),
        complete_bipartite(4, 4),
        complete_bipartite(3, 5),
        petersen(),
        clique(9),
        cycle(16),
        star_graph(16),
    ):
        reference = canonical_form(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == reference


def test_labelled_graphs_on_4_vertices_fall_into_11_classes():
    certs = set()
    for bits in range(64):
        edges = [ALL_PAIRS_4[i] for i in range(6) if (bits >> i) & 1]
        certs.add(canonical_form(Graph.from_edges(4, edges)))
    assert len(certs) == 11


def test_distinguishes_small_graphs():
    assert canonical_form(clique(3)) != canonical_form(path_graph(3))
    assert canonical_form(path_graph(3).relabel([1, 0, 2])) == canonical_form(path_graph(3))
    assert canonical_form(cycle(6)) != canonical_form(clique(3))


def test_canonical_labelling_achieves_certificate():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        order = canonical_labelling(g)
        relabelled = g.relabel(order)
        assert canonical_form(relabelled) == canonical_form(g)


def test_canonical_form_rejects_large():
    with pytest.raises(ValueError):
        canonical_form(Graph(33, tuple([0] * 33)))


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_generate_connected_counts():
    for n, expect in CONNECTED_COUNTS.items():
        assert sum(1 for _ in generate_connected(n)) == expect


def test_generate_connected_counts_match_labelled_brute_force():
    # recompute the class count over all labelled graphs for n <= 5
    for n in (3, 4, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        certs = set()
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1])
            if g.is_connected():
                certs.add(canonical_form(g))
        assert len(certs) == CONNECTED_COUNTS[n]


def test_generate_connected_yields_distinct_connected_representatives():
    for n in (4, 5, 6):
        graphs = list(generate_connected(n))
        assert all(g.is_connected() for g in graphs)
        certs = [canonical_form(g) for g in graphs]
        assert len(set(certs)) == len(certs)


def test_generate_connected_deterministic_order():
    first = [canonical_form(g) for g in generate_connected(6)]
    second = [canonical_form(g) for g in generate_connected(6)]
    assert first == second


def test_generate_connected_caps_at_8():
    with pytest.raises(ValueError):
        list(generate_connected(9))


TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def test_generate_trees_counts():
    for n, expect in TREE_COUNTS.items():
        trees = list(generate_trees(n))
        assert len(trees) == expect
        assert all(t.is_tree() for t in trees)


def test_symmetric_family_certificates():
    assert are_isomorphic(star_graph(5).relabel([4, 3, 2, 1, 0]), star_graph(5))
    assert not are_isomorphic(star_graph(5), path_graph(5))
