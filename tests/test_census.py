"""Census correctness: oracle equivalence, hand counts, exact identities."""

import random
from fractions import Fraction

import pytest

from subtrees import (
    Graph,
    SubtreeConstraint,
    average_connected_set_size,
    barbell,
    census,
    census_by_subtree_enumeration,
    census_containing,
    clique,
    cycle,
    double_broom,
    generate_connected,
    generate_trees,
    mean_subtree_order,
    mean_subtree_order_at_edge,
    mean_subtree_order_at_tree,
    mean_subtree_order_at_vertex,
    modified_barbell,
    modified_double_broom,
    path_graph,
    spanning_fraction,
    spanning_tree_count,
    star_graph,
)
from subtrees.census import _adjugate, _connected_sets, _det_bareiss, _rooted, local_census
from conftest import naive_census_counts, random_connected_graph, random_graph


def test_hand_counted_small_graphs():
    c = census(path_graph(3))
    assert c.counts == (0, 3, 2, 1)
    assert (c.num_subtrees, c.order_sum) == (6, 10)
    assert c.mean == Fraction(5, 3)

    c = census(clique(3))
    assert c.counts == (0, 3, 3, 3)
    assert (c.num_subtrees, c.order_sum) == (9, 18)
    assert c.mean == 2

    c = census(clique(4))
    assert c.counts == (0, 4, 6, 12, 16)
    assert (c.num_subtrees, c.order_sum) == (38, 116)
    assert c.mean == Fraction(58, 19)

    c = census(path_graph(4))
    assert (c.num_subtrees, c.order_sum) == (10, 20)


def test_degenerate_single_vertex():
    c = census(Graph(1, (0,)))
    assert c.counts == (0, 1)
    assert (c.num_subtrees, c.order_sum) == (1, 1)
    assert c.mean == 1
    assert mean_subtree_order(Graph(1, (0,))) == 1


def test_census_matches_naive_edge_subset_count():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 5), rng.choice([0.3, 0.6, 0.9]))
        assert list(census(g).counts) == naive_census_counts(g)
        assert list(census_by_subtree_enumeration(g).counts) == naive_census_counts(g)


def test_oracle_equivalence_exhaustive_small():
    for n in range(1, 6):
        for g in generate_connected(n):
            assert census(g) == census_by_subtree_enumeration(g)


def test_oracle_equivalence_random_order_7_8():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.choice([7, 8])
        g = random_connected_graph(rng, n, rng.choice([0.3, 0.5]))
        assert census(g) == census_by_subtree_enumeration(g)


def test_oracle_cap():
    with pytest.raises(ValueError):
        census_by_subtree_enumeration(path_graph(9))


def test_census_of_disconnected_graph():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    c = census(g)
    assert list(c.counts) == naive_census_counts(g)
    assert c.counts[5] == 0
    with pytest.raises(ValueError):
        mean_subtree_order(g)
    with pytest.raises(ValueError):
        average_connected_set_size(g)
    with pytest.raises(ValueError):
        spanning_fraction(g)


def test_spanning_tree_count_formulas():
    for n in range(1, 8):
        assert spanning_tree_count(clique(n)) == (n ** (n - 2) if n >= 2 else 1)
    assert spanning_tree_count(cycle(4)) == 4
    assert spanning_tree_count(clique(4).delete_edge(0, 1)) == 8
    assert spanning_tree_count(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0



def test_census_containing_hand_values():
    p3 = path_graph(3)
    assert census_containing(p3, SubtreeConstraint(frozenset([1]))) == (4, 8)
    k3 = clique(3)
    nc, rc = census_containing(k3, SubtreeConstraint(frozenset([0, 1]), frozenset([(0, 1)])))
    assert (nc, rc) == (3, 8)
    assert mean_subtree_order_at_edge(k3, (0, 1)) == Fraction(8, 3)
    # whole tree as constraint: only the tree itself
    t = path_graph(5)
    full = SubtreeConstraint(
        frozenset(range(5)), frozenset((i, i + 1) for i in range(4))
    )
    assert census_containing(t, full) == (1, 5)
    # empty constraint reproduces the census totals
    c = census(k3)
    assert census_containing(k3, SubtreeConstraint()) == (c.num_subtrees, c.order_sum)


def test_census_containing_brute_force():
    # check against filtering the enumerated subtrees directly
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 6), 0.55)
        edges = list(g.edges())
        u, v = edges[rng.randrange(len(edges))]
        for constraint in (
            SubtreeConstraint(frozenset([u])),
            SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)])),
            SubtreeConstraint(frozenset([u, v])),
        ):
            nc, rc = census_containing(g, constraint)
            bn, br = brute_containing(g, constraint)
            assert (nc, rc) == (bn, br), (g, constraint)


def brute_containing(g: Graph, constraint: SubtreeConstraint) -> tuple[int, int]:
    from itertools import combinations

    edges = list(g.edges())
    need_v = set(constraint.vertices)
    need_e = set(constraint.edges)
    count = 0
    order = 0
    for v in range(g.n):  # singleton subtrees
        if need_e or need_v - {v}:
            continue
        count += 1
        order += 1
    for r in range(1, len(edges) + 1):
        for sub in combinations(edges, r):
            verts = set()
            for a, b in sub:
                verts.update((a, b))
            if len(verts) != r + 1:
                continue
            parent = {w: w for w in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for a, b in sub:
                ra, rb = find(a), find(b)
                if ra == rb:
                    acyclic = False
                    break
                parent[ra] = rb
            if acyclic and need_v <= verts and need_e <= set(sub):
                count += 1
                order += len(verts)
    return count, order


def test_census_containing_two_component_forest():
    # one edge plus a vertex at distance >= 2 from it: the walk starts from
    # a seed that is neither connected nor adjacent, in graphs with cut
    # vertices
    rng = random.Random(37)
    tried = 0
    while tried < 30:
        g = random_connected_graph(rng, rng.randint(5, 7), 0.4)
        if not any(g.is_cut_vertex(v) for v in range(g.n)):
            continue
        for u, v in g.edges():
            near = g.rows[u] | g.rows[v] | (1 << u) | (1 << v)
            far = [w for w in range(g.n) if not (near >> w) & 1]
            if far:
                break
        else:
            continue
        tried += 1
        w = far[rng.randrange(len(far))]
        constraint = SubtreeConstraint(frozenset([u, v, w]), frozenset([(u, v)]))
        assert census_containing(g, constraint) == brute_containing(g, constraint), (g, u, v, w)


def test_constraint_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        census_containing(g, SubtreeConstraint(frozenset([0, 2]), frozenset([(0, 2)])))
    with pytest.raises(ValueError):
        census_containing(g, SubtreeConstraint(frozenset([9])))
    with pytest.raises(ValueError):
        SubtreeConstraint(frozenset([0]), frozenset([(0, 0)]))
    with pytest.raises(ValueError):
        SubtreeConstraint(frozenset([0]), frozenset([(0, 1)]))
    # cyclic constraint never constructs
    with pytest.raises(ValueError):
        SubtreeConstraint(
            frozenset([0, 1, 2]), frozenset([(0, 1), (1, 2), (0, 2)])
        )
    with pytest.raises(ValueError):
        mean_subtree_order_at_tree(g, SubtreeConstraint(frozenset([0, 2])))
    with pytest.raises(ValueError, match="negative"):
        SubtreeConstraint(frozenset([-1]))


def test_mean_subtree_order_path_formula():
    for n in range(2, 21):
        assert mean_subtree_order(path_graph(n)) == Fraction(n + 2, 3)


def test_mean_at_vertex_matches_census_attribution():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
        c = census(g)
        for v in range(g.n):
            assert c.mean_at_vertex(v) == mean_subtree_order_at_vertex(g, v)


def test_handshake_identities():
    rng = random.Random(43)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
        c = census(g)
        # each subtree of order k is counted at k vertices
        assert sum(c.vertex_counts) == c.order_sum
        assert sum(c.vertex_order_sums) == sum(
            k * k * c.counts[k] for k in range(1, g.n + 1)
        )
        # each subtree of order k contains k-1 edges
        edge_total = 0
        for u, v in g.edges():
            nc, _ = census_containing(
                g, SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)]))
            )
            edge_total += nc
        assert edge_total == c.order_sum - c.num_subtrees


def test_deletion_identity():
    rng = random.Random(47)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
        c = census(g)
        for v in range(g.n):
            rest = [w for w in range(g.n) if w != v]
            sub_edges = [
                (rest.index(a), rest.index(b))
                for a, b in g.edges()
                if a != v and b != v
            ]
            deleted = Graph.from_edges(g.n - 1, sub_edges) if g.n > 1 else None
            cd = census(deleted)
            assert c.vertex_counts[v] == c.num_subtrees - cd.num_subtrees
            assert c.vertex_order_sums[v] == c.order_sum - cd.order_sum


def test_constraint_monotonicity():
    rng = random.Random(53)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7), 0.5)
        edges = list(g.edges())
        u, v = edges[rng.randrange(len(edges))]
        small = SubtreeConstraint(frozenset([u]))
        large = SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)]))
        ns, _ = census_containing(g, small)
        nl, _ = census_containing(g, large)
        assert nl <= ns


def test_average_connected_set_size_values():
    assert average_connected_set_size(clique(2)) == Fraction(4, 3)
    # K_4: 4 singletons + 6 pairs + 4 triples + 1 quadruple; sizes sum to 32
    assert average_connected_set_size(clique(4)) == Fraction(32, 15)
    for n in range(1, 10):
        t_counts = 0
        for t in generate_trees(n):
            assert average_connected_set_size(t) == mean_subtree_order(t)
            t_counts += 1
        assert t_counts >= 1


def _connected_masks(g: Graph) -> list[int]:
    # every non-empty vertex set, kept when it induces a connected graph
    return [
        m
        for m in range(1, 1 << g.n)
        if g.component_mask((m & -m).bit_length() - 1, m) == m
    ]


def test_connected_sets_yield_each_connected_set_once():
    for n in range(1, 7):
        for g in generate_connected(n):
            sets = list(_connected_sets(g.rows, _rooted(n)))
            assert len(sets) == len(set(sets))
            assert sorted(sets) == _connected_masks(g)


def test_connected_sets_from_a_disconnected_seed():
    # every superset whose components each meet the seed, once
    for n in range(3, 6):
        for g in generate_connected(n):
            full = (1 << n) - 1
            for a in range(n):
                for b in range(a + 1, n):
                    if g.has_edge(a, b):
                        continue
                    seed = (1 << a) | (1 << b)
                    sets = list(_connected_sets(g.rows, [(seed, full)]))
                    expect = [
                        m
                        for m in range(1, 1 << n)
                        if m & seed == seed
                        and g.component_mask(a, m) | g.component_mask(b, m) == m
                    ]
                    assert len(sets) == len(set(sets))
                    assert sorted(sets) == expect


def test_average_connected_set_size_brute_force():
    for n in range(1, 7):
        for g in generate_connected(n):
            masks = _connected_masks(g)
            expect = Fraction(sum(m.bit_count() for m in masks), len(masks))
            assert average_connected_set_size(g) == expect


def test_spanning_fraction_values():
    assert spanning_fraction(clique(3)) == Fraction(1, 3)
    for n in range(2, 9):
        assert spanning_fraction(star_graph(n)) == Fraction(1, (1 << (n - 1)) + n - 1)


# -- the local census: every edge and cherry from one pass -------------------


def _assert_local_census_matches_oracle(g: Graph) -> None:
    local = local_census(g)
    assert list(local.edges) == list(g.edges())
    for (u, v), totals in local.edges.items():
        edge = SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)]))
        assert totals == census_containing(g, edge), (g, u, v)
    cherries = [
        (a, m, b)
        for m in range(g.n)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if g.has_edge(a, m) and g.has_edge(m, b)
    ]
    assert list(local.cherries) == cherries
    for (a, m, b), totals in local.cherries.items():
        cherry = SubtreeConstraint(frozenset([a, m, b]), frozenset([(a, m), (m, b)]))
        assert totals == census_containing(g, cherry), (g, a, m, b)


def test_local_census_matches_census_containing_exhaustive_small():
    for n in range(1, 7):
        for g in generate_connected(n):
            _assert_local_census_matches_oracle(g)


def test_local_census_matches_census_containing_order_8_sample():
    rng = random.Random(61)
    for p in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        _assert_local_census_matches_oracle(random_connected_graph(rng, 8, p))


def test_local_census_matches_census_containing_cut_vertices_and_bridges():
    for g in (
        barbell(8, 3),
        double_broom(8, 3),
        modified_barbell(9, 3, 1),
        modified_double_broom(9, 3, 1),
    ):
        _assert_local_census_matches_oracle(g)


def test_adjugate_of_reduced_laplacians():
    rng = random.Random(67)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.6, 0.9]))
        size = g.n - 1
        lap = [
            [g.degree(i) if i == j else -int(g.has_edge(i, j)) for j in range(1, g.n)]
            for i in range(1, g.n)
        ]
        kappa, adj = _adjugate(lap)
        assert kappa == _det_bareiss([row[:] for row in lap]) == spanning_tree_count(g)
        product = [
            [sum(lap[i][t] * adj[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)
        ]
        assert product == [[kappa * (i == j) for j in range(size)] for i in range(size)]

