"""Census correctness: oracle equivalence, hand counts, exact identities."""

import functools
import random
import sys
import time
from collections import defaultdict
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from subtrees import (
    Graph,
    average_connected_set_size,
    barbell,
    census,
    census_containing,
    clique,
    cycle,
    double_broom,
    generate_connected,
    mean_subtree_order,
    mean_subtree_order_at_tree,
    modified_barbell,
    modified_double_broom,
    path_graph,
    spanning_fraction,
    spanning_tree_count,
    star_graph,
)
import subtrees.canon as canon
from subtrees.canon import _children, _orbit_reps, canonical_form, certify
from subtrees.census import (
    _adjugate,
    _bits,
    _blocks,
    _census,
    _connected_sets,
    _core,
    _det_bareiss,
    _kappa,
    _packed,
    _reduced_laplacian,
    _shape_key,
    census_from_parent,
    local_census,
    subset_kappas,
)
from subtrees.graphs import from_graph6, maximal_matchings_of_complement
from conftest import (
    _kappa_contracted,
    _rooted,
    census_by_subtree_enumeration,
    exact_det,
    filled_and_evicting,
    fresh_cache,
    generated,
    grounded_laplacian,
    naive_census_counts,
    random_connected_graph,
    random_graph,
    renumbered_shape,
    walk_census,
    walk_census_containing,
)


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
    for n, order in generated(1, 5):
        for g in order:
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


def test_spanning_tree_count_of_disconnected_graphs_is_0():
    # a grounded Laplacian is positive semidefinite, so a zero pivot ends
    # the elimination with 0; an isolated vertex 1 gives one at once
    assert spanning_tree_count(Graph.from_edges(3, [(0, 2)])) == 0
    rng = random.Random(71)
    tried = 0
    while tried < 200:
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.4, 0.6]))
        if g.is_connected():
            continue
        tried += 1
        assert spanning_tree_count(g) == 0, g



def test_census_containing_hand_values():
    p3 = path_graph(3)
    assert census_containing(p3, [1]) == (4, 8)
    k3 = clique(3)
    assert census_containing(k3, (0, 1)) == (3, 8)
    assert mean_subtree_order_at_tree(k3, (0, 1)) == Fraction(8, 3)
    # the whole tree anchored: only the tree itself
    assert census_containing(path_graph(5), range(5)) == (1, 5)
    # any iterable of the vertices, repeats and order aside
    assert census_containing(k3, iter([1, 0, 1])) == (3, 8)


def test_census_containing_brute_force():
    # check against filtering the enumerated subtrees directly
    rng = random.Random(31)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(3, 6), 0.55)
        edges = list(g.edges())
        u, v = edges[rng.randrange(len(edges))]
        for vertices, tree in (([u], []), ([u, v], [(u, v)])):
            assert census_containing(g, vertices) == brute_containing(g, vertices, tree), (
                g,
                vertices,
            )


@functools.lru_cache(maxsize=1)
def _subtrees(g: Graph) -> list[tuple[set, set]]:
    # every subtree of g as (vertices, edges): the singletons, then every
    # acyclic edge set that touches one more vertex than it has edges
    out = [({v}, set()) for v in range(g.n)]
    edges = list(g.edges())
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
            if acyclic:
                out.append((verts, set(sub)))
    return out


def brute_containing(g: Graph, vertices, edges) -> tuple[int, int]:
    """Count and order sum of the subtrees of g holding the ``vertices``
    and the ``edges``, by filtering every subtree, listed as an edge set."""
    need_v = set(vertices)
    need_e = {(min(e), max(e)) for e in edges}
    orders = [len(verts) for verts, sub in _subtrees(g) if need_v <= verts and need_e <= sub]
    return len(orders), sum(orders)


def _spanning_trees(g: Graph, vertices: set) -> list[list[tuple[int, int]]]:
    # every spanning tree of G[vertices] as an edge list: the sets of
    # |V| - 1 induced edges that join V
    inner = [(u, v) for u, v in g.edges() if u in vertices and v in vertices]
    index = {v: i for i, v in enumerate(sorted(vertices))}
    return [
        list(tree)
        for tree in combinations(inner, len(vertices) - 1)
        if Graph.from_edges(len(vertices), [(index[u], index[v]) for u, v in tree]).is_tree()
    ]


def test_census_containing_is_the_same_for_every_spanning_tree_of_the_set():
    # the premise of anchoring by vertices alone: when G[V] has a chord,
    # every one of its spanning trees lies in as many subtrees, with the
    # same order sum (Chaiken's all-minors matrix-tree theorem)
    rng = random.Random(109)
    graphs = triangles = 0
    while graphs < 40:
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        piece = _grown_piece(rng, g.rows, (1 << g.n) - 1, rng.randrange(g.n), rng.randint(3, 4))
        vertices = set(_bits(piece))
        trees = _spanning_trees(g, vertices)
        if len(vertices) < 3 or len(trees) < 2:
            continue  # no chord
        graphs += 1
        want = census_containing(g, vertices)
        for tree in trees:
            assert brute_containing(g, vertices, tree) == want, (g, vertices, tree)
        # the three cherries of a triangle are its three spanning trees
        cherries = local_census(g).cherries
        for a, b, c in combinations(range(g.n), 3):
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
                triangles += 1
                assert cherries[(b, a, c)] == cherries[(a, b, c)] == cherries[(a, c, b)], (g, a, b, c)
    assert triangles > 40


def test_constraint_validation():
    g = path_graph(4)
    cases = [
        ([0, 2], "induce no connected subgraph"),  # a non-edge
        ([0, 1, 3], "induce no connected subgraph"),
        ([9], "vertex 9 outside 0..3"),
        ([9, 0], "vertex 9 outside 0..3"),
        ([-1], "vertex -1 outside 0..3"),
        ([], "non-empty"),
    ]
    for vertices, message in cases:
        with pytest.raises(ValueError, match=message):
            census_containing(g, vertices)
        with pytest.raises(ValueError, match=message):
            mean_subtree_order_at_tree(g, vertices)


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ([], [(0, 1)]),  # empty
        ([0, 2], [(0, 1), (1, 2)]),  # two vertices, no edge
        ([0, 1, 2, 3], [(0, 1), (2, 3), (1, 4), (3, 4)]),  # inducing a two-edge forest
        ([0, 1, 5], [(0, 1), (1, 2), (0, 2)]),  # a vertex outside the graph
        ([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (0, 4), (3, 4)]),  # a triangle and a vertex
    ],
)
def test_constraint_must_be_a_non_empty_tree(vertices, edges):
    # the anchored vertices must be those of a tree of the graph with
    # these edges: non-empty, in it, and inducing a connected subgraph
    with pytest.raises(ValueError, match="non-empty|outside|connected"):
        census_containing(Graph.from_edges(5, edges), vertices)


def test_mean_subtree_order_path_formula():
    for n in range(2, 21):
        assert mean_subtree_order(path_graph(n)) == Fraction(n + 2, 3)


def test_mean_at_vertex_matches_census_attribution():
    rng = random.Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), 0.5)
        c = census(g)
        for v in range(g.n):
            assert c.mean_at_vertex(v) == mean_subtree_order_at_tree(g, [v])


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
            nc, _ = census_containing(g, (u, v))
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
        ns, _ = census_containing(g, [u])
        nl, _ = census_containing(g, [u, v])
        assert nl <= ns


def test_average_connected_set_size_values():
    assert average_connected_set_size(clique(2)) == Fraction(4, 3)
    # K_4: 4 singletons + 6 pairs + 4 triples + 1 quadruple; sizes sum to 32
    assert average_connected_set_size(clique(4)) == Fraction(32, 15)
    for n, order in generated(1, 9, leaves=True):
        t_counts = 0
        for t in order:
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
    for n, order in generated(1, 6):
        for g in order:
            sets = list(_connected_sets(g.rows, _rooted(n)))
            assert len(sets) == len(set(sets))
            assert sorted(sets) == _connected_masks(g)


def test_average_connected_set_size_brute_force():
    for n, order in generated(1, 6):
        for g in order:
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
        assert totals == census_containing(g, (u, v)), (g, u, v)
    cherries = [
        (a, m, b)
        for m in range(g.n)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if g.has_edge(a, m) and g.has_edge(m, b)
    ]
    assert list(local.cherries) == cherries
    for (a, m, b), totals in local.cherries.items():
        assert totals == census_containing(g, (a, m, b)), (g, a, m, b)


def test_local_census_matches_census_containing_exhaustive_small():
    for n, order in generated(1, 6):
        for g in order:
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


def _local_indices(g: Graph) -> set[int]:
    # edge u-v (u < v) at u*n+v, cherry a-m-b (a < b) at n*n + (m*n+a)*n+b
    n = g.n
    keys = {u * n + v for u, v in g.edges()}
    for m in range(n):
        keys |= {n * n + (m * n + a) * n + b for a, b in combinations(_bits(g.rows[m]), 2)}
    return keys


class _ReadsAsZero(dict):
    """A table whose missing keys read as 0 without being stored."""

    def __missing__(self, key):
        return 0


def test_local_tables_hold_exactly_the_edge_and_cherry_indices():
    # an index enters the tables only when it is added to: in a
    # defaultdict a key created by a read would show as a stray index,
    # and in a table that stores no read, an index never added to (a set
    # never reached) as a missing one
    graphs = [g for _, order in generated(1, 6) for g in order]
    graphs += [
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # vertex 4 isolated
        modified_double_broom(9, 3, 1),
        barbell(8, 3),
    ]
    for g in graphs:
        for table in (functools.partial(defaultdict, int), _ReadsAsZero):
            counts, sums = table(), table()
            _census(g, (counts, sums))
            assert set(counts) == set(sums) == _local_indices(g), (g, table)


def test_packed_takes_the_narrowest_unsigned_array_else_a_tuple():
    # C unsigned short, int and long long: 2, 4 and 8 bytes
    for values, code in [([0, 7, 65535], "H"), ([1, 65536], "I"), ([2**32, 5, 2**64 - 1], "Q")]:
        packed = _packed(values)
        assert (packed.typecode, list(packed)) == (code, values)
    assert _packed([3, 2**64]) == (3, 2**64)


def test_local_census_of_a_clique_with_counts_past_32_bits():
    # the edges of K12 lie in 2 * 12^10 / 12 > 2^32 of its spanning trees
    g = clique(12)
    local = local_census(g)
    assert set(local.edges.values()) == {census_containing(g, (0, 1))}
    assert set(local.cherries.values()) == {census_containing(g, (0, 1, 2))}


def test_adjugate_of_reduced_laplacians():
    rng = random.Random(67)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.6, 0.9]))
        size = g.n - 1
        full = (1 << g.n) - 1
        lap = grounded_laplacian(g.rows, full, 1)
        kappa, adj = _adjugate(_reduced_laplacian(g.rows, full, 1))
        assert kappa == exact_det(lap) == spanning_tree_count(g)
        product = [
            [sum(lap[i][t] * adj[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)
        ]
        assert product == [[kappa * (i == j) for j in range(size)] for i in range(size)]


# -- spanning-tree counts read per 2-core ------------------------------------


def _cored_graph(rng) -> Graph:
    # a cycle or a clique with pendant trees hung on it, randomly labelled
    k = rng.randint(3, 5)
    n = rng.randint(k + 1, 8)
    if rng.random() < 0.5:
        edges = [(i, (i + 1) % k) for i in range(k)]
    else:
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(rng.randrange(v), v) for v in range(k, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _grown_tree(rng, g: Graph, root: int, size: int) -> tuple[set, set]:
    # a random subtree of g on up to `size` edges, grown from `root`
    verts, edges = {root}, set()
    for _ in range(size):
        frontier = [(a, b) for a, b in g.edges() if (a in verts) != (b in verts)]
        if not frontier:
            break
        a, b = rng.choice(frontier)
        verts |= {a, b}
        edges.add((a, b))
    return verts, edges


def _grown_piece(rng, rows, s: int, root: int, size: int) -> int:
    # a random connected vertex set of G[s] on up to `size` vertices
    piece = 1 << root
    for _ in range(size - 1):
        frontier = [v for v in _bits(s & ~piece) if rows[v] & piece]
        if not frontier:
            break
        piece |= 1 << rng.choice(frontier)
    return piece


def test_grounded_laplacian_matches_the_contracted_quotient():
    # the trees of G[S] containing a tree on a connected piece: the
    # Laplacian grounded at the piece, against the contracted quotient
    # built as a matrix of its own
    rng = random.Random(73)
    for _ in range(300):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.8]))
        rows = g.rows
        s = rng.choice([m for m in _connected_sets(rows, _rooted(g.n)) if m & (m - 1)])
        piece = _grown_piece(rng, rows, s, rng.choice(_bits(s)), rng.randint(1, 4))
        grounded = _det_bareiss(_reduced_laplacian(rows, s, piece))
        assert grounded == _kappa_contracted(rows, s, piece), (g, s, piece)


def _kernel_det(rows: tuple[int, ...], subset: int, ground: int) -> int:
    # the census's determinant of a grounded Laplacian, checked against
    # the whole matrix's determinant over Fractions
    det = _det_bareiss(_reduced_laplacian(rows, subset, ground))
    assert det == exact_det(grounded_laplacian(rows, subset, ground)), (rows, subset, ground)
    return det


def test_det_bareiss_matches_an_exact_oracle_on_grounded_laplacians():
    # connected sets (kappa > 0) and arbitrary sets of sparse graphs
    # (disconnected ones give 0), grounded at connected pieces of 1 to 4
    # vertices, for every matrix size 0 to 15
    rng = random.Random(107)
    disconnected = 0
    for size in range(16):
        for k in range(1, 5):
            for _ in range(3):
                n = size + k + rng.randint(0, 2)
                g = random_connected_graph(rng, n, rng.choice([0.25, 0.5, 0.8]))
                rows = g.rows
                s = _grown_piece(rng, rows, (1 << n) - 1, rng.randrange(n), size + k)
                ground = _grown_piece(rng, rows, s, rng.choice(_bits(s)), k)
                assert (s & ~ground).bit_count() == size
                assert _kernel_det(rows, s, ground) > 0
                h = random_graph(rng, n, rng.choice([0.15, 0.3]))
                s = sum(1 << v for v in rng.sample(range(n), size + k))
                root = rng.choice(_bits(s))
                ground = _grown_piece(rng, h.rows, s, root, k)
                connected = h.component_mask(root, s) == s
                disconnected += not connected
                assert (_kernel_det(h.rows, s, ground) > 0) == connected
    assert disconnected > 60


def test_det_bareiss_on_two_cliques_joined_by_a_path():
    # the rows of one clique have zeros in every column of the other, so
    # they skip the steps that eliminate it; kappa is Cayley's w^(w-2),
    # squared
    for w in range(3, 8):
        for n in range(2 * w, 17):
            rows = barbell(n, w).rows
            full = (1 << n) - 1
            for v in range(n):
                assert _kernel_det(rows, full, 1 << v) == w ** (2 * (w - 2)), (n, w, v)
            # grounded at the path and its hubs, both cliques stay
            path = full & ~((1 << (w - 1)) - 1) & ((1 << (n - w + 1)) - 1)
            assert _kernel_det(rows, full, path) == w ** (2 * (w - 2)), (n, w)


def test_det_bareiss_on_every_core_of_a_barbell_plus_a_matching(monkeypatch):
    # the cores behind barbell-14-6-matchings: every determinant that the
    # census of barbell(14,6) plus one maximal complement matching computes
    module = sys.modules["subtrees.census"]
    fresh_cache(monkeypatch, module, "_shape_kappa")
    calls = _counted(monkeypatch, module, "_reduced_laplacian")
    g = barbell(14, 6)
    census(g.add_edges(next(maximal_matchings_of_complement(g))))
    assert {core.bit_count() for _, core, _ in calls} == set(range(3, 15))
    for rows, core, ground in calls:
        _kernel_det(rows, core, ground)


def test_core_strips_leaves_outside_keep():
    rng = random.Random(71)
    for _ in range(60):
        g = _cored_graph(rng)
        full = (1 << g.n) - 1
        # the 2-core: delete every leaf, round by round, until none is left
        core = full
        while True:
            leaves = [
                v for v in range(g.n) if (core >> v) & 1 and (g.rows[v] & core).bit_count() == 1
            ]
            if not leaves:
                break
            for v in leaves:
                core &= ~(1 << v)
        assert _core(g.rows, full, 0) == core
        leaf = next(v for v in range(g.n) if g.degree(v) == 1)
        assert _core(g.rows, full, 1 << leaf) >> leaf & 1
    assert _core(path_graph(5).rows, 0b11111, 0).bit_count() == 1
    assert _core(path_graph(5).rows, 0b11111, 0b00101) == 0b00111


def test_census_on_cored_graphs_matches_oracles():
    rng = random.Random(73)
    for _ in range(80):
        g = _cored_graph(rng)
        c = census(g)
        assert c == census_by_subtree_enumeration(g), g
        assert list(c.counts) == naive_census_counts(g), g


def test_census_containing_on_cored_graphs_matches_brute_force():
    # vertex, edge and tree anchors, most containing a leaf of the
    # graph, which the core must keep
    rng = random.Random(79)
    for _ in range(60):
        g = _cored_graph(rng)
        leaf = rng.choice([v for v in range(g.n) if g.degree(v) == 1])
        (stem,) = (w for w in range(g.n) if g.has_edge(leaf, w))
        tree_v, tree_e = _grown_tree(rng, g, leaf, rng.randint(2, 3))
        anchored = [
            ([leaf], []),
            ([rng.randrange(g.n)], []),
            ([leaf, stem], [(leaf, stem)]),
            (tree_v, tree_e),
        ]
        for vertices, tree in anchored:
            assert census_containing(g, vertices) == brute_containing(g, vertices, tree), (
                g,
                vertices,
            )


def _counted(monkeypatch, owner, name: str) -> list:
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_census_computes_one_determinant_per_core(monkeypatch):
    # the package re-exports the function `census` under its submodule's
    # name, so the module is reached through sys.modules; an empty process
    # cache makes the counts those of one census alone
    module = sys.modules["subtrees.census"]
    cache = fresh_cache(monkeypatch, module, "_shape_kappa")
    calls = _counted(monkeypatch, module, "_det_bareiss")
    census(modified_double_broom(9, 3, 1))
    assert len(calls) == 1  # every set with a cycle shares the one cycle
    cache.cache_clear()
    calls.clear()
    g = modified_barbell(16, 5, 1)
    census(g)
    # the cores are the 16 subsets of order >= 3 of each 5-clique and the
    # 8-cycle, but a determinant is keyed by the core's shape: the two
    # cliques' subsets are K3, K4 and K5, and the 8-cycle adds one
    assert len(calls) == 4
    calls.clear()
    census(g)
    assert calls == []  # every core is in the process cache now
    # barbell(14,6) plus its first complement matching, whose cores
    # straddle the label bytes: 4,948 cores, of 1,610 shapes and groundings
    cache.cache_clear()
    calls.clear()
    c = census(from_graph6("M~~{IC`CGP_f?N?N_"))
    assert c.mean == Fraction(8449265635, 658450973)
    assert len(calls) == 1610


def _placed(rng, shape: Graph, n: int) -> tuple[Graph, list[int]]:
    # `shape` at k sorted random labels of an order-n graph, with random
    # edges that leave one end outside those labels: the induced subgraph
    # on them is `shape`, renumbered in label order
    labels = sorted(rng.sample(range(n), shape.n))
    inside = set(labels)
    edges = {(labels[u], labels[v]) for u, v in shape.edges()}
    edges |= {e for e in combinations(range(n), 2) if not inside >= set(e) and rng.random() < 0.3}
    return Graph.from_edges(n, sorted(edges)), labels


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _assert_keys_match_the_oracle(keys: dict, oracle: dict, rows, core: int, ground: int) -> None:
    # equal keys exactly for equal renumbered shapes and groundings, and
    # the cached count is the cache-free determinant
    key = _shape_key(rows, core, ground)
    shape = renumbered_shape(rows, core, ground)
    assert keys.setdefault(shape, key) == key, (rows, core, ground)
    assert oracle.setdefault(key, shape) == shape, (rows, core, ground)
    expected = _det_bareiss(_reduced_laplacian(rows, core, ground or core & -core))
    assert _kappa(rows, core, ground) == expected, (rows, core, ground)


def test_shape_key_matches_a_renumbering_oracle_on_every_small_labelled_graph(monkeypatch):
    # every connected labelled graph of order <= 5, every connected core
    # of two or more vertices, grounded at nothing or at every connected
    # piece of two or more of its vertices
    fresh_cache(monkeypatch, sys.modules["subtrees.census"], "_shape_kappa")
    keys: dict = {}
    oracle: dict = {}
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if (chosen >> i) & 1])
            if not g.is_connected():
                continue
            sets = [s for s in _connected_sets(g.rows, _rooted(n)) if s & (s - 1)]
            for core in sets:
                for ground in [0, *(s for s in sets if s & core == s)]:
                    _assert_keys_match_the_oracle(keys, oracle, g.rows, core, ground)
    # 66,279 cores and groundings, of 13,277 renumbered shapes and groundings
    assert len(keys) == 13277


def test_shape_key_matches_a_renumbering_oracle_across_label_bytes(monkeypatch):
    # random connected graphs of order 9 to 20, with cores grown to
    # straddle a label byte, grounded at nothing or at a piece of them
    fresh_cache(monkeypatch, sys.modules["subtrees.census"], "_shape_kappa")
    rng = random.Random(131)
    keys: dict = {}
    oracle: dict = {}
    straddled = 0
    for _ in range(400):
        n = rng.randint(9, 20)
        g = random_connected_graph(rng, n, rng.choice([0.2, 0.35, 0.6]))
        edge = 8 * rng.randint(1, (n - 1) // 8)  # a byte's first label
        core = _grown_piece(rng, g.rows, (1 << n) - 1, rng.choice([edge - 1, edge]), rng.randint(2, n))
        if not core & (core - 1):
            continue
        straddled += core >> edge > 0 and core & ((1 << edge) - 1) > 0
        piece = _grown_piece(rng, g.rows, core, rng.choice(_bits(core)), rng.randint(2, 5))
        for ground in (0, piece if piece & (piece - 1) else 0):
            _assert_keys_match_the_oracle(keys, oracle, g.rows, core, ground)
    assert straddled > 300


def test_shape_key_is_the_same_for_a_shape_at_any_labels():
    # one shape at labels 0..k-1, then at sorted random labels of graphs
    # of order k to 20 with other edges around it: a graph of order 8 or
    # less takes one translate, a larger one a translate per label byte,
    # and both give the one key
    rng = random.Random(137)
    for _ in range(150):
        k = rng.randint(2, 12)
        shape = random_connected_graph(rng, k, rng.choice([0.3, 0.6, 0.9]))
        piece = _grown_piece(rng, shape.rows, (1 << k) - 1, rng.randrange(k), rng.randint(1, k))
        ground = piece if piece & (piece - 1) else 0
        key = _shape_key(shape.rows, (1 << k) - 1, ground)
        assert len(key) == (k + 1) * ((k + 7) // 8)
        for _ in range(6):
            g, labels = _placed(rng, shape, rng.randint(k, 20))
            placed_ground = _mask(labels[v] for v in _bits(ground))
            assert _shape_key(g.rows, _mask(labels), placed_ground) == key, (shape, g, labels)


def test_process_memos_evict_the_least_recently_used_entry(monkeypatch):
    # a hit makes an entry the newest; a full cache drops its oldest
    module = sys.modules["subtrees.census"]
    shapes = fresh_cache(monkeypatch, module, "_shape_kappa", 3)
    k3, k4, c5, k5 = clique(3), clique(4), cycle(5), clique(5)
    trees = {g: spanning_tree_count(g) for g in (k3, k4, c5, k5)}
    dets = _counted(monkeypatch, module, "_det_bareiss")

    def kappas(*graphs) -> int:
        # the determinants computed for the graphs' whole cores
        before = len(dets)
        for g in graphs:
            assert _kappa(g.rows, (1 << g.n) - 1, 0) == trees[g]
        return len(dets) - before

    assert kappas(k3, k4, c5, k3, k5) == 4  # k3 is hit, then k5 evicts k4
    assert shapes.cache_info().currsize == 3
    assert kappas(c5, k3, k5) == 0  # held, oldest first
    assert kappas(k4) == 1  # evicted, and now evicts c5, the oldest
    assert kappas(k3, k5) == 0 and kappas(c5) == 1
    # the local census's core entries (K4 and its four triangles), keyed
    # by labelled rows, live in a cache of their own under the same rule
    entries = fresh_cache(monkeypatch, module, "_core_entry", 3)
    adjugates = _counted(monkeypatch, module, "_adjugate")
    local_census(k4)
    assert len(adjugates) == 5 and entries.cache_info().currsize == 3
    assert kappas(k3, k5, c5) == 0  # the census caches no longer share slots
    local_census(k4)
    assert len(adjugates) == 10  # five cores in turn through three slots: evicted
    # and so does canon's certificate cache
    certs = fresh_cache(monkeypatch, canon, "_certificate", 3)
    searched = _counted(monkeypatch, canon, "certify")
    p4, s4 = path_graph(4), star_graph(4)
    for g in (k3, k4, p4, k3, s4):  # k3 is hit, then s4 evicts k4
        assert canonical_form(g) == certify(g)[0]
    assert [args[0] for args in searched] == [k3, k4, p4, s4]
    assert certs.cache_info().currsize == 3
    for g in (p4, k3, s4):  # held, oldest first
        canonical_form(g)
    assert len(searched) == 4
    canonical_form(k4)  # evicted, and now evicts p4, the oldest
    canonical_form(p4)
    assert [args[0] for args in searched[4:]] == [k4, p4]


@functools.cache
def _memo_cases(order: int) -> tuple[Graph, ...]:
    # every connected graph of order <= `order` and its g-e and g+e
    # neighbours, each labelled graph once: they share labels, so they
    # meet the same core masks with other induced rows
    graphs = {}
    for n, graphs_n in generated(1, order):
        for g in graphs_n:
            graphs[g] = None
            edges = set(g.edges())
            for u, v in combinations(range(n), 2):
                graphs[g.delete_edge(u, v) if (u, v) in edges else g.add_edge(u, v)] = None
    return tuple(graphs)


def _census_tallies(g: Graph) -> tuple:
    c = census(g)
    return c.counts, c.vertex_counts, c.vertex_order_sums, c.mean


def _local_tallies(g: Graph) -> tuple:
    local = local_census(g)
    return local.edges, local.cherries


_CENSUS_CACHES = ("_shape_kappa", "_core_entry")


def _clear_census_caches() -> None:
    module = sys.modules["subtrees.census"]
    for name in _CENSUS_CACHES:
        getattr(module, name).cache_clear()


def _assert_warm_caches_match_cold_ones(monkeypatch, limit, filled, cold, warm) -> None:
    # `warm` results from both census caches emptied, or with `limit`
    # smaller ones in their place, equal the `cold` ones; every cache of
    # `limit` entries, and at its own size each named in `filled`, was
    # filled, then evicting, never past its size
    module = sys.modules["subtrees.census"]
    caches = {name: fresh_cache(monkeypatch, module, name, limit) for name in _CENSUS_CACHES}
    assert warm() == cold
    for name, cache in caches.items():
        assert filled_and_evicting(cache) == (limit is not None or name in filled), name


def _memo_results(cold: bool, order: int) -> list:
    # the censuses of K4, plain and anchored at the edges (0,1) and
    # (2,3), which ground its cores in two ways, then the census and the
    # local census of every _memo_cases graph and of two graphs with
    # pendant trees at core vertices, so that the caches hold determinants
    # and core entries at once; with `cold`, each from empty caches
    k4 = clique(4)
    graphs = [*_memo_cases(order), modified_double_broom(9, 3, 1), barbell(8, 3)]
    out = []
    for g, e in [(k4, None), (k4, (0, 1)), (k4, (2, 3)), *((g, None) for g in graphs)]:
        if cold:
            _clear_census_caches()
        if e is None:
            out.append(_census_tallies(g))
            if cold:
                _clear_census_caches()
            out.append(_local_tallies(g))
        else:
            out.append(census_containing(g, e))
    return out


@functools.cache
def _cold_memo_results(order: int) -> list:
    return _memo_results(cold=True, order=order)


def _assert_warm_memo_matches_a_cold_one(monkeypatch, limit, order, filled):
    cold = _cold_memo_results(order)
    assert cold[0][0] == (0, 4, 6, 12, 16)
    assert cold[2:4] == [(13, 46), (13, 46)]  # anchored at an edge
    assert cold[1][0][(0, 1)] == cold[1][0][(2, 3)] == (13, 46)  # K4's local census
    warm = functools.partial(_memo_results, cold=False, order=order)
    _assert_warm_caches_match_cold_ones(monkeypatch, limit, filled, cold, warm)


@pytest.mark.slow
@pytest.mark.parametrize("limit", [None, 8])
def test_warm_kappa_memo_matches_a_cold_one(monkeypatch, limit):
    _assert_warm_memo_matches_a_cold_one(monkeypatch, limit, 7, _CENSUS_CACHES)


@pytest.mark.parametrize("limit", [None, 8])
def test_warm_kappa_memo_matches_a_cold_one_to_order_6(monkeypatch, limit):
    # 1,300 labelled graphs; the pass computes 754 determinants' shapes
    # and 1,372 core entries, so the core entry cache at its default size
    # (1,024 entries) is still filled and evicts, while the shapes fit
    _assert_warm_memo_matches_a_cold_one(monkeypatch, limit, 6, ("_core_entry",))


@pytest.mark.slow
def test_warm_kappa_memo_matches_a_cold_one_on_every_order_8_graph():
    graphs = list(generate_connected(8))
    warm = [_census_tallies(g) for g in graphs]
    for g, tallies in zip(graphs, warm):
        _clear_census_caches()
        assert _census_tallies(g) == tallies, g


@pytest.mark.slow
def test_warm_local_census_memo_matches_a_cold_one_on_every_order_8_graph():
    graphs = list(generate_connected(8))
    warm = [_local_tallies(g) for g in graphs]
    for g, tallies in zip(graphs, warm):
        _clear_census_caches()
        assert _local_tallies(g) == tallies, g


@functools.cache
def _multi_plane_cases() -> tuple[Graph, ...]:
    # graphs past order 8, whose shape keys renumber a core across two or
    # three label bytes: barbell(14,6) plus one maximal complement
    # matching of each of its 14 orbits, modified_barbell(16,5,1) and
    # modified_double_broom(23,8,1)
    g = barbell(14, 6)
    matchings = list(maximal_matchings_of_complement(g))
    firsts: dict = {}
    for matching, root in zip(matchings, _orbit_reps(g.n, certify(g)[1], matchings)):
        firsts.setdefault(root, matching)
    assert len(firsts) == 14
    return (
        *(g.add_edges(matching) for matching in firsts.values()),
        modified_barbell(16, 5, 1),
        modified_double_broom(23, 8, 1),
    )


def _anchored_tallies(g: Graph) -> list:
    # trees of 2 and 4 vertices grown from label 7, the last of the first
    # byte, by the largest neighbouring label each step
    out = []
    for size in (2, 4):
        piece = 1 << 7
        for _ in range(size - 1):
            reach = 0
            for v in _bits(piece):
                reach |= g.rows[v]
            piece |= 1 << max(_bits(reach & ~piece))
        out.append(census_containing(g, _bits(piece)))
    return out


def _multi_plane_results(cold: bool, graphs: tuple[Graph, ...], local: tuple[Graph, ...]) -> list:
    # the census and the anchored censuses of every graph, and the local
    # censuses of those in `local`; with `cold`, each from empty caches
    out = []
    for g in graphs:
        for tallies in (_census_tallies, _anchored_tallies, _local_tallies):
            if tallies is _local_tallies and g not in local:
                continue
            if cold:
                _clear_census_caches()
            out.append(tallies(g))
    return out


@functools.cache
def _cold_multi_plane_results(graphs: tuple[Graph, ...], local: tuple[Graph, ...]) -> list:
    return _multi_plane_results(True, graphs, local)


def _assert_warm_multi_plane_memo_matches_a_cold_one(monkeypatch, limit, graphs, local, filled):
    cold = _cold_multi_plane_results(graphs, local)
    warm = functools.partial(_multi_plane_results, False, graphs, local)
    _assert_warm_caches_match_cold_ones(monkeypatch, limit, filled, cold, warm)


@pytest.mark.parametrize("limit", [None, 8])
def test_warm_kappa_memo_matches_a_cold_one_past_order_8(monkeypatch, limit):
    # three of the barbell matchings and both bridged graphs; the local
    # census of a barbell matching takes most of a second, so only the
    # slow tier runs those; the bridged graphs' 34 core entries fit the
    # core entry cache at its default size
    cases = _multi_plane_cases()
    graphs = (*cases[:3], *cases[-2:])
    _assert_warm_multi_plane_memo_matches_a_cold_one(
        monkeypatch, limit, graphs, cases[-2:], ("_shape_kappa",)
    )


@pytest.mark.slow
@pytest.mark.parametrize("limit", [None, 8])
def test_warm_kappa_memo_matches_a_cold_one_on_every_barbell_matching_orbit(monkeypatch, limit):
    cases = _multi_plane_cases()
    _assert_warm_multi_plane_memo_matches_a_cold_one(monkeypatch, limit, cases, cases, _CENSUS_CACHES)


def test_local_census_computes_one_adjugate_per_labelled_core(monkeypatch):
    module = sys.modules["subtrees.census"]
    fresh_cache(monkeypatch, module, "_core_entry")
    calls = _counted(monkeypatch, module, "_adjugate")
    g = modified_barbell(16, 5, 1)
    first = local_census(g)
    # the 16 subsets of order >= 3 of each 5-clique and the 8-cycle, as
    # in the census; every other set's core is one of them or one vertex
    assert len(calls) == 33
    calls.clear()
    assert local_census(g) == first
    assert calls == []  # every core entry is in the process cache now


def test_tree_constraint_skips_the_connectivity_filter(monkeypatch):
    # one check that the anchored set induces a connected subgraph, and no
    # filter of the sets grown from it, which are connected by construction
    calls = _counted(monkeypatch, Graph, "component_mask")
    g = modified_barbell(9, 3, 1)
    census_containing(g, (0, 1))
    census_containing(g, [8])
    assert [args[1:] for args in calls] == [(0, 0b11), (8, 1 << 8)]


# -- the block DP against the per-set walk --------------------------------------


def _glued_blocks(rng, n: int) -> Graph:
    # edges, cycles, cliques and cycles with chords glued at random
    # vertices into a connected graph with cut vertices, randomly labelled
    edges: set = set()
    size = 1
    while size < n:
        k = min(rng.randint(2, 5), n - size + 1)  # the block's order
        verts = [rng.randrange(size)] + list(range(size, size + k - 1))
        ring = [(verts[i], verts[(i + 1) % k]) for i in range(k)] if k > 2 else []
        kind = rng.choice(["clique", "cycle", "chords"]) if k > 3 else "clique"
        if kind == "clique":
            edges.update(combinations(verts, 2))
        else:
            edges.update(ring)
            if kind == "chords":
                edges.update(rng.sample(list(combinations(verts, 2)), 2))
        size += k - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, {tuple(sorted((perm[u], perm[v]))) for u, v in edges})


def _reach(g: Graph, tree_v: set, tree_e: set, targets: set) -> tuple[set, set, int]:
    # the tree and a shortest path from it to the nearest vertex of
    # `targets`, which lie outside it; also that vertex
    parent = dict.fromkeys(tree_v)
    queue = sorted(tree_v)
    for u in queue:
        if u in targets:
            break
        for w in _bits(g.rows[u]):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    verts, edges, end = set(tree_v), set(tree_e), u
    while parent[u] is not None:
        verts.add(u)
        edges.add((parent[u], u))
        u = parent[u]
    return verts, edges, end


def _anchored_trees(rng, g: Graph) -> list[tuple[set, set]]:
    # the vertices and edges of a vertex, an edge, a grown tree and that
    # tree reaching out along a shortest path to take a vertex or an edge
    # away from it
    out = [({rng.randrange(g.n)}, set())]
    edges = list(g.edges())
    if not edges:
        return out
    u, v = rng.choice(edges)
    out.append(({u, v}, {(u, v)}))
    tree_v, tree_e = _grown_tree(rng, g, u, rng.randint(2, 4))
    out.append((tree_v, tree_e))
    apart = [e for e in edges if not set(e) & tree_v]
    if apart and rng.random() < 0.5:
        a, b = rng.choice(apart)
        verts, path, x = _reach(g, tree_v, tree_e, {a, b})
        y = a + b - x
        out.append((verts | {y}, path | {(x, y)}))
    elif len(tree_v) < g.n:
        w = rng.choice([w for w in range(g.n) if w not in tree_v])
        out.append(_reach(g, tree_v, tree_e, {w})[:2])
    return out


def _assert_matches_walk(rng, g: Graph) -> None:
    assert census(g) == walk_census(g), g
    for vertices, _ in _anchored_trees(rng, g):
        assert census_containing(g, vertices) == walk_census_containing(g, vertices), (
            g,
            vertices,
        )


def test_blocks_partition_the_edges_and_come_children_first():
    rng = random.Random(89)
    graphs = [_glued_blocks(rng, rng.randint(2, 12)) for _ in range(40)]
    graphs += [random_connected_graph(rng, rng.randint(2, 8), 0.35) for _ in range(40)]
    for g in graphs:
        root = rng.randrange(g.n)
        blocks = _blocks(g.rows, root)
        for u, v in g.edges():
            holding = [m for _, m in blocks if (m >> u) & 1 and (m >> v) & 1]
            assert len(holding) == 1, (g, u, v)
        for i, (top, mask) in enumerate(blocks):
            assert (mask >> top) & 1
            verts = _bits(mask)
            sub = Graph.from_edges(
                len(verts),
                [(a, b) for a, b in combinations(range(len(verts)), 2)
                 if g.has_edge(verts[a], verts[b])],
            )
            assert sub.is_connected()
            assert not any(sub.is_cut_vertex(v) for v in range(sub.n)), (g, mask)
            # the top is the root or lies below the top of a later block
            assert top == root or any(
                (m >> top) & 1 and t != top for t, m in blocks[i + 1 :]
            ), (g, blocks)
        for v in range(g.n):
            holding = sum((m >> v) & 1 for _, m in blocks)
            assert g.is_cut_vertex(v) == (holding >= 2), (g, v)
    assert _blocks(Graph(1, (0,)).rows, 0) == []


def test_connected_sets_with_need_yield_the_supersets_of_need():
    for n, order in generated(2, 6):
        for g in order:
            full = (1 << n) - 1
            for need in (0b10, (1 << (n - 1)) | 0b10, full & ~1):
                sets = list(_connected_sets(g.rows, [(1, full & ~1)], need))
                expect = [m for m in _connected_masks(g) if m & 1 and m & need == need]
                assert len(sets) == len(set(sets))
                assert sorted(sets) == expect


def test_block_dp_matches_the_walk_on_every_connected_graph_to_order_7():
    rng = random.Random(83)
    for n, order in generated(1, 7):
        for g in order:
            _assert_matches_walk(rng, g)


def test_block_dp_matches_the_walk_on_graphs_with_cut_vertices_to_order_14():
    rng = random.Random(97)
    for _ in range(60):
        g = _glued_blocks(rng, rng.randint(8, 14))
        assert any(g.is_cut_vertex(v) for v in range(g.n))
        _assert_matches_walk(rng, g)


def test_block_dp_matches_the_walk_on_modified_double_brooms():
    # w = 8 needs order 17: two 8-stars, their path and the bridge vertex
    rng = random.Random(101)
    for n in range(5, 18):
        for w in range(2, (n - 1) // 2 + 1):
            g = modified_double_broom(n, w, 1)
            _assert_matches_walk(rng, g)
            bridge, hubs = n - 1, (w - 1, n - 1 - w)
            for hub in hubs:
                e = (hub, bridge)
                assert census_containing(g, e) == walk_census_containing(g, e)


def test_block_dp_matches_subtree_enumeration_to_order_8():
    rng = random.Random(103)
    graphs = [_glued_blocks(rng, rng.randint(2, 8)) for _ in range(60)]
    graphs += [random_connected_graph(rng, 8, 0.3) for _ in range(20)]
    for g in graphs:
        oracle = census_by_subtree_enumeration(g)
        assert census(g) == oracle, g
        for v in range(g.n):
            assert census_containing(g, [v]) == (
                oracle.vertex_counts[v],
                oracle.vertex_order_sums[v],
            )
    for g in graphs[:30]:
        for vertices, tree in _anchored_trees(rng, g):
            assert census_containing(g, vertices) == brute_containing(g, vertices, tree)


def test_block_dp_closed_forms_at_order_64():
    n = 64
    c = census(path_graph(n))
    assert c.counts == (0, *(n - k + 1 for k in range(1, n + 1)))
    assert c.vertex_counts == tuple((v + 1) * (n - v) for v in range(n))
    for i in (0, 20, 62):
        assert census_containing(path_graph(n), (i, i + 1))[0] == (i + 1) * (n - i - 1)
    c = census(star_graph(n))
    assert c.counts == (0, n, *(comb(n - 1, k - 1) for k in range(2, n + 1)))
    assert c.vertex_counts == (1 << (n - 1), *([1 + (1 << (n - 2))] * (n - 1)))
    assert average_connected_set_size(path_graph(n)) == Fraction(
        sum(k * (n - k + 1) for k in range(1, n + 1)), n * (n + 1) // 2
    )


@pytest.mark.parametrize("n", [17, 25, 33, 41, 49, 57, 64])
def test_block_dp_closed_forms_on_cycles(monkeypatch, n):
    # the cycle is its own core, so its shape key has lanes of ceil(n / 8)
    # bytes, 3 to 8 here; its determinants, plain and grounded at the edge
    # (5,6), and the edge's own, come from decoded keys
    shapes = fresh_cache(monkeypatch, sys.modules["subtrees.census"], "_shape_kappa")
    g = cycle(n)
    c = census(g)
    assert c.counts == (0, *([n] * n))
    assert c.vertex_counts == (n * (n + 1) // 2,) * n
    # paths of k vertices through an edge: k - 1 of the n, up to k = n
    assert census_containing(g, (5, 6)) == (
        n * (n - 1) // 2,
        sum(k * (k - 1) for k in range(2, n + 1)),
    )
    assert shapes.cache_info().misses == 3
    assert average_connected_set_size(g) == Fraction(n * sum(range(1, n)) + n, n * (n - 1) + 1)


def test_block_dp_on_modified_double_broom_64_8_1():
    n = 64
    g = modified_double_broom(n, 8, 1)
    mirror = [n - 2 - v for v in range(n - 1)] + [n - 1]
    assert g.relabel(mirror) == g
    c = census(g)
    assert sum(c.vertex_counts) == c.order_sum
    assert sum(c.counts) == c.num_subtrees
    assert all(c.vertex_counts[v] == c.vertex_counts[mirror[v]] for v in range(n))
    assert all(c.vertex_order_sums[v] == c.vertex_order_sums[mirror[v]] for v in range(n))
    for v in (0, 7, 30, n - 1):
        assert census_containing(g, [v]) == (c.vertex_counts[v], c.vertex_order_sums[v])


# -- the local census inside the block DP ---------------------------------------


def _cherries(g: Graph) -> list[tuple[int, int, int]]:
    return [
        (a, m, b)
        for m in range(g.n)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if g.has_edge(a, m) and g.has_edge(m, b)
    ]


def _assert_local_census_fields(g: Graph) -> None:
    got = local_census(g).census
    want = census(g)
    for f in fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), (g, f.name)


def _graphs_with_cut_vertices() -> list[Graph]:
    rng = random.Random(97)  # the graphs of the walk test above
    graphs = [_glued_blocks(rng, rng.randint(8, 14)) for _ in range(60)]
    graphs += [
        modified_double_broom(n, w, 1) for n in range(5, 18) for w in range(2, (n - 1) // 2 + 1)
    ]
    graphs += [barbell(n, w) for n, w in ((6, 3), (9, 3), (11, 4), (14, 6))]
    return graphs


def test_local_census_carries_the_census_of_every_connected_graph_to_order_7():
    for n, order in generated(1, 7):
        for g in order:
            _assert_local_census_fields(g)


def test_local_census_matches_census_containing_on_graphs_with_cut_vertices():
    for g in _graphs_with_cut_vertices():
        _assert_local_census_matches_oracle(g)
        _assert_local_census_fields(g)


def test_local_census_of_disconnected_graphs():
    rng = random.Random(107)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.25)
        _assert_local_census_matches_oracle(g)
        _assert_local_census_fields(g)


def test_cherry_across_two_blocks_is_edge_times_edge_over_vertex():
    # in the (count, order sum) pair algebra: cherry (x) vertex(m) equals
    # edge(a-m) (x) edge(m-b), and both divisions are exact
    seen = 0
    for g in _graphs_with_cut_vertices():
        block_of = {}
        for _, mask in _blocks(g.rows, 0):
            for u, v in g.edges():
                if (mask >> u) & 1 and (mask >> v) & 1:
                    block_of[(u, v)] = block_of[(v, u)] = mask
        for a, m, b in _cherries(g):
            if block_of[(a, m)] == block_of[(m, b)]:
                continue
            seen += 1
            ca, cs = census_containing(g, (a, m, b))
            ea, es = census_containing(g, (a, m))
            fa, fs = census_containing(g, (m, b))
            va, vs = census_containing(g, [m])
            assert (ca * va, ca * vs + cs * va) == (ea * fa, ea * fs + es * fa), (g, a, m, b)
            assert (ea * fa) % va == 0
            assert (ea * fs + es * fa - ca * vs) % va == 0
    assert seen > 1000


def test_local_census_at_the_bridge_of_modified_double_broom_23_8_1():
    # the walk over every connected set took about 27 s on this graph
    g = modified_double_broom(23, 8, 1)
    started = time.perf_counter()
    local = local_census(g)
    assert time.perf_counter() - started < 5
    bridge = 22
    assert [e for e in local.edges if bridge in e] == [(7, 22), (14, 22)]
    for u, v in ((7, 22), (14, 22)):
        assert local.edges[(u, v)] == census_containing(g, (u, v))
    at_bridge = [c for c in local.cherries if bridge in c]
    assert len(at_bridge) == 1 + 2 * 8  # 7-22-14, and each hub's 8 other edges
    for a, m, b in at_bridge:
        assert local.cherries[(a, m, b)] == census_containing(g, (a, m, b))
    _assert_local_census_fields(g)


def test_local_census_closed_forms_at_order_64():
    n = 64
    local = local_census(path_graph(n))
    # the intervals [l, r] with l <= i and r >= i + 1 (or i + 1 for a
    # cherry centred at i) have mean order (n + 2)/2 (or (n + 3)/2)
    for i in range(n - 1):
        pairs = (i + 1) * (n - 1 - i)
        assert 2 * local.edges[(i, i + 1)][1] == pairs * (n + 2)
        assert local.edges[(i, i + 1)][0] == pairs
    for i in range(1, n - 1):
        pairs = i * (n - 1 - i)
        assert local.cherries[(i - 1, i, i + 1)] == (pairs, pairs * (n + 3) // 2)
    assert len(local.cherries) == n - 2
    g = cycle(n)
    local = local_census(g)
    # paths of k vertices through an edge: k - 1 of the n, up to k = n;
    # through two adjacent edges: k - 2
    edge = (n * (n - 1) // 2, (n - 1) * n * (n + 1) // 3)
    cherry = ((n - 2) * (n - 1) // 2, n * (n + 1) * (2 * n + 1) // 6 - n * (n + 1) + 1)
    assert set(local.edges.values()) == {edge}
    assert set(local.cherries.values()) == {cherry}
    assert len(local.cherries) == n
    assert local.edges[(5, 6)] == census_containing(g, (5, 6))
    assert local.cherries[(4, 5, 6)] == census_containing(g, (4, 5, 6))


def _induced(g: Graph, subset: int) -> Graph:
    verts = _bits(subset)
    pairs = combinations(enumerate(verts), 2)
    return Graph.from_edges(len(verts), [(i, j) for (i, a), (j, b) in pairs if g.has_edge(a, b)])


def test_subset_kappas_count_the_spanning_trees_of_every_induced_subgraph():
    rng = random.Random(29)
    graphs = [g for _, order in generated(1, 6) for g in order]
    # three random graphs of each order 1..10, many disconnected at the
    # lower densities
    graphs += [random_graph(rng, 1 + i % 10, rng.choice((0.2, 0.4, 0.7))) for i in range(30)]
    assert sum(not g.is_connected() for g in graphs) >= 5
    for g in graphs:
        table = subset_kappas(g)
        assert len(table) == 1 << g.n
        assert table[0] == 0
        for s in range(1, 1 << g.n):
            h = _induced(g, s)
            # spanning_tree_count gives 0 on a disconnected graph
            assert table[s] == spanning_tree_count(h), (g, s)
            assert (table[s] > 0) == h.is_connected(), (g, s)


def _assert_children_inherit_the_census(parents):
    for p in parents:
        kappas = subset_kappas(p)
        for child in _children(p):
            # counts, totals and both vertex tables
            assert census_from_parent(kappas, child) == census(child), child


def test_census_from_parent_matches_the_census_of_every_child_to_order_7():
    for _, parents in generated(1, 6):
        _assert_children_inherit_the_census(parents)


@pytest.mark.slow
def test_census_from_parent_matches_the_census_of_every_child_at_order_8():
    for _, parents in generated(7, 7):
        _assert_children_inherit_the_census(parents)


def test_census_from_parent_with_every_vertex_last():
    # the new vertex anywhere in the block-cut tree: a leaf, a cut vertex
    # whose deletion disconnects g, or inside a block
    rng = random.Random(19)
    graphs = [g for g in _graphs_with_cut_vertices() if g.n <= 12]
    graphs += [random_graph(rng, rng.randint(2, 10), 0.3) for _ in range(20)]
    for g in graphs:
        for v in range(g.n):
            perm = list(range(g.n))
            perm[v], perm[-1] = perm[-1], perm[v]
            h = g.relabel(perm)
            keep = (1 << (h.n - 1)) - 1
            parent = Graph(h.n - 1, tuple(r & keep for r in h.rows[:-1]))
            assert census_from_parent(subset_kappas(parent), h) == census(h), (g, v)


def test_census_from_parent_wants_a_subset_kappa_per_subset_of_the_parent():
    for kappas in (subset_kappas(path_graph(4)), subset_kappas(path_graph(6)), []):
        with pytest.raises(ValueError, match=f"have {len(kappas)} entries, not 32"):
            census_from_parent(kappas, path_graph(6))
