"""Census correctness: oracle equivalence, hand counts, exact identities."""

import random
import sys
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import comb

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
from subtrees.census import (
    _adjugate,
    _bits,
    _blocks,
    _connected_sets,
    _core,
    _det_bareiss,
    local_census,
)
from conftest import (
    _rooted,
    naive_census_counts,
    random_connected_graph,
    random_graph,
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
    # vertex, edge, tree and two-component forest constraints, each also
    # containing a leaf of the graph, which the core must keep
    rng = random.Random(79)
    for _ in range(60):
        g = _cored_graph(rng)
        leaf = rng.choice([v for v in range(g.n) if g.degree(v) == 1])
        (stem,) = (w for w in range(g.n) if g.has_edge(leaf, w))
        tree_v, tree_e = _grown_tree(rng, g, leaf, rng.randint(2, 3))
        constraints = [
            SubtreeConstraint(frozenset([leaf])),
            SubtreeConstraint(frozenset([rng.randrange(g.n)])),
            SubtreeConstraint(frozenset([leaf, stem]), frozenset([(leaf, stem)])),
            SubtreeConstraint(frozenset(tree_v), frozenset(tree_e)),
        ]
        near = g.rows[leaf] | g.rows[stem] | (1 << leaf) | (1 << stem)
        far = [w for w in range(g.n) if not (near >> w) & 1]
        if far:
            w = rng.choice(far)
            constraints.append(
                SubtreeConstraint(frozenset([leaf, stem, w]), frozenset([(leaf, stem)]))
            )
        far = [w for w in range(g.n) if w not in tree_v and not g.has_edge(w, leaf)]
        if far:
            constraints.append(
                SubtreeConstraint(frozenset(tree_v | {rng.choice(far)}), frozenset(tree_e))
            )
        for constraint in constraints:
            assert census_containing(g, constraint) == brute_containing(g, constraint), (
                g,
                constraint,
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
    # name, so the module is reached through sys.modules
    calls = _counted(monkeypatch, sys.modules["subtrees.census"], "_det_bareiss")
    census(modified_double_broom(9, 3, 1))
    assert len(calls) == 1  # every set with a cycle shares the one cycle
    calls.clear()
    census(modified_barbell(16, 5, 1))
    # one per block subset with a cycle: the 16 subsets of order >= 3 of
    # each 5-clique and the 8-cycle
    assert len(calls) == 33


def test_tree_constraint_skips_the_connectivity_filter(monkeypatch):
    calls = _counted(monkeypatch, Graph, "component_mask")
    g = modified_barbell(9, 3, 1)
    census_containing(g, SubtreeConstraint(frozenset([0, 1]), frozenset([(0, 1)])))
    census_containing(g, SubtreeConstraint(frozenset([0, 8])))
    census_containing(g, SubtreeConstraint(frozenset([0, 1, 7]), frozenset([(0, 1)])))
    assert calls == []


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


def _constraints(rng, g: Graph) -> list[SubtreeConstraint]:
    # a vertex, an edge, a grown tree and a two-component forest (the tree
    # plus a vertex or an edge away from it)
    out = [SubtreeConstraint(frozenset([rng.randrange(g.n)]))]
    edges = list(g.edges())
    if not edges:
        return out
    u, v = rng.choice(edges)
    out.append(SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)])))
    tree_v, tree_e = _grown_tree(rng, g, u, rng.randint(2, 4))
    out.append(SubtreeConstraint(frozenset(tree_v), frozenset(tree_e)))
    apart = [e for e in edges if not set(e) & tree_v]
    if apart and rng.random() < 0.5:
        a, b = rng.choice(apart)
        out.append(SubtreeConstraint(frozenset(tree_v | {a, b}), frozenset(tree_e | {(a, b)})))
    elif len(tree_v) < g.n:
        w = rng.choice([w for w in range(g.n) if w not in tree_v])
        out.append(SubtreeConstraint(frozenset(tree_v | {w}), frozenset(tree_e)))
    return out


def _assert_matches_walk(rng, g: Graph) -> None:
    assert census(g) == walk_census(g), g
    for constraint in _constraints(rng, g):
        assert census_containing(g, constraint) == walk_census_containing(g, constraint), (
            g,
            constraint,
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
    for n in range(2, 7):
        for g in generate_connected(n):
            full = (1 << n) - 1
            for need in (0b10, (1 << (n - 1)) | 0b10, full & ~1):
                sets = list(_connected_sets(g.rows, [(1, full & ~1)], need))
                expect = [m for m in _connected_masks(g) if m & 1 and m & need == need]
                assert len(sets) == len(set(sets))
                assert sorted(sets) == expect


def test_block_dp_matches_the_walk_on_every_connected_graph_to_order_7():
    rng = random.Random(83)
    for n in range(1, 8):
        for g in generate_connected(n):
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
                edge = SubtreeConstraint(frozenset(e), frozenset([e]))
                assert census_containing(g, edge) == walk_census_containing(g, edge)


def test_block_dp_matches_subtree_enumeration_to_order_8():
    rng = random.Random(103)
    graphs = [_glued_blocks(rng, rng.randint(2, 8)) for _ in range(60)]
    graphs += [random_connected_graph(rng, 8, 0.3) for _ in range(20)]
    for g in graphs:
        oracle = census_by_subtree_enumeration(g)
        assert census(g) == oracle, g
        for v in range(g.n):
            assert census_containing(g, SubtreeConstraint(frozenset([v]))) == (
                oracle.vertex_counts[v],
                oracle.vertex_order_sums[v],
            )
    for g in graphs[:30]:
        for constraint in _constraints(rng, g):
            assert census_containing(g, constraint) == brute_containing(g, constraint)


def test_block_dp_closed_forms_at_order_64():
    n = 64
    c = census(path_graph(n))
    assert c.counts == (0, *(n - k + 1 for k in range(1, n + 1)))
    assert c.vertex_counts == tuple((v + 1) * (n - v) for v in range(n))
    for i in (0, 20, 62):
        edge = SubtreeConstraint(frozenset([i, i + 1]), frozenset([(i, i + 1)]))
        assert census_containing(path_graph(n), edge)[0] == (i + 1) * (n - i - 1)
    c = census(star_graph(n))
    assert c.counts == (0, n, *(comb(n - 1, k - 1) for k in range(2, n + 1)))
    assert c.vertex_counts == (1 << (n - 1), *([1 + (1 << (n - 2))] * (n - 1)))
    g = cycle(n)
    c = census(g)
    assert c.counts == (0, *([n] * n))
    assert c.vertex_counts == (n * (n + 1) // 2,) * n
    # paths of k vertices through an edge: k - 1 of the n, up to k = n
    edge = SubtreeConstraint(frozenset([5, 6]), frozenset([(5, 6)]))
    assert census_containing(g, edge) == (
        n * (n - 1) // 2,
        sum(k * (k - 1) for k in range(2, n + 1)),
    )
    assert average_connected_set_size(path_graph(n)) == Fraction(
        sum(k * (n - k + 1) for k in range(1, n + 1)), n * (n + 1) // 2
    )
    assert average_connected_set_size(cycle(n)) == Fraction(
        n * sum(range(1, n)) + n, n * (n - 1) + 1
    )


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
        vertex = SubtreeConstraint(frozenset([v]))
        assert census_containing(g, vertex) == (c.vertex_counts[v], c.vertex_order_sums[v])


# -- the local census inside the block DP ---------------------------------------


def _edge(u: int, v: int) -> SubtreeConstraint:
    return SubtreeConstraint(frozenset([u, v]), frozenset([(u, v)]))


def _cherry(a: int, m: int, b: int) -> SubtreeConstraint:
    return SubtreeConstraint(frozenset([a, m, b]), frozenset([(a, m), (m, b)]))


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
    for n in range(1, 8):
        for g in generate_connected(n):
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
            ca, cs = census_containing(g, _cherry(a, m, b))
            ea, es = census_containing(g, _edge(a, m))
            fa, fs = census_containing(g, _edge(m, b))
            va, vs = census_containing(g, SubtreeConstraint(frozenset([m])))
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
        assert local.edges[(u, v)] == census_containing(g, _edge(u, v))
    at_bridge = [c for c in local.cherries if bridge in c]
    assert len(at_bridge) == 1 + 2 * 8  # 7-22-14, and each hub's 8 other edges
    for a, m, b in at_bridge:
        assert local.cherries[(a, m, b)] == census_containing(g, _cherry(a, m, b))
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
    assert local.edges[(5, 6)] == census_containing(g, _edge(5, 6))
    assert local.cherries[(4, 5, 6)] == census_containing(g, _cherry(4, 5, 6))
