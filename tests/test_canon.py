"""Canonical certificates and exhaustive generation."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from subtrees import (
    Graph,
    are_isomorphic,
    barbell,
    canonical_form,
    clique,
    complete_bipartite,
    cycle,
    generate_connected,
    generate_trees,
    path_graph,
    star_graph,
)
import subtrees.canon as canon
from subtrees.cli import main as cli_main
from subtrees.canon import _orbit_reps, _rooted_code, certify
from conftest import (
    automorphisms,
    by_dedupe,
    filled_and_evicting,
    fresh_cache,
    generated,
    orbits_by_imaging,
    random_graph,
    refine_whole_queue,
    same_partition,
)

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


def _is_automorphism(g: Graph, sigma) -> bool:
    return sorted(sigma) == list(range(g.n)) and all(
        g.has_edge(sigma[u], sigma[v]) for u, v in g.edges()
    )


def test_certify_generators_are_automorphisms():
    from subtrees import complete_bipartite, double_broom, modified_barbell, petersen

    rng = random.Random(19)
    graphs = [g for _, order in generated(1, 7) for g in order]
    graphs += [random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    graphs += [barbell(14, 6), double_broom(14, 5), modified_barbell(16, 5, 1), clique(9),
               complete_bipartite(4, 4), petersen(), cycle(16), star_graph(16)]
    for g in graphs:
        for sigma in certify(g)[1]:
            assert _is_automorphism(g, sigma), (g, sigma)


def _closure(n: int, gens) -> set:
    # the group the permutations generate: close {identity} under composition
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        tau = frontier.pop()
        for sigma in gens:
            product = tuple(sigma[tau[v]] for v in range(n))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def test_certify_generators_generate_the_whole_group_up_to_order_6():
    for n, graphs in generated(1, 6):
        for g in graphs:
            assert _closure(n, certify(g)[1]) == set(automorphisms(g)), g


def _assert_brute_force_orbits(g: Graph) -> None:
    # vertices, edges, non-edges, complement matchings, g's own matchings
    # and every non-empty vertex set, against orbits under all of Aut(g)
    from subtrees import maximal_matchings, maximal_matchings_of_complement

    n = g.n
    auts = automorphisms(g)
    gens = certify(g)[1]
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    lists = [
        list(g.edges()),
        non_edges,
        list(maximal_matchings_of_complement(g)),
        list(maximal_matchings(g)),
        range(1, 1 << n),
    ]
    for items in [None] + lists:
        reps = _orbit_reps(n, gens, items)
        keys = list(range(n)) if items is None else [_key(m) for m in items]
        for i, key in enumerate(keys):
            orbit = {_move(sigma, key) for sigma in auts}
            same = {j for j in range(len(keys)) if reps[j] == reps[i]}
            assert same == {j for j, other in enumerate(keys) if other in orbit}, (g, items)


def test_orbit_reps_match_brute_force_orbits():
    for n, graphs in generated(1, 6):
        for g in graphs:
            _assert_brute_force_orbits(g)


def test_orbit_reps_match_brute_force_orbits_on_large_twin_classes():
    # one true-twin class (clique), one false-twin class of six leaves,
    # whose complement matchings have edges inside it (star), and two
    # false-twin classes (K_{3,4})
    for g in [clique(5), star_graph(7), complete_bipartite(3, 4)]:
        _assert_brute_force_orbits(g)


def test_orbit_reps_partition_barbell_matchings_as_imaging_does():
    from subtrees import maximal_matchings_of_complement

    g = barbell(14, 6)
    gens = certify(g)[1]
    matchings = list(maximal_matchings_of_complement(g))
    assert len(matchings) == 27240
    reps = _orbit_reps(g.n, gens, matchings)
    assert len(set(reps)) == 14
    assert same_partition(reps, orbits_by_imaging(g.n, gens, matchings))


def _key(item):
    if isinstance(item, int):
        return frozenset(v for v in range(item.bit_length()) if item >> v & 1)
    if item and isinstance(item[0], int):
        return frozenset(item)
    return frozenset(map(frozenset, item))


def _move(sigma, key):
    if isinstance(key, int):
        return sigma[key]
    return frozenset(_move(sigma, part) for part in key)


def _is_transposition(sigma) -> bool:
    n = len(sigma)
    return sorted(sigma) == list(range(n)) and sum(sigma[v] != v for v in range(n)) == 2


def test_orbit_reps_images_no_transposition(monkeypatch):
    # the twin swaps of K4 are its six transpositions: they join its
    # vertices into one twin class, so every edge has the key (c, c);
    # _image also keys edges and matchings under the class map
    g = clique(4)
    swaps = [sigma for sigma in certify(g)[1] if _is_transposition(sigma)]
    assert len(swaps) == 6
    edges = list(g.edges())
    assert len(set(_orbit_reps(4, swaps[:1], edges))) == 4
    images = []
    original = canon._image
    monkeypatch.setattr(canon, "_image", lambda sigma, item: images.append(tuple(sigma)) or original(sigma, item))
    assert len(set(_orbit_reps(4, swaps, edges))) == 1
    assert images and not any(map(_is_transposition, images))
    # barbell(14,6): of its generators only the mirror, no transposition, is imaged
    g = barbell(14, 6)
    gens = certify(g)[1]
    images.clear()
    edges = list(g.edges())
    _orbit_reps(g.n, gens, edges)
    imaged = set(images) & set(gens)
    assert len(imaged) == 1 and not any(map(_is_transposition, imaged))
    assert images.count(imaged.pop()) == len(edges)


def test_refine_matches_the_whole_queue_oracle():
    # _refine stops at a discrete partition, and a search child queues only
    # its individualised vertex {v}, not also the rest of the target cell:
    # the same cells as processing every splitter, at the root and after
    # individualising each vertex of the first non-singleton cell
    for n, graphs in generated(1, 7):
        for g in graphs:
            rows = g.rows
            whole = [list(range(n))]
            root = canon._refine(rows, whole, [(1 << n) - 1])
            assert root == refine_whole_queue(rows, whole, [(1 << n) - 1]), g
            at = next((i for i, cell in enumerate(root) if len(cell) > 1), None)
            if at is None:
                continue
            for v in root[at]:
                rest = [w for w in root[at] if w != v]
                child = root[:at] + [[v], rest] + root[at + 1 :]
                oracle = refine_whole_queue(rows, child, [1 << v, sum(1 << w for w in rest)])
                assert canon._refine(rows, child, [1 << v]) == oracle, (g, v)


def test_rooted_codes_agree_exactly_on_orbits():
    # x and y have equal rooted codes iff an automorphism maps x to y, on
    # every connected graph of order <= 6
    for n, graphs in generated(1, 6):
        for g in graphs:
            auts = automorphisms(g)
            codes = [_rooted_code(g.rows, n, x) for x in range(n)]
            for x in range(n):
                for y in range(n):
                    assert (codes[x] == codes[y]) == any(s[x] == y for s in auts), (g, x, y)


def test_canonical_form_rejects_large():
    with pytest.raises(ValueError):
        canonical_form(Graph(33, tuple([0] * 33)))


def _certificate_memo_cases() -> list[Graph]:
    # every labelled g+e, g/e and g-e of every connected graph of order
    # <= 6, repeats kept: siblings share labels, so a neighbour often
    # recurs as the same labelled graph, as in a scan.  The 1,371 distinct
    # ones (g-e included for that) fill the 1,024-entry memo.
    graphs = []
    for n, graphs_n in generated(1, 6):
        for g in graphs_n:
            edges = set(g.edges())
            for u, v in itertools.combinations(range(n), 2):
                if (u, v) in edges:
                    graphs += [g.contract_edge(u, v), g.delete_edge(u, v)]
                else:
                    graphs.append(g.add_edge(u, v))
    return graphs + [clique(5), barbell(8, 3)]


@pytest.mark.parametrize("limit", [None, 8])
def test_warm_certificate_memo_matches_a_cold_one(monkeypatch, limit):
    graphs = _certificate_memo_cases()
    cache = fresh_cache(monkeypatch, canon, "_certificate")
    cold = [certify(g)[0] for g in graphs]
    assert cache.cache_info().currsize == 0  # certify keeps no memo
    if limit is not None:
        cache = fresh_cache(monkeypatch, canon, "_certificate", limit)
    searched = []
    monkeypatch.setattr(canon, "certify", lambda g, f=certify: searched.append(g) or f(g))
    assert [canonical_form(g) for g in graphs] == cold
    assert len(searched) < len(graphs)  # repeats were served by the cache
    assert filled_and_evicting(cache)
    held = cache.cache_info().currsize
    with pytest.raises(ValueError):
        canonical_form(Graph(33, tuple([0] * 33)))
    assert cache.cache_info().currsize == held
    searches = len(searched)
    canonical_form(graphs[-1])
    assert len(searched) == searches  # the newest entry is still held


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def test_generate_connected_counts():
    for n, graphs in generated(1, 8):
        assert len(graphs) == CONNECTED_COUNTS[n]
        if n == 6:  # the lists built order by order are what the generator streams
            assert list(generate_connected(n)) == graphs


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
    for n, graphs in generated(4, 6):
        assert all(g.is_connected() for g in graphs)
        certs = [canonical_form(g) for g in graphs]
        assert len(set(certs)) == len(certs)


def _certificates(graphs) -> list[bytes]:
    return sorted(canonical_form(g) for g in graphs)


def test_generate_connected_matches_dedupe_oracle():
    for (n, graphs), oracle in zip(generated(1, 7), by_dedupe(7)):
        assert _certificates(graphs) == _certificates(oracle), n


@pytest.mark.slow
def test_generate_connected_matches_dedupe_oracle_at_order_8():
    graphs, oracle = list(generate_connected(8)), list(by_dedupe(8))[-1]
    assert _certificates(graphs) == _certificates(oracle)
    assert Counter(g.edge_count for g in graphs) == Counter(g.edge_count for g in oracle)


def test_generate_connected_dedupes_masks_of_one_orbit(monkeypatch):
    # with no automorphisms known, every attachment mask is tried, so
    # isomorphic children of one parent meet and only one may stay
    monkeypatch.setattr(canon, "certify", lambda g, certify=certify: (certify(g)[0], []))
    for (n, graphs), oracle in zip(generated(1, 7), by_dedupe(7)):
        assert _certificates(graphs) == _certificates(oracle), n


def test_generate_trees_dedupes_masks_of_one_orbit(monkeypatch):
    # the same for leaf attachments: every leaf is tried
    monkeypatch.setattr(canon, "certify", lambda g, certify=certify: (certify(g)[0], []))
    for (n, trees), oracle in zip(generated(1, 10, leaves=True), by_dedupe(10, leaves=True)):
        assert _certificates(trees) == _certificates(oracle), n


def _count_children(monkeypatch) -> list:
    calls = []

    def counted(parent, leaves=False, children=canon._children):
        calls.append(parent.n)
        return children(parent, leaves)

    monkeypatch.setattr(canon, "_children", counted)
    return calls


@pytest.mark.parametrize("generate, n", [(generate_connected, 8), (generate_trees, 16)])
def test_generation_streams_depth_first(monkeypatch, generate, n):
    # the first graph of order n needs one expansion per order below it,
    # not the whole order n-1 universe
    calls = _count_children(monkeypatch)
    first = next(generate(n))
    assert first.n == n and first.is_connected()
    assert calls == list(range(1, n))


def test_generation_keeps_no_module_state(monkeypatch):
    # a second call expands every parent again: nothing was cached, so a
    # benchmark round that generates a universe pays for all of it
    list(generate_connected(5))
    calls = _count_children(monkeypatch)
    assert sum(1 for _ in generate_connected(5)) == CONNECTED_COUNTS[5]
    assert len(calls) == sum(CONNECTED_COUNTS[k] for k in range(1, 5))


def test_generate_connected_deterministic_order():
    first = [canonical_form(g) for g in generate_connected(6)]
    second = [canonical_form(g) for g in generate_connected(6)]
    assert first == second


def test_cli_generate_ignores_hash_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "subtrees", "generate", "7"],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "12345")
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 853


def test_cli_generate_7_prints_pinned_bytes(capsys):
    # scan checkpoints fingerprint the lines of `generate N`: a change of
    # generation order would invalidate them without an error
    assert cli_main(["generate", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "0f0d7ea0d3dfc0ffa340589b97da6730e02fab409324a6eb5b154042532ae7e4"
    )


def test_generate_connected_caps_at_8():
    with pytest.raises(ValueError):
        list(generate_connected(9))


@pytest.mark.parametrize(
    "generate, n",
    [(generate_connected, 0), (generate_connected, 9), (generate_trees, 0), (generate_trees, 17)],
)
def test_generation_rejects_an_order_out_of_range_at_the_call(generate, n):
    # not at the first next(): the bare call raises
    with pytest.raises(ValueError, match="supports 1 <= n <="):
        generate(n)


# Otter's counts of free trees (A000055)
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159,
}


def test_generate_trees_counts():
    for n, trees in generated(1, 14, leaves=True):
        assert len(trees) == TREE_COUNTS[n]
        assert all(t.is_tree() for t in trees)
        if n == 9:  # the lists built order by order are what the generator streams
            assert list(generate_trees(n)) == trees


def test_generate_trees_matches_dedupe_oracle():
    for (n, trees), oracle in zip(generated(1, 12, leaves=True), by_dedupe(12, leaves=True)):
        assert _certificates(trees) == _certificates(oracle), n


def test_symmetric_family_certificates():
    assert are_isomorphic(star_graph(5).relabel([4, 3, 2, 1, 0]), star_graph(5))
    assert not are_isomorphic(star_graph(5), path_graph(5))
