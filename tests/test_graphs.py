"""Graph type, graph6 codec, edit operations, matchings."""

import random

import pytest

from subtrees import (
    Graph,
    are_isomorphic,
    barbell,
    clique,
    cycle,
    from_graph6,
    maximal_matchings,
    maximal_matchings_of_complement,
    path_graph,
    to_graph6,
)
from conftest import contract_by_edges, generated, matchings_by_lists, random_graph


def test_graph6_known_strings():
    assert to_graph6(clique(3)) == "Bw"
    assert to_graph6(Graph(1, (0,))) == "@"
    assert to_graph6(clique(4)) == "C~"
    assert from_graph6("Bw") == clique(3)
    assert from_graph6("@") == Graph(1, (0,))
    assert list(from_graph6("Bg").edges()) == [(0, 1), (1, 2)]


def test_graph6_header_prefix_accepted():
    assert from_graph6(">>graph6<<Bw") == clique(3)


def test_graph6_round_trip_small_orders():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert from_graph6(to_graph6(g)) == g


def test_graph6_long_form_orders_63_64():
    for n in (63, 64):
        rng = random.Random(n)
        g = random_graph(rng, n, 0.3)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g


def test_graph6_malformed():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("Bw\x01")
    with pytest.raises(ValueError):
        from_graph6("B")  # truncated body
    with pytest.raises(ValueError):
        from_graph6("Bww")  # excess body
    with pytest.raises(ValueError):
        from_graph6("~~????")  # order beyond 64


def test_add_delete_edge():
    p3 = path_graph(3)
    assert p3.add_edge(0, 2) == clique(3)
    k3 = clique(3)
    assert sorted(k3.delete_edge(0, 1).edges()) == [(0, 2), (1, 2)]
    with pytest.raises(ValueError):
        k3.add_edge(0, 1)
    with pytest.raises(ValueError):
        p3.delete_edge(0, 2)
    with pytest.raises(ValueError):
        p3.add_edge(1, 1)


def test_contract_edge():
    for n in range(2, 8):
        p = path_graph(n)
        for u, v in p.edges():
            assert are_isomorphic(p.contract_edge(u, v), path_graph(n - 1))
    assert clique(3).contract_edge(0, 1) == clique(2)
    assert are_isomorphic(cycle(4).contract_edge(1, 2), cycle(3))
    with pytest.raises(ValueError):
        path_graph(3).contract_edge(0, 2)


def test_contract_edge_matches_the_edge_set_rebuild():
    # both orientations of every edge of every connected graph of order <= 7
    for _, graphs in generated(2, 7):
        for g in graphs:
            for u, v in g.edges():
                expected = contract_by_edges(g, u, v)
                assert g.contract_edge(u, v) == expected, (g, u, v)
                assert g.contract_edge(v, u) == expected, (g, v, u)


def test_predicates():
    p5 = path_graph(5)
    for u, v in p5.edges():
        assert p5.is_bridge(u, v)
    c5 = cycle(5)
    assert not any(c5.is_cut_vertex(v) for v in range(5))
    assert not any(c5.is_bridge(u, v) for u, v in c5.edges())
    assert p5.is_cut_vertex(2)
    assert not p5.is_cut_vertex(0)
    assert path_graph(4).is_tree()
    assert not cycle(4).is_tree()
    assert Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected() is False


def test_complement():
    assert clique(4).complement().edge_count == 0
    p3c = path_graph(3).complement()
    assert list(p3c.edges()) == [(0, 2)]


def test_maximal_matchings_known_counts():
    # complement of C_5 is again a 5-cycle: five maximal matchings
    assert sum(1 for _ in maximal_matchings_of_complement(cycle(5))) == 5
    # edgeless complement: exactly the empty matching
    assert list(maximal_matchings_of_complement(clique(4))) == [()]
    # path complement of P_3 has the single edge (0,2)
    assert list(maximal_matchings_of_complement(path_graph(3))) == [((0, 2),)]


def test_maximal_matchings_follow_the_list_recursion():
    # the same matchings in the same order as the list-based recursion,
    # on the complement of every connected graph of order <= 7 and of
    # barbell(14,6)
    complements = [g.complement() for _, graphs in generated(1, 7) for g in graphs]
    for h in complements + [barbell(14, 6).complement()]:
        assert list(maximal_matchings(h)) == list(matchings_by_lists(h)), h


def test_maximal_matchings_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        got = set(maximal_matchings(g))
        edges = list(g.edges())
        all_matchings = []
        for bits in range(1 << len(edges)):
            sub = [edges[i] for i in range(len(edges)) if (bits >> i) & 1]
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                all_matchings.append((tuple(sorted(sub)), used))
        expect = set()
        for sub, used in all_matchings:
            if all(u in used or v in used for u, v in edges):
                expect.add(sub)
        assert {tuple(sorted(m)) for m in got} == expect
        assert len(got) == len(set(got))
