"""Check battery semantics on small, hand-verifiable graphs."""

from fractions import Fraction

import pytest

from subtrees import (
    barbell,
    check_contraction,
    check_edge_addition_exists,
    check_edge_deletion_exists,
    check_local_global,
    check_local_mean_bound,
    check_matchings,
    check_max_clique,
    check_min_path,
    check_monotonicity_reversal,
    check_mu_vs_av,
    check_ratio_chain,
    check_transitive_inequalities,
    check_vertex_share_bound,
    classify_edge_additions,
    clique,
    complete_bipartite,
    cycle,
    generate_connected,
    path_graph,
    star_graph,
)
from subtrees.harness import FAILS, HOLDS, REPORT


def test_min_path_verdicts():
    v = check_min_path(path_graph(7))
    assert v.status == HOLDS and v.witness["equality"] is True
    v = check_min_path(clique(5))
    assert v.status == HOLDS and v.witness["equality"] is False
    for n in range(1, 7):
        equality_hits = 0
        for g in generate_connected(n):
            verdict = check_min_path(g)
            assert verdict.status == HOLDS
            equality_hits += bool(verdict.witness.get("equality"))
        assert equality_hits == 1  # the equality set is exactly the path


def test_max_clique_verdicts():
    v = check_max_clique(clique(6))
    assert v.status == HOLDS and v.witness.get("equality")
    v = check_max_clique(star_graph(6))
    assert v.status == HOLDS and "equality" not in v.witness
    for n in range(1, 7):
        for g in generate_connected(n):
            assert check_max_clique(g).status == HOLDS


def test_edge_deletion_and_addition_exists():
    v = check_edge_deletion_exists(cycle(4))
    assert v.status == HOLDS
    assert v.witness["edge"] in [list(e) for e in cycle(4).edges()]
    v = check_edge_deletion_exists(path_graph(5))
    assert v.status == REPORT and v.witness["vacuous"] == "tree"
    v = check_edge_addition_exists(path_graph(5))
    assert v.status == HOLDS
    v = check_edge_addition_exists(clique(4))
    assert v.status == REPORT and v.witness["vacuous"] == "complete"
    for n in range(2, 7):
        for g in generate_connected(n):
            assert check_edge_deletion_exists(g).status in (HOLDS, REPORT)
            assert check_edge_addition_exists(g).status != FAILS
            if not g.is_tree():
                assert check_edge_deletion_exists(g).status == HOLDS
            if g.edge_count < n * (n - 1) // 2:
                assert check_edge_addition_exists(g).status == HOLDS


def test_contraction_check():
    v = check_contraction(path_graph(5))
    assert v.status == HOLDS
    assert v.witness["min_gap"] == "1/3"
    assert len(v.witness["equality_edges"]) == 4  # every path edge is tight
    for n in range(2, 9):
        v = check_contraction(path_graph(n))
        assert v.status == HOLDS and v.witness["is_path"]
    v = check_contraction(star_graph(5))
    assert v.status == HOLDS and not v.witness["equality_edges"]
    # open for non-trees: status never 'fails' on small scans
    for n in range(2, 7):
        for g in generate_connected(n):
            verdict = check_contraction(g)
            if g.is_tree():
                assert verdict.status == HOLDS
            else:
                assert verdict.status in (HOLDS, REPORT)
            assert verdict.witness["contraction"] == "simple"


def test_local_global_check():
    for n in range(2, 7):
        for g in generate_connected(n):
            assert check_local_global(g).status == HOLDS


def test_ratio_chain_small():
    for n in range(1, 7):
        for g in generate_connected(n):
            assert check_ratio_chain(g).status == HOLDS
    v = check_ratio_chain(clique(5))
    assert v.status == HOLDS
    v = check_ratio_chain(star_graph(6))
    assert v.status == HOLDS


def test_ratio_chain_clique_equalities():
    # every clique comparison is tight: the chain, the near-spanning ratio,
    # the spanning fraction and the mean all meet their own bounds
    from subtrees import census, clique_subtree_count, clique_subtree_count_by_order

    for n in range(2, 8):
        c = census(clique(n))
        for k in range(1, n + 1):
            assert c.counts[k] == clique_subtree_count_by_order(n, k)
        assert c.num_subtrees == clique_subtree_count(n)
        assert check_ratio_chain(clique(n)).status == HOLDS


def test_mu_vs_av_check():
    v = check_mu_vs_av(path_graph(6))
    assert v.status == REPORT and v.witness["sign"] == 0 and v.witness["tree"]
    v = check_mu_vs_av(clique(4))
    assert v.status == REPORT
    assert v.witness["mu"] == "58/19" and v.witness["av"] == "32/15"
    assert v.witness["sign"] == 1
    for n in range(1, 7):
        for g in generate_connected(n):
            verdict = check_mu_vs_av(g)
            assert verdict.status == REPORT
            assert verdict.witness["sign"] >= 0  # no violation among small graphs
            if g.is_tree():
                assert verdict.witness["sign"] == 0


def test_local_mean_bound_small():
    for n in range(1, 7):
        for g in generate_connected(n):
            assert check_local_mean_bound(g).status == HOLDS


def test_vertex_share_bound_small():
    for n in range(3, 7):
        for g in generate_connected(n):
            assert check_vertex_share_bound(g).status == HOLDS
    v = check_vertex_share_bound(path_graph(6))
    assert v.status == HOLDS and v.witness["margin"] == 0 and v.witness["is_path"]
    v = check_vertex_share_bound(clique(2))
    assert v.status == REPORT


def test_matchings_check_small():
    v = check_matchings(clique(5))
    assert v.status == REPORT
    assert v.witness == {
        "matchings": 1,
        "orbits": 1,
        "decrease": 0,
        "unchanged": 1,
        "increase": 0,
    }
    v = check_matchings(path_graph(4))
    assert v.status == REPORT
    assert v.witness["matchings"] == 2 and v.witness["increase"] == 2


def test_transitive_check():
    for g in (cycle(6), clique(5), complete_bipartite(3, 3)):
        v = check_transitive_inequalities(g)
        assert v.status == HOLDS
        assert v.witness["chain"] and v.witness["convex_identity"]
    with pytest.raises(ValueError):
        check_transitive_inequalities(star_graph(4))  # vertex means differ
    # vertex-transitive but not edge-transitive: the triangular prism
    from subtrees import Graph

    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    with pytest.raises(ValueError):
        check_transitive_inequalities(prism)


def test_classify_edge_additions_small():
    # completing the nearly complete graph is the unique positive move
    g = clique(5).delete_edge(0, 1)
    report = classify_edge_additions(g)
    assert len(report.classes) == 1
    assert report.classes[0].sign == 1
    # all chords of a 5-cycle are equivalent and share one sign
    report = classify_edge_additions(cycle(5))
    assert len(report.classes) == 1
    assert report.classes[0].size == 5
    assert report.classes[0].sign == 1


def test_classify_edge_additions_small_barbell():
    report = classify_edge_additions(barbell(10, 4))
    assert sum(c.size for c in report.classes) == 45 - barbell(10, 4).edge_count


def test_monotonicity_reversal():
    v = check_monotonicity_reversal(1, 1, 12, 5)
    assert v.status == HOLDS
    assert Fraction(844, 115) == _frac(v.witness["mu_small"])
    assert Fraction(22, 3) == _frac(v.witness["mu_large"])
    v = check_monotonicity_reversal(2, 1, 13, 5)
    assert v.status == HOLDS
    with pytest.raises(ValueError):
        check_monotonicity_reversal(1, 0, 12, 5)


def _frac(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


def test_is_tree_on_families():
    assert not barbell(14, 6).is_tree()
    assert path_graph(9).is_tree()
    assert star_graph(7).is_tree()
    assert not cycle(5).is_tree()


@pytest.mark.slow
def test_exists_checks_exhaustive_order_7():
    # no order-7 graph lacks a helpful deletion or addition
    for g in generate_connected(7):
        if not g.is_tree():
            assert check_edge_deletion_exists(g).status == HOLDS
        if g.edge_count < 21:
            assert check_edge_addition_exists(g).status == HOLDS


@pytest.mark.slow
def test_mu_vs_av_exhaustive_order_8():
    # the open question has no violation up to order 8: sign never negative
    for n in range(7, 9):
        for g in generate_connected(n):
            verdict = check_mu_vs_av(g)
            assert verdict.witness["sign"] >= 0, verdict.graph_id
            if g.is_tree():
                assert verdict.witness["sign"] == 0


def test_checks_reject_disconnected():
    from subtrees import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for fn in (
        check_min_path,
        check_max_clique,
        check_contraction,
        check_ratio_chain,
        check_mu_vs_av,
        check_local_mean_bound,
        check_vertex_share_bound,
        check_matchings,
    ):
        with pytest.raises(ValueError):
            fn(g)


# -- the shared check context ---------------------------------------------------


def _without_runtime(verdict) -> tuple:
    return (verdict.check, verdict.graph_id, verdict.status, verdict.witness, verdict.mean)


def test_shared_context_verdicts_match_fresh_ones():
    from subtrees import CHECKS, CheckContext

    memo: dict = {}
    for n in range(1, 7):
        for g in generate_connected(n):
            ctx = CheckContext(g, memo)
            for name, fn in CHECKS.items():
                shared = fn(g, ctx=ctx)
                assert _without_runtime(shared) == _without_runtime(fn(g)), (name, shared.graph_id)


def test_context_rejects_another_graph():
    from subtrees import CheckContext

    with pytest.raises(ValueError, match="another graph"):
        check_min_path(path_graph(4), ctx=CheckContext(star_graph(4)))


def test_context_is_keyword_only():
    from subtrees import CheckContext

    g = path_graph(5)
    # max_order stays the second positional argument of local-mean-bound
    assert check_local_mean_bound(g, 2).witness["max_constraint_order"] == 2
    assert check_local_mean_bound(g, 2, ctx=CheckContext(g)).witness["max_constraint_order"] == 2
    with pytest.raises(TypeError):
        check_min_path(g, CheckContext(g))


def test_vertex_means_from_census_match_anchored_census():
    from subtrees import CheckContext
    from subtrees.census import SubtreeConstraint, census_containing

    for n in range(1, 7):
        for g in generate_connected(n):
            ctx = CheckContext(g)
            for v in range(n):
                constraint = SubtreeConstraint(frozenset([v]))
                assert ctx.anchored(constraint) == census_containing(g, constraint)


def test_edge_and_cherry_means_from_local_census_match_anchored_census():
    # edges and cherries come from the local census; a 2-vertex forest
    # still goes through census_containing
    from subtrees import CheckContext
    from subtrees.census import SubtreeConstraint, census_containing

    for n in range(2, 7):
        for g in generate_connected(n):
            ctx = CheckContext(g)
            constraints = []
            for u, v in g.edges():
                constraints.append(SubtreeConstraint(frozenset([u, v]), frozenset([(v, u)])))
                constraints.append(SubtreeConstraint(frozenset([u, v])))
                for w in range(n):
                    if w not in (u, v) and g.has_edge(v, w):
                        constraints.append(
                            SubtreeConstraint(frozenset([u, v, w]), frozenset([(u, v), (w, v)]))
                        )
            for constraint in constraints:
                assert ctx.anchored(constraint) == census_containing(g, constraint), constraint


def _count_calls(monkeypatch, name: str) -> list:
    import subtrees.harness as harness

    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_context_builds_local_census_at_most_once(monkeypatch):
    from subtrees import CheckContext

    built = _count_calls(monkeypatch, "local_census")
    anchored = _count_calls(monkeypatch, "census_containing")
    for g in (cycle(6), clique(5), complete_bipartite(3, 3)):
        ctx = CheckContext(g)
        for fn in (check_local_global, check_local_mean_bound, check_transitive_inequalities):
            assert fn(g, ctx=ctx).status == HOLDS
        assert built == [(g,)]
        built.clear()
        for fn in (check_min_path, check_ratio_chain):
            fn(g, ctx=CheckContext(g))
        assert built == []
    assert anchored == []


def test_local_mean_bound_rejects_max_order_before_any_census(monkeypatch):
    import subtrees.harness as harness

    def no_census(g):
        raise AssertionError("census work before the max_order check")

    monkeypatch.setattr(harness, "census", no_census)
    monkeypatch.setattr(harness, "local_census", no_census)
    for max_order in (0, -1, 4):
        with pytest.raises(ValueError, match="max_order"):
            check_local_mean_bound(barbell(14, 6), max_order)


def test_structural_shape_tests_match_certificates():
    from subtrees import canonical_form
    from subtrees.harness import _is_clique, _is_path, _is_star

    for n in range(1, 7):
        shapes = {
            _is_path: canonical_form(path_graph(n)),
            _is_star: canonical_form(star_graph(n)),
            _is_clique: canonical_form(clique(n)),
        }
        for g in generate_connected(n):
            cert = canonical_form(g)
            for test, shape in shapes.items():
                assert test(g) == (cert == shape), (test.__name__, g)


def test_scan_memo_holds_one_mean_per_certificate():
    from subtrees import CHECKS, canonical_form, census
    from subtrees.scan import _run_checks

    universe = [g for n in range(1, 7) for g in generate_connected(n)]
    memo: dict = {}
    for g in universe:
        _run_checks(g, tuple(CHECKS), memo)
    # every neighbour of a connected graph of order <= 6 is again one of
    # them, and every one of them looked a neighbour up, so the memo holds
    # exactly their certificates, each with its mean and nothing more
    assert memo == {canonical_form(g): census(g).mean for g in universe}
    assert all(type(mean) is Fraction for mean in memo.values())
