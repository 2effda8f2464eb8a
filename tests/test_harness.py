"""Check battery semantics on small, hand-verifiable graphs."""

import sys
from fractions import Fraction

import pytest

from subtrees import (
    CHECKS,
    CheckContext,
    barbell,
    check_monotonicity_reversal,
    check_transitive_inequalities,
    classify_edge_additions,
    clique,
    census,
    complete_bipartite,
    cycle,
    generate_connected,
    path_graph,
    run_checks,
    star_graph,
)
from subtrees.harness import FAILS, HOLDS, REPORT, _transitive_inequalities

from conftest import generated


def run(name: str, g):
    """The verdict of the check ``name`` on g, in a fresh context."""
    return CheckContext(g).run(name, CHECKS[name])


def test_min_path_verdicts():
    v = run("min-path", path_graph(7))
    assert v.status == HOLDS and v.witness["equality"] is True
    v = run("min-path", clique(5))
    assert v.status == HOLDS and v.witness["equality"] is False
    for n, order in generated(1, 6):
        equality_hits = 0
        for g in order:
            verdict = run("min-path", g)
            assert verdict.status == HOLDS
            equality_hits += bool(verdict.witness.get("equality"))
        assert equality_hits == 1  # the equality set is exactly the path


def test_max_clique_verdicts():
    v = run("max-clique", clique(6))
    assert v.status == HOLDS and v.witness.get("equality")
    v = run("max-clique", star_graph(6))
    assert v.status == HOLDS and "equality" not in v.witness
    for n, order in generated(1, 6):
        for g in order:
            assert run("max-clique", g).status == HOLDS


def test_edge_deletion_and_addition_exists():
    v = run("edge-deletion-exists", cycle(4))
    assert v.status == HOLDS
    assert v.witness["edge"] in [list(e) for e in cycle(4).edges()]
    v = run("edge-deletion-exists", path_graph(5))
    assert v.status == REPORT and v.witness["vacuous"] == "tree"
    v = run("edge-addition-exists", path_graph(5))
    assert v.status == HOLDS
    v = run("edge-addition-exists", clique(4))
    assert v.status == REPORT and v.witness["vacuous"] == "complete"
    for n, order in generated(2, 6):
        for g in order:
            assert run("edge-deletion-exists", g).status in (HOLDS, REPORT)
            assert run("edge-addition-exists", g).status != FAILS
            if not g.is_tree():
                assert run("edge-deletion-exists", g).status == HOLDS
            if g.edge_count < n * (n - 1) // 2:
                assert run("edge-addition-exists", g).status == HOLDS


def test_contraction_check():
    v = run("contraction-gap", path_graph(5))
    assert v.status == HOLDS
    assert v.witness["min_gap"] == "1/3"
    assert len(v.witness["equality_edges"]) == 4  # every path edge is tight
    for n in range(2, 9):
        v = run("contraction-gap", path_graph(n))
        assert v.status == HOLDS and v.witness["is_path"]
    v = run("contraction-gap", star_graph(5))
    assert v.status == HOLDS and not v.witness["equality_edges"]
    # open for non-trees: status never 'fails' on small scans
    for n, order in generated(2, 6):
        for g in order:
            verdict = run("contraction-gap", g)
            if g.is_tree():
                assert verdict.status == HOLDS
            else:
                assert verdict.status in (HOLDS, REPORT)
            assert verdict.witness["contraction"] == "simple"


def test_local_global_check():
    for n, order in generated(2, 6):
        for g in order:
            assert run("local-global", g).status == HOLDS


def test_ratio_chain_small():
    for n, order in generated(1, 6):
        for g in order:
            assert run("ratio-chain", g).status == HOLDS
    v = run("ratio-chain", clique(5))
    assert v.status == HOLDS
    v = run("ratio-chain", star_graph(6))
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
        assert run("ratio-chain", clique(n)).status == HOLDS


def test_mu_vs_av_check():
    v = run("mean-vs-average", path_graph(6))
    assert v.status == REPORT and v.witness["sign"] == 0 and v.witness["tree"]
    v = run("mean-vs-average", clique(4))
    assert v.status == REPORT
    assert v.witness["mu"] == "58/19" and v.witness["av"] == "32/15"
    assert v.witness["sign"] == 1
    for n, order in generated(1, 6):
        for g in order:
            verdict = run("mean-vs-average", g)
            assert verdict.status == REPORT
            assert verdict.witness["sign"] >= 0  # no violation among small graphs
            if g.is_tree():
                assert verdict.witness["sign"] == 0


def test_local_mean_bound_small():
    for n, order in generated(1, 6):
        for g in order:
            assert run("local-mean-bound", g).status == HOLDS


def test_vertex_share_bound_small():
    for n, order in generated(3, 6):
        for g in order:
            assert run("vertex-share-bound", g).status == HOLDS
    v = run("vertex-share-bound", path_graph(6))
    assert v.status == HOLDS and v.witness["margin"] == 0 and v.witness["is_path"]
    v = run("vertex-share-bound", clique(2))
    assert v.status == REPORT


def test_matchings_check_small():
    v = run("matchings", clique(5))
    assert v.status == REPORT
    assert v.witness == {
        "matchings": 1,
        "orbits": 1,
        "decrease": 0,
        "unchanged": 1,
        "increase": 0,
    }
    v = run("matchings", path_graph(4))
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


def test_transitive_check_enumerates_once(monkeypatch):
    # one local census gives the plain census too
    from subtrees import petersen

    calls = {name: _count_calls(monkeypatch, name) for name in ("census", "local_census")}
    assert check_transitive_inequalities(petersen()).status == HOLDS
    assert {name: len(args) for name, args in calls.items()} == {"census": 0, "local_census": 1}


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


def test_classify_edge_additions_matches_a_brute_grouping():
    from subtrees import canonical_form, to_graph6

    for g in [g for _, order in generated(1, 6) for g in order] + [barbell(10, 4)]:
        by_cert: dict = {}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    by_cert.setdefault(canonical_form(g.add_edge(u, v)), []).append((u, v))
        base = census(g).mean
        expected = []
        for edges in sorted(by_cert.values()):
            delta = census(g.add_edge(*edges[0])).mean - base
            expected.append((edges[0], edges, delta, (delta > 0) - (delta < 0)))
        report = classify_edge_additions(g)
        assert (report.graph_id, report.base_mean) == (to_graph6(g), base)
        got = [(c.representative, c.edges, c.mean_delta, c.sign) for c in report.classes]
        assert got == expected, g


def test_classify_edge_additions_certifies_one_neighbour_per_orbit(monkeypatch):
    # the 56 non-edges of barbell(14, 6) fall into 6 orbits, one per class
    priced = _count_calls(monkeypatch, "canonical_form")
    report = classify_edge_additions(barbell(14, 6))
    assert len(priced) == len(report.classes) == 6


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
            assert run("edge-deletion-exists", g).status == HOLDS
        if g.edge_count < 21:
            assert run("edge-addition-exists", g).status == HOLDS


@pytest.mark.slow
def test_mu_vs_av_exhaustive_order_8():
    # the open question has no violation up to order 8: sign never negative
    for n, order in generated(7, 8):
        for g in order:
            verdict = run("mean-vs-average", g)
            assert verdict.witness["sign"] >= 0, verdict.graph_id
            if g.is_tree():
                assert verdict.witness["sign"] == 0


def test_checks_reject_disconnected():
    from subtrees import Graph

    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        CheckContext(g)
    for name in CHECKS:
        with pytest.raises(ValueError, match="connected"):
            run_checks(g, [name])
    with pytest.raises(ValueError, match="connected"):
        check_transitive_inequalities(g)
    with pytest.raises(ValueError, match="connected"):
        classify_edge_additions(g)


def test_a_parent_context_past_the_generation_cap_is_refused():
    # a child of MAX_GENERATE + 1 vertices would need its parent's table of
    # 2**MAX_GENERATE subset kappas: refused when the context is made
    from subtrees.canon import MAX_GENERATE

    n = MAX_GENERATE + 1
    parent = CheckContext(clique(n - 1))
    with pytest.raises(ValueError, match=f"at most {MAX_GENERATE} vertices, not {n}"):
        CheckContext(clique(n), parent=parent)
    # at the cap, and without a parent past it, a context is made
    child = CheckContext(clique(n - 1), parent=CheckContext(clique(n - 2)))
    assert child.census == census(clique(n - 1))
    assert CheckContext(clique(n)).census == census(clique(n))


# -- the shared check context ---------------------------------------------------


def _without_runtime(verdict) -> tuple:
    return (verdict.check, verdict.graph_id, verdict.status, verdict.witness, verdict.mean)


def test_shared_context_verdicts_match_fresh_ones():
    memo: dict = {}
    for n, order in generated(1, 6):
        for g in order:
            shared = run_checks(g, tuple(CHECKS), memo)
            for name, verdict in zip(CHECKS, shared):
                assert verdict.check == name
                assert _without_runtime(verdict) == _without_runtime(run(name, g)), (name, g)


def test_run_checks_reads_the_registry_at_each_call(monkeypatch):
    # a tracer swaps the entries of CHECKS after import; the runner must see them
    called = []
    original = CHECKS["min-path"]

    def traced(ctx):
        called.append(ctx.g)
        return original(ctx)

    monkeypatch.setitem(CHECKS, "min-path", traced)
    g = path_graph(4)
    (verdict,) = run_checks(g, ["min-path"])
    assert called == [g]
    assert (verdict.check, verdict.status) == ("min-path", HOLDS)


def test_vertex_means_from_census_match_anchored_census():
    from subtrees.census import census_containing

    for n, order in generated(1, 6):
        for g in order:
            c = CheckContext(g).census
            for v in range(n):
                got = (c.vertex_counts[v], c.vertex_order_sums[v])
                assert got == census_containing(g, [v])


def test_edge_and_cherry_means_from_local_census_match_anchored_census():
    from subtrees.census import census_containing

    for n, order in generated(2, 6):
        for g in order:
            local = CheckContext(g).local_census
            assert set(local.edges) == set(g.edges())
            for (u, v), totals in local.edges.items():
                assert totals == census_containing(g, (v, u)), (g, u, v)
            cherries = {
                (a, m, b)
                for m in range(n)
                for a in range(n)
                for b in range(a + 1, n)
                if m not in (a, b) and g.has_edge(a, m) and g.has_edge(m, b)
            }
            assert set(local.cherries) == cherries
            for (a, m, b), totals in local.cherries.items():
                assert totals == census_containing(g, (a, m, b)), (g, a, m, b)


def _count_calls(monkeypatch, name: str, owner=None) -> list:
    """The argument tuples of every call of ``owner.name`` from now on;
    ``owner`` defaults to the harness module."""
    import subtrees.harness as harness

    owner = harness if owner is None else owner
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_context_builds_local_census_at_most_once(monkeypatch):
    built = _count_calls(monkeypatch, "local_census")
    anchored = _count_calls(monkeypatch, "census_containing")
    for g in (cycle(6), clique(5), complete_bipartite(3, 3)):
        ctx = CheckContext(g)
        for name in ("local-global", "local-mean-bound"):
            assert ctx.run(name, CHECKS[name]).status == HOLDS
        assert ctx.run("transitive", _transitive_inequalities).status == HOLDS
        assert built == [(g,)]
        built.clear()
        for name in ("min-path", "ratio-chain"):
            run(name, g)
        assert built == []
    assert anchored == []


def test_a_child_context_inherits_its_census_through_a_parent_context(monkeypatch):
    from subtrees.canon import _children

    censused = _count_calls(monkeypatch, "census")
    tabled = _count_calls(monkeypatch, "subset_kappas")
    # the package re-exports the function `census` under its submodule's
    # name, so the module is reached through sys.modules
    module = sys.modules["subtrees.census"]
    kernels = [_count_calls(monkeypatch, name, module) for name in ("_det_bareiss", "_adjugate")]
    grown = _count_calls(monkeypatch, "_connected_sets", module)
    for _, parents in generated(1, 6):
        for p in parents:
            children = list(_children(p))
            wants = [census(child) for child in children]
            parent = CheckContext(p)
            for child, want in zip(children, wants):
                # counts, totals and both vertex tables
                assert CheckContext(child, parent=parent).census == want, child
            # the parent censuses itself and builds its subset table once,
            # for the first child that asks
            assert censused == ([(p,)] if children else []), p
            assert tabled == ([(p,)] if children else []), p
            censused.clear()
            tabled.clear()
            # once the parent's census exists, a child's census is the
            # parent's table and one layer through the new vertex: no
            # determinant, no adjugate, no connected set grown
            parent = CheckContext(p)
            assert parent.census == census(p)
            for calls in (*kernels, grown):
                calls.clear()
            for child, want in zip(children, wants):
                assert CheckContext(child, parent=parent).census == want, child
            assert kernels == [[], []] and grown == [], p
            assert tabled == ([(p,)] if children else []), p
            censused.clear()
            tabled.clear()
            # a local context reads its census off its local census, so the
            # parent's census is never built
            parent = CheckContext(p)
            for child in children:
                assert CheckContext(child, local=True, parent=parent).census == census(child), child
            assert censused == [], p


def test_scan_with_a_local_check_takes_the_base_census_from_the_local_census(monkeypatch):
    from subtrees.harness import LOCAL_CHECKS

    assert LOCAL_CHECKS < set(CHECKS)
    graphs = (cycle(6), barbell(8, 3), complete_bipartite(3, 3))
    # the verdicts of every check, each in a fresh context
    alone = {g: {name: run(name, g) for name in CHECKS} for g in graphs}
    censused = _count_calls(monkeypatch, "census")
    built = _count_calls(monkeypatch, "local_census")
    for g in graphs:
        for names in (("local-global",), ("min-path", "local-mean-bound"), tuple(CHECKS)):
            verdicts = run_checks(g, names, {})
            assert built == [(g,)], names
            assert all(args[0] != g for args in censused), names  # neighbours only
            for verdict in verdicts:
                want = alone[g][verdict.check]
                assert (verdict.status, verdict.witness, verdict.mean) == (
                    want.status,
                    want.witness,
                    want.mean,
                )
            built.clear()
            censused.clear()
        run_checks(g, ("min-path", "ratio-chain"), {})
        assert built == []
        assert censused == [(g,)]
        censused.clear()


def test_structural_shape_tests_match_certificates():
    from subtrees import canonical_form
    from subtrees.harness import _is_clique, _is_path, _is_star

    for n, order in generated(1, 6):
        shapes = {
            _is_path: canonical_form(path_graph(n)),
            _is_star: canonical_form(star_graph(n)),
            _is_clique: canonical_form(clique(n)),
        }
        for g in order:
            cert = canonical_form(g)
            for test, shape in shapes.items():
                assert test(g) == (cert == shape), (test.__name__, g)


def test_scan_memo_holds_one_mean_per_certificate():
    from subtrees import canonical_form

    universe = [g for _, order in generated(1, 6) for g in order]
    memo: dict = {}
    for g in universe:
        run_checks(g, tuple(CHECKS), memo)
    # every neighbour of a connected graph of order <= 6 is again one of
    # them, and every one of them looked a neighbour up, so the memo holds
    # exactly their certificates, each with its mean and nothing more
    assert memo == {canonical_form(g): census(g).mean for g in universe}
    assert all(type(mean) is Fraction for mean in memo.values())


# -- neighbour checks over automorphism orbits ----------------------------------

NEIGHBOUR_CHECKS = ("edge-addition-exists", "contraction-gap", "matchings")


def _neighbour_check_graphs() -> list:
    from subtrees import double_broom, modified_barbell

    graphs = [g for _, order in generated(1, 6) for g in order]
    return graphs + [barbell(8, 3), double_broom(8, 3), modified_barbell(9, 3, 1)]


class _EveryNeighbour(CheckContext):
    """A context that censuses every candidate neighbour: no orbits, no memo."""

    def neighbour_means(self, items, build):
        from subtrees import canonical_form

        for item in items:
            h = build(item)
            yield item, census(h).mean, True, canonical_form(h)


def _comparable(verdict) -> tuple:
    witness = dict(verdict.witness)
    if verdict.check == "matchings":
        witness.pop("orbits")
    return (verdict.check, verdict.graph_id, verdict.status, witness, verdict.mean)


def test_neighbour_checks_match_a_census_of_every_neighbour():
    for g in _neighbour_check_graphs():
        for name in NEIGHBOUR_CHECKS:
            expected = _EveryNeighbour(g).run(name, CHECKS[name])
            assert _comparable(run(name, g)) == _comparable(expected), (name, g)


def test_matching_orbits_are_the_automorphism_orbits_up_to_order_6():
    from subtrees import maximal_matchings_of_complement
    from conftest import automorphisms

    for n, order in generated(1, 6):
        for g in order:
            auts = automorphisms(g)
            orbits = {
                min(
                    tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for u, v in m))
                    for sigma in auts
                )
                for m in maximal_matchings_of_complement(g)
            }
            assert run("matchings", g).witness["orbits"] == len(orbits), g


def test_neighbour_means_prices_each_orbit_once(monkeypatch):
    # the 64 maximal complement matchings of barbell(8, 3) fall into 13
    # orbits, and each orbit certifies one augmented graph
    priced = _count_calls(monkeypatch, "canonical_form")
    verdict = run("matchings", barbell(8, 3))
    assert len(priced) == verdict.witness["orbits"] < verdict.witness["matchings"]


# -- g-e read off the local census ----------------------------------------------


@pytest.mark.parametrize("max_order", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_edge_deletion_reads_each_deletion_off_the_local_census(max_order):
    from subtrees.census import local_census
    from subtrees.harness import frac_str

    for n, order in generated(1, max_order):
        for g in order:
            c, local = census(g), local_census(g)
            witness = None  # the first helpful deletion in label order
            for (u, v), (nc, rc) in local.edges.items():
                if g.is_bridge(u, v):
                    continue
                # the subtrees of g-e are those of g that avoid e
                mu2 = census(g.delete_edge(u, v)).mean
                assert Fraction(c.order_sum - rc, c.num_subtrees - nc) == mu2, (g, u, v)
                if witness is None and mu2 < c.mean:
                    witness = {"edge": [u, v], "mu_after": frac_str(mu2)}
            if not g.is_tree():
                verdict = run("edge-deletion-exists", g)
                assert verdict.witness == (witness or {"found": False, "finding": True}), g


def test_edge_deletion_builds_no_neighbour(monkeypatch):
    from subtrees import Graph

    calls = {name: _count_calls(monkeypatch, name) for name in ("canonical_form", "certify", "census")}
    deleted = []
    monkeypatch.setattr(Graph, "delete_edge", lambda *args: deleted.append(args))
    for g in (cycle(6), clique(5), barbell(8, 3), complete_bipartite(3, 3)):
        assert run("edge-deletion-exists", g).status == HOLDS
        run_checks(g, ["edge-deletion-exists"], {})
    assert calls == {"canonical_form": [], "certify": [], "census": []}
    assert deleted == []
