"""Acceptance suite: one test per acceptance criterion, one PASS line each.

Every comparison here is exact (integer or rational); the only floats are
informational trend columns.  Budgets are wall-clock ceilings from the
requirements; the implementation runs far below them.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria tagged slow (order > 20 graphs, order-8 exhaustive scan)
run with ``-m slow``.
"""

import math
import time
from fractions import Fraction

import pytest

from subtrees import (
    JoinSpec,
    barbell,
    census,
    classify_edge_additions,
    clique,
    clique_spanning_fraction,
    clique_subtree_count,
    clique_subtree_count_by_order,
    generate_connected,
    join_clique_independent,
    join_minus_edge_spanning_tree_count,
    join_spanning_tree_count,
    join_subtree_counts,
    mean_subtree_order,
    modified_barbell,
    modified_double_broom,
    path_graph,
    run_checks,
    spanning_tree_count,
    to_graph6,
)
from subtrees.census import census_containing
from subtrees.harness import HOLDS
from subtrees.repro import repro_transitive_suite
from subtrees.scan import load_state, save_state, scan

from conftest import census_by_subtree_enumeration, generated


def report(criterion: int, budget_s: float, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {criterion} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {criterion:2d} PASS ({elapsed:7.2f}s < {budget_s:g}s): {detail}")


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    total = 0
    for n, order in generated(1, 6):
        for g in order:
            assert census(g) == census_by_subtree_enumeration(g), to_graph6(g)
            total += 1
    report(1, 10, started, f"census == subtree-enumeration oracle on all {total} connected graphs, n <= 6")


def test_criterion_02_path_mean_formula():
    started = time.perf_counter()
    for n in range(2, 21):
        assert mean_subtree_order(path_graph(n)) == Fraction(n + 2, 3), n
    report(2, 1, started, "mean(P_n) == (n+2)/3 exactly for 2 <= n <= 20")


def test_criterion_03_clique_counts_by_order():
    started = time.perf_counter()
    for n in range(1, 10):
        c = census(clique(n))
        for k in range(1, n + 1):
            assert c.counts[k] == clique_subtree_count_by_order(n, k), (n, k)
    report(3, 30, started, "census s_k of cliques matches C(n,k) k^(k-2) for n <= 9")


BATTERY_N7 = (
    "min-path",
    "max-clique",
    "ratio-chain",
    "local-global",
    "local-mean-bound",
    "vertex-share-bound",
)


def _run_battery(max_n: int) -> tuple[int, list]:
    graphs = 0
    violations = []
    memo: dict = {}
    for n, order in generated(1, max_n):
        for g in order:
            graphs += 1
            for verdict in run_checks(g, BATTERY_N7, memo):
                if verdict.status == "fails" or verdict.witness.get("finding"):
                    violations.append((verdict.check, to_graph6(g)))
    return graphs, violations


def test_criterion_04_exhaustive_order_7():
    started = time.perf_counter()
    graphs, violations = _run_battery(7)
    assert graphs == 996
    assert violations == []
    report(
        4, 600, started,
        f"min-path, max-clique, ratio-chain, local-global, local-mean-bound, "
        f"vertex-share-bound: zero violations on all {graphs} connected graphs, n <= 7",
    )


@pytest.mark.slow
def test_criterion_04_stretch_order_8():
    # stretch goal: the same battery at order 8; orders 9-10 were verified in
    # the literature but are out of desk-scale reach and are not reproduced
    started = time.perf_counter()
    graphs, violations = _run_battery(8)
    assert graphs == 996 + 11117
    assert violations == []
    report(4, 7200, started, f"stretch battery clean on all {graphs} connected graphs, n <= 8")


def test_criterion_05_barbell_14_6():
    started = time.perf_counter()
    g = barbell(14, 6)
    addition_report = classify_edge_additions(g)
    positives = addition_report.positive_classes
    assert len(positives) == 1, [(c.representative, c.sign) for c in addition_report.classes]
    assert positives[0].representative == (0, 6)  # clique vertex to first path vertex
    (matchings_verdict,) = run_checks(g, ["matchings"])
    assert matchings_verdict.status == HOLDS
    w = matchings_verdict.witness
    assert w["decrease"] == w["matchings"] > 0
    report(
        5, 900, started,
        f"barbell(14,6): 1 of {len(addition_report.classes)} non-edge classes raises the mean; "
        f"all {w['matchings']} maximal complement matchings lower it",
    )


def _local_means_case(g, v1: int, hub_edges) -> None:
    c = census(g)
    mu = c.mean
    mu_v1 = c.mean_at_vertex(v1)
    assert mu_v1 < mu
    for e in hub_edges:
        nc, rc = census_containing(g, e)
        assert Fraction(rc, nc) < mu_v1, e


def test_criterion_06_modified_barbell_16_5():
    started = time.perf_counter()
    _local_means_case(modified_barbell(16, 5, 1), 15, [(4, 15), (10, 15)])
    report(6, 60, started, "modified barbell(16,5,1): mean(G,v1) < mean(G) and both bridge edges sit lower")


def test_criterion_06_modified_double_broom_23_8():
    started = time.perf_counter()
    _local_means_case(modified_double_broom(23, 8, 1), 22, [(7, 22), (14, 22)])
    report(6, 60, started, "modified double broom(23,8,1): same local-mean reversal")


def test_criterion_07_join_deletion_and_census_match():
    started = time.perf_counter()
    for n, m in [(2, 6), (2, 7), (2, 8), (10, 9)]:
        jc = join_subtree_counts(JoinSpec(n, m))
        assert jc.mean < jc.mean_minus_edge, (n, m)
    assert time.perf_counter() - started < 1, "closed-form part must run in < 1s"
    for n in range(1, 9):
        for m in range(0, 10 - n):
            jc = join_subtree_counts(JoinSpec(n, m))
            g = join_clique_independent(n, m)
            c = census(g)
            assert (jc.count, jc.order_sum) == (c.num_subtrees, c.order_sum), (n, m)
            if n >= 2:
                cd = census(g.delete_edge(0, 1))
                assert (jc.count_minus_edge, jc.order_sum_minus_edge) == (
                    cd.num_subtrees,
                    cd.order_sum,
                ), (n, m)
    report(7, 60, started, "join deletion raises the mean at (2,6..8),(10,9); join sums match census, n+m <= 9")


def test_criterion_08_join_spanning_formulas():
    started = time.perf_counter()
    for n in range(1, 7):
        for m in range(0, 6):
            g = join_clique_independent(n, m)
            assert join_spanning_tree_count(n, m) == spanning_tree_count(g), (n, m)
            if n >= 2:
                assert join_minus_edge_spanning_tree_count(n, m) == spanning_tree_count(
                    g.delete_edge(0, 1)
                ), (n, m)
    report(8, 1, started, "join spanning-tree closed forms match matrix-tree counts, n <= 6, m <= 5")


def test_criterion_09_tree_contraction():
    started = time.perf_counter()
    third = Fraction(1, 3)
    trees = 0
    for n, order in generated(2, 10, leaves=True):
        paths = 0
        for t in order:
            trees += 1
            (verdict,) = run_checks(t, ["contraction-gap"])
            assert verdict.status == HOLDS, to_graph6(t)
            if verdict.witness["equality_edges"]:
                assert verdict.witness["is_path"]
                paths += 1
        assert paths == 1  # exactly the path hits the 1/3 floor
    report(9, 300, started, f"contraction gap >= 1/3 on all {trees} trees, n <= 10; equality exactly on paths")


def test_criterion_10_transitive_suite():
    started = time.perf_counter()
    ok, lines = repro_transitive_suite()
    assert ok, "\n".join(lines)
    report(10, 600, started, f"edge/vertex/global mean chain and convex identity hold on {len(lines)} graphs")


def test_criterion_11_trend_reports():
    started = time.perf_counter()
    spanning_target = math.exp(-math.exp(-1))
    count_target = math.exp(math.exp(-1))
    print("\n  clique trends (informational; asymptotic limits are NOT asserted):")
    print("    n   p(K_n)          gap->e^-1/e    N/n^(n-2)       gap->e^1/e")
    p_gaps = []
    r_gaps = []
    for n in range(2, 21):
        p = clique_spanning_fraction(n)
        r = Fraction(clique_subtree_count(n), n ** (n - 2))
        p_gaps.append(abs(float(p) - spanning_target))
        r_gaps.append(abs(float(r) - count_target))
        print(
            f"    {n:2d}  {float(p):.10f}  {p_gaps[-1]:.10f}  {float(r):.10f}  {r_gaps[-1]:.10f}"
        )
    assert all(a >= b for a, b in zip(p_gaps, p_gaps[1:])), "monotone approach of p(K_n)"
    assert all(a > b for a, b in zip(r_gaps[10:], r_gaps[11:])), "monotone approach of N(K_n)/n^(n-2)"
    report(11, 60, started, "exact ratios printed for n <= 20; monotone approach observed, limits not asserted")


def test_criterion_12_scan_resume_determinism(tmp_path):
    started = time.perf_counter()
    lines = [to_graph6(g) + "\n" for g in generate_connected(6)]
    checks = ["min-path", "ratio-chain", "mean-vs-average"]

    single_out = tmp_path / "single.jsonl"
    single = scan(lines, checks, str(single_out))

    out = tmp_path / "resumed.jsonl"
    ckpt = tmp_path / "ckpt.json"
    # capture the genuine checkpoint written after 60 graphs ...
    scan(lines, checks, str(out), checkpoint_path=str(ckpt), limit=60)
    at_60 = load_state(str(ckpt))
    assert at_60.consumed == 60
    # ... let the scan run on for a while, then die: the state file rolls
    # back to the 60-graph checkpoint while the output keeps an unsynced tail
    scan(lines, checks, str(out), checkpoint_path=str(ckpt), limit=75)
    save_state(at_60, str(ckpt))
    resumed = scan(lines, checks, str(out), checkpoint_path=str(ckpt))

    assert resumed.consumed == 112
    assert resumed.tallies_json().encode() == single.tallies_json().encode()
    assert _strip_runtime(out) == _strip_runtime(single_out)
    report(12, 60, started, "interrupted-and-resumed scan reproduces the single-pass tallies byte for byte")


def _strip_runtime(path) -> list[dict]:
    import json

    out = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("runtime_ms")
            out.append(record)
    return out
