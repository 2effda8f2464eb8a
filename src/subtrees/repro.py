"""Named reproduction runs for the headline computational claims.

Each entry recomputes one claim from scratch with exact arithmetic and
returns ``(ok, lines)``: whether the claim reproduced, plus a
human-readable report (a diff-style explanation on mismatch).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Callable

from .closedforms import JoinSpec, join_subtree_counts
from .families import (
    FamilySpec,
    barbell,
    build_family,
    clique,
    complete_bipartite,
    cycle,
    family_labels,
    petersen,
)
from .canon import generate_trees
from .harness import (
    HOLDS,
    CheckContext,
    check_transitive_inequalities,
    classify_edge_additions,
    frac_str,
    run_checks,
)
from .scan import scan


def _fmt(x: Fraction) -> str:
    return f"{frac_str(x)} ({float(x):.12g})"


def repro_barbell_additions() -> tuple[bool, list[str]]:
    """Two 6-cliques with a 4-vertex connecting path: adding one non-edge
    class raises the mean, every other class lowers it."""
    g = barbell(14, 6)
    report = classify_edge_additions(g)
    lines = [f"barbell(14,6): mean = {_fmt(report.base_mean)}"]
    for cls in report.classes:
        lines.append(
            f"  class rep {cls.representative} size {cls.size:2d} "
            f"delta {float(cls.mean_delta):+.6g} sign {cls.sign:+d}"
        )
    positives = report.positive_classes
    ok = len(positives) == 1
    lines.append(f"classes raising the mean: {len(positives)} (expected exactly 1)")
    return ok, lines


def repro_barbell_matchings() -> tuple[bool, list[str]]:
    """Every maximal matching of the complement lowers the mean."""
    g = barbell(14, 6)
    (verdict,) = run_checks(g, ["matchings"])
    w = verdict.witness
    lines = [
        f"barbell(14,6): {w['matchings']} maximal complement matchings "
        f"in {w['orbits']} orbits",
        f"  decrease: {w['decrease']}  unchanged: {w['unchanged']}  increase: {w['increase']}",
    ]
    ok = verdict.status == HOLDS
    lines.append("every matching lowers the mean" if ok else "MISMATCH: not all matchings lower the mean")
    return ok, lines


def _local_means_run(spec: FamilySpec, name: str) -> tuple[bool, list[str]]:
    # local means at the one bridge vertex and at its edges to both hubs
    g = build_family(spec)
    labels = family_labels(spec)
    (v1,) = labels["bridge"]
    hubs = (labels["hub1"], labels["hub2"])
    ctx = CheckContext(g, local=True)
    mu = ctx.mean
    mu_v = ctx.census.mean_at_vertex(v1)
    lines = [
        f"{name}: mean = {_fmt(mu)}",
        f"  mean at bridge vertex {v1} = {_fmt(mu_v)}",
    ]
    ok = mu > mu_v
    lines.append(f"  mean > mean-at-vertex: {ok}")
    for hub in hubs:
        e = (min(hub, v1), max(hub, v1))
        mu_e = ctx.edge_mean(*e)
        this = mu_v > mu_e
        ok = ok and this
        lines.append(f"  mean at edge {e} = {_fmt(mu_e)}; mean-at-vertex > mean-at-edge: {this}")
    return ok, lines


def repro_dstar_local() -> tuple[bool, list[str]]:
    """Bridged barbell on 16 vertices (two 5-cliques glued to an 8-cycle):
    the bridge vertex has local mean below the global mean, and both of its
    edges sit below that again."""
    spec = FamilySpec("modified_barbell", n=16, w=5, a=1)
    return _local_means_run(spec, "modified barbell(16,5,1)")


def repro_dbstar_local() -> tuple[bool, list[str]]:
    """Same non-monotone pattern on the 23-vertex bridged double broom."""
    spec = FamilySpec("modified_double_broom", n=23, w=8, a=1)
    return _local_means_run(spec, "modified double broom(23,8,1)")


def _join_deletion(pairs: list[tuple[int, int]]) -> tuple[bool, list[str]]:
    ok = True
    lines = []
    for n, m in pairs:
        jc = join_subtree_counts(JoinSpec(n, m))
        inc = jc.mean < jc.mean_minus_edge
        ok = ok and inc
        lines.append(
            f"join({n},{m}): mean {_fmt(jc.mean)} -> minus edge {_fmt(jc.mean_minus_edge)}"
            f"  deletion raises mean: {inc}"
        )
    return ok, lines


def repro_join_deletion_2_6() -> tuple[bool, list[str]]:
    """Deleting a clique edge of the 2-clique ∨ m-independent join raises
    the mean for m >= 6."""
    return _join_deletion([(2, 6), (2, 7), (2, 8)])


def repro_join_deletion_10_9() -> tuple[bool, list[str]]:
    return _join_deletion([(10, 9)])


def repro_ratio_chain_n8() -> tuple[bool, list[str]]:
    """Exhaustive ratio-chain battery over all connected graphs of order <= 8,
    walked as ``scan --n`` walks them: each child inherits its parent's census."""
    ok = True
    lines = []
    for n in range(1, 9):
        state = scan(n, ["ratio-chain"], os.devnull)
        bad = state.consumed - state.tallies["ratio-chain"][HOLDS]
        ok = ok and bad == 0
        lines.append(f"order {n}: {state.consumed} graphs, violations: {bad}")
    return ok, lines


def repro_tree_contraction_n10() -> tuple[bool, list[str]]:
    """Every edge contraction in a tree of order <= 10 drops the mean by at
    least 1/3, with equality exactly on paths."""
    ok = True
    lines = []
    for n in range(2, 11):
        worst: Fraction | None = None
        equality_trees = 0
        total = 0
        for t in generate_trees(n):
            total += 1
            (verdict,) = run_checks(t, ["contraction-gap"])
            if verdict.status != HOLDS:
                ok = False
            gap = Fraction(verdict.witness["min_gap"])
            if worst is None or gap < worst:
                worst = gap
            if verdict.witness["equality_edges"]:
                equality_trees += 1
        lines.append(
            f"order {n}: {total} trees, min gap {frac_str(worst)}, "
            f"trees hitting 1/3: {equality_trees} (the path)"
        )
        if equality_trees != 1:
            ok = False
    return ok, lines


def repro_transitive_suite() -> tuple[bool, list[str]]:
    """Edge mean > vertex mean > mean plus the convex identity on the
    vertex- and edge-transitive suite."""
    cases = []
    cases += [(f"cycle({n})", cycle(n)) for n in range(3, 13)]
    cases += [(f"clique({n})", clique(n)) for n in range(2, 11)]
    cases += [(f"bipartite({n},{n})", complete_bipartite(n, n)) for n in range(1, 5)]
    cases.append(("petersen", petersen()))
    ok = True
    lines = []
    for name, g in cases:
        verdict = check_transitive_inequalities(g)
        good = verdict.status == HOLDS
        ok = ok and good
        w = verdict.witness
        lines.append(
            f"{name}: mu {w['mu']} < mu_v {w['mu_vertex']} < mu_e {w['mu_edge']}"
            f"  chain {w['chain']} identity {w['convex_identity']}"
        )
    return ok, lines


REPROS: dict[str, tuple[Callable[[], tuple[bool, list[str]]], bool]] = {
    # name -> (runner, slow)
    "barbell-14-6-additions": (repro_barbell_additions, False),
    "barbell-14-6-matchings": (repro_barbell_matchings, False),
    "dstar-16-5-local": (repro_dstar_local, False),
    "dbstar-23-8-local": (repro_dbstar_local, True),
    "join-deletion-2-6": (repro_join_deletion_2_6, False),
    "join-deletion-10-9": (repro_join_deletion_10_9, False),
    "ratio-chain-n8": (repro_ratio_chain_n8, False),
    "tree-contraction-n10": (repro_tree_contraction_n10, False),
    "transitive-suite": (repro_transitive_suite, False),
}
