"""The named reproduction runners return ok plus a readable report."""

import pytest

from subtrees.repro import (
    REPROS,
    repro_barbell_additions,
    repro_barbell_matchings,
    repro_dstar_local,
    repro_join_deletion_2_6,
    repro_join_deletion_10_9,
    repro_transitive_suite,
    repro_tree_contraction_n10,
)


def test_registry_names():
    assert set(REPROS) == {
        "barbell-14-6-additions",
        "barbell-14-6-matchings",
        "dstar-16-5-local",
        "dbstar-23-8-local",
        "join-deletion-2-6",
        "join-deletion-10-9",
        "ratio-chain-n8",
        "tree-contraction-n10",
        "transitive-suite",
    }
    slow = [name for name, (_, tagged) in REPROS.items() if tagged]
    assert slow == ["dbstar-23-8-local"]


@pytest.mark.parametrize(
    "runner",
    [
        repro_join_deletion_2_6,
        repro_join_deletion_10_9,
        repro_dstar_local,
        repro_tree_contraction_n10,
        repro_transitive_suite,
    ],
)
def test_fast_repros_reproduce(runner):
    ok, lines = runner()
    assert ok, "\n".join(lines)
    assert lines


def test_barbell_repros_reproduce():
    ok, lines = repro_barbell_additions()
    assert ok, "\n".join(lines)
    assert any("expected exactly 1" in line for line in lines)
    ok, lines = repro_barbell_matchings()
    assert ok, "\n".join(lines)
    assert any("27240" in line for line in lines)


@pytest.mark.slow
def test_slow_repros_reproduce():
    reports = {}
    for name in ("dbstar-23-8-local", "ratio-chain-n8"):
        runner, _ = REPROS[name]
        ok, reports[name] = runner()
        assert ok, "\n".join(reports[name])
    # the connected graphs of orders 1-8 (OEIS A001349), none violating
    counts = [1, 1, 2, 6, 21, 112, 853, 11117]
    expected = [f"order {n}: {c} graphs, violations: 0" for n, c in enumerate(counts, start=1)]
    assert reports["ratio-chain-n8"] == expected
