"""Family builders: orders, structure, labels, CLI mini-grammar."""

import pytest

from subtrees import (
    FamilySpec,
    are_isomorphic,
    barbell,
    build_family,
    clique,
    complete_bipartite,
    cycle,
    double_broom,
    family_labels,
    join_clique_independent,
    modified_barbell,
    modified_double_broom,
    parse_family,
    path_graph,
    petersen,
    star_graph,
)


def test_family_orders():
    assert barbell(14, 6).n == 14
    assert modified_double_broom(23, 8, 1).n == 23
    assert join_clique_independent(4, 7).n == 11
    assert double_broom(10, 3).n == 10
    assert modified_barbell(16, 5, 1).n == 16


def test_barbell_structure():
    g = barbell(14, 6)
    # two 6-cliques, hubs joined by a path with two internal vertices
    assert g.edge_count == 2 * 15 + 3
    assert g.degree(5) == 6 and g.degree(8) == 6
    assert g.degree(6) == 2 and g.degree(7) == 2
    # hubs adjacent when there is no room for internal vertices
    tight = barbell(8, 4)
    assert tight.has_edge(3, 4)
    with pytest.raises(ValueError):
        barbell(7, 4)
    with pytest.raises(ValueError):
        barbell(10, 1)


def test_modified_barbell_is_clique_cycle_clique():
    g = modified_barbell(16, 5, 1)
    assert g.n == 16
    # hubs have clique degree 4 plus two cycle edges
    labels = family_labels(FamilySpec("modified_barbell", n=16, w=5, a=1))
    h1, h2 = labels["hub1"], labels["hub2"]
    assert g.degree(h1) == 6 and g.degree(h2) == 6
    bridge = labels["bridge"]
    assert len(bridge) == 1
    assert g.has_edge(h1, bridge[0]) and g.has_edge(bridge[0], h2)
    # removing both cliques' non-hub vertices leaves the 8-cycle
    keep = [h1] + list(range(h1 + 1, h2)) + [h2] + bridge
    assert len(keep) == 8


def test_double_broom_structure():
    g = double_broom(10, 4)
    labels = family_labels(FamilySpec("double_broom", n=10, w=4))
    h1, h2 = labels["hub1"], labels["hub2"]
    assert g.degree(h1) == 4 and g.degree(h2) == 4
    assert sum(1 for v in range(10) if g.degree(v) == 1) == 6
    assert g.is_tree()
    with pytest.raises(ValueError):
        double_broom(7, 4)


def test_modified_double_broom_bridge():
    g = modified_double_broom(23, 8, 1)
    labels = family_labels(FamilySpec("modified_double_broom", n=23, w=8, a=1))
    v1 = labels["bridge"][0]
    assert g.degree(v1) == 2
    assert g.has_edge(labels["hub1"], v1) and g.has_edge(v1, labels["hub2"])
    assert not g.is_tree()


def test_star_zero_bridge_requires_nonadjacent_hubs():
    # order 2w barbell has adjacent hubs: a = 0 cannot add a parallel edge
    with pytest.raises(ValueError):
        modified_barbell(8, 4, 0)
    g = modified_barbell(11, 5, 0)
    assert g.has_edge(4, 6)


def test_small_coincidences():
    assert are_isomorphic(path_graph(3), star_graph(3))
    assert are_isomorphic(path_graph(2), clique(2))
    assert are_isomorphic(double_broom(4, 2), path_graph(4))


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_complete_bipartite():
    g = complete_bipartite(3, 4)
    assert g.n == 7 and g.edge_count == 12
    assert are_isomorphic(complete_bipartite(1, 3), star_graph(4))


def test_build_family_dispatch():
    assert build_family(FamilySpec("barbell", n=14, w=6)) == barbell(14, 6)
    assert build_family(FamilySpec("petersen")) == petersen()
    assert build_family(FamilySpec("cycle", n=5)) == cycle(5)
    with pytest.raises(ValueError):
        FamilySpec("no_such_kind", n=3)


def test_parse_family():
    assert parse_family("family:barbell:14:6") == FamilySpec("barbell", n=14, w=6)
    assert parse_family("family:modified_double_broom:23:8:1") == FamilySpec(
        "modified_double_broom", n=23, w=8, a=1
    )
    assert parse_family("family:petersen") == FamilySpec("petersen")
    with pytest.raises(ValueError):
        parse_family("family:barbell:14")
    with pytest.raises(ValueError):
        parse_family("family:barbell:14:6:1")
    with pytest.raises(ValueError):
        parse_family("family:nope:3")
    with pytest.raises(ValueError):
        parse_family("graph:path:3")
    with pytest.raises(ValueError):
        parse_family("family:path:x")


def test_family_table_drives_specs_parsing_and_building():
    from subtrees.families import FAMILIES

    sample = {"n": 9, "w": 3, "a": 1, "m": 2}
    for kind, (builder, names) in FAMILIES.items():
        params = [sample[name] for name in names]
        spec = parse_family(":".join(["family", kind, *map(str, params)]))
        assert spec == FamilySpec(kind, **dict(zip(names, params)))
        assert build_family(spec) == builder(*params)
        if names:
            with pytest.raises(ValueError, match="needs parameter"):
                FamilySpec(kind)
