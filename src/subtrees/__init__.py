"""Exact subtree statistics of small graphs.

Counts are Python integers, means are ``fractions.Fraction`` values, and
every comparison the library reports is decided in exact arithmetic.
"""

from .graphs import (
    Graph,
    from_graph6,
    maximal_matchings,
    maximal_matchings_of_complement,
    to_graph6,
)
from .families import (
    FamilySpec,
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
from .canon import (
    are_isomorphic,
    canonical_form,
    generate_connected,
    generate_trees,
)
from .census import (
    SubtreeCensus,
    average_connected_set_size,
    census,
    census_containing,
    mean_subtree_order,
    mean_subtree_order_at_tree,
    mean_subtree_order_at_vertex,
    spanning_fraction,
    spanning_tree_count,
)
from .closedforms import (
    JoinCounts,
    JoinSpec,
    clique_mean_subtree_order,
    clique_spanning_fraction,
    clique_subtree_count,
    clique_subtree_count_by_order,
    clique_subtree_order_sum,
    join_minus_edge_spanning_tree_count,
    join_spanning_tree_count,
    join_subtree_counts,
    path_mean_subtree_order,
    star_subtree_count,
)
from .harness import (
    CHECKS,
    CheckContext,
    CheckVerdict,
    EdgeAdditionReport,
    check_monotonicity_reversal,
    check_transitive_inequalities,
    classify_edge_additions,
    run_checks,
)
from .repro import REPROS
from .scan import ScanError, ScanState, scan

__version__ = "0.1.0"
