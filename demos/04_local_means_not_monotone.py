#!/usr/bin/env python3
"""Local means can sink below the global mean, and shrink under growth.

For trees, the mean order of the subtrees through a fixed vertex always
dominates the global mean, and growing the anchored subtree only pushes
the local mean up.  General graphs break both rules.  The smallest crisp
example is a chain of clique-cycle-clique: two 5-cliques glued to an
8-cycle (16 vertices).  The cycle vertex opposite nothing in particular --
the bridge vertex v1 -- has a *smaller* local mean than the graph, and
both of its edges sit smaller still.
"""

from fractions import Fraction

from subtrees import (
    census,
    census_containing,
    check_monotonicity_reversal,
    modified_barbell,
)

g = modified_barbell(16, 5, 1)  # two K_5 sharing the ends of a C_8
v1 = 15  # the vertex added between the two hubs
c = census(g)
print(f"clique-cycle-clique on 16 vertices: mean = {float(c.mean):.6f}")
print(f"  local mean at v1        = {float(c.mean_at_vertex(v1)):.6f}  (below the mean!)")
for e in [(4, 15), (10, 15)]:
    nc, rc = census_containing(g, e)  # its two ends induce the edge itself
    print(f"  local mean at edge {e} = {float(Fraction(rc, nc)):.6f}  (below v1's again)")

print()
print("growing a constraint can also shrink its local mean:")
v = check_monotonicity_reversal(k=1, d=1, n=12, w=5)
w = v.witness
print(
    f"  bridged double broom (n=12, w=5): a single hub vertex has local mean "
    f"{w['mu_small']}, extending it across the bridge drops it to {w['mu_large']}"
)
print(f"  reversal reproduced: {v.status == 'holds'}")
