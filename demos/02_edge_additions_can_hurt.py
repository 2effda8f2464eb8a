#!/usr/bin/env python3
"""Adding an edge usually raises the mean subtree order -- but not always.

Barbells (two cliques joined by a path) are extreme offenders: among all
non-edges of barbell(14,6), only one class of additions raises the mean,
and *every* maximal matching of the complement lowers it when added as a
whole.  Both facts are recomputed here from scratch with exact arithmetic.
"""

from subtrees import barbell, census, classify_edge_additions, run_checks

g = barbell(14, 6)
base = census(g).mean
print(f"barbell(14,6): mean subtree order = {base} = {float(base):.6f}")

print("\nnon-edge classes (one exact mean computation per isomorphism class):")
report = classify_edge_additions(g)
for cls in report.classes:
    arrow = "raises " if cls.sign > 0 else ("lowers " if cls.sign < 0 else "keeps  ")
    print(
        f"  adding {cls.representative} ({cls.size:2d} equivalent non-edges) "
        f"{arrow} the mean by {float(cls.mean_delta):+.6g}"
    )
positive = report.positive_classes
print(f"\nclasses that raise the mean: {len(positive)} out of {len(report.classes)}")

print("\nnow add whole maximal matchings of the complement:")
(verdict,) = run_checks(g, ["matchings"])
w = verdict.witness
print(
    f"  {w['matchings']} maximal matchings collapse into {w['orbits']} symmetry orbits;"
    f" lower/keep/raise = {w['decrease']}/{w['unchanged']}/{w['increase']}"
)
print(f"  every matching lowers the mean: {verdict.status == 'holds'}")
