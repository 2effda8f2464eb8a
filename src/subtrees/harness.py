"""The conjecture-check battery.

Every check in :data:`CHECKS` is a function of one :class:`CheckContext`
(a connected graph and what its checks share) that returns
``(status, witness, mean)``.  :func:`run_checks` runs checks of one graph
in one context, and :meth:`CheckContext.run` times each and makes the
:class:`CheckVerdict` named by its ``CHECKS`` key.  Status semantics:

* ``holds``  - the checked statement is true on this graph;
* ``fails``  - a *proven* statement is violated, which signals an
  implementation bug, never new mathematics;
* ``report-only`` - informational outcome, including violations of open
  conjectures (those are findings; the witness carries ``finding: True``).

All inequality verdicts are decided by exact integer cross-multiplication
or exact rationals; floating point appears only in human-facing report
fields.

Checks that share a context share its base census, certificate with the
automorphisms found beside it, and local census (every edge and cherry
anchored census).  The context alone chooses its base census: the local
census's when the checks include one of :data:`LOCAL_CHECKS` (one block DP
gives both), else one inherited from a parent context, else a full census.
The checks that compare g with its neighbours (g+e, g/e, g+matching; g-e
is read off the local census) price one neighbour per automorphism orbit
through :meth:`CheckContext.neighbour_means`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .canon import MAX_CANON, MAX_GENERATE, _orbit_reps, canonical_form, certify
from .census import (
    LocalCensus,
    SubtreeCensus,
    census,
    census_containing,
    census_from_parent,
    average_connected_set_size,
    local_census,
    subset_kappas,
)
from .closedforms import (
    clique_subtree_count,
    clique_subtree_count_by_order,
    clique_subtree_order_sum,
    star_subtree_count,
)
from .families import modified_double_broom
from .graphs import Graph, _norm_edge, maximal_matchings_of_complement, to_graph6

# Orders up to which the clique-extremality conjectures have been settled
# exhaustively; beyond that their violation is a finding, not a failure.
VERIFIED_EXHAUSTIVE_ORDER = 10

HOLDS = "holds"
FAILS = "fails"
REPORT = "report-only"


@dataclass
class CheckVerdict:
    """One check's outcome on one graph.

    ``runtime_ms`` is the check's wall time, rounded to 0.001 ms.  It is
    informational and outside the scan's byte-determinism contract.  When
    checks share a :class:`CheckContext`, the first check that needs a
    shared result (the base census, the parent's census and subset table
    it derives from, the local census or the certificate) is charged for
    building it.
    """

    check: str
    graph_id: str
    status: str
    witness: dict
    mean: Fraction | None = None
    runtime_ms: float = 0.0


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# What a check returns: its status, witness and the mean it reports (or None)
Outcome = tuple[str, dict, Fraction | None]


class CheckContext:
    """What the checks of one connected graph share.

    Building a context for a disconnected graph raises ``ValueError``,
    and so does one with a ``parent`` past :data:`MAX_GENERATE` vertices.
    The graph6 id, the base census, the canonical certificate with the
    automorphisms its search found, the local census (every edge and
    cherry anchored census) and ``kappas``, the :func:`subset_kappas`
    table of every vertex subset, are built on first use and at most once.
    The base census is read off the local census when ``local`` is set
    (the checks need the local census) or that is built; else, when
    ``parent`` is the context of g minus its last vertex, it is
    ``census_from_parent(parent.census, parent.kappas, g)``, the parent
    building its census and its 2**(n-1)-entry table once for all its
    children; else it is ``census(g)``.
    ``memo`` maps a canonical certificate to a mean subtree order;
    neighbour graphs (g+e, g/e, g+matching) look their mean up there,
    so a memo that outlives the context (one per scan, or per scan worker)
    computes each isomorphism class once.  It holds ``Fraction`` means
    only, never whole censuses, so its size stays small.
    """

    def __init__(
        self,
        g: Graph,
        memo: dict[bytes, Fraction] | None = None,
        *,
        local: bool = False,
        parent: CheckContext | None = None,
    ):
        if not g.is_connected():
            raise ValueError("check requires a connected graph")
        if parent is not None and g.n > MAX_GENERATE:
            raise ValueError(f"a census from a parent needs at most {MAX_GENERATE} vertices, not {g.n}")
        self.g = g
        self.memo = {} if memo is None else memo
        self.local = local
        self.parent = parent
        self._graph_id: str | None = None
        self._census: SubtreeCensus | None = None
        self._certified: tuple[bytes, list[tuple[int, ...]]] | None = None
        self._local: LocalCensus | None = None
        self._kappas: list[int] | None = None

    def run(self, name: str, check: Callable[[CheckContext], Outcome]) -> CheckVerdict:
        """The verdict of ``check`` on this graph, named ``name`` and timed."""
        started = time.perf_counter()
        status, witness, mean = check(self)
        runtime_ms = round((time.perf_counter() - started) * 1000, 3)
        return CheckVerdict(name, self.graph_id, status, witness, mean, runtime_ms)

    @property
    def graph_id(self) -> str:
        if self._graph_id is None:
            self._graph_id = to_graph6(self.g)
        return self._graph_id

    @property
    def census(self) -> SubtreeCensus:
        if self._census is None:
            if self.local or self._local is not None:
                self._census = self.local_census.census
            elif self.parent is not None:
                self._census = census_from_parent(self.parent.census, self.parent.kappas, self.g)
            else:
                self._census = census(self.g)
        return self._census

    @property
    def kappas(self) -> list[int]:
        if self._kappas is None:
            self._kappas = subset_kappas(self.g)
        return self._kappas

    @property
    def mean(self) -> Fraction:
        return self.census.mean

    @property
    def certified(self) -> tuple[bytes, list[tuple[int, ...]]]:
        """The certificate of g and generators of its automorphisms (:func:`certify`)."""
        if self._certified is None:
            self._certified = certify(self.g)
        return self._certified

    @property
    def local_census(self) -> LocalCensus:
        if self._local is None:
            self._local = local_census(self.g)
        return self._local

    def edge_mean(self, u: int, v: int) -> Fraction:
        nc, rc = self.local_census.edges[_norm_edge(u, v)]
        return Fraction(rc, nc)

    def neighbour_means(self, items, build):
        """Yield ``(item, mean, new, cert)`` for each of ``items``, in their order.

        ``mean`` is the mean subtree order of ``build(item)``, ``cert`` its
        certificate (``None`` past :data:`MAX_CANON` vertices).  ``items``
        are edges or non-edges ``(u, v)`` with ``u < v``, or matchings
        (sorted tuples of them), and every automorphism of g maps the list
        onto itself.  Then g+e and g+sigma(e) are isomorphic for sigma in
        Aut(g), so the neighbour is built, certified and priced once per
        orbit of the automorphisms :func:`certify` found, at the orbit's
        first item, which ``new`` marks.  The walk is lazy, so a check that
        stops at its first witness finds the one a walk over every
        neighbour would.  A neighbour with a certificate takes its mean
        through the memo, which also gets g's own mean: in a universe scan
        the neighbours of one graph are members of it.
        """
        if self.g.n > MAX_CANON:
            orbit = range(len(items))
        else:
            cert, gens = self.certified
            if cert not in self.memo:
                self.memo[cert] = self.mean
            orbit = _orbit_reps(self.g.n, gens, items)
        priced: dict[int, tuple[Fraction, bytes | None]] = {}
        for item, root in zip(items, orbit):
            new = root not in priced
            if new:
                h = build(item)
                if h.n > MAX_CANON:
                    priced[root] = census(h).mean, None
                else:
                    cert = canonical_form(h)
                    if cert not in self.memo:
                        self.memo[cert] = census(h).mean
                    priced[root] = self.memo[cert], cert
            mean, cert = priced[root]
            yield item, mean, new, cert


# Exact structural tests, given connectivity: a connected graph is a path
# iff it has n-1 edges and no degree above 2, a star iff it has n-1 edges
# and a vertex of degree n-1, and a clique iff it has n(n-1)/2 edges.


def _is_path(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and max(map(g.degree, range(g.n))) <= 2


def _is_star(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and any(g.degree(v) == g.n - 1 for v in range(g.n))


def _is_clique(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def check_min_path(ctx: CheckContext) -> Outcome:
    """Mean subtree order is at least (n+2)/3, tight exactly on paths."""
    g = ctx.g
    n = g.n
    mu = ctx.mean
    bound = Fraction(n + 2, 3)
    witness: dict = {"mu": frac_str(mu), "bound": frac_str(bound)}
    if mu < bound:
        status = FAILS
    elif mu == bound:
        witness["equality"] = True
        status = HOLDS if _is_path(g) else FAILS
    else:
        witness["equality"] = False
        status = HOLDS
    return status, witness, mu


def check_max_clique(ctx: CheckContext) -> Outcome:
    """Mean subtree order is at most that of the clique of the same order."""
    g = ctx.g
    n = g.n
    mu = ctx.mean
    # cross-multiplied against the closed-form clique totals
    rn, nn = clique_subtree_order_sum(n), clique_subtree_count(n)
    holds = mu.numerator * nn <= rn * mu.denominator
    equal = mu.numerator * nn == rn * mu.denominator
    witness: dict = {"mu": frac_str(mu), "clique_mu": f"{rn}/{nn}"}
    if not holds:
        status = FAILS if n <= VERIFIED_EXHAUSTIVE_ORDER else REPORT
        witness["finding"] = True
    elif equal:
        witness["equality"] = True
        status = HOLDS if _is_clique(g) else FAILS
    else:
        status = HOLDS
    return status, witness, mu


def check_edge_deletion_exists(ctx: CheckContext) -> Outcome:
    """Some connectivity-preserving deletion lowers the mean (open)."""
    g = ctx.g
    if g.is_tree():
        return REPORT, {"vacuous": "tree"}, None
    edges = ctx.local_census.edges
    c = ctx.census
    mu = c.mean
    for (u, v), (nc, rc) in edges.items():
        # the subtrees of g-e are those of g that avoid e
        mu2 = Fraction(c.order_sum - rc, c.num_subtrees - nc)
        if mu2 < mu and not g.is_bridge(u, v):
            witness = {"edge": [u, v], "mu_after": frac_str(mu2)}
            return HOLDS, witness, mu
    witness = {"found": False, "finding": True}
    return REPORT, witness, mu


def check_edge_addition_exists(ctx: CheckContext) -> Outcome:
    """Some edge addition raises the mean (open)."""
    g = ctx.g
    n = g.n
    if _is_clique(g):
        return REPORT, {"vacuous": "complete"}, None
    mu = ctx.mean
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    for (u, v), mu2, _, _ in ctx.neighbour_means(non_edges, lambda e: g.add_edge(*e)):
        if mu2 > mu:
            witness = {"edge": [u, v], "mu_after": frac_str(mu2)}
            return HOLDS, witness, mu
    witness = {"found": False, "finding": True}
    return REPORT, witness, mu


def check_contraction(ctx: CheckContext) -> Outcome:
    """Every contraction lowers the mean by at least 1/3 (proven on trees).

    Contraction is simple-graph contraction (parallel edges merged); the
    verdict records that choice.  Equality is expected exactly on paths.
    """
    g = ctx.g
    if g.n < 2:
        return REPORT, {"vacuous": "n < 2"}, None
    mu = ctx.mean
    third = Fraction(1, 3)
    min_gap = None
    min_edge = None
    violations = []
    equality_edges = []
    edges = list(g.edges())
    for (u, v), mu2, _, _ in ctx.neighbour_means(edges, lambda e: g.contract_edge(*e)):
        gap = mu - mu2
        if min_gap is None or gap < min_gap:
            min_gap, min_edge = gap, (u, v)
        if gap < third:
            violations.append([u, v])
        elif gap == third:
            equality_edges.append([u, v])
    is_path = _is_path(g)
    is_tree = g.is_tree()
    pattern_broken = (is_path and len(equality_edges) != g.edge_count) or (
        not is_path and bool(equality_edges)
    )
    witness = {
        "contraction": "simple",
        "min_gap": frac_str(min_gap),
        "min_edge": list(min_edge),
        "equality_edges": equality_edges,
        "is_path": is_path,
        "violations": violations,
    }
    if violations or pattern_broken:
        witness["finding"] = True
        status = FAILS if is_tree else REPORT
    else:
        status = HOLDS
    return status, witness, mu


def check_local_global(ctx: CheckContext) -> Outcome:
    """Some vertex and some edge have local mean above the global mean.

    Also reports the non-monotone data: vertices v with mean-at-v <= mean,
    and for those vertices the incident edges e with mean-at-e <= mean-at-v.
    """
    g = ctx.g
    if g.n < 2:
        return REPORT, {"vacuous": "n < 2"}, None
    c = ctx.census
    mu = c.mean
    vertex_means = [c.mean_at_vertex(v) for v in range(g.n)]
    edge_means = {(u, v): ctx.edge_mean(u, v) for u, v in g.edges()}
    exists_vertex = any(mv > mu for mv in vertex_means)
    exists_edge = any(me > mu for me in edge_means.values())
    low_vertices = []
    for v in range(g.n):
        if vertex_means[v] <= mu:
            low_edges = [
                [u, w]
                for (u, w), me in edge_means.items()
                if (u == v or w == v) and me <= vertex_means[v]
            ]
            low_vertices.append({"vertex": v, "mu_v": frac_str(vertex_means[v]), "low_edges": low_edges})
    witness = {
        "exists_vertex_above": exists_vertex,
        "exists_edge_above": exists_edge,
        "non_monotone_vertices": low_vertices,
    }
    status = HOLDS if exists_vertex and exists_edge else FAILS
    return status, witness, mu


def check_ratio_chain(ctx: CheckContext) -> Outcome:
    """The clique-ratio battery on subtree counts, all cross-multiplied.

    (a) near-spanning ratio s_{n-1} s_n(clique) >= s_{n-1}(clique) s_n;
    (b) the full chain over all order pairs j <= k;
    (c) spanning fraction at most the clique's;
    (d) spanning fraction at least the star's, equality only for stars;
    (e) mean at most the clique's.
    """
    g = ctx.g
    n = g.n
    c = ctx.census
    mu = c.mean
    s = c.counts
    sk = [0] + [clique_subtree_count_by_order(n, k) for k in range(1, n + 1)]
    results = {}
    results["near_spanning"] = s[n - 1] * sk[n] >= sk[n - 1] * s[n] if n >= 2 else True
    chain_ok = True
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            if s[j] * sk[k] < sk[j] * s[k]:
                chain_ok = False
                results.setdefault("chain_violation", [j, k])
    results["chain"] = chain_ok
    nn = clique_subtree_count(n)
    results["spanning_le_clique"] = s[n] * nn <= sk[n] * c.num_subtrees
    star_n = star_subtree_count(n)
    ge_star = s[n] * star_n >= c.num_subtrees
    results["spanning_ge_star"] = ge_star
    star_equal = s[n] * star_n == c.num_subtrees
    if ge_star and star_equal:
        if not _is_star(g):
            results["spanning_ge_star"] = False
            results["star_equality_off_star"] = True
    rn = clique_subtree_order_sum(n)
    results["mean_le_clique"] = mu.numerator * nn <= rn * mu.denominator
    all_ok = all(results[k] for k in
                 ("near_spanning", "chain", "spanning_le_clique", "spanning_ge_star", "mean_le_clique"))
    witness = dict(results)
    witness["mu"] = frac_str(mu)
    if all_ok:
        status = HOLDS
    else:
        witness["finding"] = True
        # (d) is proven at every order; the clique-extremality parts are
        # settled only up to the exhaustively verified order
        proven_broken = not results["spanning_ge_star"]
        status = FAILS if (proven_broken or n <= VERIFIED_EXHAUSTIVE_ORDER) else REPORT
    return status, witness, mu


def check_mu_vs_av(ctx: CheckContext) -> Outcome:
    """Mean subtree order versus mean connected-set size (open question).

    Report-only: records the exact sign.  Equality is proven on trees, so a
    tree with unequal values fails.
    """
    g = ctx.g
    mu = ctx.mean
    av = average_connected_set_size(g)
    sign = (mu > av) - (mu < av)
    is_tree = g.is_tree()
    witness = {"mu": frac_str(mu), "av": frac_str(av), "sign": sign, "tree": is_tree}
    if is_tree and sign != 0:
        status = FAILS
    else:
        status = REPORT
        if sign < 0:
            witness["finding"] = True
    return status, witness, mu


def _small_subtree_totals(ctx: CheckContext):
    """(vertices, count, order sum) of each subtree of order <= 3.

    Vertices come first, then edges in ``Graph.edges()`` order, then
    cherries by middle vertex; the verdict's witness depends on this order.
    """
    c = ctx.census
    for v in range(ctx.g.n):
        yield (v,), c.vertex_counts[v], c.vertex_order_sums[v]
    for edge, (nc, rc) in ctx.local_census.edges.items():
        yield edge, nc, rc
    for cherry, (nc, rc) in ctx.local_census.cherries.items():
        yield cherry, nc, rc


def check_local_mean_bound(ctx: CheckContext) -> Outcome:
    """Local mean at any subtree of order <= 3 is at least (n + |T|)/2 (proven)."""
    n = ctx.g.n
    worst = None
    violated = None
    for vertices, nc, rc in _small_subtree_totals(ctx):
        t = len(vertices)
        # mu(g, T) >= (n + t)/2  <=>  2 rc >= (n + t) nc
        slack = 2 * rc - (n + t) * nc
        if worst is None or slack < worst[0]:
            worst = (slack, sorted(vertices))
        if slack < 0:
            violated = sorted(vertices)
            break
    witness = {"max_constraint_order": 3, "min_slack": worst[0], "at": worst[1]}
    if violated is not None:
        witness["violated_at"] = violated
        status = FAILS
    else:
        status = HOLDS
    return status, witness, None


def check_vertex_share_bound(ctx: CheckContext) -> Outcome:
    """Some non-cut vertex lies in at least a 2/(n+1) share of all subtrees.

    Proven, with equality exactly on paths (both ends of a path hit the
    bound; anything else has a strictly better vertex).
    """
    g = ctx.g
    n = g.n
    if n < 3:
        return REPORT, {"vacuous": "n < 3"}, None
    c = ctx.census
    best = None
    best_vertex = None
    for v in range(n):
        if g.is_cut_vertex(v):
            continue
        margin = (n + 1) * c.vertex_counts[v] - 2 * c.num_subtrees
        if best is None or margin > best:
            best, best_vertex = margin, v
    is_path = _is_path(g)
    witness = {"best_vertex": best_vertex, "margin": best, "is_path": is_path}
    ok = best is not None and best >= 0 and ((best == 0) == is_path)
    status = HOLDS if ok else FAILS
    return status, witness, c.mean


def check_matchings(ctx: CheckContext) -> Outcome:
    """Sign of the mean change when a maximal complement matching is added.

    Every maximal matching of the complement, in the order
    :func:`~subtrees.graphs.maximal_matchings` grows them, is classified;
    the mean is computed once per orbit of the matchings under the
    automorphisms the certificate search found (``orbits`` counts them),
    and once per isomorphism class of the augmented graph through the
    context's memo.  Matchings whose edges join the same pairs of twin
    classes share an orbit without being moved by a twin swap; only the
    other automorphisms are applied to them (see
    :func:`~subtrees.canon._orbit_reps`).  ``holds`` means every matching
    strictly lowers the mean.
    """
    g = ctx.g
    mu = ctx.mean
    matchings = list(maximal_matchings_of_complement(g))
    tally = {-1: 0, 0: 0, 1: 0}
    orbits = 0
    for _, mu2, new, _ in ctx.neighbour_means(matchings, g.add_edges):
        tally[(mu2 > mu) - (mu2 < mu)] += 1
        orbits += new
    witness = {
        "matchings": len(matchings),
        "orbits": orbits,
        "decrease": tally[-1],
        "unchanged": tally[0],
        "increase": tally[1],
    }
    all_negative = tally[-1] == len(matchings) and len(matchings) > 0
    status = HOLDS if all_negative else REPORT
    return status, witness, mu


def check_transitive_inequalities(g: Graph) -> CheckVerdict:
    """For vertex- and edge-transitive graphs: edge mean > vertex mean > mean.

    Verifies that all per-vertex and all per-edge local means agree (a
    contradiction is an input error, not a conjecture failure), the strict
    chain, and the exact convex-combination identity tying the three means
    together through the order-weighted subtree counts.
    """
    return CheckContext(g, local=True).run("transitive", _transitive_inequalities)


def _transitive_inequalities(ctx: CheckContext) -> Outcome:
    g = ctx.g
    if g.n < 2:
        raise ValueError("transitivity check needs n >= 2")
    c = ctx.census
    mu = c.mean
    vertex_means = {c.mean_at_vertex(v) for v in range(g.n)}
    if len(vertex_means) != 1:
        raise ValueError("input is not vertex-transitive: per-vertex means differ")
    mu_v = vertex_means.pop()
    edge_means = {ctx.edge_mean(u, v) for u, v in g.edges()}
    if len(edge_means) != 1:
        raise ValueError("input is not edge-transitive: per-edge means differ")
    mu_e = edge_means.pop()
    n_total = c.num_subtrees
    r_total = c.order_sum
    identity = r_total * mu_v == n_total * mu + (r_total - n_total) * mu_e
    chain = mu_e > mu_v > mu
    witness = {
        "mu": frac_str(mu),
        "mu_vertex": frac_str(mu_v),
        "mu_edge": frac_str(mu_e),
        "chain": chain,
        "convex_identity": identity,
    }
    status = HOLDS if chain and identity else FAILS
    return status, witness, mu


# -- reports beyond single verdicts -------------------------------------------


@dataclass
class EdgeAdditionClass:
    representative: tuple[int, int]
    edges: list[tuple[int, int]]
    mean_delta: Fraction
    sign: int

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass
class EdgeAdditionReport:
    graph_id: str
    base_mean: Fraction
    classes: list[EdgeAdditionClass] = field(default_factory=list)

    @property
    def positive_classes(self) -> list[EdgeAdditionClass]:
        return [c for c in self.classes if c.sign > 0]


def classify_edge_additions(g: Graph) -> EdgeAdditionReport:
    """Partition non-edges by isomorphism class of g+e and sign the change.

    The classes are the certificates :meth:`CheckContext.neighbour_means`
    yields, so one exact mean per class.  Class order follows the first
    (lexicographically smallest) representative.
    """
    if g.n > 24:
        raise ValueError("edge-addition classification capped at 24 vertices")
    ctx = CheckContext(g)
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    classes: dict[bytes, EdgeAdditionClass] = {}
    for e, mu2, _, cert in ctx.neighbour_means(non_edges, lambda e: g.add_edge(*e)):
        if cert not in classes:
            delta = mu2 - ctx.mean
            classes[cert] = EdgeAdditionClass(e, [], delta, (delta > 0) - (delta < 0))
        classes[cert].edges.append(e)
    return EdgeAdditionReport(ctx.graph_id, ctx.mean, list(classes.values()))


def check_monotonicity_reversal(k: int, d: int, n: int, w: int) -> CheckVerdict:
    """Build a bridged double broom where a bigger anchored tree has a smaller mean.

    The small tree S is the path of order k starting at a hub and running
    along the broom path; the large one is S extended through the whole
    added bridge path to the other hub (order k + d).  Each is given by
    its vertex set.  ``holds`` means the reversal mean(G,S) > mean(G,S')
    is exact at these parameters.
    """
    if d < 1:
        raise ValueError("need d >= 1 (S must grow)")
    if k < 1:
        raise ValueError("need k >= 1")
    g = modified_double_broom(n, w, d - 1)
    hub1, hub2 = w - 1, n - (d - 1) - w
    if k > hub2 - hub1:
        raise ValueError("k exceeds the broom path length")
    small = list(range(hub1, hub1 + k))
    large = small + list(range(n - (d - 1), n)) + [hub2]

    def reversal(ctx: CheckContext) -> Outcome:
        nc1, rc1 = census_containing(ctx.g, small)
        nc2, rc2 = census_containing(ctx.g, large)
        mu_small = Fraction(rc1, nc1)
        mu_large = Fraction(rc2, nc2)
        witness = {
            "k": k,
            "d": d,
            "n": n,
            "w": w,
            "mu_small": frac_str(mu_small),
            "mu_large": frac_str(mu_large),
        }
        return (HOLDS if mu_small > mu_large else REPORT), witness, None

    return CheckContext(g).run("monotonicity-reversal", reversal)


# -- registry for scans ---------------------------------------------------------

CHECKS = {
    "min-path": check_min_path,
    "max-clique": check_max_clique,
    "edge-deletion-exists": check_edge_deletion_exists,
    "edge-addition-exists": check_edge_addition_exists,
    "contraction-gap": check_contraction,
    "local-global": check_local_global,
    "ratio-chain": check_ratio_chain,
    "mean-vs-average": check_mu_vs_av,
    "local-mean-bound": check_local_mean_bound,
    "vertex-share-bound": check_vertex_share_bound,
    "matchings": check_matchings,
}

# The checks that read the local census; run_checks with one of them takes
# the graph's base census from it.
LOCAL_CHECKS = frozenset({"edge-deletion-exists", "local-global", "local-mean-bound"})


def run_checks(
    g: Graph,
    names: Sequence[str],
    memo: dict[bytes, Fraction] | None = None,
    parent: CheckContext | None = None,
) -> list[CheckVerdict]:
    """The verdicts of the checks ``names`` on g, in their order.

    The checks share one :class:`CheckContext`, which is ``local`` when
    one of them is in :data:`LOCAL_CHECKS`; ``memo`` is its
    certificate-to-mean memo and ``parent`` the context of g minus its
    last vertex, if the caller has one.
    """
    ctx = CheckContext(g, memo, local=not LOCAL_CHECKS.isdisjoint(names), parent=parent)
    # CHECKS is read at each call, so a caller may swap its entries
    return [ctx.run(name, CHECKS[name]) for name in names]
