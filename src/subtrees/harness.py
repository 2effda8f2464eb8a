"""The conjecture-check battery.

Every check is a pure function of its input graph and returns a
:class:`CheckVerdict`.  Status semantics:

* ``holds``  - the checked statement is true on this graph;
* ``fails``  - a *proven* statement is violated, which signals an
  implementation bug, never new mathematics;
* ``report-only`` - informational outcome, including violations of open
  conjectures (those are findings; the witness carries ``finding: True``).

All inequality verdicts are decided by exact integer cross-multiplication
or exact rationals; floating point appears only in human-facing report
fields.

Every check takes an optional :class:`CheckContext`.  Checks of one graph
that share a context share its base census, certificate and local census
(every edge and cherry anchored census); without one, each check builds a
fresh context.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .canon import MAX_CANON, canonical_form, transposition_automorphisms
from .census import (
    LocalCensus,
    SubtreeCensus,
    SubtreeConstraint,
    census,
    census_containing,
    average_connected_set_size,
    local_census,
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
    informational and outside the scan's byte-determinism contract; when
    checks share a :class:`CheckContext`, the first check that needs a
    shared result (the base census above all) is charged for building it.
    """

    check: str
    graph_id: str
    status: str
    witness: dict
    mean: Fraction | None = None
    runtime_ms: float = 0.0


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class CheckContext:
    """What the checks of one graph share.

    The graph6 id, the base census, the canonical certificate and the
    local census (every edge and cherry anchored census) are built on
    first use and at most once.  ``memo`` maps a canonical certificate to
    a mean subtree order; neighbour graphs (g-e, g+e, g/e, g+matching)
    look their mean up there, so a memo that outlives the context (one per
    scan, or per scan worker) computes each isomorphism class once.  It
    holds ``Fraction`` means only, never whole censuses, so its size stays
    small.
    """

    def __init__(self, g: Graph, memo: dict[bytes, Fraction] | None = None):
        self.g = g
        self.memo = {} if memo is None else memo
        self.connected = g.is_connected()
        self.started = time.perf_counter()
        self._graph_id: str | None = None
        self._census: SubtreeCensus | None = None
        self._certificate: bytes | None = None
        self._local: LocalCensus | None = None

    def start(self) -> CheckContext:
        """Begin a check on this graph: require connectivity, reset the clock."""
        if not self.connected:
            raise ValueError("check requires a connected graph")
        self.started = time.perf_counter()
        return self

    def verdict(
        self, check: str, status: str, witness: dict, mean: Fraction | None = None
    ) -> CheckVerdict:
        elapsed_ms = round((time.perf_counter() - self.started) * 1000, 3)
        return CheckVerdict(check, self.graph_id, status, witness, mean, elapsed_ms)

    @property
    def graph_id(self) -> str:
        if self._graph_id is None:
            self._graph_id = to_graph6(self.g)
        return self._graph_id

    @property
    def census(self) -> SubtreeCensus:
        if self._census is None:
            self._census = census(self.g)
        return self._census

    @property
    def mean(self) -> Fraction:
        return self.census.mean

    @property
    def certificate(self) -> bytes:
        if self._certificate is None:
            self._certificate = canonical_form(self.g)
        return self._certificate

    @property
    def local_census(self) -> LocalCensus:
        if self._local is None:
            self._local = local_census(self.g)
        return self._local

    def anchored(self, constraint: SubtreeConstraint) -> tuple[int, int]:
        """Count and total order of the subtrees containing ``constraint``.

        A vertex is read from the base census, an edge or a cherry from the
        local census; any other constraint runs :func:`census_containing`.
        """
        constraint.validate_for(self.g)
        t = len(constraint.vertices)
        if t == 1:
            (v,) = constraint.vertices
            return self.census.vertex_counts[v], self.census.vertex_order_sums[v]
        if constraint.is_tree() and t == 2:
            (edge,) = constraint.edges
            return self.local_census.edges[edge]
        if constraint.is_tree() and t == 3:
            e, f = constraint.edges
            (mid,) = set(e) & set(f)
            a, b = sorted(constraint.vertices - {mid})
            return self.local_census.cherries[(a, mid, b)]
        return census_containing(self.g, constraint)

    def edge_mean(self, u: int, v: int) -> Fraction:
        nc, rc = self.local_census.edges[_norm_edge(u, v)]
        return Fraction(rc, nc)

    def neighbour_mean(self, h: Graph) -> Fraction:
        """Mean subtree order of ``h``, through the memo when it has a certificate.

        Every lookup also files this graph's own mean, because in a
        universe scan the neighbours of one graph are members of it.
        """
        if h.n > MAX_CANON:
            return census(h).mean
        if self.g.n <= MAX_CANON and self.certificate not in self.memo:
            self.memo[self.certificate] = self.mean
        cert = canonical_form(h)
        mean = self.memo.get(cert)
        if mean is None:
            mean = self.memo[cert] = census(h).mean
        return mean


def _start(g: Graph, ctx: CheckContext | None) -> CheckContext:
    """The context a check runs in: ``ctx`` restarted, or a fresh one for ``g``."""
    if ctx is None:
        ctx = CheckContext(g)
    elif ctx.g != g:
        raise ValueError("the check context belongs to another graph")
    return ctx.start()


# Exact structural tests, given connectivity: a connected graph is a path
# iff it has n-1 edges and no degree above 2, a star iff it has n-1 edges
# and a vertex of degree n-1, and a clique iff it has n(n-1)/2 edges.


def _is_path(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and max(map(g.degree, range(g.n))) <= 2


def _is_star(g: Graph) -> bool:
    return g.edge_count == g.n - 1 and any(g.degree(v) == g.n - 1 for v in range(g.n))


def _is_clique(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def check_min_path(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Mean subtree order is at least (n+2)/3, tight exactly on paths."""
    ctx = _start(g, ctx)
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
    return ctx.verdict("min-path", status, witness, mu)


def check_max_clique(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Mean subtree order is at most that of the clique of the same order."""
    ctx = _start(g, ctx)
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
    return ctx.verdict("max-clique", status, witness, mu)


def check_edge_deletion_exists(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Some connectivity-preserving deletion lowers the mean (open)."""
    ctx = _start(g, ctx)
    if g.is_tree():
        return ctx.verdict("edge-deletion-exists", REPORT, {"vacuous": "tree"})
    mu = ctx.mean
    for u, v in g.edges():
        if g.is_bridge(u, v):
            continue
        mu2 = ctx.neighbour_mean(g.delete_edge(u, v))
        if mu2 < mu:
            witness = {"edge": [u, v], "mu_after": frac_str(mu2)}
            return ctx.verdict("edge-deletion-exists", HOLDS, witness, mu)
    witness = {"found": False, "finding": True}
    return ctx.verdict("edge-deletion-exists", REPORT, witness, mu)


def check_edge_addition_exists(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Some edge addition raises the mean (open)."""
    ctx = _start(g, ctx)
    n = g.n
    if _is_clique(g):
        return ctx.verdict("edge-addition-exists", REPORT, {"vacuous": "complete"})
    mu = ctx.mean
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                continue
            mu2 = ctx.neighbour_mean(g.add_edge(u, v))
            if mu2 > mu:
                witness = {"edge": [u, v], "mu_after": frac_str(mu2)}
                return ctx.verdict("edge-addition-exists", HOLDS, witness, mu)
    witness = {"found": False, "finding": True}
    return ctx.verdict("edge-addition-exists", REPORT, witness, mu)


def check_contraction(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Every contraction lowers the mean by at least 1/3 (proven on trees).

    Contraction is simple-graph contraction (parallel edges merged); the
    verdict records that choice.  Equality is expected exactly on paths.
    """
    ctx = _start(g, ctx)
    if g.n < 2:
        return ctx.verdict("contraction-gap", REPORT, {"vacuous": "n < 2"})
    mu = ctx.mean
    third = Fraction(1, 3)
    min_gap = None
    min_edge = None
    violations = []
    equality_edges = []
    for u, v in g.edges():
        gap = mu - ctx.neighbour_mean(g.contract_edge(u, v))
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
    return ctx.verdict("contraction-gap", status, witness, mu)


def check_local_global(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Some vertex and some edge have local mean above the global mean.

    Also reports the non-monotone data: vertices v with mean-at-v <= mean,
    and for those vertices the incident edges e with mean-at-e <= mean-at-v.
    """
    ctx = _start(g, ctx)
    if g.n < 2:
        return ctx.verdict("local-global", REPORT, {"vacuous": "n < 2"})
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
    return ctx.verdict("local-global", status, witness, mu)


def check_ratio_chain(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """The clique-ratio battery on subtree counts, all cross-multiplied.

    (a) near-spanning ratio s_{n-1} s_n(clique) >= s_{n-1}(clique) s_n;
    (b) the full chain over all order pairs j <= k;
    (c) spanning fraction at most the clique's;
    (d) spanning fraction at least the star's, equality only for stars;
    (e) mean at most the clique's.
    """
    ctx = _start(g, ctx)
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
    return ctx.verdict("ratio-chain", status, witness, mu)


def check_mu_vs_av(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Mean subtree order versus mean connected-set size (open question).

    Report-only: records the exact sign.  Equality is proven on trees, so a
    tree with unequal values fails.
    """
    ctx = _start(g, ctx)
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
    return ctx.verdict("mean-vs-average", status, witness, mu)


def _small_subtree_totals(ctx: CheckContext, max_order: int):
    """(vertices, count, order sum) of each subtree of order <= max_order.

    Vertices come first, then edges in ``Graph.edges()`` order, then
    cherries by middle vertex; the verdict's witness depends on this order.
    """
    c = ctx.census
    for v in range(ctx.g.n):
        yield (v,), c.vertex_counts[v], c.vertex_order_sums[v]
    if max_order >= 2:
        for edge, (nc, rc) in ctx.local_census.edges.items():
            yield edge, nc, rc
    if max_order >= 3:
        for cherry, (nc, rc) in ctx.local_census.cherries.items():
            yield cherry, nc, rc


def check_local_mean_bound(
    g: Graph, max_order: int = 3, *, ctx: CheckContext | None = None
) -> CheckVerdict:
    """Local mean at any small subtree is at least (n + |T|)/2 (proven)."""
    if not 1 <= max_order <= 3:
        raise ValueError(f"max_order must be 1, 2 or 3, not {max_order}")
    ctx = _start(g, ctx)
    n = g.n
    worst = None
    violated = None
    for vertices, nc, rc in _small_subtree_totals(ctx, max_order):
        t = len(vertices)
        # mu(g, T) >= (n + t)/2  <=>  2 rc >= (n + t) nc
        slack = 2 * rc - (n + t) * nc
        if worst is None or slack < worst[0]:
            worst = (slack, sorted(vertices))
        if slack < 0:
            violated = sorted(vertices)
            break
    witness = {"max_constraint_order": max_order, "min_slack": worst[0], "at": worst[1]}
    if violated is not None:
        witness["violated_at"] = violated
        status = FAILS
    else:
        status = HOLDS
    return ctx.verdict("local-mean-bound", status, witness)


def check_vertex_share_bound(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Some non-cut vertex lies in at least a 2/(n+1) share of all subtrees.

    Proven, with equality exactly on paths (both ends of a path hit the
    bound; anything else has a strictly better vertex).
    """
    ctx = _start(g, ctx)
    n = g.n
    if n < 3:
        return ctx.verdict("vertex-share-bound", REPORT, {"vacuous": "n < 3"})
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
    return ctx.verdict("vertex-share-bound", status, witness, c.mean)


def _matching_orbits(g: Graph, matchings: list[tuple]) -> dict[int, list[int]]:
    # Collapse matchings equivalent under twin-swap automorphisms of g.
    perms = []
    for u, v in transposition_automorphisms(g):
        p = list(range(g.n))
        p[u], p[v] = v, u
        perms.append(p)
    index = {frozenset(m): i for i, m in enumerate(matchings)}
    parent = list(range(len(matchings)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if perms:
        for i, m in enumerate(matchings):
            for p in perms:
                image = frozenset(
                    (p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in m
                )
                j = index.get(image)
                if j is not None and find(i) != find(j):
                    parent[find(i)] = find(j)
    orbits: dict[int, list[int]] = {}
    for i in range(len(matchings)):
        orbits.setdefault(find(i), []).append(i)
    return orbits


def check_matchings(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """Sign of the mean change when a maximal complement matching is added.

    Every maximal matching of the complement is classified; the mean is
    computed once per isomorphism class of the augmented graph (twin-swap
    orbits first, canonical certificates in the context's memo second).
    ``holds`` means every matching strictly lowers the mean.
    """
    ctx = _start(g, ctx)
    mu = ctx.mean
    matchings = list(maximal_matchings_of_complement(g))
    orbits = _matching_orbits(g, matchings)
    tally = {-1: 0, 0: 0, 1: 0}
    for root, members in orbits.items():
        mu2 = ctx.neighbour_mean(g.add_edges(matchings[root]))
        tally[(mu2 > mu) - (mu2 < mu)] += len(members)
    witness = {
        "matchings": len(matchings),
        "orbits": len(orbits),
        "decrease": tally[-1],
        "unchanged": tally[0],
        "increase": tally[1],
    }
    all_negative = tally[-1] == len(matchings) and len(matchings) > 0
    status = HOLDS if all_negative else REPORT
    return ctx.verdict("matchings", status, witness, mu)


def check_transitive_inequalities(g: Graph, *, ctx: CheckContext | None = None) -> CheckVerdict:
    """For vertex- and edge-transitive graphs: edge mean > vertex mean > mean.

    Verifies that all per-vertex and all per-edge local means agree (a
    contradiction is an input error, not a conjecture failure), the strict
    chain, and the exact convex-combination identity tying the three means
    together through the order-weighted subtree counts.
    """
    ctx = _start(g, ctx)
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
    return ctx.verdict("transitive", status, witness, mu)


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

    One exact mean computation per class.  Class order follows the first
    (lexicographically smallest) representative.
    """
    if not g.simple:
        raise ValueError("classification requires a simple graph")
    if g.n > 24:
        raise ValueError("edge-addition classification capped at 24 vertices")
    base = census(g).mean
    by_cert: dict[bytes, list[tuple[int, int]]] = {}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                by_cert.setdefault(canonical_form(g.add_edge(u, v)), []).append((u, v))
    report = EdgeAdditionReport(to_graph6(g), base)
    for edges in sorted(by_cert.values()):
        rep = edges[0]
        delta = census(g.add_edge(*rep)).mean - base
        sign = (delta > 0) - (delta < 0)
        report.classes.append(EdgeAdditionClass(rep, edges, delta, sign))
    return report


def check_monotonicity_reversal(k: int, d: int, n: int, w: int) -> CheckVerdict:
    """Build a bridged double broom where a bigger constraint has a smaller mean.

    The small constraint S is the path of order k starting at a hub and
    running along the broom path; the large one is S extended through the
    whole added bridge path to the other hub (order k + d).  ``holds``
    means the reversal mean(G,S) > mean(G,S') is exact at these parameters.
    """
    if d < 1:
        raise ValueError("need d >= 1 (S must grow)")
    if k < 1:
        raise ValueError("need k >= 1")
    g = modified_double_broom(n, w, d - 1)
    hub1, hub2 = w - 1, n - (d - 1) - w
    if k > hub2 - hub1:
        raise ValueError("k exceeds the broom path length")
    ctx = CheckContext(g)
    s_vertices = list(range(hub1, hub1 + k))
    s_edges = [(i, i + 1) for i in s_vertices[:-1]]
    bridge = list(range(n - (d - 1), n))
    chain = [hub1] + bridge + [hub2]
    s2_vertices = s_vertices + bridge + [hub2]
    s2_edges = s_edges + [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    small = SubtreeConstraint(frozenset(s_vertices), frozenset(s_edges))
    large = SubtreeConstraint(frozenset(s2_vertices), frozenset(s2_edges))
    nc1, rc1 = census_containing(g, small)
    nc2, rc2 = census_containing(g, large)
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
    status = HOLDS if mu_small > mu_large else REPORT
    return ctx.verdict("monotonicity-reversal", status, witness)


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
