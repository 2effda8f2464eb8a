"""Output checks for the benchmark workloads.

Every check compares the program's output with facts computed here, by
code that shares nothing with ``subtrees``:

* graph6 decoding, connectivity and degree sequences;
* counts of connected graphs by order (OEIS A001349) and by edge number
  (OEIS A054924), the latter derived by Polya counting;
* pairwise non-isomorphism by colour refinement plus a backtracking
  isomorphism test;
* the path and clique bounds on the mean subtree order, the clique one
  from Cayley's formula;
* a mean subtree order from an independent subtree enumeration.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  The functions take parsed output, so the self-test
can feed them corrupted copies.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from fractions import Fraction

# OEIS A001349: connected graphs on n unlabelled vertices.
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

ALLOWED_STATUSES = ("holds", "report-only")


# -- graphs -------------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def decode_graph6(text: str) -> list[int]:
    """Neighbour bitmasks of a graph6 string of order at most 62."""
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 order outside 1..62: {text!r}")
    bits = []
    for ch in text[1:]:
        word = ord(ch) - 63
        bits.extend((word >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return adj


def edge_count(adj: list[int]) -> int:
    return sum(m.bit_count() for m in adj) // 2


def is_connected(adj: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def is_tree(adj: list[int]) -> bool:
    return edge_count(adj) == len(adj) - 1 and is_connected(adj)


def is_path(adj: list[int]) -> bool:
    """A connected graph is a path iff its degree sequence is 1, 1, 2, ..., 2."""
    n = len(adj)
    degrees = sorted(m.bit_count() for m in adj)
    if n == 1:
        return True
    return degrees == [1, 1] + [2] * (n - 2) and is_connected(adj)


# -- counting by Polya's theorem ------------------------------------------------


def _partitions(n: int, largest: int):
    if n == 0:
        yield []
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield [part] + rest


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _graphs_by_edges(n: int) -> list[int]:
    """Unlabelled graphs of order n (connected or not), by edge number.

    Burnside over the symmetric group acting on vertex pairs: a permutation
    of cycle type lambda splits the pairs into cycles, and a graph fixed by
    it takes each pair cycle whole or not at all.
    """
    total = [0] * (n * (n - 1) // 2 + 1)
    for parts in _partitions(n, n):
        centraliser = 1
        for length, mult in Counter(parts).items():
            centraliser *= length**mult * math.factorial(mult)
        poly = [1]
        for i, a in enumerate(parts):
            pair_cycles = [(a, (a - 1) // 2)] if a % 2 else [(a, (a - 2) // 2), (a // 2, 1)]
            pair_cycles += [(math.lcm(a, b), math.gcd(a, b)) for b in parts[i + 1 :]]
            for length, count in pair_cycles:
                for _ in range(count):
                    poly = _poly_mul(poly, [1] + [0] * (length - 1) + [1])
        for edges, coeff in enumerate(poly):
            total[edges] += math.factorial(n) // centraliser * coeff
    quotients = [divmod(c, math.factorial(n)) for c in total]
    if any(r for _, r in quotients):
        raise ArithmeticError("Burnside sum not divisible by n!")
    return [q for q, _ in quotients]


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def connected_graphs_by_edges(n: int) -> dict[int, int]:
    """Row n of OEIS A054924: connected unlabelled graphs by edge number.

    All graphs are multisets of connected ones, G = exp(sum_k C(t^k, x^k)/k),
    so C follows from log G by Moebius inversion.
    """
    graphs = [[1]] + [_graphs_by_edges(k) for k in range(1, n + 1)]
    logs: list[list] = [[]]
    for k in range(1, n + 1):
        acc = [Fraction(c) for c in graphs[k]]
        for j in range(1, k):
            term = _poly_mul(logs[j], graphs[k - j])
            for e, c in enumerate(term):
                acc[e] -= Fraction(j, k) * c
        logs.append(acc)
    row: dict[int, Fraction] = defaultdict(Fraction)
    for d in range(1, n + 1):
        if n % d == 0 and _mobius(d):
            for e, c in enumerate(logs[n // d]):
                row[e * d] += Fraction(_mobius(d), d) * c
    out = {}
    for e, c in row.items():
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral count {c} at {e} edges")
        if c:
            out[e] = int(c)
    return out


# -- isomorphism ---------------------------------------------------------------


def _refined_colours(adj: list[int], palette: dict) -> list[int]:
    """Colour refinement from degrees; the shared palette keeps colours
    comparable between graphs, so isomorphic graphs get equal multisets."""
    n = len(adj)
    colours = [palette.setdefault((m.bit_count(),), len(palette)) for m in adj]
    for _ in range(n):
        new = [
            palette.setdefault(
                (colours[v], tuple(sorted(colours[u] for u in _bits(adj[v])))), len(palette)
            )
            for v in range(n)
        ]
        stable = len(set(new)) == len(set(colours))
        colours = new
        if stable:
            break
    return colours


def _isomorphic(a: list[int], ca: list[int], b: list[int], cb: list[int]) -> bool:
    n = len(a)
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if (used >> w) & 1 or cb[w] != ca[v]:
                continue
            if all(((a[v] >> u) & 1) == ((b[w] >> image[u]) & 1) for u in range(v)):
                image[v] = w
                if extend(v + 1, used | (1 << w)):
                    return True
        return False

    return extend(0, 0)


def check_universe(ids: list[str], n: int) -> list[str]:
    """``ids`` must be every connected graph of order n, once per class."""
    problems = []
    if len(ids) != CONNECTED_GRAPHS[n]:
        problems.append(f"order {n}: {len(ids)} graphs, A001349 gives {CONNECTED_GRAPHS[n]}")
    if len(set(ids)) != len(ids):
        problems.append(f"order {n}: repeated graph6 strings")
    buckets: dict[tuple, list] = defaultdict(list)
    by_edges: Counter = Counter()
    palette: dict = {}
    for gid in ids:
        adj = decode_graph6(gid)
        if len(adj) != n or not is_connected(adj):
            problems.append(f"{gid}: not a connected graph of order {n}")
            continue
        by_edges[edge_count(adj)] += 1
        colours = _refined_colours(adj, palette)
        buckets[(edge_count(adj), tuple(sorted(colours)))].append((gid, adj, colours))
    for members in buckets.values():
        for i, (gid, a, ca) in enumerate(members):
            for hid, b, cb in members[i + 1 :]:
                if _isomorphic(a, ca, b, cb):
                    problems.append(f"{gid} and {hid} are isomorphic")
    expected = connected_graphs_by_edges(n)
    if dict(by_edges) != expected:
        problems.append(
            f"order {n}: counts by edge number {dict(sorted(by_edges.items()))}, "
            f"A054924 gives {dict(sorted(expected.items()))}"
        )
    return problems


# -- mean subtree order ----------------------------------------------------------


def path_mean(n: int) -> Fraction:
    return Fraction(n + 2, 3)


def clique_mean(n: int) -> Fraction:
    """Mean subtree order of K_n: k-vertex subtrees number C(n,k) k^(k-2)."""
    counts = {k: math.comb(n, k) * (k ** (k - 2) if k >= 2 else 1) for k in range(1, n + 1)}
    return Fraction(sum(k * c for k, c in counts.items()), sum(counts.values()))


def subtree_mean(adj: list[int]) -> Fraction:
    """Mean subtree order by listing subtrees as edge sets.

    Each subtree is charged to its smallest vertex r and grown from r by
    deciding, one frontier edge at a time, to take the edge or to exclude it
    for good; every leaf of that decision tree is one subtree.
    """
    n = len(adj)
    count = order_sum = 0
    for r in range(n):
        higher = ((1 << n) - 1) & ~((1 << (r + 1)) - 1)
        stack = [(1 << r, 1, [(r, w) for w in _bits(adj[r] & higher)])]
        while stack:
            tree, k, frontier = stack.pop()
            if not frontier:
                count += 1
                order_sum += k
                continue
            (_, w), rest = frontier[0], frontier[1:]
            stack.append((tree, k, rest))
            grown = tree | (1 << w)
            taken = [e for e in rest if e[1] != w]
            taken += [(w, z) for z in _bits(adj[w] & higher & ~grown)]
            stack.append((grown, k + 1, taken))
    return Fraction(order_sum, count)


def parse_fraction(text: str) -> Fraction:
    p, q = text.split("/")
    return Fraction(int(p), int(q))


# -- scan output -------------------------------------------------------------------


def parse_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def check_scan(
    records: list[dict],
    n: int,
    checks: list[str],
    oracle: dict[str, Fraction],
    input_ids: list[str] | None = None,
) -> list[str]:
    """Scan records over the order-n universe with the named checks.

    ``oracle`` maps graph6 strings to independently enumerated means.
    Without ``input_ids`` the universe is the set of graphs in the records.
    """
    problems = []
    by_graph: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        by_graph[rec["graph"]].append(rec)
    ids = list(by_graph) if input_ids is None else input_ids
    problems += check_universe(ids, n)
    if set(by_graph) != set(ids):
        problems.append(f"records cover {len(by_graph)} graphs, input has {len(set(ids))}")
    lower, upper = path_mean(n), clique_mean(n)
    equality = []
    for gid, recs in by_graph.items():
        if sorted(r["check"] for r in recs) != sorted(checks):
            problems.append(f"{gid}: checks {sorted(r['check'] for r in recs)}")
        for r in recs:
            if r["status"] not in ALLOWED_STATUSES:
                problems.append(f"{gid}: {r['check']} has status {r['status']!r}")
        means = {r["mu"] for r in recs if r["mu"] is not None}
        if len(means) > 1:
            problems.append(f"{gid}: records disagree on mu: {sorted(means)}")
        for text in means:
            mu = parse_fraction(text)
            if not lower <= mu <= upper:
                problems.append(f"{gid}: mu {text} outside [{lower}, {upper}]")
        for r in recs:
            if r["mu"] is not None and r["mu_float"] != float(parse_fraction(r["mu"])):
                problems.append(f"{gid}: mu_float {r['mu_float']} != mu {r['mu']}")
        adj = decode_graph6(gid)
        for r in recs:
            if r["check"] == "min-path" and r["witness"].get("equality"):
                equality.append(gid)
            if r["check"] == "mean-vs-average" and is_tree(adj) and r["witness"]["sign"] != 0:
                problems.append(f"{gid}: tree with mean-vs-average sign {r['witness']['sign']}")
        if gid in oracle and means != {f"{oracle[gid].numerator}/{oracle[gid].denominator}"}:
            problems.append(f"{gid}: mu {sorted(means)}, enumeration gives {oracle[gid]}")
    if "min-path" in checks:
        if len(equality) != 1 or not is_path(decode_graph6(equality[0])):
            problems.append(f"min-path equality on {equality}, expected the path alone")
    missing = set(oracle) - set(by_graph)
    if missing:
        problems.append(f"oracle sample graphs without records: {sorted(missing)}")
    if len(records) != len(ids) * len(checks):
        problems.append(f"{len(records)} records, expected {len(ids)} x {len(checks)}")
    return problems


def check_tallies(tallies: dict, records: list[dict]) -> list[str]:
    """The scan's final tallies must agree with the records it wrote."""
    counted = Counter((r["check"], r["status"]) for r in records)
    reported = Counter(
        {(check, status): k for check, per in tallies["tallies"].items() for status, k in per.items() if k}
    )
    problems = []
    if counted != reported:
        problems.append(f"tallies {dict(reported)} disagree with records {dict(counted)}")
    if tallies["consumed"] != len({r["graph"] for r in records}):
        problems.append(f"tallies consumed {tallies['consumed']} graphs")
    return problems


# -- family reproductions ---------------------------------------------------------

# name -> (family census key, bridge vertex whose local mean the report prints)
FAMILY_REPROS = {
    "barbell-14-6-additions": ("barbell(14,6)", None),
    "barbell-14-6-matchings": ("barbell(14,6)", None),
    "dstar-16-5-local": ("modified_barbell(16,5,1)", 15),
    "dbstar-23-8-local": ("modified_double_broom(23,8,1)", 22),
}
BARBELL_SPANNING_TREES = (6**4) ** 2  # Cayley: K_6 has 6^4 spanning trees
BARBELL_MATCHINGS = 27240

_FRACTION = r"(\d+/\d+)"


def _reported(pattern: str, lines: list[str]) -> str | None:
    for line in lines:
        m = re.search(pattern, line)
        if m:
            return m.group(1)
    return None


def check_census(name: str, c: dict) -> list[str]:
    """Identities every census satisfies, and the mean bounds."""
    n = len(c["vertex_counts"])
    problems = []
    if sum(c["vertex_counts"]) != c["order_sum"]:
        problems.append(f"{name}: sum of vertex counts {sum(c['vertex_counts'])} != order sum {c['order_sum']}")
    if sum(c["counts"]) != c["num_subtrees"]:
        problems.append(f"{name}: counts sum to {sum(c['counts'])}, not {c['num_subtrees']}")
    if sum(k * s for k, s in enumerate(c["counts"])) != c["order_sum"]:
        problems.append(f"{name}: order-weighted counts disagree with the order sum")
    if c["counts"][1] != n or c["counts"][2] != c["edges"]:
        problems.append(f"{name}: s_1 = {c['counts'][1]}, s_2 = {c['counts'][2]}")
    mean = Fraction(c["order_sum"], c["num_subtrees"])
    if not path_mean(n) < mean < clique_mean(n):
        problems.append(f"{name}: mean {mean} outside the path and clique means")
    return problems


def check_families(
    results: dict[str, tuple[bool, list[str]]], censuses: dict[str, dict], skip: list[str] = ()
) -> list[str]:
    """Reproduction reports against the family censuses and known counts.

    ``skip`` names reproductions that raised; they are counted as failed
    operations, not checked.
    """
    problems = []
    for name, c in censuses.items():
        problems += check_census(name, c)
    barbell = censuses["barbell(14,6)"]
    if barbell["counts"][14] != BARBELL_SPANNING_TREES:
        problems.append(f"barbell(14,6): s_14 = {barbell['counts'][14]}, expected {BARBELL_SPANNING_TREES}")
    for name, (family, bridge) in FAMILY_REPROS.items():
        if name in skip:
            continue
        if name not in results:
            problems.append(f"{name}: no result")
            continue
        ok, lines = results[name]
        if ok is not True:
            problems.append(f"{name}: reproduction reports failure")
        c = censuses[family]
        mean = Fraction(c["order_sum"], c["num_subtrees"])
        if name == "barbell-14-6-matchings":
            found = _reported(r"(\d+) maximal complement matchings", lines)
            dec = _reported(r"decrease: (\d+)", lines)
            if found != str(BARBELL_MATCHINGS) or dec != str(BARBELL_MATCHINGS):
                problems.append(f"{name}: {found} matchings, {dec} lowering, expected {BARBELL_MATCHINGS}")
            continue
        if _reported(r"mean = " + _FRACTION, lines) != f"{mean.numerator}/{mean.denominator}":
            problems.append(f"{name}: reported mean differs from the census mean {mean}")
        if bridge is not None:
            local = Fraction(c["vertex_order_sums"][bridge], c["vertex_counts"][bridge])
            if _reported(r"mean at bridge vertex \d+ = " + _FRACTION, lines) != f"{local.numerator}/{local.denominator}":
                problems.append(f"{name}: reported bridge-vertex mean differs from the census {local}")
        if name == "barbell-14-6-additions" and _reported(r"classes raising the mean: (\d+)", lines) != "1":
            problems.append(f"{name}: expected exactly one class raising the mean")
    return problems
