"""Constructors for the named graph families used throughout the library.

Each builder returns a :class:`~subtrees.graphs.Graph` with a documented,
deterministic labelling; :func:`family_labels` exposes the distinguished
vertices (hub vertices, bridge-path vertices) that the reproduction
commands need to address.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its parameters (unused ones stay ``None``)."""

    kind: str
    n: int | None = None
    w: int | None = None
    a: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        for name in FAMILIES[self.kind][1]:
            if getattr(self, name) is None:
                raise ValueError(f"family {self.kind!r} needs parameter {name!r}")


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """Star of order n: centre 0 joined to n-1 leaves."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def clique(n: int) -> Graph:
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite needs both sides nonempty")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def barbell(n: int, w: int) -> Graph:
    """Two w-cliques whose hub vertices are joined by a path.

    Labelling: first clique is ``0..w-1`` with hub ``w-1``, the internal
    path vertices are ``w..n-w-1``, the second hub is ``n-w``, and the
    second clique fills ``n-w..n-1``.  ``n = 2w`` means the hubs are
    adjacent (no internal path vertex).
    """
    if w < 2:
        raise ValueError("barbell needs clique order w >= 2")
    if n < 2 * w:
        raise ValueError(f"barbell of order {n} cannot hold two {w}-cliques")
    edges: list[Edge] = []
    edges += [(u, v) for u in range(w) for v in range(u + 1, w)]
    edges += [(u, v) for u in range(n - w, n) for v in range(u + 1, n)]
    edges += [(i, i + 1) for i in range(w - 1, n - w)]
    return Graph.from_edges(n, edges)


def double_broom(n: int, w: int) -> Graph:
    """A path whose two end vertices each carry w-1 pendant leaves.

    Labelling: leaves ``0..w-2`` on hub ``w-1``, path ``w-1..n-w``, leaves
    ``n-w+1..n-1`` on hub ``n-w``.
    """
    if w < 2:
        raise ValueError("double broom needs star order w >= 2")
    if n < 2 * w:
        raise ValueError(f"double broom of order {n} needs n >= {2 * w}")
    edges: list[Edge] = [(i, w - 1) for i in range(w - 1)]
    edges += [(i, i + 1) for i in range(w - 1, n - w)]
    edges += [(n - w, i) for i in range(n - w + 1, n)]
    return Graph.from_edges(n, edges)


def _with_bridge_path(base: Graph, n: int, a: int, hub1: int, hub2: int) -> Graph:
    # Append a disjoint path of `a` new vertices joining hub1 and hub2.
    if a == 0:
        if base.has_edge(hub1, hub2):
            raise ValueError("hub vertices already adjacent; a = 0 adds nothing")
        return base.add_edge(hub1, hub2)
    edges = list(base.edges())
    first, last = n - a, n - 1
    edges.append((hub1, first))
    edges += [(i, i + 1) for i in range(first, last)]
    edges.append((last, hub2))
    return Graph.from_edges(n, edges)


def modified_barbell(n: int, w: int, a: int) -> Graph:
    """Barbell of order ``n - a`` with an extra hub-to-hub path of length a+1."""
    if a < 0:
        raise ValueError("bridge-path parameter a must be >= 0")
    base = barbell(n - a, w)
    return _with_bridge_path(base, n, a, w - 1, n - a - w)


def modified_double_broom(n: int, w: int, a: int) -> Graph:
    """Double broom of order ``n - a`` with an extra hub-to-hub path of length a+1."""
    if a < 0:
        raise ValueError("bridge-path parameter a must be >= 0")
    base = double_broom(n - a, w)
    return _with_bridge_path(base, n, a, w - 1, n - a - w)


def join_clique_independent(n: int, m: int) -> Graph:
    """Clique of order n fully joined to m independent vertices."""
    if n < 1 or m < 0:
        raise ValueError("join needs clique order n >= 1 and m >= 0")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += [(u, n + i) for u in range(n) for i in range(m)]
    return Graph.from_edges(n + m, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# kind -> (builder, the FamilySpec fields it takes, in order)
FAMILIES = {
    "path": (path_graph, ("n",)),
    "star": (star_graph, ("n",)),
    "clique": (clique, ("n",)),
    "cycle": (cycle, ("n",)),
    "barbell": (barbell, ("n", "w")),
    "modified_barbell": (modified_barbell, ("n", "w", "a")),
    "double_broom": (double_broom, ("n", "w")),
    "modified_double_broom": (modified_double_broom, ("n", "w", "a")),
    "join_clique_independent": (join_clique_independent, ("n", "m")),
    "petersen": (petersen, ()),
}


def build_family(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; order must stay <= 64."""
    builder, names = FAMILIES[spec.kind]
    return builder(*(getattr(spec, name) for name in names))


def family_labels(spec: FamilySpec) -> dict[str, object]:
    """Distinguished vertices of a family under its canonical labelling.

    Returns hub indices for (modified) barbells and double brooms and the
    list of bridge-path vertices for the modified variants.
    """
    kind, n, w, a = spec.kind, spec.n, spec.w, spec.a
    if kind in ("barbell", "double_broom"):
        return {"hub1": w - 1, "hub2": n - w}
    if kind in ("modified_barbell", "modified_double_broom"):
        return {
            "hub1": w - 1,
            "hub2": n - a - w,
            "bridge": list(range(n - a, n)),
        }
    if kind == "path":
        return {"ends": [0, n - 1]}
    if kind == "star":
        return {"centre": 0}
    return {}


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI mini-grammar ``family:<kind>:<p1>[:<p2>[:<p3>]]``."""
    parts = text.split(":")
    if parts[0] != "family" or len(parts) < 2:
        raise ValueError(f"not a family spec: {text!r}")
    kind = parts[1]
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}")
    try:
        params = [int(p) for p in parts[2:]]
    except ValueError:
        raise ValueError(f"non-integer family parameter in {text!r}") from None
    names = FAMILIES[kind][1]
    if len(params) != len(names):
        raise ValueError(
            f"family {kind!r} takes {len(names)} parameter(s) {names}, got {len(params)}"
        )
    return FamilySpec(kind, **dict(zip(names, params)))
