"""Spans around the public functions of ``subtrees``, kept in memory.

The tracer wraps functions from outside the package.  Callers inside the
package bind many of them by name at import (``from .census import census``),
so :func:`install` replaces every module attribute that holds the original
function, not only the one in the defining module, and the entries of the
check registry.  ``subtrees.census`` on the package is the function, so
modules are reached through ``sys.modules``.

A call of a layer already open on the stack (``add_edges`` calling
``add_edge``, the recursion of ``generate_connected``) is not a new span,
so each layer counts its outermost calls once.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from itertools import islice

from checks import FAMILY_REPROS

# The 11 checks of ``harness.CHECKS`` that ``scan-n7`` runs.  They are written
# out rather than read from the program so that the workload and its
# per-layer metric names stay fixed when the program gains a check.
CHECK_NAMES = (
    "min-path",
    "max-clique",
    "edge-deletion-exists",
    "edge-addition-exists",
    "contraction-gap",
    "local-global",
    "ratio-chain",
    "mean-vs-average",
    "local-mean-bound",
    "vertex-share-bound",
    "matchings",
)
FAMILY_NAMES = tuple(FAMILY_REPROS)


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def timed(layer: str, self_time: bool = False) -> None:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.s", "s", "lower"))
        if self_time:
            out.append((f"{layer}.self_s", "s", "lower"))

    timed("graphs.from_graph6")
    timed("graphs.to_graph6")
    timed("graphs.edit")
    timed("canon.canonical_form")
    out.append(("canon.generate_connected.s", "s", "lower"))
    timed("census.census")
    out.append(("census.census.distinct_share", "ratio", "higher"))
    timed("census.census_containing")
    timed("census.average_connected_set_size")
    for check in CHECK_NAMES:
        timed(f"harness.{check}", self_time=True)
    timed("harness.classify_edge_additions", self_time=True)
    out.append(("scan.scan.s", "s", "lower"))
    out.append(("scan.scan.self_s", "s", "lower"))
    out.append(("scan.scan.records", "count", "higher"))
    out.append(("scan.scan.output_bytes", "B", "lower"))
    for name in FAMILY_NAMES:
        out.append((f"repro.{name}.s", "s", "lower"))
    return out


class Tracer:
    """Spans kept column-wise: name, start, end and the index of the parent
    span (-1 for none).  Columns of floats and ints keep hundreds of
    thousands of spans out of the garbage collector's way."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.census_graphs: list[tuple] = []
        self.enabled = True
        self._stack: list[int] = []
        self._open: set[str] = set()

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled or name in self._open:
            return fn(*args, **kwargs)
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open.add(name)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
            self._open.discard(name)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), span))) + "\n")


def _replace_everywhere(orig, new) -> None:
    for name, module in list(sys.modules.items()):
        if name != "subtrees" and not name.startswith("subtrees."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of the imported ``subtrees`` package."""
    mods = sys.modules
    graphs, canon = mods["subtrees.graphs"], mods["subtrees.canon"]
    census_mod, harness, scan = mods["subtrees.census"], mods["subtrees.harness"], mods["subtrees.scan"]

    for module, attr, layer in (
        (graphs, "from_graph6", "graphs.from_graph6"),
        (graphs, "to_graph6", "graphs.to_graph6"),
        (canon, "canonical_form", "canon.canonical_form"),
        (census_mod, "census_containing", "census.census_containing"),
        (census_mod, "average_connected_set_size", "census.average_connected_set_size"),
        (harness, "classify_edge_additions", "harness.classify_edge_additions"),
        (scan, "scan", "scan.scan"),
    ):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tracer.wrap(layer, orig))

    orig_census = census_mod.census

    def census(g, *args, **kwargs):
        if tracer.enabled:
            tracer.census_graphs.append((g.n, g.rows))
        return tracer.call("census.census", orig_census, (g, *args), kwargs)

    _replace_everywhere(orig_census, census)

    # generate_connected is a generator whose work happens on the first
    # next(); the span covers that work by materialising the list.
    orig_generate = canon.generate_connected

    def generate_connected(n):
        return iter(tracer.call("canon.generate_connected", lambda: list(orig_generate(n)), (), {}))

    _replace_everywhere(orig_generate, generate_connected)

    for method in ("add_edge", "delete_edge", "add_edges", "contract_edge"):
        setattr(graphs.Graph, method, tracer.wrap("graphs.edit", getattr(graphs.Graph, method)))

    for check, fn in list(harness.CHECKS.items()):
        traced = tracer.wrap(f"harness.{check}", fn)
        _replace_everywhere(fn, traced)
        harness.CHECKS[check] = traced


def _distinct_share(graphs: list[tuple]) -> float:
    """Isomorphism classes among the graphs given to ``census``, per call."""
    if not graphs:
        return 0.0
    canon = sys.modules["subtrees.canon"]
    graph_cls = sys.modules["subtrees.graphs"].Graph
    canonical_form = getattr(canon.canonical_form, "__wrapped__", canon.canonical_form)
    classes = set()
    for n, rows in set(graphs):
        classes.add(canonical_form(graph_cls(n, rows)) if n <= canon.MAX_CANON else (n, rows))
    return len(classes) / len(graphs)


def aggregate(tracer: Tracer, first_span: int = 0, first_graph: int = 0) -> dict[str, float]:
    """Per-layer metrics of the spans recorded from ``first_span`` on.

    ``self_s`` subtracts the spans nested directly inside; for ``scan.scan``
    only the check spans are subtracted, so its self time is validation,
    decoding, serialisation, writing and waiting on workers.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    nested: dict[str, float] = defaultdict(float)
    scan_checks = 0.0
    spans = zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    for name, start, end, parent in islice(spans, first_span, None):
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            parent_name = tracer.names[parent]
            nested[parent_name] += end - start
            if parent_name == "scan.scan" and name.startswith("harness."):
                scan_checks += end - start
    values: dict[str, float] = {}
    for metric, _, _ in layer_metrics():
        values[metric] = 0
        layer, stat = metric.rsplit(".", 1)
        if stat == "calls":
            values[metric] = calls[layer]
        elif stat == "s":
            values[metric] = busy[layer]
        elif stat == "self_s":
            inner = scan_checks if layer == "scan.scan" else nested[layer]
            values[metric] = busy[layer] - inner
    values["census.census.distinct_share"] = _distinct_share(tracer.census_graphs[first_graph:])
    return values
