"""Streaming check runs over graph6 input with resumable checkpoints.

One JSONL record is appended per (graph, check); tallies and the violation
list live in a :class:`ScanState` that is persisted every
:data:`CHECKPOINT_EVERY` graphs and when the scan ends.  Resuming
truncates the output back to the last synced byte offset and skips the
consumed prefix of the input, so an interrupted-and-resumed scan
reproduces a single-pass run byte for byte (up to the informational
``runtime_ms`` field).  The checkpoint holds a fingerprint of the input
it has consumed: the number of graph6 lines consumed and the SHA-256 of
those lines (normalised, one per line).  A checkpoint without one, or
whose count is not ``consumed``, is rejected, and a resume whose input
does not start with the same lines raises :class:`ScanError`.

Input is validated before anything is written: a malformed graph6 line
or a disconnected graph raises :class:`ScanError` naming the line.

Work is done in units, and a unit is a plain value.  A unit of line input
is one validated line (a ``str``), which the worker decodes: the scan
process holds only the texts of the lines it validated.  A unit of a
built-in universe (``scan(n, ...)``, ``subtrees scan --n N``) is one order
n-1 parent (a ``Graph``) from ``generate_connected(n - 1)``: its worker
generates the parent's children (``canon._children``) and checks them, so
the universe is never held whole, and the graphs arrive in the order of
``subtrees generate n``, whose lines scan to the same records and the same
fingerprint.  A worker returns per graph the text the fingerprint hashes,
its records already encoded as JSONL bytes and the fields
:meth:`ScanState.record` tallies.  A line's text is the line itself; a
child's is the ``graph_id`` of its verdicts, the same ``to_graph6`` line
``subtrees generate n`` prints, so each child is encoded once.  The scan
process takes the units in order and only writes, tallies, hashes and
saves checkpoints.  With one job the same unit function runs in-process.
A resume first hashes the texts of the consumed units without running a
check (a line unit is its own text; a parent unit generates and encodes
its children), to verify the fingerprint and find the graph to continue
from, which may lie inside a parent's children.

The checks of one graph run through :func:`~subtrees.harness.run_checks`,
in one :class:`~subtrees.harness.CheckContext`, which computes the base
census, certificate and anchored censuses at most once.  A parent unit
gives each child's context a context of the parent, and the child's
context chooses its census: off its local census when a check needs one,
else from the parent's table of the spanning-tree counts of its vertex
subsets, built once for all its children; the parent takes no census.
One exact layer over that table at the child's new vertex completes the
child's own table, off which its census is summed, with no block DP and
no determinant (:func:`~subtrees.census.census_from_parent`).  The
table has 2**(n-1) entries, so a context takes a parent only up to
:data:`~subtrees.canon.MAX_GENERATE` vertices.  A certificate-to-mean
memo, cleared when a ``scan`` call starts (pool workers fork with it
empty and each keeps its own), serves the means of neighbour graphs (g+e,
g/e, g+matching), which in a universe scan recur across graphs.
The memo is unbounded: it holds one ``Fraction`` per isomorphism class seen.
In front of it, :func:`~subtrees.canon.canonical_form` caches a labelled
neighbour's certificate (1,024 entries, the least recently used dropped
when full), since siblings share labels and so often share a neighbour;
forked workers inherit a copy of that cache, and as it is a function of
the labelled rows alone, no result depends on what it holds.

Every verdict is a pure function of its graph, so scans may also fan work
out over worker processes; results are merged in input order, which keeps
tallies and output deterministic regardless of scheduling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable

from .canon import MAX_GENERATE, _children, generate_connected
from .graphs import Graph, from_graph6, to_graph6
from .harness import (
    CHECKS,
    FAILS,
    HOLDS,
    REPORT,
    CheckContext,
    CheckVerdict,
    frac_str,
    run_checks,
)


class ScanError(Exception):
    pass


STATUSES = (HOLDS, FAILS, REPORT)

# Graphs between two checkpoint saves; a scan also saves when it ends.
CHECKPOINT_EVERY = 1000


@dataclass
class ScanState:
    checks: list[str]
    consumed: int = 0
    tallies: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    output_bytes: int = 0
    # (consumed, SHA-256 hex of the consumed lines), or None before the first save
    fingerprint: tuple[int, str] | None = None

    def record(self, check: str, graph_id: str, status: str, finding: bool) -> None:
        """Tally one verdict; ``finding`` is whether its witness reports one."""
        per_check = self.tallies.setdefault(check, dict.fromkeys(STATUSES, 0))
        per_check[status] += 1
        if status == FAILS or finding:
            self.violations.append({"check": check, "graph": graph_id, "status": status})

    def tallies_json(self) -> str:
        """Deterministic serialisation of the tallies and violations."""
        payload = {
            "consumed": self.consumed,
            "tallies": self.tallies,
            "violations": self.violations,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_state(state: ScanState, path: str) -> None:
    payload = {
        "checks": state.checks,
        "consumed": state.consumed,
        "tallies": state.tallies,
        "violations": state.violations,
        "output_bytes": state.output_bytes,
        "fingerprint": state.fingerprint,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


_STATE_FIELDS = {"checks": list, "consumed": int, "tallies": dict, "violations": list, "output_bytes": int}


def load_state(path: str) -> ScanState:
    """The state saved at ``path``; raises :class:`ScanError` naming the
    file when it is not JSON, not an object, or lacks a field or has one
    of the wrong type: each tallies entry must map the three statuses to
    counts, each violation must be an object, and the fingerprint must
    count exactly the consumed graphs."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ScanError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScanError(f"checkpoint {path} is not a JSON object")
    for name, kind in _STATE_FIELDS.items():
        value = payload.get(name)
        # `type` rather than isinstance: JSON true is not a count
        if type(value) is not kind or (kind is int and value < 0):
            raise ScanError(f"checkpoint {path}: field {name!r} is missing or invalid")
    for name, per_check in payload["tallies"].items():
        if type(per_check) is not dict or set(per_check) != set(STATUSES) or any(
            type(x) is not int or x < 0 for x in per_check.values()
        ):
            raise ScanError(f"checkpoint {path}: field 'tallies' is invalid at {name!r}")
    if not all(type(v) is dict for v in payload["violations"]):
        raise ScanError(f"checkpoint {path}: field 'violations' holds a non-object")
    fingerprint = payload.get("fingerprint")
    if not (
        type(fingerprint) is list
        and [type(x) for x in fingerprint] == [int, str]
        and fingerprint[0] == payload["consumed"]
    ):
        raise ScanError(f"checkpoint {path}: field 'fingerprint' is missing or invalid")
    return ScanState(**{name: payload[name] for name in _STATE_FIELDS}, fingerprint=tuple(fingerprint))


def verdict_record(verdict: CheckVerdict) -> dict:
    record = {
        "check": verdict.check,
        "graph": verdict.graph_id,
        "status": verdict.status,
        "witness": verdict.witness,
        "mu": None if verdict.mean is None else frac_str(verdict.mean),
        "mu_float": float(verdict.mean) if verdict.mean is not None else None,
        "runtime_ms": verdict.runtime_ms,
    }
    return record


def verdict_jsonl(verdict: CheckVerdict) -> str:
    return json.dumps(verdict_record(verdict), sort_keys=True, separators=(",", ":"))


CSV_FIELDS = ("check", "graph", "status", "mu", "mu_float", "runtime_ms", "witness")


def record_csv_row(record: dict) -> list[str]:
    """The CSV rendering of one verdict record (same data as the JSONL)."""
    row = []
    for name in CSV_FIELDS:
        value = record[name]
        if name == "witness":
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        row.append("" if value is None else str(value))
    return row


# -- units of work -------------------------------------------------------------
#
# A unit is a validated graph6 line (``str``), one graph, or an order n-1
# parent (``Graph``), whose children are its graphs in generation order.


def _read_lines(lines: Iterable[str]) -> list[str]:
    """Every non-blank line, stripped; raises :class:`ScanError` naming
    the first malformed or disconnected line.  Graphs are decoded to be
    validated, then dropped: a unit decodes its line again."""
    texts = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            g = from_graph6(text)
        except ValueError as exc:
            raise ScanError(f"malformed graph6 at line {lineno}: {exc}") from exc
        if not g.is_connected():
            raise ScanError(f"disconnected graph at line {lineno}: checks need connected graphs")
        texts.append(text)
    return texts


def _universe_units(n: int) -> list[str | Graph]:
    """The units of the order-n universe.

    Its units are the order n-1 parents; the graphs come out in the order
    of ``generate_connected(n)``.  Order 1 has no parent, so its one graph
    is a line.
    """
    if not 1 <= n <= MAX_GENERATE:
        raise ValueError(f"built-in generation supports 1 <= n <= {MAX_GENERATE}")
    if n == 1:
        return [to_graph6(g) for g in generate_connected(1)]
    return list(generate_connected(n - 1))


# The mean memo of the scan's checks, keyed by certificate: `scan` clears
# it before any unit runs, so a serial scan starts empty and pool workers
# fork with it empty, each then keeping its own for the rest of the scan.
_memo: dict = {}


def _check_unit(task: tuple) -> list[tuple[str, bytes, list[tuple]]]:
    """Run the checks over one unit's graphs, skipping the first ``skip``.

    ``task`` is ``(unit, skip, names)``.  Per graph it returns the text
    the fingerprint hashes, its finished JSONL records and, per verdict,
    the arguments of :meth:`ScanState.record`, so the scan process neither
    decodes, checks nor encodes.  A line's text is the line; a child's is
    the ``graph_id`` of its verdicts, so each child is encoded once.  The
    children of a parent unit share one context of the parent, from which
    each child's context may inherit its census.
    """
    unit, skip, names = task
    line = unit if isinstance(unit, str) else None
    parent = None if line else CheckContext(unit)
    results = []
    for g in ([from_graph6(line)] if line else _children(unit))[skip:]:
        verdicts = run_checks(g, names, _memo, parent)
        records = b"".join(verdict_jsonl(v).encode() + b"\n" for v in verdicts)
        marks = [(v.check, v.graph_id, v.status, bool(v.witness.get("finding"))) for v in verdicts]
        results.append((line or verdicts[0].graph_id, records, marks))
    return results


def _prefix(units: list[str | Graph], k: int):
    """The SHA-256 of the texts of the first ``k`` graphs, and where the
    next graph lies: (digest, unit index, graphs to skip in that unit).

    A line unit is its own text, so no line is decoded here; a parent
    unit generates and encodes its children, the only encoding outside the
    checks, which a scan needs only when it resumes.  No check runs.  A
    stream with fewer than ``k`` graphs hashes all of them.
    """
    # hashlib loads OpenSSL, about 3.6 MB of resident memory, so only a
    # scan that keeps a checkpoint imports it
    import hashlib

    digest = hashlib.sha256()
    count = 0
    for index, unit in enumerate(units):
        if count == k:
            return digest, index, 0
        texts = [unit] if isinstance(unit, str) else [to_graph6(child) for child in _children(unit)]
        for text in texts[: k - count]:
            digest.update(text.encode() + b"\n")
        if count + len(texts) > k:
            return digest, index, k - count
        count += len(texts)
    return digest, len(units), 0


def scan(
    source: Iterable[str] | int,
    checks: list[str],
    out_path: str,
    checkpoint_path: str | None = None,
    jobs: int = 1,
    limit: int | None = None,
) -> ScanState:
    """Run the selected checks over a graph6 stream or a built-in universe.

    ``source`` is an iterable of graph6 lines, or an order n: the connected
    graphs of order n in the order of ``generate_connected(n)``, which a
    scan of the lines of ``subtrees generate n`` matches record for record.
    ``limit`` stops after that many graphs (used to simulate interruption);
    the checkpoint makes the next call resume.  Without a checkpoint path
    the scan always starts fresh and the output file is rewritten.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must not be negative, not {limit}")
    if not checks:
        raise ValueError("checks must name at least one check")
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ScanError(f"unknown checks: {', '.join(unknown)}")
    state = None
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_state(checkpoint_path)
        if state.checks != list(checks):
            raise ScanError(
                f"checkpoint was created with checks {state.checks}, got {list(checks)}"
            )
    fresh = state is None
    if fresh:
        state = ScanState(checks=list(checks))
    elif state.consumed > 0 and not os.path.exists(out_path):
        raise ScanError(f"checkpoint expects existing output at {out_path}")

    # every line is validated before anything is written
    units = _universe_units(source) if isinstance(source, int) else _read_lines(source)

    # find where the consumed graphs end, hashing their texts
    digest, start, skip = None, 0, 0
    if checkpoint_path:
        digest, start, skip = _prefix(units, state.consumed)
        if not fresh and digest.hexdigest() != state.fingerprint[1]:
            raise ScanError(
                f"checkpoint {checkpoint_path} does not match this input: its fingerprint "
                f"of the first {state.consumed} graphs differs"
            )
    budget = None if limit is None else max(0, limit - state.consumed)
    # every unit holds at least one graph, so `budget` units are enough
    todo = units[start:] if budget is None else units[start : start + budget]
    names = tuple(checks)
    tasks = ((unit, skip if i == 0 else 0, names) for i, unit in enumerate(todo))

    _memo.clear()
    mode = "r+b" if (not fresh and os.path.exists(out_path)) else "wb"
    with open(out_path, mode) as out:
        if mode == "r+b":
            out.truncate(state.output_bytes)
            out.seek(state.output_bytes)

        def handle(text: str, records: bytes, marks: list[tuple]) -> None:
            out.write(records)
            for mark in marks:
                state.record(*mark)
            state.consumed += 1
            if checkpoint_path:
                digest.update(text.encode() + b"\n")
                if state.consumed % CHECKPOINT_EVERY == 0:
                    out.flush()
                    state.output_bytes = out.tell()
                    state.fingerprint = (state.consumed, digest.hexdigest())
                    save_state(state, checkpoint_path)

        def consume(results: Iterable[list]) -> None:
            for graph in islice(chain.from_iterable(results), budget):
                handle(*graph)

        if jobs > 1 and len(todo) > 1:
            # importing multiprocessing takes about 7 ms and 0.5 MB of
            # resident memory, so only a scan that opens a pool imports it
            import multiprocessing

            with multiprocessing.Pool(jobs) as pool:
                consume(pool.imap(_check_unit, tasks, chunksize=8))
        else:
            consume(map(_check_unit, tasks))
        out.flush()
        state.output_bytes = out.tell()
    if checkpoint_path:
        state.fingerprint = (state.consumed, digest.hexdigest())
        save_state(state, checkpoint_path)
    return state
