"""Streaming check runs over graph6 input with resumable checkpoints.

One JSONL record is appended per (graph, check); tallies and the violation
list live in a :class:`ScanState` that is persisted every
``checkpoint_every`` graphs.  Resuming truncates the output back to the
last synced byte offset and skips the consumed prefix of the input, so an
interrupted-and-resumed scan reproduces a single-pass run byte for byte
(up to the informational ``runtime_ms`` field).  The checkpoint holds a
fingerprint of the input it has seen: the number of graph6 lines taken
and the SHA-256 of those lines (normalised, one per line).  A resume
whose input does not start with the same lines raises :class:`ScanError`.

Input is validated before anything is written: a malformed graph6 line
or a disconnected graph raises :class:`ScanError` naming the line.

The checks of one graph run in one :class:`~subtrees.harness.CheckContext`,
which computes the base census, certificate and anchored censuses at most
once; when the checks include one of ``LOCAL_CHECKS``, the base census is
read off the local census, so each graph is enumerated once.  A
certificate-to-mean memo lives for one ``scan`` call (one per worker
process when ``jobs`` > 1) and serves the means of neighbour graphs (g-e,
g+e, g/e, g+matching), which in a universe scan recur across graphs.
The memo is unbounded: it holds one ``Fraction`` per isomorphism class seen.

Every verdict is a pure function of its graph, so scans may also fan work
out over worker processes; results are merged in input order, which keeps
tallies and output deterministic regardless of scheduling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph, from_graph6
from .harness import (
    CHECKS, FAILS, HOLDS, LOCAL_CHECKS, REPORT, CheckContext, CheckVerdict, frac_str
)


class ScanError(Exception):
    pass


STATUSES = (HOLDS, FAILS, REPORT)


@dataclass
class ScanState:
    checks: list[str]
    consumed: int = 0
    tallies: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    output_bytes: int = 0
    # (graph6 lines taken, SHA-256 hex of them), or None before the first save
    fingerprint: tuple[int, str] | None = None

    def record(self, verdict: CheckVerdict) -> None:
        per_check = self.tallies.setdefault(verdict.check, dict.fromkeys(STATUSES, 0))
        per_check[verdict.status] += 1
        if verdict.status == FAILS or verdict.witness.get("finding"):
            self.violations.append(
                {"check": verdict.check, "graph": verdict.graph_id, "status": verdict.status}
            )

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
    counts, and each violation must be an object."""
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
    fingerprint = payload.get("fingerprint")  # absent in checkpoints that predate it
    if fingerprint is not None and not (
        type(fingerprint) is list and [type(x) for x in fingerprint] == [int, str]
    ):
        raise ScanError(f"checkpoint {path}: field 'fingerprint' is invalid")
    return ScanState(
        **{name: payload[name] for name in _STATE_FIELDS},
        fingerprint=tuple(fingerprint) if fingerprint else None,
    )


def _prefix_digest(texts: list[str], k: int):
    # hashlib loads OpenSSL, about 3.6 MB of resident memory, so only a
    # scan that keeps a checkpoint imports it
    import hashlib

    digest = hashlib.sha256()
    for text in texts[:k]:
        digest.update(text.encode() + b"\n")
    return digest


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


def _run_checks(g: Graph, names: tuple[str, ...], memo: dict) -> list[CheckVerdict]:
    ctx = CheckContext(g, memo, local=not LOCAL_CHECKS.isdisjoint(names))
    return [CHECKS[name](g, ctx=ctx) for name in names]


# The certificate memo of a scan worker process.  Only pool workers write
# it, so it lives exactly as long as the worker, which serves one scan.
_worker_memo: dict = {}


def _run_checks_by_name(args: tuple[str, tuple[str, ...]]) -> list[CheckVerdict]:
    text, names = args
    return _run_checks(from_graph6(text), names, _worker_memo)


def scan(
    lines: Iterable[str],
    checks: list[str],
    out_path: str,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 1000,
    jobs: int = 1,
    limit: int | None = None,
) -> ScanState:
    """Run the selected checks over a graph6 stream.

    ``limit`` stops after that many graphs (used to simulate interruption);
    the checkpoint makes the next call resume.  Without a checkpoint path
    the scan always starts fresh and the output file is rewritten.
    """
    if checkpoint_path and checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be at least 1, not {checkpoint_every}")
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

    # normalise, validate and skip the consumed prefix; a serial scan keeps
    # the decoded graphs to run, pool workers are sent the text
    texts: list[str] = []
    graphs: list[Graph] | None = [] if jobs <= 1 else None
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
        if graphs is not None:
            graphs.append(g)
    if not fresh:
        taken, sha256 = state.fingerprint or (state.consumed, None)
        if _prefix_digest(texts, taken).hexdigest() != sha256:
            raise ScanError(
                f"checkpoint {checkpoint_path} does not match this input: its fingerprint "
                f"of the first {taken} graphs differs or is missing"
            )
    digest = _prefix_digest(texts, state.consumed) if checkpoint_path else None
    todo = texts[state.consumed :]
    if limit is not None:
        todo = todo[: max(0, limit - state.consumed)]

    mode = "r+b" if (not fresh and os.path.exists(out_path)) else "wb"
    with open(out_path, mode) as out:
        if mode == "r+b":
            out.truncate(state.output_bytes)
            out.seek(state.output_bytes)

        def handle(text: str, verdicts: list[CheckVerdict]) -> None:
            for verdict in verdicts:
                out.write(verdict_jsonl(verdict).encode() + b"\n")
                state.record(verdict)
            state.consumed += 1
            if checkpoint_path:
                digest.update(text.encode() + b"\n")
                if state.consumed % checkpoint_every == 0:
                    out.flush()
                    state.output_bytes = out.tell()
                    state.fingerprint = (state.consumed, digest.hexdigest())
                    save_state(state, checkpoint_path)

        names = tuple(checks)
        if jobs > 1 and len(todo) > 1:
            with multiprocessing.Pool(jobs) as pool:
                verdict_lists = pool.imap(
                    _run_checks_by_name, ((t, names) for t in todo), chunksize=8
                )
                for text, verdicts in zip(todo, verdict_lists):
                    handle(text, verdicts)
        else:
            memo: dict = {}
            decoded = graphs[state.consumed :] if graphs is not None else map(from_graph6, todo)
            for text, g in zip(todo, decoded):
                handle(text, _run_checks(g, names, memo))
        out.flush()
        state.output_bytes = out.tell()
    if checkpoint_path:
        state.fingerprint = (state.consumed, digest.hexdigest())
        save_state(state, checkpoint_path)
    return state
