"""Command-line front end.

Subcommands: ``compute`` (statistics of one graph), ``scan`` (run checks
over a graph6 stream), ``repro`` (named reproduction runs), ``generate``
(connected graph universe as graph6 lines).

Exit codes: 0 success/reproduced, 1 claim mismatch, 2 usage error,
3 I/O error.  Exact rationals are the source of truth in all output;
floats are informational, printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from fractions import Fraction

from .census import average_connected_set_size, mean_subtree_order_at_tree
from .canon import generate_connected
from .families import FAMILIES, build_family, parse_family
from .graphs import Graph, from_graph6, to_graph6
from .harness import CHECKS, CheckContext
from .repro import REPROS
from .scan import CHECKPOINT_EVERY, CSV_FIELDS, ScanError, record_csv_row, scan


def _fraction_fields(x: Fraction) -> tuple[str, str]:
    return f"{x.numerator}/{x.denominator}", f"{float(x):.12g}"


def _one_graph6_line(fh, name: str) -> Graph:
    lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) != 1:
        raise ValueError(f"{name}: expected exactly one graph6 line, got {len(lines)}")
    return from_graph6(lines[0])


def _resolve_graph(source: str) -> Graph:
    if source.startswith("family:"):
        return build_family(parse_family(source))
    if source == "-":
        return _one_graph6_line(sys.stdin, "stdin")
    if os.path.exists(source):
        with open(source) as fh:
            return _one_graph6_line(fh, source)
    return from_graph6(source)


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.replace("-", ",").split(",")
    try:
        u, v = map(int, parts)
    except ValueError:  # not two parts, or not integers
        raise ValueError(f"bad edge spec {text!r}; use U,V") from None
    return (u, v)


def _parse_tree(text: str) -> list[int]:
    # the anchored tree's vertex set: any spanning tree of G[V] counts alike
    try:
        return sorted({int(v) for v in text.split(",") if v != ""})
    except ValueError:
        raise ValueError(
            f"bad tree spec {text!r}; use V1,V2,... (the tree's vertices, no edges)"
        ) from None


def cmd_compute(args: argparse.Namespace) -> int:
    g = _resolve_graph(args.source)
    if not g.is_connected():
        raise ValueError("graph is disconnected; the mean subtree order is undefined")
    # the local census holds every edge's subtrees, and the census itself
    ctx = CheckContext(g, local=bool(args.edge))
    c = ctx.census
    rows: list[tuple[str, str, str]] = [("n", str(g.n), "")]
    for k in range(1, g.n + 1):
        rows.append((f"s_{k}", str(c.counts[k]), ""))
    rows.append(("subtrees", str(c.num_subtrees), ""))
    rows.append(("order_sum", str(c.order_sum), ""))
    rows.append(("mean", *_fraction_fields(ctx.mean)))
    rows.append(("spanning_fraction", *_fraction_fields(c.spanning_fraction)))
    rows.append(("avg_connected_set", *_fraction_fields(average_connected_set_size(g))))
    for v in args.vertex or []:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        rows.append((f"mean_at_vertex_{v}", *_fraction_fields(c.mean_at_vertex(v))))
    for spec in args.edge or []:
        u, v = _parse_edge(spec)
        for w in (u, v):
            if not 0 <= w < g.n:
                raise ValueError(f"vertex {w} outside 0..{g.n - 1}")
        if not g.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) absent from graph")
        rows.append((f"mean_at_edge_{u}_{v}", *_fraction_fields(ctx.edge_mean(u, v))))
    for spec in args.tree or []:
        vertices = _parse_tree(spec)
        label = ",".join(map(str, vertices))
        rows.append((f"mean_at_tree_{label}", *_fraction_fields(mean_subtree_order_at_tree(g, vertices))))

    if args.format == "jsonl":
        payload = {name: {"exact": exact, "float": float_str or None} for name, exact, float_str in rows}
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["stat", "exact", "float"])
        writer.writerows(rows)
    else:
        width = max(len(name) for name, _, _ in rows)
        for name, exact, float_str in rows:
            suffix = f"  ({float_str})" if float_str else ""
            print(f"{name:<{width}}  {exact}{suffix}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    for g in generate_connected(args.n):
        print(to_graph6(g))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.format == "csv" and args.output != "-":
        raise ValueError("--format csv writes to stdout only; --output FILE is always JSONL")
    if args.checks == "all":
        checks = list(CHECKS)
    else:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    with contextlib.ExitStack() as stack:
        if args.n is not None:
            source = args.n
        elif args.input == "-" or args.input is None:
            source = sys.stdin
        else:
            source = stack.enter_context(open(args.input))
        if args.output == "-":
            if args.checkpoint:
                raise ValueError("--checkpoint needs --output pointing at a file")
            import tempfile

            with tempfile.NamedTemporaryFile("w+", suffix=".jsonl", delete=False) as tmp:
                out_path = tmp.name
            stack.callback(os.unlink, out_path)
        else:
            out_path = args.output
        state = scan(
            source,
            checks,
            out_path,
            checkpoint_path=args.checkpoint,
            jobs=args.jobs,
            limit=args.limit,
        )
        if args.output == "-":
            with open(out_path) as fh:
                if args.format == "csv":
                    writer = csv.writer(sys.stdout)
                    writer.writerow(CSV_FIELDS)
                    for line in fh:
                        writer.writerow(record_csv_row(json.loads(line)))
                else:
                    sys.stdout.write(fh.read())
    print(state.tallies_json(), file=sys.stderr)
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    runner, slow = REPROS[args.name]
    if slow and not args.slow:
        print(f"{args.name} is slow-tagged (order > 20); rerun with --slow", file=sys.stderr)
        return 2
    ok, lines = runner()
    for line in lines:
        print(line)
    print("REPRODUCED" if ok else "MISMATCH")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrees",
        description="Exact subtree statistics, graph universes and conjecture checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = ", ".join(f"{kind}({','.join(names)})" if names else kind for kind, (_, names) in FAMILIES.items())
    p = sub.add_parser(
        "compute",
        help="statistics for one graph",
        description="SOURCE is a graph6 string, a file holding one graph6 line, "
        f"'-' for stdin, or a family spec family:<kind>:<p1>[:<p2>[:<p3>]] with kinds {kinds}.",
    )
    p.add_argument("source")
    p.add_argument("--vertex", type=int, action="append", help="also report the local mean at this vertex")
    p.add_argument("--edge", action="append", metavar="U,V", help="also report the local mean at this edge")
    p.add_argument(
        "--tree",
        action="append",
        metavar="V1,V2,...",
        help="also report the local mean at a subtree with these vertices (any spanning tree of the "
        "subgraph they induce, which must be connected, gives the same mean)",
    )
    p.add_argument("--format", choices=("table", "jsonl", "csv"), default="table")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("generate", help="print one graph6 line per connected graph of order n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("scan", help="run checks over a graph6 stream")
    p.add_argument("input", nargs="?", help="graph6 file ('-' or omitted: stdin)")
    p.add_argument("--n", type=int, help="scan the built-in universe of this order instead of reading input")
    p.add_argument("--checks", required=True, help=f"comma list or 'all'; available: {', '.join(CHECKS)}")
    p.add_argument("--output", default="-", help="JSONL output path (default stdout)")
    p.add_argument(
        "--checkpoint",
        help=f"JSON checkpoint path, saved every {CHECKPOINT_EVERY} graphs and at the end; "
        "resumes when it exists",
    )
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="worker processes")
    p.add_argument("--limit", type=int, help="stop after this many graphs (checkpoint keeps the rest)")
    p.add_argument(
        "--format", choices=("jsonl", "csv"), default="jsonl", help="stdout format (csv needs --output -)"
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("repro", help="rerun a named reproduction")
    p.add_argument("name", choices=sorted(REPROS))
    p.add_argument("--slow", action="store_true", help="enable order > 20 reproductions")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
