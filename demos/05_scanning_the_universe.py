#!/usr/bin/env python3
"""Exhaustive verification over every small connected graph.

The generator produces one representative per isomorphism class (built by
canonical augmentation: each class once, from the graph left by deleting
its canonical vertex), and the
check battery runs over the stream.  A JSONL line lands per (graph, check)
and the tallies are checkpointed, so long scans survive interruptions.
"""

import json
import tempfile

from subtrees import generate_connected, to_graph6
from subtrees.scan import scan

for n in range(1, 8):
    print(f"connected graphs of order {n}: {sum(1 for _ in generate_connected(n))}")

lines = [to_graph6(g) for g in generate_connected(6)]
with tempfile.NamedTemporaryFile("w+", suffix=".jsonl") as out:
    state = scan(
        lines,
        ["min-path", "max-clique", "ratio-chain", "mean-vs-average"],
        out.name,
    )
    print(f"\nscanned {state.consumed} graphs of order 6:")
    print(json.dumps(state.tallies, indent=2, sort_keys=True))
    print("violations:", state.violations or "none")

    out.seek(0)
    first = json.loads(out.readline())
    print("\nfirst verdict record:")
    print(json.dumps(first, indent=2, sort_keys=True))

print("\nthe same scan is available from the shell:")
print("  subtrees scan --n 6 --checks min-path,max-clique,ratio-chain")
print("  subtrees generate 7 | subtrees scan --checks min-path --checkpoint state.json --output out.jsonl")
