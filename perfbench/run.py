"""Benchmark of ``subtrees``: one workload per run, end to end or per layer.

    python3 perfbench/run.py --workload scan-n7|families|universe-n8
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each set-up sample is a fresh process
(``workloads.py --mode setup``) timed from its start until it has imported
``subtrees`` and built the workload's inputs; the median of
``SETUP_SAMPLES``, scaled to the reference host speed (``hostspeed.py``),
is ``setup_s``.  The middle sample is the process that then measures: it
runs whole rounds for at least ``--seconds``, scaling each round's time
likewise, and checks every round's output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: ``wall_s``, ``setup_s`` and
``peak_rss_mb`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-n7", "families", "universe-n8")
SETUP_SAMPLES = 21
CALIBRATIONS = 4  # loops before and after each set-up sample
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def _child(args: argparse.Namespace, mode: str, deadline: float, ks: list[float]) -> tuple[float, str]:
    """Start one workload process; return its raw set-up time and remaining
    stdout.  Append to ``ks`` the host's speed just before the process starts
    and just after its set-up ends."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    ks += [hostspeed.loop() for _ in range(CALIBRATIONS)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - started
        ks += [hostspeed.loop() for _ in range(CALIBRATIONS)]
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode} before reporting")
    return setup, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "subtrees" / "__init__.py").is_file():
        print(f"error: no src/subtrees under {ROOT}", file=sys.stderr)
        return 2
    try:
        # set-up samples before and after the measuring process, so that
        # their median spans the run's changes of host speed
        extra, ks = SETUP_SAMPLES - 1, []
        setups = [_child(args, "setup", deadline, ks)[0] for _ in range(extra // 2)]
        setup, out = _child(args, "measure", deadline, ks)
        setups.append(setup)
        setups += [_child(args, "setup", deadline, ks)[0] for _ in range(extra - extra // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    rounds = result["rounds"]
    setup_s = hostspeed.scale(statistics.median(setups), ks)
    print(
        f"{args.workload} seed {args.seed}: {'unscaled traced' if args.trace else 'scaled'} "
        f"rounds {[round(r, 3) for r in rounds]} s, "
        f"raw {[round(r, 3) for r in result['raw_rounds']]} s; scaled set-up {setup_s:.4f} s, "
        f"raw {[round(s, 3) for s in setups]} s",
        file=sys.stderr,
    )
    if args.trace:
        if args.workload == "universe-n8":
            print("note: traced universe-n8 scans in one process (--jobs 1); forked workers report no spans")
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit, _ in layer_metrics()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    succeeded = result["attempted"] - result["failed"]
    print(json.dumps({
        "correct": not result["problems"] and succeeded > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
