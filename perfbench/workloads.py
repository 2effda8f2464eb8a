"""The three workloads, and the process that sets one up and measures it.

``run.py`` starts this file once per set-up sample and once to measure:

    python3 perfbench/workloads.py --mode setup|measure --workload NAME
        --seed N --seconds S --trace 0|1

The process imports ``subtrees`` from ``src/`` of the checkout, builds the
workload's inputs and prints ``ready``; that line ends set-up.  In measure
mode it then runs whole rounds of the workload until the timed rounds add
up to ``--seconds``, reads its peak memory, checks every round's output and
prints one JSON line with the round times (scaled to the reference host
speed, see ``hostspeed.py``, and raw), operation counts, problems and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
from spans import CHECK_NAMES, FAMILY_NAMES, Tracer, aggregate, install

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
ORACLE_SAMPLE = 8
UNIVERSE_CHECKS = ("min-path", "ratio-chain")
UNIVERSE_JOBS = 2


def import_program():
    """Import ``subtrees`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import subtrees

    if Path(subtrees.__file__).resolve().parent != (src / "subtrees").resolve():
        raise ImportError(f"subtrees came from {subtrees.__file__}, not {src}")
    return subtrees


class Workload:
    """One round is the workload's fixed work; ``run`` is the timed part."""

    ops = 0

    def prepare(self) -> None:
        """Untimed reset before each round."""

    def run(self, index: int, tracer: Tracer | None):
        raise NotImplementedError

    def collect(self, raw):
        """Parse a round's raw output (untimed)."""
        return raw

    def failures(self, output) -> int:
        """Operations of a collected round that raised."""
        return 0

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def layer_extras(self, output) -> dict[str, float]:
        return {}


def _read_records(path: Path) -> tuple[list[dict], int]:
    text = path.read_text()
    path.unlink()
    return checks.parse_jsonl(text), len(text.encode())


class ScanN7(Workload):
    """``scan`` over the 853 connected graphs of order 7, all 11 checks, one job."""

    ops = checks.CONNECTED_GRAPHS[7]

    def __init__(self, seed: int) -> None:
        from subtrees import generate_connected, to_graph6

        self.lines = [to_graph6(g) for g in generate_connected(7)]
        self.sample = random.Random(seed).sample(self.lines, ORACLE_SAMPLE)
        self.oracle: dict | None = None

    def run(self, index, tracer):
        import subtrees

        path = OUT_DIR / f"scan-n7-{index}.jsonl"
        subtrees.scan(self.lines, list(CHECK_NAMES), str(path), jobs=1)
        return path

    def collect(self, path):
        return _read_records(path)

    def check(self, output):
        if self.oracle is None:
            self.oracle = {g: checks.subtree_mean(checks.decode_graph6(g)) for g in self.sample}
        records, _ = output
        return checks.check_scan(records, 7, list(CHECK_NAMES), self.oracle, input_ids=self.lines)

    def layer_extras(self, output):
        records, size = output
        return {"scan.scan.records": len(records), "scan.scan.output_bytes": size}


class Families(Workload):
    """Four named reproductions on the paper's barbells and bridged brooms."""

    ops = len(FAMILY_NAMES)

    def __init__(self, seed: int) -> None:
        from subtrees import REPROS

        self.runners = [(name, REPROS[name][0]) for name in FAMILY_NAMES]
        self.censuses: dict | None = None

    def run(self, index, tracer):
        results, failed = {}, []
        for name, runner in self.runners:
            try:
                if tracer is None:
                    results[name] = runner()
                else:
                    results[name] = tracer.call(f"repro.{name}", runner, (), {})
            except Exception:
                traceback.print_exc()
                failed.append(name)
        return results, failed

    def failures(self, output):
        return len(output[1])

    def _family_censuses(self) -> dict[str, dict]:
        from subtrees import barbell, census, modified_barbell, modified_double_broom

        out = {}
        for name, g in (
            ("barbell(14,6)", barbell(14, 6)),
            ("modified_barbell(16,5,1)", modified_barbell(16, 5, 1)),
            ("modified_double_broom(23,8,1)", modified_double_broom(23, 8, 1)),
        ):
            c = census(g)
            out[name] = {
                "counts": list(c.counts),
                "num_subtrees": c.num_subtrees,
                "order_sum": c.order_sum,
                "vertex_counts": list(c.vertex_counts),
                "vertex_order_sums": list(c.vertex_order_sums),
                "edges": g.edge_count,
            }
        return out

    def check(self, output):
        if self.censuses is None:
            self.censuses = self._family_censuses()
        results, failed = output
        return checks.check_families(results, self.censuses, skip=failed)


class UniverseN8(Workload):
    """The work of ``subtrees scan --n 8 --checks min-path,ratio-chain --jobs 2``."""

    ops = checks.CONNECTED_GRAPHS[8]

    def __init__(self, seed: int) -> None:
        import subtrees.cli  # noqa: F401  (the command line is part of set-up)

        self.seed = seed
        self.oracle: dict = {}

    def prepare(self) -> None:
        # A fresh process has no order-8 universe yet; the workload pays for
        # generating it in every round.
        cache = getattr(sys.modules["subtrees.canon"], "_connected_cache", None)
        if cache is not None:
            cache.clear()

    def run(self, index, tracer):
        path = OUT_DIR / f"universe-n8-{index}.jsonl"
        # forked workers report no spans, so a traced scan runs in one process
        jobs = 1 if tracer is not None else UNIVERSE_JOBS
        argv = ["scan", "--n", "8", "--checks", ",".join(UNIVERSE_CHECKS), "--jobs", str(jobs), "--output", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = sys.modules["subtrees.cli"].main(argv)
        if code != 0:
            raise RuntimeError(f"scan exited {code}: {err.getvalue().strip()}")
        return path, err.getvalue()

    def collect(self, raw):
        path, err = raw
        records, size = _read_records(path)
        return records, size, json.loads(err.strip().splitlines()[-1])

    def check(self, output):
        records, _, tallies = output
        ids = sorted({r["graph"] for r in records})
        sample = random.Random(self.seed).sample(ids, min(ORACLE_SAMPLE, len(ids)))
        for g in sample:
            if g not in self.oracle:
                self.oracle[g] = checks.subtree_mean(checks.decode_graph6(g))
        oracle = {g: self.oracle[g] for g in sample}
        problems = checks.check_scan(records, 8, list(UNIVERSE_CHECKS), oracle)
        return problems + checks.check_tallies(tallies, records)

    def layer_extras(self, output):
        records, size, _ = output
        return {"scan.scan.records": len(records), "scan.scan.output_bytes": size}


WORKLOADS = {"scan-n7": ScanN7, "families": Families, "universe-n8": UniverseN8}


def _peak_rss_kb() -> int:
    """Peak RSS of this process plus that of its largest reaped child.

    An approximation, meant for comparing runs: a forked scan worker's peak
    includes the pages it shares copy-on-write with this process, so those
    count twice, and only the largest worker is counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


class Stopwatch:
    """Wall time of a traced round, unscaled."""

    def __enter__(self) -> "Stopwatch":
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw = self.scaled = time.perf_counter() - self.started


def measure(workload: Workload, name: str, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.enabled = False
        install(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    rounds, raw_rounds, raws, layers = [], [], [], []
    while True:
        workload.prepare()
        if tracer is not None:
            marks = (len(tracer.names), len(tracer.census_graphs))
            tracer.enabled = True
        # traced rounds report span times, so only untraced ones calibrate
        sampler = hostspeed.Sampler() if tracer is None else Stopwatch()
        with sampler:
            try:
                raw = workload.run(len(rounds), tracer)
            except Exception:
                traceback.print_exc()
                raw = None
        rounds.append(sampler.scaled)
        raw_rounds.append(sampler.raw)
        if tracer is not None:
            tracer.enabled = False
            layers.append(aggregate(tracer, *marks))
        raws.append(raw)
        if sum(raw_rounds) >= seconds:
            break
    peak_kb = _peak_rss_kb()

    attempted = failed = 0
    problems: list[str] = []
    for index, raw in enumerate(raws):
        attempted += workload.ops
        if raw is None:
            failed += workload.ops
            continue
        try:
            output = workload.collect(raw)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"round {index}: unreadable output: {exc!r}")
            continue
        failed += workload.failures(output)
        problems += workload.check(output)
        if layers:
            layers[index].update(workload.layer_extras(output))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{name}.jsonl")
    return {
        "rounds": rounds,
        "raw_rounds": raw_rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_kb": peak_kb,
        "layers": {k: statistics.median(l[k] for l in layers) for k in layers[0]} if layers else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    result = measure(workload, args.workload, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
