"""Show that every workload's output check rejects corrupted output.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs one round of each workload, requires its check to pass, then feeds
the check corrupted copies of that output: a mean off by one part, a
dropped record and a ``fails`` status.  Each copy must be rejected.  Exits
non-zero if a correct output is rejected or a corrupted one accepted.
"""

from __future__ import annotations

import argparse
import copy
import sys
from fractions import Fraction

from workloads import OUT_DIR, WORKLOADS, import_program


def _bump(text: str) -> str:
    p, q = text.split("/")
    return f"{int(p) + 1}/{q}"


def _scan_corruptions(sampled: str) -> dict:
    def mean_off_one_record(recs):
        out = copy.deepcopy(recs)
        rec = next(r for r in out if r["mu"] is not None)
        rec["mu"] = _bump(rec["mu"])
        rec["mu_float"] = float(Fraction(rec["mu"]))
        return out

    def mean_off_whole_graph(recs):
        # every record of one oracle graph, so the records still agree
        out = copy.deepcopy(recs)
        for rec in out:
            if rec["graph"] == sampled and rec["mu"] is not None:
                rec["mu"] = _bump(rec["mu"])
                rec["mu_float"] = float(Fraction(rec["mu"]))
        return out

    def dropped_record(recs):
        return recs[: len(recs) // 2] + recs[len(recs) // 2 + 1 :]

    def fails_status(recs):
        out = copy.deepcopy(recs)
        out[-1]["status"] = "fails"
        return out

    return {
        "mean off by one part (one record)": mean_off_one_record,
        "mean off by one part (every record of an oracle graph)": mean_off_whole_graph,
        "dropped record": dropped_record,
        "fails status": fails_status,
    }


def _family_corruptions() -> dict:
    def mean_off(results):
        out = copy.deepcopy(results)
        ok, lines = out["dstar-16-5-local"]
        head, mean = lines[0].split("mean = ")
        frac, rest = mean.split(" ", 1)
        lines[0] = f"{head}mean = {_bump(frac)} {rest}"
        return out

    def dropped_record(results):
        out = dict(results)
        del out["barbell-14-6-matchings"]
        return out

    def fails_status(results):
        out = dict(results)
        out["dbstar-23-8-local"] = (False, out["dbstar-23-8-local"][1])
        return out

    return {"mean off by one part": mean_off, "dropped record": dropped_record, "fails status": fails_status}


def selftest(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name](seed)
    output = workload.collect(workload.run(0, None))
    errors = [f"{name}: correct output rejected: {p}" for p in workload.check(output)]
    if name == "families":
        results, failed = output
        cases = {label: (fn(results), failed) for label, fn in _family_corruptions().items()}
    else:
        sampled = sorted(workload.oracle)[0]
        cases = {
            label: (fn(output[0]),) + tuple(output[1:])
            for label, fn in _scan_corruptions(sampled).items()
        }
    for label, corrupted in cases.items():
        problems = workload.check(corrupted)
        verdict = "rejected" if problems else "ACCEPTED"
        print(f"{name}: {label}: {verdict}" + (f" ({problems[0][:100]})" if problems else ""))
        if not problems:
            errors.append(f"{name}: {label} accepted")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    import_program()
    OUT_DIR.mkdir(exist_ok=True)
    errors = []
    for name in args.workload or list(WORKLOADS):
        errors += selftest(name, args.seed)
    for error in errors:
        print(error, file=sys.stderr)
    print("FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
