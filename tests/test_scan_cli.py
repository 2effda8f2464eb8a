"""Streaming scans, checkpoint resume determinism, CLI surface."""

import contextlib
import csv
import functools
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from subtrees import generate_connected, to_graph6
from subtrees.canon import _children, canonical_form
from subtrees.cli import main as cli_main
from subtrees.harness import CHECKS, LOCAL_CHECKS
from subtrees.scan import ScanError, ScanState, load_state, save_state, scan

scan_module = sys.modules["subtrees.scan"]


def universe_lines(n: int) -> list[str]:
    return [to_graph6(g) + "\n" for g in generate_connected(n)]


def read_jsonl_no_runtime(path) -> list[dict]:
    records = []
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("runtime_ms")
            records.append(record)
    return records


def test_scan_basic_counts(tmp_path):
    out = tmp_path / "out.jsonl"
    state = scan(universe_lines(5), ["min-path"], str(out))
    assert state.consumed == 21
    assert state.tallies == {"min-path": {"holds": 21, "fails": 0, "report-only": 0}}
    assert state.violations == []
    records = read_jsonl_no_runtime(out)
    assert len(records) == 21
    assert all(r["status"] == "holds" for r in records)


def test_scan_empty_stream(tmp_path):
    out = tmp_path / "out.jsonl"
    state = scan([], ["min-path"], str(out))
    assert state.consumed == 0
    assert state.tallies == {}
    assert out.read_text() == ""


def test_scan_malformed_line_reports_lineno(tmp_path):
    lines = ["Bw\n", "Bw\n", "not graph6 ???\n"]
    with pytest.raises(ScanError, match="line 3"):
        scan(lines, ["min-path"], str(tmp_path / "out.jsonl"))


def test_scan_unknown_check(tmp_path):
    with pytest.raises(ScanError, match="unknown checks"):
        scan(["Bw\n"], ["no-such-check"], str(tmp_path / "out.jsonl"))


def test_scan_resume_matches_single_pass(tmp_path):
    lines = universe_lines(6)
    checks = ["min-path", "max-clique", "mean-vs-average"]

    single_out = tmp_path / "single.jsonl"
    single = scan(lines, checks, str(single_out), checkpoint_path=str(tmp_path / "s.json"))

    part_out = tmp_path / "part.jsonl"
    ckpt = tmp_path / "part.json"
    scan(lines, checks, str(part_out), checkpoint_path=str(ckpt), limit=60)
    mid_state = load_state(str(ckpt))
    assert 0 < mid_state.consumed < len(lines)
    resumed = scan(lines, checks, str(part_out), checkpoint_path=str(ckpt))

    assert resumed.consumed == single.consumed == 112
    assert resumed.tallies_json() == single.tallies_json()
    assert read_jsonl_no_runtime(part_out) == read_jsonl_no_runtime(single_out)


def test_scan_resume_after_unsynced_tail(tmp_path):
    # records written after the last checkpoint are truncated and replayed
    lines = universe_lines(5)
    checks = ["min-path"]
    single_out = tmp_path / "single.jsonl"
    single = scan(lines, checks, str(single_out))

    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "c.json"
    scan(lines, checks, str(out), checkpoint_path=str(ckpt), limit=10)
    at_10 = load_state(str(ckpt))
    scan(lines, checks, str(out), checkpoint_path=str(ckpt), limit=17)
    assert load_state(str(ckpt)).consumed == 17  # final save includes the tail here
    # simulate a crash where the state file lags behind the output
    save_state(at_10, str(ckpt))
    resumed = scan(lines, checks, str(out), checkpoint_path=str(ckpt))
    assert resumed.tallies_json() == single.tallies_json()
    assert read_jsonl_no_runtime(out) == read_jsonl_no_runtime(single_out)


def test_scan_resumes_after_a_crash_between_checkpoints(tmp_path, monkeypatch):
    # saves every 10 graphs; the check raises on the 25th of the 112, so the
    # last save is at 20 and the output holds records past it
    monkeypatch.setattr(scan_module, "CHECKPOINT_EVERY", 10)
    lines = universe_lines(6)
    checks = ["min-path", "max-clique"]
    single_out = tmp_path / "single.jsonl"
    single = scan(lines, checks, str(single_out), jobs=1)
    calls = []
    min_path = scan_module.CHECKS["min-path"]

    def crashing(ctx):
        calls.append(ctx.g)
        if len(calls) == 25:
            raise RuntimeError("crash")
        return min_path(ctx)

    out, ckpt = tmp_path / "out.jsonl", tmp_path / "ck.json"
    monkeypatch.setitem(scan_module.CHECKS, "min-path", crashing)
    with pytest.raises(RuntimeError, match="crash"):
        scan(lines, checks, str(out), checkpoint_path=str(ckpt), jobs=1)
    state = load_state(str(ckpt))
    assert state.consumed == 20
    assert len(out.read_bytes().splitlines()) == 24 * len(checks)
    assert len(out.read_bytes()[: state.output_bytes].splitlines()) == 20 * len(checks)

    monkeypatch.setitem(scan_module.CHECKS, "min-path", min_path)
    resumed = scan(lines, checks, str(out), checkpoint_path=str(ckpt), jobs=1)
    assert resumed.consumed == 112
    assert resumed.tallies_json() == single.tallies_json()
    runtime = re.compile(rb'"runtime_ms":[^,}]*')
    assert runtime.sub(b"", out.read_bytes()) == runtime.sub(b"", single_out.read_bytes())


def test_scan_checkpoint_check_mismatch(tmp_path):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "c.json"
    scan(universe_lines(4), ["min-path"], str(out), checkpoint_path=str(ckpt))
    with pytest.raises(ScanError, match="checkpoint"):
        scan(universe_lines(4), ["max-clique"], str(out), checkpoint_path=str(ckpt))


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_resume_on_different_input_fails(tmp_path, jobs):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "ck.json"
    checks = ["min-path"]
    kwargs = {"checkpoint_path": str(ckpt), "jobs": jobs}
    scan(universe_lines(5), checks, str(out), limit=10, **kwargs)
    assert load_state(str(ckpt)).consumed == 10
    partial = out.read_bytes()
    with pytest.raises(ScanError, match="does not match this input"):
        scan(universe_lines(6), checks, str(out), **kwargs)
    assert out.read_bytes() == partial
    assert load_state(str(ckpt)).consumed == 10
    # one changed graph inside the consumed prefix is caught too
    lines = universe_lines(5)
    lines[3], lines[4] = lines[4], lines[3]
    with pytest.raises(ScanError, match="does not match this input"):
        scan(lines, checks, str(out), **kwargs)
    # the fingerprint covers normalised lines, so blank lines and
    # surrounding whitespace do not matter, and the scan still resumes
    padded = ["\n"] + ["  " + line.strip() + " \n" for line in universe_lines(5)]
    state = scan(padded, checks, str(out), **kwargs)
    assert state.consumed == 21
    single = tmp_path / "single.jsonl"
    scan(universe_lines(5), checks, str(single))
    assert read_jsonl_no_runtime(out) == read_jsonl_no_runtime(single)


def test_scan_resume_without_fingerprint_fails(tmp_path):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "ck.json"
    scan(universe_lines(5), ["min-path"], str(out), checkpoint_path=str(ckpt), limit=10)
    payload = json.loads(ckpt.read_text())
    del payload["fingerprint"]
    ckpt.write_text(json.dumps(payload))
    partial = out.read_bytes()
    with pytest.raises(ScanError, match="field 'fingerprint' is missing or invalid"):
        scan(universe_lines(5), ["min-path"], str(out), checkpoint_path=str(ckpt))
    assert out.read_bytes() == partial and json.loads(ckpt.read_text()) == payload


@pytest.mark.parametrize("option", [{"jobs": 0}, {"jobs": -2}, {"limit": -3}, {"checks": []}])
def test_scan_rejects_jobs_below_1_and_a_negative_limit(tmp_path, monkeypatch, capsys, option):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    (name, value), = option.items()
    out = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=f"{name} must"):
        scan(universe_lines(4), **{"checks": ["min-path"], "out_path": str(out), **option})
    assert not out.exists()
    text = "," if option == {"checks": []} else str(value)
    code, err = cli_scan(capsys, "--n", "4", "--checks", "min-path", f"--{name}", text,
                         "--output", str(out))
    assert code == 2
    assert f"{name} must" in err
    assert not out.exists()


def test_only_a_scan_with_a_pool_imports_multiprocessing(tmp_path):
    # importing multiprocessing costs time and memory that only a pool
    # needs; a fresh interpreter, since the test runner may import it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, subtrees\n"
        "subtrees.scan(5, ['min-path'], sys.argv[1], jobs=1)\n"
        "print('multiprocessing' in sys.modules)\n"
        "subtrees.scan(5, ['min-path'], sys.argv[1], jobs=2)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out.jsonl")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "True"]


def test_scan_resume_decodes_each_line_once(tmp_path, monkeypatch):
    lines = universe_lines(6)
    out, ckpt = tmp_path / "out.jsonl", tmp_path / "ck.json"
    kwargs = {"checkpoint_path": str(ckpt)}
    scan(lines, ["min-path"], str(out), limit=100, **kwargs)
    decoded = []
    from_graph6 = scan_module.from_graph6

    def counting(text):
        decoded.append(text)
        return from_graph6(text)

    monkeypatch.setattr(scan_module, "from_graph6", counting)
    state = scan(lines, ["min-path"], str(out), **kwargs)
    assert state.consumed == 112
    # 112 to validate the input, 12 for the graphs still to check
    assert len(decoded) == 112 + 12


@pytest.mark.parametrize("source", ["n", "lines"])
def test_scan_encodes_each_graph_once(tmp_path, monkeypatch, source):
    # a child's fingerprint text is the graph_id of its verdicts, and a
    # line hashes its own text: one to_graph6 call per graph either way.
    # The package attribute subtrees.scan is the function, so the modules
    # are looked up in sys.modules
    lines = universe_lines(6)
    encoded = []
    for name in ("subtrees.graphs", "subtrees.scan", "subtrees.harness"):
        module = sys.modules[name]
        monkeypatch.setattr(module, "to_graph6", lambda g, f=module.to_graph6: encoded.append(g) or f(g))
    state = scan(6 if source == "n" else lines, ["min-path"], str(tmp_path / "out.jsonl"))
    assert state.consumed == 112
    assert len(encoded) == 112


def test_scan_checkpoint_without_output(tmp_path):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "c.json"
    scan(universe_lines(4), ["min-path"], str(out), checkpoint_path=str(ckpt), limit=3)
    out.unlink()
    with pytest.raises(ScanError, match="output"):
        scan(universe_lines(4), ["min-path"], str(out), checkpoint_path=str(ckpt))


def test_scan_parallel_matches_serial(tmp_path):
    lines = universe_lines(5)
    serial_out = tmp_path / "serial.jsonl"
    parallel_out = tmp_path / "parallel.jsonl"
    serial = scan(lines, ["min-path", "ratio-chain"], str(serial_out), jobs=1)
    parallel = scan(lines, ["min-path", "ratio-chain"], str(parallel_out), jobs=2)
    assert serial.tallies_json() == parallel.tallies_json()
    assert read_jsonl_no_runtime(serial_out) == read_jsonl_no_runtime(parallel_out)


def test_scan_state_records_fails_and_findings_as_violations():
    state = ScanState(checks=["a", "b"])
    state.record("a", "Bw", "holds", False)
    state.record("a", "Bg", "fails", False)
    state.record("b", "Bw", "report-only", True)
    state.record("b", "Bg", "report-only", False)
    assert state.tallies == {
        "a": {"holds": 1, "fails": 1, "report-only": 0},
        "b": {"holds": 0, "fails": 0, "report-only": 2},
    }
    assert state.violations == [
        {"check": "a", "graph": "Bg", "status": "fails"},
        {"check": "b", "graph": "Bw", "status": "report-only"},
    ]


# -- scanning the built-in universe: one unit of work per order n-1 parent ----------


def children_per_parent(n: int) -> list[int]:
    return [len(_children(p)) for p in generate_connected(n - 1)]


def cli_scan(capsys, *args: str) -> tuple[int, str]:
    """Exit code and stderr of the command line run in this process."""
    code = cli_main(["scan", *args])
    return code, capsys.readouterr().err


@functools.cache
def generated_lines(n: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["generate", str(n)]) == 0
    return out.getvalue()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("n", range(1, 8))
def test_scan_n_equals_a_scan_of_generate_n(tmp_path, capsys, n, jobs):
    # order 1 has no parent and order 2 a one-vertex parent.  A check set
    # with a local check reads each census off the local census; one
    # without hands every child of a parent unit the census inherited from
    # its parent, which line input never does
    if n <= 6:
        check_sets = ["all", ",".join(name for name in CHECKS if name not in LOCAL_CHECKS)]
    else:
        check_sets = ["min-path,ratio-chain,edge-deletion-exists", "min-path,ratio-chain,vertex-share-bound"]
    lines = tmp_path / "universe.g6"
    lines.write_text(generated_lines(n))
    by_lines, by_n = tmp_path / "lines.jsonl", tmp_path / "n.jsonl"
    for checks in check_sets:
        code, line_tallies = cli_scan(capsys, str(lines), "--checks", checks, "--jobs", "1", "--output", str(by_lines))
        assert code == 0, line_tallies
        code, n_tallies = cli_scan(capsys, "--n", str(n), "--checks", checks, "--jobs", jobs, "--output", str(by_n))
        assert code == 0, n_tallies
        assert n_tallies == line_tallies
        assert json.loads(n_tallies)["consumed"] == len(generated_lines(n).splitlines())
        assert read_jsonl_no_runtime(by_n) == read_jsonl_no_runtime(by_lines)


@pytest.mark.parametrize("checks", [["min-path", "ratio-chain"], ["local-global"]])
def test_scan_n_censuses_no_parent_and_no_child(tmp_path, monkeypatch, checks):
    # without a local check each child's census is read off its order-5
    # parent's subset-kappa table, and the parent takes no census; with one,
    # every base census is read off a local census
    calls = []
    harness_module = sys.modules["subtrees.harness"]
    monkeypatch.setattr(harness_module, "census", lambda g, f=harness_module.census: calls.append(g.n) or f(g))
    state = scan(6, checks, str(tmp_path / "out.jsonl"))
    assert state.consumed == 112
    assert calls == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_n_resumes_inside_a_parent(tmp_path, monkeypatch, jobs):
    checks = ["min-path", "max-clique", "edge-addition-exists"]
    single_out = tmp_path / "single.jsonl"
    single = scan(6, checks, str(single_out), jobs=jobs)
    assert single.consumed == 112

    # stop strictly inside the children of the first parent with three or more
    sizes = children_per_parent(6)
    first = next(i for i, size in enumerate(sizes) if size >= 3)
    limit = sum(sizes[:first]) + 1
    out, ckpt = tmp_path / "part.jsonl", tmp_path / "part.json"
    kwargs = {"checkpoint_path": str(ckpt), "jobs": jobs}
    scan(6, checks, str(out), limit=limit, **kwargs)
    saved = ckpt.read_text()
    assert load_state(str(ckpt)).consumed == limit

    # a resumed scan runs no check on a graph it has already consumed
    checked = []
    run_checks = scan_module.run_checks

    def counting(g, names, memo, parent):
        checked.append(g.n)
        return run_checks(g, names, memo, parent)

    monkeypatch.setattr(scan_module, "run_checks", counting)
    for _ in range(2):
        checked.clear()
        resumed = scan(6, checks, str(out), **kwargs)
        if jobs == 1:  # forked workers count in their own copy of the list
            assert len(checked) == 112 - limit
        assert resumed.tallies_json() == single.tallies_json()
        assert read_jsonl_no_runtime(out) == read_jsonl_no_runtime(single_out)
        # again from the interrupted checkpoint: the output past it is replayed
        ckpt.write_text(saved)


def test_serial_scan_starts_from_an_empty_memo(tmp_path):
    # a memo left by an earlier scan, here with a wrong mean for every
    # order-6 class, must not reach the neighbours a new scan prices
    checks = ["edge-addition-exists", "matchings"]
    clean_out, seeded_out = tmp_path / "clean.jsonl", tmp_path / "seeded.jsonl"
    clean = scan(6, checks, str(clean_out), jobs=1)
    scan_module._memo.update((canonical_form(g), Fraction(-1)) for g in generate_connected(6))
    seeded = scan(6, checks, str(seeded_out), jobs=1)
    assert seeded.tallies_json() == clean.tallies_json()
    assert read_jsonl_no_runtime(seeded_out) == read_jsonl_no_runtime(clean_out)


@pytest.mark.parametrize("first_input", ["lines", "n"])
def test_line_and_universe_checkpoints_are_interchangeable(tmp_path, capsys, first_input):
    # both inputs take the same graph6 lines, so they fingerprint alike
    lines = tmp_path / "universe.g6"
    lines.write_text(generated_lines(6))
    inputs = {"lines": [str(lines)], "n": ["--n", "6"]}
    second_input = "n" if first_input == "lines" else "lines"
    out, ckpt = tmp_path / "out.jsonl", tmp_path / "ck.json"
    args = ["--checks", "min-path,max-clique", "--jobs", "2", "--output", str(out),
            "--checkpoint", str(ckpt)]
    code, err = cli_scan(capsys, *inputs[first_input], *args, "--limit", "41")
    assert code == 0, err
    code, resumed = cli_scan(capsys, *inputs[second_input], *args)
    assert code == 0, resumed
    single = tmp_path / "single.jsonl"
    code, tallies = cli_scan(capsys, "--n", "6", "--checks", "min-path,max-clique", "--output", str(single))
    assert resumed == tallies
    assert read_jsonl_no_runtime(out) == read_jsonl_no_runtime(single)


def test_universe_checkpoint_is_refused_by_another_order(tmp_path, capsys):
    out, ckpt = tmp_path / "out.jsonl", tmp_path / "ck.json"
    args = ["--checks", "min-path", "--jobs", "1", "--output", str(out), "--checkpoint", str(ckpt)]
    code, err = cli_scan(capsys, "--n", "6", *args, "--limit", "30")
    assert code == 0, err
    partial, saved = out.read_bytes(), ckpt.read_text()
    code, err = cli_scan(capsys, "--n", "7", *args)
    assert code == 3
    assert "does not match this input" in err
    assert out.read_bytes() == partial and ckpt.read_text() == saved


# -- CLI ------------------------------------------------------------------------


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "subtrees.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


def test_cli_compute_family_and_graph6():
    r = run_cli("compute", "family:path:5")
    assert r.returncode == 0
    assert "7/3" in r.stdout
    r = run_cli("compute", "family:clique:4")
    assert r.returncode == 0
    assert "38" in r.stdout and "58/19" in r.stdout
    r = run_cli("compute", "Bw")
    assert r.returncode == 0
    assert "2/1" in r.stdout
    r = run_cli("compute", "-", stdin="Bw\n")
    assert r.returncode == 0


def test_cli_compute_local_means():
    r = run_cli("compute", "family:path:3", "--vertex", "1", "--edge", "0,1",
                "--tree", "0,1")
    assert r.returncode == 0
    assert "mean_at_vertex_1" in r.stdout and "2/1" in r.stdout


def test_cli_compute_tree_takes_the_vertex_set():
    # the vertices of the bridge path of clique-cycle-clique, in any order
    r = run_cli("compute", "family:modified_barbell:16:5:1", "--tree", "4,15,10")
    assert r.returncode == 0, r.stderr
    assert "mean_at_tree_4,10,15  2105/159" in r.stdout
    # the former vertices:edges form is refused with the form to use
    r = run_cli("compute", "family:modified_barbell:16:5:1", "--tree", "4,15,10:4-15;15-10")
    assert r.returncode == 2 and r.stdout == ""
    assert "use V1,V2,..." in r.stderr and "Traceback" not in r.stderr


def test_cli_compute_edge_means_match_anchored_census():
    from subtrees import build_family, census, census_containing, parse_family

    spec = "family:barbell:8:3"
    g = build_family(parse_family(spec))
    edges = [(0, 1), (3, 2), (5, 4), (7, 6), (2, 1)]
    r = run_cli("compute", spec, "--format", "jsonl", *[f"--edge={u},{v}" for u, v in edges])
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    for u, v in edges:
        count, order_sum = census_containing(g, (u, v))
        assert Fraction(payload[f"mean_at_edge_{u}_{v}"]["exact"]) == Fraction(order_sum, count)
    assert payload["subtrees"]["exact"] == str(census(g).num_subtrees)


def test_cli_compute_jsonl_and_csv_match():
    j = run_cli("compute", "family:cycle:5", "--format", "jsonl")
    c = run_cli("compute", "family:cycle:5", "--format", "csv")
    assert j.returncode == 0 and c.returncode == 0
    payload = json.loads(j.stdout)
    rows = list(csv.reader(io.StringIO(c.stdout)))
    assert rows[0] == ["stat", "exact", "float"]
    for stat, exact, float_str in rows[1:]:
        assert payload[stat]["exact"] == exact


def test_cli_compute_errors():
    assert run_cli("compute", "family:barbell:14").returncode == 2
    r = run_cli("compute", "family:path:4", "--edge", "9,0")
    assert r.returncode == 2 and "Traceback" not in r.stderr
    assert r.stderr == "error: vertex 9 outside 0..3\n"
    assert run_cli("compute", "zz-not-graph6-??").returncode == 2
    r = run_cli("compute", "family:path:0")
    assert r.returncode == 2
    # disconnected input: the mean is undefined
    from subtrees import Graph

    g6 = to_graph6(Graph.from_edges(4, [(0, 1), (2, 3)]))
    r = run_cli("compute", g6)
    assert r.returncode == 2 and "disconnected" in r.stderr


def test_cli_generate():
    r = run_cli("generate", "4")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 6


def test_cli_scan_stdin_and_n(tmp_path):
    r = run_cli("scan", "--n", "6", "--checks", "min-path", "--jobs", "1")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 112
    tallies = json.loads(r.stderr.strip().splitlines()[-1])
    assert tallies["tallies"]["min-path"]["holds"] == 112

    lines = "".join(universe_lines(4))
    r = run_cli("scan", "-", "--checks", "min-path,max-clique", "--jobs", "1", stdin=lines)
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 12


def test_cli_scan_csv_matches_jsonl(tmp_path):
    jr = run_cli("scan", "--n", "4", "--checks", "min-path", "--jobs", "1")
    cr = run_cli("scan", "--n", "4", "--checks", "min-path", "--jobs", "1", "--format", "csv")
    assert jr.returncode == 0 and cr.returncode == 0
    json_records = [json.loads(line) for line in jr.stdout.strip().splitlines()]
    rows = list(csv.reader(io.StringIO(cr.stdout)))
    header = rows[0]
    assert set(header) == {"check", "graph", "status", "mu", "mu_float", "runtime_ms", "witness"}
    assert len(rows) - 1 == len(json_records)
    for row, record in zip(rows[1:], json_records):
        data = dict(zip(header, row))
        assert data["check"] == record["check"]
        assert data["graph"] == record["graph"]
        assert data["status"] == record["status"]
        assert json.loads(data["witness"]) == record["witness"]
        assert data["mu"] == ("" if record["mu"] is None else record["mu"])


def test_cli_scan_malformed_input(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n???bad???\n")
    r = run_cli("scan", str(bad), "--checks", "min-path", "--jobs", "1")
    assert r.returncode == 3
    assert "line 2" in r.stderr


def test_cli_scan_missing_input_file():
    r = run_cli("scan", "/nonexistent/file.g6", "--checks", "min-path")
    assert r.returncode == 3


def test_cli_scan_checkpoint_resume(tmp_path):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "state.json"
    src = tmp_path / "graphs.g6"
    src.write_text("".join(universe_lines(5)))
    args = [
        "scan", str(src), "--checks", "min-path", "--jobs", "1",
        "--output", str(out), "--checkpoint", str(ckpt),
    ]
    r = run_cli(*args, "--limit", "12")
    assert r.returncode == 0
    partial = json.loads(r.stderr.strip().splitlines()[-1])
    assert partial["consumed"] == 12
    r = run_cli(*args)
    assert r.returncode == 0
    final = json.loads(r.stderr.strip().splitlines()[-1])
    assert final["consumed"] == 21
    assert final["tallies"]["min-path"]["holds"] == 21
    assert len(read_jsonl_no_runtime(out)) == 21


def test_cli_scan_resume_on_different_input_exits_3(tmp_path):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "state.json"
    small = tmp_path / "order5.g6"
    small.write_text("".join(universe_lines(5)))
    large = tmp_path / "order6.g6"
    large.write_text("".join(universe_lines(6)))
    args = ["--checks", "min-path", "--output", str(out), "--checkpoint", str(ckpt)]
    assert run_cli("scan", str(small), *args, "--limit", "10").returncode == 0
    r = run_cli("scan", str(large), *args)
    assert r.returncode == 3
    assert "does not match this input" in r.stderr
    assert len(read_jsonl_no_runtime(out)) == 10


# the SHA-256 of no input: the fingerprint of a checkpoint that consumed nothing
_EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_BAD_TALLIES = json.dumps(
    {"checks": ["min-path"], "consumed": 0, "tallies": {"min-path": 3}, "violations": [],
     "output_bytes": 5, "fingerprint": [0, _EMPTY_SHA256]}
)


@pytest.mark.parametrize(
    "content",
    ['{"checks":["min-path"],"consumed":0}', "[1,2]", '{"checks":["min-pa', _BAD_TALLIES],
    ids=["missing-field", "not-an-object", "truncated", "bad-tallies"],
)
def test_cli_scan_corrupt_checkpoint_exits_3(tmp_path, content):
    out = tmp_path / "out.jsonl"
    ckpt = tmp_path / "state.json"
    out.write_text("kept\n")
    ckpt.write_text(content)
    r = run_cli(
        "scan", "--n", "4", "--checks", "min-path", "--jobs", "1",
        "--output", str(out), "--checkpoint", str(ckpt),
    )
    assert r.returncode == 3, r.stderr
    assert str(ckpt) in r.stderr and "Traceback" not in r.stderr
    assert out.read_text() == "kept\n" and ckpt.read_text() == content


@pytest.mark.parametrize(
    "field, value",
    [("consumed", True), ("consumed", -1), ("output_bytes", "0"), ("tallies", []),
     ("fingerprint", [3]), ("tallies", {"min-path": 3}), ("tallies", {"min-path": {"holds": 1}}),
     ("tallies", {"min-path": {"holds": -1, "fails": 0, "report-only": 0}}),
     ("tallies", {"min-path": {"holds": True, "fails": 0, "report-only": 0}}),
     ("violations", [3]), ("violations", [["min-path", "Bw", "fails"]]),
     # every checkpoint holds one, and it counts the consumed graphs
     ("fingerprint", None), ("fingerprint", [1, _EMPTY_SHA256])],
)
def test_load_state_rejects_a_field_of_the_wrong_type(tmp_path, field, value):
    ckpt = tmp_path / "state.json"
    state = {"checks": ["min-path"], "consumed": 0, "tallies": {}, "violations": [],
             "output_bytes": 0, "fingerprint": [0, _EMPTY_SHA256]}
    ckpt.write_text(json.dumps({**state, field: value}))
    with pytest.raises(ScanError, match=field):
        load_state(str(ckpt))
    ckpt.write_text(json.dumps(state))
    assert load_state(str(ckpt)).consumed == 0


def test_cli_repro_exit_codes():
    r = run_cli("repro", "join-deletion-2-6")
    assert r.returncode == 0
    assert "REPRODUCED" in r.stdout
    r = run_cli("repro", "definitely-not-a-repro")
    assert r.returncode == 2
    r = run_cli("repro", "dbstar-23-8-local")  # slow wants --slow
    assert r.returncode == 2


def test_cli_usage_errors(tmp_path):
    assert run_cli().returncode == 2
    assert run_cli("scan").returncode == 2  # missing --checks
    for n in ("0", "9"):  # outside the built-in universes
        assert run_cli("scan", "--n", n, "--checks", "min-path").returncode == 2
    # --n scans the built-in universe, so a file or stdin beside it would
    # be dropped without a word: refused before any output is written
    one = tmp_path / "one.g6"
    one.write_text("Bw\n")
    out = tmp_path / "o.jsonl"
    for source in (str(one), "-"):
        r = run_cli(
            "scan", source, "--n", "3", "--checks", "min-path", "--jobs", "1",
            "--output", str(out), stdin="Bw\n",
        )
        assert r.returncode == 2
        assert "--n" in r.stderr and r.stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_scan_rejects_disconnected_before_writing(tmp_path, jobs):
    out = tmp_path / "o.jsonl"
    ckpt = tmp_path / "ck.json"
    r = run_cli(
        "scan", "-", "--checks", "min-path", "--jobs", jobs,
        "--output", str(out), "--checkpoint", str(ckpt), stdin="Bw\nC?\n",
    )
    assert r.returncode == 3
    assert "disconnected graph at line 2" in r.stderr
    assert not out.exists() or out.read_text() == ""
    assert not ckpt.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_scan_to_stdout_leaves_no_temporary_file(tmp_path, jobs):
    # output for stdout goes through a temporary file, removed also when
    # the scan fails
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    for stdin, code in (("Bw\n???bad\n", 3), ("Bw\n", 0)):
        r = subprocess.run(
            [sys.executable, "-m", "subtrees.cli", "scan", "-", "--checks", "min-path",
             "--jobs", jobs],
            capture_output=True, text=True, input=stdin, env=env,
        )
        assert r.returncode == code, r.stderr
        assert list(tmp_path.glob("*.jsonl")) == []


@pytest.mark.parametrize(
    "option, spec, message",
    [("--tree", "x,1", "bad tree spec 'x,1'"), ("--edge", "0,y", "bad edge spec '0,y'")],
)
def test_cli_compute_names_a_non_integer_vertex(option, spec, message):
    r = run_cli("compute", "family:path:4", option, spec)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error: {message}") and "Traceback" not in r.stderr


def test_cli_compute_tree_rejects_forest():
    r = run_cli("compute", "family:path:4", "--tree", "0,2")
    assert r.returncode == 2
    assert "mean_at_tree" not in r.stdout


@pytest.mark.parametrize("two", ["Bw\nBw\n", "Bw\n\nCF\n"])
def test_cli_compute_wants_exactly_one_graph6_line(tmp_path, two):
    source = tmp_path / "two.g6"
    source.write_text(two)
    for r in (run_cli("compute", str(source)), run_cli("compute", "-", stdin=two)):
        assert r.returncode == 2
        assert "exactly one graph6 line, got 2" in r.stderr and r.stdout == ""


def test_cli_scan_csv_to_a_file_is_refused(tmp_path):
    out = tmp_path / "o.csv"
    r = run_cli("scan", "--n", "4", "--checks", "min-path", "--jobs", "1",
                "--format", "csv", "--output", str(out))
    assert r.returncode == 2
    assert "--format csv" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_scan_records_and_tallies_are_pinned(tmp_path, capsys):
    import hashlib

    out = tmp_path / "out.jsonl"
    code, tallies = cli_scan(capsys, "--n", "6", "--checks", "all", "--jobs", "1", "--output", str(out))
    assert code == 0, tallies
    records = "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in read_jsonl_no_runtime(out)
    )
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "dde38cab8fa9839f0630f0d931655898a88efd64803379eee958eb40143eeb4e"
    )
    assert hashlib.sha256(tallies.rstrip("\n").encode()).hexdigest() == (
        "81bb53b215eadf35dd9c06b59e2ee884f1043dd9a651af27d5872ddfddf88dda"
    )


def test_cli_scan_runtimes_are_positive():
    r = run_cli("scan", "--n", "6", "--checks", "all", "--jobs", "1")
    assert r.returncode == 0
    records = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(records) == 112 * 11
    # a vacuous verdict (edge deletion on a tree, edge addition on a
    # clique) does a few microseconds of work and may round to 0.000 ms
    working = [record for record in records if "vacuous" not in record["witness"]]
    assert len(working) > 112 * 10
    assert all(record["runtime_ms"] > 0 for record in working)


def test_python_dash_m_subtrees_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run(
        [sys.executable, "-m", "subtrees", "repro", "join-deletion-2-6"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert "REPRODUCED" in r.stdout
