"""scripts/compare_traces.py: match solves of two benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_traces.py"
spec = importlib.util.spec_from_file_location("compare_traces", SCRIPT)
compare_traces = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_traces)


def record(pass_, solver, sha1="aa", hit=3, final=2.0):
    return {"pass": pass_, "instance": "dense", "solver": solver,
            "cost_trace_sha1": sha1, "iters_to_gap": hit, "final_cost": final}


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_identical_runs_exit_zero(tmp_path, capsys):
    recs = [record(0, "wf"), record(0, "mm"), record(1, "wf")]
    a = write(tmp_path / "a.jsonl", recs)
    # a pass only one run reached is not compared
    b = write(tmp_path / "b.jsonl", recs + [record(2, "wf", sha1="zz")])
    assert compare_traces.main([a, b]) == 0
    assert "compared 3 solves; 0 differ" in capsys.readouterr().out


def test_differences_are_named_and_exit_one(tmp_path, capsys):
    a = write(tmp_path / "a.jsonl", [record(0, "wf"), record(0, "mm"), record(0, "admm")])
    b = write(tmp_path / "b.jsonl", [record(0, "wf"), record(0, "mm", sha1="bb"),
                                     record(0, "admm", hit=None)])
    assert compare_traces.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "compared 3 solves; 2 differ" in out
    assert "pass 0 dense mm: cost_trace_sha1" in out
    assert "pass 0 dense admm: iters_to_gap" in out
    assert "dense wf" not in out


def test_differing_solves_show_how_far_the_final_cost_moved(tmp_path, capsys):
    a = write(tmp_path / "a.jsonl", [record(0, "wf"), record(0, "mm", final=-4.0),
                                     record(0, "admm"), record(0, "lbfgs", final=None)])
    b = write(tmp_path / "b.jsonl", [record(0, "wf"),
                                     record(0, "mm", sha1="bb", final=-5.0),
                                     record(0, "admm", sha1="bb"),
                                     record(0, "lbfgs", sha1="bb", final=1.0)])
    assert compare_traces.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "compared 4 solves; 3 differ" in out
    # an unchanged or missing final cost is neither higher nor lower
    assert "final_cost higher in B in 0, lower in 1;" in out
    moved = "cost_trace_sha1; final_cost relative change"
    # (b - a) / max(|a|, |b|): B's mm ended lower, -5 against -4
    assert f"pass 0 dense mm: {moved} -2.00e-01" in out
    assert f"pass 0 dense admm: {moved} +0.00e+00" in out
    # a failed solve records no final cost
    assert f"pass 0 dense lbfgs: {moved} n/a" in out


def test_summary_line_gives_the_largest_final_cost_change_and_moved_hits(tmp_path, capsys):
    a = write(tmp_path / "a.jsonl", [record(0, "wf"), record(0, "mm", final=-4.0),
                                     record(0, "admm"), record(1, "wf")])
    b = write(tmp_path / "b.jsonl", [record(0, "wf"),
                                     record(0, "mm", sha1="bb", final=-4.4),
                                     record(0, "admm", sha1="bb", hit=4, final=2.1),
                                     record(1, "wf")])
    assert compare_traces.main([a, b]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    # mm ended lower in B, admm higher; the largest change is mm's
    assert first == ("compared 4 solves; 2 differ; largest final_cost relative "
                     "change -9.09e-02; final_cost higher in B in 1, lower in 1; "
                     "iters_to_gap differs in 1")


def test_summary_line_of_identical_runs(tmp_path, capsys):
    a = write(tmp_path / "a.jsonl", [record(0, "wf")])
    assert compare_traces.main([a, a]) == 0
    assert capsys.readouterr().out == ("compared 1 solves; 0 differ; largest "
                                       "final_cost relative change n/a; final_cost "
                                       "higher in B in 0, lower in 0; "
                                       "iters_to_gap differs in 0\n")


def test_reader_that_stops_early_gets_no_traceback(tmp_path):
    # far more output than a pipe buffers, so the writer meets the closed pipe
    a = write(tmp_path / "a.jsonl", [record(k, "wf") for k in range(20000)])
    b = write(tmp_path / "b.jsonl", [record(k, "wf", sha1="bb") for k in range(20000)])
    proc = subprocess.Popen([sys.executable, str(SCRIPT), a, b],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"compared 20000 solves; 20000 differ")
    assert err == b""
