"""The verdict rules of scripts/bench_ab.py."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _run(ops, p50, failed=0, attempted=100, failing=None):
    """A run's result; by default its failed ops are all one op of the cycle."""
    if failing is None:
        failing = ["op verify[3]"] if failed else []
    return {"failed": failed, "attempted": attempted, "failing": failing,
            "metrics": {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}}


def _verdicts(runs):
    return {row["name"]: row["verdict"] for row in bench_ab.summarize(METRICS, runs)}


def test_gain_needs_nine_of_ten_wins_and_a_median_beyond_the_parent_iqr():
    runs = [(_run(4.0 + 0.01 * i, 250.0), _run(6.0 + 0.01 * i, 250.0)) for i in range(10)]
    assert _verdicts(runs) == {"ops_per_s": "gain", "op_p50_ms": "unresolved"}
    # 8 of 10 wins is not enough
    runs[0] = (_run(4.0, 250.0), _run(3.9, 250.0))
    runs[1] = (_run(4.0, 250.0), _run(3.9, 250.0))
    assert _verdicts(runs)["ops_per_s"] == "unresolved"


def test_gain_needs_at_least_ten_pairs():
    runs = [(_run(4.0 + 0.01 * i, 250.0), _run(6.0 + 0.01 * i, 250.0)) for i in range(10)]
    assert _verdicts(runs)["ops_per_s"] == "gain"
    assert _verdicts(runs[:9])["ops_per_s"] == "unresolved"
    assert _verdicts(runs[:2])["ops_per_s"] == "unresolved"


def test_small_median_shift_inside_the_parent_iqr_is_unresolved():
    parent = [1.0, 3.0] * 5
    runs = [(_run(p, 100.0), _run(p + 0.1, 100.0)) for p in parent]
    assert _verdicts(runs) == {"ops_per_s": "unresolved", "op_p50_ms": "unresolved"}


def test_regression_beyond_the_bound_in_either_direction():
    runs = [(_run(4.0, 100.0), _run(2.9, 126.0)) for _ in range(10)]
    assert _verdicts(runs) == {"ops_per_s": "regression", "op_p50_ms": "regression"}
    runs = [(_run(4.0, 100.0), _run(3.1, 124.0)) for _ in range(10)]
    assert _verdicts(runs) == {"ops_per_s": "unresolved", "op_p50_ms": "unresolved"}


def test_no_gain_when_the_change_fails_a_larger_share_of_ops():
    runs = [(_run(4.0 + 0.01 * i, 250.0, failed=i == 3),
             _run(6.0 + 0.01 * i, 250.0, failed=i == 3, attempted=150)) for i in range(10)]
    assert _verdicts(runs)["ops_per_s"] == "gain"
    runs[5] = (runs[5][0], _run(6.05, 250.0, failed=1, attempted=150))
    assert _verdicts(runs)["ops_per_s"] == "unresolved"


def test_an_op_failing_every_cycle_on_both_sides_keeps_the_gain():
    """The same op fails once per cycle in both trees; the faster change
    completes more cycles and ends its run at another point of the cycle,
    so its pooled failed share is larger (45/2840 against 28/1792, as seen
    on verify seed 204), yet it fails nothing its parent does not."""
    runs = [(_run(9.0 + 0.01 * i, 250.0, failed=28, attempted=1792),
             _run(14.0 + 0.01 * i, 250.0, failed=45, attempted=2840)) for i in range(10)]
    assert _verdicts(runs)["ops_per_s"] == "gain"
    # failing another op than the parent's loses the gain, whatever the counts
    runs[2] = (runs[2][0], _run(14.0, 250.0, failed=1, attempted=2840,
                                failing=["op verify[5]"]))
    assert _verdicts(runs)["ops_per_s"] == "unresolved"
    assert bench_ab.new_failures(runs) == [(2, "op verify[5]")]


def test_failing_op_names_the_op_of_a_problem_line():
    assert bench_ab.failing_op("op verify[3] failed: FAIL m1 x=1") == "op verify[3]"
    assert bench_ab.failing_op("layer models idle on verify") == "layer models idle on verify"


def test_workload_list_is_checked():
    assert bench_ab.parse_workloads("learned,adaptive") == ["learned", "adaptive"]
    with pytest.raises(argparse.ArgumentTypeError, match="unknown workload"):
        bench_ab.parse_workloads("learned,nope")


def test_crashed_run_names_side_workload_seed_and_stderr(tmp_path, capsys):
    run = tmp_path / "perfbench" / "run.py"
    run.parent.mkdir()
    run.write_text("import sys\nprint('workload verify failed at op 3', file=sys.stderr)\n"
                   "sys.exit(1)\n")
    with pytest.raises(subprocess.CalledProcessError):
        bench_ab.run_once("parent", str(tmp_path), "verify", 38)
    err = capsys.readouterr().err
    assert "parent run failed: workload verify, seed 38, exit 1" in err
    assert "workload verify failed at op 3" in err


_STUB_RESULT = {"correct": False, "attempted": 8, "failed": 1,
                "metrics": {"ops_per_s": {"value": 5.0, "unit": "1/s"},
                            "op_p50_ms": {"value": 200.0, "unit": "ms"}}}


def _stub_run_py(root, result, env=None):
    """A perfbench/run.py under `root` that prints an env line, the same
    problem line twice when `result` is not correct, and `result` as its
    last line."""
    run = root / "perfbench" / "run.py"
    run.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"print('env ' + {json.dumps(json.dumps(env or {}))})"]
    if not result["correct"]:
        lines += 2 * ["print('problem: op verify[3] failed: verify ran [], failed "
                      "[\\'m1_folded_normal\\']')"]
    lines.append(f"print({json.dumps(json.dumps(result))})")
    run.write_text("\n".join(lines) + "\n")


def test_run_not_correct_prints_each_problem_once_with_its_count(tmp_path, capsys):
    _stub_run_py(tmp_path, _STUB_RESULT)
    res = bench_ab.run_once("change", str(tmp_path), "verify", 38)
    assert res["correct"] is False and res["failed"] == 1
    assert res["failing"] == ["op verify[3]"]
    err = capsys.readouterr().err
    assert err == ("change run not correct: workload verify, seed 38: op verify[3] failed: "
                   "verify ran [], failed ['m1_folded_normal'] (2 times)\n")


def _stub_repo(repo, env=None):
    """A git repo at `repo` with one commit holding a stub run.py and
    BENCHMARK.json; returns the git command prefix for it."""
    _stub_run_py(repo, dict(_STUB_RESULT, correct=True, failed=0), env)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)
    return git


def _rev(git, rev):
    return subprocess.run(git + ["rev-parse", rev], check=True, capture_output=True,
                          text=True).stdout.strip()


def test_parent_with_the_working_trees_files_is_refused(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    git = _stub_repo(repo)
    monkeypatch.setattr(bench_ab, "ROOT", str(repo))
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(["--workload", "verify", "--seeds", "3"])
    assert exc.value.code == 2
    assert "--parent HEAD has the working tree's files" in capsys.readouterr().err
    # an untracked file is a difference
    (repo / "new.py").write_text("")
    assert not bench_ab.same_tree(_rev(git, "HEAD"))
    (repo / "new.py").unlink()
    # so is an edit to a tracked file
    (repo / "BENCHMARK.json").write_text("{}")
    assert not bench_ab.same_tree(_rev(git, "HEAD"))


def test_out_file_records_revisions_machine_pairs_and_tier1(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    env = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3",
           "blas_threads": {"libscipy_openblas.so": 1}, "caches": {"L1-Data": "48K"}}
    git = _stub_repo(repo, env)
    (repo / "change.txt").write_text("the change\n")
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "change"], check=True)
    monkeypatch.setattr(bench_ab, "ROOT", str(repo))
    monkeypatch.setattr(bench_ab, "TIER1", ("-c", "print('1 passed in 0.01s')"))
    out = tmp_path / "BENCH_0.json"
    assert bench_ab.main(["--workload", "verify", "--seeds", "3-4", "--tier1", "1",
                          "--parent", "HEAD~1", "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["revisions"] == {"parent": _rev(git, "HEAD~1"), "change": _rev(git, "HEAD"),
                                "change_uncommitted": False}
    assert rec["machine"] == {k: v for k, v in env.items() if k != "caches"}
    assert rec["workloads"] == ["verify"] and rec["seeds"] == [3, 4]
    pairs = rec["results"]["verify"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [(3, "parent"), (4, "change")]
    assert pairs[0]["change"] == {"correct": True, "failed": 0, "attempted": 8,
                                  "ops_per_s": 5.0, "op_p50_ms": 200.0}
    rows = rec["results"]["verify"]["metrics"]
    assert [r["name"] for r in rows] == ["ops_per_s", "op_p50_ms"]
    assert rows[0]["parent_median"] == rows[0]["change_median"] == 5.0
    assert rows[0]["verdict"] == "unresolved"
    tier1 = rec["tier1"]
    assert sorted(r["side"] for r in tier1["runs"]) == ["change", "parent"]
    assert all(r["exit"] == 0 and "1 passed" in r["summary"] for r in tier1["runs"])
    assert set(tier1["median_seconds"]) == {"parent", "change"}


def _stub_embedlab(repo, mb):
    """src/embedlab/__main__.py under `repo` that holds `mb` MB while it
    runs, and exits 3 unless called as `verify [--check x] --seed 0`."""
    main = repo / "src" / "embedlab" / "__main__.py"
    main.parent.mkdir(parents=True, exist_ok=True)
    main.write_text("import sys\n"
                    "if sys.argv[1:] not in (['verify', '--seed', '0'],\n"
                    "                        ['verify', '--check', 'x', '--seed', '0']):\n"
                    "    sys.exit(3)\n"
                    f"held = b'x' * ({mb} << 20)\n"
                    "open('verify.json', 'w').write('{}')\n")


def test_cmd_times_an_embedlab_command_in_both_trees(tmp_path):
    """Run as a script from the stub repo: a child's peak RSS starts from
    its spawner's, which for this test process could hide the stub's."""
    repo = tmp_path / "repo"
    git = _stub_repo(repo)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS + [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}))
    _stub_embedlab(repo, 0)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
    _stub_embedlab(repo, 64)
    (repo / "scripts").mkdir()
    script = repo / "scripts" / "bench_ab.py"
    script.write_text(open(_PATH).read())
    out = tmp_path / "BENCH_0.json"
    cmds = ["verify --seed 0", "verify --check x --seed 0"]
    proc = subprocess.run([sys.executable, str(script), "--cmd", cmds[0], "--cmd", cmds[1],
                           "--out", str(out)], capture_output=True, text=True, check=True)
    assert "embedlab verify --seed 0, parent" in proc.stdout
    rec = json.loads(out.read_text())
    assert rec["commands"] == ["embedlab " + c for c in cmds]
    assert rec["revisions"]["change_uncommitted"] and list(rec["results"]) == cmds
    for res in rec["results"].values():
        assert [p["first"] for p in res["pairs"]] == ["parent", "change"] * 5
        # the change holds 64 MB more at its peak, in every pair
        assert all(p["change"]["peak_rss_mb"] - p["parent"]["peak_rss_mb"] > 48
                   for p in res["pairs"])
        rows = {r["name"]: r for r in res["metrics"]}
        assert set(rows) == {"wall_s", "peak_rss_mb"} and rows["peak_rss_mb"]["wins"] == 0
        assert rows["peak_rss_mb"]["verdict"] == "regression"
    # the reports went to a scratch directory, not into either tree
    assert not (repo / "verify.json").exists()
    # a command that exits nonzero names its side and stops the script
    proc = subprocess.run([sys.executable, str(script), "--cmd", "verify --seed 1"],
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "parent run failed: embedlab verify --seed 1, exit 3" in proc.stderr
