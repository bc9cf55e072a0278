"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/tests/bench_selftest.py
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 6] > b [2, 4];  op > c [7, 9]
    spans = [("op", "op", 0.0, 10.0, -1, 0),
             ("a", "models", 1.0, 6.0, 0, 0),
             ("b", "autodiff.forward", 2.0, 4.0, 1, 0),
             ("c", "models", 7.0, 9.0, 0, 0)]
    assert tr.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert tr.layer_summary(spans) == {"op": (1, 3.0), "models": (2, 5.0),
                                       "autodiff.forward": (1, 2.0)}


def test_self_times_sum_to_root_duration():
    spans = [("op", "op", 0.0, 8.0, -1, 0), ("x", "update", 0.5, 7.5, 0, 0),
             ("y", "graphs", 1.0, 2.0, 1, 0), ("z", "graphs", 3.0, 7.0, 1, 0),
             ("w", "models", 4.0, 5.0, 3, 0)]
    assert sum(tr.self_times(spans)) == pytest.approx(8.0)


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1, 41))) == (75, 30, 10)
    assert bench.tail(list(range(1, 101))) == (90, 90, 10)
    assert bench.tail(list(range(1, 11)))[0] == 100


def test_install_and_remove_restore_every_patch_point():
    originals = [tr._resolve(mod, path)[2] for _, mod, path in tr.PATCH_POINTS]
    t = tr.Tracer()
    t.install()
    try:
        patched = [tr._resolve(mod, path)[2] for _, mod, path in tr.PATCH_POINTS]
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        t.remove()
    assert [tr._resolve(mod, path)[2] for _, mod, path in tr.PATCH_POINTS] == originals


@pytest.mark.parametrize("point", [("models", "embedlab.models", "MixtureModel.no_such"),
                                   ("update", "embedlab.update", "no_such_function"),
                                   ("graphs", "embedlab.graphs", "NoSuchClass.h_t")])
def test_missing_patch_point_is_an_error(monkeypatch, point):
    monkeypatch.setattr(tr, "PATCH_POINTS", tr.PATCH_POINTS + (point,))
    t = tr.Tracer()
    with pytest.raises(tr.PatchError, match="no longer exists"):
        t.install()
    assert not t._saved                     # nothing left half-patched


# one small op per workload, by cycle position; each must hit exactly the
# layers the full cycle hits (run.IDLE)
SMALL_OPS = {"adaptive": 0, "compare": 0, "verify": 5, "learned": 0}


@pytest.fixture(scope="module")
def small_ops():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = {}
        for name, k in SMALL_OPS.items():
            wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
            wl.prepare()
            wl.clear(k)
            wl.run_op(k)
            plain = workloads.collect_reports(wl.op_dir(k))
            problems = workloads.check_op(wl, k, plain)
            t = tr.Tracer()
            wl.clear(k)
            t.install()
            try:
                t.run_op(0, lambda: wl.run_op(k))
            finally:
                t.remove()
            traced = workloads.collect_reports(wl.op_dir(k))
            out[name] = (plain, traced, problems, t)
        yield out
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_traced_and_untraced_reports_identical(small_ops, name):
    plain, traced, problems, _ = small_ops[name]
    assert plain and plain == traced
    assert problems == []                   # includes the reference outputs


@pytest.mark.parametrize("name", sorted(SMALL_OPS))
def test_layer_hits_follow_the_mapping(small_ops, name):
    _, _, _, t = small_ops[name]
    summary = tr.layer_summary(t.spans())
    for layer in tr.LAYERS:
        hit = summary.get(layer, (0, 0.0))[0] > 0
        assert hit != (layer in bench.IDLE[name]), layer
    ran_training = any(n.endswith(":train_dsm") for n in t.names)
    assert ran_training == (name == "learned")


def test_check_op_rejects_a_changed_report(small_ops, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.WORKLOADS["compare"](workloads.DEFAULT_SEED)
    plain = dict(small_ops["compare"][0])
    plain["compare.csv"] = plain["compare.csv"].replace(b"ablation_random", b"other", 1)
    problems = workloads.check_op(wl, 0, plain)
    assert any("methods" in p for p in problems)
    assert any("differs from" in p for p in problems)
