"""The verdict rules of scripts/bench_ab.py."""

import argparse
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "scripts", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]


def _run(ops, p50, failed=0, attempted=100):
    return {"failed": failed, "attempted": attempted, "metrics": {"ops_per_s": {"value": ops},
                                          "op_p50_ms": {"value": p50}}}


def _verdicts(runs):
    return {row[0]: row[-1] for row in bench_ab.summarize(METRICS, runs)}


def test_gain_needs_nine_of_ten_wins_and_a_median_beyond_the_parent_iqr():
    runs = [(_run(4.0 + 0.01 * i, 250.0), _run(6.0 + 0.01 * i, 250.0)) for i in range(10)]
    assert _verdicts(runs) == {"ops_per_s": "gain", "op_p50_ms": "unresolved"}
    # 8 of 10 wins is not enough
    runs[0] = (_run(4.0, 250.0), _run(3.9, 250.0))
    runs[1] = (_run(4.0, 250.0), _run(3.9, 250.0))
    assert _verdicts(runs)["ops_per_s"] == "unresolved"


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


def test_workload_list_is_checked():
    assert bench_ab.parse_workloads("learned,adaptive") == ["learned", "adaptive"]
    with pytest.raises(argparse.ArgumentTypeError, match="unknown workload"):
        bench_ab.parse_workloads("learned,nope")
