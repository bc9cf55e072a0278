"""Batched sampling: every trajectory is the same as it would be alone.

run_experiment advances all trajectories of a run as one batch.  Each
trajectory draws from its own seeded streams and every batched computation
treats its rows independently, so trajectory i of an n-batch must be bit
for bit trajectory i of an (i+1)-batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.harness.config import config_from_dict
from embedlab.harness.run import TrajectoryAborted, run_experiment
from embedlab.models import ScoreNet, save_checkpoint

T = 5

# (guidance section, date section) per method; ablations need a date section
METHODS = {
    "none": ({"kind": "none"}, {"placement": "all", "rho": 0.5}),
    "cfg": ({"kind": "cfg", "w": 2.0}, None),
    "cg": ({"kind": "cg", "w": 2.0}, None),
    "ug": ({"kind": "ug", "w": 2.0}, None),
    "random": ({"kind": "ablation", "ablation_kind": "random"}, {"placement": "all"}),
    "unnormalized": ({"kind": "ablation", "ablation_kind": "unnormalized"},
                     {"placement": "all"}),
    "perturbed_h": ({"kind": "ablation", "ablation_kind": "perturbed_h"},
                    {"placement": "all"}),
}
# score composition needs the analytic model
COMPOSED = ("cfg", "cg", "ug")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("net") / "net.json"
    save_checkpoint(ScoreNet(2, 4, seed=21), path)
    return str(path)


def _config(method, origin, learned, n, seed, prompt, sampler, h, checkpoint):
    guidance, date = METHODS[method]
    raw = {"seed": seed, "n_samples": n, "prompt": prompt, "sampler": sampler,
           "schedule": {"T": T}, "guidance": guidance, "h": {"kind": h},
           "date": None if date is None else dict(date, origin=origin, l2_weight=0.3)}
    if learned:
        raw["model"] = {"kind": "learned", "checkpoint": checkpoint}
    return config_from_dict(raw)


def _assert_same_trajectory(a, b):
    for field in ("x_t", "c_t", "x0_bar", "h", "final_x0"):
        np.testing.assert_array_equal(a[field], b[field], strict=True)


@settings(max_examples=60)
@given(method=st.sampled_from(sorted(METHODS)),
       origin=st.sampled_from(["fresh", "previous"]),
       n=st.integers(2, 5),
       data=st.data(),
       seed=st.integers(0, 2**31 - 1),
       prompt=st.integers(0, 3),
       sampler=st.sampled_from(["ddpm", "ddim", "alg1"]),
       h=st.sampled_from(["cosine", "quadratic"]))
def test_trajectory_independent_of_batch_size(method, origin, n, data, seed,
                                              prompt, sampler, h, checkpoint):
    learned = method not in COMPOSED and data.draw(st.booleans(), label="learned")
    i = data.draw(st.integers(0, n - 1), label="i")
    big, _ = run_experiment(_config(method, origin, learned, n, seed, prompt,
                                    sampler, h, checkpoint))
    small, _ = run_experiment(_config(method, origin, learned, i + 1, seed, prompt,
                                      sampler, h, checkpoint))
    assert len(big) == n and len(small) == i + 1
    _assert_same_trajectory(big[i], small[i])


def _net(path, weights):
    net = ScoreNet(2, 4, seed=0)
    for p, w in zip(net.params, weights(net)):
        p.value = w
    save_checkpoint(net, path)
    return str(path)


def _zero_weights(net):
    return [np.zeros_like(p.value) for p in net.params]


def _exploding_weights(net):
    """Score 0 while x[0] <= 0 (every SiLU sees a non-positive input), an
    overflow to inf as soon as x[0] > 0."""
    out = _zero_weights(net)
    out[0][:, 0] = 1e200            # first layer reads x[0] only
    out[2][:] = 1e200
    out[4][:] = 1e200
    out[6][:] = 1.0
    return out


def test_abort_names_the_trajectory_that_blows_up(tmp_path):
    """Of three trajectories only trajectory 1 ever reaches x[0] > 0; the
    batched run aborts at that step and names trajectory 1."""
    raw = {"seed": 210, "n_samples": 3, "schedule": {"T": 6}, "date": None}

    def cfg(weights, name):
        model = {"kind": "learned", "checkpoint": _net(tmp_path / name, weights)}
        return config_from_dict(dict(raw, model=model))

    # with a zero score the states are those the exploding net sees until it fires
    calm, _ = run_experiment(cfg(_zero_weights, "zero.json"))
    steps = raw["schedule"]["T"]     # step t sits at index steps - t
    first_positive = [next((steps - k for k, x in enumerate(rec.x_t) if x[0] > 0.0), None)
                      for rec in calm]
    assert first_positive[0] is None and first_positive[2] is None
    t_boom = first_positive[1]
    assert t_boom is not None and t_boom < 6

    with pytest.raises(TrajectoryAborted) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            run_experiment(cfg(_exploding_weights, "boom.json"))
    assert exc.value.trajectory == 1
    assert exc.value.t == t_boom
    assert f"trajectory 1 at step t={t_boom}" in str(exc.value)
