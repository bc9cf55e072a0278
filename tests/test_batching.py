"""Batched sampling: every trajectory is the same as it would be alone.

run_experiment advances all trajectories of a run as one batch.  Each
trajectory draws from its own seeded streams and every batched computation
treats its rows independently, so trajectory i of an n-batch must be bit
for bit trajectory i of an (i+1)-batch.  run_variants stacks the variants
of a sweep or a comparison as row blocks of one batch, so each variant's
block must be bit for bit its solo run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.harness.cli import _COMPARE_METHODS, _variant
from embedlab.harness.config import ConfigError, config_from_dict
from embedlab.harness.run import TrajectoryAborted, run_experiment, run_variants
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


def _assert_variants_are_solo_runs(cfgs):
    batch = run_variants(cfgs)
    assert len(batch) == len(cfgs)
    for cfg, (run, report) in zip(cfgs, batch):
        solo, solo_report = run_experiment(cfg)
        assert len(run) == cfg.n_samples
        _assert_same_trajectory(run, solo)
        assert report.to_dict() == solo_report.to_dict()


_DATES = st.fixed_dictionaries({
    "rho": st.floats(0.05, 4.0),
    "fraction": st.floats(0.0, 1.0),
    "placement": st.sampled_from(["uniform", "early", "mid", "late", "all"]),
    "iters_per_update": st.integers(1, 3),
    "origin": st.sampled_from(["fresh", "previous"]),
})


@settings(max_examples=60)
@given(dates=st.lists(_DATES, min_size=1, max_size=4),
       learned=st.booleans(),
       n=st.integers(1, 3),
       steps=st.integers(2, 6),
       seed=st.integers(0, 2**31 - 1),
       prompt=st.integers(0, 3),
       sampler=st.sampled_from(["ddpm", "ddim", "alg1"]),
       h=st.sampled_from(["cosine", "quadratic"]))
def test_sweep_variants_match_solo_runs(dates, learned, n, steps, seed, prompt, sampler, h,
                                        checkpoint):
    """A sweep's variants (radii, fractions, placements, iteration counts
    and origins, mixed in one batch) each equal their solo run."""
    raw = {"seed": seed, "n_samples": n, "prompt": prompt, "sampler": sampler,
           "schedule": {"T": steps}, "h": {"kind": h}}
    if learned:
        raw["model"] = {"kind": "learned", "checkpoint": checkpoint}
    _assert_variants_are_solo_runs(
        [config_from_dict(dict(raw, date=dict(date, l2_weight=0.3))) for date in dates])


@settings(max_examples=40)
@given(n=st.integers(2, 4),
       steps=st.integers(2, 8),
       seed=st.integers(0, 2**31 - 1),
       prompt=st.integers(0, 3),
       fraction=st.floats(0.1, 1.0),
       origin=st.sampled_from(["fresh", "previous"]),
       iters=st.integers(1, 2),
       w=st.sampled_from([0.0, 1.0, 2.0, 3.5]))
def test_compare_variants_match_solo_runs(n, steps, seed, prompt, fraction, origin, iters, w):
    """compare's eight methods, run as one batch, each equal their solo run."""
    cfg = config_from_dict({
        "seed": seed, "n_samples": n, "prompt": prompt, "schedule": {"T": steps},
        "guidance": {"w": w},
        "date": {"fraction": fraction, "origin": origin, "iters_per_update": iters}})
    _assert_variants_are_solo_runs([_variant(cfg, m) for m in _COMPARE_METHODS])


def test_each_variant_draws_from_fresh_generators():
    """Random-direction ablations at two radii, in one batch, each draw the
    directions of their solo run."""
    raw = {"n_samples": 3, "schedule": {"T": 4}, "seed": 11,
           "guidance": {"kind": "ablation", "ablation_kind": "random"}}
    _assert_variants_are_solo_runs(
        [config_from_dict(dict(raw, date={"placement": "all", "rho": rho}))
         for rho in (0.5, 2.0)])


@pytest.mark.parametrize("field, change", [
    ("seed", {"seed": 4}),
    ("n_samples", {"n_samples": 3}),
    ("prompt", {"prompt": 1}),
    ("schedule", {"schedule": {"T": 6}}),
    ("model", {"model": {"task_seed": 8}}),
    ("h", {"h": {"kind": "quadratic"}}),
    ("sampler", {"sampler": "ddim"}),
])
def test_run_variants_refuses_other_differences(field, change):
    raw = {"n_samples": 2, "schedule": {"T": 5}}
    base = config_from_dict(raw)
    other = config_from_dict(dict(raw, **change, guidance={"kind": "cfg"}))
    with pytest.raises(ConfigError, match=f"^{field}: variant 1 differs"):
        run_variants([base, other])


def test_run_variants_needs_a_config():
    with pytest.raises(ConfigError, match="at least one"):
        run_variants([])


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
    batched run aborts at that step and names trajectory 1.  In a batch of
    variants the abort names the variant too."""
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
    assert exc.value.variant == 0
    assert exc.value.trajectory == 1
    assert exc.value.t == t_boom
    assert f"trajectory 1 at step t={t_boom}" in str(exc.value)

    # Two variants in one batch: the fixed embedding, and random-direction
    # ablations with rho = 1 at every step.  A net that reads only c[0]
    # fires where c[0] passes thr, set between the two largest c[0] values
    # the ablation reaches, so only the ablation's row with the largest
    # blows up.  Random directions ignore the net, so the calm run shows it.
    def variants(weights, name):
        model = {"kind": "learned", "checkpoint": _net(tmp_path / name, weights)}
        ablation = {"date": {"placement": "all", "rho": 1.0},
                    "guidance": {"kind": "ablation", "ablation_kind": "random"}}
        return [config_from_dict(dict(raw, model=model)),
                config_from_dict(dict(raw, model=model, **ablation))]

    (fixed, _), (calm, _) = run_variants(variants(_zero_weights, "zero.json"))
    c0 = calm.c_t[..., 0]                       # (trajectory, step index)
    top, second = np.sort(c0, axis=None)[[-1, -2]]
    i_boom, k_boom = np.unravel_index(np.argmax(c0), c0.shape)
    thr = (top + second) / 2.0
    assert np.all(fixed.c_t[..., 0] < thr)
    assert i_boom == 2                          # not the block's first row

    def reads_c0(net):
        out = _exploding_weights(net)
        out[0][:, 0] = 0.0
        out[0][:, 2] = 1e200                    # inputs: x (2), then c (4)
        out[1][:] = -1e200 * thr
        return out

    with pytest.raises(TrajectoryAborted) as exc:
        with np.errstate(over="ignore", invalid="ignore"):
            run_variants(variants(reads_c0, "c0.json"))
    t_boom = steps - k_boom
    assert (exc.value.variant, exc.value.trajectory, exc.value.t) == (1, i_boom, t_boom)
    assert f"variant 1, trajectory {i_boom} at step t={t_boom}" in str(exc.value)
