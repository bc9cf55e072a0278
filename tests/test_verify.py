import dataclasses
import importlib.util
import os

import numpy as np
import pytest

from embedlab import verify as verify_mod
from embedlab.alignment import LinearAlignment, QuadraticAlignment
from embedlab.models import MixtureModel, default_task, tiny_task
from embedlab.schedules import default_schedule, make_schedule, step_ddpm
from embedlab.verify import (
    ChainReport,
    VerificationError,
    check_approx_bound,
    check_jensen,
    check_prop1,
    check_taylor_order,
    check_thm2_order,
    check_tweedie_exact,
    estimate_m1,
    fit_loglog,
    k1_chain_posterior_variance,
    run_checks,
)


@pytest.fixture(scope="module")
def sched():
    return default_schedule()


@pytest.fixture(scope="module")
def task():
    return default_task()


class TestFitLoglog:
    def test_pure_power_law(self):
        xs = np.array([0.2, 0.1, 0.05, 0.025])
        fit = fit_loglog(xs, 3.0 * xs ** 2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_floor_residuals_flagged_degenerate(self):
        fit = fit_loglog([0.2, 0.1], [1e-16, 1e-17])
        assert fit.degenerate
        assert fit.max_residual <= 1e-14


class TestTweedieExact:
    def test_k1_closed_form(self, sched):
        rng = np.random.default_rng(0)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.5, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 1.0, (1, 2)),
            covs=rng.uniform(0.1, 0.4, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        res = check_tweedie_exact(model, sched, probes=100, seed=1)
        assert res["max_error_responsibility"] <= 1e-12
        assert res["max_error_closed_form_k1"] <= 1e-12

    def test_mixture_responsibility_oracle(self, task, sched):
        res = check_tweedie_exact(task.model, sched, probes=100, seed=2)
        assert res["max_error_responsibility"] <= 1e-9


class TestTaylorOrder:
    def test_linear_over_linear_has_floor_residuals(self, sched):
        rng = np.random.default_rng(3)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.5, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.5, (1, 2)),
            covs=rng.uniform(0.2, 0.4, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        h = LinearAlignment(rng.standard_normal((1, 2)))
        u = rng.standard_normal(4)
        fit = check_taylor_order(rng.standard_normal(2), rng.standard_normal(4),
                                 40, model, sched, h, 0, direction=u)
        assert fit.max_residual <= 1e-12

    def test_quadratic_k1_slope_two(self, sched):
        rng = np.random.default_rng(4)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.5, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.5, (1, 2)),
            covs=rng.uniform(0.2, 0.4, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        h = QuadraticAlignment(rng.standard_normal((1, 2)), sign=-1.0)
        fit = check_taylor_order(rng.standard_normal(2), rng.standard_normal(4),
                                 40, model, sched, h, 0)
        assert fit.slope == pytest.approx(2.0, abs=0.05)
        assert fit.r2 >= 0.98

    def test_default_instance_second_order(self, task, sched):
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        rng = np.random.default_rng(5)
        fit = check_taylor_order(rng.standard_normal(2), task.embedding(1), 50,
                                 task.model, sched, h, 1)
        assert 1.7 <= fit.slope <= 2.3
        assert fit.r2 >= 0.98


def test_directional_embedding_derivative_graph(task, sched):
    """The graph for u . grad_c log p(x|c) agrees with the closed form, and
    its data-space reverse sweep agrees with finite differences."""
    from embedlab.autodiff import evaluate, finite_diff_grad, gradient
    from embedlab.graphs import directional_cgrad_graph

    rng = np.random.default_rng(12)
    c = task.embedding(1)
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    t = 40
    g = directional_cgrad_graph(task.model, u, c, t, sched)
    x = rng.standard_normal(2)
    val = evaluate(g, {"x": x})
    direct = float(u @ task.model.grad_c_log_likelihood(x, c, t, sched))
    assert float(val) == pytest.approx(direct, rel=1e-10)

    auto = gradient(g, "x")
    fd = finite_diff_grad(
        lambda v: float(u @ task.model.grad_c_log_likelihood(v, c, t, sched)),
        x, 1e-6)
    assert np.linalg.norm(auto - fd) / np.linalg.norm(fd) < 1e-6


class TestScoreExpansion:
    def test_residual_shrinks_with_rho(self, task, sched):
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        rng = np.random.default_rng(6)
        fit = check_thm2_order(rng.standard_normal(2), task.embedding(1), 50,
                               task.model, sched, h, 1, residual="score")
        assert np.all(np.diff(fit.ys) < 0)      # xs sorted descending
        assert 1.7 <= fit.slope <= 2.3

    def test_k1_logdensity_expansion_exactly_quadratic(self, sched):
        rng = np.random.default_rng(7)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.5, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.5, (1, 2)),
            covs=rng.uniform(0.2, 0.4, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        h = QuadraticAlignment(rng.standard_normal((1, 2)), sign=-1.0)
        fit = check_thm2_order(rng.standard_normal(2), rng.standard_normal(4),
                               30, model, sched, h, 0, residual="logdensity")
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_zero_gradient_rejected(self, task, sched):
        h = LinearAlignment(np.zeros((1, 2)))
        with pytest.raises(VerificationError):
            check_thm2_order(np.ones(2), task.embedding(0), 30, task.model,
                             sched, h, 0)


@pytest.fixture(scope="module")
def tiny():
    return tiny_task(), make_schedule(3, "linear", 0.25, 0.65)


class TestProp1:

    def test_constant_h_all_equal(self, tiny):
        tt, sched3 = tiny
        h = LinearAlignment(np.zeros((1, 1)))
        rep = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=21,
                          n_rollouts=64, seed=0)
        assert rep.v_unconstrained == rep.v_constrained == rep.v_fixed

    def test_singleton_grid_all_equal(self, tiny):
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        rep = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=1,
                          n_rollouts=64, seed=0)
        assert rep.v_unconstrained == rep.v_constrained == rep.v_fixed

    def test_default_instance_chain_ordering(self, tiny):
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        rep = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=21,
                          n_rollouts=512, seed=0)
        assert rep.v_unconstrained >= rep.v_constrained
        assert rep.v_constrained >= rep.v_fixed - 2 * rep.se_fixed
        # with common random numbers and the origin on the grid, the
        # constrained stage-wise maximum cannot fall below the fixed value
        assert rep.v_constrained >= rep.v_fixed

    def test_pinned_report_at_grid_5(self, tiny):
        """perfbench's verify op at seed 0, field by field to the last bit;
        a kernel that moves any bit of MixtureModel.score fails here."""
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        rep = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=5, n_rollouts=512, seed=0)
        got = {f.name: repr(getattr(rep, f.name)) for f in dataclasses.fields(ChainReport)}
        assert got == {
            "v_unconstrained": "-0.02450129385808561",
            "v_constrained": "-0.08998719541626003",
            "v_fixed": "-0.6695670851179846",
            "se_unconstrained": "0.0016339921568981376",
            "se_constrained": "0.008026234421444579",
            "se_fixed": "0.046834843560767954",
            "n_rollouts": "512",
            "grid": "{'ball_points': 5, 'extended_points': 9, 'radius': 0.5, 'origin': 0.5}",
            "interpretation": "'right-to-left re-decision, all-equal-henceforth'",
        }

    def test_pinned_report_at_grid_21(self, tiny):
        """The CLI's grid size, whose 68,921 unconstrained sequences the
        rollout walks in many chunks, at 64 rollouts to stay fast."""
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        rep = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=21, n_rollouts=64, seed=0)
        got = {f.name: repr(getattr(rep, f.name)) for f in dataclasses.fields(ChainReport)}
        assert got == {
            "v_unconstrained": "-0.019359175781888817",
            "v_constrained": "-0.07424600619195715",
            "v_fixed": "-0.5759043211217438",
            "se_unconstrained": "0.0037476994558054847",
            "se_constrained": "0.02429426660272059",
            "se_fixed": "0.11496563176421247",
            "n_rollouts": "64",
            "grid": "{'ball_points': 21, 'extended_points': 41, 'radius': 0.5, 'origin': 0.5}",
            "interpretation": "'right-to-left re-decision, all-equal-henceforth'",
        }

    def test_even_grid_rejected(self, tiny):
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        with pytest.raises(VerificationError):
            check_prop1(tt, sched3, h, 0, n_grid=20, n_rollouts=16, seed=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_grid": -1}, "n_grid .*got -1"),
        ({"n_rollouts": 1}, "n_rollouts .*got 1"),
    ])
    def test_degenerate_sizes_rejected(self, tiny, kwargs, match):
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        args = {"n_grid": 3, "n_rollouts": 16, **kwargs}
        with pytest.raises(VerificationError, match=match):
            check_prop1(tt, sched3, h, 0, seed=0, **args)

    @pytest.mark.parametrize("n_grid", [1, 3, 5, 7])
    @pytest.mark.parametrize("h_kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("block_rows", [None, 7, 2])
    def test_bit_identical_to_flat_rollout(self, tiny, monkeypatch, n_grid, h_kind,
                                           block_rows):
        """The prefix-tree rollout reports exactly what stepping every
        sequence through every step reports, also when chunks of 7 prefixes
        split the prefix groups, and when every level of the unconstrained
        grid takes several chunks of 2."""
        tt, sched3 = tiny
        h = (LinearAlignment(np.array([[0.8]])) if h_kind == "linear"
             else QuadraticAlignment.for_task(tt, sign=-1.0))
        if block_rows is not None:
            monkeypatch.setattr(verify_mod, "_BLOCK_ROWS", block_rows)
        for seed in (0, 1, 2):
            got = check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=n_grid,
                              n_rollouts=32, seed=seed)
            want = _flat_check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=n_grid,
                                     n_rollouts=32, seed=seed)
            for f in dataclasses.fields(ChainReport):
                assert getattr(got, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize("block_rows", [1024, 7, 1])
    def test_rollout_of_arbitrary_sequences(self, tiny, monkeypatch, block_rows):
        """Unsorted rows with repeats, and neighbours after sorting that
        share c_t but not the steps before it, match the flat rollout."""
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        rng = np.random.default_rng(4)
        seqs = rng.choice([-0.5, 0.0, 0.5], size=(60, 3))
        z0 = rng.standard_normal((16, 1))
        step_noise = rng.standard_normal((3, 16, 1))
        monkeypatch.setattr(verify_mod, "_BLOCK_ROWS", block_rows)
        got = verify_mod._rollout_values(seqs, z0, step_noise, tt.model, sched3, h, 0)
        want = _flat_rollout_values(seqs, z0, step_noise, tt.model, sched3, h, 0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_score_calls_step_at_most_a_chunk(self, tiny, monkeypatch):
        """At the default chunk size and the CLI's 512 rollouts, no score
        call steps more than _BLOCK_ROWS prefixes, so its (prefixes, 512,
        K, d) temporaries stay well inside a 2 MiB L2."""
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        shapes = []
        score = MixtureModel.score

        def counted(self, x, c, t, sched):
            shapes.append(np.shape(x))
            return score(self, x, c, t, sched)

        monkeypatch.setattr(MixtureModel, "score", counted)
        check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=7, n_rollouts=512, seed=0)
        # the 169 middle-level prefixes of the 13-point extended grid fill
        # whole chunks, and no call steps more
        assert max(shape[0] for shape in shapes) == verify_mod._BLOCK_ROWS
        biggest = max(np.prod(shape) for shape in shapes) * tt.model.n_components * 8
        assert biggest <= 1 << 20

    def test_each_distinct_prefix_scored_once(self, tiny, monkeypatch):
        tt, sched3 = tiny
        h = QuadraticAlignment.for_task(tt, sign=-1.0)
        shapes = []
        score = MixtureModel.score

        def counted(self, x, c, t, sched):
            shapes.append(np.shape(x))
            return score(self, x, c, t, sched)

        monkeypatch.setattr(MixtureModel, "score", counted)
        check_prop1(tt, sched3, h, 0, rho=0.5, n_grid=5, n_rollouts=64, seed=0)
        assert all(shape[1:] == (64, 1) for shape in shapes)
        # distinct (c_3, ..., c_t) prefixes at t = 3, 2, 1 for 5 ball points
        # and 9 extended-grid points
        fixed = 1 + 1 + 1
        constrained = (5 + 5 + 5) + (1 + 5 + 5) + (1 + 1 + 5)
        unconstrained = 9 + 81 + 729
        assert sum(shape[0] for shape in shapes) == fixed + constrained + unconstrained


def _flat_rollout_values(seqs, z0, step_noise, model, sched, h, y):
    """Every sequence stepped through every step from its own copy of z0."""
    S, T = seqs.shape
    x = np.broadcast_to(z0, (S,) + z0.shape).copy()
    for t in range(T, 0, -1):
        s = model.score(x, seqs[:, t - 1][:, None, None], t, sched)
        noise = (np.broadcast_to(step_noise[t - 1], x.shape)
                 if t > 1 else np.zeros_like(x))
        x = step_ddpm(x, s, t, noise, sched)
    hs = h.value(x, y)
    return np.mean(hs, axis=1), np.std(hs, axis=1, ddof=1) / np.sqrt(z0.shape[0])


def _flat_check_prop1(task, sched, h, y, rho, n_grid, n_rollouts, seed):
    """check_prop1 as it stepped every candidate sequence through every
    step, in chunks of 1024 sequences: the oracle for the prefix tree."""
    model = task.model
    T = sched.T
    c_org = float(task.embedding(y)[0])
    half = (n_grid - 1) // 2
    if half == 0:
        ball = np.array([c_org])
        ext = np.array([c_org])
    else:
        ball = c_org + rho * (np.arange(-half, half + 1) / half)
        ext = np.unique(np.concatenate(
            [ball, c_org + rho * (np.arange(-3 * half, 3 * half + 1, 2) / half)]))
    rng = np.random.default_rng(seed)
    d = model.data_dim
    z0 = rng.standard_normal((n_rollouts, d))
    step_noise = rng.standard_normal((T, n_rollouts, d))

    def rollout_values(seqs):
        return _flat_rollout_values(seqs, z0, step_noise, model, sched, h, y)

    v_fixed, se_fixed = rollout_values(np.full((1, T), c_org))
    committed = np.full(T, np.nan)
    for stage in range(T, 0, -1):
        cand = np.tile(ball[:, None], (1, T))
        for tau in range(stage, T):
            cand[:, tau] = committed[tau]
        vals, ses = rollout_values(cand)
        best = int(np.argmax(vals))
        committed[stage - 1] = ball[best]
        v_con, se_con = float(vals[best]), float(ses[best])
    grids = np.meshgrid(*([ext] * T), indexing="ij")
    all_seqs = np.stack([gr.reshape(-1) for gr in grids], axis=1)
    v_unc, se_unc = -np.inf, 0.0
    for lo in range(0, all_seqs.shape[0], 1024):
        vals, ses = rollout_values(all_seqs[lo:lo + 1024])
        best = int(np.argmax(vals))
        if vals[best] > v_unc:
            v_unc, se_unc = float(vals[best]), float(ses[best])
    return ChainReport(
        v_unconstrained=v_unc, v_constrained=v_con, v_fixed=float(v_fixed[0]),
        se_unconstrained=se_unc, se_constrained=se_con, se_fixed=float(se_fixed[0]),
        n_rollouts=n_rollouts,
        grid={"ball_points": int(ball.size), "extended_points": int(ext.size),
              "radius": float(rho), "origin": c_org},
    )


class TestJensen:
    def test_convex_quadratic_holds_with_margin(self, task, sched):
        h = QuadraticAlignment.for_task(task, sign=+1.0)
        out = check_jensen(np.array([0.4, -0.2]), task.embedding(0), 60,
                           task.model, sched, h, 0, n_mc=4000, seed=0)
        assert out["passed"]
        assert out["margin"] > 0

    def test_near_deterministic_posterior_near_equality(self, task, sched):
        """Near t=0 the posterior is almost a point, so Jensen is tight."""
        h = QuadraticAlignment.for_task(task, sign=+1.0)
        out = check_jensen(np.array([0.2, -0.4]), task.embedding(0), 2,
                           task.model, sched, h, 0, n_mc=4000, seed=4)
        assert out["passed"]
        assert abs(out["margin"]) <= 3 * out["se"] + 1e-4

    def test_linear_h_near_equality(self, sched):
        """Affine h makes Jensen an equality; K=1 keeps the chain mean exact."""
        rng = np.random.default_rng(8)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.4, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.6, (1, 2)),
            covs=rng.uniform(0.2, 0.4, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        h = LinearAlignment(rng.standard_normal((1, 2)))
        out = check_jensen(np.array([0.3, 0.3]), rng.standard_normal(4), 50,
                           model, sched, h, 0, n_mc=4000, seed=1)
        assert abs(out["margin"]) <= 3 * out["se"]

    def test_one_sample_rejected(self, task, sched):
        h = QuadraticAlignment.for_task(task, sign=+1.0)
        with pytest.raises(VerificationError, match="n_mc .*got 1"):
            check_jensen(np.zeros(2), task.embedding(0), 50, task.model, sched,
                         h, 0, n_mc=1, seed=0)

    def test_concave_rejected(self, task, sched):
        h = QuadraticAlignment.for_task(task, sign=-1.0)
        with pytest.raises(VerificationError):
            check_jensen(np.zeros(2), task.embedding(0), 50, task.model, sched,
                         h, 0, n_mc=100, seed=0)


class TestApproxBound:
    def test_holds_on_default_instance(self, task, sched):
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        out = check_approx_bound(np.array([0.5, 0.1]), task.embedding(2), 55,
                                 task.model, sched, h, 2, n_mc=4000, seed=2)
        assert out["passed"]

    def test_one_sample_rejected(self, task, sched):
        from embedlab.alignment import CosineAlignment
        h = CosineAlignment.for_task(task)
        with pytest.raises(VerificationError, match="n_mc .*got 1"):
            check_approx_bound(np.array([0.5, 0.1]), task.embedding(2), 55,
                               task.model, sched, h, 2, n_mc=1, seed=0)

    def test_rescaling_preserves_structure(self, sched):
        """Scaling the data by lambda scales m1 and K the same way, so the
        recomputed bound still holds.  The scaling is exact where the signal
        variance stays small against the noise floor (high t); the bound
        itself must hold either way."""
        from embedlab.alignment import CosineAlignment
        rng = np.random.default_rng(9)
        lam = 2.5
        base = MixtureModel(
            mean_maps=rng.normal(0.0, 0.3, (1, 2, 2)),
            mean_offsets=np.array([[1.2, 0.9]]),
            covs=np.array([[0.25, 0.3]]),
            weight_logits=np.zeros((1, 2)),
        )
        scaled = MixtureModel(
            mean_maps=lam * base.mean_maps,
            mean_offsets=lam * base.mean_offsets,
            covs=lam ** 2 * base.covs,
            weight_logits=base.weight_logits,
        )
        F = rng.standard_normal((6, 2))
        c = rng.standard_normal(2)
        proto = (F @ base.component_means(c)[0])[None, :]
        h = CosineAlignment(F, proto)
        t = 90
        x_t = np.array([0.8, 0.5])
        out_a = check_approx_bound(x_t, c, t, base, sched, h, 0, n_mc=4000, seed=3)
        out_b = check_approx_bound(lam * x_t, c, t, scaled, sched, h, 0,
                                   n_mc=4000, seed=3)
        assert out_a["passed"] and out_b["passed"]
        assert out_b["m1"] == pytest.approx(lam * out_a["m1"], rel=0.05)
        assert out_b["k_lower"] == pytest.approx(lam * out_a["k_lower"], rel=0.10)


class TestM1:
    def test_point_mass_limit(self, sched):
        model = MixtureModel(
            mean_maps=np.zeros((1, 2, 1)),
            mean_offsets=np.array([[0.3, -0.1]]),
            covs=np.full((1, 2), 1e-8),
            weight_logits=np.zeros((1, 1)),
        )
        m1, _ = estimate_m1(np.array([0.3, -0.1]), np.zeros(1), 5, model,
                            sched, 500, seed=0)
        assert m1 < 1e-3

    def test_monotone_in_t(self, task, sched):
        from embedlab.schedules import perturb
        rng = np.random.default_rng(10)
        c = task.embedding(0)
        x0 = task.model.sample_x0(c, 1, rng)[0]
        eps = rng.standard_normal(2)
        vals = []
        for t in (90, 60, 30, 10):
            x_t = perturb(x0, t, eps, sched)
            vals.append(estimate_m1(x_t, c, t, task.model, sched, 3000,
                                    seed=int(rng.integers(2 ** 31))))
        for (hi, se_hi), (lo, se_lo) in zip(vals, vals[1:]):
            assert lo <= hi + 2 * np.hypot(se_hi, se_lo)

    def test_folded_normal_oracle(self, sched):
        """MC mean deviation against the closed-form folded-normal mean of
        the chain's own Gaussian law."""
        from embedlab.verify import _k1_scalar_model
        model = _k1_scalar_model()
        v_chain, v_true = k1_chain_posterior_variance(model, sched, 60)
        m1, se = estimate_m1(np.array([0.5]), np.array([0.3]), 60, model,
                             sched, 20_000, seed=5)
        assert m1 == pytest.approx(np.sqrt(2 * v_chain / np.pi), abs=3 * se)
        assert v_chain < v_true     # the sigma convention underdisperses

    def test_zero_samples_rejected(self, task, sched):
        with pytest.raises(VerificationError):
            estimate_m1(np.zeros(2), task.embedding(0), 10, task.model, sched,
                        0, seed=0)

    def test_one_sample_rejected(self, task, sched):
        """One sample has no standard error (ddof=1 gives NaN)."""
        with pytest.raises(VerificationError, match="n_mc .*got 1"):
            estimate_m1(np.zeros(2), task.embedding(0), 10, task.model, sched,
                        1, seed=0)


class TestRunChecks:
    def test_deterministic_given_seed(self):
        names = ["tweedie_exact_k1", "taylor_order_quadratic_k1", "m1_folded_normal"]
        a = run_checks(seed=7, names=names)
        b = run_checks(seed=7, names=names)
        assert a == b

    def test_subset_matches_full_run(self):
        sub = run_checks(seed=3, names=["taylor_order_default"])
        assert sub["taylor_order_default"]["passed"]

    def test_unknown_name_rejected(self):
        with pytest.raises(VerificationError):
            run_checks(seed=0, names=["nonexistent_check"])


def test_false_alarm_script_counts_failures_and_z(capsys, monkeypatch):
    """scripts/false_alarms.py over two seeds, one of them a known false
    alarm of m1_folded_normal (3.6 SE against a 3 SE tolerance)."""
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "scripts")
    monkeypatch.syspath_prepend(scripts)
    spec = importlib.util.spec_from_file_location("false_alarms",
                                                  os.path.join(scripts, "false_alarms.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--checks", "m1_folded_normal", "--seeds", "0,1091049225"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("m1_folded_normal: 1/2 seeds failed (0.5000); "
                      "failing seeds [1091049225]")
    assert out[1].startswith("m1_folded_normal: z = (m1 - expected) / se: mean ")
    assert out[1].endswith("|z| > 3 at 1 seeds")
