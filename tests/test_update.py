import numpy as np
import pytest

from embedlab.alignment import (
    CompositeAlignment,
    CosineAlignment,
    LinearAlignment,
    QuadraticAlignment,
    eval_h_t,
)
from embedlab.autodiff import finite_diff_grad
from embedlab.models import MixtureModel, ScoreNet, default_task
from embedlab.schedules import default_schedule, tweedie_mean
from embedlab.update import (
    DateConfig,
    DateRows,
    UpdateError,
    build_update_schedule,
    date_update,
    grad_h_t_wrt_c,
    multi_iter_update,
    scaled_direction,
)


@pytest.fixture(scope="module")
def task():
    return default_task()


@pytest.fixture(scope="module")
def sched():
    return default_schedule()


@pytest.fixture(scope="module")
def cos_h(task):
    return CosineAlignment.for_task(task)


class TestScaledDirection:
    def test_three_four_five(self):
        eps, n = scaled_direction(np.array([3.0, 4.0]), 0.5)
        np.testing.assert_allclose(eps, [0.3, 0.4], rtol=1e-15)
        assert n == 5.0

    def test_zero_gradient_no_move(self):
        eps, n = scaled_direction(np.zeros(3), 0.5)
        np.testing.assert_array_equal(eps, np.zeros(3))
        assert n == 0.0


class TestGradHtWrtC:
    def test_constant_h_zero_gradient(self, task, sched):
        h = LinearAlignment(np.zeros((1, 2)))
        g = grad_h_t_wrt_c(np.array([0.4, 0.1]), task.embedding(0), 30,
                           task.model, sched, h, 0)
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_matches_finite_differences_analytic(self, task, sched, cos_h):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = int(rng.integers(1, sched.T + 1))
            x = rng.standard_normal(2) * 1.5
            c = rng.standard_normal(4)
            auto = grad_h_t_wrt_c(x, c, t, task.model, sched, cos_h, 1)
            fd = finite_diff_grad(
                lambda v: float(eval_h_t(cos_h, x, v, t, task.model, sched, 1)), c, 1e-6)
            assert np.linalg.norm(auto - fd) / (np.linalg.norm(fd) + 1e-12) < 1e-6

    def test_matches_finite_differences_learned(self, task, sched, cos_h):
        net = ScoreNet(2, 4, seed=12)
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = int(rng.integers(1, sched.T + 1))
            x = rng.standard_normal(2)
            c = rng.standard_normal(4)
            auto = grad_h_t_wrt_c(x, c, t, net, sched, cos_h, 1)
            fd = finite_diff_grad(
                lambda v: float(eval_h_t(cos_h, x, v, t, net, sched, 1)), c, 1e-6)
            assert np.linalg.norm(auto - fd) / (np.linalg.norm(fd) + 1e-12) < 1e-6

    def test_single_gaussian_quadratic_closed_form(self, sched):
        """Hand-assembled chain rule for K=1 with quadratic h:
        grad = (1-ab)/var * M^T grad_x h(tweedie)."""
        rng = np.random.default_rng(7)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.5, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.7, (1, 2)),
            covs=rng.uniform(0.2, 0.5, (1, 2)),
            weight_logits=np.zeros((1, 4)),
        )
        target = rng.standard_normal(2)
        h = QuadraticAlignment(target[None, :], sign=-1.0)
        t = 55
        x = rng.standard_normal(2)
        c = rng.standard_normal(4)
        ab = sched.alpha_bar(t)
        var = ab * model.covs[0] + (1 - ab)
        x0_bar = tweedie_mean(x, c, t, model, sched)
        by_hand = model.mean_maps[0].T @ (((1 - ab) / var) * (-2.0 * (x0_bar - target)))
        auto = grad_h_t_wrt_c(x, c, t, model, sched, h, 0)
        np.testing.assert_allclose(auto, by_hand, rtol=1e-10)


class TestDateUpdate:
    def test_norm_contract(self, task, sched, cos_h):
        rng = np.random.default_rng(3)
        cfg = DateConfig(rho=0.5, update_steps=frozenset([40]))
        for _ in range(100):
            x = rng.standard_normal(2) * 1.5
            c = rng.standard_normal(4)
            c_new, ud = date_update(x, c, 40, cfg, task.model, sched, cos_h, 1)
            if ud.grad_norm > 0:
                assert np.linalg.norm(c_new - c) == pytest.approx(0.5, rel=1e-9)
                assert np.linalg.norm(ud.eps) == pytest.approx(0.5, rel=1e-9)

    def test_zero_gradient_is_noop(self, task, sched):
        h = LinearAlignment(np.zeros((1, 2)))
        cfg = DateConfig(rho=0.5, update_steps=frozenset([10]))
        c = task.embedding(0)
        c_new, ud = date_update(np.ones(2), c, 10, cfg, task.model, sched, h, 0)
        np.testing.assert_array_equal(c_new, c)
        assert ud.grad_norm == 0.0

    def test_directional_ascent(self, task, sched, cos_h):
        """Moving a small step along the update direction increases h_t."""
        rng = np.random.default_rng(5)
        cfg = DateConfig(rho=0.5, update_steps=frozenset(range(1, sched.T + 1)))
        checked = 0
        while checked < 100:
            t = int(rng.integers(1, sched.T + 1))
            x = rng.standard_normal(2) * 1.5
            c = rng.standard_normal(4)
            c_new, ud = date_update(x, c, t, cfg, task.model, sched, cos_h, 2)
            if ud.grad_norm < 1e-8:
                continue
            delta = 1e-4 * cfg.rho
            before = float(eval_h_t(cos_h, x, c, t, task.model, sched, 2))
            after = float(eval_h_t(cos_h, x, c + delta * ud.eps / cfg.rho, t,
                                   task.model, sched, 2))
            assert after > before
            checked += 1

    def test_direction_invariant_to_h_rescaling(self, task, sched, cos_h):
        scaled = CompositeAlignment([(cos_h, 37.5)])
        cfg = DateConfig(rho=0.5, update_steps=frozenset([33]))
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(2)
            c = rng.standard_normal(4)
            _, u1 = date_update(x, c, 33, cfg, task.model, sched, cos_h, 0)
            _, u2 = date_update(x, c, 33, cfg, task.model, sched, scaled, 0)
            cosang = float(u1.eps @ u2.eps / (np.linalg.norm(u1.eps) * np.linalg.norm(u2.eps)))
            assert 1.0 - cosang <= 1e-9

    def test_previous_origin_includes_regularizer(self, task, sched, cos_h):
        """With a huge l2 weight the step points back toward the encoder."""
        cfg = DateConfig(rho=0.5, update_steps=frozenset([50]),
                         origin="previous", l2_weight=1e6)
        c_enc = task.embedding(0)
        c_prev = c_enc + np.array([1.0, 0.0, 0.0, 0.0])
        c_new, _ = date_update(np.zeros(2), c_prev, 50, cfg, task.model, sched,
                               cos_h, 0, c_encoder=c_enc)
        step = c_new - c_prev
        np.testing.assert_allclose(step / np.linalg.norm(step),
                                   [-1.0, 0.0, 0.0, 0.0], atol=1e-5)

    def test_previous_origin_requires_encoder(self, task, sched, cos_h):
        cfg = DateConfig(rho=0.5, update_steps=frozenset([50]), origin="previous")
        with pytest.raises(UpdateError):
            date_update(np.zeros(2), task.embedding(0), 50, cfg, task.model,
                        sched, cos_h, 0)

    def test_taylor_remainder_is_second_order(self, task, sched, cos_h):
        from embedlab.verify import check_taylor_order
        rng = np.random.default_rng(11)
        fit = check_taylor_order(rng.standard_normal(2), task.embedding(1), 50,
                                 task.model, sched, cos_h, 1)
        assert 1.7 <= fit.slope <= 2.3


class TestUpdateSchedule:
    def test_zero_fraction_empty(self):
        assert build_update_schedule(50, 0.0) == frozenset()

    def test_full_fraction_all(self):
        assert build_update_schedule(50, 1.0) == frozenset(range(1, 51))
        assert build_update_schedule(50, 0.0, "all") == frozenset(range(1, 51))

    def test_uniform_even_spacing(self):
        steps = sorted(build_update_schedule(50, 0.1, "uniform"))
        assert len(steps) == 5
        gaps = np.diff(steps)
        assert gaps.max() - gaps.min() <= 1

    def test_placement_blocks(self):
        T = 60
        m = 6
        early = build_update_schedule(T, 0.1, "early")
        late = build_update_schedule(T, 0.1, "late")
        mid = build_update_schedule(T, 0.1, "mid")
        assert early == frozenset(range(T - m + 1, T + 1))
        assert late == frozenset(range(1, m + 1))
        assert min(mid) > T // 3 and max(mid) <= 2 * T // 3 + m
        for block in (early, late, mid):
            s = sorted(block)
            assert s == list(range(s[0], s[0] + m))

    def test_bounds_validated(self):
        with pytest.raises(UpdateError):
            build_update_schedule(50, 1.5)
        with pytest.raises(UpdateError):
            build_update_schedule(50, 0.1, "sideways")


class TestMultiIter:
    def test_single_iteration_reduces_to_date_update(self, task, sched, cos_h):
        cfg = DateConfig(rho=0.5, update_steps=frozenset([40]), iters_per_update=1)
        x = np.array([0.9, 0.1])
        c = task.embedding(1)
        via_multi = multi_iter_update(x, c, 40, cfg, task.model, sched, cos_h, 1)
        via_single, _ = date_update(x, c, 40, cfg, task.model, sched, cos_h, 1)
        np.testing.assert_array_equal(via_multi, via_single)

    def test_zero_gradient_stays_put(self, task, sched):
        h = LinearAlignment(np.zeros((1, 2)))
        cfg = DateConfig(rho=0.5, update_steps=frozenset([40]), iters_per_update=4)
        c = task.embedding(0)
        out = multi_iter_update(np.ones(2), c, 40, cfg, task.model, sched, h, 0)
        np.testing.assert_array_equal(out, c)

    @pytest.mark.parametrize("origin, l2_weight", [
        ("fresh", 0.1), ("previous", 0.0), ("previous", 0.3)])
    @pytest.mark.parametrize("iters", [1, 3])
    def test_scalar_settings_match_repeated_rows(self, task, sched, cos_h, origin,
                                                 l2_weight, iters):
        """One DateConfig for a whole batch gives the bits of its settings
        repeated per row, anchored or not."""
        cfg = DateConfig(rho=0.7, origin=origin, l2_weight=l2_weight, iters_per_update=iters)
        rows = DateRows.repeat([cfg], 5)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 2)) * 1.5
        c = task.embedding(1) + 0.5 * rng.standard_normal((5, 4))
        kw = {"c_encoder": task.embedding(1)}
        c_cfg, u_cfg = date_update(x, c, 40, cfg, task.model, sched, cos_h, 1, **kw)
        c_rows, u_rows = date_update(x, c, 40, rows, task.model, sched, cos_h, 1, **kw)
        np.testing.assert_array_equal(c_cfg, c_rows)
        np.testing.assert_array_equal(u_cfg.eps, u_rows.eps)
        assert u_cfg.grad_norm == u_rows.grad_norm
        np.testing.assert_array_equal(
            multi_iter_update(x, c, 40, cfg, task.model, sched, cos_h, 1, **kw),
            multi_iter_update(x, c, 40, rows, task.model, sched, cos_h, 1, **kw))

    def test_triangle_inequality_bound(self, task, sched, cos_h):
        cfg = DateConfig(rho=0.5, update_steps=frozenset([40]), iters_per_update=3)
        c = task.embedding(2)
        out = multi_iter_update(np.array([0.4, 0.2]), c, 40, cfg, task.model,
                                sched, cos_h, 2)
        assert np.linalg.norm(out - c) <= 1.5 + 1e-12


def test_config_validation():
    for bad, field in [({"rho": -0.5}, "rho"), ({"fraction": 1.5}, "fraction"),
                       ({"placement": "sideways"}, "placement"), ({"origin": "middle"}, "origin"),
                       ({"iters_per_update": 0}, "iters_per_update"),
                       ({"l2_weight": -1.0}, "l2_weight")]:
        with pytest.raises(UpdateError, match=f"^{field}: "):
            DateConfig(**bad)


def test_update_steps_sorted_tuple():
    assert DateConfig().update_steps is None
    assert DateConfig(update_steps=frozenset([30, 4, 17])).update_steps == (4, 17, 30)
