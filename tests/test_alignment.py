import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.alignment import (
    AlignmentBoundInputs,
    AlignmentError,
    CompositeAlignment,
    CosineAlignment,
    LinearAlignment,
    QuadraticAlignment,
    eval_h_t,
    lipschitz_bound,
)
from embedlab.autodiff import Graph, GraphError, evaluate, finite_diff_grad, gradient
from embedlab.models import default_task
from embedlab.schedules import NoiseSchedule, default_schedule, tweedie_mean


@pytest.fixture(scope="module")
def task():
    return default_task()


@pytest.fixture(scope="module")
def sched():
    return default_schedule()


@pytest.fixture(scope="module")
def cos_h(task):
    return CosineAlignment.for_task(task)


def tape_value_and_grad(h, x0, y=0):
    """h(x0; y) and its x-gradient from one tape emission of h."""
    g = Graph()
    g.mark_output(h.emit(g, g.placeholder("x"), y))
    return float(evaluate(g, {"x": x0})), gradient(g, "x")


class TestEvalH:
    def test_cosine_parallel_features(self):
        F = np.eye(2)
        h = CosineAlignment(F, np.array([[3.0, 0.0]]))
        assert float(h.value(np.array([5.0, 0.0]), 0)) == pytest.approx(1.0, abs=1e-15)

    def test_cosine_rejects_zero_features(self):
        h = CosineAlignment(np.eye(2), np.array([[1.0, 0.0]]))
        with pytest.raises(AlignmentError):
            h.value(np.zeros(2), 0)
        with np.errstate(invalid="ignore"), pytest.raises(GraphError, match="non-finite"):
            tape_value_and_grad(h, np.zeros(2))

    def test_quadratic_concave_peaks_at_target(self):
        h = QuadraticAlignment(np.array([[0.4, -0.2]]), sign=-1.0)
        assert float(h.value(np.array([0.4, -0.2]), 0)) == 0.0
        assert float(h.value(np.array([1.0, 1.0]), 0)) < 0.0

    def test_composite_degenerate_weights(self, cos_h):
        quad = QuadraticAlignment(np.zeros((1, 2)), sign=-1.0)
        comp = CompositeAlignment([(cos_h, 1.0), (quad, 0.0)])
        x = np.array([0.3, 0.7])
        assert float(comp.value(x, 0)) == float(cos_h.value(x, 0))

    def test_composite_self_average(self, cos_h):
        comp = CompositeAlignment([(cos_h, 0.5), (cos_h, 0.5)])
        x = np.array([-0.2, 1.1])
        assert float(comp.value(x, 0)) == pytest.approx(float(cos_h.value(x, 0)), rel=1e-15)

    def test_composite_rejects_empty(self):
        with pytest.raises(AlignmentError):
            CompositeAlignment([])


class TestEvalHt:
    def test_identity_tweedie_limit(self, task, cos_h):
        sched1 = NoiseSchedule(betas=np.array([1e-14]))
        x = np.array([0.8, -0.3])
        out = eval_h_t(cos_h, x, task.embedding(0), 1, task.model, sched1, 0)
        assert float(out) == pytest.approx(float(cos_h.value(x, 0)), abs=1e-9)

    def test_single_gaussian_independent_of_x(self, sched):
        """Exact posterior mean of one near-point component ignores x_t."""
        from embedlab.models import MixtureModel
        model = MixtureModel(
            mean_maps=np.zeros((1, 2, 1)),
            mean_offsets=np.array([[0.5, 0.4]]),
            covs=np.full((1, 2), 1e-10),
            weight_logits=np.zeros((1, 1)),
        )
        h = QuadraticAlignment(np.array([[0.0, 0.0]]), sign=-1.0)
        c = np.zeros(1)
        a = eval_h_t(h, np.array([2.0, -1.0]), c, 60, model, sched, 0)
        b = eval_h_t(h, np.array([-3.0, 0.5]), c, 60, model, sched, 0)
        assert float(a) == pytest.approx(float(b), abs=1e-6)

    def test_is_exactly_the_composition(self, task, sched, cos_h):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2)
        c = task.embedding(2)
        direct = eval_h_t(cos_h, x, c, 37, task.model, sched, 2)
        composed = cos_h.value(tweedie_mean(x, c, 37, task.model, sched), 2)
        assert float(direct) == float(composed)


class TestGradients:
    def test_closed_form_grads_match_finite_differences(self, cos_h):
        """The reverse sweep of each emitted alignment graph matches the
        central-difference gradient of h.value (convex quadratic included)."""
        rng = np.random.default_rng(4)
        quad = QuadraticAlignment(rng.standard_normal((1, 2)), sign=+1.0)
        comp = CompositeAlignment([(cos_h, 0.7), (quad, 0.3)])
        for h in (cos_h, quad, comp):
            x = rng.standard_normal(2) + 0.1
            fd = finite_diff_grad(lambda v: float(h.value(v, 0)), x, 1e-6)
            err = np.linalg.norm(tape_value_and_grad(h, x)[1] - fd) / (np.linalg.norm(fd) + 1e-12)
            assert err < 1e-6, (h.kind, err)

    def test_composite_gradient_is_weighted_sum(self, cos_h):
        quad = QuadraticAlignment(np.array([[0.2, -0.1]]), sign=-1.0)
        comp = CompositeAlignment([(cos_h, 0.6), (quad, 0.4)])
        x = np.array([0.5, 0.9])
        expected = (0.6 * tape_value_and_grad(cos_h, x)[1]
                    + 0.4 * tape_value_and_grad(quad, x)[1])
        np.testing.assert_allclose(tape_value_and_grad(comp, x)[1], expected, atol=1e-10)

    def test_tape_emission_matches_values_and_grads(self, cos_h):
        """The emitted graph gives h.value, and its reverse sweep the
        central-difference gradient of h.value, for every kind."""
        rng = np.random.default_rng(6)
        quad = QuadraticAlignment(rng.standard_normal((1, 2)), sign=-1.0)
        convex = QuadraticAlignment(rng.standard_normal((1, 2)), sign=+1.0)
        lin = LinearAlignment(rng.standard_normal((1, 2)))
        comp = CompositeAlignment([(cos_h, 0.5), (quad, 1.5), (convex, 0.3)])
        for h in (cos_h, quad, convex, lin, comp):
            x0 = rng.standard_normal(2) + 0.2
            val, grad = tape_value_and_grad(h, x0)
            assert val == pytest.approx(float(h.value(x0, 0)), rel=1e-12)
            fd = finite_diff_grad(lambda v: float(h.value(v, 0)), x0, 1e-6)
            err = np.linalg.norm(grad - fd) / (np.linalg.norm(fd) + 1e-12)
            assert err < 1e-6, (h.kind, err)


class TestScaleInvariance:
    def test_feature_map_scaling_cancels(self, task):
        base = CosineAlignment.for_task(task, seed=0)
        lam = 3.7
        scaled = CosineAlignment(lam * base.feature_map, base.prototypes)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(2) + 0.05
            a = float(base.value(x, 1))
            b = float(scaled.value(x, 1))
            assert abs(a - b) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cosine_output_bounded(seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((6, 2))
    proto = rng.standard_normal((1, 6))
    if np.linalg.norm(proto) < 1e-6:
        return
    h = CosineAlignment(F, proto)
    x = rng.standard_normal(2) * 3.0
    if np.linalg.norm(F @ x) < 1e-9:
        return
    v = float(h.value(x, 0))
    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_cosine_lipschitz_lemma(seed):
    """|g(x;y) - g(x';y)| <= ||x - x'|| / min(||x||, ||x'||) on feature pairs."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(4)
    x = rng.standard_normal(4)
    x2 = rng.standard_normal(4)
    if min(np.linalg.norm(x), np.linalg.norm(x2), np.linalg.norm(p)) < 1e-3:
        return
    def cos(u):
        return float(u @ p / (np.linalg.norm(u) * np.linalg.norm(p)))
    lhs = abs(cos(x) - cos(x2))
    rhs = np.linalg.norm(x - x2) / min(np.linalg.norm(x), np.linalg.norm(x2))
    assert lhs <= rhs + 1e-12


class TestLipschitzBound:
    def test_zero_mean_deviation_zero_bound(self, cos_h):
        b = lipschitz_bound(cos_h, AlignmentBoundInputs(k_lower=2.0, grad_norm_max=1.5, m1=0.0))
        assert b == 0.0

    def test_linear_in_m1(self, cos_h):
        b1 = lipschitz_bound(cos_h, AlignmentBoundInputs(2.0, 1.5, 0.3))
        b2 = lipschitz_bound(cos_h, AlignmentBoundInputs(2.0, 1.5, 0.6))
        assert b2 == pytest.approx(2.0 * b1, rel=1e-15)

    def test_non_cosine_rejected(self):
        quad = QuadraticAlignment(np.zeros((1, 2)))
        with pytest.raises(AlignmentError):
            lipschitz_bound(quad, AlignmentBoundInputs(1.0, 1.0, 1.0))

    def test_bound_holds_on_narrow_gaussian(self, sched):
        """Monte-Carlo |E[h] - h(mean)| against the computed bound."""
        from embedlab.models import MixtureModel, ddpm_chain
        rng = np.random.default_rng(3)
        model = MixtureModel(
            mean_maps=np.zeros((1, 2, 1)),
            mean_offsets=np.array([[1.0, 0.6]]),
            covs=np.full((1, 2), 0.05),
            weight_logits=np.zeros((1, 1)),
        )
        F = rng.standard_normal((8, 2)) / np.sqrt(2)
        h = CosineAlignment(F, (F @ np.array([1.0, 0.7]))[None, :])
        c = np.zeros(1)
        t = 40
        x_t = np.array([0.7, 0.4])
        x0 = ddpm_chain(model, sched, x_t, t, c, 10_000, rng)
        center = tweedie_mean(x_t, c, t, model, sched)
        hs = h.value(x0, 0)
        gap = abs(float(hs.mean()) - float(h.value(center, 0)))
        k_lower = float(np.min(np.linalg.norm(x0 @ F.T, axis=1)))
        m1 = float(np.mean(np.linalg.norm(x0 - center, axis=1)))
        bound = lipschitz_bound(h, AlignmentBoundInputs(k_lower, h.operator_norm(), m1))
        se = float(hs.std(ddof=1) / np.sqrt(len(hs)))
        assert gap <= bound + 3 * se
