import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.autodiff import Graph, evaluate, gradient, param_gradients
from embedlab.graphs import classifier_graph, log_likelihood_graph
from embedlab.models import (
    MixtureModel,
    ModelError,
    ScoreNet,
    classifier_log_prob,
    default_task,
    load_checkpoint,
    save_checkpoint,
    tiny_task,
    train_dsm,
    unconditional_score,
)
from embedlab.schedules import NoiseSchedule, default_schedule, make_schedule, perturb


@pytest.fixture(scope="module")
def sched():
    return default_schedule()


@pytest.fixture(scope="module")
def task():
    return default_task()


def random_mixture(rng, K=2, d=2, e=4):
    return MixtureModel(
        mean_maps=rng.normal(0.0, 0.6, (K, d, e)),
        mean_offsets=rng.normal(0.0, 1.0, (K, d)),
        covs=rng.uniform(0.1, 0.5, (K, d)),
        weight_logits=rng.normal(0.0, 0.8, (K, e)),
    )


class TestAnalyticScore:
    def test_single_gaussian_identity_limit(self):
        """With alpha_bar ~ 1 and unit covariance the score is -(x - Mc - b)."""
        rng = np.random.default_rng(0)
        model = MixtureModel(
            mean_maps=rng.standard_normal((1, 2, 3)),
            mean_offsets=rng.standard_normal((1, 2)),
            covs=np.ones((1, 2)),
            weight_logits=np.zeros((1, 3)),
        )
        sched = NoiseSchedule(betas=np.array([1e-13]))
        x = rng.standard_normal(2)
        c = rng.standard_normal(3)
        mean = model.component_means(c)[0]
        np.testing.assert_allclose(model.score(x, c, 1, sched), -(x - mean), atol=1e-9)

    def test_symmetric_mixture_zero_at_center(self, sched):
        model = MixtureModel(
            mean_maps=np.zeros((2, 2, 1)),
            mean_offsets=np.array([[1.0, 0.5], [-1.0, -0.5]]),
            covs=np.full((2, 2), 0.3),
            weight_logits=np.zeros((2, 1)),
        )
        s = model.score(np.zeros(2), np.zeros(1), 40, sched)
        np.testing.assert_allclose(s, np.zeros(2), atol=1e-14)

    def test_score_equals_tape_gradient_of_log_likelihood(self, sched):
        """The closed-form score against a reverse sweep through the
        log-likelihood graph, on random instances."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = random_mixture(rng)
            t = int(rng.integers(1, sched.T + 1))
            x = rng.standard_normal(2) * 1.5
            c = rng.standard_normal(4)
            g = log_likelihood_graph(model, t, sched)
            evaluate(g, {"x": x, "c": c})
            np.testing.assert_allclose(model.score(x, c, t, sched),
                                       gradient(g, "x"), atol=1e-9)
            np.testing.assert_allclose(model.grad_c_log_likelihood(x, c, t, sched),
                                       gradient(g, "c"), atol=1e-9)


class TestLogLikelihood:
    def test_gaussian_peak_value(self):
        model = MixtureModel(
            mean_maps=np.zeros((1, 2, 1)),
            mean_offsets=np.array([[0.7, -0.2]]),
            covs=np.array([[0.3, 0.3]]),
            weight_logits=np.zeros((1, 1)),
        )
        sched = make_schedule(1, "constant", 0.5)
        var = 0.5 * 0.3 + 0.5
        x_peak = np.sqrt(0.5) * model.mean_offsets[0]
        lp = model.log_likelihood(x_peak, np.zeros(1), 1, sched)
        assert float(lp) == pytest.approx(-np.log(2 * np.pi * var), rel=1e-12)

    def test_equal_inputs_equal_values(self, task, sched):
        x = np.array([0.3, -0.8])
        c = task.embedding(1)
        a = task.model.log_likelihood(x, c, 30, sched)
        b = task.model.log_likelihood(x.copy(), c.copy(), 30, sched)
        assert float(a) == float(b)

    def test_density_integrates_to_one(self, task, sched):
        """Quadrature over a wide 2-D grid at a mid trajectory step."""
        c = task.embedding(0)
        t = 30
        means, variances = task.model.perturbed_params(c, t, sched)
        lo = means.min(axis=0) - 7 * np.sqrt(variances.max(axis=0))
        hi = means.max(axis=0) + 7 * np.sqrt(variances.max(axis=0))
        n = 400
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        lp = task.model.log_likelihood(grid, c, t, sched)
        mass = np.sum(np.exp(lp)) * (xs[1] - xs[0]) * (ys[1] - ys[0])
        assert mass == pytest.approx(1.0, rel=0.01)


class TestWeights:
    def test_sum_to_one_and_shift_invariance(self, sched):
        rng = np.random.default_rng(3)
        model = random_mixture(rng)
        shifted = MixtureModel(
            mean_maps=model.mean_maps, mean_offsets=model.mean_offsets,
            covs=model.covs,
            weight_logits=model.weight_logits + rng.standard_normal(4))
        for _ in range(20):
            c = rng.standard_normal(4) * 2.0
            w = model.weights(c)
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(w, shifted.weights(c), atol=1e-12)


def test_perturbed_marginal_consistency(task, sched):
    """Sampling x0 then diffusing matches the perturbed mixture's moments
    within Monte-Carlo error (3 SE, n = 1e4)."""
    rng = np.random.default_rng(11)
    c = task.embedding(2)
    t = 45
    n = 10_000
    x0 = task.model.sample_x0(c, n, rng)
    eps = rng.standard_normal((n, 2))
    x_t = perturb(x0, t, eps, sched)

    means, variances = task.model.perturbed_params(c, t, sched)
    w = task.model.weights(c)
    mean_true = w @ means
    second_true = np.zeros(2)
    for k in range(2):
        second_true += w[k] * (variances[k] + means[k] ** 2)

    se_mean = x_t.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(x_t.mean(axis=0) - mean_true) <= 3 * se_mean)
    sq = x_t ** 2
    se_sq = sq.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(sq.mean(axis=0) - second_true) <= 3 * se_sq)


class TestScoreNet:
    def test_zero_weights_zero_output(self, sched):
        net = ScoreNet(2, 4, seed=0)
        for p in net.params:
            p.value = np.zeros_like(p.value)
        out = net.score(np.ones(2), np.ones(4), 50, sched)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_output_shape(self, sched):
        net = ScoreNet(2, 4, seed=0)
        rng = np.random.default_rng(1)
        assert net.score(rng.standard_normal(2), rng.standard_normal(4), 3, sched).shape == (2,)
        assert net.score(rng.standard_normal((7, 2)), rng.standard_normal(4), 3, sched).shape == (7, 2)

    def test_tape_emission_matches_forward(self, sched):
        net = ScoreNet(2, 4, seed=4)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        c = rng.standard_normal(4)
        g = Graph()
        xr = g.placeholder("x")
        cr = g.placeholder("c")
        g.mark_output(g.vsum(net.emit_score(g, xr, cr, 17, sched)))
        val = evaluate(g, {"x": x, "c": c})
        assert float(val) == pytest.approx(float(np.sum(net.score(x, c, 17, sched))), rel=1e-12)


class TestTrainDsm:
    def test_zero_steps_leaves_net_unchanged(self, task, sched):
        net = ScoreNet(2, 4, seed=3)
        before = [p.value.copy() for p in net.params]
        losses = train_dsm(net, task.model, sched, steps=0, batch=8, lr=1e-3, seed=0)
        assert losses.size == 0
        for p, b in zip(net.params, before):
            np.testing.assert_array_equal(p.value, b)

    def test_time_features_computed_once_per_timestep(self, task, monkeypatch):
        """2 steps x 16 rows draw 32 timesteps from T=10, so a call per row
        would exceed T."""
        sched = make_schedule(10, "linear", 1e-4, 0.02)
        calls = []
        original = ScoreNet.time_features

        def counted(self, t, T):
            calls.append(t)
            return original(self, t, T)

        monkeypatch.setattr(ScoreNet, "time_features", counted)
        train_dsm(ScoreNet(2, 4, seed=3), task.model, sched, steps=2, batch=16, lr=1e-3, seed=0)
        assert 0 < len(calls) <= sched.T

    def test_backprop_matches_tape_engine(self, task, sched):
        """The hand-rolled training backprop against tape param gradients
        on one tiny batch."""
        net = ScoreNet(2, 4, seed=6)
        rng = np.random.default_rng(8)
        batch = 3
        cs = rng.standard_normal((batch, 4))
        xt = rng.standard_normal((batch, 2))
        ts = rng.integers(1, sched.T + 1, size=batch)
        target = rng.standard_normal((batch, 2))

        # tape route: mean over the batch of ||s - target||^2
        for p in net.params:
            p.zero_grad()
        g = Graph()
        outs = []
        for i in range(batch):
            xr = g.placeholder(f"x{i}")
            cr = g.placeholder(f"c{i}")
            s = net.emit_score(g, xr, cr, int(ts[i]), sched)
            r = g.sub(s, g.constant(target[i]))
            outs.append(g.dot(r, r))
        total = outs[0]
        for o in outs[1:]:
            total = g.add(total, o)
        g.mark_output(g.scale(total, 1.0 / batch))
        bindings = {}
        for i in range(batch):
            bindings[f"x{i}"] = xt[i]
            bindings[f"c{i}"] = cs[i]
        evaluate(g, bindings)
        param_gradients(g)
        tape_grads = [p.grad.copy() for p in net.params]

        # training route
        feats = np.stack([net.time_features(t, sched.T) for t in ts])
        inp = np.concatenate([xt, cs, feats], axis=1)
        out, acts, pre = net._forward_cached(inp)
        grad = 2.0 * (out - target) / batch
        n_layers = len(net.params) // 2
        hand = [None] * len(net.params)
        for i in range(n_layers - 1, -1, -1):
            W = net.params[2 * i]
            a_in = acts[i]
            hand[2 * i] = grad.T @ a_in
            hand[2 * i + 1] = grad.sum(axis=0)
            if i > 0:
                upstream = grad @ W.value
                z = pre[i - 1]
                sig = 1.0 / (1.0 + np.exp(-z))
                grad = upstream * sig * (1.0 + z * (1.0 - sig))
        for tg, hg in zip(tape_grads, hand):
            np.testing.assert_allclose(tg, hg, rtol=1e-10, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_step_index(self, task, sched):
        from embedlab.models import TrainingDiverged
        net = ScoreNet(2, 4, seed=3)
        with pytest.raises(TrainingDiverged) as exc:
            train_dsm(net, task.model, sched, steps=50, batch=8, lr=1e6, seed=0)
        assert 0 <= exc.value.step < 50

    def test_single_gaussian_task_reaches_analytic_score(self, sched):
        """Trained net within 10% relative squared error of the exact score."""
        rng = np.random.default_rng(0)
        model = MixtureModel(
            mean_maps=rng.normal(0.0, 0.4, (1, 2, 4)),
            mean_offsets=rng.normal(0.0, 0.8, (1, 2)),
            covs=np.array([[0.25, 0.4]]),
            weight_logits=np.zeros((1, 4)),
        )
        net = ScoreNet(2, 4, seed=1)
        losses = train_dsm(net, model, sched, steps=6000, batch=256, lr=2e-3, seed=2)
        assert np.all(np.isfinite(losses))
        assert losses[-600:].mean() < losses[:600].mean()

        test_rng = np.random.default_rng(5)
        num = den = 0.0
        for _ in range(300):
            t = int(test_rng.integers(1, sched.T + 1))
            c = test_rng.standard_normal(4)
            x0 = model.sample_x0(c, 1, test_rng)[0]
            eps = test_rng.standard_normal(2)
            x_t = perturb(x0, t, eps, sched)
            sa = model.score(x_t, c, t, sched)
            sl = net.score(x_t, c, t, sched)
            num += np.sum((sl - sa) ** 2)
            den += np.sum(sa ** 2)
        assert num / den <= 0.1


class TestClassifier:
    def test_single_prompt_log_prob_zero(self, task, sched):
        out = classifier_log_prob([(task.model, task.embedding(0))], [1.0],
                                  np.zeros(2), 10, sched)
        assert float(out[0]) == pytest.approx(0.0, abs=1e-12)

    def test_identical_models_uniform_prior(self, task, sched):
        conds = [(task.model, task.embedding(0)), (task.model, task.embedding(0))]
        out = classifier_log_prob(conds, [0.5, 0.5], np.ones(2), 20, sched)
        np.testing.assert_allclose(out, np.log(0.5) * np.ones(2), atol=1e-12)

    def test_empty_prompt_set_rejected(self, sched):
        with pytest.raises(ModelError):
            classifier_log_prob([], [], np.zeros(2), 10, sched)

    def test_bayes_gradient_identity(self, task, sched):
        """grad_x log p(x|y) = grad_x log p(x) + grad_x log p(y|x)."""
        from embedlab.guidance import classifier_grad
        rng = np.random.default_rng(13)
        conds = task.conditionals()
        for _ in range(5):
            x = rng.standard_normal(2) * 1.2
            t = int(rng.integers(1, sched.T + 1))
            y = int(rng.integers(0, task.n_prompts))
            lhs = task.model.score(x, task.embedding(y), t, sched)
            rhs = (unconditional_score(conds, task.priors, x, t, sched)
                   + classifier_grad(conds, task.priors, y, x, t, sched))
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


# -- the prompt-stacked pass against the per-prompt formulas it replaced -----

def _oracle_logsumexp(a, axis=-1):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _oracle_log_joint(m, x, c, t, sched):
    """log w_k + log N_t(x; mu_k, var_k) and the perturbed means and
    variances, from the model's fields, one embedding at a time."""
    x = np.asarray(x, dtype=np.float64)
    ab = sched.alpha_bar(t)
    means = np.sqrt(ab) * (np.einsum("kde,...e->...kd", m.mean_maps, c) + m.mean_offsets)
    variances = ab * m.covs + (1.0 - ab)
    diff = x[..., None, :] - means
    logpdfs = -0.5 * np.sum(diff * diff / variances + np.log(2.0 * np.pi * variances), axis=-1)
    logits = np.einsum("ke,...e->...k", m.weight_logits, c)
    return logits - _oracle_logsumexp(logits)[..., None] + logpdfs, means, variances


def _oracle_log_likelihood(m, x, c, t, sched):
    return _oracle_logsumexp(_oracle_log_joint(m, x, c, t, sched)[0])


def _oracle_score(m, x, c, t, sched):
    comp, means, variances = _oracle_log_joint(m, x, c, t, sched)
    r = np.exp(comp - _oracle_logsumexp(comp)[..., None])
    pulls = -(np.asarray(x)[..., None, :] - means) / variances
    return np.sum(r[..., None] * pulls, axis=-2)


def _oracle_unconditional_score(conditionals, priors, x, t, sched):
    lps = np.stack([_oracle_log_likelihood(m, x, c, t, sched) + np.log(priors[i])
                    for i, (m, c) in enumerate(conditionals)])
    post = np.exp(lps - _oracle_logsumexp(lps, axis=0))
    scores = np.stack([_oracle_score(m, x, c, t, sched) for m, c in conditionals])
    return np.sum(post[..., None] * scores, axis=0)


def _oracle_classifier_log_prob(conditionals, priors, x, t, sched):
    lp = np.array([_oracle_log_likelihood(m, x, c, t, sched) + np.log(priors[i])
                   for i, (m, c) in enumerate(conditionals)])
    return lp - _oracle_logsumexp(lp, axis=0)


_TASKS = {"desk": default_task(), "tiny": tiny_task()}


@given(task_name=st.sampled_from(sorted(_TASKS)), n=st.integers(0, 5),
       t=st.integers(1, 100), scale=st.sampled_from([0.1, 1.0, 5.0]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_stacked_prompt_pass_matches_per_prompt_loop(task_name, n, t, scale, seed):
    """unconditional_score and classifier_log_prob, one pass over all prompts,
    give the bits of the per-prompt loops; n = 0 means one unbatched x."""
    task = _TASKS[task_name]
    sched = default_schedule()
    d = task.model.data_dim
    x = np.random.default_rng(seed).standard_normal((n, d) if n else d) * scale
    conds = task.conditionals()
    got = unconditional_score(conds, task.priors, x, t, sched)
    want = _oracle_unconditional_score(conds, task.priors, x, t, sched)
    assert got.shape == want.shape == x.shape
    assert np.array_equal(got, want)
    got = classifier_log_prob(conds, task.priors, x, t, sched)
    want = _oracle_classifier_log_prob(conds, task.priors, x, t, sched)
    assert got.shape == want.shape == (task.n_prompts,) + x.shape[:-1]
    assert np.array_equal(got, want)


class TestPromptSetValidation:
    """unconditional_score, classifier_log_prob and classifier_graph share
    one check of the prompt set and its priors."""

    @staticmethod
    def _all_reject(conds, priors, match, sched):
        x = np.zeros(2)
        for call in (lambda: unconditional_score(conds, priors, x, 10, sched),
                     lambda: classifier_log_prob(conds, priors, x, 10, sched),
                     lambda: classifier_graph(conds, priors, 0, 10, sched)):
            with pytest.raises(ModelError, match=match):
                call()

    def test_empty_prompt_set(self, sched):
        self._all_reject([], [], "empty prompt set", sched)

    def test_prompts_from_two_models(self, task, sched):
        other = MixtureModel(task.model.mean_maps, task.model.mean_offsets,
                             task.model.covs, task.model.weight_logits)
        conds = [(task.model, task.embedding(0)), (other, task.embedding(1))]
        self._all_reject(conds, [0.5, 0.5], "more than one model", sched)

    def test_priors_of_wrong_shape(self, task, sched):
        conds = task.conditionals()
        self._all_reject(conds, [0.5, 0.5], r"priors have shape \(2,\), expected \(4,\)", sched)
        self._all_reject(conds, np.full((4, 1), 0.25), "priors have shape", sched)

    def test_priors_not_summing_to_one(self, task, sched):
        self._all_reject(task.conditionals(), [0.25, 0.25, 0.25, 0.3], "sum to 1.05", sched)


class TestCheckpoints:
    def test_mixture_roundtrip_bit_exact(self, task, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(task.model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.mean_maps, task.model.mean_maps)
        np.testing.assert_array_equal(loaded.mean_offsets, task.model.mean_offsets)
        np.testing.assert_array_equal(loaded.covs, task.model.covs)
        np.testing.assert_array_equal(loaded.weight_logits, task.model.weight_logits)

    def test_scorenet_roundtrip_bit_exact(self, tmp_path, sched):
        net = ScoreNet(2, 4, seed=9)
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for a, b in zip(net.params, loaded.params):
            np.testing.assert_array_equal(a.value, b.value)
        x = np.array([0.2, -0.4])
        c = np.ones(4)
        np.testing.assert_array_equal(net.score(x, c, 7, sched),
                                      loaded.score(x, c, 7, sched))

    def test_bytes_match_json_dump_reference(self, task, tmp_path):
        """The one-pass encoder writes what json.dump of the same doc wrote."""
        def reference_save(model, path):
            if isinstance(model, MixtureModel):
                doc = {
                    "kind": "mixture",
                    "n_components": model.n_components,
                    "data_dim": model.data_dim,
                    "embed_dim": model.embed_dim,
                    "mean_maps": model.mean_maps.reshape(-1).tolist(),
                    "mean_offsets": model.mean_offsets.reshape(-1).tolist(),
                    "covs": model.covs.reshape(-1).tolist(),
                    "weight_logits": model.weight_logits.reshape(-1).tolist(),
                }
            else:
                doc = {
                    "kind": "scorenet",
                    "data_dim": model.data_dim,
                    "embed_dim": model.embed_dim,
                    "hidden": model.hidden,
                    "depth": model.depth,
                    "time_feats": model.time_feats,
                    "weights": [p.value.reshape(-1).tolist() for p in model.params],
                }
            with open(path, "w") as fh:
                json.dump(doc, fh)

        for model in (task.model, ScoreNet(2, 4, seed=9), ScoreNet(3, 2, hidden=5, depth=1,
                                                                  time_feats=4, seed=1)):
            save_checkpoint(model, tmp_path / "new.json")
            reference_save(model, tmp_path / "ref.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_failed_write_keeps_previous_checkpoint(self, task, tmp_path, monkeypatch):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(task.model, path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # fail while encoding, and after the temporary file is written
        for target in ("dumps", "replace"):
            with monkeypatch.context() as m:
                m.setattr(json if target == "dumps" else os, target, boom)
                with pytest.raises(RuntimeError, match="boom"):
                    save_checkpoint(ScoreNet(2, 4, seed=9), path)
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["checkpoint.json"]


class TestCheckpointValidation:
    """A malformed checkpoint raises ModelError naming the file and the key."""

    def _doc(self, model, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        return path, json.loads(path.read_text())

    def _rejects(self, path, doc, match):
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match=match) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_truncated_file(self, tmp_path):
        path, _ = self._doc(ScoreNet(2, 4, seed=9), tmp_path)
        path.write_text(path.read_text()[:500])
        with pytest.raises(ModelError, match="not valid JSON") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_missing_key(self, task, tmp_path):
        path, doc = self._doc(task.model, tmp_path)
        del doc["covs"]
        self._rejects(path, doc, "missing key 'covs'")

    def test_too_few_weight_arrays(self, tmp_path):
        path, doc = self._doc(ScoreNet(2, 4, seed=9), tmp_path)
        doc["weights"] = doc["weights"][:4]
        self._rejects(path, doc, "weights holds 4 arrays, expected 8")

    def test_too_many_weight_arrays(self, tmp_path):
        path, doc = self._doc(ScoreNet(2, 4, seed=9), tmp_path)
        doc["weights"].append([0.0, 1.0])
        self._rejects(path, doc, "weights holds 9 arrays, expected 8")

    def test_wrong_length_scorenet_array(self, tmp_path):
        path, doc = self._doc(ScoreNet(2, 4, seed=9), tmp_path)
        doc["weights"][0] = doc["weights"][0][:-1]
        self._rejects(path, doc, r"weights\[0\] has shape \(895,\), expected 896")

    def test_wrong_length_mixture_array(self, task, tmp_path):
        path, doc = self._doc(task.model, tmp_path)
        doc["weight_logits"] = doc["weight_logits"] + [0.5]
        self._rejects(path, doc, r"weight_logits has shape \(9,\), expected 8")
