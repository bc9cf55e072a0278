import numpy as np
import pytest

from embedlab.autodiff import Graph, GraphError, evaluate, finite_diff_grad, gradient
from embedlab.autodiff import _BACKWARD, _FORWARD, _RANKS
from embedlab.graphs import classifier_graph
from embedlab.models import ScoreNet, default_task
from embedlab.schedules import default_schedule


def half_sq_norm_graph():
    g = Graph()
    x = g.placeholder("x")
    g.mark_output(g.scale(g.dot(x, x), 0.5))
    return g


def fd_relative_error(g, x0, step=1e-6):
    """Relative gap between the tape's x-gradient at x0 and central
    differences of the same graph's forward pass."""
    evaluate(g, {"x": x0})
    auto = gradient(g, "x")
    fd = finite_diff_grad(lambda v: float(evaluate(g, {"x": v})), x0, step)
    return np.linalg.norm(auto - fd) / (np.linalg.norm(fd) + 1e-12)


class TestEvaluate:
    def test_identity(self):
        g = Graph()
        g.mark_output(g.placeholder("x"))
        np.testing.assert_array_equal(evaluate(g, {"x": np.array([3.0])}), [3.0])

    def test_half_square_norm(self):
        g = half_sq_norm_graph()
        assert float(evaluate(g, {"x": np.array([3.0, 4.0])})) == 12.5

    def test_cosine_parallel(self):
        g = Graph()
        a = g.placeholder("a")
        g.mark_output(g.cosine(a, g.constant(np.array([2.0, 4.0]))))
        out = evaluate(g, {"a": np.array([1.0, 2.0])})
        assert float(out) == pytest.approx(1.0, abs=1e-15)

    def test_unbound_input_rejected(self):
        g = half_sq_norm_graph()
        with pytest.raises(GraphError, match="unbound"):
            evaluate(g, {})

    def test_nonfinite_rejected_with_node_identity(self):
        g = half_sq_norm_graph()
        with pytest.raises(GraphError, match="node 0"):
            evaluate(g, {"x": np.array([np.inf, 1.0])})


class TestGradient:
    def test_half_square_norm_gradient_is_x(self):
        g = half_sq_norm_graph()
        x = np.array([3.0, 4.0])
        evaluate(g, {"x": x})
        np.testing.assert_array_equal(gradient(g, "x"), x)

    def test_silu_at_zero(self):
        """The score network's node, one hidden unit reading x with unit
        weights, is silu(x): its slope at 0 is 1/2 exactly."""
        net = ScoreNet(1, 1, hidden=1, depth=1, time_feats=0)
        net.params = [np.array([[1.0, 0.0]]), np.zeros(1), np.ones((1, 1)), np.zeros(1)]
        g = Graph()
        x = g.placeholder("x")
        s = net.emit_score(g, x, g.placeholder("c"), 1, default_schedule())
        g.mark_output(g.dot(s, g.constant(np.ones(1))))
        evaluate(g, {"x": np.array([0.0]), "c": np.array([0.7])})
        np.testing.assert_array_equal(gradient(g, "x"), [0.5])

    def test_cosine_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(5)
        g = Graph()
        x = g.placeholder("x")
        g.mark_output(g.cosine(x, g.constant(y)))
        assert fd_relative_error(g, rng.standard_normal(5)) < 1e-6

    def test_requires_scalar_output(self):
        g = Graph()
        x = g.placeholder("x")
        g.mark_output(g.softmax(x))
        evaluate(g, {"x": np.array([0.3, 0.4])})
        with pytest.raises(GraphError, match="scalar"):
            gradient(g, "x")

    def test_gradient_before_evaluate_rejected(self):
        g = half_sq_norm_graph()
        with pytest.raises(GraphError, match="evaluate"):
            gradient(Graph(), "x") if False else gradient(g, "x")

    def test_sum_of_graphs_linearity_exact(self):
        """Building f1 + f2 in one graph gives gradient g1 + g2 bitwise."""
        rng = np.random.default_rng(5)
        W1 = rng.standard_normal((3, 3))
        W2 = rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)

        def single(W):
            g = Graph()
            x = g.placeholder("x")
            g.mark_output(g.dot(g.softmax(g.affine(x, W)), g.constant(np.arange(3.0))))
            evaluate(g, {"x": x0})
            return gradient(g, "x")

        g = Graph()
        x = g.placeholder("x")
        f1 = g.dot(g.softmax(g.affine(x, W1)), g.constant(np.arange(3.0)))
        f2 = g.dot(g.softmax(g.affine(x, W2)), g.constant(np.arange(3.0)))
        g.mark_output(g.add(f1, f2))
        evaluate(g, {"x": x0})
        combined = gradient(g, "x")
        np.testing.assert_array_equal(combined, single(W1) + single(W2))


class TestGradCheck:
    """Tape gradients against central differences."""

    def test_linear_graph_is_exact(self):
        w = np.array([2.0, -1.0, 0.5])
        g = Graph()
        x = g.placeholder("x")
        g.mark_output(g.dot(x, g.constant(w)))
        x0 = np.array([0.3, 0.7, -0.2])
        assert fd_relative_error(g, x0) <= 1e-10
        evaluate(g, {"x": x0})
        np.testing.assert_array_equal(gradient(g, "x"), w)

    def test_silu_mlp(self):
        """The score network's node, a SiLU MLP with two hidden layers,
        between affine maps of x."""
        rng = np.random.default_rng(11)
        net = ScoreNet(4, 3, hidden=8, depth=2, seed=11)
        g = Graph()
        x = g.placeholder("x")
        s = net.emit_score(g, g.affine(x, rng.standard_normal((4, 4))),
                           g.constant(rng.standard_normal(3)), 37, default_schedule())
        g.mark_output(g.dot(g.affine(s, rng.standard_normal((8, 4))),
                            g.constant(rng.standard_normal(8))))
        assert fd_relative_error(g, rng.standard_normal(4), step=1e-5) <= 1e-6

    def test_constant_graph_zero_gradient(self):
        g = Graph()
        g.placeholder("x")
        g.mark_output(g.constant(np.array(4.2)))
        evaluate(g, {"x": np.array([1.0, 2.0])})
        np.testing.assert_array_equal(gradient(g, "x"), np.zeros(2))


def _primitive_cases(rng):
    """One scalar-output graph builder per primitive, with a random input."""
    d = 5
    W = rng.standard_normal((4, d))
    b = rng.standard_normal(4)
    yvec = rng.standard_normal(d)
    mu = rng.standard_normal(d)
    var = rng.uniform(0.5, 2.0, d)
    ones4, ones_d = np.ones(4), np.ones(d)

    def out_affine(g, x):
        return g.dot(g.affine(x, W, b), g.constant(ones4))

    def out_softmax(g, x):
        return g.pick(g.softmax(x), 2)

    def out_logsumexp(g, x):
        return g.logsumexp(x)

    def out_dot(g, x):
        return g.dot(x, g.constant(yvec))

    def out_cosine(g, x):
        return g.cosine(x, g.constant(yvec))

    def out_gauss(g, x):
        return g.gauss_logpdf(x, g.constant(mu), var)

    def out_gauss_mu(g, x):
        return g.gauss_logpdf(g.constant(mu), x, var)

    def out_mix(g, x):
        s = g.wsum(g.softmax(x), g.sub(x, g.constant(mu)))
        return g.add(s, g.logsumexp(g.scale(g.softmax(x), var)))

    # stacked rows: x broadcast over 3 stacked (3, d) maps and means
    W3 = rng.standard_normal((3, d, d)) * 0.5
    b3 = rng.standard_normal((3, d))
    M3 = rng.standard_normal((3, d))
    var3 = rng.uniform(0.5, 2.0, (3, d))

    def out_stacked_gauss(g, x):
        mus = g.affine(x, W3, b3)
        return g.logsumexp(g.add(g.gauss_logpdf(x, mus, var3), g.dot(x, g.sub(mus, x))))

    def out_wsum(g, x):
        pulls = g.sub(g.softmax(g.affine(x, W3, b3)), g.scale(x, M3[0]))
        return g.dot(g.wsum(g.softmax(g.affine(x, W3[0, :3])), pulls), g.constant(yvec))

    def out_wsum_scalars(g, x):
        return g.wsum(g.softmax(x), g.dot(g.sub(x, g.constant(W3[0])), g.constant(W3[1])))

    def out_fused(g, x):
        # tanh(a) * b as one node over x and a softmax of x
        def fn(a, b):
            th = np.tanh(a)
            return th * b, lambda adj: (adj * b * (1.0 - th * th), adj * th)
        return g.cosine(g.fused(fn, (x, g.softmax(x))), g.constant(yvec))

    return [out_affine, out_softmax, out_logsumexp, out_dot, out_cosine, out_gauss,
            out_gauss_mu, out_mix, out_stacked_gauss, out_wsum, out_wsum_scalars,
            out_fused]


def test_every_primitive_matches_central_differences():
    """100 random probes spread over the primitive set, 1e-6 relative."""
    rng = np.random.default_rng(42)
    cases = _primitive_cases(rng)
    probes_per_case = 100 // len(cases) + 1
    for build in cases:
        for _ in range(probes_per_case):
            g = Graph()
            x = g.placeholder("x")
            g.mark_output(build(g, x))
            err = fd_relative_error(g, rng.standard_normal(5) * 1.5)
            assert err < 1e-6, f"{build.__name__}: {err}"


def test_batched_rows_match_single_rows_bitwise():
    """A binding with a leading batch axis gives, row for row, the bits of
    evaluating and differentiating each row on its own."""
    rng = np.random.default_rng(7)
    for build in _primitive_cases(rng):
        g = Graph()
        x = g.placeholder("x")
        g.mark_output(build(g, x))
        X = rng.standard_normal((4, 5)) * 1.5
        values = evaluate(g, {"x": X}).copy()
        grads = gradient(g, "x")
        assert values.shape == (4,) and grads.shape == (4, 5)
        for i in range(4):
            one = evaluate(g, {"x": X[i]})
            np.testing.assert_array_equal(values[i], one, err_msg=build.__name__)
            np.testing.assert_array_equal(grads[i], gradient(g, "x"), err_msg=build.__name__)


def test_batch_axes_must_agree_across_inputs():
    g = Graph()
    a = g.placeholder("a")
    b = g.placeholder("b")
    g.mark_output(g.dot(a, b))
    with pytest.raises(GraphError, match="batch axes"):
        evaluate(g, {"a": np.ones((3, 2)), "b": np.ones((2, 2))})
    with pytest.raises(GraphError, match="batch axes"):
        evaluate(g, {"a": np.ones((3, 2)), "b": np.ones(2)})


def test_row_ranks_checked_when_built():
    g = Graph()
    x = g.placeholder("x")
    s = g.dot(x, x)
    with pytest.raises(GraphError, match="row ranks"):
        g.add(x, s)
    with pytest.raises(GraphError, match="scalar"):
        g.wsum(s, x)
    with pytest.raises(GraphError, match="vector"):
        g.dot(s, s)
    with pytest.raises(GraphError, match="vector"):
        g.fused(lambda a, b: (a * b, None), (x, s))


def test_batched_adjoints_reach_constant_subgraphs():
    """Batched rows meet unbatched constants: a folded affine map of a
    constant in a dot, and the constant weights of a wsum, which broadcast
    over the batch rows.  Each gradient row is the unbatched one."""
    rng = np.random.default_rng(5)
    W = rng.standard_normal((3, 2))
    cvec = np.array([1.5, -2.0])
    g = Graph()
    x = g.placeholder("x")
    cn = g.constant(cvec)
    parts = g.affine(x, np.array([np.zeros(3), np.ones(3)]))
    g.mark_output(g.add(g.dot(g.affine(cn, W), x), g.wsum(cn, parts)))
    X = rng.standard_normal((4, 3))
    evaluate(g, {"x": X})
    np.testing.assert_allclose(gradient(g, "x"), np.tile(W @ cvec - 2.0, (4, 1)), rtol=1e-14)


# -- constant folding ---------------------------------------------------------

def test_classifier_graph_leaves_no_constant_only_node():
    """Every node whose arguments are all constants was folded into one."""
    task, sched = default_task(), default_schedule()
    for t in (1, 37, 100):
        g = classifier_graph(task.conditionals(), task.priors, 2, t, sched)
        folded = [n for n in g.nodes if n.op == "const" and "folded" in n.payload]
        assert folded, "the prompts' logits and means should fold"
        for i, node in enumerate(g.nodes):
            if node.op not in ("const", "input"):
                assert not all(g.nodes[a].op == "const" for a in node.args), (i, node.op)


def test_folded_gradient_matches_unfoldable_placeholder_graph():
    """The classifier graph, its prompts stacked into folded constants,
    against the same graph with the (P, e) prompt stack made the constant
    plus 0 * z, for a placeholder z bound to zeros, so that nothing folds:
    equal values and equal x-gradients, bit for bit, batched and
    unbatched."""
    task, sched = default_task(), default_schedule()
    model, y = task.model, 1
    rng = np.random.default_rng(17)
    for t in (1, 20, 63, 100):
        folded = classifier_graph(task.conditionals(), task.priors, y, t, sched)
        g = Graph()
        x = g.placeholder("x")
        cs = g.add(g.constant(task.embed_table), g.scale(g.placeholder("z"), 0.0))
        terms = g.add(model.emit_log_likelihood(g, x, cs, t, sched),
                      g.constant(np.log(task.priors)))
        g.mark_output(g.sub(g.pick(terms, y), g.logsumexp(terms)))
        assert all(n.op != "const" or "folded" not in n.payload for n in g.nodes)
        for X in (rng.standard_normal(2) * 2.0, rng.standard_normal((3, 2)) * 2.0):
            z = np.zeros(X.shape[:-1] + (model.embed_dim,))
            v_fold = evaluate(folded, {"x": X}).copy()
            v_ref = evaluate(g, {"x": X, "z": z}).copy()
            np.testing.assert_array_equal(v_fold, v_ref)
            np.testing.assert_array_equal(gradient(folded, "x"), gradient(g, "x"))


def test_nonfinite_folded_constant_rejected_with_node_index():
    g = Graph()
    x = g.placeholder("x")
    big = g.constant(np.array([1e308, 1e308]))
    with np.errstate(over="ignore"):
        s = g.add(big, big)
    assert g.nodes[s].op == "const"
    g.mark_output(g.dot(x, s))
    with pytest.raises(GraphError, match=f"node {s} \\(add, folded\\)"):
        evaluate(g, {"x": np.ones(2)})


def test_nonfinite_fused_value_rejected_with_node_index():
    g = Graph()
    x = g.placeholder("x")
    n = g.fused(lambda a: (1.0 / a, None), (x,))
    g.mark_output(g.dot(n, g.constant(np.ones(2))))
    with np.errstate(divide="ignore"), pytest.raises(GraphError, match=f"node {n} \\(fused\\)"):
        evaluate(g, {"x": np.array([1.0, 0.0])})


# -- tape internals -----------------------------------------------------------

def test_tape_tables_and_builders_agree():
    """Every primitive has a rank rule, a forward and a backward kernel,
    and a Graph builder of the same name; no table keeps a stale entry."""
    assert set(_RANKS) == set(_FORWARD) == set(_BACKWARD)
    for op in _RANKS:
        assert callable(getattr(Graph, op, None)), op
