"""Stacked tape nodes on random mixtures beyond the desk tasks' K <= 2.

With two components an adjoint sum over components has two terms, which
add the same in either order, so a wrong accumulation order could not
show on the desk tasks.  These tests draw mixtures with K in {1, 3, 5}
components, P in {1, 3, 5} prompts and d, e in 1..3:

* the h_t graph's x- and c-gradients and the classifier's x-gradient agree
  with central differences of the graphs' own forward pass;
* each row gives the same bits alone as it does inside a batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from embedlab.alignment import CompositeAlignment, CosineAlignment, QuadraticAlignment
from embedlab.autodiff import evaluate, finite_diff_grad, gradient
from embedlab.graphs import classifier_graph, h_t_graph
from embedlab.models import MixtureModel
from embedlab.schedules import default_schedule

SCHED = default_schedule()


def _problem(K, P, d, e, seed):
    """A random mixture, P prompts with priors, and an alignment on it."""
    rng = np.random.default_rng(seed)
    model = MixtureModel(mean_maps=rng.normal(0.0, 0.5, (K, d, e)),
                         mean_offsets=rng.normal(0.0, 1.0, (K, d)),
                         covs=rng.uniform(0.2, 0.8, (K, d)),
                         weight_logits=rng.normal(0.0, 1.0, (K, e)))
    embeddings = rng.normal(0.0, 1.0, (P, e))
    priors = rng.uniform(0.5, 1.5, P)
    priors /= priors.sum()
    h = CompositeAlignment([
        (CosineAlignment(rng.standard_normal((3, d)), rng.standard_normal((P, 3)) + 2.0), 0.6),
        (QuadraticAlignment(rng.standard_normal((P, d))), 0.4)])
    return model, embeddings, priors, h, rng


def _rel_err(auto, fd):
    return np.linalg.norm(auto - fd) / (np.linalg.norm(fd) + 1e-8)


problems = dict(K=st.sampled_from([1, 3, 5]), P=st.sampled_from([1, 3, 5]),
                d=st.integers(1, 3), e=st.integers(1, 3),
                seed=st.integers(0, 2**16), t=st.integers(1, 100))


@settings(max_examples=60)
@given(**problems)
def test_stacked_gradients_match_central_differences(K, P, d, e, seed, t):
    model, embeddings, priors, h, rng = _problem(K, P, d, e, seed)
    y = int(rng.integers(P))
    x = rng.standard_normal(d)
    c = embeddings[y] + 0.3 * rng.standard_normal(e)

    g = h_t_graph(model, h, y, t, SCHED)
    evaluate(g, {"x": x, "c": c})
    grad_x, grad_c = gradient(g, "x"), gradient(g, "c")
    fd_x = finite_diff_grad(lambda v: float(evaluate(g, {"x": v, "c": c})), x, 1e-4, order=4)
    fd_c = finite_diff_grad(lambda v: float(evaluate(g, {"x": x, "c": v})), c, 1e-4, order=4)
    assert _rel_err(grad_x, fd_x) < 1e-6
    assert _rel_err(grad_c, fd_c) < 1e-6

    conditionals = [(model, emb) for emb in embeddings]
    cg = classifier_graph(conditionals, priors, y, t, SCHED)
    evaluate(cg, {"x": x})
    grad = gradient(cg, "x")
    fd = finite_diff_grad(lambda v: float(evaluate(cg, {"x": v})), x, 1e-4, order=4)
    assert _rel_err(grad, fd) < 1e-6


@settings(max_examples=60)
@given(n=st.integers(2, 4), **problems)
def test_stacked_rows_alone_match_rows_in_a_batch(n, K, P, d, e, seed, t):
    model, embeddings, priors, h, rng = _problem(K, P, d, e, seed)
    y = int(rng.integers(P))
    X = rng.standard_normal((n, d)) * 1.5
    C = embeddings[y] + 0.3 * rng.standard_normal((n, e))

    g = h_t_graph(model, h, y, t, SCHED)
    values = evaluate(g, {"x": X, "c": C}).copy()
    grads = gradient(g, "x"), gradient(g, "c")
    cg = classifier_graph([(model, emb) for emb in embeddings], priors, y, t, SCHED)
    cvalues = evaluate(cg, {"x": X}).copy()
    cgrads = gradient(cg, "x")
    for i in range(n):
        np.testing.assert_array_equal(evaluate(g, {"x": X[i], "c": C[i]}), values[i])
        np.testing.assert_array_equal(gradient(g, "x"), grads[0][i])
        np.testing.assert_array_equal(gradient(g, "c"), grads[1][i])
        np.testing.assert_array_equal(evaluate(cg, {"x": X[i]}), cvalues[i])
        np.testing.assert_array_equal(gradient(cg, "x"), cgrads[i])


def test_graph_sizes_do_not_grow_with_components_or_prompts():
    """One node per operation: the h_t graph and the classifier graph have
    as many nodes for K = 5 components and P = 5 prompts as for K = P = 1.
    The h_t graph holds the mixture score as one fused node, so it has 9
    nodes; the classifier graph spells the log-likelihood out in primitive
    nodes, so that the classifier gradient stays independent of the score's
    algebra."""
    sizes = set()
    for K, P in ((1, 1), (2, 4), (5, 5)):
        model, embeddings, priors, h, _ = _problem(K, P, 2, 3, seed=K + P)
        cosine = h.parts[0][0]
        sizes.add((len(h_t_graph(model, cosine, 0, 50, SCHED).nodes),
                   len(classifier_graph([(model, c) for c in embeddings], priors, 0, 50,
                                        SCHED).nodes)))
    assert sizes == {(9, 14)}
