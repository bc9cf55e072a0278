"""Tape builders shared by the update rule, guidance, and the theory checks.

Each builder returns a :class:`~embedlab.autodiff.Graph` with placeholders
named ``"x"`` (and usually ``"c"``), so one graph serves both the embedding
gradient (reverse sweep to ``c``) and the data-space gradient (reverse sweep
to ``x``).  Mixture components and prompts are stacked axes of the nodes,
so a graph has one node per operation however many of either there are.
The h_t graph holds the mixture score as one ``fused`` node with the bits
of the primitive chain it stands for (see ``MixtureModel.emit_score``), 9
nodes with the cosine alignment.  The classifier graph and the
directional graph spell the mixture out in primitive nodes: the classifier
gradient stays independent of the score's code, and the directional graph
takes a derivative of the embedding gradient.
A build appends nodes and also evaluates, once, every node whose arguments
are all constants (see :mod:`embedlab.autodiff`): the classifier graph,
rebuilt at every guided step, holds the prompt embeddings as one constant,
so its build folds three stacked nodes (weight logits, component means and
the logits' log-sum-exps) and its forward pass computes eight.
``GraphCache`` reuses an ``h_t`` graph within a timestep of a sampling run.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Graph
from .models import prompt_stack


def tweedie_graph_nodes(g, model, x_ref, c_ref, t, sched):
    """Nodes for the Tweedie mean (x + (1 - ab) * score) / sqrt(ab)."""
    ab = sched.alpha_bar(t)
    s = model.emit_score(g, x_ref, c_ref, t, sched)
    return g.scale(g.add(x_ref, g.scale(s, 1.0 - ab)), 1.0 / np.sqrt(ab))


def h_t_graph(model, h, y, t, sched):
    """Graph for h_t(x, c) = h(tweedie_mean(x, c, t); y)."""
    g = Graph()
    x_ref = g.placeholder("x")
    c_ref = g.placeholder("c")
    x0_bar = tweedie_graph_nodes(g, model, x_ref, c_ref, t, sched)
    g.mark_output(h.emit(g, x0_bar, y))
    return g


def perturbed_h_graph(h, y):
    """Graph for h evaluated directly at the perturbed sample x_t.

    The perturbed sample carries no dependence on the current embedding, so
    the embedding gradient of this objective is identically zero; the graph
    still declares a "c" input so the reverse sweep states that fact rather
    than assuming it.
    """
    g = Graph()
    x_ref = g.placeholder("x")
    g.placeholder("c")
    g.mark_output(h.emit(g, x_ref, y))
    return g


def classifier_graph(conditionals, priors, y, t, sched):
    """Graph for log p(y | x) under the Bayes classifier over prompts.

    The prompt embeddings are one (P, e) constant, so the (P, K) weight
    logits, the (P, K, d) component means and the logits' (P,) log-sum-exps
    are folded to constants while the graph is built, and the nodes over x
    are one per operation, stacked over prompts and components.
    """
    model, embeddings, priors = prompt_stack(conditionals, priors)
    g = Graph()
    x_ref = g.placeholder("x")
    lp = model.emit_log_likelihood(g, x_ref, g.constant(embeddings), t, sched)
    terms = g.add(lp, g.constant(np.log(priors)))
    g.mark_output(g.sub(g.pick(terms, int(y)), g.logsumexp(terms)))
    return g


def directional_cgrad_graph(model, direction, c_org, t, sched):
    """Graph in x for  u . grad_c log p_t(x | c_org)  with u fixed.

    Expands the closed form of the embedding gradient of the mixture
    log-likelihood so that its data-space gradient (the guidance term of
    the score-expansion check) comes from a single reverse sweep.
    """
    u = np.asarray(direction, dtype=np.float64)
    c_org = np.asarray(c_org, dtype=np.float64)
    ab = sched.alpha_bar(t)
    means, variances = model.perturbed_params(c_org, t, sched)
    logits = model.weight_logits @ c_org
    logw = logits - (np.max(logits) + np.log(np.sum(np.exp(logits - np.max(logits)))))
    w = np.exp(logw)
    mean_logit = w @ model.weight_logits
    coeff = np.sqrt(ab) * (model.mean_maps @ u) / variances
    alpha = np.vecdot(model.weight_logits - mean_logit, u)

    # x - mu_k enters each component twice, in the log-density and in the
    # linear term, and their adjoints reach x component by component, the
    # linear term's first.  One (K, 2, d) node takes both differences
    # (slot 0 for the density, slot 1 for the linear term), so its slices
    # reach x in that order; each use reads its slot of a (K, 2) result.
    both = lambda a, b: np.stack([a, b], axis=-2)
    zero = np.zeros_like(means)
    g = Graph()
    x_ref = g.placeholder("x")
    diff = g.sub(x_ref, g.constant(both(means, means)))
    lp = g.pick(g.gauss_logpdf(diff, g.constant(both(zero, zero)),
                               both(variances, variances)), 0)
    lin = g.add(g.pick(g.dot(diff, g.constant(both(zero, coeff))), 1), g.constant(alpha))
    resp = g.softmax(g.add(g.constant(logw), lp))
    g.mark_output(g.wsum(resp, lin))
    return g


class GraphCache:
    """Reuse graphs within a sampling run.

    Graphs carry their last forward values, so a cache must not be shared
    across threads; each run_experiment call owns one, which serves the
    whole batch of trajectories.  A run visits each timestep once, so only
    the latest timestep's h_t graph is kept: its values hold a row per
    trajectory, and older ones would never be looked up again.
    """

    def __init__(self):
        self._graphs = {}
        self._h_t_key = None
        self._h_t_graph = None

    def h_t(self, model, h, y, t, sched):
        key = (id(model), id(h), int(y), int(t))
        if key != self._h_t_key:
            self._h_t_graph = h_t_graph(model, h, y, t, sched)
            self._h_t_key = key
        return self._h_t_graph

    def perturbed_h(self, h, y):
        key = ("perturbed_h", id(h), int(y))
        if key not in self._graphs:
            self._graphs[key] = perturbed_h_graph(h, y)
        return self._graphs[key]
