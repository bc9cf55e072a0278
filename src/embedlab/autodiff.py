"""Minimal reverse-mode differentiation on an append-only tape.

A :class:`Graph` is built once from a fixed set of primitives, then evaluated
against named inputs.  Forward values are cached on the tape, and a single
reverse sweep yields exact gradients of a scalar output with respect to any
named input.

The primitive set is deliberately small: affine map, softmax, log-sum-exp,
dot product, cosine similarity, diagonal Gaussian log-density and a
weighted sum over the last axis, plus the arithmetic and selection
operations needed to compose them.  One more node kind, ``fused``, takes
its value and its arguments' adjoints from a function.  A model whose own
numpy forward pass and backprop are the reference (the score network)
enters the tape as one such node, and so does the mixture score, whose
function makes the numpy calls of the primitive chain it stands for,
forward and reverse.

Rows and stacked axes.  Every node has a row rank fixed when it is built:
the number of axes of its row.  A scalar has rank 0 and a vector rank 1; a
row of rank 2 or 3, such as ``(K, d)`` or ``(P, K, d)``, stacks vectors over
mixture components and prompts.  Placeholders are vectors, and a
constant's row is its whole value.  A binding may carry leading batch axes
in front of its row, and then every node carries the same axes and treats
each batch row on its own:

* ``affine``, the reductions (``dot``, ``cosine``, ``softmax``,
  ``logsumexp``, ``gauss_logpdf``) and ``pick`` act on the last axis;
* ``fused`` takes vector rows and gives vector rows; its function sees the
  arguments' values as they are and broadcasts them itself, and only the
  value it returns is checked for finiteness;
* ``add``, ``sub``, ``dot`` and ``gauss_logpdf`` take operands of
  equal rank, or broadcast the lower-rank operand, a vector or more but
  never a scalar, over the other's leading stacked axes: the new axes go
  between its batch axes and its row;
* ``affine`` with a stacked weight ``(S..., out, in)`` and bias
  ``(S..., out)`` inserts ``S`` in front of the input's last axis, so a
  vector gives rows ``(S..., out)`` and a stack ``(P, in)`` gives
  ``(P, S..., out)``;
* ``wsum(r, v)`` is ``sum_k r_k v_k`` over the last axis of ``r`` and
  ``v``, which have equal ranks;
* ``scale`` multiplies by a fixed scalar;
* a gradient needs an output that is scalar per row, and seeds every row
  with 1.

Constants carry no batch axes and broadcast.  Each batched or stacked form
rounds exactly as the same primitive on one row and one slice does (stacked
``matmul`` rather than one gemm, ``vecdot`` rather than a sum of products,
last-axis reductions), so a batch gives the bits of its rows evaluated one
at a time, and a stacked node the bits of one node per slice.

The order in which adjoints add up is part of those bits.  The reverse
sweep visits the nodes last to first and adds each adjoint onto its
operand's running adjoint.  An adjoint sent to a broadcast operand carries
the inserted axes; it is added onto the operand's running adjoint one slice
at a time, the last (flattened) index first, and never reduced over those
axes first.  That is the order in which a tape with one node per slice
visited those nodes.  A fused node's vjp may hand an argument its adjoint
as a tuple of terms, which are added onto the running adjoint one at a
time in the tuple's order: so a fused node keeps the order in which a
chain of primitive nodes, reaching the argument from several nodes and
slices, added up its adjoint.  In the forward pass ``wsum`` chains its
terms in index order from the first, as a chain of ``add`` nodes does,
and it sends its weights their adjoint plus 0.0 when there are two or
more: the sum of one-hot adjoints from one ``pick`` node per weight,
whose zeros turn a -0.0 into +0.0.

Constant folding: a node whose arguments are all constants is evaluated
once when it is appended and stored as a constant at the same node index.
The forward pass then reads its value instead of recomputing it, and the
reverse sweep sends it no adjoint.  Its value is the one the forward pass
would have computed, so folding changes no bits.  A folded value that is
not finite is still rejected by :func:`evaluate`, which names the node's
index and its original primitive.
"""

from __future__ import annotations

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graphs, bad bindings, or non-finite values."""


class _Node:
    # spread: None, or per argument None or (m, tail): the argument is
    # broadcast by m new axes in front of its last `tail` axes
    __slots__ = ("op", "args", "payload", "rank", "spread")

    def __init__(self, op, args, payload, rank, spread):
        self.op = op
        self.args = args
        self.payload = payload
        self.rank = rank
        self.spread = spread


def _as_array(v):
    return np.asarray(v, dtype=np.float64)


def _col(s):
    """A per-row scalar as a column that broadcasts against rows."""
    return s[..., None]


def _norm(a):
    # the bits of np.linalg.norm on one row, which is sqrt(dot(a, a))
    return np.sqrt(np.vecdot(a, a))


def _lift(v, m, tail):
    """v with m new axes in front of its last `tail` axes."""
    if v.ndim == tail:      # no batch axes: numpy's broadcasting inserts them
        return v
    return v.reshape(v.shape[:v.ndim - tail] + (1,) * m + v.shape[v.ndim - tail:])


def _lift_args(values, spread):
    return [v if s is None else _lift(v, *s) for v, s in zip(values, spread)]


# -- row ranks: op -> rule(op, argument ranks, payload) -> (rank, spread) ----

def _no_scalars(op, ranks):
    if 0 in ranks:
        raise GraphError(f"{op}: operands must be vectors or stacked rows, not scalars")


def _broadcast(op, ranks, payload):
    ra, rb = ranks
    if ra == rb:
        return ra, None
    if 0 in ranks:
        raise GraphError(f"{op}: operands have row ranks {ra} and {rb}; "
                         "a scalar is not broadcast")
    hi = max(ranks)
    return hi, tuple(None if r == hi else (hi - r, r) for r in ranks)


def _same(op, ranks, payload):
    if len(set(ranks)) > 1:
        raise GraphError(f"{op}: operands have row ranks {ranks}")
    return ranks[0], None


def _keep_last(op, ranks, payload):
    _no_scalars(op, ranks)
    return ranks[0], None


def _drop_last(op, ranks, payload):
    _no_scalars(op, ranks)
    return ranks[0] - 1, None


def _contract(op, ranks, payload):
    _no_scalars(op, ranks)
    rank, spread = _broadcast(op, ranks, payload)
    return rank - 1, spread


def _cosine(op, ranks, payload):
    if ranks != [1, 1]:
        raise GraphError(f"{op}: operands must be vector nodes")
    return 0, None


def _affine_rank(op, ranks, payload):
    _no_scalars(op, ranks)
    stack = np.ndim(payload["W"]) - 2
    return ranks[0] + stack, ((stack, 1),) if stack else None


def _vectors(op, ranks, payload):
    if any(r != 1 for r in ranks):
        raise GraphError(f"{op}: arguments must be vector nodes, not row ranks {ranks}")
    return 1, None


def _wsum_rank(op, ranks, payload):
    _no_scalars(op, ranks)
    return _same(op, ranks, payload)[0] - 1, None


_RANKS = {
    "add": _broadcast, "sub": _broadcast,
    "scale": _same,
    "affine": _affine_rank, "softmax": _keep_last, "logsumexp": _drop_last,
    "pick": _drop_last, "dot": _contract, "gauss_logpdf": _contract,
    "cosine": _cosine, "wsum": _wsum_rank, "fused": _vectors,
}


class Graph:
    """Append-only computation tape with named inputs and one marked output.

    Nodes are identified by integer position; inputs always precede the
    nodes that consume them, so the insertion order is a topological order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.input_ids: dict[str, int] = {}
        self.output: int | None = None
        self.values: list | None = None
        self._const_ids: set[int] = set()   # nodes whose value is fixed when built

    # -- construction -----------------------------------------------------

    def _append(self, op, args, payload=None):
        nodes = self.nodes
        args = tuple(args)
        if args and not (0 <= min(args) and max(args) < len(nodes)):
            bad = next(a for a in args if not 0 <= a < len(nodes))
            raise GraphError(f"{op}: argument node {bad} does not exist")
        node = _Node(op, args, payload, *_RANKS[op](op, [nodes[a].rank for a in args], payload))
        if args and self._const_ids.issuperset(args):
            # fold: evaluate once now, and the node becomes a constant leaf
            values = [nodes[a].payload["value"] for a in args]
            if node.spread:
                values = _lift_args(values, node.spread)
            value = np.asarray(_FORWARD[op](node, *values))
            node.op, node.args, node.payload = "const", (), {"value": value, "folded": op}
            self._const_ids.add(len(nodes))
        nodes.append(node)
        return len(nodes) - 1

    def placeholder(self, name):
        """A named input whose rows are vectors."""
        if name in self.input_ids:
            raise GraphError(f"duplicate placeholder {name!r}")
        self.nodes.append(_Node("input", (), {"name": name}, 1, None))
        self.input_ids[name] = len(self.nodes) - 1
        return self.input_ids[name]

    def constant(self, value):
        """A fixed array; its whole shape is its row."""
        value = _as_array(value)
        self._const_ids.add(len(self.nodes))
        self.nodes.append(_Node("const", (), {"value": value}, value.ndim, None))
        return len(self.nodes) - 1

    def add(self, a, b):
        return self._append("add", (a, b))

    def sub(self, a, b):
        return self._append("sub", (a, b))

    def scale(self, a, k):
        """Multiply a node by a fixed scalar."""
        return self._append("scale", (a,), {"k": float(k)})

    def affine(self, x, weight, bias=None):
        """weight @ x + bias with fixed arrays; a weight (S..., out, in) with
        bias (S..., out) stacks S maps."""
        return self._append("affine", (x,), {"W": weight, "b": bias})

    def softmax(self, a):
        return self._append("softmax", (a,))

    def logsumexp(self, a):
        return self._append("logsumexp", (a,))

    def dot(self, a, b):
        return self._append("dot", (a, b))

    def cosine(self, a, b):
        return self._append("cosine", (a, b))

    def gauss_logpdf(self, x, mu, var):
        """Log-density of N(mu, diag(var)) at x; var is a fixed array."""
        var = _as_array(var)
        return self._append("gauss_logpdf", (x, mu),
                            {"var": var, "log_norm": np.log(2.0 * np.pi * var)})

    def pick(self, v, index):
        """Select one entry of the last axis."""
        return self._append("pick", (v,), {"i": int(index)})

    def wsum(self, r, v):
        """sum_k r_k v_k over the last axis of r and v."""
        return self._append("wsum", (r, v))

    def fused(self, fn, args):
        """A vector node computed by fn from vector nodes `args`.

        fn(*values) returns (value, vjp): the node's value, a row per batch
        row, and a function from the node's adjoint to one adjoint per
        argument, each with the batch axes or a tuple of terms that the
        reverse sweep adds onto the argument's adjoint in that order.  The
        reverse sweep calls the vjp of the latest evaluate."""
        return self._append("fused", args, {"fn": fn})

    def mark_output(self, nid):
        if not (0 <= nid < len(self.nodes)):
            raise GraphError(f"output node {nid} does not exist")
        self.output = nid
        return nid


def _affine(W, x):
    # one matrix-vector product per row (and per stacked map); a single
    # gemm would round differently
    return np.matmul(W, x[..., None])[..., 0]


def _f_affine(node, x):
    pl = node.payload
    v = _affine(pl["W"], x)
    return v if pl["b"] is None else v + pl["b"]


# np.add.reduce and np.maximum.reduce are what np.sum and np.max call,
# without their Python-level wrappers

def _f_softmax(node, x):
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _f_logsumexp(node, x):
    m = np.maximum.reduce(x, axis=-1)
    return m + np.log(np.add.reduce(np.exp(x - _col(m)), axis=-1))


def _f_gauss_logpdf(node, x, mu):
    d = x - mu
    pl = node.payload
    return -0.5 * np.add.reduce(d * d / pl["var"] + pl["log_norm"], axis=-1)


def _f_wsum(node, r, v):
    # the products r_k v_k, added in index order
    out = r[..., 0] * v[..., 0]
    for k in range(1, r.shape[-1]):
        out = out + r[..., k] * v[..., k]
    return out


def _f_fused(node, *args):
    # the vjp holds this pass's intermediates for the reverse sweep after it
    value, node.payload["vjp"] = node.payload["fn"](*args)
    return value


_FORWARD = {
    "add": lambda node, a, b: a + b,
    "sub": lambda node, a, b: a - b,
    "scale": lambda node, a: node.payload["k"] * a,
    "affine": _f_affine,
    "softmax": _f_softmax,
    "logsumexp": _f_logsumexp,
    "dot": lambda node, a, b: np.vecdot(a, b),
    "cosine": lambda node, a, b: np.vecdot(a, b) / (_norm(a) * _norm(b)),
    "gauss_logpdf": _f_gauss_logpdf,
    "pick": lambda node, v: v[..., node.payload["i"]],
    "wsum": _f_wsum,
    "fused": _f_fused,
}


def _check_finite(graph, vals):
    """One finiteness test over every node value; on failure, name the
    first offending node, which localises a blow-up to a primitive."""
    if np.isfinite(np.concatenate([v.ravel() for v in vals])).all():
        return
    for i, v in enumerate(vals):
        if not np.all(np.isfinite(v)):
            node = graph.nodes[i]
            what = node.op
            if node.op == "const" and "folded" in node.payload:
                what = f"{node.payload['folded']}, folded"
            raise GraphError(f"non-finite value at node {i} ({what})")


def evaluate(graph, bindings):
    """Run the forward pass with named inputs bound to arrays.

    Every input must carry the same leading batch axes in front of its
    declared row rank.  Caches every node value on the graph and returns
    the output value.  Non-finite values are rejected with the first
    offending node named.
    """
    if graph.output is None:
        raise GraphError("graph has no marked output")
    missing = set(graph.input_ids) - set(bindings)
    if missing:
        raise GraphError(f"unbound inputs: {sorted(missing)}")

    vals = [None] * len(graph.nodes)
    batch = None
    for i, node in enumerate(graph.nodes):
        if node.op == "const":
            v = node.payload["value"]
        elif node.op == "input":
            name = node.payload["name"]
            v = _as_array(bindings[name])
            if v.ndim < node.rank:
                raise GraphError(f"input {name!r}: a row has rank {node.rank}, got shape {v.shape}")
            lead = v.shape[:v.ndim - node.rank]
            if batch is None:
                batch = lead
            elif lead != batch:
                raise GraphError(f"input {name!r}: batch axes {lead} differ from {batch}")
        else:
            args = [vals[a] for a in node.args]
            if node.spread:
                args = _lift_args(args, node.spread)
            v = np.asarray(_FORWARD[node.op](node, *args))
        vals[i] = v
    _check_finite(graph, vals)
    graph.values = vals
    return vals[graph.output]


# -- reverse sweep: adjoints of each argument given the node's adjoint g ----

def _b_affine(node, g, y, x):
    return (_affine(node.payload["W"].mT, g),)


def _b_cosine(node, g, y, a, b):
    na, nb = _norm(a), _norm(b)
    g, y, nab = _col(g), _col(y), _col(na * nb)
    return (g * (b / nab - y * a / _col(na * na)),
            g * (a / nab - y * b / _col(nb * nb)))


def _b_gauss_logpdf(node, g, y, x, mu):
    d = (x - mu) / node.payload["var"]
    return -_col(g) * d, _col(g) * d


def _b_pick(node, g, y, v):
    # g carries the batch axes even when v is an unbatched constant
    full = np.zeros(g.shape + v.shape[-1:])
    full[..., node.payload["i"]] = g
    return (full,)


def _b_wsum(node, g, y, r, v):
    gr = g[..., None] * v
    gv = r * g[..., None]
    if r.shape[-1] > 1:
        gr += 0.0           # as the sum of one pick adjoint per weight
    return gr, gv


_BACKWARD = {
    "add": lambda node, g, y, a, b: (g, g),
    "sub": lambda node, g, y, a, b: (g, -g),
    "scale": lambda node, g, y, a: (node.payload["k"] * g,),
    "affine": _b_affine,
    "softmax": lambda node, g, y, a: (y * (g - _col(np.vecdot(g, y))),),
    "logsumexp": lambda node, g, y, x: (_col(g) * np.exp(x - _col(y)),),
    "dot": lambda node, g, y, a, b: (_col(g) * b, _col(g) * a),
    "cosine": _b_cosine,
    "gauss_logpdf": _b_gauss_logpdf,
    "pick": _b_pick,
    "wsum": _b_wsum,
    "fused": lambda node, g, y, *args: node.payload["vjp"](g),
}


def _add_slices(adj, a, ga, m, tail):
    """Add ga onto adj[a] one slice of its m inserted axes (those in front
    of its last `tail` axes) at a time, the last flattened index first."""
    cut = ga.ndim - tail
    flat = ga.reshape(ga.shape[:cut - m] + (-1,) + ga.shape[cut:])
    acc = adj[a]
    for j in range(flat.shape[cut - m] - 1, -1, -1):
        part = flat[(Ellipsis, j) + (slice(None),) * tail]
        acc = part if acc is None else acc + part
    adj[a] = acc


def _backward(graph):
    """Reverse sweep from an output that is scalar per row; returns per-node
    adjoints."""
    if graph.values is None:
        raise GraphError("run evaluate() before taking gradients")
    nodes, vals, consts = graph.nodes, graph.values, graph._const_ids
    if nodes[graph.output].rank != 0:
        raise GraphError("gradient requires a scalar output")

    adj = [None] * len(nodes)
    adj[graph.output] = np.ones_like(vals[graph.output])
    for i in range(len(nodes) - 1, -1, -1):
        g = adj[i]
        node = nodes[i]
        if g is None or node.op in ("input", "const"):
            continue
        args, spread = node.args, node.spread
        avals = [vals[a] for a in args]
        if spread:
            avals = _lift_args(avals, spread)
        grads = _BACKWARD[node.op](node, g, vals[i], *avals)
        for j, ga in enumerate(grads):
            a = args[j]
            if a in consts:
                continue        # a constant's adjoint is never read
            if spread and spread[j]:
                _add_slices(adj, a, ga, *spread[j])
            elif type(ga) is tuple:         # a fused vjp's terms, in order
                for term in ga:
                    adj[a] = term if adj[a] is None else adj[a] + term
            else:
                adj[a] = ga if adj[a] is None else adj[a] + ga
    return adj


def gradient(graph, wrt):
    """Exact reverse-mode gradient of the output w.r.t. input `wrt`, one
    gradient row per batch row."""
    if wrt not in graph.input_ids:
        raise GraphError(f"no input named {wrt!r}")
    adj = _backward(graph)
    g = adj[graph.input_ids[wrt]]
    if g is None:
        val = graph.values[graph.input_ids[wrt]]
        return np.zeros_like(val)
    return np.asarray(g, dtype=np.float64)


def finite_diff_grad(f, x, step=1e-6, order=2):
    """Central-difference gradient of a scalar function, one coordinate at a
    time.  This is the independent oracle the autodiff tests compare against;
    it never calls into the tape machinery.

    order=2 is the standard two-point quotient; order=4 uses the five-point
    stencil, whose O(step^4) truncation lets a larger step suppress the
    cancellation noise floor when gradients are very small.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        def at(mult):
            xx = x.copy()
            xx[i] += mult * step
            return f(xx)
        if order == 2:
            g[i] = (at(1) - at(-1)) / (2.0 * step)
        elif order == 4:
            g[i] = (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * step)
        else:
            raise ValueError("order must be 2 or 4")
    return g

