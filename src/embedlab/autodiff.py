"""Minimal reverse-mode differentiation on an append-only tape.

A :class:`Graph` is built once from a fixed set of primitives, then evaluated
against named inputs.  Forward values are cached on the tape, and a single
reverse sweep yields exact gradients of a scalar output with respect to any
named input (and, for affine nodes backed by :class:`Param`, with respect to
trainable weights).

The primitive set is deliberately small: affine map, elementwise SiLU,
softmax, log-sum-exp, dot product, cosine similarity and diagonal Gaussian
log-density, plus the arithmetic and packing operations needed to compose
them.  Everything the lab differentiates is expressed in these terms.

Every node has a row rank fixed when it is built: 1 for a vector, 0 for a
scalar.  Placeholders are vectors.  A binding may carry leading batch axes
in front of its row, and then every node carries the same axes and treats
each row on its own:

* ``affine`` and the reductions (``dot``, ``cosine``, ``softmax``,
  ``logsumexp``, ``gauss_logpdf``) act on the last axis;
* ``pick``, ``pack`` and ``concat`` index, stack and join on the last axis;
* a gradient needs an output that is scalar per row, and seeds every row
  with 1.

Constants carry no batch axes and broadcast.  Each batched form rounds
exactly as the same primitive on one row does (stacked ``matmul`` rather
than one gemm, ``vecdot`` rather than a sum of products), so a batch gives
the same bits as its rows evaluated one at a time.

Constant folding: a node whose arguments are all constants, and whose
payload holds no :class:`Param`, is evaluated once when it is appended and
stored as a constant at the same node index.  The forward pass then reads
its value instead of recomputing it, and the reverse sweep does not enter
it (an adjoint that reaches a constant is discarded).  Its value is the one
the forward pass would have computed, so folding changes no bits.  An
affine map with a Param weight or bias is never folded, so that
:func:`param_gradients` still reaches the Param; a folded value that is
not finite is still rejected by :func:`evaluate`, which names the node's
index and its original primitive.
"""

from __future__ import annotations

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graphs, bad bindings, or non-finite values."""


class Param:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)


class _Node:
    __slots__ = ("op", "args", "payload", "rank")

    def __init__(self, op, args, payload, rank):
        self.op = op
        self.args = args
        self.payload = payload
        self.rank = rank


def _as_array(v):
    return np.asarray(v, dtype=np.float64)


def _sigmoid(x):
    # exp of -|x| never overflows; each branch gives the bits of the usual
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _col(s):
    """A per-row scalar as a column that broadcasts against rows."""
    return s[..., None]


def _norm(a):
    # the bits of np.linalg.norm on one row, which is sqrt(dot(a, a))
    return np.sqrt(np.vecdot(a, a))


# op -> (row rank every argument must have, row rank of the result); None
# means any rank for the arguments, and the last argument's rank for the
# result.  add, sub and mul need equal ranks; smul a scalar first argument.
_RANKS = {
    "add": (None, None), "sub": (None, None), "mul": (None, None),
    "scale": (None, None), "silu": (None, None), "smul": (None, None),
    "affine": (1, 1), "softmax": (1, 1), "logsumexp": (1, 0), "dot": (1, 0),
    "cosine": (1, 0), "gauss_logpdf": (1, 0), "pick": (1, 0), "pack": (0, 1),
    "concat": (None, 1),
}


def _result_rank(op, ranks):
    need, out = _RANKS[op]
    if need is not None and ranks.count(need) != len(ranks):
        raise GraphError(f"{op}: operands must be {('scalar', 'vector')[need]} nodes")
    if op in ("add", "sub", "mul") and ranks[0] != ranks[1]:
        raise GraphError(f"{op}: operands have row ranks {ranks[0]} and {ranks[1]}")
    if op == "smul" and ranks[0] != 0:
        raise GraphError("smul: the first operand must be a scalar node")
    return ranks[-1] if out is None else out


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
        node = _Node(op, args, payload, _result_rank(op, [nodes[a].rank for a in args]))
        if args and self._const_ids.issuperset(args) and not (
                payload and any([isinstance(v, Param) for v in payload.values()])):
            # fold: evaluate once now, and the node becomes a constant leaf
            value = np.asarray(_FORWARD[op](node, *[nodes[a].payload["value"] for a in args]))
            node.op, node.args, node.payload = "const", (), {"value": value, "folded": op}
            self._const_ids.add(len(nodes))
        nodes.append(node)
        return len(nodes) - 1

    def placeholder(self, name):
        """A named input whose rows are vectors."""
        if name in self.input_ids:
            raise GraphError(f"duplicate placeholder {name!r}")
        self.nodes.append(_Node("input", (), {"name": name}, 1))
        self.input_ids[name] = len(self.nodes) - 1
        return self.input_ids[name]

    def constant(self, value):
        value = _as_array(value)
        if value.ndim > 1:
            raise GraphError("constants are scalars or vectors")
        self._const_ids.add(len(self.nodes))
        self.nodes.append(_Node("const", (), {"value": value}, value.ndim))
        return len(self.nodes) - 1

    def add(self, a, b):
        return self._append("add", (a, b))

    def sub(self, a, b):
        return self._append("sub", (a, b))

    def scale(self, a, k):
        """Multiply a node by a fixed scalar constant k."""
        return self._append("scale", (a,), {"k": float(k)})

    def mul(self, a, b):
        """Elementwise product of two nodes with equal shapes."""
        return self._append("mul", (a, b))

    def smul(self, s, v):
        """Scalar node s times vector node v."""
        return self._append("smul", (s, v))

    def affine(self, x, weight, bias=None):
        """weight @ x + bias; weight/bias may be ndarrays or Params."""
        return self._append("affine", (x,), {"W": weight, "b": bias})

    def silu(self, a):
        return self._append("silu", (a,))

    def softmax(self, a):
        return self._append("softmax", (a,))

    def logsumexp(self, a):
        return self._append("logsumexp", (a,))

    def dot(self, a, b):
        return self._append("dot", (a, b))

    def cosine(self, a, b):
        return self._append("cosine", (a, b))

    def gauss_logpdf(self, x, mu, var):
        """Log-density of N(mu, diag(var)) at x; var is a fixed vector."""
        var = _as_array(var)
        return self._append("gauss_logpdf", (x, mu),
                            {"var": var, "log_norm": np.log(2.0 * np.pi * var)})

    def pack(self, scalars):
        """Stack scalar nodes into a vector node."""
        return self._append("pack", tuple(scalars))

    def pick(self, v, index):
        """Select one component of a vector node as a scalar node."""
        return self._append("pick", (v,), {"i": int(index)})

    def concat(self, parts):
        """Join scalar and vector nodes into one vector node."""
        parts = tuple(parts)
        # a part that does not exist is skipped here and reported by _append
        ranks = tuple(self.nodes[a].rank for a in parts if 0 <= a < len(self.nodes))
        return self._append("concat", parts, {"ranks": ranks})

    def mark_output(self, nid):
        if not (0 <= nid < len(self.nodes)):
            raise GraphError(f"output node {nid} does not exist")
        self.output = nid
        return nid


def _pval(p):
    return p.value if isinstance(p, Param) else p


def _affine(W, x):
    # one matrix-vector product per row; a single gemm would round differently
    return np.matmul(W, x[..., None])[..., 0]


def _f_affine(node, x):
    pl = node.payload
    v = _affine(_pval(pl["W"]), x)
    return v if pl["b"] is None else v + _pval(pl["b"])


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


def _f_pack(node, *vs):
    if len({v.shape for v in vs}) > 1:
        vs = np.broadcast_arrays(*vs)
    return np.stack(vs, axis=-1)


def _f_concat(node, *vs):
    ranks = node.payload["ranks"]
    lead = np.broadcast_shapes(*(v.shape[:v.ndim - r] for v, r in zip(vs, ranks)))
    return np.concatenate([np.broadcast_to(v if r else _col(v), lead + (v.shape[-1] if r else 1,))
                           for v, r in zip(vs, ranks)], axis=-1)


_FORWARD = {
    "add": lambda node, a, b: a + b,
    "sub": lambda node, a, b: a - b,
    "scale": lambda node, a: node.payload["k"] * a,
    "mul": lambda node, a, b: a * b,
    "smul": lambda node, s, v: (_col(s) if node.rank else s) * v,
    "affine": _f_affine,
    "silu": lambda node, a: a * _sigmoid(a),
    "softmax": _f_softmax,
    "logsumexp": _f_logsumexp,
    "dot": lambda node, a, b: np.vecdot(a, b),
    "cosine": lambda node, a, b: np.vecdot(a, b) / (_norm(a) * _norm(b)),
    "gauss_logpdf": _f_gauss_logpdf,
    "pack": _f_pack,
    "pick": lambda node, v: v[..., node.payload["i"]],
    "concat": _f_concat,
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
            v = np.asarray(_FORWARD[node.op](node, *[vals[a] for a in node.args]))
        vals[i] = v
    _check_finite(graph, vals)
    graph.values = vals
    return vals[graph.output]


# -- reverse sweep: adjoints of each argument given the node's adjoint g ----

def _b_smul(node, g, y, s, v):
    if node.rank:
        return np.add.reduce(g * v, axis=-1), _col(s) * g
    return g * v, s * g


def _b_affine(node, g, y, x):
    return (_affine(_pval(node.payload["W"]).T, g),)


def _b_silu(node, g, y, x):
    s = _sigmoid(x)
    return (g * s * (1.0 + x * (1.0 - s)),)


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


def _b_concat(node, g, y, *vs):
    out, off = [], 0
    for v, r in zip(vs, node.payload["ranks"]):
        n = v.shape[-1] if r else 1
        piece = g[..., off:off + n]
        out.append(piece if r else piece[..., 0])
        off += n
    return out


_BACKWARD = {
    "add": lambda node, g, y, a, b: (g, g),
    "sub": lambda node, g, y, a, b: (g, -g),
    "scale": lambda node, g, y, a: (node.payload["k"] * g,),
    "mul": lambda node, g, y, a, b: (g * b, g * a),
    "smul": _b_smul,
    "affine": _b_affine,
    "silu": _b_silu,
    "softmax": lambda node, g, y, a: (y * (g - _col(np.vecdot(g, y))),),
    "logsumexp": lambda node, g, y, x: (_col(g) * np.exp(x - _col(y)),),
    "dot": lambda node, g, y, a, b: (_col(g) * b, _col(g) * a),
    "cosine": _b_cosine,
    "gauss_logpdf": _b_gauss_logpdf,
    "pack": lambda node, g, y, *vs: [g[..., k] for k in range(len(vs))],
    "pick": _b_pick,
    "concat": _b_concat,
}


def _accumulate_params(node, g, x):
    """Add an affine node's weight and bias gradients, summed over rows."""
    W, b = node.payload["W"], node.payload["b"]
    g2 = g.reshape(-1, g.shape[-1])
    if isinstance(W, Param):
        x2 = np.broadcast_to(x, g.shape[:-1] + x.shape[-1:]).reshape(-1, x.shape[-1])
        W.grad += g2.T @ x2
    if isinstance(b, Param):
        b.grad += g2.sum(axis=0)


def _backward(graph, accumulate_params=False):
    """Reverse sweep from an output that is scalar per row; returns per-node
    adjoints."""
    if graph.values is None:
        raise GraphError("run evaluate() before taking gradients")
    nodes, vals = graph.nodes, graph.values
    if nodes[graph.output].rank != 0:
        raise GraphError("gradient requires a scalar output")

    adj = [None] * len(nodes)
    adj[graph.output] = np.ones_like(vals[graph.output])
    for i in range(len(nodes) - 1, -1, -1):
        g = adj[i]
        node = nodes[i]
        if g is None or node.op in ("input", "const"):
            continue
        args = node.args
        grads = _BACKWARD[node.op](node, g, vals[i], *[vals[a] for a in args])
        for a, ga in zip(args, grads):
            adj[a] = ga if adj[a] is None else adj[a] + ga
        if accumulate_params and node.op == "affine":
            _accumulate_params(node, g, vals[args[0]])
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


def param_gradients(graph):
    """Reverse sweep that accumulates into every Param used by the graph,
    summed over batch rows."""
    _backward(graph, accumulate_params=True)


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

