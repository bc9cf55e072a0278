"""The tape's gradients, bit for bit, against a fixture of hex floats.

The report goldens see the tape's gradients only through a sampled run, to
9 significant digits.  This fixture pins the gradients themselves: the c-
and x-gradients of the h_t graph for the cosine, quadratic and composite
alignments, the classifier gradient, and the x-gradient of the directional
embedding-derivative graph.  Each is taken for one unbatched row and for a
batch of 3 rows, at t = 1, 37 and 100, on the default task (K = 2, 4
prompts) and on random mixtures with K = 1 (2 prompts), K = 3 (3 prompts)
and K = 5 (4 prompts).  With three or more components a sum of adjoints
would show a change in the order they are added in, and K = 5 makes those
sums longer; K = 1 is the one case whose weights take their adjoint
without a +0.0.

Inputs and outputs are stored as ``float.hex`` strings.  The default and
K = 3 entries were written by the tape that emitted one node per mixture
component and per prompt, the K = 1 and K = 5 entries by the tape that
stacks them; regenerating it is a decision, made in a reviewed diff:

    PYTHONPATH=src python tests/test_tape_bits.py --write
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from embedlab.alignment import CompositeAlignment, CosineAlignment, QuadraticAlignment
from embedlab.autodiff import evaluate, gradient
from embedlab.graphs import directional_cgrad_graph, h_t_graph
from embedlab.guidance import classifier_grad
from embedlab.models import DeskTask, MixtureModel, default_task
from embedlab.schedules import default_schedule

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "tape_gradients.json")
TIMES = (1, 37, 100)
ROWS = (None, 3)          # None: one unbatched row


def _random_task(K, priors, seed):
    """A random mixture with K components, d = 2, e = 3 and one prompt per
    prior."""
    rng = np.random.default_rng(seed)
    d, e, P = 2, 3, len(priors)
    model = MixtureModel(mean_maps=rng.normal(0.0, 0.3, (K, d, e)),
                         mean_offsets=rng.normal(0.0, 1.0, (K, d)),
                         covs=rng.uniform(0.2, 0.6, (K, d)),
                         weight_logits=rng.normal(0.0, 1.0, (K, e)))
    table = rng.normal(0.0, 1.0, (P, e))
    return DeskTask(model=model, embed_table=table, priors=np.array(priors))


TASKS = {"default": default_task,
         "k1": lambda: _random_task(1, [0.4, 0.6], seed=31),
         "k3": lambda: _random_task(3, [0.2, 0.3, 0.5], seed=29),
         "k5": lambda: _random_task(5, [0.1, 0.2, 0.3, 0.4], seed=37)}


def _alignments(task):
    cos = CosineAlignment.for_task(task)
    quad = QuadraticAlignment.for_task(task)
    return {"cosine": cos, "quadratic": quad,
            "composite": CompositeAlignment([(cos, 0.7), (quad, 0.3)])}


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _unhex(shape, values):
    return np.array([float.fromhex(v) for v in values]).reshape(shape)


def _case_inputs(task, rows, t):
    """Deterministic inputs for one (task, rows, t) case."""
    rng = np.random.default_rng([t, rows or 1, task.model.n_components])
    lead = () if rows is None else (rows,)
    d, e = task.model.data_dim, task.model.embed_dim
    y = int(rng.integers(task.n_prompts))
    x = rng.standard_normal(lead + (d,)) * 1.5
    c = task.embed_table[y] + 0.3 * rng.standard_normal(lead + (e,))
    u = rng.standard_normal(e)
    return {"y": y, "x": x, "c": c, "u": u / np.linalg.norm(u)}


def _gradients(task, inputs, t):
    """Every pinned gradient at one case's inputs, by name."""
    sched = default_schedule()
    y, x, c, u = inputs["y"], inputs["x"], inputs["c"], inputs["u"]
    out = {}
    for kind, h in _alignments(task).items():
        g = h_t_graph(task.model, h, y, t, sched)
        evaluate(g, {"x": x, "c": c})
        out[f"h_t_{kind}_grad_c"] = gradient(g, "c")
        out[f"h_t_{kind}_grad_x"] = gradient(g, "x")
    out["classifier_grad"] = classifier_grad(task.conditionals(), task.priors, y, x, t, sched)
    c_org = c if c.ndim == 1 else c[0]
    g = directional_cgrad_graph(task.model, u, c_org, t, sched)
    evaluate(g, {"x": x})
    out["directional_grad_x"] = gradient(g, "x")
    return out


def _cases():
    for task_name in TASKS:
        for rows in ROWS:
            for t in TIMES:
                shape = "row" if rows is None else f"rows={rows}"
                yield f"{task_name}/{shape}/t={t}", task_name, rows, t


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", [name for name, *_ in _cases()])
def test_tape_gradients_match_fixture_bitwise(case):
    entry = _load()[case]
    task = TASKS[entry["task"]]()
    inputs = {k: _unhex(entry["shapes"][k], entry["inputs"][k]) for k in ("x", "c", "u")}
    inputs["y"] = entry["y"]
    got = _gradients(task, inputs, entry["t"])
    assert sorted(got) == sorted(entry["gradients"])
    for name, want in entry["gradients"].items():
        assert list(got[name].shape) == entry["shapes"][name], name
        assert _hex(got[name]) == want, f"{case}: {name} moved"


def _write():
    doc = {}
    for name, task_name, rows, t in _cases():
        task = TASKS[task_name]()
        inputs = _case_inputs(task, rows, t)
        grads = _gradients(task, inputs, t)
        arrays = {k: inputs[k] for k in ("x", "c", "u")} | grads
        doc[name] = {"task": task_name, "t": t, "y": inputs["y"],
                     "shapes": {k: list(np.shape(v)) for k, v in arrays.items()},
                     "inputs": {k: _hex(inputs[k]) for k in ("x", "c", "u")},
                     "gradients": {k: _hex(v) for k, v in grads.items()}}
    with open(FIXTURE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}: {len(doc)} cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
