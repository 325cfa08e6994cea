"""Random radial feeders against the dense path-sum oracle.

A strategy draws network documents (chains, stars and bushy trees of 1 to
60 non-slack nodes, with node ids shuffled so that children come in random
id order, lines in random order and direction, positive resistances and
reactances of either sign) and sensor sets on them (none, one, all, leaves
only, one branch only). The tree kernel's products, ``diag_quad``,
``path_gram`` and ``sensor_gram`` must match ``path_sum_matrix`` products
at 1e-12 relative to the magnitude of the summands.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.netmodel import PathSum, build_network, path_gram, path_sum_matrix, sensor_gram

TOL = 1e-12
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


@st.composite
def feeders(draw):
    """A network document and the parent of each non-slack node by id."""
    n = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["chain", "star", "bushy"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Built in topological order, then relabelled by a random permutation.
    if shape == "chain":
        up = np.arange(n)
    elif shape == "star":
        up = np.zeros(n, dtype=int)
    else:
        up = np.array([rng.integers(0, k + 1) for k in range(n)], dtype=int)
    label = np.concatenate([[0], 1 + rng.permutation(n)])
    lines = [
        {"from": int(label[a]), "to": int(label[k + 1]), "r": float(rng.uniform(1e-4, 1e-2)),
         "x": float(rng.uniform(-1e-2, 1e-2))}
        for k, a in enumerate(up)
    ]
    for k in rng.permutation(n)[: rng.integers(0, n + 1)]:
        lines[k]["from"], lines[k]["to"] = lines[k]["to"], lines[k]["from"]
    lines = [lines[k] for k in rng.permutation(n)]
    doc = {"nodes": [{"id": i} for i in rng.permutation(n + 1).tolist()], "lines": lines}
    parent = np.empty(n, dtype=int)
    parent[label[1:] - 1] = label[up]
    return doc, parent


@st.composite
def sensed_feeders(draw):
    """A feeder, its parents and a set of 0-based sensor rows."""
    doc, parent = draw(feeders())
    n = len(parent)
    kind = draw(st.sampled_from(["none", "one", "all", "leaves", "branch"]))
    if kind == "none":
        rows = []
    elif kind == "one":
        rows = [draw(st.integers(0, n - 1))]
    elif kind == "all":
        rows = list(range(n))
    elif kind == "leaves":
        rows = sorted(set(range(n)) - set((parent - 1).tolist()))
    else:
        # The subtree of one node: itself and everything below it.
        top = draw(st.integers(1, n))
        below = {top}
        for _ in range(n):
            below |= {i + 1 for i in range(n) if parent[i] in below}
        rows = sorted(i - 1 for i in below)
    return doc, np.array(rows, dtype=int)


def _terms(net, seed):
    rng = np.random.default_rng(seed)
    z = net.branch_z
    d_r, d_x = rng.uniform(0.5, 2.0, net.n), rng.uniform(0.5, 2.0, net.n)
    dense = ((path_sum_matrix(net, z.real), d_r), (path_sum_matrix(net, z.imag), d_x))
    ops = ((PathSum(net, z.real), d_r), (PathSum(net, z.imag), d_x))
    return dense, ops


def _close(got, want, scale):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= TOL * scale.max(initial=0.0)


@SETTINGS
@given(feeders())
def test_model_parents_and_kernel_products_match_dense(case):
    doc, parent = case
    net = build_network(doc)
    assert np.array_equal(net.parent, parent)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(net.n, 3))
    d = rng.uniform(0.5, 2.0, net.n)
    for weights in (net.branch_z.real, net.branch_z.imag, net.branch_z):
        dense, op = path_sum_matrix(net, weights), PathSum(net, weights)
        scale = np.abs(dense) @ np.abs(x)
        _close(op @ x, dense @ x, scale)
        _close(op @ x[:, 0], dense @ x[:, 0], scale[:, 0])
        _close(op.T @ x, dense.T @ x, scale)
        if weights.dtype.kind == "f":
            quad = (dense * dense) @ d
            _close(op.diag_quad(d), quad, quad)


@SETTINGS
@given(sensed_feeders())
def test_path_gram_matches_dense(case):
    doc, rows = case
    net = build_network(doc)
    dense, ops = _terms(net, 5)
    x = np.random.default_rng(4).normal(size=(net.n, 2))
    want = sum(m @ (d[:, None] * (m.T @ x)) for m, d in dense)
    scale = sum(np.abs(m) @ (d[:, None] * (np.abs(m) @ np.abs(x))) for m, d in dense)
    _close(path_gram(ops, x), want, scale)
    _close(path_gram(ops, x, rows), want[rows], scale[rows])


@SETTINGS
@given(sensed_feeders())
def test_sensor_gram_matches_dense_and_path_gram(case):
    doc, rows = case
    net = build_network(doc)
    dense, ops = _terms(net, 6)
    want = sum((m * d) @ m.T for m, d in dense)[np.ix_(rows, rows)]
    scale = sum((np.abs(m) * d) @ np.abs(m).T for m, d in dense)[np.ix_(rows, rows)]
    got = sensor_gram(ops, rows)
    _close(got, want, scale)
    assert np.array_equal(got, got.T)
    scatter = np.zeros((net.n, len(rows)))
    scatter[rows, np.arange(len(rows))] = 1.0
    _close(got, path_gram(ops, scatter, rows), scale)
