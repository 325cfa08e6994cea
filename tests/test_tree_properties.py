"""Random radial feeders against the dense oracles.

A strategy draws network documents (chains, stars and bushy trees of 1 to
60 non-slack nodes, with node ids shuffled so that children come in random
id order, lines in random order and direction, positive resistances and
reactances of either sign, light loads and small shunts) and sensor sets on
them (none, one, all, leaves only, one branch only). Then:

- the tree kernel's products, ``diag_quad``, ``path_gram`` and
  ``sensor_gram`` match ``path_sum_matrix`` products at 1e-12 relative to
  the magnitude of the summands;
- the document with its nodes and lines reordered and every line reversed
  builds a model with equal arrays;
- the sweep plant matches the Newton power flow within 1e-8;
- the WLS estimate and the reconstructed voltages' variance match the
  lstsq WLS and the explicit inverse of the normal matrix, on dense and on
  ``PathSum`` models.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop import netmodel
from gridloop.estimator import WlsEstimator
from gridloop.linearizer import lindistflow
from gridloop.netmodel import (
    PathSum,
    build_network,
    path_gram,
    path_sum_matrix,
    sensor_gram,
)
from gridloop.plant import solve_power_flow
from gridloop.sensing import make_plan

from oracles import (
    dense_sensitivities,
    linear_measurement_model,
    newton_power_flow,
    state_variance,
    wls_closed_form,
)

TOL = 1e-12
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)
# The dense oracles cost milliseconds per example on small BLAS-threaded
# products, so their properties draw fewer feeders.
ORACLE_SETTINGS = settings(SETTINGS, max_examples=50)


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
    # Light loads, each curtailable to half, and small shunts at some nodes.
    for node in doc["nodes"]:
        if node["id"]:
            p0, q0 = -float(rng.uniform(0.0, 1e-3)), -float(rng.uniform(0.0, 5e-4))
            node.update(p0=p0, q0=q0, pmin=p0, pmax=0.5 * p0, qmin=q0, qmax=0.5 * q0)
        if rng.random() < 0.3:
            g, b = float(rng.uniform(0.0, 1e-3)), float(rng.uniform(-1e-3, 1e-3))
            node.update(shunt_g=g, shunt_b=b)
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


@SETTINGS
@given(feeders(), st.randoms(use_true_random=False))
def test_reordered_reversed_document_builds_equal_model(case, rnd):
    doc, _ = case
    lines = [{**row, "from": row["to"], "to": row["from"]} for row in doc["lines"]]
    rnd.shuffle(lines)
    nodes = list(doc["nodes"])
    rnd.shuffle(nodes)
    net, other = build_network(doc), build_network({"nodes": nodes, "lines": lines})
    for f in dataclasses.fields(net):
        a, b = getattr(net, f.name), getattr(other, f.name)
        pairs = zip(a, b) if f.name == "box" else [(a, b)]
        assert all(np.array_equal(x, y) for x, y in pairs), f.name


@ORACLE_SETTINGS
@given(feeders())
def test_sweep_matches_newton_at_light_load(case):
    net = build_network(case[0])
    sol = solve_power_flow(net, net.p0, net.q0)
    assert sol.converged
    assert np.abs(sol.v - newton_power_flow(net, net.p0, net.q0)).max() <= 1e-8


@pytest.mark.parametrize("dense_limit", [netmodel.DENSE_LIMIT, 0])
@ORACLE_SETTINGS
@given(sensed_feeders())
def test_wls_solve_and_variance_match_dense_oracles(dense_limit, case):
    doc, rows = case
    net = build_network(doc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "DENSE_LIMIT", dense_limit)
        model = lindistflow(net)
    assert isinstance(model.A, PathSum) == (dense_limit == 0)
    # Pseudo-measurement bases mostly above the magnitude floor, so the
    # channel weights differ from node to node and between p and q.
    rng = np.random.default_rng(8)
    base = rng.uniform(-0.05, 0.05, (2, net.n))
    plan = make_plan(net.n, tuple(rows + 1), None, 0, 0.01, 0.5, tuple(base), 0)
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    y = H @ base.ravel() + rng.normal(size=len(w)) / np.sqrt(w)
    want = wls_closed_form(H, w, y)
    assert np.abs(est.solve(y) - want).max() <= 1e-12 * np.abs(want).max()
    var = state_variance(H, w, dense_sensitivities(model))
    assert np.abs(est.voltage_variance() - var).max() <= 1e-11 * var.max()
