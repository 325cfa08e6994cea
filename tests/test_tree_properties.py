"""Random radial feeders against the dense oracles.

A strategy draws network documents (chains, stars and bushy trees of 1 to
60 non-slack nodes, with node ids shuffled so that children come in random
id order, lines in random order and direction, positive resistances and
reactances of either sign, light loads and small shunts) and sensor sets on
them (none, one, all, leaves only, one branch only). Then:

- the tree kernel's products and ``sensor_gram`` match ``path_sum_matrix`` products at 1e-12 relative to
  the magnitude of the summands, for one block and for the block row
  ``[R X]``;
- LinDistFlow's sensitivity G, dense and as a ``PathSum``, keeps the
  operator contract every consumer relies on: ``G @ z`` and ``G.T @ r``
  match the dense oracle, ``r . (G z) = (G^T r) . z``, the tree form's
  products equal those of its two blocks bit for bit, and a wrong-length
  operand is rejected;
- the document with its nodes and lines reordered and every line reversed
  builds a model with equal arrays;
- the sweep plant matches the Newton power flow within 1e-8;
- the WLS estimate and the reconstructed voltages' variance match the
  lstsq WLS and the explicit inverse of the normal matrix, on dense and on
  ``PathSum`` models;
- the tree smoother's variance (``netmodel.tree_variance``) matches that
  inverse entry by entry, within the rounding bound of the inverse itself,
  on the drawn feeders and on a 400-node chain, star and synthetic feeder
  with sensors at every node, at none, and with exact pseudo or sensor
  channels (``SIGMA_FLOOR``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop import netmodel
from gridloop.estimator import WlsEstimator
from gridloop.feeders import synthetic_feeder
from gridloop.linearizer import lindistflow
from gridloop.netmodel import (
    PathSum,
    build_network,
    network_document,
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


def _dense(net, weights):
    """``path_sum_matrix`` of each row of a (k, N) stack of weights, side by side."""
    return np.hstack([path_sum_matrix(net, w) for w in np.atleast_2d(weights)])


def _gram_operands(net, seed):
    """The block row G = [R X] of the branch resistances and reactances,
    dense and as a ``PathSum``, and a 2N vector of positive weights."""
    weights = np.stack([net.branch_z.real, net.branch_z.imag])
    d = np.random.default_rng(seed).uniform(0.5, 2.0, 2 * net.n)
    return _dense(net, weights), PathSum(net, weights), d


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
    x = rng.normal(size=(2 * net.n, 3))
    z = net.branch_z
    for weights in (z.real, z.imag, z, np.stack([z.real, z.imag])):
        dense, op = _dense(net, weights), PathSum(net, weights)
        assert op.shape == dense.shape
        cols, r = x[: dense.shape[1]], x[: net.n]
        scale = np.abs(dense) @ np.abs(cols)
        _close(op @ cols, dense @ cols, scale)
        _close(op @ cols[:, 0], dense @ cols[:, 0], scale[:, 0])
        _close(op.T @ r, dense.T @ r, np.abs(dense).T @ np.abs(r))


@SETTINGS
@given(sensed_feeders())
def test_sensor_gram_matches_dense_and_path_gram(case):
    doc, rows = case
    net = build_network(doc)
    dense, op, d = _gram_operands(net, 6)
    want = ((dense * d) @ dense.T)[np.ix_(rows, rows)]
    scale = ((np.abs(dense) * d) @ np.abs(dense).T)[np.ix_(rows, rows)]
    got = sensor_gram(op, d, rows)
    _close(got, want, scale)
    assert np.array_equal(got, got.T)


@SETTINGS
@given(feeders())
def test_sensitivity_operator_contract(case):
    # LinDistFlow's G = [A B] dense, and as the k = 2 PathSum that
    # DENSE_LIMIT = 0 gives, against the dense oracle of the PathSum form.
    net = build_network(case[0])
    n = net.n
    dense = lindistflow(net).G
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "DENSE_LIMIT", 0)
        model = lindistflow(net)
    tree, ref = model.G, dense_sensitivities(model)
    assert isinstance(dense, np.ndarray) and tree.shape == dense.shape == (n, 2 * n)
    _close(dense, ref, np.abs(ref))
    # The two k = 1 operators the model was built from before its blocks were stacked.
    a, b = (PathSum(net, w) / net.v0 for w in (net.branch_z.real, net.branch_z.imag))
    rng = np.random.default_rng(9)
    zs, rs = rng.normal(size=(2 * n, 3)), rng.normal(size=(n, 3))
    for z, r in ((zs, rs), (zs[:, 0], rs[:, 0])):
        for G in (dense, tree):
            gz, gtr = G @ z, G.T @ r
            _close(gz, ref @ z, np.abs(ref) @ np.abs(z))
            _close(gtr, ref.T @ r, np.abs(ref).T @ np.abs(r))
            adjoint = np.sum(np.abs(r) * (np.abs(ref) @ np.abs(z)), axis=0)
            _close(np.sum(r * gz, axis=0), np.sum(gtr * z, axis=0), adjoint)
        assert (tree @ z).tobytes() == (a @ z[:n] + b @ z[n:]).tobytes()
        assert (tree.T @ r).tobytes() == np.concatenate([a @ r, b @ r]).tobytes()
    with pytest.raises(ValueError):
        dense @ np.zeros(2 * n + 1)
    with pytest.raises(ValueError, match=rf"^operand has {2 * n + 1} rows, expected {2 * n}$"):
        tree @ np.zeros(2 * n + 1)
    with pytest.raises(ValueError, match=rf"^operand has {2 * n} rows, expected {n}$"):
        tree.T @ zs


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
    assert isinstance(model.G, PathSum) == (dense_limit == 0)
    # Pseudo-measurement bases mostly above the magnitude floor, so the
    # channel weights differ from node to node and between p and q.
    rng = np.random.default_rng(8)
    base = rng.uniform(-0.05, 0.05, (2, net.n))
    plan = make_plan(net.n, tuple(rows + 1), None, 0, 0.01, 0.5, base.ravel(), 0)
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    y = H @ base.ravel() + rng.normal(size=len(w)) / np.sqrt(w)
    want = wls_closed_form(H, w, y)
    assert np.abs(est.solve(y) - want).max() <= 1e-12 * np.abs(want).max()
    var = state_variance(H, w, dense_sensitivities(model))
    assert np.abs(est.voltage_variance() - var).max() <= 1e-11 * var.max()


def _smoothed_variance_and_oracle(net, plan):
    """The ``PathSum`` estimator's voltage variance (the tree smoother), the
    oracle's, and a bound on their entrywise difference.

    The oracle inverts A = H^T W H, for N nodes and m channels, formed in
    floating point. A's entries are dot products over the channels, so the
    formed A is off by at most (m + 1) u |H|^T W |H| entrywise (u the unit
    roundoff), and the inverse by LU is that of a matrix a further
    2 (2N) u ||A|| away. Both perturb entry i of diag(G A^-1 G^T) by at most
    ||dA||_2 ||A^-1 g_i||^2 to first order (g_i row i of G), with ||dA||_2
    no larger than the infinity norm of (m + 1 + 4N) u |H|^T W |H|. The
    quadratic form itself is a sum of (2N)^2 products, off by at most
    (4 N^2 + 2) u (|g_i| |A^-1| |g_i|^T). The smoother makes a fixed number
    of roundings per level on quantities no larger than the prior variance
    sum_j G_ij^2 d_j: 64 per level and pass over the tree's depth is a
    generous allowance.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netmodel, "DENSE_LIMIT", 0)
        model = lindistflow(net)
    assert isinstance(model.G, PathSum)
    got = WlsEstimator(plan, model).voltage_variance()
    H, w = linear_measurement_model(plan, model)
    G = dense_sensitivities(model)
    want = state_variance(H, w, G)
    u, m, n = np.finfo(float).eps / 2, H.shape[0], net.n
    cov = np.linalg.inv((H.T * w) @ H)
    d_a = (m + 1 + 4 * n) * u * np.abs((np.abs(H).T * w) @ np.abs(H)).sum(axis=1).max()
    inverse = d_a * ((G @ cov) ** 2).sum(axis=1)
    form = (4 * n * n + 2) * u * ((np.abs(G) @ np.abs(cov)) * np.abs(G)).sum(axis=1)
    depth = int(model.G._depth.max())
    prior = (G * G) @ (1.0 / w[len(plan.sensor_nodes) :])
    smoother = 2 * 64 * depth * u * prior
    return got, want, inverse + form + smoother


def _assert_within(got, want, bound):
    assert got.shape == want.shape
    worst = np.argmax(np.abs(got - want) - bound)
    assert np.abs(got - want)[worst] <= bound[worst], (
        f"node {worst}: relative error {abs(got[worst] / want[worst] - 1):.3g}, "
        f"bound {bound[worst] / want[worst]:.3g}"
    )


@ORACLE_SETTINGS
@given(sensed_feeders())
def test_tree_variance_matches_dense_inverse_entrywise(case):
    doc, rows = case
    net = build_network(doc)
    base = np.random.default_rng(8).uniform(-0.05, 0.05, 2 * net.n)
    plan = make_plan(net.n, tuple(rows + 1), None, 0, 0.01, 0.5, base, 0)
    _assert_within(*_smoothed_variance_and_oracle(net, plan))


def _relinked(shape):
    """``synthetic_feeder(400, 12)`` with its lines relinked into a chain
    (400 levels) or a star (one level)."""
    doc = network_document(synthetic_feeder(400, seed=12))
    for k, line in enumerate(doc["lines"]):
        line["from"], line["to"] = (0 if shape == "star" else k), k + 1
    return build_network(doc)


@pytest.mark.parametrize(
    "shape, sensors, sensor_sigma, pseudo_sigma",
    [
        ("chain", 0.036, 0.01, 0.5),
        ("star", 0.036, 0.01, 0.5),
        ("synthetic", "all", 0.01, 0.5),
        ("synthetic", "none", 0.01, 0.5),
        ("synthetic", 0.036, 0.01, 0.0),
        ("synthetic", 0.036, 0.0, 0.5),
    ],
    ids=["chain", "star", "all-sensors", "no-sensors", "exact-pseudo", "exact-sensors"],
)
def test_tree_variance_matches_dense_inverse_on_extremes(shape, sensors, sensor_sigma, pseudo_sigma):
    net = synthetic_feeder(400, seed=12) if shape == "synthetic" else _relinked(shape)
    nodes = {"all": tuple(range(1, net.n + 1)), "none": ()}.get(sensors)
    fraction = None if nodes is not None else sensors
    base = np.concatenate([net.p0, net.q0])
    plan = make_plan(net.n, nodes, fraction, 0, sensor_sigma, pseudo_sigma, base, 0)
    assert len(plan.sensor_nodes) == {"all": net.n, "none": 0}.get(sensors, 14)
    _assert_within(*_smoothed_variance_and_oracle(net, plan))
