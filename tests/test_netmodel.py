from __future__ import annotations

import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.feeders import resolve_network, synthetic_feeder
from gridloop.netmodel import (
    NetworkError,
    PathSum,
    build_admittance,
    build_network,
    load_network,
    network_document,
    path_gram,
    path_sum_matrix,
    project_box_disk,
)

from oracles import full_ybus


def test_load_minimal_two_bus(twobus_json):
    net = load_network(twobus_json)
    assert net.n == 1
    assert net.v0 == 1.0
    assert net.branch_z.tolist() == [complex(0.01, 0.02)]
    assert net.p0.tolist() == [-0.1] and net.q0.tolist() == [-0.05]


def test_load_ieee33_counts_and_depth(net33):
    # Published 33-bus feeder: 32 PQ nodes, 32 branches, main feeder 17 deep.
    assert net33.n == 32
    assert len(net33.branch_z) == 32

    def depth(node):  # lines between the substation and the node
        return 0 if node == 0 else 1 + depth(net33.parent[node - 1])

    assert max(depth(node) for node in range(1, 33)) == 17
    assert net33.p0.sum() == pytest.approx(-0.3715)
    assert net33.q0.sum() == pytest.approx(-0.23)


def test_loop_edge_rejected(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
                "lines": [
                    {"from": 0, "to": 1, "r": 0.01, "x": 0.01},
                    {"from": 1, "to": 2, "r": 0.01, "x": 0.01},
                    {"from": 2, "to": 0, "r": 0.01, "x": 0.01},
                ],
            }
        )
    )
    with pytest.raises(NetworkError, match="non-radial"):
        load_network(path)


def test_dangling_endpoint_rejected(tmp_path):
    path = tmp_path / "dangling.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}],
                "lines": [{"from": 0, "to": 9, "r": 0.01, "x": 0.01}],
            }
        )
    )
    with pytest.raises(NetworkError, match="unknown node 9"):
        load_network(path)


def test_empty_feasible_set_rejected(tmp_path):
    path = tmp_path / "bad_box.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [
                    {"id": 0},
                    {"id": 1, "p0": 0.0, "q0": 0.0, "pmin": 0.2, "pmax": 0.1,
                     "qmin": 0, "qmax": 0, "smax": None},
                ],
                "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.01}],
            }
        )
    )
    with pytest.raises(NetworkError, match="empty feasible set at node 1"):
        load_network(path)


def test_zero_impedance_rejected(tmp_path):
    path = tmp_path / "zero_z.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}],
                "lines": [{"from": 0, "to": 1, "r": 0.0, "x": 0.0}],
            }
        )
    )
    with pytest.raises(NetworkError, match="zero impedance"):
        load_network(path)


def test_line_orientation_normalized(tmp_path):
    path = tmp_path / "reversed.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
                "lines": [
                    {"from": 1, "to": 0, "r": 0.01, "x": 0.01},
                    {"from": 2, "to": 1, "r": 0.01, "x": 0.01},
                ],
            }
        )
    )
    net = load_network(path)
    assert net.parent.tolist() == [0, 1]


def _assert_same_model(a, b):
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_model_does_not_depend_on_line_order(net33):
    doc = json.loads(resolve_network("ieee33").read_text())
    order = np.random.default_rng(0).permutation(len(doc["lines"]))
    shuffled = [
        {**doc["lines"][k], "from": doc["lines"][k]["to"], "to": doc["lines"][k]["from"]}
        for k in order
    ]
    for lines in (doc["lines"][::-1], shuffled):
        net = build_network({**doc, "lines": lines})
        _assert_same_model(net, net33)
        for a, b in zip(net._tree, net33._tree):
            assert np.array_equal(a, b)


TWOBUS = {
    "v0": 1.0,
    "nodes": [
        {"id": 0},
        {"id": 1, "p0": -0.1, "q0": -0.05, "pmin": -0.1, "pmax": 0.0, "qmin": -0.05, "qmax": 0.0},
    ],
    "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}],
}


def _edited(section: str | None, index: int, key: str, value, base: dict = TWOBUS):
    """``base`` (TWOBUS by default) with ``key`` set to ``value`` in
    ``section[index]`` (the document itself when ``section`` is None)."""
    doc = copy.deepcopy(base)
    (doc if section is None else doc[section][index])[key] = value
    return doc


BAD_DOCUMENTS = {
    "top-level array": ([], "the document must be an object, got []"),
    "unknown top-level key": (
        _edited(None, 0, "base_kv", 12.66), "the document: unknown key 'base_kv'"
    ),
    "nan resistance": (
        _edited("lines", 0, "r", math.nan), "lines[0]: 'r' must be a finite number, got NaN"
    ),
    "string resistance": (
        _edited("lines", 0, "r", "0.01"), "lines[0]: 'r' must be a finite number, got \"0.01\""
    ),
    "fractional endpoint": (
        _edited("lines", 0, "to", 1.0), "lines[0]: 'to' must be an integer, got 1.0"
    ),
    "unknown line key": (_edited("lines", 0, "b", 0.001), "lines[0]: unknown key 'b'"),
    "nan bound": (
        _edited("nodes", 1, "pmin", math.nan),
        "nodes[1]: 'pmin' must be a finite number or null, got NaN",
    ),
    "infinite shunt": (
        _edited("nodes", 1, "shunt_g", math.inf),
        "nodes[1]: 'shunt_g' must be a finite number, got Infinity",
    ),
    "integer beyond float": (
        _edited("nodes", 1, "p0", 10**400), "nodes[1]: 'p0' must be a finite number, got 1000"
    ),
    "fractional id": (_edited("nodes", 1, "id", 1.7), "nodes[1]: 'id' must be an integer, got 1.7"),
    "boolean injection": (
        _edited("nodes", 1, "p0", True), "nodes[1]: 'p0' must be a finite number, got true"
    ),
    "string injection": (
        _edited("nodes", 1, "q0", "-0.05"),
        "nodes[1]: 'q0' must be a finite number, got \"-0.05\"",
    ),
    "misspelt bound": (_edited("nodes", 1, "pmni", -0.1), "nodes[1]: unknown key 'pmni'"),
    "duplicate id": ({**TWOBUS, "nodes": [*TWOBUS["nodes"], {"id": 1}]}, "duplicate node id 1"),
    "missing node 0": (_edited("nodes", 0, "id", 2), "node 0 (substation) is missing"),
    "substation only": (
        {"nodes": [{"id": 0}], "lines": []}, "network needs at least one non-slack node"
    ),
    "non-contiguous ids": (
        _edited("nodes", 1, "id", 2), "node ids must be contiguous 0..1, got [0, 2]"
    ),
    "v0 not positive": (_edited(None, 0, "v0", 0), "slack voltage v0 must be positive, got 0.0"),
    "self-loop": (
        _edited("lines", 0, "from", 1), "non-radial topology: line 0 is a self-loop at node 1"
    ),
    "negative resistance": (
        _edited("lines", 0, "r", -0.01), "line 0 (0 -> 1): negative resistance -0.01"
    ),
    "qmin above qmax": (
        _edited("nodes", 1, "qmin", 0.1), "empty feasible set at node 1: q_min 0.1 > q_max 0.0"
    ),
    "zero smax": (_edited("nodes", 1, "smax", 0), "node 1: s_max must be positive, got 0.0"),
    "box and disk disjoint": (
        _edited("nodes", 1, "smax", 0.05, _edited("nodes", 1, "pmax", -0.08)),
        "empty feasible set at node 1: box and s_max=0.05 disk are disjoint",
    ),
    "unreachable node": (
        {
            "nodes": [{"id": i} for i in range(5)],
            "lines": [{"from": a, "to": b, "r": 0.01, "x": 0.01}
                      for a, b in ((0, 1), (2, 3), (3, 4), (4, 2))],
        },
        "non-radial topology: node(s) [2, 3, 4] unreachable from the substation",
    ),
    # A document with several faults of one kind names the first node in id
    # order, wherever its row stands.
    "duplicates in id order": (
        {**TWOBUS, "nodes": [*TWOBUS["nodes"], {"id": 1}, {"id": 0}]}, "duplicate node id 0"
    ),
    "empty boxes in id order": (
        {
            "nodes": [{"id": 0}, {"id": 2, "pmin": 0.3, "pmax": 0.1},
                      {"id": 1, "pmin": 0.2, "pmax": 0.1}],
            "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.01},
                      {"from": 1, "to": 2, "r": 0.01, "x": 0.01}],
        },
        "empty feasible set at node 1: p_min 0.2 > p_max 0.1",
    ),
    # Two lines from 0 to 1 leave node 2 unattached: with as many lines as
    # non-slack nodes, the unreachable node is what the search reports.
    "parallel lines": (
        {
            "nodes": [{"id": i} for i in range(3)],
            "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.01}] * 2,
        },
        "non-radial topology: node(s) [2] unreachable from the substation",
    ),
    "directory": (None, "cannot parse network file"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_network_document_rejected_where_it_enters(tmp_path, case):
    # Each message names the file, then the node or line, the key and the value.
    doc, message = BAD_DOCUMENTS[case]
    path = tmp_path
    if doc is not None:
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
    with pytest.raises(NetworkError, match=re.escape(f"network file {path}")) as info:
        load_network(path)
    assert message in str(info.value)


def _written_by_perfbench(net) -> dict:
    """The network file perfbench writes for its synthetic feeder, built the
    way perfbench/workloads.py builds it: through the model's record views
    (``nodes``, ``feasible``, ``lines``)."""
    nodes = [{"id": 0, "p0": 0.0, "q0": 0.0}]
    for nd, fs in zip(net.nodes[1:], net.feasible):
        nodes.append(
            {"id": nd.id, "p0": nd.p0, "q0": nd.q0, "pmin": fs.p_min, "pmax": fs.p_max,
             "qmin": fs.q_min, "qmax": fs.q_max, "smax": fs.s_max}
        )
    lines = [
        {"from": ln.from_bus, "to": ln.to_bus, "r": ln.z.real, "x": ln.z.imag} for ln in net.lines
    ]
    return {"v0": net.v0, "nodes": nodes, "lines": lines}


@pytest.mark.parametrize("feeder", ["ieee33", "synthetic-400"])
def test_benchmark_network_files_rebuild_the_model(net33, feeder):
    net = net33 if feeder == "ieee33" else synthetic_feeder(400, seed=12)
    text = json.dumps(network_document(net))
    _assert_same_model(build_network(json.loads(text)), net)
    assert text == json.dumps(_written_by_perfbench(net))


# ---------------------------------------------------------------------------
# Admittance


def test_admittance_two_bus(twobus_json):
    net = load_network(twobus_json)
    y = 1.0 / complex(0.01, 0.02)
    Y, y_bar, y00 = build_admittance(net)
    assert Y.toarray()[0, 0] == pytest.approx(y)
    assert y_bar[0] == pytest.approx(-y)
    assert y00 == pytest.approx(y)


def test_admittance_three_bus_chain_with_shunt(tmp_path):
    # Hand expansion: Y_11 = y_01 + y_12 + y_shunt at node 1.
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [
                    {"id": 0},
                    {"id": 1, "shunt_g": 0.5, "shunt_b": -0.25},
                    {"id": 2},
                ],
                "lines": [
                    {"from": 0, "to": 1, "r": 0.01, "x": 0.02},
                    {"from": 1, "to": 2, "r": 0.03, "x": 0.01},
                ],
            }
        )
    )
    net = load_network(path)
    y01 = 1.0 / complex(0.01, 0.02)
    y12 = 1.0 / complex(0.03, 0.01)
    Y, y_bar, y00 = build_admittance(net)
    dense = Y.toarray()
    assert dense[0, 0] == pytest.approx(y01 + y12 + complex(0.5, -0.25))
    assert dense[0, 1] == dense[1, 0] == pytest.approx(-y12)
    assert dense[1, 1] == pytest.approx(y12)
    assert y_bar[0] == pytest.approx(-y01)


def test_admittance_row_consistency_no_shunts(net33):
    Y, y_bar, _ = build_admittance(net33)
    rows = np.asarray(Y.sum(axis=1)).ravel() + y_bar
    assert np.abs(rows).max() < 1e-12


def test_admittance_symmetry(net33):
    Y, _, _ = build_admittance(net33)
    d = (Y - Y.T).toarray()
    assert np.abs(d).max() == 0.0


def test_path_sum_matrix_shared_root_branch(tmp_path):
    # Two leaves behind a common branch: off-diagonal = shared branch weight.
    path = tmp_path / "fork.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
                "lines": [
                    {"from": 0, "to": 1, "r": 0.05, "x": 0.1},
                    {"from": 1, "to": 2, "r": 0.02, "x": 0.1},
                    {"from": 1, "to": 3, "r": 0.03, "x": 0.1},
                ],
            }
        )
    )
    net = load_network(path)
    R = path_sum_matrix(net, net.branch_z.real)
    assert R[1, 2] == pytest.approx(0.05)
    assert R[2, 1] == pytest.approx(0.05)
    assert R[1, 1] == pytest.approx(0.07)
    assert R[2, 2] == pytest.approx(0.08)
    assert R[0, 1] == R[0, 2] == pytest.approx(0.05)


def _tree(parents: list[int], seed: int = 0):
    """Feeder whose node i + 1 hangs below parents[i], random impedances."""
    rng = np.random.default_rng(seed)
    lines = [
        {"from": par, "to": i + 1, "r": float(rng.uniform(1e-4, 4e-3)),
         "x": float(rng.uniform(1e-4, 4e-3))}
        for i, par in enumerate(parents)
    ]
    return build_network({"nodes": [{"id": i} for i in range(len(parents) + 1)], "lines": lines})


FEEDERS = {
    "two-bus": lambda net33: _tree([0]),
    "ieee33": lambda net33: net33,
    "chain-200": lambda net33: _tree(list(range(200))),
    "star-200": lambda net33: _tree([0] * 200),
    "synthetic-300": lambda net33: synthetic_feeder(300, seed=5),
}


@pytest.mark.parametrize("feeder", FEEDERS)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_path_sum_kernel_matches_dense_matrix(net33, feeder, kind):
    net = FEEDERS[feeder](net33)
    z = net.branch_z
    weights = z.real if kind == "real" else z
    dense = path_sum_matrix(net, weights)
    op = PathSum(net, weights)
    rng = np.random.default_rng(1)
    n = net.n
    for x in (
        rng.normal(size=n),
        rng.normal(size=(n, 3)),
        rng.normal(size=n) + 1j * rng.normal(size=n),
    ):
        ref = dense @ x
        scale = np.abs(ref).max()
        assert np.abs(op @ x - ref).max() <= 1e-12 * scale
        assert np.abs(op.T @ x - dense.T @ x).max() <= 1e-12 * scale
    assert np.abs(op @ np.eye(n) - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs((op / 2.0) @ x - (dense / 2.0) @ x).max() <= 1e-12 * scale
    if kind == "real":
        d = rng.uniform(0.5, 2.0, n)
        ref = (dense * dense) @ d
        assert np.abs(op.diag_quad(d) - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("feeder", FEEDERS)
def test_path_gram_matches_dense_matrices(net33, feeder):
    # sum_m P_m diag(d_m) P_m^T x, at every node and at selected rows.
    net = FEEDERS[feeder](net33)
    z = net.branch_z
    rng = np.random.default_rng(2)
    n = net.n
    d_r, d_x = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    R, X = path_sum_matrix(net, z.real), path_sum_matrix(net, z.imag)
    terms = ((PathSum(net, z.real), d_r), (PathSum(net, z.imag), d_x))
    rows = rng.permutation(n)[: max(1, n // 3)]
    for x in (rng.normal(size=n), rng.normal(size=(n, 5))):
        ref = (R * d_r) @ (R.T @ x) + (X * d_x) @ (X.T @ x)
        scale = np.abs(ref).max()
        assert np.abs(path_gram(terms, x) - ref).max() <= 1e-12 * scale
        assert np.abs(path_gram(terms, x, rows) - ref[rows]).max() <= 1e-12 * scale
    with pytest.raises(ValueError, match="one tree"):
        path_gram(((terms[0][0], d_r), (PathSum(_tree([0] * n), z.real), d_x)), x)


@pytest.mark.parametrize("feeder", FEEDERS)
def test_admittance_matches_full_bus_matrix(net33, feeder):
    net = FEEDERS[feeder](net33)
    full = full_ybus(net)
    Y, y_bar, y00 = build_admittance(net)
    scale = np.abs(full).max()
    assert np.abs(Y.toarray() - full[1:, 1:]).max() <= 1e-12 * scale
    assert np.abs(y_bar - full[1:, 0]).max() <= 1e-12 * scale
    assert abs(y00 - full[0, 0]) <= 1e-12 * scale


def test_path_sum_kernel_rejects_wrong_length(net33):
    with pytest.raises(ValueError, match="expected 32"):
        PathSum(net33, net33.branch_z.real) @ np.ones(31)


# ---------------------------------------------------------------------------
# Projection


BOX = (0.0, 1.0, 0.0, 1.0, math.inf)


def project_feasible(p, q, box):
    """Projection of one point (p, q) onto one node's set ``box`` = (p_min,
    p_max, q_min, q_max, s_max), through the vectorized projection on
    1-element arrays."""
    bounds = [np.array([b]) for b in box]
    pp, qq = project_box_disk(np.array([p], dtype=float), np.array([q], dtype=float), *bounds)
    return float(pp[0]), float(qq[0])


def test_projection_interior_point_unchanged():
    assert project_feasible(0.5, 0.5, BOX) == (0.5, 0.5)


def test_projection_clamps_to_box():
    assert project_feasible(2.0, 0.0, BOX) == (1.0, 0.0)


def test_projection_radial_scaling_onto_disk():
    box = (0.0, 2.0, 0.0, 2.0, 1.0)
    p, q = project_feasible(1.0, 1.0, box)
    assert p == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert q == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_projection_box_and_disk_both_active():
    box = (0.0, 0.3, -2.0, 2.0, 1.0)
    p, q = project_feasible(2.0, 2.0, box)
    assert p == pytest.approx(0.3, abs=1e-11)
    assert math.hypot(p, q) <= 1.0 + 1e-11
    # True projection: p clamped, q on the disk arc.
    assert q == pytest.approx(math.sqrt(1 - 0.3**2), abs=1e-9)


@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-3, 3), st.floats(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_projection_nonexpansive_box_disk(p1, q1, p2, q2):
    box = (-1.0, 0.6, -0.8, 1.0, 1.2)
    a = np.array(project_feasible(p1, q1, box))
    b = np.array(project_feasible(p2, q2, box))
    assert np.linalg.norm(a - b) <= math.hypot(p1 - p2, q1 - q2) + 1e-9


def test_projection_nonexpansive_bulk():
    rng = np.random.default_rng(7)
    box = (-1.0, 0.6, -0.8, 1.0, 1.2)
    pts = rng.uniform(-3, 3, size=(10_000, 4))
    for p1, q1, p2, q2 in pts:
        a = np.array(project_feasible(p1, q1, box))
        b = np.array(project_feasible(p2, q2, box))
        assert np.linalg.norm(a - b) <= math.hypot(p1 - p2, q1 - q2) + 1e-9


def test_projection_idempotent_exactly():
    rng = np.random.default_rng(3)
    box = (-1.0, 0.6, -0.8, 1.0, 1.2)
    for p, q in rng.uniform(-3, 3, size=(300, 2)):
        once = project_feasible(p, q, box)
        twice = project_feasible(*once, box)
        assert twice == once

