from __future__ import annotations

import json

import numpy as np
import pytest

from gridloop.linearizer import (
    eval_linear,
    jacobian_linearize,
    lindistflow,
    linearize,
)
from gridloop.netmodel import load_network
from gridloop.plant import solve_power_flow


def test_lindistflow_two_bus(twobus_json):
    net = load_network(twobus_json)
    m = lindistflow(net)
    assert m.G[0, 0] == pytest.approx(0.01)
    assert m.G[0, 1] == pytest.approx(0.02)
    assert m.r0[0] == pytest.approx(1.0)


def test_lindistflow_shared_branch_coupling(tmp_path):
    # Two leaves behind a common branch z_c: off-diagonal entries equal r_c.
    path = tmp_path / "fork.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
                "lines": [
                    {"from": 0, "to": 1, "r": 0.04, "x": 0.08},
                    {"from": 1, "to": 2, "r": 0.01, "x": 0.02},
                    {"from": 1, "to": 3, "r": 0.02, "x": 0.03},
                ],
            }
        )
    )
    net = load_network(path)
    m = lindistflow(net)
    assert m.G[1, 2] == pytest.approx(0.04)
    assert m.G[2, 1] == pytest.approx(0.04)
    assert m.G[1, 3 + 2] == pytest.approx(0.08)


def test_lindistflow_entrywise_nonnegative(net33):
    m = lindistflow(net33)
    assert (m.G >= 0).all()
    assert np.allclose(m.G[:, :32], m.G[:, :32].T)


def test_jacobian_matches_lindistflow_at_no_load(twobus_json):
    net = load_network(twobus_json)
    m = jacobian_linearize(net, np.zeros(2))
    assert m.G[0, 0] == pytest.approx(0.01, abs=1e-4)
    assert m.G[0, 1] == pytest.approx(0.02, abs=1e-4)


def test_jacobian_vs_lindistflow_33bus(net33):
    lin = lindistflow(net33)
    jac = jacobian_linearize(net33, np.zeros(64))
    assert np.abs(lin.G - jac.G).max() < 1e-3


def test_jacobian_intercept_reproduces_base_point(net33):
    z0 = np.concatenate([net33.p0, net33.q0])
    m = jacobian_linearize(net33, z0)
    sol = solve_power_flow(net33, net33.p0, net33.q0)
    assert np.abs(eval_linear(m, z0) - sol.v_mag).max() < 1e-12


def test_eval_linear_at_zero_injections(net33):
    m = lindistflow(net33)
    assert np.allclose(eval_linear(m, np.zeros(64)), 1.0)


def test_eval_linear_two_bus_value(twobus_json):
    net = load_network(twobus_json)
    m = lindistflow(net)
    r = eval_linear(m, np.array([-0.1, -0.05]))
    assert r[0] == pytest.approx(0.998)


def test_eval_linear_is_linear(net33):
    m = lindistflow(net33)
    rng = np.random.default_rng(1)
    z = rng.normal(size=64) * 0.05
    base = eval_linear(m, z) - m.r0
    scaled = eval_linear(m, 2.5 * z) - m.r0
    assert np.allclose(scaled, 2.5 * base, atol=1e-14)


def test_eval_linear_dimension_mismatch(net33):
    m = lindistflow(net33)
    with pytest.raises(ValueError):
        eval_linear(m, np.zeros(32))


def test_linearization_accuracy_regime(net33):
    # Injections uniform within +/-150% of nominal magnitude (either sign,
    # covering curtailment and reverse flow); LinDistFlow stays within 1e-2.
    m = lindistflow(net33)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-1.5, 1.5, 32) * np.abs(net33.p0)
        q = rng.uniform(-1.5, 1.5, 32) * np.abs(net33.q0)
        sol = solve_power_flow(net33, p, q)
        assert sol.converged
        worst = max(worst, np.abs(eval_linear(m, np.concatenate([p, q])) - sol.v_mag).max())
    assert worst <= 0.01


def test_linearize_dispatch(net33):
    jacobian = jacobian_linearize(net33, np.concatenate([net33.p0, net33.q0]))
    for method, want in (("lindistflow", lindistflow(net33)), ("jacobian", jacobian)):
        got = linearize(net33, method)
        assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in ("G", "r0"))
    with pytest.raises(ValueError):
        linearize(net33, "nope")

