from __future__ import annotations

import numpy as np
import pytest

from gridloop.feeders import synthetic_feeder
from gridloop.netmodel import DENSE_LIMIT, PathSum, build_admittance, load_network, path_sum_matrix
from gridloop.plant import solve_power_flow

from oracles import newton_power_flow, one_branch_voltage, reference_sweep


def test_no_load_flat_solution(net33):
    sol = solve_power_flow(net33, np.zeros(32), np.zeros(32))
    assert sol.converged
    assert np.allclose(sol.v_mag, 1.0, atol=1e-14)
    assert sol.p_slack == pytest.approx(0.0, abs=1e-12)
    # The slack power, active and reactive, from the complex voltages.
    _, y_bar, y00 = build_admittance(net33)
    v0 = complex(net33.v0)
    s_slack = v0 * np.conj(y00 * v0 + y_bar @ sol.v)
    assert s_slack.real == sol.p_slack
    assert s_slack.imag == pytest.approx(0.0, abs=1e-12)


def test_two_bus_matches_closed_form(twobus_json):
    net = load_network(twobus_json)
    sol = solve_power_flow(net, np.array([-0.1]), np.array([-0.05]))
    expected = one_branch_voltage(1.0, complex(0.01, 0.02), -0.1, -0.05)
    assert sol.converged
    assert sol.v_mag[0] == pytest.approx(expected, abs=1e-12)


def test_ieee33_matches_newton_oracle(net33):
    sol = solve_power_flow(net33, net33.p0, net33.q0)
    assert sol.converged
    v_oracle = newton_power_flow(net33, net33.p0, net33.q0)
    assert np.abs(sol.v - v_oracle).max() < 1e-8
    assert np.abs(sol.v_mag - np.abs(v_oracle)).max() < 1e-8
    # Published profile: minimum voltage ~0.9131 pu at the last main-feeder bus.
    assert sol.v_mag.min() == pytest.approx(0.9131, abs=1e-3)
    assert int(np.argmin(sol.v_mag)) == 16


def test_random_loadings_match_newton_oracle(net33):
    rng = np.random.default_rng(42)
    for _ in range(10):
        scale_p = rng.uniform(0.2, 1.3, size=32)
        scale_q = rng.uniform(0.2, 1.3, size=32)
        p = net33.p0 * scale_p
        q = net33.q0 * scale_q
        sol = solve_power_flow(net33, p, q)
        assert sol.converged
        v_oracle = np.abs(newton_power_flow(net33, p, q))
        assert np.abs(sol.v_mag - v_oracle).max() < 1e-8


def test_energy_consistency(net33):
    # Slack injection covers total load plus line losses.
    sol = solve_power_flow(net33, net33.p0, net33.q0)
    full_v = np.concatenate(([net33.v0], sol.v))
    i_line = (full_v[net33.parent] - sol.v) / net33.branch_z
    losses = (np.abs(i_line) ** 2 * net33.branch_z).real.sum()
    assert sol.p_slack == pytest.approx(-net33.p0.sum() + losses, abs=1e-9)


def test_voltage_monotone_in_load(net33):
    # Raising the load magnitude at one node weakly lowers its own voltage.
    node = 17
    prev = np.inf
    for scale in [0.5, 1.0, 1.5, 2.0, 2.5]:
        p = net33.p0.copy()
        p[node] = net33.p0[node] * scale
        sol = solve_power_flow(net33, p, net33.q0)
        assert sol.converged
        assert sol.v_mag[node] <= prev + 1e-12
        prev = sol.v_mag[node]


def _shunted_two_node(tmp_path):
    import json

    path = tmp_path / "shunted.json"
    path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [{"id": 0}, {"id": 1, "shunt_g": 0.1, "shunt_b": -0.3}],
                "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}],
            }
        )
    )
    return load_network(path)


def test_shunt_enters_as_current_injection(tmp_path):
    net = _shunted_two_node(tmp_path)
    sol = solve_power_flow(net, np.zeros(1), np.zeros(1))
    assert sol.converged
    v = np.abs(newton_power_flow(net, np.zeros(1), np.zeros(1)))
    assert sol.v_mag[0] == pytest.approx(v[0], abs=1e-10)


def test_nonconvergence_diagnostic(twobus_json):
    net = load_network(twobus_json)
    # Far beyond maximum loadability for this branch: must report failure.
    sol = solve_power_flow(net, np.array([-40.0]), np.array([-20.0]), max_iter=80)
    assert not sol.converged
    assert len(sol.residual_history) >= 1


def _dense_sweep(net, p, q, tol=1e-10, max_iter=500):
    """The plant's sweep with the explicit N x N common-path impedance and
    admittance matrices: (voltages, sweeps)."""
    Z = path_sum_matrix(net, net.branch_z)
    Y, y_bar, _ = build_admittance(net)
    Y = Y.toarray()
    s = p + 1j * q
    v = np.full(net.n, complex(net.v0))
    for sweeps in range(1, max_iter + 1):
        v = net.v0 + Z @ (np.conj(s / v) - net.shunts * v)
        if np.abs(v * np.conj(Y @ v + y_bar * net.v0) - s).max() <= tol:
            return v, sweeps
    raise AssertionError("dense reference sweep did not converge")


def test_tree_kernel_plant_matches_dense_sweep():
    net = synthetic_feeder(DENSE_LIMIT + 100, seed=5)
    assert isinstance(net._sweep[0].__self__, PathSum)
    sol = solve_power_flow(net, net.p0, net.q0)
    v, sweeps = _dense_sweep(net, net.p0, net.q0)
    assert sol.converged and sol.iterations == sweeps
    assert np.abs(sol.v - v).max() < 1e-12
    assert np.abs(sol.v_mag - np.abs(v)).max() < 1e-12


def test_true_quantities_shape(net33):
    sol = solve_power_flow(net33, 0.8 * net33.p0, 0.8 * net33.q0)
    assert sol.v_mag.shape == (32,)


def _assert_sweep_matches_reference(net, p, q, **kw):
    """Voltages, sweep count and residual history bit for bit those of the
    plain loop kept in ``oracles.reference_sweep``."""
    sol = solve_power_flow(net, p, q, **kw)
    v, iterations, history = reference_sweep(net, p, q, **kw)
    assert sol.iterations == iterations
    assert np.array(sol.residual_history).tobytes() == np.array(history).tobytes()
    assert sol.v.tobytes() == v.tobytes()
    assert sol.v_mag.tobytes() == np.abs(v).tobytes()
    return sol


def test_sweep_matches_reference_loop_bitwise(net33, tmp_path, twobus_json):
    sol = _assert_sweep_matches_reference(net33, net33.p0, net33.q0)
    assert sol.converged
    rng = np.random.default_rng(3)
    pmin, pmax, qmin, qmax, _ = net33.box
    for _ in range(20):
        p, q = rng.uniform(pmin, pmax), rng.uniform(qmin, qmax)
        assert _assert_sweep_matches_reference(net33, p, q).converged
    # Out of sweeps before the tolerance is met.
    sol = _assert_sweep_matches_reference(net33, 3 * net33.p0, 3 * net33.q0, max_iter=10)
    assert not sol.converged and sol.iterations == 10
    shunted = _shunted_two_node(tmp_path)
    assert shunted._sweep[-1] is not None
    assert _assert_sweep_matches_reference(shunted, np.array([-0.2]), np.array([0.1])).converged


def test_sweep_matches_reference_loop_when_diverging(net33, twobus_json):
    # Voltage collapse below 0.05 pu, on two networks.
    for net, p, q in (
        (net33, 5 * net33.p0, 5 * net33.q0),
        (load_network(twobus_json), np.array([-40.0]), np.array([-20.0])),
    ):
        sol = _assert_sweep_matches_reference(net, p, q, max_iter=80)
        assert not sol.converged and sol.residual_history[-1] == np.inf
    # Non-finite voltages: NaN from an infinite injection at once, and
    # infinite (|v| = inf, no NaN) after 14 sweeps from a huge finite one.
    net = load_network(twobus_json)
    with np.errstate(all="ignore"):
        sol = _assert_sweep_matches_reference(net, np.array([np.inf]), np.array([0.0]))
        assert not sol.converged and sol.residual_history == (np.inf,)
        sol = _assert_sweep_matches_reference(net, np.array([1e308]), np.array([1e308]))
        assert not sol.converged and sol.iterations == 14 and np.isinf(sol.v_mag).all()
