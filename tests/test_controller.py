from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridloop
from gridloop import controller
from gridloop.controller import (
    ControllerConfig,
    ControllerState,
    CostParams,
    certify_step_size,
    dual_step,
    initial_state,
    primal_grad,
    primal_step,
)
from gridloop.feeders import synthetic_feeder
from gridloop.linearizer import LinearFlowModel, lindistflow
from gridloop.netmodel import load_network

from oracles import dense_sensitivities, scalar_lagrangian

CFG = ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.95, v_max=1.05)


def _zero_model(n):
    return LinearFlowModel(G=np.zeros((n, 2 * n)), r0=np.ones(n))


def test_gradient_zero_at_nominal(net33):
    cost = CostParams.for_network(net33, alpha=0.0)
    model = lindistflow(net33)
    assert np.abs(primal_grad(initial_state(net33), cost, model)).max() == 0.0


def test_gradient_isolates_dual_coupling(net33):
    cost = CostParams.for_network(net33, alpha=0.0)
    model = lindistflow(net33)
    st = initial_state(net33)
    j = 11
    mu_l = np.zeros(32)
    mu_l[j] = 1.0
    st = ControllerState(st.z, mu_lower=mu_l, mu_upper=np.zeros(32))
    assert np.allclose(primal_grad(st, cost, model), -model.G[j], atol=1e-15)


def test_gradients_match_finite_differences(twobus_json):
    net = load_network(twobus_json)
    model = lindistflow(net)
    cost = CostParams.for_network(net, wp=1.3, wq=0.7, alpha=0.02, p0_target=0.3)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        p = rng.uniform(-0.2, 0.1, 1)
        q = rng.uniform(-0.2, 0.1, 1)
        mu_l = rng.uniform(0, 2, 1)
        mu_u = rng.uniform(0, 2, 1)
        st = ControllerState(np.concatenate([p, q]), mu_lower=mu_l, mu_upper=mu_u)
        kw = dict(
            wp=1.3, wq=0.7, alpha=cost.alpha, p0=net.p0, q0=net.q0,
            p0_target=cost.p0_target, G=model.G, r0=model.r0,
            v_min=CFG.v_min, v_max=CFG.v_max, eta=CFG.eta,
        )

        def lag(pp, qq, ml, mu):
            return scalar_lagrangian(pp, qq, ml, mu, **kw)

        g_p, g_q = primal_grad(st, cost, model)
        e = np.array([h])
        fd_p = (lag(p + e, q, mu_l, mu_u) - lag(p - e, q, mu_l, mu_u)) / (2 * h)
        fd_q = (lag(p, q + e, mu_l, mu_u) - lag(p, q - e, mu_l, mu_u)) / (2 * h)
        assert g_p == pytest.approx(fd_p, rel=1e-5, abs=1e-8)
        assert g_q == pytest.approx(fd_q, rel=1e-5, abs=1e-8)
        # Dual ascent direction from the same scalar function.
        r = model.G @ np.concatenate([p, q]) + model.r0
        asc_l = (CFG.v_min - r) - CFG.eta * mu_l
        asc_u = (r - CFG.v_max) - CFG.eta * mu_u
        fd_l = (lag(p, q, mu_l + e, mu_u) - lag(p, q, mu_l - e, mu_u)) / (2 * h)
        fd_u = (lag(p, q, mu_l, mu_u + e) - lag(p, q, mu_l, mu_u - e)) / (2 * h)
        assert asc_l[0] == pytest.approx(fd_l, rel=1e-5, abs=1e-8)
        assert asc_u[0] == pytest.approx(fd_u, rel=1e-5, abs=1e-8)


def test_primal_step_zero_gradient_identity(net33):
    st = initial_state(net33)
    out = primal_step(st, np.zeros(64), net33, CFG)
    assert np.array_equal(out.z, st.z)


def test_primal_step_lands_on_box_face(net33):
    st = initial_state(net33)
    g = np.zeros(64)
    g[:32] = -1e4  # pushes p far above every pmax
    out = primal_step(st, g, net33, CFG)
    assert np.array_equal(out.z[:32], net33.box[1])
    assert np.array_equal(out.z[32:], st.z[32:])


def test_primal_step_hand_computed(twobus_json):
    net = load_network(twobus_json)
    model = lindistflow(net)
    cost = CostParams.for_network(net, alpha=0.0)
    st = ControllerState(np.array([-0.06, -0.02]), mu_lower=np.array([0.5]), mu_upper=np.array([0.0]))
    g = primal_grad(st, cost, model)
    # By hand: g_p = 2(p - p0) - A mu_l = 2(0.04) - 0.01*0.5 = 0.075
    #          g_q = 2(q - q0) - B mu_l = 2(0.03) - 0.02*0.5 = 0.05
    assert g == pytest.approx([0.075, 0.05])
    out = primal_step(st, g, net, CFG)
    assert out.z == pytest.approx([-0.06 - 7e-4 * 0.075, -0.02 - 7e-4 * 0.05])


def test_dual_step_inactive_constraints(net33):
    st = initial_state(net33)
    r_hat = np.full(32, 1.0)
    out = dual_step(st, r_hat, CFG)
    assert np.abs(out.mu_lower).max() == 0.0
    assert np.abs(out.mu_upper).max() == 0.0


def test_dual_step_single_violation(net33):
    st = initial_state(net33)
    cfg = ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=1e-12, v_min=0.95, v_max=1.05)
    r_hat = np.full(32, 1.0)
    r_hat[6] = cfg.v_min - 0.01
    out = dual_step(st, r_hat, cfg)
    assert out.mu_lower[6] == pytest.approx(0.01 * 1e-3, rel=1e-9)
    assert out.mu_lower[np.arange(32) != 6].max() == 0.0


def test_dual_fixed_point_is_violation_over_eta(net33):
    # Constant violation g with eta > 0: iterating converges to mu = g / eta.
    cfg = ControllerConfig(eps_primal=1e-3, eps_dual=0.05, eta=0.1, v_min=0.95, v_max=1.05)
    st = initial_state(net33)
    g_viol = 0.02
    r_hat = np.full(32, cfg.v_min - g_viol)
    for _ in range(5000):
        st = dual_step(st, r_hat, cfg)
    assert np.abs(st.mu_lower - g_viol / cfg.eta).max() < 1e-9
    assert st.mu_upper.max() == 0.0


def test_dual_bound_from_violation_cap(net33):
    # limsup ||mu||_inf <= g_max / eta for violations bounded by g_max.
    rng = np.random.default_rng(8)
    st = initial_state(net33)
    g_max = 0.03
    cap = g_max / CFG.eta
    for k in range(30000):
        r_hat = CFG.v_min - rng.uniform(-g_max, g_max, 32)
        st = dual_step(st, r_hat, CFG)
        if k > 25000:
            assert st.mu_lower.max() <= cap * (1 + 1e-9)


def test_certificate_decoupled_closed_form():
    # A = B = 0, unit weights, eta = 0.01: M = eta, L = 2 from the cost block.
    n = 4
    model = _zero_model(n)
    cost = CostParams(w=np.ones(2 * n), alpha=0.0, p0_target=0.0, z_ref=np.zeros(2 * n))
    cfg = ControllerConfig(eps_primal=1e-3, eps_dual=1e-3, eta=0.01)
    cert = certify_step_size(cost, model, cfg)
    assert cert.M == pytest.approx(0.01)
    assert cert.L == pytest.approx(2.0, rel=1e-9)
    assert cert.eps_max == pytest.approx(2 * 0.01 / 4.0)


def _dense_jacobian(cost, model, eta):
    """The saddle Jacobian [[Hc, G^T], [-G, eta I]] as a dense matrix."""
    n = model.n
    S = dense_sensitivities(model)
    Hc = np.diag(2 * cost.w)
    Hc[:n, :n] += 2 * cost.alpha
    G = np.vstack([-S, S])
    return np.block([[Hc, G.T], [-G, eta * np.eye(2 * n)]])


def test_certificate_operator_norm_matches_svd(net33):
    model = lindistflow(net33)
    cost = CostParams.for_network(net33, alpha=5e-4)
    cert = certify_step_size(cost, model, CFG)
    L_svd = np.linalg.svd(_dense_jacobian(cost, model, CFG.eta), compute_uv=False)[0]
    assert cert.L == pytest.approx(L_svd, rel=1e-14, abs=0.0)
    assert cert.M == pytest.approx(CFG.eta)
    assert cert.L >= cert.M


def test_certificate_operator_norm_on_the_tree_kernel():
    # 320 nodes is above DENSE_LIMIT, so A and B are PathSum operators.
    net = synthetic_feeder(320, 12)
    model = lindistflow(net)
    cost = CostParams.for_network(net, alpha=5e-4)
    J = _dense_jacobian(cost, model, CFG.eta)
    L_eig = np.sqrt(np.linalg.eigvalsh(J.T @ J)[-1])
    assert certify_step_size(cost, model, CFG).L == pytest.approx(L_eig, rel=1e-13, abs=0.0)


def test_certificate_two_bus_ends_within_4n_steps(twobus_json, monkeypatch):
    # The top two singular values lie within 0.05% of each other, where a
    # power iteration stalls (it stopped 2.5e-4 short of L here); with 4N = 4
    # the Krylov space is the whole space after at most four steps.
    net = load_network(twobus_json)
    model = lindistflow(net)
    cost = CostParams.for_network(net, alpha=5e-4)
    L_svd = np.linalg.svd(_dense_jacobian(cost, model, CFG.eta), compute_uv=False)[0]
    assert certify_step_size(cost, model, CFG).L == pytest.approx(L_svd, rel=1e-14, abs=0.0)
    steps = []
    top = controller._top_eigenvalue
    monkeypatch.setattr(
        controller, "_top_eigenvalue", lambda *args: steps.append(args) or top(*args)
    )
    certify_step_size(cost, model, CFG)
    assert len(steps) <= 4


@pytest.mark.parametrize("k", [1, 2, 3, 8, 30])
def test_top_eigenvalue_matches_eigvalsh(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        alpha = rng.uniform(-1.0, 4.0, k)
        beta = rng.uniform(0.0, 2.0, k - 1)
        beta[rng.random(k - 1) < 0.3] = 0.0
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        want = np.linalg.eigvalsh(T)[-1]
        # The largest diagonal entry is a lower bound (a Rayleigh quotient).
        got = controller._top_eigenvalue(alpha.tolist(), beta.tolist(), float(alpha.max()))
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_certificate_does_not_depend_on_blas_threads():
    # 4N = 12000 entries, long enough for OpenBLAS to split a dot product
    # between threads, which changes its last bit.
    code = (
        "from gridloop.controller import ControllerConfig, CostParams, certify_step_size\n"
        "from gridloop.feeders import synthetic_feeder\n"
        "from gridloop.linearizer import lindistflow\n"
        "net = synthetic_feeder(3000, 12)\n"
        "cfg = ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.95, v_max=1.05)\n"
        "print(repr(certify_step_size(CostParams.for_network(net, alpha=5e-4), lindistflow(net), cfg).L))\n"
    )
    src = str(Path(gridloop.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert out[0] == out[1]


def test_certificate_scaling_monotonicity(net33):
    model = lindistflow(net33)
    cost = CostParams.for_network(net33)
    cert1 = certify_step_size(cost, model, CFG)
    doubled = LinearFlowModel(G=2 * model.G, r0=model.r0)
    cert2 = certify_step_size(cost, doubled, CFG)
    assert cert2.L > cert1.L
    assert cert2.eps_max < cert1.eps_max


def test_certified_step_gives_contractive_delta(net33):
    model = lindistflow(net33)
    cost = CostParams.for_network(net33)
    cert = certify_step_size(cost, model, CFG)
    assert cert.certified
    for eps in (cert.eps_max / 2, cert.eps_max / 10, cert.eps_configured):
        if 0 < eps < cert.eps_max:
            assert 0.0 < cert.delta(eps) < 1.0


def test_gradients_match_finite_differences_33bus(net33):
    from gridloop.linearizer import lindistflow as _ldf

    model = _ldf(net33)
    cost = CostParams.for_network(net33, alpha=5e-4)
    rng = np.random.default_rng(5)
    h = 1e-6
    kw = dict(
        wp=1.0, wq=1.0, alpha=cost.alpha, p0=net33.p0, q0=net33.q0,
        p0_target=cost.p0_target, G=model.G, r0=model.r0,
        v_min=CFG.v_min, v_max=CFG.v_max, eta=CFG.eta,
    )
    for _ in range(5):
        p = net33.p0 * rng.uniform(0.5, 1.0, 32)
        q = net33.q0 * rng.uniform(0.5, 1.0, 32)
        st = ControllerState(
            np.concatenate([p, q]), mu_lower=rng.uniform(0, 1, 32), mu_upper=rng.uniform(0, 1, 32)
        )
        g = primal_grad(st, cost, model)
        for idx in (0, 13, 31):
            e = np.zeros(32)
            e[idx] = h
            fd = (
                scalar_lagrangian(p + e, q, st.mu_lower, st.mu_upper, **kw)
                - scalar_lagrangian(p - e, q, st.mu_lower, st.mu_upper, **kw)
            ) / (2 * h)
            assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)
            fd_q = (
                scalar_lagrangian(p, q + e, st.mu_lower, st.mu_upper, **kw)
                - scalar_lagrangian(p, q - e, st.mu_lower, st.mu_upper, **kw)
            ) / (2 * h)
            assert g[32 + idx] == pytest.approx(fd_q, rel=1e-5, abs=1e-9)
