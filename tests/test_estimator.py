from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import gridloop.estimator as estimator_mod
from gridloop.estimator import GRAM_BLOCK, EstimationError, WlsEstimator, estimate_voltages
from gridloop.controller import ControllerConfig
from gridloop.feeders import resolve_network, synthetic_feeder
from gridloop.harness import PlanSpec, ScenarioConfig, prepare
from gridloop.linearizer import eval_linear, lindistflow, linearize
from gridloop.netmodel import DENSE_LIMIT, PathSum, load_network
from gridloop.plant import solve_power_flow
from gridloop.sensing import make_plan, plan_reference_sigmas, sample_measurements

from oracles import (
    dense_sensitivities,
    linear_measurement_model,
    state_variance,
    wls_closed_form,
    wls_gain,
)


def _plan(net, sensors=(5, 17), sensor_sigma=0.01, pseudo_sigma=0.5, seed=7):
    return make_plan(
        n=net.n,
        sensor_nodes=sensors,
        sensor_fraction=None,
        placement_seed=0,
        sensor_sigma=sensor_sigma,
        pseudo_sigma=pseudo_sigma,
        pseudo_base=np.concatenate([net.p0, net.q0]),
        seed=seed,
    )


def _gain(est):
    """The estimator's WLS gain: its solve applied to each unit measurement."""
    return np.column_stack([est.solve(e) for e in np.eye(est.ns + 2 * est.n)])


def test_wls_identity_model(net33):
    # Without sensors H is the identity over the pseudo channels, so the
    # estimate is the measurement itself.
    est = WlsEstimator(_plan(net33, sensors=()), lindistflow(net33))
    y = np.random.default_rng(1).normal(size=64)
    assert np.allclose(est.solve(y), y, atol=1e-14)


def test_wls_weight_scaling_invariance(net33):
    # One factor on every channel's deviation scales all weights alike and
    # leaves the estimate unchanged.
    model = lindistflow(net33)
    plan = _plan(net33)
    plan_scaled = _plan(net33, sensor_sigma=0.01 * 37.5, pseudo_sigma=0.5 * 37.5)
    est = WlsEstimator(plan, model)
    scaled = WlsEstimator(plan_scaled, model)
    assert np.allclose(
        plan_reference_sigmas(plan_scaled, model),
        37.5 * plan_reference_sigmas(plan, model),
        rtol=1e-14,
        atol=0.0,
    )
    y = np.random.default_rng(0).normal(size=est.ns + 64)
    assert np.abs(est.solve(y) - scaled.solve(y)).max() < 1e-12


def test_noiseless_consistency_33bus(net33):
    # Noiseless y generated by the linear model from a known state is
    # reproduced exactly regardless of the weights.
    model = lindistflow(net33)
    plan = _plan(net33)
    H, w = linear_measurement_model(plan, model)
    rng = np.random.default_rng(5)
    z_true = np.concatenate([net33.p0, net33.q0]) * rng.uniform(0.5, 1.5, 64)
    y = H @ z_true
    for z_hat in (WlsEstimator(plan, model).solve(y), wls_gain(H, w) @ y):
        assert np.abs(z_hat - z_true).max() < 1e-8


@pytest.mark.parametrize("method", ["lindistflow", "jacobian"])
def test_structured_solver_matches_dense_and_oracle(net33, method):
    # The Jacobian model is not symmetric, so this fails if U^T is applied
    # with A instead of A^T.
    model = linearize(net33, method)
    plan = _plan(net33, sensors=(2, 9, 30))
    H, w = linear_measurement_model(plan, model)
    est = WlsEstimator(plan, model)
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(size=H.shape[0])
        dense = wls_gain(H, w) @ y
        fast = est.solve(y)
        ref = wls_closed_form(H, w, y)
        assert np.abs(dense - fast).max() < 1e-10
        assert np.abs(fast - ref).max() < 1e-8


def test_gain_reproduces_consistent_measurements(net33):
    # Gamma H = I: the estimator reproduces any noiseless consistent y.
    model = lindistflow(net33)
    plan = _plan(net33)
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    GH = _gain(est) @ H
    assert np.abs(GH - np.eye(64)).max() < 1e-8


def test_variance_forms_agree(net33):
    # The Gamma^2 sigma^2 form of the estimator's own gain equals that of the
    # explicit gain and diag((H^T W H)^-1) for W = Sigma^-1.
    model = lindistflow(net33)
    plan = _plan(net33)
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    explicit = (wls_gain(H, w) ** 2 * (1.0 / w)).sum(axis=1)
    direct = state_variance(H, w)
    var = (_gain(est) ** 2 * (1.0 / w)).sum(axis=1)
    assert np.abs(var - explicit).max() < 1e-12 * np.abs(explicit).max() + 1e-15
    assert np.abs(var - direct).max() < 1e-8 * np.abs(direct).max()


@pytest.mark.parametrize(
    "method, size", [("lindistflow", 32), ("jacobian", 32), ("lindistflow", DENSE_LIMIT + 100)]
)
def test_voltage_variance_matches_dense_gain(net33, method, size):
    # Var(G z_hat) = diag(G Gamma Sigma Gamma^T G^T) from the explicit gain,
    # on dense models (symmetric and not) and on a PathSum model above the
    # threshold.
    net = net33 if size == 32 else synthetic_feeder(size, seed=4)
    model = linearize(net, method)
    assert isinstance(model.G, PathSum) == (size > DENSE_LIMIT)
    plan = _plan(net, sensors=tuple(range(3, net.n, max(1, net.n // 12))))
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    g_gain = dense_sensitivities(model) @ wls_gain(H, w)
    ref = (g_gain**2 / w).sum(axis=1)
    assert np.abs(est.voltage_variance() - ref).max() <= 1e-12 * ref.max()


def test_prepare_and_variance_stay_linear_in_memory():
    # One 4000 x 4000 float64 array is 128 MB; a run set-up on the 4000-node
    # feeder must never form one.
    net = synthetic_feeder(4000, seed=12)
    cfg = ScenarioConfig(
        network="synthetic-4000",
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=7e-4, eta=0.08),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=0),
        estimation_mode="linear",
        iterations=1,
    )
    tracemalloc.start()
    try:
        ctx = prepare(cfg, net=net)
        ctx.estimator.voltage_variance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.certificate.certified
    assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


def _operator_and_dense(n=400, stride=8):
    # LinDistFlow above DENSE_LIMIT (a PathSum G) and the same model with G
    # as a dense array, with enough sensors for several GRAM_BLOCKs.
    net = synthetic_feeder(n)
    model = lindistflow(net)
    dense = replace(model, G=dense_sensitivities(model))
    plan = _plan(net, sensors=tuple(range(3, net.n, stride)))
    return WlsEstimator(plan, model), WlsEstimator(plan, dense)


def test_operator_estimator_matches_dense_rows():
    op, ref = _operator_and_dense()
    assert isinstance(op.model.G, PathSum) and isinstance(ref.model.G, np.ndarray)
    assert op.ns > 4 * GRAM_BLOCK
    rng = np.random.default_rng(11)
    for _ in range(3):
        y = rng.normal(size=ref.ns + 2 * ref.n)
        want = ref.solve(y)
        assert np.abs(op.solve(y) - want).max() <= 1e-12 * np.abs(want).max()
    want = ref.voltage_variance()
    assert np.abs(op.voltage_variance() - want).max() <= 1e-12 * want.max()


def test_operator_lemma_matrix_matches_explicit_rows():
    # K = W_s^-1 + U D^-1 U^T, with U = [A_S B_S] formed explicitly.
    op, _ = _operator_and_dense()
    U = dense_sensitivities(op.model)[op.idx]
    want = np.diag(1.0 / op.w_sensor) + (U / op.w_pseudo) @ U.T
    # The estimator keeps L^-1 of K = L L^T, so L^-1 K L^-T is the identity.
    got = op._linv @ want @ op._linv.T
    assert np.abs(got - np.eye(op.ns)).max() <= 1e-12


def test_lemma_matrix_tree_passes_do_not_grow_with_sensors(monkeypatch):
    # K's sensor block comes from a fixed number of O(N) tree passes and an
    # O(ns^2) assembly: 8 and 64 sensors make the same kernel calls.
    net = synthetic_feeder(400)
    model = lindistflow(net)
    calls = []
    for name in ("_path", "_subtree"):
        real = getattr(PathSum, name)
        monkeypatch.setattr(
            PathSum, name, lambda self, x, real=real: calls.append(1) or real(self, x)
        )
    counts = []
    for ns, stride in ((8, 50), (64, 6)):
        calls.clear()
        est = WlsEstimator(_plan(net, sensors=tuple(range(1, ns * stride, stride))), model)
        assert est.ns == ns
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _sensed_feeder(ns):
    # ns sensors on the 33-bus feeder (ns = 3), the 400-node and the
    # 4000-node synthetic feeders (PathSum models).
    if ns == 3:
        net = load_network(resolve_network("ieee33"))
        return net, _plan(net, sensors=(5, 17, 30))
    net = synthetic_feeder(400 if ns <= 50 else 4000, seed=12)
    return net, _plan(net, sensors=tuple(range(3, 3 + 7 * ns, 7)))


@pytest.mark.parametrize("ns", [3, 50, 144])
def test_solve_matches_cho_solve_on_the_same_lemma_matrix(monkeypatch, ns):
    # The factor is applied as L^-T (L^-1 b). Against scipy's cho_solve on
    # the K the estimator factored, the update D^-1 U^T K^-1 (y_s - U y_p)
    # agrees within 1e-12 relative; non-finite input raises.
    net, plan = _sensed_feeder(ns)
    seen = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda K: seen.append(K.copy()) or cholesky(K))
    est = WlsEstimator(plan, lindistflow(net))
    monkeypatch.undo()
    (K,) = seen
    assert est.ns == ns
    # The sensor rows U = G_S, through the transposed operator.
    E = np.zeros((net.n, ns))
    E[est.idx, np.arange(ns)] = 1.0
    U = (est.model.G.T @ E).T
    y = np.random.default_rng(5).normal(size=ns + 2 * net.n)
    y_s, y_p = y[:ns], y[ns:]
    want = U.T @ sla.cho_solve(sla.cho_factor(K, lower=True), y_s - U @ y_p) / est.w_pseudo
    got = est.solve(y) - y_p
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for bad in (np.nan, np.inf):
        y_bad = y.copy()
        y_bad[-1] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="infs or NaNs"):
                est.solve(y_bad)


def test_singular_lemma_matrix_raises(monkeypatch, net33):
    # K = W_s^-1 + U D^-1 U^T is zero for exact sensors (zero deviation) on
    # a model with zero sensitivities: reported, not factored.
    model = lindistflow(net33)
    model = replace(model, G=np.zeros_like(model.G))
    plan = _plan(net33)
    sigmas = plan_reference_sigmas(plan, model)
    sigmas[: len(plan.sensor_nodes)] = 0.0
    monkeypatch.setattr(estimator_mod, "plan_reference_sigmas", lambda *_: sigmas)
    with np.errstate(divide="ignore"):
        with pytest.raises(EstimationError, match="singular lemma matrix"):
            WlsEstimator(plan, model)


# Prints, per sensor count, the sha256 of a solve with the factor read
# from the directory in argv[1].
_THREAD_SOLVE = """
import hashlib, sys
import numpy as np
from gridloop.estimator import WlsEstimator
from gridloop.feeders import synthetic_feeder
from gridloop.linearizer import lindistflow
from gridloop.sensing import make_plan
net = synthetic_feeder(4000, seed=12)
for ns in (144, 432):
    plan = make_plan(net.n, tuple(range(3, 3 + 7 * ns, 7)), None, 0, 0.01, 0.5, np.concatenate([net.p0, net.q0]), 7)
    est = WlsEstimator(plan, lindistflow(net))
    est._linv = np.load(sys.argv[1] + f"/linv{ns}.npy")
    y = np.random.default_rng(ns).normal(size=ns + 2 * net.n)
    print(ns, hashlib.sha256(est.solve(y).tobytes()).hexdigest())
"""


def test_solve_bits_do_not_depend_on_blas_threads(tmp_path):
    # The factor's bits depend on the BLAS thread count from about 128
    # sensors up, as LAPACK's do; applying a fixed factor does not: at 144
    # and 432 sensors, the same bytes with one BLAS thread and with two.
    for ns in (144, 432):
        net, plan = _sensed_feeder(ns)
        np.save(tmp_path / f"linv{ns}.npy", WlsEstimator(plan, lindistflow(net))._linv)
    src = str(Path(estimator_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = [
        subprocess.run(
            [sys.executable, "-c", _THREAD_SOLVE, str(tmp_path)],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outs[0].splitlines()) == 2
    assert outs[0] == outs[1]


# Prints the sha256 of the voltage variance on a 12000-node feeder with
# 3.6% sensors (432).
_THREAD_VARIANCE = """
import hashlib
import numpy as np
from gridloop.estimator import WlsEstimator
from gridloop.feeders import synthetic_feeder
from gridloop.linearizer import lindistflow
from gridloop.sensing import make_plan
net = synthetic_feeder(12000, seed=12)
plan = make_plan(net.n, None, 0.036, 0, 0.01, 0.5, np.concatenate([net.p0, net.q0]), 0)
est = WlsEstimator(plan, lindistflow(net))
print(est.ns, hashlib.sha256(est.voltage_variance().tobytes()).hexdigest())
"""


def test_variance_bits_do_not_depend_on_blas_threads():
    # The tree smoother makes no BLAS call, so the variance, and with it
    # every voltage_ci_halfwidth_99, has the same bytes with one BLAS
    # thread and with two, at a sensor count where K's factor does not.
    src = str(Path(estimator_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = [
        subprocess.run(
            [sys.executable, "-c", _THREAD_VARIANCE],
            env={**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0].split()[0] == "432"
    assert outs[0] == outs[1]


def test_operator_estimator_keeps_no_sensor_rows():
    # On the 4000-node feeder U = [A_S B_S] is 144 x 8000, 9.2 MB. The
    # estimator applies it through the tree kernel and keeps less than an
    # eighth of that; its blocked set-up never holds half of it at once.
    net = synthetic_feeder(4000, seed=12)
    model = lindistflow(net)
    plan = make_plan(
        n=net.n, sensor_nodes=None, sensor_fraction=0.036, placement_seed=0,
        sensor_sigma=0.01, pseudo_sigma=0.5, pseudo_base=np.concatenate([net.p0, net.q0]), seed=0,
    )
    rows_bytes = len(plan.sensor_nodes) * 2 * net.n * 8
    tracemalloc.start()
    try:
        est = WlsEstimator(plan, model)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.ns == 144
    assert retained < rows_bytes / 8, f"retained {retained / 1e6:.2f} MB"
    assert peak < rows_bytes / 2, f"peak {peak / 1e6:.2f} MB"


def test_extra_sensor_never_hurts(net33):
    # Information monotonicity: adding a sensor cannot raise any variance.
    model = lindistflow(net33)
    base = WlsEstimator(_plan(net33, sensors=(5, 17)), model)
    more = WlsEstimator(_plan(net33, sensors=(5, 12, 17)), model)
    assert (more.voltage_variance() <= base.voltage_variance() + 1e-15).all()


def test_unbiased_and_variance_monte_carlo(net33):
    # y = H z + xi with xi ~ N(0, diag(sigma^2)): check bias against its
    # standard error and the empirical variance against the analytic one.
    model = lindistflow(net33)
    plan = _plan(net33)
    est = WlsEstimator(plan, model)
    H, w = linear_measurement_model(plan, model)
    var = state_variance(H, w)
    sigma = plan_reference_sigmas(plan, model)
    z_true = np.concatenate([net33.p0, net33.q0])
    y0 = H @ z_true
    rng = np.random.default_rng(123)
    trials = 2000
    zs = np.empty((trials, 64))
    for t in range(trials):
        y = y0 + sigma * rng.standard_normal(sigma.size)
        zs[t] = est.solve(y)
    bias = zs.mean(axis=0) - z_true
    stderr = np.sqrt(var / trials)
    assert (np.abs(bias) <= 4 * stderr).all()
    ratio = zs.var(axis=0, ddof=1) / var
    assert np.abs(ratio - 1).max() < 0.15


def test_estimate_voltages_consistency(net33):
    model = lindistflow(net33)
    sol = solve_power_flow(net33, net33.p0, net33.q0)
    z = np.concatenate([net33.p0, net33.q0])
    r_nl, fb = estimate_voltages(z, net33, model, mode="nonlinear")
    assert not fb
    assert np.abs(r_nl - sol.v_mag).max() < 1e-12
    r_lin, fb = estimate_voltages(z, net33, model, mode="linear")
    assert not fb
    assert np.abs(r_lin - sol.v_mag).max() <= 0.01


def test_estimate_voltages_zero_state(net33):
    model = lindistflow(net33)
    z = np.zeros(64)
    for mode in ("nonlinear", "linear"):
        r, fb = estimate_voltages(z, net33, model, mode=mode)
        assert not fb
        assert np.allclose(r, 1.0, atol=1e-12)


def test_estimate_voltages_fallback_flag(net33):
    model = lindistflow(net33)
    z = np.concatenate([net33.p0 * 400, net33.q0 * 400])
    r, fb = estimate_voltages(z, net33, model, mode="nonlinear")
    assert fb
    assert np.array_equal(r, eval_linear(model, z))


def test_full_estimation_pipeline_with_batch(net33):
    # Exact sensors (floored deviation, huge weight) against noisy pseudo
    # channels: the estimate must fit the sensor rows almost exactly while the
    # remaining freedom stays near the nominal pattern.
    model = lindistflow(net33)
    plan = _plan(net33, sensors=(5, 17), sensor_sigma=0.0, pseudo_sigma=0.5)
    est = WlsEstimator(plan, model)
    truth = solve_power_flow(net33, net33.p0, net33.q0)
    y = sample_measurements(plan, truth.v_mag, iter=0)
    assert y[0] == truth.v_mag[4] and y[1] == truth.v_mag[16]
    z_hat = est.solve(est.adjust(y))
    sensed = eval_linear(model, z_hat)[[4, 16]]
    assert np.abs(sensed - truth.v_mag[[4, 16]]).max() < 1e-5
    nominal = np.concatenate([net33.p0, net33.q0])
    assert np.abs(z_hat - nominal).max() < 0.2


def test_estimate_voltages_rejects_nonfinite(net33):
    model = lindistflow(net33)
    z = np.full(64, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_voltages(z, net33, model)
