"""The closed loop of ``harness.run_closed_loop`` against
``oracles.reference_loop``, which composes the same loop from the
independent references alone: Newton power flow, fresh Philox generators,
the dense least-squares WLS and the controller's step written out.

The two loops solve every power flow to a different stopping rule, so they
agree only to a tolerance, derived in :func:`_tolerances` from those rules
and the step-size certificate, not from the observed gaps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridloop.cli import load_scenario
from gridloop.controller import ControllerConfig
from gridloop.feeders import synthetic_feeder
from gridloop.harness import PlanSpec, ScenarioConfig, prepare, run_closed_loop
from gridloop.plant import solve_power_flow
from oracles import (
    REFERENCE_RULES,
    dense_sensitivities,
    full_ybus,
    linear_measurement_model,
    newton_power_flow,
    reference_loop,
    wls_gain,
)

SCEN = Path(__file__).resolve().parents[1] / "scenarios"
# The sweep's stopping rule: the worst complex power mismatch |ds_i|.
SWEEP_TOL = 1e-10
# Newton's, relative to each row's mismatch_scale: 45 ulps, where its
# rounding leaves about one on these feeders.
NEWTON_TOL = 1e-14
# A unit voltage's rounding, 1000 ulps: the two WLS solves (least squares
# against the lemma update) and the sensitivity products round differently.
ROUNDING = 1e3 * 2.0**-52
# Safety factor over the first-order bounds below.
SAFETY = 10.0
# A standard normal draw lies within 6 deviations (outside with probability
# 2e-9 per draw).
XI_MAX = 6.0


def _row_sum(m: np.ndarray) -> float:
    """Max absolute row sum, the operator norm induced by the max norm."""
    return float(np.abs(m).sum(axis=1).max())


def _power_flow_gap(net, v_lo: float, v_hi: float, newton_tol: float) -> float:
    """e_pf, how far apart two solves of one operating point put the
    voltage magnitudes, where they lie in [v_lo, v_hi].

    The sweep stops at a worst complex mismatch of ``SWEEP_TOL``; Newton
    where the real and imaginary parts of each mismatch lie within
    ``newton_tol`` times the row's ``mismatch_scale`` |V_i| sum_j |Y_ij|
    |V_j| <= v_hi^2 y_i, y_i = sum_j |Y_ij|, so |ds_i| <= sqrt(2)
    newton_tol v_hi^2 y_i there. To first order a mismatch ds moves the
    voltages by Z conj(ds / v), Z the inverse of the reduced bus admittance
    matrix, so

        e_pf = (||Z||_inf SWEEP_TOL + sqrt(2) newton_tol v_hi^2 || |Z| y ||_inf) / v_lo,

    ||.||_inf the max absolute row sum or entry.
    """
    Y = full_ybus(net)
    Z = np.abs(np.linalg.inv(Y[1:, 1:]))
    newton = math.sqrt(2.0) * newton_tol * v_hi**2 * float((Z @ np.abs(Y[1:]).sum(axis=1)).max())
    return (_row_sum(Z) * SWEEP_TOL + newton) / v_lo


def _tolerances(ctx, ref: dict, newton_tol: float) -> dict:
    """Worst gap per trace field between the package's loop and the reference.

    One power flow, :func:`_power_flow_gap`: two solves of one operating
    point give voltage magnitudes within e_pf.

    The feedback. The voltage vector the dual step reads then differs by
    delta_r = gamma e_pf + ROUNDING: gamma = 1 for the truth, 1 + 6 sigma
    for the raw readings (sigma the sensor noise), 0 for the linear model,
    and for the estimate 1 + (1 + 6 sigma) ||G Gamma_s||_inf: the
    reconstruction's own solve plus the sensor readings' error carried
    through the WLS gain's sensor columns Gamma_s and the sensitivity G
    (the linear reconstruction's solve-free 0 is bounded by the 1).

    The iterates. A feedback gap enters the duals as eps_dual delta_r per
    iteration, and the certified map contracts every gap by
    c = sqrt(delta(eps)) < 1 per step, so at every iteration the iterates
    (p, q, mu) differ by at most the geometric sum

        e_x = eps_dual delta_r / (1 - c).

    The plant's voltages then differ by at most e_pf + ||G||_inf e_x, and
    the feedback by gamma of that plus ROUNDING, or ||G||_inf e_x for the
    linear model. Each bound is first order, so the tolerance is
    ``SAFETY`` times it.
    """
    cfg, net, model = ctx.cfg, ctx.net, ctx.model
    sigma = cfg.plan.sensor_sigma
    v_true = ref["v_true"]
    e_pf = _power_flow_gap(net, float(v_true.min()), max(net.v0, float(v_true.max())), newton_tol)
    G = dense_sensitivities(model)
    g = _row_sum(G)
    rule = REFERENCE_RULES[cfg.feedback_mode]
    if rule == "estimate":
        H, w = linear_measurement_model(ctx.plan, model)
        ns = len(ctx.plan.sensor_nodes)
        gain = _row_sum(G @ wls_gain(H, w)[:, :ns]) if ns else 0.0
        gamma = 1.0 + (1.0 + XI_MAX * sigma) * gain
    else:
        gamma = {"truth": 1.0, "raw": 1.0 + XI_MAX * sigma, "linear": 0.0}[rule]
    cert = ctx.require_certificate()
    e_x = cfg.controller.eps_dual * (gamma * e_pf + ROUNDING) / (1.0 - math.sqrt(cert.delta()))
    v_gap = e_pf + g * e_x
    r_gap = g * e_x if rule == "linear" else gamma * v_gap + ROUNDING
    state = dict.fromkeys(("p", "q", "mu_lower", "mu_upper"), SAFETY * e_x)
    return {**state, "v_true": SAFETY * v_gap, "r_hat": SAFETY * r_gap}


def _check(ctx, trial: int, newton_tol: float) -> None:
    trace = run_closed_loop(ctx, trial)
    ref = reference_loop(ctx, trial, newton_tol)
    tol = _tolerances(ctx, ref, newton_tol)
    for name, rows in ref.items():
        gap = float(np.abs(getattr(trace, name) - rows).max())
        assert gap <= tol[name], f"{name}: gap {gap:.3e} above {tol[name]:.3e}"


@pytest.mark.parametrize(
    "mode, pseudo_fixed",
    [
        ("se_loop", False),
        ("raw_measurements", False),
        ("full_exact", False),
        ("pseudo_only", True),
        ("linear_model", False),
    ],
)
def test_loop_matches_reference_on_ieee33(mode, pseudo_fixed):
    # The headline scenario, shortened: its band binds from the start, so
    # the duals steer the injections within a few iterations.
    cfg = load_scenario(SCEN / "ieee33_regulation.json")
    plan = replace(cfg.plan, pseudo_fixed=pseudo_fixed)
    _check(prepare(replace(cfg, feedback_mode=mode, plan=plan, iterations=150)), 1, NEWTON_TOL)


def test_loop_matches_reference_on_path_sum_feeder():
    # 400 nodes put the model and the estimator on PathSum operators. The
    # band sits 0.002 pu above the nominal minimum voltage, so it binds at
    # once.
    net = synthetic_feeder(400, seed=12)
    v_min = round(float(solve_power_flow(net, net.p0, net.q0).v_mag.min()) + 0.002, 4)
    cfg = ScenarioConfig(
        network="synthetic",
        controller=ControllerConfig(eps_primal=1e-3, eps_dual=1e-3, eta=0.08, v_min=v_min),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=0),
        estimation_mode="linear",
        iterations=6,
    )
    _check(prepare(cfg, net), 0, NEWTON_TOL)


def test_newton_oracle_converges_on_path_sum_feeder():
    # Line admittances reach 1.8e4 here, so the rounding of Newton's
    # mismatch sum(Y v) lies between 1e-12 and 3e-12: an absolute 1e-12
    # stop was never met. The stop relative to each row's scale is, and the
    # oracle and the sweep agree within the first-order bound.
    net = synthetic_feeder(400, seed=12)
    sol = solve_power_flow(net, net.p0, net.q0)
    v = np.abs(newton_power_flow(net, net.p0, net.q0, tol=NEWTON_TOL))
    bound = _power_flow_gap(net, float(v.min()), max(net.v0, float(v.max())), NEWTON_TOL)
    assert np.abs(sol.v_mag - v).max() <= SAFETY * bound
