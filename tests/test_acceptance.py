"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridloop.cli import load_scenario, main
from gridloop.controller import ControllerConfig
from gridloop.estimator import WlsEstimator
from gridloop.feeders import synthetic_feeder
from gridloop.harness import (
    CostSpec,
    PlanSpec,
    ScenarioConfig,
    prepare,
    run_baseline_comparison,
    run_closed_loop,
    tightened_bound_experiment,
    verify_error_bound,
)
from gridloop.linearizer import eval_linear, lindistflow
from gridloop.plant import solve_power_flow
from gridloop.sensing import plan_reference_sigmas

from oracles import linear_measurement_model, state_variance

SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def _verdict(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {label}: {status}{suffix}"
    print(line)
    # Bypass pytest's capture so the verdict lines always reach the console.
    import sys

    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    return ok


def test_criterion_1_contraction():
    started = time.perf_counter()
    cfg = load_scenario(SCEN / "ieee33_contraction.json")
    ctx = prepare(cfg)
    trace = run_closed_loop(ctx)
    d = trace.dist_to_saddle
    eps = max(cfg.controller.eps_primal, cfg.controller.eps_dual)
    bound = np.sqrt(ctx.certificate.delta(eps)) + 1e-6
    ratios = d[1:] / d[:-1]
    elapsed = time.perf_counter() - started
    ok = bool((ratios[10:] <= bound).all()) and elapsed < 10.0
    assert _verdict(
        "1 contraction",
        ok,
        f"max ratio {ratios[10:].max():.8f} vs bound {bound:.8f}, {elapsed:.1f}s",
    )


def test_criterion_2_error_bound():
    started = time.perf_counter()
    cfg = load_scenario(SCEN / "ieee33_bound.json")
    ctx = prepare(cfg)
    rep = verify_error_bound(ctx, (run_closed_loop(ctx, t) for t in range(cfg.trials)))

    half = replace(
        cfg,
        controller=ControllerConfig(
            eps_primal=cfg.controller.eps_primal / 2,
            eps_dual=cfg.controller.eps_dual / 2,
            eta=cfg.controller.eta,
            v_min=cfg.controller.v_min,
            v_max=cfg.controller.v_max,
        ),
    )
    ctx_half = prepare(half)
    rep_half = verify_error_bound(
        ctx_half, (run_closed_loop(ctx_half, t) for t in range(half.trials))
    )
    elapsed = time.perf_counter() - started
    ok = (
        rep.satisfied
        and rep_half.satisfied
        and rep_half.bound < rep.bound
        and rep_half.empirical < rep.empirical
        and elapsed < 300.0
    )
    assert _verdict(
        "2 stochastic error bound",
        ok,
        f"empirical {rep.empirical:.3e} <= bound {rep.bound:.3e}; "
        f"half-eps {rep_half.empirical:.3e} <= {rep_half.bound:.3e}; {elapsed:.0f}s",
    )


def test_criterion_3_wls_statistics(net33):
    model = lindistflow(net33)
    cfg = load_scenario(SCEN / "ieee33_regulation.json")
    ctx = prepare(cfg)
    est = WlsEstimator(ctx.plan, model)
    H, w = linear_measurement_model(ctx.plan, model)
    var = state_variance(H, w)
    sigma = plan_reference_sigmas(ctx.plan, model)
    z_true = np.concatenate([net33.p0, net33.q0])
    y0 = H @ z_true
    rng = np.random.default_rng(20240501)
    trials = 10_000
    c99 = 2.576
    zs = np.empty((trials, 64))
    covered = 0
    for t in range(trials):
        y = y0 + sigma * rng.standard_normal(sigma.size)
        z = est.solve(y)
        zs[t] = z
        covered += int(np.count_nonzero(np.abs(z - z_true) <= c99 * np.sqrt(var)))
    bias = zs.mean(axis=0) - z_true
    stderr = np.sqrt(var / trials)
    bias_ok = bool((np.abs(bias) <= 4 * stderr).all())
    var_ratio = zs.var(axis=0, ddof=1) / var
    var_ok = bool(np.abs(var_ratio - 1).max() <= 0.10)
    coverage = covered / (trials * 64)
    cov_ok = 0.985 <= coverage <= 0.995
    assert _verdict(
        "3 WLS statistics",
        bias_ok and var_ok and cov_ok,
        f"max |bias|/SE {(np.abs(bias) / stderr).max():.2f}, "
        f"var ratio off by {np.abs(var_ratio - 1).max():.3f}, coverage {coverage:.4f}",
    )


def test_criterion_4_estimation_error_comparison():
    cfg = load_scenario(SCEN / "ieee33_compare.json")
    rep = run_baseline_comparison(prepare(cfg))
    se = rep.running_avg_mean["se_loop"]
    raw = rep.running_avg_mean["raw_measurements"]
    pseudo = rep.running_avg_mean["pseudo_only"]
    ok = bool((se[100:] < raw[100:]).all() and (se[100:] < pseudo[100:]).all())
    assert _verdict(
        "4 estimation-error comparison",
        ok,
        f"error ratio vs raw {rep.reduction_vs_raw:.3f}, vs pseudo {rep.reduction_vs_pseudo:.3f}",
    )


def test_criterion_5_voltage_regulation(net33):
    # Precondition: the uncontrolled feeder is in a real under-voltage state.
    sol = solve_power_flow(net33, net33.p0, net33.q0)
    frac_below = (sol.v_mag < 0.95).mean()
    assert frac_below >= 0.25

    cfg = load_scenario(SCEN / "ieee33_regulation.json")
    ctx = prepare(cfg)
    trace = run_closed_loop(ctx)
    v_final = trace.v_true[-1]
    reg_ok = bool((v_final >= 0.95 - 0.005).mean() >= 0.99)

    tight = tightened_bound_experiment(ctx, 2.576, trace.summary)
    zero_viol = tight.tightened_violations == 0
    cost_up = tight.tightened_cost > tight.base_cost
    assert _verdict(
        "5 voltage regulation + tightening",
        reg_ok and zero_viol and cost_up,
        f"uncontrolled {frac_below:.0%} below 0.95; regulated min {v_final.min():.4f}; "
        f"tightened v_min {tight.v_min_tightened:.4f}, violations {tight.tightened_violations}, "
        f"cost {tight.base_cost:.4f} -> {tight.tightened_cost:.4f}",
    )


def test_criterion_6_noiseless_equivalence():
    cfg = load_scenario(SCEN / "ieee33_regulation.json")
    cfg = replace(
        cfg,
        plan=PlanSpec(
            sensor_nodes=tuple(range(1, 33)),
            sensor_fraction=None,
            sensor_sigma=0.0,
            pseudo_sigma=0.0,
        ),
        iterations=500,
    )
    se = run_closed_loop(prepare(cfg))
    fx = run_closed_loop(prepare(replace(cfg, feedback_mode="full_exact")))
    diff = max(
        np.abs(se.p - fx.p).max(),
        np.abs(se.q - fx.q).max(),
        np.abs(se.r_hat - fx.r_hat).max(),
        np.abs(se.v_true - fx.v_true).max(),
        np.abs(se.mu_lower_norm - fx.mu_lower_norm).max(),
        np.abs(se.mu_upper_norm - fx.mu_upper_norm).max(),
    )
    assert _verdict("6 noiseless equivalence", diff <= 1e-12, f"max abs diff {diff:.2e}")


def test_criterion_7_linearization_quality(net33):
    model = lindistflow(net33)
    rng = np.random.default_rng(7331)
    worst = 0.0
    for _ in range(200):
        p = rng.uniform(-1.5, 1.5, 32) * np.abs(net33.p0)
        q = rng.uniform(-1.5, 1.5, 32) * np.abs(net33.q0)
        sol = solve_power_flow(net33, p, q)
        assert sol.converged
        worst = max(worst, float(np.abs(eval_linear(model, np.concatenate([p, q])) - sol.v_mag).max()))
    assert _verdict("7 linearization quality", worst <= 0.01, f"max error {worst:.4f} pu")


def test_criterion_8_scalability_smoke():
    started = time.perf_counter()
    net = synthetic_feeder(4000, seed=12)
    base = solve_power_flow(net, net.p0, net.q0)
    assert base.converged
    cfg = ScenarioConfig(
        network="synthetic-4000",
        controller=ControllerConfig(
            eps_primal=7e-4,
            eps_dual=1e-3,
            eta=0.08,
            v_min=float(round(base.v_mag.min() + 0.002, 4)),
            v_max=1.05,
        ),
        cost=CostSpec(alpha=5e-4),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=2),
        feedback_mode="se_loop",
        estimation_mode="linear",
        iterations=100,
        allow_uncertified=True,
    )
    ctx = prepare(cfg, net=net)
    assert ctx.estimator is not None  # factorization built once, reused below
    trace = run_closed_loop(ctx)
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0 and trace.iterations == 100
    assert _verdict("8 scalability smoke", ok, f"{elapsed:.1f}s for 4000 nodes x 100 iterations")


def test_criterion_9_determinism(tmp_path):
    ok = True
    details = []
    for scen, overrides in [
        ("twobus.json", []),
        ("ieee33_regulation.json", ["--set", "iterations=200"]),
    ]:
        a_dir, b_dir = tmp_path / f"a_{scen}", tmp_path / f"b_{scen}"
        assert main(["run", str(SCEN / scen), "--out", str(a_dir), *overrides]) == 0
        assert main(["run", str(SCEN / scen), "--out", str(b_dir), *overrides]) == 0
        ha = hashlib.sha256((a_dir / "trace.csv").read_bytes()).hexdigest()
        hb = hashlib.sha256((b_dir / "trace.csv").read_bytes()).hexdigest()
        ok = ok and ha == hb
        details.append(f"{scen}: {'identical' if ha == hb else 'DIFFER'}")
    assert _verdict("9 determinism", ok, "; ".join(details))
