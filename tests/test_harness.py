from __future__ import annotations

import builtins
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridloop
import gridloop.harness as harness_mod
from gridloop import floatfmt
from gridloop.cli import load_scenario
from gridloop.controller import ControllerConfig, primal_grad, primal_step
from gridloop.harness import (
    BoundReport,
    CertificateError,
    CostSpec,
    HarnessError,
    PlanSpec,
    PlantDivergence,
    ScenarioConfig,
    SimulationTrace,
    prepare,
    run_baseline_comparison,
    run_closed_loop,
    run_trials,
    saddle_oracle,
    tightened_bound_experiment,
    verify_error_bound,
)
from gridloop.feeders import synthetic_feeder
from gridloop.linearizer import eval_linear
from gridloop.netmodel import PathSum, build_network, network_document
from gridloop.plant import solve_power_flow
from oracles import lbfgsb_saddle, reference_bound_terms, reference_trace_statistics

SCEN = Path(__file__).resolve().parents[1] / "scenarios"
TWOBUS = SCEN / "networks" / "twobus.json"


def _cfg33(**kw) -> ScenarioConfig:
    base = dict(
        network="ieee33",
        controller=ControllerConfig(
            eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.95, v_max=1.05
        ),
        cost=CostSpec(alpha=5e-4),
        plan=PlanSpec(sensor_fraction=0.15, placement_seed=1),
        iterations=300,
        base_seed=3,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _cfg2(**kw) -> ScenarioConfig:
    base = dict(
        network=str(TWOBUS),
        controller=ControllerConfig(
            eps_primal=2e-3, eps_dual=2e-3, eta=0.05, v_min=0.999, v_max=1.05
        ),
        cost=CostSpec(alpha=0.0),
        plan=PlanSpec(sensor_nodes=(1,), sensor_fraction=None),
        iterations=200,
        base_seed=0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def _audit(cfg: ScenarioConfig) -> BoundReport:
    """Bound audit over the trials of ``cfg``, one trace in memory at a time."""
    ctx = prepare(cfg)
    return verify_error_bound(ctx, (run_closed_loop(ctx, t) for t in range(cfg.trials)))


def test_scenario_roundtrip(tmp_path):
    cfg = _cfg33(tighten_ci=2.576, track_saddle=True, trials=3)
    raw = cfg.to_dict()
    again = ScenarioConfig.from_dict(json.loads(json.dumps(raw)))
    assert again == cfg
    assert again.to_dict() == raw


def test_certificate_enforced():
    cfg = _cfg33(controller=ControllerConfig(eps_primal=1.0, eps_dual=1.0, eta=0.08))
    with pytest.raises(CertificateError, match="eps_max"):
        prepare(cfg)
    prepare(replace(cfg, allow_uncertified=True))


def test_trace_determinism():
    cfg = _cfg33(iterations=120)
    a = run_closed_loop(prepare(cfg))
    b = run_closed_loop(prepare(cfg))
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.r_hat, b.r_hat)
    assert np.array_equal(a.se_err_mean, b.se_err_mean)
    c = run_closed_loop(prepare(replace(cfg, base_seed=4)))
    assert not np.array_equal(a.r_hat, c.r_hat)


def test_mode_collapse_bitwise():
    # Full noiseless sensors: se_loop is exactly full_exact, per iteration.
    cfg = _cfg33(
        plan=PlanSpec(
            sensor_nodes=tuple(range(1, 33)),
            sensor_fraction=None,
            sensor_sigma=0.0,
            pseudo_sigma=0.0,
        ),
        iterations=200,
    )
    se = run_closed_loop(prepare(cfg))
    fx = run_closed_loop(prepare(replace(cfg, feedback_mode="full_exact")))
    for field in ("p", "q", "v_true", "r_hat", "mu_lower_norm", "mu_upper_norm"):
        assert np.array_equal(getattr(se, field), getattr(fx, field)), field


@pytest.mark.parametrize("mode", ["se_loop", "raw_measurements"])
def test_noiseless_full_coverage_reads_truth_without_sampling(monkeypatch, mode):
    # Noiseless sensors on every node read the truth, so the feedback is
    # the truth rule: no sample is drawn and the run is full_exact's.
    plan = PlanSpec(sensor_nodes=tuple(range(1, 33)), sensor_fraction=None, sensor_sigma=0.0)
    cfg = _cfg33(plan=plan, iterations=40, feedback_mode=mode)
    fx = run_closed_loop(prepare(replace(cfg, feedback_mode="full_exact")))

    def no_sample(*args, **kwargs):
        raise AssertionError("sampled under noiseless full coverage")

    monkeypatch.setattr(harness_mod, "sample_measurements", no_sample)
    run = run_closed_loop(prepare(cfg))
    for field in ("p", "q", "v_true", "r_hat", "mu_lower_norm", "mu_upper_norm"):
        assert np.array_equal(getattr(run, field), getattr(fx, field)), field


@pytest.mark.parametrize("estimation_mode", ["nonlinear", "linear"])
def test_pseudo_only_is_se_loop_without_sensors(estimation_mode):
    cfg = _cfg33(iterations=60, estimation_mode=estimation_mode)
    pseudo = prepare(replace(cfg, feedback_mode="pseudo_only"))
    sensorless = prepare(replace(cfg, plan=replace(cfg.plan, sensor_nodes=(), sensor_fraction=None)))
    assert pseudo.plan.sensor_nodes == ()
    assert np.array_equal(pseudo.voltage_variance, sensorless.voltage_variance)
    a, b = run_closed_loop(pseudo), run_closed_loop(sensorless)
    for f in fields(SimulationTrace):
        if f.name != "summary":
            assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name


def test_parallel_trials_reuse_prepared_context(monkeypatch):
    # Every trial runs on the given context, in trial order: a trial that
    # re-ran prepare fails.
    cfg = _cfg33(iterations=5, trials=2)
    ctx = prepare(cfg)

    def no_prepare(*args, **kwargs):
        raise AssertionError("prepare re-run in a trial")

    monkeypatch.setattr(harness_mod, "prepare", no_prepare)
    traces = run_trials(ctx)
    assert [tr.summary["trial"] for tr in traces] == [0, 1]


def test_plant_divergence_diagnostic():
    cfg = _cfg2(load_scale=500.0, feedback_mode="full_exact", allow_uncertified=True)
    with pytest.raises(PlantDivergence, match="iteration 0"):
        run_closed_loop(prepare(cfg))


# ---------------------------------------------------------------------------
# Saddle oracle


def test_saddle_oracle_unconstrained_two_bus():
    cfg = _cfg2(
        controller=ControllerConfig(eps_primal=2e-3, eps_dual=2e-3, eta=0.05, v_min=0.9, v_max=1.1)
    )
    xs = saddle_oracle(prepare(cfg))
    assert xs.z == pytest.approx([-0.1, -0.05], abs=1e-9)
    assert xs.mu_lower.max() == 0.0
    assert xs.mu_upper.max() == 0.0


def _binding_feeder_cfg(n: int, **kw) -> ScenarioConfig:
    """``synthetic_feeder(n, 12)`` with ``v_min`` 0.002 pu above its nominal
    minimum voltage, so the band binds at the saddle point."""
    net = synthetic_feeder(n, seed=12)
    v_min = float(solve_power_flow(net, net.p0, net.q0).v_mag.min()) + 0.002
    base = dict(
        network=f"synthetic-{n}",
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=7e-4, eta=0.08, v_min=v_min),
        iterations=1,
    )
    base.update(kw)
    return ScenarioConfig(**base), net


def test_saddle_oracle_binding_satisfies_kkt():
    # The two-bus feeder (dense A and B) and a 400-node feeder above
    # DENSE_LIMIT, where G = [A B] is applied through PathSum operators.
    cfg, net = _binding_feeder_cfg(400)
    feeder = prepare(cfg, net=net)
    assert isinstance(feeder.model.G, PathSum)
    for ctx in (prepare(_cfg2()), feeder):
        xs = saddle_oracle(ctx)
        cfgc = ctx.cfg.controller
        active = xs.mu_lower > 0.0
        assert active.any()
        r = eval_linear(ctx.model, xs.z)
        # Regularized dual stationarity: eta mu = v_min - r on the active set.
        assert np.abs(cfgc.v_min - r[active] - cfgc.eta * xs.mu_lower[active]).max() <= 1e-10
        # Primal stationarity: a projected step does not move the point.
        stepped = primal_step(xs, primal_grad(xs, ctx.cost, ctx.model), ctx.net, cfgc)
        assert np.abs(stepped.z - xs.z).max() < 1e-10


def test_saddle_oracle_start_independent():
    cfg = _cfg33(iterations=10)
    ctx = prepare(cfg)
    a = saddle_oracle(ctx)
    b = saddle_oracle(replace(ctx, cfg=replace(cfg, base_seed=99)))
    assert np.abs(a.as_vector() - b.as_vector()).max() < 1e-8


def _saddle_case(label: str):
    """The scenario and network (None for a named one) of a saddle case."""
    if label == "twobus":
        return _cfg2(), None
    if label.startswith("ieee33"):
        v_min = float(label.split("-")[1])
        cfgc = ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=v_min, v_max=1.05)
        return _cfg33(controller=cfgc, iterations=10), None
    if label == "feeder400":
        return _binding_feeder_cfg(400)
    cfg, net = _binding_feeder_cfg(1000, allow_uncertified=True)
    return replace(cfg, controller=replace(cfg.controller, eta=1e-3)), net


@pytest.mark.parametrize(
    "label", ["twobus", "ieee33-0.915", "ieee33-0.95", "ieee33-0.97", "feeder400", "feeder1000-eta1e-3"]
)
def test_saddle_oracle_matches_lbfgsb_reference(label):
    # The projected Newton solve against scipy's L-BFGS-B and Newton-CG, on
    # dense models (two-bus, ieee33 with 0, 5 and 16 binding nodes) and on
    # PathSum models (one at eta = 1e-3, where mu = [g]_+ / eta magnifies
    # the primal gap a thousandfold).
    ctx = prepare(*_saddle_case(label))
    assert isinstance(ctx.model.G, PathSum) == label.startswith("feeder")
    xs = saddle_oracle(ctx)
    assert np.abs(xs.as_vector() - lbfgsb_saddle(ctx)).max() <= 1e-12


def test_saddle_oracle_raises_at_round_cap(monkeypatch):
    # An unsettled projected Newton solve is an error, not a silent answer.
    monkeypatch.setattr(harness_mod, "_NEWTON_ROUNDS", 1)
    ctx = prepare(_cfg33(iterations=10))
    with pytest.raises(HarnessError, match=r"round cap \(1\) unsettled, the last step size \S+ moving"):
        saddle_oracle(ctx)


def test_saddle_oracle_rejects_disk_sets(tmp_path):
    net_path = tmp_path / "disk.json"
    net_path.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [
                    {"id": 0},
                    {"id": 1, "p0": -0.1, "q0": -0.05, "pmin": -0.1, "pmax": 0.0,
                     "qmin": -0.05, "qmax": 0.0, "smax": 0.2},
                ],
                "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}],
            }
        )
    )
    cfg = _cfg2(network=str(net_path), allow_uncertified=True)
    with pytest.raises(HarnessError, match="box feasible sets"):
        saddle_oracle(prepare(cfg))


def test_loop_keeps_iterates_on_disk_capped_feeder():
    # Every node's apparent-power cap sits at 0.8 of its nominal |s0|, which
    # the nominal point lies outside: the start is its projection, every
    # row lands in box and disk, and the disk binds where the box alone would
    # not.
    doc = network_document(synthetic_feeder(400, seed=12))
    for node in doc["nodes"][1:]:
        node["smax"] = 0.8 * math.hypot(node["p0"], node["q0"])
    net = build_network(doc)
    cfg = ScenarioConfig(
        network="synthetic",
        controller=ControllerConfig(eps_primal=1e-3, eps_dual=1e-3, eta=0.08, v_min=0.95),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=0),
        estimation_mode="linear",
        iterations=8,
    )
    trace = run_closed_loop(prepare(cfg, net))
    pmin, pmax, qmin, qmax, smax = net.box
    p, q = trace.p, trace.q
    assert (p >= pmin - 1e-12).all() and (p <= pmax + 1e-12).all()
    assert (q >= qmin - 1e-12).all() and (q <= qmax + 1e-12).all()
    assert (np.hypot(p, q) <= smax + 1e-12).all()
    assert (np.hypot(net.p0, net.q0) > smax).all()
    assert (np.abs(np.hypot(p[0], q[0]) - smax) <= 1e-12).all()
    assert (np.abs(np.hypot(p[-1], q[-1]) - smax) <= 1e-12).any()


def test_regularization_discrepancy_monotone_in_eta():
    # Distance from the near-unregularized saddle grows with eta.
    ref = saddle_oracle(
        prepare(
            _cfg2(
                controller=ControllerConfig(eps_primal=2e-3, eps_dual=2e-3, eta=1e-7, v_min=0.999, v_max=1.05),
                allow_uncertified=True,
            )
        )
    )
    dists = []
    for eta in (1e-4, 1e-3, 1e-2):
        xs = saddle_oracle(
            prepare(
                _cfg2(
                    controller=ControllerConfig(eps_primal=2e-3, eps_dual=2e-3, eta=eta, v_min=0.999, v_max=1.05),
                    allow_uncertified=True,
                )
            )
        )
        dists.append(np.linalg.norm(xs.z - ref.z))
    assert dists[0] <= dists[1] <= dists[2]
    assert dists[2] > dists[0]


def test_contraction_two_bus_linear_pipeline():
    cfg = _cfg2(feedback_mode="linear_model", plant_model="linear", track_saddle=True,
                iterations=400)
    ctx = prepare(cfg)
    trace = run_closed_loop(ctx)
    d = trace.dist_to_saddle
    mask = d[:-1] > 1e-13
    ratios = d[1:][mask] / d[:-1][mask]
    bound = np.sqrt(ctx.certificate.delta(max(cfg.controller.eps_primal, cfg.controller.eps_dual)))
    assert (ratios[10:] <= bound + 1e-6).all()


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of its Python-heap allocations in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_contraction_at_paper_scale():
    # The paper's 4,521-node network size: set-up with the saddle oracle
    # stays O(N) in memory (one 4521 x 9042 float64 G alone would be 327 MB),
    # and the linear loop contracts toward that saddle point at the
    # certified rate.
    cfg, net = _binding_feeder_cfg(
        4521, feedback_mode="linear_model", plant_model="linear", track_saddle=True,
        iterations=60,
    )
    ctx, peak = _traced_peak(prepare, cfg, net)
    assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"
    eps = max(cfg.controller.eps_primal, cfg.controller.eps_dual)
    assert eps < ctx.certificate.eps_max
    d = run_closed_loop(ctx).dist_to_saddle
    mask = d[:-1] > 1e-13
    ratios = d[1:][mask] / d[:-1][mask]
    assert (ratios[10:] <= np.sqrt(ctx.certificate.delta(eps)) + 1e-6).all()


def test_headline_run_at_paper_scale():
    # The paper's headline experiment at its 4,521-node size: certified
    # steps (prepare raises CertificateError otherwise), 3.6% sensors at 1% noise, pseudo-measurements at 50%, a
    # nonlinear plant and nonlinear reconstruction. In both modes the plant
    # solve converges at every iteration (run_closed_loop raises
    # PlantDivergence otherwise) and the band holds at the end; the estimate
    # in the loop is closer to the truth than the pseudo-measurements alone
    # (criterion 4's claim at paper scale). The band is last violated at
    # iteration 457 (se_loop) and 442 (pseudo_only) of 600.
    net = synthetic_feeder(4521, seed=12)
    v_min = round(float(solve_power_flow(net, net.p0, net.q0).v_mag.min()) + 0.002, 4)
    cfg = ScenarioConfig(
        network="synthetic-4521",
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=9e-4, eta=0.08, v_min=v_min),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=1, sensor_sigma=0.01, pseudo_sigma=0.5),
        iterations=600,
        base_seed=3,
    )
    summary = {}
    for mode in ("se_loop", "pseudo_only"):
        summary[mode] = run_closed_loop(prepare(replace(cfg, feedback_mode=mode), net=net)).summary
        assert summary[mode]["final_max_violation"] == 0.0, mode
    assert summary["se_loop"]["se_err_mean_avg"] < summary["pseudo_only"]["se_err_mean_avg"]


# ---------------------------------------------------------------------------
# Error-bound audit


def test_bound_degenerate_noiseless_linear():
    cfg = _cfg33(
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.85, v_max=1.1),
        plan=PlanSpec(sensor_nodes=tuple(range(1, 33)), sensor_fraction=None,
                      sensor_sigma=0.0, pseudo_sigma=0.0),
        plant_model="linear",
        estimation_mode="linear",
        iterations=150,
        trials=2,
    )
    rep = _audit(cfg)
    assert rep.alpha_hat == 0.0
    assert rep.rho_hat == 0.0
    assert rep.bound == 0.0
    assert rep.empirical <= 1e-24
    assert rep.satisfied


def test_bound_audit_reads_run_traces_bitwise():
    cfg = _cfg33(
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.915, v_max=1.05),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=1),
        estimation_mode="linear",
        iterations=120,
        trials=2,
        base_seed=11,
    )
    ctx = prepare(cfg)
    traces = list(run_trials(ctx))
    for trace in traces:
        assert trace.mu_lower.shape == trace.mu_upper.shape == trace.p.shape
        mu = trace.mu_lower[-1]
        assert math.sqrt(np.add.reduce(mu * mu)) == trace.mu_lower_norm[-1]
    fed = verify_error_bound(ctx, traces)
    own = _audit(cfg)
    for f in fields(BoundReport):
        a, b = getattr(fed, f.name), getattr(own, f.name)
        assert np.array_equal(a, b) if f.name == "mean_dist_sq" else a == b, f.name
    short = run_closed_loop(replace(ctx, cfg=replace(cfg, iterations=5)))
    for bad in ([], [short]):
        with pytest.raises(HarnessError, match="120 iterations per trial"):
            verify_error_bound(ctx, bad)


@pytest.mark.parametrize("setup", ["ieee33_se_loop", "twobus_linear_plant", "feeder400"])
def test_derived_statistics_match_per_iteration_reference(setup):
    # The scalar columns, the summary and the bound terms are derived from
    # the recorded rows; each must equal, byte for byte, what the loop and
    # the audit computed one iteration at a time. On the 33-bus run numpy's
    # square of the slack deviation is off in the last bit at iteration 601
    # of trial 0 and 678 of trial 1, where the substation cost needs C pow.
    net = None
    if setup == "ieee33_se_loop":
        cfg = _cfg33(track_saddle=True, trials=2, iterations=700)
    elif setup == "twobus_linear_plant":
        cfg = _cfg2(plant_model="linear", track_saddle=True, trials=2)
    else:
        cfg, net = _binding_feeder_cfg(400, track_saddle=True, iterations=40, trials=2)
    ctx = prepare(cfg, net=net)
    assert isinstance(ctx.model.G, PathSum) == (setup == "feeder400")
    x_star_vec = ctx.x_star.as_vector()
    for trace in run_trials(ctx):
        if cfg.plant_model == "linear":
            p_slack = [float(-p.sum()) for p in trace.p]
        else:
            p_slack = [solve_power_flow(ctx.net, p, q).p_slack for p, q in zip(trace.p, trace.q)]
        columns, summary = reference_trace_statistics(trace, ctx, p_slack)
        for name, ref in columns.items():
            assert getattr(trace, name).tobytes() == ref.tobytes(), name
        assert json.dumps(trace.summary) == json.dumps(summary)
        ours = harness_mod._bound_terms(trace, ctx.model, x_star_vec)
        ref = reference_bound_terms(trace, ctx.model, x_star_vec)
        for name, a, b in zip(("d_alpha", "d_rho", "dist_sq"), ours, ref):
            assert a.tobytes() == b.tobytes(), name


def test_trace_norms_do_not_depend_on_blas_threads():
    # Rows of 16,000 entries, long enough for OpenBLAS to split a dot product
    # between threads, which changes its last bit.
    code = (
        "import numpy as np\n"
        "from gridloop.harness import _row_norms\n"
        "rows = np.random.default_rng(5).standard_normal((8, 16000))\n"
        "print([x.hex() for x in _row_norms(rows).tolist()])\n"
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


def test_loop_and_audit_hold_no_whole_trace_temporaries():
    # Deriving the statistics reads (K, N) blocks and (4N,) rows. The loop
    # peaks about 0.65 MB above its trace; with the local cost and the
    # estimation error not computed in place it peaked 1.05 MB above, and
    # with the saddle distance taken from a whole (K, 4N) block of the
    # iterates 4.7 MB above.
    ctx = prepare(_cfg33(track_saddle=True, estimation_mode="linear", iterations=2000))
    trace, peak = _traced_peak(run_closed_loop, ctx, 0)
    trace_bytes = sum(getattr(trace, f.name).nbytes for f in fields(trace) if f.name != "summary")
    assert peak <= trace_bytes + 1.0e6, f"peak {peak / 1e6:.2f} MB, trace {trace_bytes / 1e6:.2f} MB"
    traces = [trace, run_closed_loop(ctx, 1)]
    _, peak = _traced_peak(verify_error_bound, ctx, traces)
    assert peak <= 1.5e6, f"audit peak {peak / 1e6:.2f} MB"


def test_bound_scales_with_noise_linear_plant():
    def report(pseudo_sigma):
        cfg = _cfg33(
            controller=ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.915, v_max=1.05),
            plan=PlanSpec(sensor_fraction=0.036, placement_seed=1,
                          sensor_sigma=0.01, pseudo_sigma=pseudo_sigma),
            plant_model="linear",
            estimation_mode="linear",
            iterations=250,
            trials=4,
            base_seed=11,
        )
        return _audit(cfg)

    lo = report(0.25)
    hi = report(0.5)
    assert lo.satisfied and hi.satisfied
    # Quadrupled noise variance roughly quadruples the alpha term and bound.
    assert 2.0 < hi.alpha_hat / lo.alpha_hat < 8.0
    assert hi.bound > lo.bound
    # The linear plant leaves no systematic model gap: the trial-mean feedback
    # tracks the model closely even though each draw is noisy.
    assert hi.rho_hat > 0


def test_bound_shrinks_with_eps():
    bounds, empiricals = [], []
    for scale in (1.0, 0.5, 0.25):
        cfg = _cfg33(
            controller=ControllerConfig(
                eps_primal=7e-4 * scale, eps_dual=1e-3 * scale, eta=0.08, v_min=0.915, v_max=1.05
            ),
            plan=PlanSpec(sensor_fraction=0.036, placement_seed=1),
            estimation_mode="linear",
            iterations=400,
            trials=4,
            base_seed=11,
        )
        rep = _audit(cfg)
        assert rep.satisfied
        bounds.append(rep.bound)
        empiricals.append(rep.empirical)
    assert bounds[0] > bounds[1] > bounds[2]
    assert empiricals[0] > empiricals[1] > empiricals[2]


def test_error_non_accumulation_stationary_tail():
    cfg = _cfg33(
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.915, v_max=1.05),
        plan=PlanSpec(sensor_fraction=0.036, placement_seed=1),
        estimation_mode="linear",
        iterations=1000,
        trials=4,
        base_seed=11,
    )
    rep = _audit(cfg)
    series = rep.mean_dist_sq
    tail_means = [series[int(f * len(series)):].mean() for f in (0.8, 0.85, 0.9, 0.95)]
    for earlier, later in zip(tail_means, tail_means[1:]):
        assert later <= earlier * 1.05


# ---------------------------------------------------------------------------
# Baselines and tightening


def test_baseline_comparison_noiseless_identical():
    # A non-binding noiseless scenario keeps everything at the nominal point:
    # every feedback flavour gives the same trajectory.
    cfg = _cfg33(
        controller=ControllerConfig(eps_primal=7e-4, eps_dual=1e-3, eta=0.08, v_min=0.85, v_max=1.1),
        cost=CostSpec(alpha=0.0),
        plan=PlanSpec(sensor_nodes=tuple(range(1, 33)), sensor_fraction=None,
                      sensor_sigma=0.0, pseudo_sigma=0.0),
        iterations=100,
    )
    rep = run_baseline_comparison(prepare(cfg))
    for mode in rep.modes:
        assert rep.err_mean[mode].max() <= 1e-12, mode
        assert rep.final_violations[mode] == 0


def test_baseline_comparison_default_noise_ordering():
    cfg = _cfg33(iterations=500)
    rep = run_baseline_comparison(prepare(cfg))
    se = rep.running_avg_mean["se_loop"][100:]
    assert (se < rep.running_avg_mean["raw_measurements"][100:]).all()
    assert (se < rep.running_avg_mean["pseudo_only"][100:]).all()
    assert rep.reduction_vs_raw < 1.0
    assert rep.reduction_vs_pseudo < 1.0


def _tightened_traces(monkeypatch) -> list[SimulationTrace]:
    # The traces of the tightened trials, which the report does not keep.
    traces = []
    real = harness_mod.run_closed_loop

    def recording(*args, **kwargs):
        traces.append(real(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(harness_mod, "run_closed_loop", recording)
    return traces


def test_tightening_zero_confidence_identical(monkeypatch):
    ctx = prepare(_cfg33(iterations=150))
    base = run_closed_loop(ctx)
    tightened = _tightened_traces(monkeypatch)
    rep = tightened_bound_experiment(ctx, 0.0, base.summary)
    assert rep.halfwidth == 0.0
    assert rep.v_min_tightened == rep.v_min_original
    assert np.array_equal(base.p, tightened[0].p)
    assert rep.base_cost == rep.tightened_cost


def test_tightening_reads_given_base_trace(monkeypatch):
    cfg = _cfg33(iterations=80)
    ctx = prepare(cfg)
    base = run_closed_loop(ctx)
    tightened = _tightened_traces(monkeypatch)
    rep = tightened_bound_experiment(ctx, 2.576, base.summary)
    assert rep.base_cost == float(base.cost_local[-1] + base.cost_substation[-1])
    assert rep.base_violations == int((base.v_true[-1] < rep.v_min_original).sum())
    fresh = prepare(cfg)
    own = tightened_bound_experiment(fresh, 2.576, run_closed_loop(fresh).summary)
    assert np.array_equal(tightened[0].p, tightened[-1].p)
    assert own == rep


def test_tightening_reuses_context_with_moved_saddle(monkeypatch):
    # The tightened trial runs on the base context with only v_min and the
    # saddle point changed; a fresh prepare of the tightened scenario must
    # give the same trace bit for bit.
    cfg = _cfg33(iterations=80, track_saddle=True)
    ctx = prepare(cfg)
    base = run_closed_loop(ctx)
    tightened = _tightened_traces(monkeypatch)
    rep = tightened_bound_experiment(ctx, 2.576, base.summary)
    monkeypatch.undo()
    tight_cfg = replace(cfg, controller=replace(cfg.controller, v_min=rep.v_min_tightened))
    ref = run_closed_loop(prepare(tight_cfg))
    assert np.isfinite(ref.dist_to_saddle).all()
    arrays = [f.name for f in fields(SimulationTrace) if isinstance(getattr(ref, f.name), np.ndarray)]
    assert "dist_to_saddle" in arrays
    for name in arrays:
        assert np.array_equal(getattr(tightened[0], name), getattr(ref, name)), name


def test_tightening_requires_estimating_mode():
    ctx = prepare(_cfg33(feedback_mode="full_exact", iterations=50))
    with pytest.raises(HarnessError, match="estimating feedback"):
        tightened_bound_experiment(ctx, 2.576, run_closed_loop(ctx).summary)


def test_tightening_infeasible_bound_rejected():
    ctx = prepare(_cfg33(iterations=50))
    with pytest.raises(HarnessError, match="reaches v_max"):
        tightened_bound_experiment(ctx, 1e4, run_closed_loop(ctx).summary)


def test_tightening_noiseless_zero_width():
    # All channels noiseless: the analytic CI collapses (up to the weight
    # floor) and the tightened bound coincides with the original.
    cfg = _cfg33(
        plan=PlanSpec(sensor_nodes=tuple(range(1, 33)), sensor_fraction=None,
                      sensor_sigma=0.0, pseudo_sigma=0.0),
        iterations=60,
    )
    ctx = prepare(cfg)
    rep = tightened_bound_experiment(ctx, 2.576, run_closed_loop(ctx).summary)
    assert rep.halfwidth < 1e-5
    assert rep.v_min_tightened == pytest.approx(rep.v_min_original, abs=1e-5)


# ---------------------------------------------------------------------------
# Trace CSV


def _from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# Quiet and signalling NaNs of both signs with different payloads: all print "nan".
_NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
             0xFFFFFFFFFFFFFFFF)
_CELL = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 0.1, -1.5)),
    st.sampled_from(_NAN_BITS).map(_from_bits),
    st.floats(),
)


@st.composite
def _row_runs(draw) -> list[np.ndarray]:
    """Rows that mostly repeat the row above, with some cells redrawn or
    sign-flipped (0.0 <-> -0.0, NaN <-> -NaN); now and then a fresh row,
    possibly of another length, down to one cell."""
    rows = [np.array(draw(st.lists(_CELL, min_size=1, max_size=6)))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            rows.append(np.array(draw(st.lists(_CELL, min_size=1, max_size=6))))
            continue
        row = rows[-1].copy()
        for i in draw(st.lists(st.integers(0, row.size - 1), max_size=row.size)):
            row[i] = -row[i] if draw(st.booleans()) else draw(_CELL)
        rows.append(row)
    return rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=_row_runs(), end=st.sampled_from(("\n", "\r\n")))
@example(rows=[np.array([0.0, 1.0]), np.array([-0.0, 1.0]), np.array([0.0, 1.0])], end="\n")
def test_write_rows_formats_every_cell_as_its_own_repr(tmp_path_factory, rows, end):
    # Reusing the text of the cell above must not show: every line is the
    # plain repr of its row, and a cache keyed on value (0.0 == -0.0) fails.
    path = tmp_path_factory.getbasetemp() / "write_rows.csv"
    harness_mod.write_rows(path, ["iter", "x"], enumerate(rows), end=end)
    with open(path, newline="") as fh:
        lines = fh.read().split(end)
    assert lines[0] == "iter,x"
    assert lines[1:-1] == [f"{k}," + ",".join(map(repr, row.tolist())) for k, row in enumerate(rows)]
    assert lines[-1] == ""


def test_write_rows_calls_repr_only_where_the_digits_are_unsure(tmp_path, monkeypatch):
    # The formatter hands a cell to repr only for a subnormal or a decision
    # within its margin (exact ties: integers from 2^53 up, here), never for
    # the cells of an ordinary trace, zeros and NaNs included.
    calls = []

    def counting_repr(x):
        calls.append(x)
        return builtins.repr(x)

    monkeypatch.setattr(floatfmt, "repr", counting_repr, raising=False)
    trace = run_closed_loop(prepare(replace(load_scenario(SCEN / "ieee33_regulation.json"), iterations=200)))
    trace.to_csv(tmp_path / "trace.csv")
    assert calls == []
    odd = [np.array([5e-324, -1e-310, 2.5e-320]), 2.0**53 + 2 * np.arange(6)]
    harness_mod.write_rows(tmp_path / "odd.csv", ["iter"], enumerate(odd))
    assert len(calls) == 9
    assert (tmp_path / "odd.csv").read_text().splitlines()[1:] == [
        f"{k}," + ",".join(map(builtins.repr, row.tolist())) for k, row in enumerate(odd)
    ]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_write_rows_splits_rows_longer_than_a_block(tmp_path, end):
    # Rows of one and several blocks, a row ending on a block's last cell,
    # one starting on a block's first, and a row with no cells.
    block = harness_mod._BLOCK_CELLS
    rng = np.random.default_rng(3)
    sizes = [3, 2 * block + 5, block - 8, 5, block, 0, 1, 3 * block]
    rows = [rng.standard_normal(size) * 10.0 ** rng.integers(-6, 18, size) for size in sizes]
    harness_mod.write_rows(tmp_path / "rows.csv", ["iter", "x"], zip(range(10, 18), rows), end=end)
    lines = [f"{k}," + ",".join(map(repr, row.tolist())) for k, row in zip(range(10, 18), rows)]
    assert (tmp_path / "rows.csv").read_bytes() == "".join(f"{line}{end}" for line in ["iter,x"] + lines).encode()


def test_write_rows_holds_one_block_of_a_long_row(tmp_path):
    # A 20,000-cell row (feeder_4k rows are 16,008 cells, the headline
    # run's 18,100) is formatted a block at a time: about 0.33 MB of
    # temporaries, where formatting it whole would take about 3.2 MB.
    row = np.random.default_rng(4).standard_normal(20_000)
    _, peak = _traced_peak(harness_mod.write_rows, tmp_path / "row.csv", ["iter"], [(0, row)])
    assert peak < 0.6e6, f"peak {peak / 1e6:.2f} MB"
    assert (tmp_path / "row.csv").read_text() == "iter\n0," + ",".join(map(repr, row.tolist())) + "\n"


def test_trace_csv_is_the_repr_of_every_cell(tmp_path):
    # End to end, without write_rows. The regulation scenario pins p and q
    # at their bounds as it goes: 6.7% of those cells repeat the row above
    # in the first 300 iterations (24% in the last 50), 60% over all 2500.
    trace = run_closed_loop(prepare(replace(load_scenario(SCEN / "ieee33_regulation.json"), iterations=300)))
    pq = np.concatenate([trace.p, trace.q], axis=1).view(np.int64)
    assert np.mean(pq[1:] == pq[:-1]) > 0.05
    n = trace.p.shape[1]
    header = ["iter"] + [f"{label}_{i}" for label, _ in harness_mod._CSV_VECTORS for i in range(1, n + 1)]
    lines = [",".join(header + list(harness_mod._CSV_SCALARS))]
    for k in range(trace.iterations):
        cells = [getattr(trace, name)[k, i] for _, name in harness_mod._CSV_VECTORS for i in range(n)]
        cells += [getattr(trace, name)[k] for name in harness_mod._CSV_SCALARS]
        lines.append(",".join([str(k)] + [repr(float(c)) for c in cells]))
    trace.to_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == "".join(f"{line}\n" for line in lines).encode()


def test_package_exports_no_submodules():
    modules = [name for name in gridloop.__all__ if isinstance(getattr(gridloop, name), types.ModuleType)]
    assert modules == []
    assert "run_trials" in gridloop.__all__


def test_benchmark_hooks_find_every_layer(monkeypatch, tmp_path):
    # perfbench/child.py wraps each layer at the name its caller binds
    # (estimator.eval_linear, harness.primal_grad, ...); a refactor that
    # unbinds one of them breaks the traced benchmark. A short run through
    # the hooks also catches a change to what a hooked function returns,
    # such as the (r_hat, fell_back) pair its reconstruction hook reads.
    # The benchmark's code is only read here.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    tracer = child.spans.Tracer()
    counters = dict.fromkeys(
        ["plant_sweeps", "plant_unconverged", "recon_sweeps", "recon_calls", "recon_fallbacks"], 0
    )
    try:
        child.install_layers(tracer, counters)
        from gridloop import cli

        argv = ["run", str(SCEN / "twobus.json"), "--set", "iterations=5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        assert tracer.restore() == []
    assert counters["plant_sweeps"] > 0 and counters["plant_unconverged"] == 0
    assert counters["recon_calls"] == 5 and counters["recon_sweeps"] > 0
    assert counters["recon_fallbacks"] == 0
    assert {"plant.truth", "estimator.wls", "controller.grad", "netmodel.project"} <= set(tracer.names)
