from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gridloop import cli, harness
from gridloop.cli import main
from gridloop.estimator import WlsEstimator
from gridloop.sensing import make_plan
from test_harness import _traced_peak

SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def _twobus_args(tmp_path, out="out", extra=()):
    return ["run", str(SCEN / "twobus.json"), "--out", str(tmp_path / out), *extra]


def test_run_twobus_success(tmp_path):
    code = main(_twobus_args(tmp_path))
    assert code == 0
    out = tmp_path / "out"
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 400  # header + K rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certificate"]["certified"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "done"
    for name, digest in manifest["outputs"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_manifest_times_each_phase(tmp_path):
    # perf_counter totals of the run's phases, next to duration_s, in the
    # manifest only: summary.json is hashed, so it carries no timing.
    extra = ["--set", "trials=2", "--set", "iterations=30", "--set", "verify_bound=true"]
    assert main(_twobus_args(tmp_path, extra=extra)) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    phases = manifest["phase_s"]
    assert sorted(phases) == ["audit", "csv", "loop", "prepare"]
    assert all(seconds >= 0.0 for seconds in phases.values())
    assert sum(phases.values()) <= manifest["duration_s"]
    assert "phase_s" not in (out / "summary.json").read_text()


def test_run_bound_audit_solves_plant_once_per_iteration(tmp_path, monkeypatch):
    # The bound audit reads the run's traces instead of re-running the trials.
    solves = []
    real = harness.solve_power_flow

    def counting(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_power_flow", counting)
    extra = ["--set", "trials=2", "--set", "iterations=50", "--set", "verify_bound=true"]
    assert main(_twobus_args(tmp_path, extra=extra)) == 0
    assert len(solves) == 50 * 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["bound_report"]["trials"] == 2


def test_run_tightening_prepares_and_computes_variance_once(tmp_path, monkeypatch):
    # The tightened trial reuses the run's context and its voltage variance.
    calls = {"prepare": 0, "variance": 0}
    real_prepare = harness.prepare
    real_variance = WlsEstimator.voltage_variance

    def counting_prepare(*args, **kwargs):
        calls["prepare"] += 1
        return real_prepare(*args, **kwargs)

    def counting_variance(self):
        calls["variance"] += 1
        return real_variance(self)

    monkeypatch.setattr(harness, "prepare", counting_prepare)
    monkeypatch.setattr(cli, "prepare", counting_prepare)
    monkeypatch.setattr(WlsEstimator, "voltage_variance", counting_variance)
    scenario = str(SCEN / "ieee33_regulation_tight.json")
    args = ["run", scenario, "--out", str(tmp_path / "out"), "--set", "iterations=50"]
    assert main(args) == 0
    assert calls == {"prepare": 1, "variance": 1}
    # The scenario tightens at the 99% level, so both read the same variance.
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["tightening"]["confidence"] == 2.576
    assert summary["tightening"]["halfwidth"] == max(summary["voltage_ci_halfwidth_99"])


def test_run_uncertified_step_exits_2(tmp_path, capsys):
    code = main(_twobus_args(tmp_path, extra=["--set", "controller.eps_primal=1.0"]))
    assert code == 2
    err = capsys.readouterr().err
    assert "eps_max" in err


@pytest.mark.parametrize(
    "extra, code, error",
    [
        (["--set", "controller.eps_primal=1.0"], 2, "CertificateError"),
        (
            ["--set", "load_scale=500", "--set", "feedback_mode=full_exact",
             "--set", "allow_uncertified=true"],
            1,
            "PlantDivergence: plant diverged at iteration 0",
        ),
        (["--set", "network=nowhere.json"], 1, "NetworkError: cannot parse network file"),
        (
            ["--set", "load_scale=500", "--set", "linearization=jacobian",
             "--set", "allow_uncertified=true"],
            1,
            "RuntimeError: power flow diverged while linearizing",
        ),
    ],
)
def test_failed_run_manifest_says_so(tmp_path, capsys, extra, code, error):
    # Every error that stops a run is reported by exit code and one line
    # (no traceback), and the manifest says the run failed.
    assert main(_twobus_args(tmp_path, extra=extra)) == code
    message = error.partition(": ")[2]
    prefix = "certificate violation: " if code == 2 else "error: "
    assert capsys.readouterr().err.startswith(prefix + message)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith(error)
    assert "outputs" not in manifest


def test_manifest_records_environment_from_the_start(tmp_path, monkeypatch):
    # The environment is in the manifest while the run is still going, so a
    # run that dies says where it ran too; the thread counts as set, or null.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    seen = {}
    real = cli._run_scenario

    def peeking(cfg, out):
        seen.update(json.loads((out / "manifest.json").read_text()))
        return real(cfg, out)

    monkeypatch.setattr(cli, "_run_scenario", peeking)
    assert main(_twobus_args(tmp_path)) == 0
    assert seen["status"] == "running"
    env = seen["environment"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": None,
    }
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"] == env
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "environment" not in summary


def test_run_dying_mid_way_keeps_finished_traces(tmp_path, monkeypatch, capsys):
    # Each trace is written as its trial ends: a plant failure in trial 1
    # leaves trial 0's trace, byte for byte, and no trace of trial 1.
    extra = ["--set", "trials=3", "--set", "iterations=20"]
    assert main(_twobus_args(tmp_path, "ok", extra)) == 0
    real = harness.solve_power_flow
    calls = []

    def failing_in_trial_1(*args, **kwargs):
        calls.append(1)
        sol = real(*args, **kwargs)
        return replace(sol, converged=False) if len(calls) == 25 else sol

    monkeypatch.setattr(harness, "solve_power_flow", failing_in_trial_1)
    assert main(_twobus_args(tmp_path, "dead", extra)) == 1
    assert capsys.readouterr().err.startswith("error: plant diverged at iteration 4")
    dead = tmp_path / "dead"
    assert (dead / "trace_000.csv").read_bytes() == (tmp_path / "ok" / "trace_000.csv").read_bytes()
    assert not (dead / "trace_001.csv").exists()
    assert json.loads((dead / "manifest.json").read_text())["status"] == "failed"


def test_run_holds_one_trace_at_a_time(tmp_path):
    # Three 500-iteration trials with the bound audit: each trace is written,
    # audited and dropped before the next trial runs. Holding every trace
    # peaked at 2.85 MB in this test, and holding the previous trace through the
    # next trial at 2.0 MB; one trace peaks near 1.25 MB.
    scenario = str(SCEN / "ieee33_bound.json")
    overrides = ["trials=3", "iterations=500"]
    argv = ["run", scenario, "--out", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    code, peak = _traced_peak(main, argv)
    assert code == 0
    trace = harness.run_closed_loop(harness.prepare(cli.load_scenario(scenario, overrides)))
    trace_bytes = sum(getattr(trace, f.name).nbytes for f in fields(trace) if f.name != "summary")
    assert peak <= trace_bytes + 0.8e6, f"peak {peak / 1e6:.2f} MB, trace {trace_bytes / 1e6:.2f} MB"


def test_output_hash_reads_in_blocks(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(6_000_000))
    digest, peak = _traced_peak(cli._sha256, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"


def test_relative_network_resolves_against_the_scenario_only(tmp_path, monkeypatch, capsys):
    # A relative network is never looked up in the working directory: the
    # manifest would then record a name that resolves from there only.
    (tmp_path / "net.json").write_text((SCEN / "networks" / "twobus.json").read_text())
    scenario = tmp_path / "scen" / "s.json"
    scenario.parent.mkdir()
    raw = json.loads((SCEN / "twobus.json").read_text())
    scenario.write_text(json.dumps({**raw, "network": "net.json"}))
    monkeypatch.chdir(tmp_path)
    tried = str(scenario.parent / "net.json")
    assert cli.load_scenario(scenario).network == tried
    assert main(["run", str(scenario), "--out", "out"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot parse network file {tried}: ")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["config"]["network"] == tried
    for network in ("ieee33", str(tmp_path / "net.json")):
        scenario.write_text(json.dumps({**raw, "network": network}))
        assert cli.load_scenario(scenario).network == network


def test_cli_import_loads_no_multiprocessing(tmp_path):
    # Trials run in the process that prepared them, so the command line
    # needs no process machinery, and the package is numpy-only: the saddle
    # oracle, the WLS factor and the tree kernel above DENSE_LIMIT use no
    # scipy, so no run loads any of it, whether plain, audited or on the
    # 400-node feeder. numpy.random comes with the
    # package, which numpy 2 would otherwise load at the first draw.
    from gridloop.feeders import synthetic_feeder
    from gridloop.netmodel import network_document

    doc = network_document(synthetic_feeder(400, seed=12))
    (tmp_path / "feeder.json").write_text(json.dumps(doc))
    feeder = json.loads((SCEN / "twobus.json").read_text())
    feeder.update(network="feeder.json", estimation_mode="linear", iterations=40)
    feeder["plan"].update(sensor_nodes=None, sensor_fraction=0.036)
    feeder["controller"].update(eps_primal=1e-3, eps_dual=1e-3, eta=0.08, v_min=0.95)
    (tmp_path / "feeder_scenario.json").write_text(json.dumps(feeder))
    unloaded = ("multiprocessing", "scipy")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["run", str(SCEN / "twobus.json"), "--out", str(tmp_path / "o")]
    audit = ["run", str(SCEN / "twobus.json"), "--out", str(tmp_path / "audit")]
    audit += ["--set", "verify_bound=true", "--set", "track_saddle=true", "--set", "trials=2"]
    big = ["run", str(tmp_path / "feeder_scenario.json"), "--out", str(tmp_path / "big")]
    code = (
        "import sys, gridloop.cli\n"
        f"def loaded(): return [m for m in sys.modules if m.startswith({unloaded!r})]\n"
        "print('numpy.random' in sys.modules, loaded())\n"
        f"assert gridloop.cli.main({argv!r}) == 0\n"
        "print(loaded())\n"
        f"assert gridloop.cli.main({audit!r}) == 0\n"
        "print(loaded())\n"
        f"assert gridloop.cli.main({big!r}) == 0\n"
        "print(loaded())\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-4:] == ["True []", "[]", "[]", "[]"]
    summary = json.loads((tmp_path / "audit" / "summary.json").read_text())
    assert "bound_report" in summary
    assert len((tmp_path / "big" / "trace.csv").read_text().splitlines()) == 1 + 40


def test_run_determinism_identical_hashes(tmp_path):
    assert main(_twobus_args(tmp_path, out="a", extra=["--set", "base_seed=7"])) == 0
    assert main(_twobus_args(tmp_path, out="b", extra=["--set", "base_seed=7"])) == 0
    ha = hashlib.sha256((tmp_path / "a" / "trace.csv").read_bytes()).hexdigest()
    hb = hashlib.sha256((tmp_path / "b" / "trace.csv").read_bytes()).hexdigest()
    assert ha == hb
    sa = json.loads((tmp_path / "a" / "summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sa == sb


def test_run_unknown_scenario_errors(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_malformed_scenario_file_names_itself(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(ValueError, match=f"scenario file {re.escape(str(path))} is not valid JSON"):
        cli.load_scenario(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Expecting property name" in err


def test_certify_prints_constants(tmp_path, capsys):
    code = main(["certify", str(SCEN / "ieee33_regulation.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "eps_max" in out and "delta" in out
    assert "certified: True" in out


def test_certify_decoupled_closed_form(tmp_path, capsys):
    # Near-zero coupling (tiny impedances): L collapses to the cost-block 2.0
    # and M to eta, matching the decoupled closed form.
    net = tmp_path / "tiny.json"
    net.write_text(
        json.dumps(
            {
                "v0": 1.0,
                "nodes": [
                    {"id": 0},
                    {"id": 1, "p0": -0.1, "q0": -0.05, "pmin": -0.1, "pmax": 0.0,
                     "qmin": -0.05, "qmax": 0.0, "smax": None},
                ],
                "lines": [{"from": 0, "to": 1, "r": 1e-9, "x": 1e-9}],
            }
        )
    )
    scen = tmp_path / "tiny_scen.json"
    scen.write_text(
        json.dumps(
            {
                "network": str(net),
                "controller": {"eps_primal": 1e-3, "eps_dual": 1e-3, "eta": 0.01,
                               "v_min": 0.5, "v_max": 1.5},
                "cost": {"wp": 1.0, "wq": 1.0, "alpha": 0.0, "p0_target": 0.0},
                "plan": {"sensor_nodes": [1], "sensor_fraction": None,
                         "sensor_sigma": 0.01, "pseudo_sigma": 0.5},
                "iterations": 10,
            }
        )
    )
    code = main(["certify", str(scen)])
    out = capsys.readouterr().out
    assert code == 0
    m_line = [ln for ln in out.splitlines() if ln.startswith("M ")][0]
    l_line = [ln for ln in out.splitlines() if ln.startswith("L ")][0]
    assert float(m_line.split("=")[1]) == pytest.approx(0.01)
    assert float(l_line.split("=")[1]) == pytest.approx(2.0, rel=1e-6)
    eps_line = [ln for ln in out.splitlines() if "eps_max" in ln][0]
    assert float(eps_line.split("=")[1]) == pytest.approx(2 * 0.01 / 4.0, rel=1e-6)


def test_certify_builds_only_what_the_certificate_reads(tmp_path, capsys, monkeypatch):
    # No estimator and no saddle point: an apparent-power cap, which the
    # saddle oracle rejects, does not stop a track_saddle scenario's
    # certificate from printing.
    network = json.loads((SCEN / "networks" / "twobus.json").read_text())
    network["nodes"][1]["smax"] = 10.0
    (tmp_path / "capped.json").write_text(json.dumps(network))
    raw = json.loads((SCEN / "twobus.json").read_text())
    raw.update(network=str(tmp_path / "capped.json"), track_saddle=True)
    scen = tmp_path / "capped_scen.json"
    scen.write_text(json.dumps(raw))
    cert = harness.prepare(replace(cli.load_scenario(scen), track_saddle=False)).certificate

    def forbidden(*args, **kwargs):
        raise AssertionError("certify built more than the certificate reads")

    monkeypatch.setattr(harness, "WlsEstimator", forbidden)
    monkeypatch.setattr(harness, "saddle_oracle", forbidden)
    assert main(["certify", str(scen)]) == 0
    out = capsys.readouterr().out
    assert f"eps_max  = {cert.eps_max:.6g}\n" in out
    assert f"delta    = {cert.delta():.10g}\n" in out
    assert "certified: True" in out


def test_certify_oversized_step_exit_2(tmp_path):
    code = main(
        ["certify", str(SCEN / "ieee33_regulation.json"), "--set", "controller.eps_dual=0.1"]
    )
    assert code == 2


def test_report_full_exact_zero_errors(tmp_path):
    out = tmp_path / "run"
    assert main(
        ["run", str(SCEN / "twobus.json"), "--out", str(out), "--set", "feedback_mode=full_exact"]
    ) == 0
    assert main(["report", str(out)]) == 0
    series = (out / "se_error_series.csv").read_text().splitlines()[1:]
    vals = np.array([[float(v) for v in row.split(",")[1:]] for row in series])
    assert np.abs(vals).max() == 0.0
    profile = (out / "voltage_profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 1  # header + one node
    assert (out / "cost_series.csv").exists()


def test_report_series_round_trip_trace_exactly(tmp_path):
    # The running averages are np.cumsum / np.arange of the trace's error
    # columns as read back from trace.csv, written as shortest round-trip
    # reprs with csv's \r\n line ends: the file's bytes are fixed.
    out = tmp_path / "run"
    assert main(_twobus_args(tmp_path, out="run", extra=["--set", "iterations=60"])) == 0
    assert main(["report", str(out)]) == 0
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    data = np.array(rows[1:], dtype=float)
    denom = np.arange(1, data.shape[0] + 1)
    run_mean = np.cumsum(data[:, col["se_err_mean"]]) / denom
    run_max = np.cumsum(data[:, col["se_err_max"]]) / denom
    want = "iter,running_avg_mean_err,running_avg_max_err\r\n" + "".join(
        f"{k},{a!r},{b!r}\r\n" for k, (a, b) in enumerate(zip(run_mean.tolist(), run_max.tolist()))
    )
    assert (out / "se_error_series.csv").read_bytes() == want.encode()


def test_report_missing_dir_errors(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nothing")])
    assert code == 1
    assert "no trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "is empty"),
        ("iter,v_true_1\n", "is empty"),
        ("iter,v_true_1\n0,x\n", "could not convert"),
        ("a,b\n1,2\n", "lacks column(s) iter, se_err_mean, se_err_max, cost_local, "
         "cost_substation, v_true_1, v_hat_1"),
        ("iter,v_true_1,v_true_2,v_hat_1,se_err_mean,se_err_max,cost_local,cost_substation\n"
         "0,1,1,1,0,0,0,0\n", "lacks column(s) v_hat_2"),
    ],
    ids=["zero-bytes", "header-only", "not-a-number", "foreign-columns", "missing-node-column"],
)
def test_report_unreadable_trace_errors(tmp_path, capsys, content, message):
    # One "error:" line naming the trace, whatever is wrong with it.
    path = tmp_path / "trace.csv"
    path.write_text(content)
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", str(SCEN / "twobus.json")], "gridloop run: the following arguments are required: --out"),
        (["run", str(SCEN / "twobus.json"), "--out", "o", "--mode", "se_loop"],
         "gridloop: unrecognized arguments: --mode se_loop"),
        (["run", str(SCEN / "twobus.json"), "--out", "o", "--trials", "2"],
         "gridloop: unrecognized arguments: --trials 2"),
        (["run", str(SCEN / "twobus.json"), "--out", "o", "--seed", "1"],
         "gridloop: unrecognized arguments: --seed 1"),
        ([], "gridloop: the following arguments are required: command"),
    ],
    ids=["missing-out", "mode-flag", "trials-flag", "seed-flag", "missing-subcommand"],
)
def test_usage_errors_return_1_with_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    # A usage error leaves main like every other failure: exit code 1 and
    # one "error:" line, no usage text and no SystemExit. Exit 2 is left to
    # step-size certificate violations. No run starts, so nothing is written.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_compare_emits_series_and_ratios(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            str(SCEN / "ieee33_compare.json"),
            "--out",
            str(out),
            "--set",
            "iterations=300",
        ]
    )
    assert code == 0
    summary = json.loads((out / "comparison_summary.json").read_text())
    assert set(summary["modes"]) == {"se_loop", "raw_measurements", "pseudo_only"}
    assert summary["reduction_vs_raw"] < 1.0
    for mode in summary["modes"]:
        assert (out / f"comparison_{mode}.csv").exists()


def test_compare_prepares_once_and_matches_per_mode_runs(tmp_path, monkeypatch):
    # One prepared context serves every baseline: the network is linearized,
    # certified and (under track_saddle) solved for its saddle point once,
    # and each mode's trace is that of a run prepared for the mode alone.
    calls = dict.fromkeys(["prepare", "linearize", "certify_step_size", "saddle_oracle"], 0)
    traces = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    monkeypatch.setattr(cli, "prepare", harness.prepare)
    real_run = harness.run_closed_loop

    def recording(*args):
        traces.append(real_run(*args))
        return traces[-1]

    monkeypatch.setattr(harness, "run_closed_loop", recording)
    sets = ["iterations=120", "track_saddle=true"]
    scenario = SCEN / "ieee33_compare.json"
    args = ["compare", str(scenario), "--out", str(tmp_path / "cmp")]
    assert main(args + [arg for item in sets for arg in ("--set", item)]) == 0
    assert calls == dict.fromkeys(calls, 1)
    monkeypatch.undo()
    cfg = cli.load_scenario(scenario, sets)
    assert len(traces) == len(harness.BASELINE_MODES)
    for mode, trace in zip(harness.BASELINE_MODES, traces):
        ref = harness.run_closed_loop(harness.prepare(replace(cfg, feedback_mode=mode)))
        assert trace.summary == ref.summary, mode
        for f in fields(harness.SimulationTrace):
            if f.name != "summary":
                assert getattr(trace, f.name).tobytes() == getattr(ref, f.name).tobytes(), mode


def test_run_pseudo_only_ci_is_the_sensorless_estimators(tmp_path):
    # pseudo_only estimates from the pseudo-measurements alone, so its
    # confidence halfwidths, and the tightening, are those of the estimator
    # on a plan without sensors, not of the scenario's sensor plan.
    scenario = SCEN / "ieee33_regulation.json"
    out = tmp_path / "out"
    args = ["run", str(scenario), "--out", str(out), "--set", "feedback_mode=pseudo_only",
            "--set", "iterations=3", "--set", "tighten_ci=2.576"]
    assert main(args) == 0
    summary = json.loads((out / "summary.json").read_text())
    ctx = harness.prepare(cli.load_scenario(scenario))
    plan = make_plan(
        n=ctx.net.n, sensor_nodes=(), sensor_fraction=None, placement_seed=0,
        sensor_sigma=0.01, pseudo_sigma=0.5, pseudo_base=np.concatenate([ctx.net.p0, ctx.net.q0]), seed=3,
    )
    halfwidth = 2.576 * np.sqrt(WlsEstimator(plan, ctx.model).voltage_variance())
    assert summary["voltage_ci_halfwidth_99"] == halfwidth.tolist()
    assert summary["tightening"]["halfwidth"] == halfwidth.max()
    assert halfwidth.max() == pytest.approx(0.028118, abs=5e-7)
    # The scenario's own sensor plan gives narrower intervals.
    assert 2.576 * np.sqrt(ctx.voltage_variance.max()) == pytest.approx(0.024142, abs=5e-7)


def test_run_ci_band_in_report(tmp_path):
    out = tmp_path / "se"
    assert main(["run", str(SCEN / "twobus.json"), "--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    band = (out / "ci_band_series.csv").read_text().splitlines()
    assert len(band) == 1 + 400
