"""One measured run in a fresh process: time ``harness.prepare`` (set-up),
then one ``gridloop.cli.main(["run", ...])`` call, optionally traced.

Usage: python3 child.py SCENARIO OUT_DIR RESULT_JSON TRACE(0|1)

Run with the checkout's ``src`` on PYTHONPATH. The result file holds the
timings, the process's peak RSS, the environment and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans


def blas_info() -> dict:
    """BLAS library name from numpy's build config and its live thread count."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": name, "threads": threads}


def install_layers(tracer: spans.Tracer, counters: dict) -> None:
    """Wrap each layer's public function at the name its caller binds."""
    from gridloop import cli, controller, estimator, harness

    def plant(sol):
        counters["plant_sweeps"] += sol.iterations
        counters["plant_unconverged"] += 0 if sol.converged else 1

    def recon(sol):
        counters["recon_sweeps"] += sol.iterations

    def reconstruct(result):
        counters["recon_calls"] += 1
        counters["recon_fallbacks"] += 1 if result[1] else 0

    wls = estimator.WlsEstimator
    table = [
        (cli, "main", "cli", None),
        (cli, "prepare", "harness.prepare", None),
        (cli, "run_trials", "harness.loop", None),
        (cli, "verify_error_bound", "harness.verify", None),
        (harness, "saddle_oracle", "harness.saddle", None),
        (harness.SimulationTrace, "to_csv", "harness.to_csv", None),
        (harness, "load_network", "netmodel.load", None),
        (harness, "linearize", "linearizer.linearize", None),
        (harness, "certify_step_size", "controller.certify", None),
        (wls, "__init__", "estimator.factor", None),
        (wls, "voltage_variance", "estimator.variance", None),
        (harness, "solve_power_flow", "plant.truth", plant),
        (harness, "sample_measurements", "sensing.sample", None),
        (wls, "solve", "estimator.wls", None),
        (harness, "estimate_voltages", None, reconstruct),
        (estimator, "solve_power_flow", "estimator.recon_plant", recon),
        (harness, "eval_linear", "linearizer.eval", None),
        (estimator, "eval_linear", "linearizer.eval", None),
        (harness, "primal_grad", "controller.grad", None),
        (harness, "primal_step", "controller.primal_step", None),
        (controller, "project_feasible_net", "netmodel.project", None),
        (harness, "dual_step", "controller.dual_step", None),
    ]
    for owner, attr, name, hook in table:
        tracer.wrap(owner, attr, name, hook)


# Per-layer metric -> span whose self time it reports.
SELF_TIME = {
    "plant.truth_s": "plant.truth",
    "estimator.recon_plant_s": "estimator.recon_plant",
    "sensing.sample_s": "sensing.sample",
    "estimator.wls_s": "estimator.wls",
    "estimator.factor_s": "estimator.factor",
    "estimator.variance_s": "estimator.variance",
    "linearizer.linearize_s": "linearizer.linearize",
    "controller.certify_s": "controller.certify",
    "netmodel.load_s": "netmodel.load",
    "linearizer.eval_s": "linearizer.eval",
    "controller.grad_s": "controller.grad",
    "controller.primal_step_s": "controller.primal_step",
    "netmodel.project_s": "netmodel.project",
    "controller.dual_step_s": "controller.dual_step",
    "harness.verify_self_s": "harness.verify",
    "harness.saddle_s": "harness.saddle",
    "harness.to_csv_s": "harness.to_csv",
    "cli.self_s": "cli",
    "harness.loop_self_s": "harness.loop",
}


def layer_metrics(tracer: spans.Tracer, counters: dict, user_iterations: int, out: Path) -> dict:
    totals = tracer.totals()

    def row(span: str) -> dict:
        return totals.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {metric: row(span)["self_s"] for metric, span in SELF_TIME.items()}
    metrics["harness.prepare_s"] = row("harness.prepare")["total_s"]
    truth_calls = row("plant.truth")["calls"]
    recon_calls = row("estimator.recon_plant")["calls"]
    metrics["plant.truth_sweeps_per_solve"] = counters["plant_sweeps"] / max(truth_calls, 1)
    metrics["plant.unconverged"] = counters["plant_unconverged"]
    metrics["estimator.recon_sweeps_per_solve"] = counters["recon_sweeps"] / max(recon_calls, 1)
    metrics["estimator.fallback_ratio"] = counters["recon_fallbacks"] / max(counters["recon_calls"], 1)
    metrics["sensing.sample_calls"] = row("sensing.sample")["calls"]
    metrics["harness.plant_solves_per_iter"] = truth_calls / user_iterations
    metrics["harness.csv_mb"] = sum(p.stat().st_size for p in out.glob("*.csv")) / 1e6
    starts = tracer.starts_of("plant.truth")
    periods = [1e6 * (b - a) for a, b in zip(starts, starts[1:])]
    if periods:
        tail = spans.tail_percentile(periods)
        metrics["harness.iter_p50_us"] = statistics.median(periods)
        metrics["harness.iter_tail_us"] = max(periods) if tail is None else tail[1]
        metrics["harness.iter_tail_pct"] = 100.0 if tail is None else tail[0]
    return metrics


def main(argv: list[str]) -> int:
    scenario, out, result_path, traced = argv[0], Path(argv[1]), Path(argv[2]), argv[3] == "1"
    from gridloop import cli, harness

    cfg = cli.load_scenario(scenario)
    started = time.perf_counter()
    ctx = harness.prepare(cfg)
    setup_s = time.perf_counter() - started
    del ctx
    gc.collect()

    tracer = spans.Tracer()
    counters = dict.fromkeys(
        ["plant_sweeps", "plant_unconverged", "recon_sweeps", "recon_calls", "recon_fallbacks"], 0
    )
    if traced:
        install_layers(tracer, counters)
    run = cli.main
    started = time.perf_counter()
    try:
        rc = run(["run", scenario, "--out", str(out)])
    finally:
        wall_s = time.perf_counter() - started
        unrestored = tracer.restore()

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unrestored": unrestored,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
            "GRIDLOOP_THREADS": os.environ.get("GRIDLOOP_THREADS"),
            "gridloop": str(Path(cli.__file__).resolve().parent),
        },
        "layers": None,
    }
    if traced:
        result["layers"] = layer_metrics(tracer, counters, cfg.iterations * cfg.trials, out)
        (out / "spans.json").write_text(
            json.dumps(
                {
                    "names": tracer.names,
                    "starts": tracer.starts,
                    "ends": tracer.ends,
                    "parents": tracer.parents,
                }
            )
        )
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
