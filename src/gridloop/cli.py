"""Command-line front end: scenario runs, step-size certification, reports.

Subcommands: ``run`` prepares a scenario once, runs its trials and configured
audits on that prepared context, and writes trace CSVs plus a summary and
manifest; ``certify`` prints the step-size certificate; ``report`` turns a
trace directory into plot-ready CSV series; ``compare`` prepares a scenario
once and runs the feedback-mode baselines on it with shared seeds.
``--set KEY=VALUE`` is the only way to override a scenario key. Exit codes:
0 success, 1 error (usage errors included), 2 step-size certificate
violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .feeders import BUILTIN_NETWORKS
from .harness import (
    CertificateError,
    ScenarioConfig,
    prepare,
    run_baseline_comparison,
    run_trials,
    running_average,
    scenario_certificate,
    tightened_bound_experiment,
    verify_error_bound,
    write_rows,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERTIFICATE = 2
# Failures reported as an exit code instead of a traceback. RuntimeError
# covers the harness's own errors and those of the linearizer, the estimator
# and the projection.
FAILURES = (RuntimeError, OSError, ValueError, KeyError)


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse a scenario file and apply dotted-path --set overrides.

    A relative network path is joined to the scenario file's directory, even
    if no file is there; builtin aliases ("ieee33") and absolute paths pass
    through. An override may only set a key the scenario schema has.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"scenario file {path} must hold a JSON object, got {type(raw).__name__}")
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key.path=value")
        key, _, value = item.partition("=")
        _set_dotted(raw, key.strip(), _parse_value(value.strip()))
    network = raw.get("network")
    if isinstance(network, str) and network and network not in BUILTIN_NETWORKS:
        if not Path(network).is_absolute():
            raw["network"] = str(path.parent / network)
    return ScenarioConfig.from_dict(raw)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_dotted(raw: dict, dotted: str, value) -> None:
    """Set ``value`` at a dotted path; the schema check in ``from_dict``
    rejects paths that name no scenario key."""
    *sections, leaf = dotted.split(".")
    node = raw
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"override {dotted!r}: scenario key {part!r} is not a section")
    node[leaf] = value


def _sha256(path: Path) -> str:
    """The file's sha256, read in 1 MB blocks into one reused buffer."""
    digest = hashlib.sha256()
    block = bytearray(1 << 20)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(memoryview(block)[:size])
    return digest.hexdigest()


def _environment() -> dict:
    """What a run's floating-point results depend on besides its inputs:
    the library versions, the machine, and the BLAS build and threads (a
    BLAS dot product can differ in the last bit between thread counts)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario, args.set)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "scenario": str(args.scenario),
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "seeds": [cfg.base_seed + t for t in range(cfg.trials)],
        "output_dir": str(out),
        "environment": _environment(),
        "status": "running",
    }
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, manifest)

    try:
        names = _run_scenario(cfg, out)
    except BaseException as exc:
        manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        _write_json(manifest_path, manifest)
        raise
    manifest.update(
        status="done",
        outputs={name: _sha256(out / name) for name in names},
        duration_s=time.time() - started,
    )
    _write_json(manifest_path, manifest)
    return EXIT_OK


def _run_scenario(cfg: ScenarioConfig, out: Path) -> list[str]:
    """Prepare the scenario once and go through its trials once, holding one
    trace: as each trial ends, write its trace into ``out``, keep its summary
    and fold it into the configured audit. Return the names of the files written."""
    ctx = prepare(cfg)
    summary = {"config": cfg.to_dict(), "trials": []}
    cert = ctx.certificate  # before the audit, which may build a deferred one
    if cert is not None:
        derived = {"delta": cert.delta(), "certified": cert.certified}
        summary["certificate"] = {**asdict(cert), **derived}
    if ctx.estimator is not None:
        summary["voltage_ci_halfwidth_99"] = (2.576 * np.sqrt(ctx.voltage_variance)).tolist()
    names = []

    def written(trace):
        names.append("trace.csv" if cfg.trials == 1 else f"trace_{len(names):03d}.csv")
        trace.to_csv(out / names[-1])
        summary["trials"].append(trace.summary)
        return trace

    traces = map(written, run_trials(ctx))  # neither map nor the deque keeps a trace
    if cfg.verify_bound:
        summary["bound_report"] = verify_error_bound(ctx, traces).to_dict()
    else:
        deque(traces, maxlen=0)
    if cfg.tighten_ci is not None:
        base = summary["trials"][0]
        summary["tightening"] = asdict(tightened_bound_experiment(ctx, cfg.tighten_ci, base))
    _write_json(out / "summary.json", summary)
    return names + ["summary.json"]


def cmd_certify(args: argparse.Namespace) -> int:
    cert = scenario_certificate(load_scenario(args.scenario, args.set))
    print(f"M        = {cert.M:.6g}")
    print(f"L        = {cert.L:.6g}")
    print(f"eps_max  = {cert.eps_max:.6g}")
    print(f"eps_used = {cert.eps_configured:.6g}")
    print(f"delta    = {cert.delta():.10g}")
    print(f"certified: {cert.certified}")
    return EXIT_OK if cert.certified else EXIT_CERTIFICATE


def _read_trace(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"trace {path} is empty")
    try:
        return rows[0], np.array(rows[1:], dtype=float)
    except ValueError as exc:
        raise ValueError(f"cannot read trace {path}: {exc}") from exc


def cmd_report(args: argparse.Namespace) -> int:
    trace_dir = Path(args.trace_dir)
    trace_path = trace_dir / "trace.csv"
    if not trace_path.exists():
        candidates = sorted(trace_dir.glob("trace_*.csv"))
        if not candidates:
            raise FileNotFoundError(f"no trace CSV found in {trace_dir}")
        trace_path = candidates[0]
    header, data = _read_trace(trace_path)
    col = {name: i for i, name in enumerate(header)}
    # Every network has node 1, so a trace without v_true_ columns lacks v_true_1.
    nodes = range(1, max(1, sum(name.startswith("v_true_") for name in header)) + 1)
    read = ["iter", "se_err_mean", "se_err_max", "cost_local", "cost_substation"]
    read += [f"v_{kind}_{i}" for kind in ("true", "hat") for i in nodes]
    missing = [name for name in read if name not in col]
    if missing:
        raise ValueError(f"trace {trace_path} lacks column(s) {', '.join(missing)}")
    out = Path(args.out) if args.out else trace_dir
    out.mkdir(parents=True, exist_ok=True)
    iters = data[:, col["iter"]].astype(int)
    v_true_cols = [col[f"v_true_{i}"] for i in nodes]
    v_hat_cols = [col[f"v_hat_{i}"] for i in nodes]
    run_mean = running_average(data[:, col["se_err_mean"]])
    cost_local, cost_sub = data[:, col["cost_local"]], data[:, col["cost_substation"]]

    # Final voltage profile scatter.
    _write_series(
        out / "voltage_profile.csv",
        ["node", "v_true_final", "v_hat_final", "v_true_initial"],
        nodes,
        data[-1, v_true_cols],
        data[-1, v_hat_cols],
        data[0, v_true_cols],
    )
    _write_series(
        out / "se_error_series.csv",
        ["iter", "running_avg_mean_err", "running_avg_max_err"],
        iters,
        run_mean,
        running_average(data[:, col["se_err_max"]]),
    )
    # Confidence band series (constant per plan; from the summary when present).
    summary_path = trace_dir / "summary.json"
    if summary_path.exists():
        halfwidths = json.loads(summary_path.read_text()).get("voltage_ci_halfwidth_99")
        if halfwidths:
            _write_series(
                out / "ci_band_series.csv",
                ["iter", "running_avg_mean_err", "ci_halfwidth_mean"],
                iters,
                run_mean,
                np.full(iters.size, float(np.mean(halfwidths))),
            )
    _write_series(
        out / "cost_series.csv",
        ["iter", "cost_local", "cost_substation", "cost_total"],
        iters,
        cost_local,
        cost_sub,
        cost_local + cost_sub,
    )
    return EXIT_OK


def _write_series(path: Path, header: list[str], keys, *columns: np.ndarray) -> None:
    """A report or comparison CSV: one row per key, one cell per column,
    with csv.writer's ``\\r\\n`` line ends."""
    write_rows(path, header, zip(keys, np.column_stack(columns)), end="\r\n")


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.scenario, args.set)
    report = run_baseline_comparison(prepare(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for mode in report.modes:
        _write_series(
            out / f"comparison_{mode}.csv",
            ["iter", "err_mean", "err_max", "running_avg_mean", "running_avg_max"],
            range(report.err_mean[mode].size),
            report.err_mean[mode],
            report.err_max[mode],
            report.running_avg_mean[mode],
            report.running_avg_max[mode],
        )
    _write_json(
        out / "comparison_summary.json",
        {
            "modes": list(report.modes),
            "final_violations": report.final_violations,
            "reduction_vs_raw": report.reduction_vs_raw,
            "reduction_vs_pseudo": report.reduction_vs_pseudo,
        },
    )
    print(
        f"se_loop/raw error ratio: {report.reduction_vs_raw:.3f}; "
        f"se_loop/pseudo_only: {report.reduction_vs_pseudo:.3f}"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser (its subcommands' too) whose usage errors raise
    ``ValueError``, so that ``main`` reports them like every other failure."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridloop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gridloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("scenario")
    run.add_argument("--out", required=True)
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    run.set_defaults(func=cmd_run)

    cert = sub.add_parser("certify", help="print the step-size certificate")
    cert.add_argument("scenario")
    cert.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    cert.set_defaults(func=cmd_certify)

    rep = sub.add_parser("report", help="emit plot-ready CSVs from a trace directory")
    rep.add_argument("trace_dir")
    rep.add_argument("--out")
    rep.set_defaults(func=cmd_report)

    cmp_ = sub.add_parser("compare", help="run feedback-mode baselines on shared seeds")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CertificateError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
