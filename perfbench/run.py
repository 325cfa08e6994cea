"""gridloop benchmark: time ``gridloop run`` end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ieee33_se_loop --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each measured run is a fresh
``child.py`` process (see there). With ``--trace 0`` the last stdout line is
a JSON object carrying the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics. Lines before it give each metric's median, tail
percentile and run count, the failed share and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
# Measuring one workload must end within this many seconds.
DEADLINE_S = 170.0
# Tolerance on summary values when a trace hash differs from the reference.
SUMMARY_TOL = 1e-12


def numeric_leaves(node, prefix: str = "") -> dict[str, float]:
    """Flatten the numbers (and booleans) of a JSON tree by their key path."""
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(numeric_leaves(value, f"{prefix}/{key}"))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.update(numeric_leaves(value, f"{prefix}/{i}"))
    elif isinstance(node, (bool, int, float)):
        out[prefix] = float(node)
    return out


def summaries_agree(got: dict[str, float], want: dict[str, float]) -> bool:
    if got.keys() != want.keys():
        return False
    return all(
        got[k] == want[k]
        or abs(got[k] - want[k]) <= SUMMARY_TOL * max(1.0, abs(want[k]))
        for k in want
    )


def check_outputs(
    out: Path, iterations: int, trials: int, validated: dict[str, str] | None = None
) -> tuple[dict[str, str], list[str]]:
    """Hash the trace CSVs and list what is wrong with the run's outputs.

    A trace whose hash is in ``validated`` has passed these checks before,
    byte for byte, so it is not parsed again.
    """
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest.get("status") != "done":
        problems.append(f"manifest status {manifest.get('status')!r}")
    names = ["trace.csv"] if trials == 1 else [f"trace_{t:03d}.csv" for t in range(trials)]
    hashes = {}
    for name in names:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        hashes[name] = _sha256(path)
        if validated is not None and validated.get(name) == hashes[name]:
            continue
        header = path.open().readline().strip().split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (iterations, len(header)):
            problems.append(f"{name} has shape {data.shape}, want ({iterations}, {len(header)})")
            continue
        # dist_to_saddle is NaN by design unless the scenario tracks the saddle.
        keep = [i for i, col in enumerate(header) if col != "dist_to_saddle"]
        if not np.isfinite(data[:, keep]).all():
            problems.append(f"{name} has non-finite values")
    if not (out / "summary.json").is_file():
        problems.append("summary.json missing")
    return hashes, problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError) as exc:
        return {"commit": None, "dirty": None, "note": str(exc)}


class Workload:
    """Generated inputs of one (workload, seed) and the runs made on them."""

    def __init__(self, name: str, seed: int, check_reference: bool = True):
        self.name = name
        self.seed = seed
        self.dir = WORK / f"{name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.scenario = workloads.generate(name, seed, self.dir / "inputs")
        raw = json.loads(self.scenario.read_text())
        self.iterations = raw["iterations"]
        self.trials = raw["trials"]
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        self.reference = reference.get(name) if check_reference and seed == DEFAULT_SEED else None
        self.env = dict(os.environ)
        self.env.pop("GRIDLOOP_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
        self.runs: list[dict] = []
        self.hashes: dict[str, str] | None = None

    def run_child(self, traced: bool, deadline: float) -> dict:
        kind = "traced" if traced else "plain"
        out = self.dir / kind
        shutil.rmtree(out, ignore_errors=True)
        result_path = self.dir / f"{kind}.result.json"
        result_path.unlink(missing_ok=True)
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        with open(self.dir / f"{kind}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(self.scenario), str(out),
                 str(result_path), "1" if traced else "0"],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass  # killed below and reported as a failed run
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        run = {
            "kind": kind,
            "process_s": time.perf_counter() - started,
            "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
            "problems": [],
        }
        if proc.returncode != 0 or not result_path.is_file():
            log_tail = (self.dir / f"{kind}.log").read_text()[-2000:]
            run["problems"].append(f"child exited with {proc.returncode}: {log_tail}")
        else:
            run.update(json.loads(result_path.read_text()))
            if run["rc"] != 0:
                run["problems"].append(f"gridloop run exited with {run['rc']}")
            if run["unrestored"]:
                run["problems"].append(f"wrappers not restored: {run['unrestored']}")
            if run["env"]["GRIDLOOP_THREADS"] is not None:
                run["problems"].append("GRIDLOOP_THREADS leaked into the run")
            if not run["problems"]:
                self._check(run, out)
        self.runs.append(run)
        return run

    def _check(self, run: dict, out: Path) -> None:
        try:
            hashes, problems = check_outputs(out, self.iterations, self.trials, self.hashes)
        except (OSError, ValueError) as exc:
            run["problems"].append(f"unreadable outputs: {exc}")
            return
        run["problems"] += problems
        run["hashes"] = hashes
        if problems or hashes == self.hashes:
            return
        if self.hashes is not None:
            run["problems"].append(f"trace hashes of this {run['kind']} run differ from the first run's")
            return
        if self.reference is not None and hashes != self.reference["hashes"]:
            summary = numeric_leaves(json.loads((out / "summary.json").read_text()))
            if not summaries_agree(summary, self.reference["summary"]):
                run["problems"].append("trace hashes and summary differ from the reference")
                return
        self.hashes = hashes

    def write_reference(self) -> None:
        if self.hashes is None:
            raise RuntimeError(f"{self.name}: no valid run to take the reference from")
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        summary = json.loads((self.dir / "plain" / "summary.json").read_text())
        reference[self.name] = {"hashes": self.hashes, "summary": numeric_leaves(summary)}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def measure(wl: Workload, seconds: float, traced: bool, deadline: float) -> None:
    """Run fresh processes until ``seconds`` are spent; with ``traced``,
    alternate untraced and traced runs (at least one of each)."""
    started = time.monotonic()
    kinds = [False, True] if traced else [False]
    i = 0
    while True:
        wl.run_child(kinds[i % len(kinds)], deadline)
        i += 1
        if i < len(kinds):
            continue
        elapsed = time.monotonic() - started
        typical = statistics.median([r["process_s"] for r in wl.runs])
        # Stop when the next run would end nearer past ``seconds`` than this one.
        if elapsed + typical / 2 > seconds or time.monotonic() + 2 * typical > deadline:
            break


def describe(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"  {name}: no successful runs"
    tail = spans.tail_percentile(values)
    tail_text = (
        f"p{tail[0]:.1f} {tail[1]:.6g} {unit}"
        if tail
        else "no percentile with 10 runs beyond it"
    )
    return f"  {name}: median {statistics.median(values):.6g} {unit}; {tail_text}; {len(values)} runs"


def report(wl: Workload, traced: bool, spec: dict) -> dict:
    ok = [r for r in wl.runs if not r["problems"]]
    plain = [r for r in ok if r["kind"] == "plain"]
    attempted, failed = len(wl.runs), len(wl.runs) - len(ok)
    for r in wl.runs:
        for problem in r["problems"]:
            print(f"{wl.name}: {r['kind']} run failed: {problem}", file=sys.stderr)
    print(f"{wl.name} (seed {wl.seed}, {'traced' if traced else 'untraced'}):")
    metrics: dict[str, dict] = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, unit in units.items():
        values = [r[key] for r in plain]
        print(describe(key, values, unit))
        if values and not traced:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    print(describe("cpu_s", [r["cpu_s"] for r in plain], "s"))
    print(f"  failed_share: {failed}/{attempted} = {failed / attempted:.3g}")
    if traced:
        layered = [r for r in ok if r["kind"] == "traced"]
        for m in spec["per_layer"]:
            if m["name"] == "trace_overhead":
                if plain and layered:
                    value = (
                        statistics.median([r["wall_s"] for r in layered])
                        / statistics.median([r["wall_s"] for r in plain])
                        - 1.0
                    )
                    metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                continue
            values = [r["layers"][m["name"]] for r in layered if m["name"] in r["layers"]]
            if values:
                metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        for key, entry in metrics.items():
            print(f"  {key}: {entry['value']:.6g} {entry['unit']}")
        if layered:
            pct = statistics.median([r["layers"].get("harness.iter_tail_pct", math.nan) for r in layered])
            print(f"  harness.iter_tail_us is the p{pct:.2f} iteration period")
    env = dict(ok[0]["env"]) if ok else {}
    env.update(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        GRIDLOOP_THREADS_outer=os.environ.get("GRIDLOOP_THREADS"),
        git=git_state(),
    )
    print("  env: " + json.dumps(env, sort_keys=True))
    wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    correct = failed == 0 and all(name in metrics for name in wanted)
    record = {"workload": wl.name, "seed": wl.seed, "traced": traced, "env": env, "runs": wl.runs}
    (WORK / f"result-{wl.name}-s{wl.seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help=f"record the trace hashes and summary at seed {DEFAULT_SEED} in reference.json",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "gridloop" / "cli.py").is_file():
        print(f"no gridloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        print(f"--write-reference needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        wl = Workload(name, args.seed, check_reference=not args.write_reference)
        measure(wl, args.seconds, bool(args.trace), deadline)
        results[name] = report(wl, bool(args.trace), spec)
        if args.write_reference:
            wl.write_reference()
        if results[name]["failed"] == 0:
            for csv in wl.dir.glob("*/*.csv"):  # the bulk of the disk use; kept on failure
                csv.unlink()
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
