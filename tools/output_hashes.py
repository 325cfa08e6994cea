"""Print, as JSON, the sha256 of every file a fixed set of gridloop runs writes.

Usage: python3 tools/output_hashes.py [--keep DIR]

Runs through ``gridloop.cli.main`` from this checkout's ``src``:

- every shipped scenario under ``scenarios/`` (``ieee33_bound.json`` reduced
  to 200 iterations and 2 trials);
- ``gridloop compare`` on ``ieee33_compare.json`` at 300 iterations;
- a 3-trial ``twobus.json`` run with ``verify_bound`` and ``track_saddle``;
- a 2-trial ``twobus.json`` run with ``verify_bound`` and
  ``allow_uncertified``, whose audit builds the deferred certificate after
  the summary's certificate block is decided, so that summary has none;
- ``ieee33_regulation.json`` with ``plan.pseudo_fixed`` at 300 iterations,
  so the pseudo-measurement stream that restarts at counter 0 every
  iteration is checked too;
- ``ieee33_regulation.json`` with ``linearization=jacobian`` at 100
  iterations, so the WLS estimator on a dense non-symmetric model is
  checked too;
- ``ieee33_regulation.json`` at 300 iterations with ``feedback_mode``
  ``raw_measurements``, ``full_exact`` and ``pseudo_only``, so every
  feedback mode's rule but the linear model's is checked on a run of its
  own (``linear_model`` is the ``feeder400_saddle`` run's);
- a 40-iteration ``se_loop`` run with linear estimation on
  ``synthetic_feeder(400, seed=12)``, which is above ``DENSE_LIMIT``, so the
  tree-kernel (``PathSum``) paths of the model and the estimator are
  checked too. Its network and scenario files are written to the temporary
  directory;
- the same feeder run with ``track_saddle`` on the linear pipeline (linear
  plant, ``linear_model`` feedback), so the saddle oracle on ``PathSum``
  operators is checked too;
- the same feeder run with ``verify_bound`` over 2 trials, so the bound
  audit on ``PathSum`` operators is checked too;
- the same feeder run on its network with an apparent-power cap
  ``smax = 0.8 * hypot(p0, q0)`` on every node, which the nominal point
  lies outside, so the projection's disk path (``_project_mixed_active``)
  is checked too: it gives the start and every iteration, and every node
  starts on its disk. No shipped scenario caps apparent power;
- ``gridloop report`` on the finished ``ieee33_regulation.json`` run, which
  writes all four plot-ready series (its summary carries the confidence
  halfwidths, so ``ci_band_series.csv`` is among them).

The runs start in the checkout's root (the synthetic feeder's in the
temporary directory) with relative scenario paths, so the network paths
``summary.json`` echoes do not depend on where the checkout lives.
``manifest.json`` is left out: it holds a timestamp and the output path.
What the runs print goes to stderr, so stdout is the JSON alone. Run it on
two commits and compare the printed JSON to check that a change keeps every
output byte-identical.

``--keep DIR`` also copies every hashed file to ``DIR/<label>/``; where two
commits' hashes differ, ``tools/output_diff.py`` on two such directories
says by how much.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gridloop.cli import main  # noqa: E402

SCEN = Path("scenarios")
REDUCED = {"ieee33_bound.json": ["--set", "iterations=200", "--set", "trials=2"]}
REPORTED = "ieee33_regulation"
FEEDER_NODES = 400
FEEDER_SEED = 12
# (label, extra argv) of each run of the synthetic feeder's scenario.
FEEDER_RUNS = (
    ("feeder400", []),
    ("feeder400_saddle", ["--set", "track_saddle=true", "--set", "plant_model=linear",
                          "--set", "feedback_mode=linear_model"]),
    ("feeder400_audit", ["--set", "verify_bound=true", "--set", "trials=2"]),
    ("feeder400_disk", ["--set", "network=feeder_disk.json"]),
)


def runs() -> list[tuple[str, list[str]]]:
    """(label, argv without --out) of every run whose outputs are hashed,
    relative to the checkout's root."""
    jobs = [
        (path.stem, ["run", str(path), *REDUCED.get(path.name, [])])
        for path in sorted(SCEN.glob("*.json"))
    ]
    jobs.append(
        ("compare", ["compare", str(SCEN / "ieee33_compare.json"), "--set", "iterations=300"])
    )
    jobs.append(
        (
            "twobus_audit",
            ["run", str(SCEN / "twobus.json"), "--set", "trials=3",
             "--set", "verify_bound=true", "--set", "track_saddle=true"],
        )
    )
    jobs.append(
        (
            "twobus_uncertified_audit",
            ["run", str(SCEN / "twobus.json"), "--set", "trials=2",
             "--set", "verify_bound=true", "--set", "allow_uncertified=true"],
        )
    )
    jobs.append(
        (
            "regulation_pseudo_fixed",
            ["run", str(SCEN / "ieee33_regulation.json"),
             "--set", "plan.pseudo_fixed=true", "--set", "iterations=300"],
        )
    )
    jobs.append(
        (
            "regulation_jacobian",
            ["run", str(SCEN / "ieee33_regulation.json"),
             "--set", "linearization=jacobian", "--set", "iterations=100"],
        )
    )
    for mode in ("raw_measurements", "full_exact", "pseudo_only"):
        jobs.append(
            (
                f"regulation_{mode}",
                ["run", str(SCEN / "ieee33_regulation.json"), "--set", f"feedback_mode={mode}",
                 "--set", "iterations=300"],
            )
        )
    return jobs


def write_feeder_scenario(directory: Path) -> str:
    """Write the synthetic feeder as ``feeder.json``, its disk-capped copy
    as ``feeder_disk.json`` and its scenario as ``feeder_scenario.json``
    into ``directory``; return the scenario's name.

    The step sizes lie under the feeder's eps_max (1.35e-2), and ``v_min``
    sits 0.002 pu above the nominal minimum voltage, so the band binds and
    the estimate steers the duals.
    """
    from gridloop.feeders import synthetic_feeder
    from gridloop.netmodel import network_document
    from gridloop.plant import solve_power_flow

    net = synthetic_feeder(FEEDER_NODES, seed=FEEDER_SEED)
    doc = network_document(net)
    (directory / "feeder.json").write_text(json.dumps(doc))
    for node in doc["nodes"][1:]:
        node["smax"] = 0.8 * math.hypot(node["p0"], node["q0"])
    (directory / "feeder_disk.json").write_text(json.dumps(doc))
    v_min = round(float(solve_power_flow(net, net.p0, net.q0).v_mag.min()) + 0.002, 4)
    scenario = {
        "network": "feeder.json",
        "controller": {"eps_primal": 1e-3, "eps_dual": 1e-3, "eta": 0.08, "v_min": v_min},
        "plan": {"sensor_fraction": 0.036, "placement_seed": 0},
        "feedback_mode": "se_loop",
        "estimation_mode": "linear",
        "iterations": 40,
        "base_seed": 0,
    }
    (directory / "feeder_scenario.json").write_text(json.dumps(scenario))
    return "feeder_scenario.json"


def hash_run(
    hashes: dict[str, str], label: str, argv: list[str], out: Path, keep: Path | None
) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        rc = main([*argv, "--out", str(out)])
    if rc != 0:
        raise SystemExit(f"{label}: exit code {rc}")
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
            if keep is not None:
                (keep / label).mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, keep / label / path.name)


def main_hashes(keep: Path | None = None) -> dict[str, str]:
    hashes: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(ROOT)
        for label, argv in runs():
            hash_run(hashes, label, argv, Path(tmp) / label, keep)
        hash_run(
            hashes, "report", ["report", str(Path(tmp) / REPORTED)], Path(tmp) / "report", keep
        )
        os.chdir(tmp)
        scenario = write_feeder_scenario(Path(tmp))
        for label, extra in FEEDER_RUNS:
            hash_run(hashes, label, ["run", scenario, *extra], Path(tmp) / label, keep)
        os.chdir(ROOT)
    return hashes


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", type=Path, metavar="DIR", help="copy every hashed file here")
    args = parser.parse_args()
    keep = None if args.keep is None else args.keep.resolve()
    print(json.dumps(main_hashes(keep), indent=1, sort_keys=True))
