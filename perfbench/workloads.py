"""Benchmark inputs: one scenario file (and, for the feeder, one network file)
per (workload, seed), written byte-deterministically.

The 33-bus scenarios are frozen copies of the shipped ``ieee33_regulation``
and ``ieee33_bound`` scenarios, so that editing a shipped scenario does not
silently change the benchmark. Only the measurement seed (and, for the
feeder, the sensor placement) depends on ``--seed``.
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS = ("ieee33_se_loop", "ieee33_bound_audit", "feeder_4k")

# Size knobs, fixed here so that every commit measures the same work.
BOUND_AUDIT_TRIALS = 2
FEEDER_NODES = 4000
# The feeder is the one the scalability acceptance test uses, fixed like the
# 33-bus network: the certificate's power iteration takes 25 to 54 steps on
# different synthetic feeders, which would make set-up time depend on --seed.
FEEDER_SEED = 12
FEEDER_ITERATIONS = 30

_IEEE33_BASE = {
    "network": "ieee33",
    "load_scale": 1.0,
    "linearization": "lindistflow",
    "controller": {"eps_primal": 0.0007, "eps_dual": 0.001, "eta": 0.08, "v_min": 0.95, "v_max": 1.05},
    "cost": {"wp": 1.0, "wq": 1.0, "alpha": 0.0005, "p0_target": None},
    "plan": {
        "sensor_nodes": None,
        "sensor_fraction": 0.036,
        "placement_seed": 1,
        "sensor_sigma": 0.01,
        "pseudo_sigma": 0.5,
        "pseudo_fixed": False,
    },
    "feedback_mode": "se_loop",
    "plant_model": "nonlinear",
    "allow_uncertified": False,
    "track_saddle": False,
    "tighten_ci": None,
}


def _with(base: dict, **changes) -> dict:
    out = json.loads(json.dumps(base))
    for key, value in changes.items():
        if isinstance(value, dict):
            out[key].update(value)
        else:
            out[key] = value
    return out


def _dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's input files into ``out_dir``; return the scenario path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "ieee33_se_loop":
        scenario = _with(
            _IEEE33_BASE,
            estimation_mode="nonlinear",
            iterations=2500,
            trials=1,
            base_seed=seed,
            verify_bound=False,
        )
    elif workload == "ieee33_bound_audit":
        scenario = _with(
            _IEEE33_BASE,
            controller={"v_min": 0.915},
            estimation_mode="linear",
            iterations=2000,
            trials=BOUND_AUDIT_TRIALS,
            base_seed=seed,
            verify_bound=True,
        )
    elif workload == "feeder_4k":
        v_min = _write_feeder(out_dir / "network.json")
        scenario = _with(
            _IEEE33_BASE,
            network="network.json",
            # Certified for this feeder (eps_max = 9.6e-4), so prepare pays
            # for the certificate.
            controller={"eps_primal": 0.0007, "eps_dual": 0.0007, "v_min": v_min},
            plan={"placement_seed": seed},
            estimation_mode="linear",
            iterations=FEEDER_ITERATIONS,
            trials=1,
            base_seed=seed,
            verify_bound=False,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    path = out_dir / "scenario.json"
    _dump(path, scenario)
    return path


def _write_feeder(path: Path) -> float:
    """Write the synthetic feeder as a network JSON file and return the lower
    voltage bound: the nominal minimum plus 0.002 pu, so the band binds and
    the duals move."""
    from gridloop.feeders import synthetic_feeder
    from gridloop.plant import solve_power_flow

    net = synthetic_feeder(FEEDER_NODES, seed=FEEDER_SEED)
    base = solve_power_flow(net, net.p0, net.q0)
    if not base.converged:
        raise RuntimeError("nominal power flow of the synthetic feeder did not converge")
    nodes = [{"id": 0, "p0": 0.0, "q0": 0.0}]
    for nd, fs in zip(net.nodes[1:], net.feasible):
        nodes.append(
            {
                "id": nd.id,
                "p0": nd.p0,
                "q0": nd.q0,
                "pmin": fs.p_min,
                "pmax": fs.p_max,
                "qmin": fs.q_min,
                "qmax": fs.q_max,
                "smax": fs.s_max,
            }
        )
    lines = [
        {"from": ln.from_bus, "to": ln.to_bus, "r": ln.z.real, "x": ln.z.imag}
        for ln in net.lines
    ]
    _dump(path, {"v0": net.v0, "nodes": nodes, "lines": lines})
    return round(float(base.v_mag.min()) + 0.002, 4)

