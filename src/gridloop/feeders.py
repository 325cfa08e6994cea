"""Bundled and synthetic test feeders."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .netmodel import NetworkModel, build_network

BUILTIN_NETWORKS = ("ieee33",)


def resolve_network(name_or_path: str | Path) -> Path:
    """Map a builtin alias (e.g. "ieee33") or a filesystem path to a file path."""
    name = str(name_or_path)
    if name in BUILTIN_NETWORKS:
        return Path(str(resources.files("gridloop") / "data" / f"{name}.json"))
    return Path(name_or_path)


def synthetic_feeder(n: int, seed: int = 0) -> NetworkModel:
    """Random radial feeder with ``n`` non-slack nodes for scale tests.

    Parents are drawn from a sliding window of recently added nodes, which
    keeps the tree depth near 2n/window. Loads are uniform around 0.00125
    per-unit at ~0.9 power factor; boxes allow shedding half of each load.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    window = max(2, n // 20)
    nodes = [{"id": 0}]
    lines = []
    for i in range(1, n + 1):
        parent = 0 if i == 1 else int(rng.integers(max(0, i - window), i))
        r = float(rng.uniform(1e-4, 4e-4))
        x = r * float(rng.uniform(0.8, 1.5))
        lines.append({"from": parent, "to": i, "r": r, "x": x})
        pload = 0.00125 * float(rng.uniform(0.5, 1.5))
        qload = pload * float(rng.uniform(0.3, 0.6))
        nodes.append(
            {"id": i, "p0": -pload, "q0": -qload,
             "pmin": -pload, "pmax": -0.5 * pload, "qmin": -qload, "qmax": -0.5 * qload}
        )
    return build_network({"v0": 1.0, "nodes": nodes, "lines": lines})
