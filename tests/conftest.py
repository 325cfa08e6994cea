from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gridloop.feeders import resolve_network
from gridloop.netmodel import load_network


@pytest.fixture(scope="session")
def net33():
    return load_network(resolve_network("ieee33"))


@pytest.fixture()
def twobus_json(tmp_path):
    path = tmp_path / "twobus.json"
    path.write_text(
        """
        {
          "v0": 1.0,
          "nodes": [
            {"id": 0},
            {"id": 1, "p0": -0.1, "q0": -0.05,
             "pmin": -0.1, "pmax": 0.0, "qmin": -0.05, "qmax": 0.0, "smax": null}
          ],
          "lines": [{"from": 0, "to": 1, "r": 0.01, "x": 0.02}]
        }
        """
    )
    return path
