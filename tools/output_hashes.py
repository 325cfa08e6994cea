"""Print, as JSON, the sha256 of every file a fixed set of gridloop runs writes.

Usage: python3 tools/output_hashes.py

Runs through ``gridloop.cli.main`` from this checkout's ``src``:

- every shipped scenario under ``scenarios/`` (``ieee33_bound.json`` reduced
  to 200 iterations and 2 trials);
- ``gridloop compare`` on ``ieee33_compare.json`` at 300 iterations;
- a 3-trial ``twobus.json`` run with ``verify_bound`` and ``track_saddle``.

The runs start in the checkout's root with relative scenario paths, so the
network paths ``summary.json`` echoes do not depend on where the checkout
lives. ``manifest.json`` is left out: it holds a timestamp and the output
path. What the runs print goes to stderr, so stdout is the JSON alone. Run
it on two commits and compare the printed JSON to check that a change keeps
every output byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gridloop.cli import main  # noqa: E402

SCEN = Path("scenarios")
REDUCED = {"ieee33_bound.json": ["--set", "iterations=200", "--trials", "2"]}


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
            ["run", str(SCEN / "twobus.json"), "--trials", "3",
             "--set", "verify_bound=true", "--set", "track_saddle=true"],
        )
    )
    return jobs


def main_hashes() -> dict[str, str]:
    hashes = {}
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs():
            out = Path(tmp) / label
            with contextlib.redirect_stdout(sys.stderr):
                rc = main([*argv, "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"{label}: exit code {rc}")
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    hashes[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


if __name__ == "__main__":
    print(json.dumps(main_hashes(), indent=1, sort_keys=True))
