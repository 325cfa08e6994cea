from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_diff_counts_moved_csv_rows(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    rows = [[k, 0.5 * k, "nan"] for k in range(6)]
    moved = {2: 1e-13, 4: 2e-13}
    for root, shift in ((a, {}), (b, moved)):
        (root / "trial").mkdir(parents=True)
        lines = ["iteration,value,spare"]
        lines += [f"{k},{v + shift.get(k, 0.0)!r},{s}" for k, v, s in rows]
        (root / "trial" / "trace.csv").write_text("\n".join(lines) + "\n")
        (root / "summary.json").write_text(json.dumps({"certified": True, "cost": 1.5}))
    assert _tool().main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "summary.json: identical"
    assert out[1].startswith("trial/trace.csv: max abs diff 2e-13, max rel diff")
    # The NaN cells are equal text and do not count as moved rows.
    assert out[1].endswith(", 2 rows differ, first at row 2")
    assert len(out) == 2
