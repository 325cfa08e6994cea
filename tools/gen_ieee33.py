"""Generate src/gridloop/data/ieee33.json from the published Baran-Wu tables.

Branch impedances are in ohms, loads in kW/kVAr at the receiving bus; the file
is written per-unit on 12.66 kV / 10 MVA with loads as negative injections.
Buses are renumbered 0..32 (substation 0). DER curtailment boxes allow shedding
up to half of each nominal load.
"""

import json
from pathlib import Path

KV_BASE = 12.66
MVA_BASE = 10.0
Z_BASE = KV_BASE**2 / MVA_BASE

# from, to, r_ohm, x_ohm (1-based bus numbers)
BRANCHES = [
    (1, 2, 0.0922, 0.0470),
    (2, 3, 0.4930, 0.2511),
    (3, 4, 0.3660, 0.1864),
    (4, 5, 0.3811, 0.1941),
    (5, 6, 0.8190, 0.7070),
    (6, 7, 0.1872, 0.6188),
    (7, 8, 0.7114, 0.2351),
    (8, 9, 1.0300, 0.7400),
    (9, 10, 1.0440, 0.7400),
    (10, 11, 0.1966, 0.0650),
    (11, 12, 0.3744, 0.1238),
    (12, 13, 1.4680, 1.1550),
    (13, 14, 0.5416, 0.7129),
    (14, 15, 0.5910, 0.5260),
    (15, 16, 0.7463, 0.5450),
    (16, 17, 1.2890, 1.7210),
    (17, 18, 0.7320, 0.5740),
    (2, 19, 0.1640, 0.1565),
    (19, 20, 1.5042, 1.3554),
    (20, 21, 0.4095, 0.4784),
    (21, 22, 0.7089, 0.9373),
    (3, 23, 0.4512, 0.3083),
    (23, 24, 0.8980, 0.7091),
    (24, 25, 0.8960, 0.7011),
    (6, 26, 0.2030, 0.1034),
    (26, 27, 0.2842, 0.1447),
    (27, 28, 1.0590, 0.9337),
    (28, 29, 0.8042, 0.7006),
    (29, 30, 0.5075, 0.2585),
    (30, 31, 0.9744, 0.9630),
    (31, 32, 0.3105, 0.3619),
    (32, 33, 0.3410, 0.5302),
]

# bus (1-based), P_kW, Q_kVAr load
LOADS = {
    2: (100, 60), 3: (90, 40), 4: (120, 80), 5: (60, 30), 6: (60, 20),
    7: (200, 100), 8: (200, 100), 9: (60, 20), 10: (60, 20), 11: (45, 30),
    12: (60, 35), 13: (60, 35), 14: (120, 80), 15: (60, 10), 16: (60, 20),
    17: (60, 20), 18: (90, 40), 19: (90, 40), 20: (90, 40), 21: (90, 40),
    22: (90, 40), 23: (90, 50), 24: (420, 200), 25: (420, 200), 26: (60, 25),
    27: (60, 25), 28: (60, 20), 29: (120, 70), 30: (200, 600), 31: (150, 70),
    32: (210, 100), 33: (60, 40),
}


def main() -> None:
    nodes = [{"id": 0, "p0": 0.0, "q0": 0.0}]
    for bus in range(2, 34):
        pkw, qkvar = LOADS[bus]
        p0 = -pkw / 1000.0 / MVA_BASE
        q0 = -qkvar / 1000.0 / MVA_BASE
        nodes.append(
            {
                "id": bus - 1,
                "p0": round(p0, 12),
                "q0": round(q0, 12),
                "pmin": round(p0, 12),
                "pmax": round(0.5 * p0, 12),
                "qmin": round(q0, 12),
                "qmax": round(0.5 * q0, 12),
                "smax": None,
            }
        )
    lines = [
        {
            "from": a - 1,
            "to": b - 1,
            "r": round(r / Z_BASE, 12),
            "x": round(x / Z_BASE, 12),
        }
        for a, b, r, x in BRANCHES
    ]
    out = {"v0": 1.0, "nodes": nodes, "lines": lines}
    dest = Path(__file__).resolve().parents[1] / "src" / "gridloop" / "data" / "ieee33.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {dest}")


if __name__ == "__main__":
    main()
